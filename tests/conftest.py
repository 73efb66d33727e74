from fractions import Fraction

import numpy as np
import pytest

import flatcurve as fc


def zp(re, im=0):
    """Exact point from ints/fractions/strings."""
    return fc.ZPoint(Fraction(re), Fraction(im))


def pair_list(pairs):
    """The rows of a ``visible_pairs`` result as (i, j) tuples, in order,
    after checking that it is an (m, 2) int64 array."""
    assert pairs.dtype == np.int64 and pairs.ndim == 2 and pairs.shape[1] == 2
    return [tuple(row) for row in pairs.tolist()]


@pytest.fixture
def lattice5():
    return fc.generate(fc.GeneratorSpec("gaussian-lattice"), 5)


@pytest.fixture
def integers10():
    return fc.generate(fc.GeneratorSpec("all-integers"), 10)
