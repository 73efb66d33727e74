import math
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


def image_window(a, radius, mode, scale=1):
    """The window of ``scale`` A·Z², A = [[a0, a1], [a2, a3]] given as
    rationals: the points ``scale`` A (x, y), for integer (x, y), within
    ``radius`` ``scale`` of 0, each coordinate exact and then put in
    ``mode``."""
    a0, a1, a2, a3 = map(Fraction, a)
    scale = Fraction(scale)
    # |A v| >= |v| / 4 for every A used here
    k = 4 * int(radius)
    pts = []
    for x in range(-k, k + 1):
        for y in range(-k, k + 1):
            px, py = a0 * x + a1 * y, a2 * x + a3 * y
            if px * px + py * py <= radius * radius:
                pts.append(fc.ZPoint.of(px * scale, py * scale, mode))
    return fc.ZeroWindow.from_points(pts, radius * scale, mode)


# A with both off-diagonal entries non-integer: the float entries of its
# window's symmetries round
SHEAR = ("1", "1/3", "1/2", "1")


def hexagonal_window(radius, mode):
    """The float hexagonal lattice {x + y e^(i pi/3)} in the ball of ``radius``."""
    s = math.sqrt(3) / 2
    pts = [fc.ZPoint(x + y / 2, y * s) for y in range(-2 * radius, 2 * radius + 1)
           for x in range(-2 * radius, 2 * radius + 1)]
    return fc.ZeroWindow.from_points([p for p in pts if p.re * p.re + p.im * p.im <= radius ** 2],
                                     radius, mode)
