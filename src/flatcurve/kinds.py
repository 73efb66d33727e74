"""Names of the built-in sequence families.

``GeneratorSpec.KINDS`` and the command line's ``--sequence`` choices are
this tuple; it lives apart from ``zseq`` so that ``flatcurve --help`` and
usage errors import no numpy.
"""

SEQUENCE_KINDS = (
    "positive-integers",
    "all-integers",
    "odd4n13-positive",
    "odd4n13-all",
    "gaussian-lattice",
    "integers-plus-minus-i",
    "orbit",
    "explicit",
)
