"""Domain error types.

Every error carries a stable ``code`` string so the command line tool can
emit machine-readable ``{"error": code, "detail": ...}`` objects.
"""


class FlatcurveError(Exception):
    code = "Error"

    def __init__(self, detail=""):
        super().__init__(detail or self.code)
        self.detail = detail or self.code


class DuplicatePoint(FlatcurveError):
    code = "DuplicatePoint"


class EmptyWindow(FlatcurveError):
    code = "EmptyWindow"


class ContractingGenerator(FlatcurveError):
    code = "ContractingGenerator"


class ZeroDivisor(FlatcurveError):
    code = "ZeroDivisor"


class NonFinite(FlatcurveError):
    """A value is not finite: a window point's coordinate, or a product
    that overflowed, whose log-space magnitude and argument ``log10mag``
    and ``arg`` record."""

    code = "NonFinite"

    def __init__(self, detail="", log10mag=None, arg=None):
        super().__init__(detail)
        self.log10mag = log10mag
        self.arg = arg


class ContourThroughZero(FlatcurveError):
    code = "ContourThroughZero"


class NoConvergence(FlatcurveError):
    code = "NoConvergence"


class PathThroughBranchPoint(FlatcurveError):
    code = "PathThroughBranchPoint"


class RadiusTooLarge(FlatcurveError):
    code = "RadiusTooLarge"


class SingularMatrix(FlatcurveError):
    code = "SingularMatrix"


class TooFewPoints(FlatcurveError):
    code = "TooFewPoints"


class DegenerateWindow(FlatcurveError):
    code = "DegenerateWindow"


class ModeMismatch(FlatcurveError):
    code = "ModeMismatch"


class PoleInAction(FlatcurveError):
    code = "PoleInAction"

    def __init__(self, detail="", index=None):
        super().__init__(detail)
        self.index = index


class IoError(FlatcurveError):
    code = "IoError"
