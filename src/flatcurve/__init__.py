"""Finite-window analysis of infinite zero sequences in the plane.

Windows of a zero sequence (exact rational or eps-tolerant float
coordinates) feed four analyses: evaluation of the canonical product
vanishing on the sequence, saddle connections and holonomy of the induced
flat geometry, path lifting to m-cyclic branched covers, and
classification of the window's symmetry group with translation-equivalence
and moduli coordinates on the side.

Importing the package loads none of its modules: each public name, and
each module name, is imported from its home module on first access and
kept in the package namespace from then on (PEP 562), together with the
names of every other module loaded by then.
"""

# home module -> the public names the package takes from it
_EXPORTS = {
    "errors": (
        "ContourThroughZero",
        "ContractingGenerator",
        "DegenerateWindow",
        "DuplicatePoint",
        "EmptyWindow",
        "FlatcurveError",
        "IoError",
        "ModeMismatch",
        "NoConvergence",
        "NonFinite",
        "PathThroughBranchPoint",
        "PoleInAction",
        "RadiusTooLarge",
        "SingularMatrix",
        "TooFewPoints",
        "ZeroDivisor",
    ),
    "zseq": (
        "EXACT",
        "GeneratorSpec",
        "Mode",
        "ValidationReport",
        "ZPoint",
        "ZeroWindow",
        "canonical_order",
        "float_mode",
        "generate",
        "sup_norm",
        "validate",
        "window_from_json",
        "window_to_json",
    ),
    "flatgeom": (
        "DirectionProfile",
        "HolonomySet",
        "SaddleSegment",
        "direction_profile",
        "has_holonomy_vector",
        "holonomy",
        "is_visible",
        "point_blocks",
        "saddle_connections",
        "visible_pairs",
        "visible_pairs_bruteforce",
        "window_collinear",
    ),
    "weierstrass": (
        "ZeroCheck",
        "choose_degrees",
        "count_zeros",
        "elementary_factor",
        "eval_f",
        "refine_zero",
    ),
    "cover": (
        "ConeAngle",
        "CoverPoint",
        "CrossingEvent",
        "CutSystem",
        "LiftedSaddle",
        "SingularitySets",
        "build_cuts",
        "cone_angle",
        "crossing_log",
        "fiber",
        "lift_path",
        "lift_saddle",
        "singularity_sets",
    ),
    "veech": (
        "ClosureReport",
        "Mat2",
        "StabilizerSearchConfig",
        "VeechClass",
        "classify",
        "group_closure_check",
        "hol_stabilizer",
        "is_contracting",
        "pprime_symmetry",
        "sandwich_report",
        "stabilizer_candidates",
    ),
    "equiv": (
        "EquivResult",
        "ModuliForm",
        "affine_automorphisms",
        "moduli_action",
        "moduli_canonical",
        "translation_equiv",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    home = _HOME.get(name, name)
    if home not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import binds the module in this namespace; the builtin keeps the
    # import visible to ``python -X importtime``, unlike importlib's
    __import__(f"{__name__}.{home}")
    ns = globals()
    for module, names in _EXPORTS.items():
        if module in ns:  # bound once the module has finished loading
            for n in names:
                ns.setdefault(n, getattr(ns[module], n))
    # CPython does not specialize attribute loads on a module that defines
    # __getattr__ (they take about 3x as long), so it goes once every name
    # is bound
    if all(n in ns for n in __all__):
        ns.pop("__getattr__", None)
    return ns[name]


def __dir__():
    # the lookup tables above are private and stay out of the listing
    return sorted({*__all__, *(n for n in globals() if n[:1] != "_" or n[:2] == "__")})
