"""The package namespace and what each entry point imports.

``import flatcurve`` loads no module; public names load their home module
on first access.  The command line imports only what a subcommand runs,
and ``--help`` and usage errors import no numpy.  Everything that depends
on a fresh interpreter runs in a subprocess.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import flatcurve as fc
from flatcurve import cli

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# The public names, by home module, as the package exported them when it
# imported every module eagerly.  The module names are public too.
EXPORTS = {
    "errors": ("ContourThroughZero", "ContractingGenerator", "DegenerateWindow",
               "DuplicatePoint", "EmptyWindow", "FlatcurveError", "IoError",
               "ModeMismatch", "NoConvergence", "NonFinite",
               "PathThroughBranchPoint", "PoleInAction", "RadiusTooLarge",
               "SingularMatrix", "TooFewPoints", "ZeroDivisor"),
    "zseq": ("EXACT", "GeneratorSpec", "Mode", "PointIndex", "ValidationReport",
             "ZPoint", "ZeroWindow", "canonical_order", "float_mode", "generate",
             "sup_norm", "validate", "window_from_json", "window_to_json"),
    "flatgeom": ("DirectionProfile", "HolonomySet", "SaddleSegment",
                 "direction_profile", "has_holonomy_vector", "holonomy",
                 "is_visible", "point_blocks", "saddle_connections",
                 "visible_pairs", "visible_pairs_bruteforce", "window_collinear"),
    "weierstrass": ("ZeroCheck", "choose_degrees", "count_zeros",
                    "elementary_factor", "eval_f", "refine_zero"),
    "cover": ("ConeAngle", "CoverPoint", "CrossingEvent", "CutSystem",
              "LiftedSaddle", "SingularitySets", "build_cuts", "cone_angle",
              "crossing_log", "fiber", "lift_path", "lift_saddle",
              "singularity_sets"),
    "veech": ("ClosureReport", "Mat2", "StabilizerSearchConfig", "VeechClass",
              "classify", "group_closure_check", "hol_stabilizer",
              "is_contracting", "pprime_symmetry", "sandwich_report",
              "stabilizer_candidates"),
    "equiv": ("EquivResult", "ModuliForm", "affine_automorphisms",
              "moduli_action", "moduli_canonical", "translation_equiv"),
}
PUBLIC = sorted([*EXPORTS, *(n for names in EXPORTS.values() for n in names)])


def _python(*args, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    env.pop("FLATCURVE_MODE", None)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          **kwargs)


# ---------------------------------------------------------------------------
# package namespace


def test_all_lists_the_same_names():
    assert len(PUBLIC) == 85
    assert fc.__all__ == PUBLIC
    assert fc.__version__ == "0.1.0"


def test_every_name_is_its_home_modules_object():
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"flatcurve.{module}")
        assert getattr(fc, module) is home
        for name in names:
            assert getattr(fc, name) is getattr(home, name), name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fc.no_such_name
    assert not hasattr(fc, "SEQUENCE_KINDS")
    with pytest.raises(ImportError):
        exec("from flatcurve import no_such_name", {})


_FRESH = """
import json, sys
import flatcurve as fc
loaded_at_import = sorted(m for m in sys.modules if m.startswith("flatcurve"))
numpy_at_import = "numpy" in sys.modules
listing = [n for n in dir(fc) if not n.startswith("__")]
modules = [fc.zseq.__name__, fc.flatgeom.__name__]
try:
    fc.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
ns = {}
exec("from flatcurve import *", ns)
star = sorted(n for n in fc.__all__ if n in ns and ns[n] is getattr(fc, n))
print(json.dumps({"loaded": loaded_at_import, "numpy": numpy_at_import,
                  "dir": listing, "modules": modules, "star": star,
                  "same": fc.holonomy is fc.flatgeom.holonomy, "unknown": unknown,
                  "hook_left": "__getattr__" in vars(fc)}))
"""


def test_fresh_interpreter_namespace():
    proc = _python("-c", _FRESH, check=True)
    got = json.loads(proc.stdout)
    assert got["loaded"] == ["flatcurve"]
    assert got["numpy"] is False
    assert got["dir"] == PUBLIC
    assert got["modules"] == ["flatcurve.zseq", "flatcurve.flatgeom"]
    assert got["star"] == PUBLIC
    assert got["same"] is True
    assert got["unknown"] == "module 'flatcurve' has no attribute 'no_such_name'"
    # with every name bound the package drops its __getattr__, so attribute
    # loads on it are as fast as on an eagerly filled package
    assert got["hook_left"] is False


def test_sequence_kinds_have_one_home():
    from flatcurve.kinds import SEQUENCE_KINDS

    assert fc.GeneratorSpec.KINDS is SEQUENCE_KINDS
    assert SEQUENCE_KINDS == ("positive-integers", "all-integers",
                              "odd4n13-positive", "odd4n13-all",
                              "gaussian-lattice", "integers-plus-minus-i",
                              "orbit", "explicit")
    sub = next(a for a in cli.build_parser()._actions if a.dest == "cmd")
    for name, parser in sub.choices.items():
        seq = next(a for a in parser._actions if a.dest == "sequence")
        assert seq.choices is SEQUENCE_KINDS, name


# ---------------------------------------------------------------------------
# what each command line imports


def _imported(*argv):
    """(exit code, stdout, names of the modules the command imported).

    ``-X importtime`` writes one stderr line per module imported through
    the import statement or ``__import__``, which is how the package and
    the command line import their modules."""
    proc = _python("-X", "importtime", "-m", "flatcurve.cli", *argv)
    names = set()
    for line in proc.stderr.decode().splitlines():
        if line.startswith("import time:") and "imported package" not in line:
            names.add(line.rsplit("|", 1)[1].strip())
    return proc.returncode, proc.stdout, names


LIBRARY = {"errors", "kinds", "zseq", "flatgeom", "weierstrass", "cover",
           "veech", "gridsearch", "equiv", "svg"}


def _library(names):
    return {n.split(".", 1)[1] for n in names if n.startswith("flatcurve.")} & LIBRARY


def test_help_and_usage_errors_import_no_numpy():
    for argv, code in ((["--help"], 0),
                       (["gen", "--sequence", "nope", "--radius", "3"], 2)):
        rc, _, names = _imported(*argv)
        assert rc == code, argv
        assert "flatcurve.errors" in names  # the listing is read correctly
        assert not any(n == "numpy" or n.startswith("numpy.") for n in names), argv
        assert _library(names) == {"errors", "kinds"}, argv


def test_products_import_no_geometry():
    for argv in (["eval", "--sequence", "positive-integers", "--radius", "20",
                  "--at", "1/2,0"],
                 ["verify-zeros", "--sequence", "positive-integers",
                  "--radius", "5", "--box", "1.5,-0.5,2.5,0.5"]):
        rc, out, names = _imported(*argv)
        assert rc == 0, out
        assert _library(names) == {"errors", "kinds", "zseq", "weierstrass"}, argv


def test_gen_imports_only_the_window_modules():
    rc, out, names = _imported("gen", "--sequence", "gaussian-lattice",
                               "--radius", "3")
    assert rc == 0, out
    # kinds is the numpy-free tuple of sequence names behind --sequence
    assert _library(names) == {"errors", "kinds", "zseq"}


def test_symmetry_commands_import_no_numpy_ma():
    # a plain np.unique imports numpy.ma on first use (about 16 ms and 1 MB
    # that every run would pay); the searches sort and drop repeats instead
    for argv in (["classify", "--sequence", "all-integers", "--radius", "20"],
                 ["classify", "--sequence", "all-integers", "--radius", "20",
                  "--mode", "float"],
                 ["classify", "--sequence", "gaussian-lattice", "--radius", "6"],
                 ["sandwich", "--sequence", "gaussian-lattice", "--radius", "8",
                  "--inner", "3", "--mode", "float"]):
        rc, out, names = _imported(*argv)
        assert rc == 0, out
        assert "veech" in _library(names), argv
        assert "numpy.ma" not in names, argv


def test_equiv_of_exact_windows_imports_no_search_kernel(tmp_path):
    # exact translation equivalence runs on the grid helpers of zseq and the
    # membership structures of flatgeom, not on the stabilizer kernel
    w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), 4)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(fc.window_to_json(w)), encoding="utf-8")
    b.write_text(json.dumps(fc.window_to_json(w.translate(fc.ZPoint(1, 0)))),
                 encoding="utf-8")
    rc, out, names = _imported("equiv", "--input", str(a), "--other", str(b))
    assert rc == 0, out
    assert json.loads(out)["equivalent"] is True
    assert "equiv" in _library(names)
    assert "gridsearch" not in _library(names)


def test_no_module_keeps_an_unused_import():
    """Every top-level import of a library module is used in it: a name
    bound by the import is read somewhere in the module."""
    for path in sorted((SRC / "flatcurve").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        bound = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound |= {a.asname or a.name for a in node.names}
        assert bound - read == set(), path.name


def test_no_module_keeps_an_unused_private_definition():
    """Every private top-level function or class of a library module is read
    somewhere in the package, as a name or an attribute."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((SRC / "flatcurve").glob("*.py"))}
    read = {n.id if isinstance(n, ast.Name) else n.attr for tree in trees.values()
            for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))}
    private = {(name, node.name) for name, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")}
    assert private
    assert {d for d in private if d[1] not in read} == set()
