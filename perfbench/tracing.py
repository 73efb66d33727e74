"""Spans around flatcurve's public layer functions, installed from outside.

``Tracer.install`` replaces each traced function with a recording wrapper in
every flatcurve namespace that holds it (``holonomy`` lives in ``flatgeom``
and is imported into ``veech`` and the package), so internal calls between
layers are seen too.  ``uninstall`` puts the originals back; an untraced run
never calls ``install`` and runs the program unmodified.

A span records its name, start, end, parent span and job id, plus a few
work counts read from the call's arguments and result.  Self time is the
span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

import numpy as np

import flatcurve as fc
from flatcurve import cli, cover, equiv, flatgeom, svg, veech, weierstrass, zseq

# The public entry points of each layer.  Arithmetic helpers (cross, dot,
# is_contracting, point_blocks, ...) run per point or per candidate and are
# left out: a span per call would cost more than the work it times.
TRACED = {
    "zseq": ("generate", "ZeroWindow.from_points", "ZeroWindow.min_gap",
             "window_from_json", "window_to_json", "validate"),
    "flatgeom": ("visible_pairs", "visible_pairs_bruteforce", "holonomy",
                 "has_holonomy_vector", "saddle_connections", "direction_profile",
                 "window_collinear"),
    "veech": ("stabilizer_candidates", "hol_stabilizer", "pprime_symmetry",
              "sandwich_report", "group_closure_check", "classify"),
    "equiv": ("translation_equiv", "affine_automorphisms", "moduli_canonical",
              "moduli_action"),
    "weierstrass": ("eval_f", "count_zeros", "refine_zero", "choose_degrees"),
    "cover": ("build_cuts", "lift_path", "crossing_log", "lift_saddle",
              "cone_angle", "fiber", "singularity_sets"),
    "svg": ("build_svg",),
    "cli": ("main",),
}

MODULES = {"zseq": zseq, "flatgeom": flatgeom, "veech": veech, "equiv": equiv,
           "weierstrass": weierstrass, "cover": cover, "svg": svg, "cli": cli}
NAMESPACES = (fc, *MODULES.values())


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _nonzero_count(w) -> int:
    return sum(1 for p in w.points if not p.is_zero())


# Work counts per call, read from arguments and result: name -> fn(args,
# kwargs, result) -> dict.
def _vp_work(a, k, r):
    n = len(_arg(a, k, 0, "w"))
    return {"n": n, "restricted": _arg(a, k, 1, "max_length") is not None,
            "candidates": n * (n - 1) // 2}


def _hol_work(a, k, r):
    w = _arg(a, k, 0, "w")
    return {"n": len(w), "restricted": _arg(a, k, 1, "max_length") is not None,
            "exact": w.mode.is_exact, "vectors": len(r),
            "family": w.source.kind if w.source is not None else None}


def _classify_work(a, k, r):
    if r.kind != "Countable":
        return {}
    return {"lower": len(r.lower), "upper": len(r.upper)}


def _eval_work(a, k, r):
    return {"factor_evals": int(np.size(_arg(a, k, 0, "z"))) * _nonzero_count(_arg(a, k, 1, "w"))}


def _lift_work(a, k, r):
    cuts = _arg(a, k, 2, "cuts")
    return {"seg_zero_tests": (len(_arg(a, k, 0, "poly")) - 1) * len(cuts.window)}


def _crossing_work(a, k, r):
    cuts = _arg(a, k, 1, "cuts")
    return {"seg_zero_tests": (len(_arg(a, k, 0, "poly")) - 1) * len(cuts.window)}


def _saddle_lift_work(a, k, r):
    return {"seg_zero_tests": len(_arg(a, k, 2, "cuts").window)}


WORK = {
    "flatgeom.visible_pairs": _vp_work,
    "flatgeom.holonomy": _hol_work,
    "veech.classify": _classify_work,
    "weierstrass.eval_f": _eval_work,
    "cover.lift_path": _lift_work,
    "cover.crossing_log": _crossing_work,
    "cover.lift_saddle": _saddle_lift_work,
}


class Tracer:
    """In-memory span recorder; ``job`` tags every span with the current job."""

    def __init__(self):
        self.spans = []
        self.job = None
        self.paused = False
        self._stack = []
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            rec = {"id": len(tracer.spans), "name": name,
                   "parent": tracer._stack[-1] if tracer._stack else None,
                   "job": tracer.job}
            tracer.spans.append(rec)
            tracer._stack.append(rec["id"])
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec["error"] = type(exc).__name__
                raise
            finally:
                rec["end"] = time.perf_counter()
                tracer._stack.pop()
            if work is not None:
                rec.update(work(args, kwargs, result))
            return result

        return wrapper

    def install(self):
        for layer, names in TRACED.items():
            mod = MODULES[layer]
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[attr]
                    fn = orig.__func__ if isinstance(orig, staticmethod) else orig
                    wrapped = self._wrap(f"{layer}.{attr}", fn)
                    if isinstance(orig, staticmethod):
                        wrapped = staticmethod(wrapped)
                    setattr(cls, attr, wrapped)
                    self._undo.append((cls, attr, orig))
                    continue
                orig = getattr(mod, name)
                wrapped = self._wrap(f"{layer}.{name}", orig)
                for ns in NAMESPACES:
                    if getattr(ns, name, None) is orig:
                        setattr(ns, name, wrapped)
                        self._undo.append((ns, name, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def extend(self, spans: list, job):
        """Adopt spans recorded in a child process, re-numbered and re-tagged."""
        base = len(self.spans)
        for rec in spans:
            rec = dict(rec, id=rec["id"] + base, job=job)
            if rec["parent"] is not None:
                rec["parent"] += base
            self.spans.append(rec)

    def dump(self, path: str, meta: dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": self.spans}, fh)


# --------------------------------------------------------------------------
# reduction to per-layer metrics


def self_times(spans: list) -> dict:
    """span id -> duration minus the durations of its direct children."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in out:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _outermost(spans: list, name: str, by_id: dict) -> list:
    """Spans called ``name`` with no ancestor of the same name."""
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        p = s["parent"]
        while p is not None and by_id[p]["name"] != name:
            p = by_id[p]["parent"]
        if p is None:
            out.append(s)
    return out


def _busy(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def scaling_exponent(full_holonomy: list) -> float:
    """Slope of log time against log n for full exact lattice holonomy,
    between the two largest window sizes; 0 when fewer than two sizes ran."""
    times = {}
    for s in full_holonomy:
        if s.get("family") == "gaussian-lattice" and s.get("exact"):
            times.setdefault(s["n"], []).append(s["end"] - s["start"])
    if len(times) < 2:
        return 0.0
    n1, n2 = sorted(times)[-2:]
    t1, t2 = statistics.median(times[n1]), statistics.median(times[n2])
    return float(np.log(t2 / t1) / np.log(n2 / n1))


def layer_metrics(spans: list, cycles: int) -> dict:
    """Per-cycle busy and self times, exact per-cycle counts, and rates."""
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    named = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def outer(name):
        return _outermost(spans, name, by_id)

    def busy(name):
        return _busy(outer(name)) / cycles

    def self_s(name):
        return sum(selfs[s["id"]] for s in named.get(name, ())) / cycles

    def count(name, key=None):
        group = named.get(name, ())
        total = len(group) if key is None else sum(s.get(key, 0) for s in group)
        return total // cycles

    m = {}
    for name in ("zseq.generate", "zseq.from_points", "zseq.window_from_json",
                 "zseq.min_gap", "flatgeom.visible_pairs", "flatgeom.has_holonomy_vector",
                 "veech.stabilizer_candidates", "veech.hol_stabilizer",
                 "veech.pprime_symmetry", "veech.group_closure_check",
                 "equiv.affine_automorphisms", "equiv.translation_equiv",
                 "weierstrass.eval_f", "weierstrass.count_zeros",
                 "weierstrass.choose_degrees", "cover.lift_path", "cover.crossing_log",
                 "cover.lift_saddle", "svg.build_svg"):
        m[f"{name}.s"] = busy(name)
    for name in ("flatgeom.holonomy", "flatgeom.saddle_connections", "veech.classify",
                 "weierstrass.refine_zero", "cover.cone_angle", "cli.main"):
        m[f"{name}.self_s"] = self_s(name)

    full_vp = [s for s in outer("flatgeom.visible_pairs")
               if "candidates" in s and not s["restricted"]]
    m["flatgeom.visible_pairs.pairs"] = sum(s["candidates"] for s in full_vp) // cycles
    m["flatgeom.visible_pairs.pairs_per_s"] = _rate(
        sum(s["candidates"] for s in full_vp), _busy(full_vp))
    m["flatgeom.holonomy.vectors"] = count("flatgeom.holonomy", "vectors")
    # where full holonomy spends its time: visibility on lattice windows
    # (generated), set building on explicit clouds (from_points)
    full_hol = [s for s in outer("flatgeom.holonomy") if "n" in s and not s["restricted"]]
    for key, family in (("lattice", "gaussian-lattice"), ("cloud", None)):
        group = [s for s in full_hol if s["family"] == family]
        ids = {s["id"] for s in group}
        vp = sum(s["end"] - s["start"] for s in named.get("flatgeom.visible_pairs", ())
                 if s["parent"] in ids)
        total = _busy(group)
        m[f"flatgeom.holonomy.{key}_vp_share"] = vp / total if total else 0.0
    m["flatgeom.holonomy.scaling_exp"] = scaling_exponent(full_hol)
    m["flatgeom.has_holonomy_vector.calls"] = count("flatgeom.has_holonomy_vector")

    lower, upper = count("veech.classify", "lower"), count("veech.classify", "upper")
    m["veech.lower.count"] = lower
    m["veech.upper.count"] = upper
    m["veech.sandwich_gap"] = (upper - lower) / upper if upper else 0.0

    evals = outer("weierstrass.eval_f")
    m["weierstrass.eval_f.factor_evals_per_s"] = _rate(
        sum(s.get("factor_evals", 0) for s in evals), _busy(evals))
    m["weierstrass.count_zeros.calls"] = count("weierstrass.count_zeros")
    m["weierstrass.count_zeros.noconv"] = sum(
        1 for s in named.get("weierstrass.count_zeros", ())
        if s.get("error") == "NoConvergence") // cycles

    lifts = [s for name in ("cover.lift_path", "cover.crossing_log", "cover.lift_saddle")
             for s in outer(name)]
    m["cover.seg_zero_tests_per_s"] = _rate(
        sum(s.get("seg_zero_tests", 0) for s in lifts), _busy(lifts))
    return m
