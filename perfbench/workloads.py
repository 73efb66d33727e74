"""The benchmark's four workloads: seeded inputs, jobs and their oracles.

``build(workload, seed)`` returns one *cycle*: the fixed list of jobs the
workload repeats.  The seed changes the inputs (cloud points, paths, boxes,
guesses, covering degrees) but never the job labels or their order, so every
seed runs the same mix.  Each job builds its own window through
``generate`` or ``from_points``, so per-window caches are paid per job, and
calls library functions through the ``flatcurve`` package or its modules at
call time, so the traced run's wrappers see every call.

Sizes keep a cycle to a few seconds on one core, so a run repeats it at
least five times.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import flatcurve as fc
from flatcurve.veech import StabilizerSearchConfig

import oracles as orc

WORKLOADS = ("holonomy-scan", "symmetry-search", "plane-walk", "cli-session")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
FLOAT = fc.float_mode(1e-9)


@dataclass
class Job:
    """One closed-loop request: ``run`` calls the program, ``check`` its oracle.

    ``check`` returns None when the answer is right and a description of the
    mismatch otherwise.  ``inputs`` holds the seeded parameters the job
    was built from.  Command-line jobs run in a child process; for them
    ``run_traced(spans_path)`` replays the same command through
    ``cli_child.py``, which records spans into ``spans_path``.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    inputs: Any = None
    run_traced: Callable[[str], Any] | None = None


def build(workload: str, seed: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    builders = {
        "holonomy-scan": _holonomy_scan,
        "symmetry-search": _symmetry_search,
        "plane-walk": _plane_walk,
        "cli-session": _cli_session,
    }
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return builders[workload](rng, seed)


def _points_of(w) -> list:
    return [(p.re, p.im) for p in w.points]


def _rational_cloud(rng, n: int, den: int, radius: int) -> list:
    """n distinct points of the 1/den grid in the disk, the origin included."""
    span = radius * den
    pts = {(Fraction(0), Fraction(0))}
    while len(pts) < n:
        p = (Fraction(rng.randint(-span, span), den),
             Fraction(rng.randint(-span, span), den))
        if p[0] ** 2 + p[1] ** 2 <= radius * radius:
            pts.add(p)
    return sorted(pts)


def _zpoints(pts, mode=fc.EXACT) -> list:
    return [fc.ZPoint.of(re, im, mode) for re, im in pts]


# --------------------------------------------------------------------------
# holonomy-scan


def _lattice_hol_job(radius: int, m: int, mode) -> Job:
    short = 2

    def run():
        w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), radius, mode)
        return w, fc.holonomy(w), fc.saddle_connections(w, m, max_length=short)

    def check(res):
        w, h, segs = res
        bad = orc.check_holonomy(h, 1, orc.lattice_holonomy(radius)[0])
        if bad:
            return bad
        _, xs, ys = orc.scaled_ints(_points_of(w))
        return orc.check_short_saddles(segs, 1, xs, ys, short, m)

    kind = "exact" if mode.is_exact else "float"
    return Job(f"lattice-{kind}-R{radius}", run, check, (radius, m))


def _cloud_hol_job(pts, den: int, radius: int, m: int, mode) -> Job:
    def run():
        w = fc.ZeroWindow.from_points(_zpoints(pts, mode), radius=radius, mode=mode)
        return fc.holonomy(w), fc.saddle_connections(w, m)

    def check(res):
        h, segs = res
        scale, want, n_pairs = orc.holonomy_keys(pts)
        bad = orc.check_holonomy(h, scale, want)
        if bad:
            return bad
        if len(segs) != n_pairs:
            return f"{len(segs)} saddles, oracle {n_pairs} visible pairs"
        return None

    kind = "exact" if mode.is_exact else "float"
    return Job(f"cloud-{kind}-n{len(pts)}-den{den}", run, check, (pts, m))


def _holonomy_scan(rng, seed) -> list:
    # R=8 and R=12 (n = 197, 441) give the scaling exponent of full holonomy
    jobs = [_lattice_hol_job(r, rng.choice((2, 3, 5)), fc.EXACT) for r in (6, 8, 12)]
    jobs.append(_lattice_hol_job(8, rng.choice((2, 3, 5)), FLOAT))
    for n, den in ((30, 4), (45, 5), (60, 6)):
        pts = _rational_cloud(rng, n, den, 10)
        jobs.append(_cloud_hol_job(pts, den, 10, rng.choice((2, 3, 5)), fc.EXACT))
        jobs.append(_cloud_hol_job(pts, den, 10, rng.choice((2, 3, 5)), FLOAT))
    return jobs


# --------------------------------------------------------------------------
# symmetry-search


def _lattice_classify_job(radius: int) -> Job:
    inner = radius / 3

    def run():
        w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), radius)
        return fc.classify(w, StabilizerSearchConfig(inner_radius=inner))

    def check(rep):
        if rep.kind != "Countable":
            return f"lattice classified {rep.kind}"
        return orc.check_lattice_sandwich([m.entries() for m in rep.lower],
                                          [m.entries() for m in rep.upper],
                                          rep.containment_ok, radius / inner)

    return Job(f"classify-lattice-R{radius}", run, check, radius)


def _family_classify_job(kind: str, radius: int) -> Job:
    def run():
        return fc.classify(fc.generate(fc.GeneratorSpec(kind), radius))

    def check(rep):
        want = orc.FAMILY_KIND[kind]
        if rep.kind != want:
            return f"{kind} classified {rep.kind}, expected {want}"
        if want == "Countable" and rep.containment_ok is not True:
            return "lower set not contained in upper set"
        if want != "Countable" and rep.theta != 0.0:
            return f"{kind} line angle {rep.theta}, expected 0"
        return None

    return Job(f"classify-{kind}", run, check, radius)


# The dihedral symmetries of the square: each conjugates the generator pair
# below into itself or its inverses, so it maps the orbit window onto an
# isometric copy of itself.
_DIHEDRAL = ((1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
             (0, 1, 1, 0), (1, 0, 0, -1), (0, -1, -1, 0), (-1, 0, 0, 1))


def _orbit_classify_job(g: tuple) -> Job:
    a, b, c, d = g
    seeds = [(a * x + b * y, c * x + d * y)
             for x, y in ((1, 0), (Fraction(63, 80), Fraction(-43, 80)))]
    spec = fc.GeneratorSpec.orbit(seeds, [(1, 1, 0, 1), (1, 0, 1, 1)], 4)

    def run():
        return fc.classify(fc.generate(spec, 6))

    def check(rep):
        if rep.kind != "Countable":
            return f"orbit window classified {rep.kind}"
        if rep.containment_ok is not True:
            return "lower set not contained in upper set"
        if (1, 0, 0, 1) not in {tuple(m.entries()) for m in rep.lower}:
            return "identity missing from the lower set"
        return None

    return Job("classify-orbit", run, check, seeds)


def _closure_job(radius: int) -> Job:
    cfg = StabilizerSearchConfig(inner_radius=radius / 3)

    def run():
        w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), radius)
        cands = fc.stabilizer_candidates(w, cfg)
        return cands, fc.group_closure_check(cands, w, cfg)

    def check(res):
        cands, rep = res
        lower = [m.entries() for m in cands]
        return (orc.check_lattice_sandwich(lower, orc.sl2z(3), True, 3.0)
                or orc.check_closure(rep, len(cands)))

    return Job(f"closure-lattice-R{radius}", run, check, radius)


def _automorphism_job(radius: int) -> Job:
    def run():
        return fc.affine_automorphisms(
            fc.generate(fc.GeneratorSpec("gaussian-lattice"), radius))

    def check(autos):
        return orc.check_lattice_automorphisms(autos, radius, radius / 3)

    return Job(f"automorphisms-lattice-R{radius}", run, check, radius)


def _equiv_job(pts, shift, k: int) -> Job:
    b = fc.ZPoint(*shift)

    def run():
        w = fc.ZeroWindow.from_points(_zpoints(pts), radius=7)
        return fc.translation_equiv(w, w.translate(b))

    def check(res):
        if not res.equivalent or res.translation != b:
            return f"planted shift {b} not recovered: {res.to_dict()}"
        return None

    return Job(f"translation-equiv-{k}", run, check, (pts, shift))


def _symmetry_search(rng, seed) -> list:
    jobs = [_lattice_classify_job(r) for r in (9, 12)]
    # The orbit's cost swings several-fold with the position of its seed
    # points, so the seed picks one of eight isometric copies of one orbit.
    jobs.append(_orbit_classify_job(rng.choice(_DIHEDRAL)))
    jobs.append(_family_classify_job("integers-plus-minus-i", 20))
    for kind in ("all-integers", "odd4n13-all", "positive-integers"):
        jobs.append(_family_classify_job(kind, 250))
    jobs.append(_closure_job(12))
    jobs.append(_automorphism_job(5))
    for k in range(3):
        pts = _rational_cloud(rng, 40, 6, 7)
        shift = (Fraction(rng.randint(-12, 12), 5), Fraction(rng.randint(-12, 12), 7))
        jobs.append(_equiv_job(pts, shift, k))
    return jobs


# --------------------------------------------------------------------------
# plane-walk


def _plus_minus_window(n_pairs: int):
    pts = [fc.ZPoint(float(s * k), 0.0) for k in range(1, n_pairs + 1) for s in (1, -1)]
    return fc.ZeroWindow.from_points(pts, radius=float(n_pairs), mode=FLOAT)


def _sine_eval_job(n_pairs: int, zs) -> Job:
    def run():
        return fc.eval_f(zs, _plus_minus_window(n_pairs), degrees=1, e0=1)

    def check(vals):
        return orc.check_sine(vals, zs, n_pairs)

    return Job(f"eval-sine-N{n_pairs}", run, check, list(zs))


def _auto_eval_job(radius: int, zs) -> Job:
    def run():
        w = fc.generate(fc.GeneratorSpec("positive-integers"), radius)
        return w, fc.eval_f(zs, w, degrees="auto")

    def check(res):
        w, vals = res
        zeros = [p.to_complex() for p in w.points if not p.is_zero()]
        degs = [d for p, d in zip(w.points, fc.choose_degrees(w, "auto"))
                if not p.is_zero()]
        e0 = 1 if any(p.is_zero() for p in w.points) else 0
        return orc.check_product(vals, zs, zeros, degs, e0)

    return Job(f"eval-auto-R{radius}", run, check, zs)


def _count_given_job(n_pairs: int, box) -> Job:
    def run():
        return fc.count_zeros(_plus_minus_window(n_pairs), box, degrees=1, e0=1)

    def check(wind):
        pts = [(k, 0) for k in range(-n_pairs, n_pairs + 1)]
        want = orc.zeros_in_box(pts, box)
        return None if wind == want else f"winding {wind}, {want} zeros in box"

    width = round(box[1] - box[0])
    return Job(f"count-given-N{n_pairs}-w{width}", run, check, box)


def _count_default_job(radius: int, box) -> Job:
    """Default "index" degrees; the largest of these exhaust sampling at seed."""

    def run():
        w = fc.generate(fc.GeneratorSpec("positive-integers"), radius, FLOAT)
        return w, fc.count_zeros(w, box)

    def check(res):
        w, wind = res
        pts = [(float(p.re), float(p.im)) for p in w.points]
        want = orc.zeros_in_box(pts, box)
        return None if wind == want else f"winding {wind}, {want} zeros in box"

    return Job(f"count-index-R{radius}", run, check, box)


def _refine_job(n_pairs: int, k: int, guess: complex) -> Job:
    def run():
        return fc.refine_zero(_plus_minus_window(n_pairs), guess, degrees=1, e0=1)

    def check(zc):
        if abs(zc.zero - k) > 1e-8 or zc.winding != 1:
            return f"refined {guess} to {zc.zero} (winding {zc.winding}), expected {k}"
        return None

    return Job(f"refine-N{n_pairs}", run, check, guess)


def _half_grid(rng, lim: int) -> Fraction:
    """A coordinate on the 1/194 grid that is never an integer."""
    return Fraction(2 * rng.randint(-97 * lim, 97 * lim - 1) + 1, 194)


def _lift_loop_job(radius: int, m: int, poly, label: str, zeros_inside=None) -> Job:
    zeros = orc.lattice_points(radius)

    def run():
        w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), radius)
        cuts = fc.build_cuts(w, m)
        start = fc.CoverPoint(complex(float(poly[0][0]), float(poly[0][1])), 0)
        return fc.lift_path(poly, start, cuts), fc.crossing_log(poly, cuts)

    def check(res):
        end, events = res
        want = orc.winding_sum(poly, zeros)
        if zeros_inside is not None and want != zeros_inside:
            return f"box contour winds {want} times, {zeros_inside} zeros inside"
        if (end.sheet - want) % m:
            return f"lift ends on sheet {end.sheet}, winding sum {want} (m={m})"
        if (sum(e.direction for e in events) - want) % m:
            return "crossing log disagrees with the winding sum"
        return None

    return Job(label, run, check, (m, poly))


def _closed_polyline(rng, n: int, lim: int, radius: int) -> list:
    """n seeded vertices off every lattice line, closed, touching no zero."""
    zeros = np.array(orc.lattice_points(radius), dtype=np.int64) * 194
    zx, zy = zeros[:, 0], zeros[:, 1]
    poly = []
    while len(poly) < n:
        v = (_half_grid(rng, lim), _half_grid(rng, lim))
        ends = [v] + ([poly[0]] if len(poly) == n - 1 else [])
        if poly and any(orc.hits_zero(*(int(c * 194) for c in (*a, *b)), zx, zy)
                        for a, b in zip([poly[-1], v], ends)):
            continue
        poly.append(v)
    return poly + poly[:1]


def _box_loop(x0, x1, y0, y1) -> list:
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]


def _saddle_lift_job(radius: int, m: int) -> Job:
    def run():
        w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), radius)
        cuts = fc.build_cuts(w, m)
        segs = fc.saddle_connections(w, m, max_length=1.5)
        return w, segs, [fc.lift_saddle(s, w, cuts) for s in segs]

    def check(res):
        w, segs, lifts = res
        _, xs, ys = orc.scaled_ints(_points_of(w))
        for seg, ls in zip(segs, lifts):
            want = orc.segment_shift(xs, ys, seg.from_idx, seg.to_idx)
            if sorted(x.start_sheet for x in ls) != list(range(m)):
                return "saddle lifts do not start on every sheet"
            if any(x.delta != want or x.end_sheet != (x.start_sheet + want) % m
                   for x in ls):
                return f"saddle {seg.from_idx}->{seg.to_idx} shift differs from {want}"
        return None

    return Job(f"lift-saddles-R{radius}", run, check, m)


def _cone_job(radius: int, m: int, idx: int) -> Job:
    def run():
        return fc.cone_angle(idx, fc.generate(fc.GeneratorSpec("gaussian-lattice"), radius), m)

    def check(ca):
        return None if ca.turns == m else f"cone angle turns {ca.turns}, m = {m}"

    return Job(f"cone-angle-R{radius}", run, check, (m, idx))


def _plane_walk(rng, seed) -> list:
    jobs = []
    for n_pairs in (1000, 3000, 10000):
        zs = np.array([complex(rng.uniform(-3, 3), rng.uniform(-1, 1)) for _ in range(128)])
        jobs.append(_sine_eval_job(n_pairs, zs))
    for radius in (100, 200):
        zs = [complex(rng.uniform(0.05, 0.95), rng.uniform(-0.5, 0.5)) for _ in range(8)]
        jobs.append(_auto_eval_job(radius, zs))
    for width in (1, 3):
        k = rng.randint(2, 400)
        jobs.append(_count_given_job(1000, (k - 0.5, k - 0.5 + width, -0.5, 0.5)))
    # Default degrees, fixed boxes mid-window: R=20 and R=30 converge after
    # doubling to 4096 and 16384 samples, R=44 exhausts the sample budget and
    # raises NoConvergence.  Seeded boxes would fail or not depending on the
    # seed (near the window's edge even R=30 fails), so every seed gets these.
    for radius in (20, 30, 44):
        c = radius // 2
        jobs.append(_count_default_job(radius, (c - 0.5, c + 2.5, -0.5, 0.5)))
    k = rng.randint(2, 30)
    jobs.append(_refine_job(1000, k, complex(k + rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))))

    m = rng.choice((2, 3, 5))
    x0, y0 = rng.randint(-8, 4) + Fraction(1, 2), rng.randint(-8, 4) + Fraction(1, 2)
    x1, y1 = x0 + rng.randint(1, 4), y0 + rng.randint(1, 4)
    inside = orc.zeros_in_box(orc.lattice_points(10), (x0, x1, y0, y1))
    jobs.append(_lift_loop_job(10, m, _box_loop(x0, x1, y0, y1), "lift-box-R10", inside))
    m = rng.choice((2, 3, 5))
    jobs.append(_lift_loop_job(14, m, _closed_polyline(rng, 60, 9, 14), "lift-polyline-R14"))
    jobs.append(_saddle_lift_job(8, rng.choice((2, 3, 5))))
    for radius in (6, 8):
        jobs.append(_cone_job(radius, rng.choice((2, 3, 5)), rng.randrange(20)))
    return jobs


# --------------------------------------------------------------------------
# cli-session


def cli_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("FLATCURVE_MODE", None)
    return env


@dataclass
class CliCall:
    code: int
    out: str
    rss_kb: int


class CliDomainError(Exception):
    """The command exited 1 with a reported domain error (a declared failure)."""

    def __init__(self, call: CliCall):
        super().__init__(call.out.strip()[-300:])
        self.call = call


def run_child(cmd: list) -> CliCall:
    """Run one child process to completion and collect its peak memory.

    Exit 1 is the program's declared domain-error status and raises
    CliDomainError; any other nonzero status raises RuntimeError.
    """
    proc = subprocess.Popen(cmd, cwd=ROOT, env=cli_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    call = CliCall(proc.returncode, out, usage.ru_maxrss)
    if call.code == 1:
        raise CliDomainError(call)
    if call.code != 0:
        raise RuntimeError(f"exit status {call.code}: {out.strip()[-300:]}")
    return call


def _cli_job(label: str, argv: list, check: Callable[[CliCall], str | None]) -> Job:
    child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
    return Job(label, lambda: run_child([sys.executable, "-m", "flatcurve.cli", *argv]),
               check, argv, lambda spans: run_child([sys.executable, child, spans, *argv]))


def _json_check(fn):
    def check(call):
        return fn(json.loads(call.out))
    return check


def _cli_session(rng, seed) -> list:
    tmp = os.path.join(OUT_DIR, "cli")
    os.makedirs(tmp, exist_ok=True)
    win_file = os.path.join(tmp, f"window-{seed}.json")
    svg_file = os.path.join(tmp, f"plot-{seed}.svg")
    jobs = []

    jobs.append(_cli_job("help", ["--help"],
                         lambda c: None if "usage: flatcurve" in c.out else "no usage text"))

    r_cls = rng.randint(16, 24)
    jobs.append(_cli_job("classify", ["classify", "--sequence", "all-integers", "--radius", str(r_cls)],
                         _json_check(lambda d: None if d["kind"] == "Pprime" else d["kind"])))

    r_hol = rng.randint(16, 24)

    def hol_check(d):
        vecs = {tuple(v) for v in d["vectors"]}
        return None if d["count"] == 2 and vecs == {("1", "0"), ("-1", "0")} else str(d)

    jobs.append(_cli_job("hol", ["hol", "--sequence", "positive-integers", "--radius", str(r_hol)],
                         _json_check(hol_check)))

    def sandwich_check(d):
        flat = lambda mats: [tuple(e for row in rows for e in row) for rows in mats]
        return orc.check_lattice_sandwich(flat(d["lower"]), flat(d["upper"]),
                                          d["containment_ok"], 8 / 3)

    jobs.append(_cli_job("sandwich", ["sandwich", "--sequence", "gaussian-lattice",
                                      "--radius", "8", "--inner", "3"],
                         _json_check(sandwich_check)))

    lat6 = orc.lattice_points(6)
    n_vis = orc.lattice_holonomy(6)[1]
    m_saddles = rng.choice((2, 3, 5))

    def saddles_check(c):
        rows = c.out.strip().splitlines()
        return None if len(rows) == n_vis + 1 else f"{len(rows) - 1} csv rows, oracle {n_vis}"

    jobs.append(_cli_job("saddles", ["saddles", "--sequence", "gaussian-lattice", "--radius", "6",
                                     "--m", str(m_saddles), "--format", "csv"], saddles_check))

    def plot_check(c):
        with open(svg_file, encoding="utf-8") as fh:
            text = fh.read()
        segs = text.count('class="segment')
        zeros = text.count('class="zero"')
        if segs != n_vis or zeros != len(lat6):
            return f"svg has {segs} segments and {zeros} zeros"
        return None

    jobs.append(_cli_job("plot", ["plot", "--sequence", "gaussian-lattice", "--radius", "6",
                                  "--out", svg_file], plot_check))

    r_eval = rng.randint(40, 60)
    at = Fraction(rng.randint(1, 19), 20)

    def eval_check(d):
        # generate shifts the first term to 0: zeros 1..r-1 plus the origin
        zeros = [complex(k) for k in range(1, r_eval)]
        return orc.check_product([complex(*d["value"])], [complex(float(at))],
                                 zeros, [1] * (r_eval - 1), 1)

    jobs.append(_cli_job("eval", ["eval", "--sequence", "positive-integers", "--radius", str(r_eval),
                                  "--at", f"{at},0", "--degree", "1"], _json_check(eval_check)))

    k = rng.randint(1, 4)
    box = (k - 0.5, -0.5, k + 0.5, 0.5)

    def zeros_check(d):
        return None if d["winding"] == 1 else f"winding {d['winding']}, one zero in box"

    jobs.append(_cli_job("verify-zeros", ["verify-zeros", "--sequence", "positive-integers",
                                          "--radius", "5", "--box", ",".join(map(str, box))],
                         _json_check(zeros_check)))

    m_lift = rng.choice((2, 3, 5))
    loop = _closed_polyline(rng, 6, 3, 3)
    path = ";".join(f"{x},{y}" for x, y in loop)
    want = orc.winding_sum(loop, orc.lattice_points(3))

    def lift_check(d):
        shift = sum(e["direction"] for e in d["crossings"])
        if (d["end"]["sheet"] - want) % m_lift or (shift - want) % m_lift:
            return f"lift ends on sheet {d['end']['sheet']}, winding sum {want} (m={m_lift})"
        return None

    jobs.append(_cli_job("lift", ["lift", "--sequence", "gaussian-lattice", "--radius", "3",
                                  "--m", str(m_lift), f"--path={path}"], _json_check(lift_check)))

    r_gen = rng.randint(13, 17)

    def gen_check(c):
        with open(win_file, encoding="utf-8") as fh:
            d = json.load(fh)
        n_odd = 2 * ((r_gen + 1) // 2)
        return None if len(d["points"]) == n_odd else f"{len(d['points'])} points, {n_odd} odd integers"

    jobs.append(_cli_job("gen", ["gen", "--sequence", "odd4n13-all", "--radius", str(r_gen),
                                 "--out", win_file], gen_check))
    jobs.append(_cli_job("classify-input", ["classify", "--input", win_file],
                         _json_check(lambda d: None if d["kind"] == "Pprime" else d["kind"])))
    return jobs
