"""Checks of the benchmark itself: oracles, seeding, failure accounting,
tracing counts and the result contract.  Every case is small; the whole
file runs in seconds.

    python3 -m pytest perfbench/tests
"""

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import pytest  # noqa: E402

import flatcurve as fc  # noqa: E402
import oracles as orc  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _cloud(seed, n=30, den=4, radius=5):
    return wl._rational_cloud(random.Random(seed), n, den, radius)


# --------------------------------------------------------------------------
# oracles on small instances


def test_direction_visibility_matches_bruteforce_on_clouds():
    for seed in range(6):
        pts = _cloud(seed)
        w = fc.ZeroWindow.from_points(wl._zpoints(pts), radius=5)
        _, xs, ys = orc.scaled_ints([(p.re, p.im) for p in w.points])
        assert orc.visible_pairs_by_direction(xs, ys) == set(fc.visible_pairs_bruteforce(w))


def test_holonomy_digest_agrees_with_library_on_clouds():
    pts = _cloud(7)
    w = fc.ZeroWindow.from_points(wl._zpoints(pts), radius=5)
    scale, keys, n_pairs = orc.holonomy_keys(pts)
    assert orc.check_holonomy(fc.holonomy(w), scale, keys) is None
    assert n_pairs == len(fc.visible_pairs_bruteforce(w))


def test_lattice_closed_form():
    w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), 4)
    keys, n_pairs = orc.lattice_holonomy(4)
    assert orc.check_holonomy(fc.holonomy(w), 1, keys) is None
    assert n_pairs == len(fc.visible_pairs_bruteforce(w))
    assert orc.check_holonomy(fc.holonomy(w), 1, set(keys) - {(1, 0)}) is not None


def test_sandwich_oracle():
    small = orc.sl2z(1)
    assert len(small) == 20 and all((d, -b, -c, a) in small for a, b, c, d in small)
    rep = fc.classify(fc.generate(fc.GeneratorSpec("gaussian-lattice"), 6),
                      fc.StabilizerSearchConfig(inner_radius=2))
    lower = [m.entries() for m in rep.lower]
    upper = [m.entries() for m in rep.upper]
    assert orc.check_lattice_sandwich(lower, upper, rep.containment_ok, 3.0) is None
    assert orc.check_lattice_sandwich(lower, upper[1:], True, 3.0) is not None
    assert orc.check_lattice_sandwich(lower + [(2, 0, 0, 1)], upper, True, 3.0) is not None


def test_winding_and_lift_oracles():
    zeros = orc.lattice_points(3)
    box = (Fraction(-3, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2))
    loop = wl._box_loop(*box)
    inside = orc.zeros_in_box(zeros, box)
    assert inside == 4 and orc.winding_sum(loop, zeros) == 4
    assert orc.winding_sum(loop[::-1], zeros) == -4
    for m in (2, 3, 5):
        job = wl._lift_loop_job(3, m, loop, "box", inside)
        assert job.check(job.run()) is None
        poly = wl._closed_polyline(random.Random(m), 12, 3, 3)
        job = wl._lift_loop_job(3, m, poly, "poly")
        assert job.check(job.run()) is None


def test_segment_shift_matches_saddle_lifts():
    job = wl._saddle_lift_job(3, 3)
    assert job.check(job.run()) is None


def test_product_oracles():
    zs = [0.5, 1.25 + 0.3j, -2.5 - 0.5j]
    vals = fc.eval_f(zs, wl._plus_minus_window(300), degrees=1, e0=1)
    assert orc.check_sine(vals, zs, 300) is None
    assert orc.check_sine(vals * 1.01, zs, 300) is not None
    job = wl._auto_eval_job(20, [0.3 + 0.1j, 0.7])
    assert job.check(job.run()) is None


def test_winding_count_oracle():
    job = wl._count_default_job(20, (5.5, 8.5, -0.5, 0.5))
    assert job.check(job.run()) is None
    w = fc.generate(fc.GeneratorSpec("positive-integers"), 20, wl.FLOAT)
    assert job.check((w, 2)) is not None


def test_symmetry_oracles():
    for job in (wl._automorphism_job(3), wl._closure_job(6),
                wl._family_classify_job("all-integers", 20),
                wl._family_classify_job("positive-integers", 20)):
        assert job.check(job.run()) is None, job.label


# --------------------------------------------------------------------------
# seeding


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_seed_changes_inputs_not_the_mix(name):
    a, b, a2 = wl.build(name, 1), wl.build(name, 2), wl.build(name, 1)
    assert [j.label for j in a] == [j.label for j in b]
    assert [repr(j.inputs) for j in a] == [repr(j.inputs) for j in a2]
    assert [repr(j.inputs) for j in a] != [repr(j.inputs) for j in b]


# --------------------------------------------------------------------------
# failure accounting


def test_wrong_answer_is_counted_and_marks_the_run_incorrect():
    good = wl._lattice_hol_job(4, 2, fc.EXACT)

    def wrong():
        w, h, segs = good.run()
        kept = [v for v in h.vectors if v.im != 0]  # drops +-(1, 0)
        return w, fc.HolonomySet(kept, w.radius, w.mode), segs

    bad = wl.Job("wrong", wrong, good.check)
    outcomes, cycles = run.run_cycles([good, bad], cycles=2)
    assert [o.status for o in outcomes] == ["ok", "mismatch"] * 2
    metrics, _ = run.end_to_end(outcomes, 0.1, in_process=True)
    assert metrics["ok_frac"][0] == 0.5


def test_declared_errors_and_defects_fail_without_a_wrong_answer():
    def noconv():
        raise fc.NoConvergence("sampling budget exhausted")

    jobs = [wl.Job("noconv", noconv, lambda r: None),
            wl.Job("defect", lambda: 1, lambda r: orc.Defect("kept a duplicate")),
            wl.Job("crash", lambda: 1 / 0, lambda r: None)]
    outcomes, _ = run.run_cycles(jobs, cycles=1)
    assert [o.status for o in outcomes] == ["error", "defect", "crash"]


# --------------------------------------------------------------------------
# tracing


def _small_jobs():
    return [wl._lattice_hol_job(6, 2, fc.EXACT),
            wl._cloud_hol_job(_cloud(3), 4, 5, 3, fc.EXACT),
            wl._lattice_classify_job(6),
            wl._count_default_job(20, (5.5, 8.5, -0.5, 0.5)),
            wl._cone_job(4, 3, 0)]


def _traced_counts(jobs):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcomes, _ = run.run_cycles(jobs, cycles=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert all(o.status == "ok" for o in outcomes)
    m = run.per_layer(tracer, outcomes, outcomes, 1)
    return tracer, {k: v for k, (v, unit) in m.items() if unit == "count"}


def test_counts_repeat_exactly_and_wrappers_come_off():
    originals = (fc.holonomy, fc.flatgeom.visible_pairs, fc.ZeroWindow.__dict__["from_points"])
    jobs = _small_jobs()
    tracer, first = _traced_counts(jobs)
    _, second = _traced_counts(jobs)
    assert first == second
    assert first["flatgeom.visible_pairs.pairs"] > 0 and first["veech.upper.count"] == 116
    assert (fc.holonomy, fc.flatgeom.visible_pairs,
            fc.ZeroWindow.__dict__["from_points"]) == originals


def test_spans_nest_and_self_time_adds_up():
    tracer, _ = _traced_counts(_small_jobs())
    spans = tracer.spans
    by_id = {s["id"]: s for s in spans}
    pairs = {(s["name"], by_id[s["parent"]]["name"]) for s in spans if s["parent"] is not None}
    assert ("flatgeom.visible_pairs", "flatgeom.holonomy") in pairs
    assert ("flatgeom.holonomy", "veech.sandwich_report") in pairs  # imported into veech
    selfs = tracing.self_times(spans)
    roots = [s for s in spans if s["parent"] is None]
    assert sum(selfs.values()) == pytest.approx(sum(s["end"] - s["start"] for s in roots))
    assert {s["job"] for s in spans} == set(range(len(_small_jobs())))


# --------------------------------------------------------------------------
# result contract


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    outcomes = [run.Outcome(f"kind{k % 13}", 0.1 * k, "ok") for k in range(1, 40)]
    e2e, _ = run.end_to_end(outcomes, 0.2, in_process=True)
    assert [(k, u) for k, (v, u) in e2e.items()] == [
        (m["name"], m["unit"]) for m in bench["end_to_end"]]
    layer = run.per_layer(tracing.Tracer(), outcomes, outcomes, 1)
    assert [(k, u) for k, (v, u) in layer.items()] == [
        (m["name"], m["unit"]) for m in bench["per_layer"]]
    assert {w["name"] for w in bench["workloads"]} == set(wl.WORKLOADS)


def test_times_are_scaled_by_the_host_slowdown():
    fast = [run.Outcome(f"k{i}", 0.1 * (i + 1), "ok") for i in range(12)]
    slow = [run.Outcome(o.label, 1.5 * o.seconds, "ok", slow=1.5) for o in fast]
    a, _ = run.end_to_end(fast, 0.2, in_process=True)
    b, extra = run.end_to_end(slow, 0.2, in_process=True)
    for name in ("jobs_per_s", "job_p50_s", "job_tail_s"):
        assert b[name][0] == pytest.approx(a[name][0])
    assert extra["slowdown"] == pytest.approx(1.5)
    assert extra["unscaled"]["job_p50_s"] == pytest.approx(1.5 * a["job_p50_s"][0])


def test_tail_percentile_keeps_ten_jobs_beyond():
    for n in (11, 24, 33, 51):
        pct = run.tail_percentile(n)
        rank = run.nearest_rank(range(n), pct)
        assert n - 1 - rank >= run.TAIL_BEYOND


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "plane-walk",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0 and p.stdout == ""
