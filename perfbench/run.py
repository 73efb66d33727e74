"""flatcurve benchmark: one workload, closed loop, every answer oracle-checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one job at a time in one process; a job starts only after
the previous one returned.  The seed builds the workload's inputs (see
``workloads.py``); the program receives only those inputs.  Jobs repeat in
whole cycles of the workload's fixed mix, at least ``MIN_CYCLES`` of them,
until the next cycle would overrun ``--seconds``.

The host this runs on is shared: other tenants slow it by up to about
half, in phases that last from a second to minutes.  So right before and
right after every job (and every set-up probe) the harness times
``calibrate()``, a fixed mix of Fraction, dict and numpy work, plus a bare
interpreter start for work done in child processes.  The mean of the two
over its reference time is the host's slowdown during that job, and every
time reported is the measured time divided by it: seconds at the
reference speed.  The ``info`` line keeps the run's median slowdown and the
unscaled figures.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs
cycles untraced for half the time, then the same number of cycles with
spans around every layer's public functions (``tracing.py``), and prints
the per-layer metrics plus the tracing overhead; spans are written to
``.perfbench_out/``.  The last line of standard output is the result
object; the line before it carries the run's environment and job counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 7
MIN_CYCLES = 5
# calibrate() on the reference machine (a 2-vCPU Xeon VM) when undisturbed,
# without and with the bare interpreter start used for child-process jobs
CAL_REF_S = 0.002
CHILD_CAL_REF_S = 0.012
TAIL_BEYOND = 10  # jobs that must lie beyond the reported tail percentile
# One BLAS thread in this process and in every child: at numpy import an
# extra BLAS thread spins on the second core, and what that costs the job
# swings with the host in a way the calibration does not follow.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CLI_SUBCOMMANDS = ("classify", "hol", "sandwich", "saddles", "plot", "eval",
                   "verify-zeros", "lift", "gen")


# --------------------------------------------------------------------------
# closed loop


def calibrate(child: bool = False) -> float:
    """Wall time of a fixed mix of Fraction, dict/sort and numpy work; with
    ``child``, plus starting and ending a bare interpreter, whose cost moves
    with the host's process-creation and page-fault speed."""
    import numpy as np
    from fractions import Fraction

    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i % 17, 5 + i % 7)
    sorted({(i * 7919) % 1009: i for i in range(4000)}.items())
    a = np.arange(50000, dtype=np.float64)
    float(np.sqrt(a * a + 1.0).sum())
    if child:
        subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return time.perf_counter() - t0


class Outcome:
    __slots__ = ("label", "seconds", "status", "detail", "rss_kb", "slow")

    def __init__(self, label, seconds, status, detail="", rss_kb=0, slow=1.0):
        self.label = label
        self.seconds = seconds
        self.slow = slow  # host slowdown measured around the job
        # ok | error (declared by the program) | defect (oracle.Defect)
        # | mismatch (wrong answer) | crash (undeclared exception)
        self.status = status
        self.detail = detail
        self.rss_kb = rss_kb


def run_job(job, tracer=None, job_id=None, spans_path=None) -> Outcome:
    """Time one job, then check its answer with the clock stopped."""
    import flatcurve as fc
    import oracles
    import workloads

    traced_child = tracer is not None and job.run_traced is not None
    if tracer is not None:
        tracer.job = job_id
    child = job.run_traced is not None
    ref = CHILD_CAL_REF_S if child else CAL_REF_S
    gc.collect()  # every job starts from the same collector state
    before = calibrate(child)
    t0 = time.perf_counter()
    try:
        result, exc = (job.run_traced(spans_path) if traced_child else job.run()), None
    except Exception as caught:  # every failure is counted, none is fatal
        result, exc = None, caught
    seconds = time.perf_counter() - t0
    slow = (before + calibrate(child)) / (2 * ref)
    if traced_child:
        _adopt_child_spans(tracer, spans_path, job_id)
    if isinstance(exc, (fc.FlatcurveError, workloads.CliDomainError)):
        rss = exc.call.rss_kb if isinstance(exc, workloads.CliDomainError) else 0
        return Outcome(job.label, seconds, "error", f"{type(exc).__name__}: {exc}", rss, slow)
    if exc is not None:
        return Outcome(job.label, seconds, "crash", f"{type(exc).__name__}: {exc}", slow=slow)
    rss = getattr(result, "rss_kb", 0)
    if tracer is not None:
        tracer.paused = True
    try:
        bad = job.check(result)
    except Exception as exc:
        bad = f"oracle could not read the answer: {type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.paused = False
    if bad is None:
        return Outcome(job.label, seconds, "ok", rss_kb=rss, slow=slow)
    status = "defect" if isinstance(bad, oracles.Defect) else "mismatch"
    return Outcome(job.label, seconds, status, str(bad), rss, slow)


def _adopt_child_spans(tracer, path, job_id):
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            tracer.extend(json.load(fh), job_id)
        os.remove(path)


def run_cycles(jobs, seconds=None, cycles=None, min_cycles=MIN_CYCLES,
               tracer=None, spans_path=None):
    """Whole cycles of the job mix: a fixed count, or as many as fit ``seconds``."""
    outcomes, done, start = [], 0, time.perf_counter()
    while True:
        c0 = time.perf_counter()
        for job in jobs:
            outcomes.append(run_job(job, tracer, len(outcomes), spans_path))
        done += 1
        now = time.perf_counter()
        if cycles is not None:
            if done >= cycles:
                break
        elif done >= min_cycles and (now - start) + (now - c0) > seconds:
            break
    return outcomes, done


# --------------------------------------------------------------------------
# metrics


def tail_percentile(n_min: int) -> int:
    """Highest whole percentile with TAIL_BEYOND of n_min jobs beyond it."""
    return math.floor(100 * (1 - TAIL_BEYOND / n_min))


def nearest_rank(values, pct: float) -> float:
    vals = sorted(values)
    return vals[max(0, math.ceil(pct / 100 * len(vals)) - 1)]


def slowdown(outcomes) -> float:
    """The run's median host slowdown against the reference machine."""
    return statistics.median(o.slow for o in outcomes)


def measure_setup(workload: str, seed: int) -> tuple:
    """(scaled, raw) median wall time of fresh interpreters that import
    flatcurve and build the inputs, each probe scaled like a job."""
    import workloads

    probe = os.path.join(HERE, "setup_probe.py")
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate(child=True)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, probe, workload, str(seed)], cwd=ROOT,
                       env=workloads.cli_env(), check=True, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] / ((before + calibrate(child=True)) / (2 * CHILD_CAL_REF_S)))
    return statistics.median(scaled), statistics.median(raw)


def kind_latencies(outcomes, scaled=True) -> dict:
    """Job label -> median latency over the run's cycles.

    Every job kind runs once per cycle on the same inputs, so its repeats
    differ only by interference from other processes; the median filters
    that out.  Each kind then stands for its repeats in the statistics.
    Scaled latencies divide each job's time by the slowdown around it.
    """
    by_label = {}
    for o in outcomes:
        by_label.setdefault(o.label, []).append(o.seconds / o.slow if scaled else o.seconds)
    return {k: statistics.median(v) for k, v in by_label.items()}


def _latency_metrics(lat: list, pct: int) -> dict:
    return {"jobs_per_s": len(lat) / sum(lat), "job_p50_s": statistics.median(lat),
            "job_tail_s": nearest_rank(lat, pct)}


def end_to_end(outcomes, setup_s: float, in_process: bool):
    lat = list(kind_latencies(outcomes).values())
    pct = tail_percentile(MIN_CYCLES * len(lat))
    if in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = max(o.rss_kb for o in outcomes)
    ok = sum(o.status == "ok" for o in outcomes)
    lm = _latency_metrics(lat, pct)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (lm["jobs_per_s"], "1/s"),
        "job_p50_s": (lm["job_p50_s"], "s"),
        "job_tail_s": (lm["job_tail_s"], "s"),
        "ok_frac": (ok / len(outcomes), "ratio"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    raw = _latency_metrics(list(kind_latencies(outcomes, scaled=False).values()), pct)
    return metrics, {"tail_percentile": pct, "tail_samples": len(outcomes),
                     "slowdown": slowdown(outcomes), "unscaled": raw}


def unit_of(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith((".s", "self_s", "p50_s", "startup_s")):
        return "s"
    if name.endswith(("gap", "frac", "share")):
        return "ratio"
    if name.endswith("scaling_exp"):
        return "exponent"
    return "count"


def per_layer(tracer, untraced, traced, cycles):
    """Span metrics scaled by the traced pass's median slowdown; CLI call
    times from the untraced pass, scaled job by job."""
    import tracing

    slow_t = slowdown(traced)
    scale = {"s": 1 / slow_t, "1/s": slow_t}
    out = {k: (v * scale.get(unit_of(k), 1), unit_of(k))
           for k, v in tracing.layer_metrics(tracer.spans, cycles).items()}
    kinds = kind_latencies(untraced)
    out["cli.startup_s"] = (kinds.get("help", 0.0), "s")
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.p50_s"] = (kinds.get(sub, 0.0), "s")
    busy_u = sum(o.seconds / o.slow for o in untraced)
    busy_t = sum(o.seconds / o.slow for o in traced)
    out["trace.overhead_frac"] = (busy_t / busy_u - 1, "ratio")
    out["jobs.fail_frac"] = (sum(o.status != "ok" for o in untraced) / len(untraced), "ratio")
    return out


# --------------------------------------------------------------------------
# entry point


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flatcurve", "__init__.py")):
        print(f"perfbench: no flatcurve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.update(ONE_THREAD)
    import numpy as np
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    in_process = args.workload != "cli-session"

    jobs = workloads.build(args.workload, args.seed)
    if args.trace == 0:
        setup_s, setup_raw = measure_setup(args.workload, args.seed)
        outcomes, cycles = run_cycles(jobs, seconds=args.seconds)
        metrics, extra = end_to_end(outcomes, setup_s, in_process)
        extra["unscaled"]["setup_s"] = setup_raw
    else:
        outcomes, cycles = run_cycles(jobs, seconds=args.seconds / 2, min_cycles=1)
        tracer = tracing.Tracer()
        spans_path = os.path.join(workloads.OUT_DIR, f"child-spans-{os.getpid()}.json")
        tracer.install()
        try:
            traced, _ = run_cycles(jobs, cycles=cycles, tracer=tracer, spans_path=spans_path)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, outcomes, traced, cycles)
        extra = {"traced_jobs": len(traced), "spans": len(tracer.spans),
                 "slowdown": slowdown(outcomes), "traced_slowdown": slowdown(traced)}

    failures = [o for o in outcomes if o.status != "ok"]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "jobs": len(outcomes), "cycles": cycles,
        "jobs_per_cycle": len(jobs), **extra,
        "label_p50_s": {k: round(v, 4) for k, v in kind_latencies(outcomes).items()},
        "failures": {f"{o.label}: {o.status}": o.detail[:200] for o in failures},
    }
    with open(os.path.join(workloads.OUT_DIR, f"jobs-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump([[o.label, o.seconds, o.status, o.slow] for o in outcomes], fh)
    if args.trace == 1:
        tracer.dump(os.path.join(workloads.OUT_DIR,
                                 f"spans-{args.workload}-seed{args.seed}.json"),
                    dict(info, labels=[j.label for j in jobs]))
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": not any(o.status in ("mismatch", "crash") for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
