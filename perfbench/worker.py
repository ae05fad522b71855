"""One benchmark run of one workload, in a process of its own.

Started by ``perfbench/run.py`` as ``python -m perfbench.worker`` from the
checkout root with ``src`` on PYTHONPATH.  Prints a single JSON line.

Set-up is everything from process start to ready: imports, loading the
calibrated constants and one untimed warm-up op.  The timed region is a
single-threaded closed loop over the seed's op set: the next op starts
when the previous one has returned.  See ``timed_loop`` for the order.
Each op's latency is the fastest of its runs, and the throughput is the
set's size over the sum of those latencies, so a slow stretch of a shared
machine does not set the figures.  Every op of the set is checked after
the timed region, and every later run of an op must return exactly what
its first run did.

With ``--trace 1`` the loop runs untraced for half the time, then the set
runs once traced; its wall time over the sum of the ops' fastest
untraced latencies, minus 1, is the tracing overhead, and the traced round
gives the per-layer metrics.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import heapq
import json
import logging
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MIN_RUNS = 2               # so that every op's fastest run is a choice


class LogCounter(logging.Handler):
    """Keeps goodfun's log records off stderr, counting them by template."""

    def __init__(self) -> None:
        super().__init__()
        self.counts: Counter = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        self.counts[record.msg] += 1

    def count(self, prefix: str) -> int:
        return sum(n for msg, n in self.counts.items() if str(msg).startswith(prefix))


def capture_logs() -> LogCounter:
    handler = LogCounter()
    logger = logging.getLogger("goodfun")
    logger.addHandler(handler)
    logger.propagate = False
    return handler


def run_op(workload, args, tracer=None, op_id=0):
    """One op: ``(result, error, latency_s)``; an exception is recorded."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workload.op(*args)
        else:
            tracer.op = op_id
            result = tracer.span("op", workload.op, *args)
        error = None
    except Exception as exc:  # recorded and counted as a failed op
        result, error = None, exc
    return result, error, time.perf_counter() - t0


def timed_loop(workload, op_set, seconds: float, min_runs: int):
    """Run the ops of ``op_set`` repeatedly for up to ``seconds``.

    The first round runs every op once, in set order.  After it, the loop
    always runs the op with the least time spent so far per square root of
    its first latency, so an op's share of the time grows with the square
    root of its cost: a 10 ms op runs about ten times as often as a 1 s op,
    and the runs of every op are spread over the whole loop.  That gives
    cheap ops many chances at a fast stretch of the machine, without
    starving the costly ones.  The loop stops before an op that would end
    after ``seconds``, once every op has run ``min_runs`` times.

    Returns, per op, the list of its runs ``(result, error, latency_s)``.
    """
    start = time.perf_counter()
    runs = [[run_op(workload, args)] for args in op_set]
    spent = [r[0][2] for r in runs]
    weight = [math.sqrt(max(t, 1e-9)) for t in spent]
    queue = [(t / w, i) for i, (t, w) in enumerate(zip(spent, weight))]
    heapq.heapify(queue)
    while True:
        _, i = queue[0]
        if (min(len(r) for r in runs) >= min_runs
                and time.perf_counter() - start + runs[i][-1][2] > seconds):
            return runs
        runs[i].append(run_op(workload, op_set[i]))
        spent[i] += runs[i][-1][2]
        heapq.heapreplace(queue, (spent[i] / weight[i], i))


def _same(a, b) -> bool:
    try:
        return bool(a == b)
    except ValueError:          # array-valued fields compare elementwise
        return repr(a) == repr(b)


def _openblas():
    """OpenBLAS version and thread count, read (never set) from the loaded library."""
    import numpy as np

    info = {"version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["version"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def env_stamp(workload: str, seed: int) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "goodfun").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    blas = _openblas()
    return {"workload": workload, "seed": seed, "git_commit": commit,
            "source_sha256": digest.hexdigest(), "python": platform.python_version(),
            "numpy": np.__version__, "openblas": blas["version"],
            "openblas_threads": blas["threads"], "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0))}


def _percentile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _per_layer(tracer, logs: LogCounter, outcomes, overhead: float, n_ops: int) -> dict:
    from perfbench.tracer import SWEEPS

    s, c = tracer.summary(), tracer.counts

    def get(key):
        return s.get(key, 0)

    quad_calls = get("quadrature.integrate_finite.calls") + get("quadrature.integrate_tail.calls")
    quad_busy = get("quadrature.integrate_finite.busy_s") + get("quadrature.integrate_tail.busy_s")
    oracle_calls = get("zeros.find_zeros>good.eval_H")
    exact = [o.detail["constants_exact"] for o in outcomes if "constants_exact" in o.detail]
    m = {
        "quadrature.calls": quad_calls,
        "quadrature.fevals": c["fevals"],
        "quadrature.busy_s": quad_busy,
        "quadrature.fevals_per_s": c["fevals"] / quad_busy if quad_busy else 0.0,
        "quadrature.panels": c["panels"],
        "quadrature.unconverged": c["unconverged"],
        "quadrature.fevals_per_call": c["fevals"] / quad_calls if quad_calls else 0.0,
        "good.eval_H.calls": get("good.eval_H.calls"),
        "good.eval_H.busy_s": get("good.eval_H.busy_s"),
        "good.eval_H.self_s": get("good.eval_H.self_s"),
        "zeros.find_zeros.busy_s": get("zeros.find_zeros.busy_s"),
        "zeros.find_zeros.self_s": get("zeros.find_zeros.self_s"),
        "zeros.oracle_calls": oracle_calls,
        "zeros.zeros_found": c["zeros_found"],
        "zeros.oracle_calls_per_zero": (oracle_calls / c["zeros_found"]
                                        if c["zeros_found"] else 0.0),
        "zeros.ambiguous_signs": logs.count("ambiguous sign"),
        "zeros.residual_warnings": logs.count("residual"),
        "anger.anger_J.calls": get("anger.anger_J.calls"),
        "anger.anger_J.busy_s": get("anger.anger_J.busy_s"),
        "phase.two_term_expansion.busy_s": get("phase.two_term_expansion.busy_s"),
    }
    for name in SWEEPS:
        m[f"calibrate.{name}.busy_s"] = get(f"calibrate.{name}.busy_s")
    m["calibrate.constants_exact"] = min(exact) if exact else 0
    m["regimes.h_approx.busy_s"] = get("regimes.h_approx.busy_s")
    m["regimes.cubic_tail.busy_s"] = get("regimes.cubic_tail.busy_s")
    m["constants.load_s"] = get("constants.load_constants.busy_s")
    m["trace.overhead_frac"] = overhead
    m["trace.ops"] = n_ops
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    # -- set-up: imports, constants, warm-up --------------------------------
    import goodfun
    from goodfun import constants as constants_mod

    if not Path(goodfun.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"goodfun was imported from {goodfun.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    from perfbench import workloads
    from perfbench.tracer import Tracer

    workload = workloads.WORKLOADS[args.workload]
    logs = capture_logs()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    constants_mod.get_constants()
    if tracer:
        tracer.uninstall()
    workload.op(*workload.warmup)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # -- timed region ------------------------------------------------------
    op_set = workloads.ops(workload, args.seed)
    logs.counts.clear()
    if tracer:
        runs = timed_loop(workload, op_set, args.seconds / 2.0, 1)
        logs.counts.clear()
        tracer.install()
        t0 = time.perf_counter()
        try:
            traced = [run_op(workload, a, tracer, i) for i, a in enumerate(op_set)]
        finally:
            tracer.uninstall()
        traced_wall = time.perf_counter() - t0
    else:
        runs = timed_loop(workload, op_set, args.seconds, MIN_RUNS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- checks --------------------------------------------------------------
    outcomes = []
    for i, op_args in enumerate(op_set):
        result, error, _ = runs[i][0]
        outcome = workloads.check(workload, op_args, result, error)
        later = [r[0] for r in runs[i][1:]] + ([traced[i][0]] if tracer else [])
        if error is None and not all(_same(r, result) for r in later):
            outcome.causes.append("result_changed_between_runs")
            outcome.gross = True
        outcomes.append(outcome)
    causes = Counter(c for o in outcomes for c in set(o.causes))
    failed = sum(1 for o in outcomes if o.causes)
    best = [min(run[2] for run in r) for r in runs]
    n_runs = sum(len(r) for r in runs)
    report = {
        "env": env_stamp(args.workload, args.seed),
        "attempted": len(op_set),
        "failed": failed,
        "correct": not any(o.gross for o in outcomes),
        "causes": dict(causes),
        "gross": [dict(op=i, causes=o.causes, **o.detail)
                  for i, o in enumerate(outcomes) if o.gross][:10],
        "runs_per_op": [min(len(r) for r in runs), max(len(r) for r in runs)],
        "samples": {"ops_per_s": n_runs, "op_p50_ms": n_runs, "op_p90_ms": n_runs},
        "log_records": {str(k): v for k, v in logs.counts.items()},
    }
    worst = {}
    for o in outcomes:
        for key in ("ref_ratio", "claim_ratio"):
            if key in o.detail:
                worst[key] = max(worst.get(key, 0.0), o.detail[key])
    if worst:
        report["worst_ratio"] = worst
    if tracer:
        report["metrics"] = _per_layer(tracer, logs, outcomes,
                                       traced_wall / sum(best) - 1.0, len(op_set))
        if args.spans_out:
            tracer.write(args.spans_out, report["env"])
    else:
        report["setup_s"] = setup_s
        report["metrics"] = {
            "ops_per_s": len(op_set) / sum(best),
            "op_p50_ms": 1e3 * statistics.median(best),
            "op_p90_ms": 1e3 * _percentile(best, 90),
            "ok_frac": 1.0 - failed / len(op_set),
            "peak_rss_mb": peak_rss_mb,
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
