#!/usr/bin/env python3
"""goodfun benchmark: one run of one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload compare-wide-x --seed 1 --seconds 36 --trace 0

Workloads: compare-wide-x, zeros-small-x, calibrate-quick (see
BENCHMARK.json for why each exists).  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run with the same
seed.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the environment stamp and a readable report.

The program under test is the ``goodfun`` package in ``src/``, byte-compiled
here before the first run.  Each run starts its workload in a fresh
process; untraced runs start ``SETUP_SAMPLES`` more processes that only set
up, half before and half after the timed run, and report the median
set-up time.  Nothing is written outside the
checkout: traced runs leave their spans in ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("compare-wide-x", "zeros-small-x", "calibrate-quick")
SETUP_SAMPLES = 6          # set-up-only processes besides the measured one
DEADLINE_S = 170.0         # whole run, after which the worker is killed


class WorkerFailed(RuntimeError):
    pass


def _worker(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    spawned_at = time.monotonic()
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spawned-at", repr(spawned_at), *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"worker exceeded the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _units(trace: int) -> dict:
    """Metric name -> unit, for the metrics a run with this --trace reports."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _report_lines(res: dict, metrics: dict, units: dict):
    yield "env " + json.dumps(res["env"], sort_keys=True)
    yield (f"op set of {res['attempted']} ops, run {res['runs_per_op'][0]} to "
           f"{res['runs_per_op'][1]} times each; "
           f"failed={res['failed']} "
           f"fail_frac={res['failed'] / res['attempted']:.6g} causes={res['causes']} "
           f"correct={res['correct']}")
    if res.get("worst_ratio"):
        yield f"check: worst error ratios (1 = at the claimed error) {res['worst_ratio']}"
    for op in res["gross"]:
        yield f"gross failure {op}"
    if res["log_records"]:
        yield f"log records {res['log_records']}"
    for name, value in metrics.items():
        samples = res["samples"].get(name)
        yield (f"  {name:42s} {value:16.6g} {units[name]}"
               + (f"  (n={samples})" if samples else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "goodfun" / "__init__.py").is_file():
        print(f"no goodfun sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC / "goodfun"), quiet=1):
        print("byte-compiling src/goodfun failed", file=sys.stderr)
        return 2

    try:
        if args.trace:
            spans = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
            spans.parent.mkdir(exist_ok=True)
            res = _worker(args, deadline, "--spans-out", str(spans))
            metrics = res["metrics"]
        else:
            # set-up samples are split around the timed run, so a slow
            # stretch of the machine does not colour all of them
            def setup_samples(n):
                return [_worker(args, deadline, "--setup-only")["setup_s"] for _ in range(n)]

            setups = setup_samples(SETUP_SAMPLES // 2)
            res = _worker(args, deadline)
            setups += [res["setup_s"], *setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
            res["samples"]["setup_s"] = len(setups)
            metrics = {"setup_s": statistics.median(setups), **res["metrics"]}
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    units = _units(args.trace)
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    for line in _report_lines(res, metrics, units):
        print(line)
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
