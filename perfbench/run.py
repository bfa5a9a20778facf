"""szego benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run it from the root of a szego checkout: it imports szego from ./src.
Every workload runs in processes of its own (see worker.py), with one BLAS
thread.  With --trace 0 it reports the end-to-end metrics, set-up time
being the median over several fresh processes; with --trace 1 it reports
the per-layer metrics of a traced run.  Times are scaled to the reference
host speed that reference.py measures during each process (see README.md);
the lines before the JSON object also print them unscaled.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("spectral", "evolve", "oracle", "roundtrip")
SETUP_ONLY_RUNS = 4      # set-up-only processes; the measuring process adds one more
TIME_LIMIT_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class WorkerError(RuntimeError):
    pass


def _worker(args, workload: str, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode]
    env = dict(os.environ, **THREAD_ENV)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as e:
        raise WorkerError(f"{workload} {mode} process passed the time limit") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload} {mode} process exited with {proc.returncode}:\n"
                          + proc.stderr[-2000:])
    return json.loads(lines[-1])


def run_workload(args, workload: str, deadline: float) -> dict:
    setups = []
    if not args.trace:
        setups = [_worker(args, workload, "setup", deadline)
                  for _ in range(SETUP_ONLY_RUNS)]
    res = _worker(args, workload, "run", deadline)
    setups.append(res)
    for reason, count in sorted(res["failures"].items()):
        print(f"{workload}: {count} failed: {reason}", file=sys.stderr)
    raw = res["unscaled"]
    print(f"{workload}  unscaled: ops_per_s {res['attempted'] / raw['wall_s']:.6g}  "
          f"op_p50_ms {raw['op_p50_ms']:.6g}  cpu_ms_per_op "
          f"{raw['cpu_s'] * 1e3 / res['attempted']:.6g}  setup_s "
          f"{statistics.median(s['setup_s'] for s in setups):.6g}  host slowdown "
          f"{res['slowdown']:.4g} ({res['ref_samples']} samples)")
    ops_per_s = res["attempted"] / res["wall_s"]
    if args.trace:
        metrics = dict(res["per_layer"])
        metrics["trace.ops_per_s"] = (ops_per_s, "ops/s")
        metrics["trace.spans"] = (float(res["spans"]), "count")
        metrics["trace.host_slowdown"] = (res["slowdown"], "ratio")
    else:
        metrics = {
            "ops_per_s": (ops_per_s, "ops/s"),
            "op_p50_ms": (res["op_p50_ms"], "ms"),
            "cpu_ms_per_op": (res["cpu_s"] * 1e3 / res["attempted"], "ms"),
            "setup_s": (statistics.median(s["setup_s"] / s["slowdown"] for s in setups), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    return {
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "szego", "__init__.py")):
        print("error: no szego source at ./src/szego; run from the root of a "
              "szego checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = res = run_workload(args, name, deadline)
            for metric, m in res["metrics"].items():
                print(f"{name}  {metric:<40} {m['value']:.6g} {m['unit']}")
            print(f"{name}  attempted {res['attempted']}  failed {res['failed']}  "
                  f"correct {res['correct']}")
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
