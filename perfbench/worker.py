"""One workload in one process: set-up, then the closed loop of operations.

Started by run.py from the root of a szego checkout; prints one JSON object
as its last line.  `--mode setup` stops after set-up and reports its time.
Only standard-library modules are imported before szego, so that set-up
time includes importing szego and the numpy and scipy it pulls in.  The
reference work of `reference.py` runs after set-up and between operations,
outside every timed span; run.py scales the timings by what it measured.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SETUP_REF_SAMPLES = 15    # reference samples right after set-up
EDGE_REF_SAMPLES = 5      # reference samples before and after the operations
REF_EVERY_S = 0.05        # a sample after each 50 ms of operations ...
REF_BURST = 5             # ... up to five after one long operation


def _import_szego(root: str, workload: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import szego

    if workload == "roundtrip":
        import szego.cli  # noqa: F401
    if not os.path.abspath(szego.__file__).startswith(src + os.sep):
        raise ImportError(f"szego imported from {szego.__file__}, not from {src}")
    return szego


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    args = ap.parse_args()

    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return _run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args, tmp: str) -> int:
    t0 = time.perf_counter()
    sz = _import_szego(os.getcwd(), args.workload)
    t1 = time.perf_counter()
    import numpy as np

    import reference
    import workloads

    t2 = time.perf_counter()
    workloads.warm_up(args.workload, sz, tmp)
    setup_s = (t1 - t0) + (time.perf_counter() - t2)
    host = reference.HostSpeed()
    if args.mode == "setup":
        for _ in range(SETUP_REF_SAMPLES):
            host.sample()
        print(json.dumps({"setup_s": setup_s, "slowdown": host.slowdown()}))
        return 0

    rng = np.random.default_rng(args.seed)
    schedule = workloads.schedule(args.workload, sz, rng, tmp, args.seconds)
    op_s: list[float] = []
    op_cpu: list[float] = []
    failures: Counter = Counter()
    wrong = 0
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    gc.collect()
    for _ in range(EDGE_REF_SAMPLES):
        host.sample()
    clock, cpu_clock = time.perf_counter, time.process_time
    since_ref = 0.0
    for op in schedule:
        cpu0, start = cpu_clock(), clock()
        try:
            out, err = op.call(), None
        except Exception as e:  # a failed operation is counted, not fatal
            out, err = None, f"{type(e).__name__}: {e}"
        op_s.append(clock() - start)
        op_cpu.append(cpu_clock() - cpu0)
        since_ref += op_s[-1]
        if since_ref >= REF_EVERY_S:
            for _ in range(min(REF_BURST, int(since_ref / REF_EVERY_S))):
                host.sample(len(op_s))
            since_ref = 0.0
        if err is None:
            err = op.check(out)
            if err is not None:
                wrong += 1
                err = "wrong output: " + err
        if err is not None:
            failures[f"{op.label}: {err}"] += 1
    if tracer is not None:
        tracer.uninstall()
    for _ in range(EDGE_REF_SAMPLES):
        host.sample(len(op_s))
    wall_slow, cpu_slow = host.slowdowns(len(op_s))
    wall, cpu = np.array(op_s), np.array(op_cpu)

    result = {
        "setup_s": setup_s,
        "slowdown": host.slowdown(),
        "attempted": len(schedule),
        "failed": sum(failures.values()),
        "wrong": wrong,
        "failures": dict(failures),
        "wall_s": float(np.sum(wall / wall_slow)),
        "cpu_s": float(np.sum(cpu / cpu_slow)),
        "op_p50_ms": float(np.median(wall / wall_slow)) * 1e3,
        "unscaled": {"wall_s": float(wall.sum()), "cpu_s": float(cpu.sum()),
                     "op_p50_ms": float(np.median(wall)) * 1e3},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ref_samples": len(host.wall),
    }
    if tracer is not None:
        spans = tracer.arrays()
        np.savez_compressed(
            os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.npz"), **spans)
        result["per_layer"] = tracing.per_layer(spans)
        result["spans"] = int(spans["name"].size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
