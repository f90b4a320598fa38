"""One benchmark run of one workload, in a process of its own.

run.py starts this script with BLAS and OpenMP pinned to one thread. It
imports eddykit from ./src, builds the workload's inputs and prints
``READY <monotonic time>``; with --setup-only it stops there, which is how
run.py samples set-up time. Otherwise it runs timed passes until --seconds
have elapsed (at least MIN_PASSES), checks every operation against its
oracle outside the timed region, and prints one JSON line with the raw
measurements. With --trace 1 every other pass is traced, so the tracing
overhead is measured within the same run.

Between passes the worker times the workload's calibration probe, so
run.py can scale each pass to a reference host speed (see make_probe()).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

ROOT = os.getcwd()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_PASSES = {False: 3, True: 4}
CAL_REPS = 5  # probe repetitions per calibration point; their median is kept
# Seconds one run of each probe part takes at the reference host speed
# (middle values on the 2-vCPU Xeon host the benchmark was tuned on).
PROBE_REF_S = {"python": 0.005, "stream": 0.005, "draws": 0.005}


def environment(np, scipy) -> dict:
    """Machine and library facts that a reader needs to compare two runs."""
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for index in sorted(os.listdir(base)):
            try:
                with open(os.path.join(base, index, "level")) as fh:
                    level = fh.read().strip()
                with open(os.path.join(base, index, "type")) as fh:
                    kind = fh.read().strip()
                with open(os.path.join(base, index, "size")) as fh:
                    size = fh.read().strip()
            except OSError:
                continue
            if kind != "Instruction":
                caches["L1d" if level == "1" else f"L{level}"] = size
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def rng_ns_per_draw(stream_generator, shape, seed: int) -> float:
    """Median ns per normal when drawing the workload's chunk shape, one
    generator per realization, through the public stream_generator."""
    count, chunk = shape
    gens = [stream_generator(seed, r, 0) for r in range(count)]
    per_round = []
    for _ in range(9):
        t0 = time.perf_counter()
        for g in gens:
            g.standard_normal((chunk, 2))
        per_round.append((time.perf_counter() - t0) / (count * chunk * 2) * 1e9)
    return statistics.median(per_round)


def make_probe(np, parts):
    """The calibration probe of a workload, as a function of no arguments.

    Each part is one kind of work a workload spends its time on: "python"
    is an interpreted loop, "stream" passes through a 1 MiB array and
    "draws" fills a (32, 4096) block with normals and sums it along its
    rows. The parts write only into arrays allocated here, before any timer
    starts, so they time the host and not the allocator state a pass leaves
    behind. They never call eddykit, so no change to the program moves them.
    """
    big = np.linspace(0.0, 1.0, 1 << 17)
    tmp = np.empty_like(big)
    block = np.empty((32, 4096))
    gen = np.random.default_rng(0)

    def python():
        acc = 0
        for i in range(60_000):
            acc += i * i

    def stream():
        for _ in range(12):
            np.multiply(big, big, out=tmp)
            np.add(tmp, 1.0, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp.sum()

    def draws():
        for _ in range(2):
            gen.standard_normal(out=block)
            np.cumsum(block, axis=1, out=block)

    chosen = [{"python": python, "stream": stream, "draws": draws}[name] for name in parts]

    def probe():
        for part in chosen:
            part()
    return probe


def calibrate(probe) -> float:
    """Median seconds of CAL_REPS runs of the probe."""
    times = []
    for _ in range(CAL_REPS):
        t0 = time.perf_counter()
        probe()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed_pass(wl, p: int, tracer):
    if tracer is None:
        t0 = time.perf_counter()
        result = wl.run(p)
        return result, time.perf_counter() - t0
    tracer.begin_pass()
    tracer.install()
    try:
        root = tracer.enter("pass", "bench", False)
        try:
            result = wl.run(p)
        finally:
            wall = tracer.exit(root)
    finally:
        tracer.uninstall()
    return result, wall


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    import scipy
    import eddykit
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(eddykit.__file__).startswith(src):
        print(f"perfbench: eddykit came from {eddykit.__file__}, not {src}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import WORKLOADS

    os.makedirs(args.workdir, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.tiny, args.workdir)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    outputs, wall, cal, traced = [], [], [], []
    error = None
    probe = make_probe(np, wl.probe)
    start = time.perf_counter()
    calibrate(probe)  # warm-up: the first probe after start-up runs slow
    cal_before = calibrate(probe)
    p = 0
    while p < MIN_PASSES[bool(args.trace)] or time.perf_counter() - start < args.seconds:
        trace_this = tracer is not None and p % 2 == 0
        wl.prepare(p)
        try:
            result, seconds = timed_pass(wl, p, tracer if trace_this else None)
            outputs.append(wl.collect(result))
        except Exception:  # the program under test failed: record it and stop
            traceback.print_exc()
            error = f"pass {p} raised; see stderr"
            break
        cal_after = calibrate(probe)
        if trace_this:
            traced.append({
                "pass": p,
                "wall_s": seconds,
                "self_s": dict(tracer.self_s),
                "counts": dict(tracer.counts),
                "solve_s": {str(m): d for m, d in tracer.solve_s.items()},
            })
        else:
            wall.append(seconds)
            cal.append((cal_before + cal_after) / 2.0)
        cal_before = cal_after
        p += 1

    refs = wl.references() if outputs else {}
    checks, digests = [], []
    for out in outputs:
        ops = wl.check(out, refs)
        checks.append([[op.name, op.ok, op.detail] for op in ops])
        digests.append(wl.digest(out))
    attempted = sum(len(c) for c in checks) + (wl.ops_per_pass if error else 0)
    failed = sum(not ok for c in checks for _, ok, _ in c) + (wl.ops_per_pass if error else 0)

    result = {
        "error": error,
        "wall_s": wall,
        "cal_s": cal,
        "cal_ref_s": sum(PROBE_REF_S[part] for part in wl.probe),
        "traced": traced,
        "checks": checks,
        "digests": digests,
        "attempted": attempted,
        "failed": failed,
        "path_steps": wl.path_steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(np, scipy),
        "block": wl.block_bytes(),
    }
    if tracer is not None:
        result["rng_ns_per_draw"] = rng_ns_per_draw(eddykit.stream_generator, wl.rng_shape,
                                                    args.seed)
        result["aggregates"] = tracer.aggregates
        with open(os.path.join(args.workdir, f"spans_{args.workload}_{args.seed}.json"),
                  "w") as fh:
            json.dump({"fields": ["id", "name", "layer", "start", "end", "parent"],
                       "spans": tracer.spans, "aggregates": tracer.aggregates}, fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
