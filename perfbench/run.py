"""eddykit benchmark: one workload, one seed, end to end or per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ou_shear_sweep --seed 1 --seconds 20 --trace 0

Workloads: ou_shear_sweep, noisy_box_cli, tg_em_sweep, cell_spectral_scan
(see perfbench/README.md). With --trace 0 the run samples set-up time in
SETUP_PROBES extra processes, half before and half after a worker process
that times passes of the workload, and reports norm_wall_s, setup_s and
peak_rss_mb. With --trace 1 it reports the per-layer metrics instead.
Every line but the last is for people; the last line is one JSON object
with the keys correct, attempted, failed and metrics.

Only the standard library is imported here; numpy, scipy and eddykit are
imported by the worker, whose environment pins every BLAS and OpenMP pool
to one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

from worker import THREAD_VARS  # noqa: E402  (stdlib-only module)

ROOT = os.getcwd()
WORKDIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("ou_shear_sweep", "noisy_box_cli", "tg_em_sweep", "cell_spectral_scan")
SETUP_PROBES = 4       # set-up samples besides the worker's own
DEADLINE_S = 170.0     # the whole run, probes included
SPECTRAL_MODES = (16, 32, 64, 128)

LAYER_METRICS = [
    # name, unit
    ("dynamics.busy_s", "s"),
    ("dynamics.ns_per_path_step", "ns"),
    ("dynamics.path_steps", "count"),
    ("dynamics.draws", "count"),
    ("dynamics.rng_ns_per_draw", "ns"),
    ("estimators.busy_s", "s"),
    ("estimators.calls", "count"),
    ("estimators.points", "count"),
    ("estimators.ns_per_point", "ns"),
    ("estimators.noise_draws", "count"),
    ("harness.self_s", "s"),
    ("harness.blocks", "count"),
    ("harness.trajectories_built", "count"),
    ("cli.self_s", "s"),
    ("homogenization.self_s", "s"),
    *[(f"homogenization.solve_s.M{m}", "s") for m in SPECTRAL_MODES],
    ("homogenization.unknowns", "count"),
    ("homogenization.solves", "count"),
    ("homogenization.modes_reached", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]
# counts derived from array sizes rather than counted at a call
COMPUTED = {"dynamics.path_steps", "estimators.points", "homogenization.unknowns"}
COUNTS = ("dynamics.path_steps", "dynamics.draws", "estimators.calls", "estimators.points",
          "estimators.noise_draws", "harness.blocks", "harness.trajectories_built",
          "homogenization.unknowns", "homogenization.solves", "homogenization.modes_reached")


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Run the worker to completion; return (set-up seconds, stdout lines)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workdir", WORKDIR, *args]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run's deadline") from None
    lines = out.splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("READY ")]
    if proc.returncode != 0 or not ready:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return ready[0] - t0, lines


def source_digest() -> str:
    """Digest of the program and benchmark sources: repeats are compared
    only between runs of identical code."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def check_repeats(key: str, digests: list[str], traced: list[dict]) -> list[str]:
    """Compare each pass with earlier runs of the same code, workload and seed.

    The ledger in .perfbench/ keeps each pass's output digest and, from
    traced runs, its exact counts. Returns one message per mismatch.
    """
    path = os.path.join(WORKDIR, "ledger.json")
    ledger = {}
    if os.path.exists(path):
        with open(path) as fh:
            ledger = json.load(fh)
    counts = {t["pass"]: {k: t["counts"].get(k, 0) for k in COUNTS} for t in traced}
    problems = []
    for p, digest in enumerate(digests):
        entry = ledger.setdefault(f"{key}:{p}", {"digest": digest})
        if entry["digest"] != digest:
            problems.append(f"pass {p}: digest {digest} differs from {entry['digest']}")
        if p in counts:
            seen = entry.setdefault("counts", counts[p])
            if seen != counts[p]:
                problems.append(f"pass {p}: counts {counts[p]} differ from {seen}")
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(ledger, fh)
    os.replace(tmp, path)
    return problems


def layer_metrics(result: dict) -> dict:
    traced, untraced = result["traced"], result["wall_s"]

    def med(values):
        return statistics.median(values) if values else 0.0

    def per_pass(fn):
        return med([fn(t["self_s"], t["counts"]) for t in traced])

    def ratio(num, den):
        return num * 1e9 / den if den else 0.0

    m = {
        "dynamics.busy_s": per_pass(lambda s, c: s.get("dynamics", 0.0)),
        "dynamics.ns_per_path_step": per_pass(
            lambda s, c: ratio(s.get("dynamics", 0.0), c.get("dynamics.path_steps", 0))),
        "dynamics.rng_ns_per_draw": result["rng_ns_per_draw"],
        "estimators.busy_s": per_pass(lambda s, c: s.get("estimators", 0.0)),
        "estimators.ns_per_point": per_pass(
            lambda s, c: ratio(s.get("estimators", 0.0), c.get("estimators.points", 0))),
        "harness.self_s": per_pass(lambda s, c: s.get("harness", 0.0)),
        "cli.self_s": per_pass(lambda s, c: s.get("cli", 0.0)),
        "homogenization.self_s": per_pass(lambda s, c: s.get("homogenization", 0.0)),
        "trace.wall_s": med([t["wall_s"] for t in traced]),
    }
    m["trace.overhead_s"] = m["trace.wall_s"] - med(untraced)
    for key in COUNTS:
        m[key] = per_pass(lambda s, c: c.get(key, 0))
    for modes in SPECTRAL_MODES:
        durations = [d for t in traced for d in t["solve_s"].get(str(modes), [])]
        m[f"homogenization.solve_s.M{modes}"] = med(durations)
    return m


def mb(n: float) -> str:
    return f"{n / 2 ** 20:.3g} MiB"


def cache_bytes(size: str) -> int:
    units = {"K": 2 ** 10, "M": 2 ** 20, "G": 2 ** 30}
    return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny problem sizes, for the benchmark's self-test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "eddykit", "__init__.py")):
        print("perfbench: ./src/eddykit not found; run from the root of an eddykit checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")
    os.makedirs(WORKDIR, exist_ok=True)
    # set-up samples on both sides of the worker span more of the host's
    # slow speed swings than samples taken back to back
    probes = 0 if args.trace else SETUP_PROBES
    try:
        setup = [spawn([*common, "--setup-only"], deadline)[0] for _ in range(probes // 2)]
        worker_setup, lines = spawn([*common, "--seconds", str(args.seconds),
                                     "--trace", str(args.trace)], deadline)
        setup += [spawn([*common, "--setup-only"], deadline)[0] for _ in range(probes - probes // 2)]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setup.append(worker_setup)
    result = json.loads(lines[-1])
    if not result["digests"]:
        print(f"perfbench: no pass completed ({result['error']})", file=sys.stderr)
        return 1

    env = result["env"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' tiny' if args.tiny else ''}")
    print(f"env: nproc={env['nproc']} affinity={env['affinity']} cpu={env['cpu']!r} "
          f"caches={env['caches']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} threads={env['threads']}")
    caches = {k: cache_bytes(v) for k, v in env["caches"].items() if k in ("L2", "L3")}
    for name, value in result["block"].items():
        if name.endswith("bytes"):
            rel = ", ".join(f"{value / size:.2g} x {k}" for k, size in caches.items())
            print(f"computed {name} = {mb(value)} ({rel})")
        else:
            print(f"computed {name} = {value}")

    for p, (checks, digest) in enumerate(zip(result["checks"], result["digests"])):
        for name, ok, detail in checks:
            print(f"check pass {p} {name}: {'ok' if ok else 'FAILED'} {detail}")
        print(f"digest pass {p}: {digest}")
    if result["error"]:
        print(f"error: {result['error']}")
    key = ":".join([source_digest(), args.workload, "tiny" if args.tiny else "full",
                    str(args.seed)])
    problems = check_repeats(key, result["digests"], result["traced"])
    for msg in problems:
        print(f"repeat mismatch {msg}")

    if args.trace:
        metrics = layer_metrics(result)
        units = dict(LAYER_METRICS)
        layers = statistics.median(
            [sum(t["self_s"].values()) - t["wall_s"] for t in result["traced"]])
        print(f"traced passes: {len(result['traced'])}, untraced: {len(result['wall_s'])}; "
              f"median (sum of layer self times - traced wall) = {layers:.3g} s")
        bench_self = statistics.median([t["self_s"].get("bench", 0.0) for t in result["traced"]])
        print(f"info bench.self_s = {bench_self:.6g} s (benchmark code inside the pass)")
    else:
        wall = statistics.median(result["wall_s"])
        # each pass at the reference host speed: scaled by the probe's reference
        # time over its time around that pass (see README.md, Calibration)
        norm = [w * result["cal_ref_s"] / c for w, c in zip(result["wall_s"], result["cal_s"])]
        metrics = {
            "norm_wall_s": statistics.median(norm),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        print(f"passes: {len(result['wall_s'])}, pass times "
              f"{[round(w, 4) for w in result['wall_s']]} s; probe times "
              f"{[round(c, 5) for c in result['cal_s']]} s; set-up samples "
              f"{[round(s, 4) for s in setup]} s")
        print(f"info wall_s = {wall:.6g} s (median pass time, not scaled)")
        if result["path_steps"]:
            print(f"info path_steps_per_s = {result['path_steps'] / wall:.6g} 1/s "
                  f"(computed: realizations x steps per pass / wall_s)")
    for name, value in metrics.items():
        label = " (computed from array sizes)" if name in COMPUTED else ""
        print(f"metric {name} = {value:.6g} {units[name]}{label}")
    failed_fraction = result["failed"] / result["attempted"]
    print(f"info failed_fraction = {result['failed']}/{result['attempted']} = "
          f"{failed_fraction:.6g}")

    correct = result["failed"] == 0 and not result["error"] and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
