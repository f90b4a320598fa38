"""Self-test of the benchmark at tiny problem sizes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It shows that every oracle check passes on the true reference and fails on
a perturbed one, that the traced self times of all layers add up to the
traced wall time, that tracing and repetition leave results and counts
bitwise unchanged, that run.py prints the contracted result line for both
modes, and that run.py fails without a result outside a checkout. Exits 0
when every check holds; about 20 s on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import timed_pass  # noqa: E402

WORKDIR = os.path.join(ROOT, ".perfbench", "selftest")
SEED = 7

# layers that must show time in a traced pass of each workload
ACTIVE = {
    "ou_shear_sweep": {"harness", "dynamics", "estimators"},
    "noisy_box_cli": {"cli", "harness", "dynamics", "estimators"},
    "tg_em_sweep": {"harness", "dynamics", "estimators"},
    "cell_spectral_scan": {"homogenization"},
}


def one_pass(wl, p, tracer=None):
    wl.prepare(p)
    result, wall = timed_pass(wl, p, tracer)
    return wl.collect(result), wall


def stderrs(name, out):
    """Standard error of each oracle-checked row, in check order."""
    if name == "noisy_box_cli":
        import csv
        import io
        return [float(r["stderr"]) for r in csv.DictReader(io.StringIO(out[1]))]
    return [r.stderr for r in out.rows]


def perturbed_references(name, wl, out, refs):
    """Reference sets moved past the margin: each must fail its checks."""
    shift = 2.0 * W.Z_MAX
    if name in ("ou_shear_sweep", "noisy_box_cli"):
        se = stderrs(name, out)
        return [{d: refs[d] + shift * s for d, s in zip(wl.deltas, se)}]
    if name == "tg_em_sweep":
        return [{"k11": refs["k11"] + shift * stderrs(name, out)[-1]}]
    return [dict(refs, exponent=refs["exponent"] + 2.0 * refs["exponent_tol"]),
            dict(refs, residual_max=min(r for _, _, r in out) / 2.0),
            dict(refs, cap=min(m for _, m, _ in out))]


def oracle_checked(name, wl, op):
    if name == "tg_em_sweep":
        return op.name == f"delta={max(wl.deltas):g}"
    return True


def check_workload(name) -> None:
    wl = W.WORKLOADS[name](SEED, True, WORKDIR)
    out, _ = one_pass(wl, 0)
    refs = wl.references()
    ops = wl.check(out, refs)
    assert len(ops) == wl.ops_per_pass, (name, ops)
    assert all(op.ok for op in ops), (name, [op for op in ops if not op.ok])
    for bad in perturbed_references(name, wl, out, refs):
        missed = [op for op in wl.check(out, bad) if oracle_checked(name, wl, op)]
        if name == "cell_spectral_scan" and bad["exponent"] != refs["exponent"]:
            missed = [op for op in missed if op.name.startswith("taylor_green")]
        assert missed and not any(op.ok for op in missed), (name, bad, missed)

    # repetition and tracing leave the output and the counts bitwise unchanged
    again, _ = one_pass(wl, 0)
    assert wl.digest(again) == wl.digest(out), name
    counts, layer_sums = [], []
    for _ in range(2):
        tracer = Tracer()
        traced, wall = one_pass(wl, 0, tracer)
        assert wl.digest(traced) == wl.digest(out), name
        counts.append(dict(tracer.counts))
        total = sum(tracer.self_s.values())
        assert abs(total - wall) <= 1e-9 * max(1.0, wall), (name, total, wall)
        assert min(tracer.self_s.values()) >= -1e-12, (name, tracer.self_s)
        busy = {layer for layer, s in tracer.self_s.items() if s > 0.0 and layer != "bench"}
        assert busy == ACTIVE[name], (name, busy)
        layer_sums.append((total, wall))
    assert counts[0] == counts[1], (name, counts)
    if wl.path_steps:
        assert counts[0]["dynamics.path_steps"] == wl.path_steps, (name, counts[0])
        other, _ = one_pass(wl, 1)
        assert wl.digest(other) != wl.digest(out), name
    print(f"ok {name}: {len(ops)} checks pass, perturbed references fail, "
          f"self times sum to wall ({layer_sums[0][0]:.6f} s vs {layer_sums[0][1]:.6f} s), "
          f"repeats and traced passes bitwise equal")


def run_cli(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.splitlines()


def check_result_lines() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    assert {n for n, _ in run.LAYER_METRICS} == declared[1]
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS) == set(W.WORKLOADS)
    for workload, trace in (("noisy_box_cli", 0), ("noisy_box_cli", 1),
                            ("cell_spectral_scan", 0)):
        code, lines = run_cli(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                               "--trace", str(trace), "--tiny"])
        assert code == 0, (workload, trace, lines[-5:])
        last = json.loads(lines[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}, last
        assert last["correct"] is True and last["failed"] == 0, (workload, lines)
        assert set(last["metrics"]) == declared[trace], (workload, trace, last["metrics"])
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        for name, metric in last["metrics"].items():
            assert set(metric) == {"value", "unit"} and metric["unit"] == units[name], name
            assert np.isfinite(metric["value"]), name
        print(f"ok run.py {workload} --trace {trace}: contracted result line")


def check_outside_checkout() -> None:
    bare = os.path.join(WORKDIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run_cli(["--workload", "ou_shear_sweep", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert code != 0 and not any(line.startswith("{") for line in lines), (code, lines)
    print("ok run.py outside a checkout: exit code", code, "and no result")


def main() -> int:
    os.makedirs(WORKDIR, exist_ok=True)
    for name in W.WORKLOADS:
        check_workload(name)
    check_result_lines()
    check_outside_checkout()
    shutil.rmtree(WORKDIR, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
