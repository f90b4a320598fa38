"""Tooling around the package: its import footprint and the benchmark's tracer.

Importing eddykit must load no scipy subpackage beyond the two it uses,
since each heavy one adds its import time to every CLI call.

The benchmark's tracer patches eddykit names from outside the package.
A name it patches that the package no longer defines would break every
traced benchmark run, so this pins each one: it exists, it is replaced
while the tracer is installed, and it is restored afterwards. A traced
sweep must also give the untraced values and exact counters.
"""

import importlib
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from eddykit import SimConfig, dynamics, harness, steady_shear, taylor_green

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_only_the_scipy_subpackages_it_uses():
    # scipy.signal alone once cost over a second of every start-up
    code = ("import sys, eddykit, eddykit.cli\n"
            "print(*sorted(n for n, m in sys.modules.items() if n.count('.') == 1\n"
            "              and n.startswith('scipy.') and not n.startswith('scipy._')\n"
            "              and hasattr(m, '__path__')))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.split() == ["scipy.linalg", "scipy.sparse"]


def test_tracer_patches_existing_names_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()  # getattr raises AttributeError on a missing name
        patched = list(tracer._patched)
        for module, attr, original in patched:
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    finally:
        tracer.uninstall()
    assert patched
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


def test_traced_share_sweep_is_exact(monkeypatch):
    # the reduction runs in share threads, where no traced name may be
    # called: the tracer's span stack is single-threaded
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    monkeypatch.setattr(dynamics, "_cpu_count", lambda: 2)
    config = SimConfig(kappa=0.1, dt=0.01, t_final=5.0, seed=3)
    multiples, m = (1, 10, 30), 6
    args = (steady_shear(), config, "box", [k * config.dt for k in multiples], 0.05, m, "x", 4)
    plain = harness.delta_sweep(*args)
    tracer = tracing.Tracer()
    enter, threads = tracer.enter, set()

    def recording_enter(*frame):
        threads.add(threading.get_ident())
        return enter(*frame)

    monkeypatch.setattr(tracer, "enter", recording_enter)
    tracer.install()
    try:
        traced = harness.delta_sweep(*args)
    finally:
        tracer.uninstall()
    assert threads == {threading.get_ident()}
    assert traced.rows == plain.rows
    assert tracer._stack == []
    (root,) = [span for span in tracer.spans if span[5] is None]
    assert root[1] == "harness.delta_sweep"
    assert math.fsum(tracer.self_s.values()) == pytest.approx(root[4] - root[3], rel=1e-9, abs=0.0)
    # box draws one normal per bin coordinate: 2 floor(n / J) per estimate
    draws = m * sum(2 * (config.n_stored // k) for k in multiples)
    assert tracer.counts["estimators.noise_draws"] == draws


def test_traced_cellular_sweep_is_exact(monkeypatch):
    # the cellular step loop under the tracer: its streams are made in the
    # calling thread, and every path-step draws one normal per coordinate
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    config = SimConfig(kappa=0.05, dt=0.01, t_final=5.0, seed=4, store_stride=10)
    m = 6
    args = (taylor_green(), config, "qv", [0.1, 0.5, 1.0], 0.0, m, "x", 4)
    plain = harness.delta_sweep(*args)
    tracer = tracing.Tracer()
    enter, threads = tracer.enter, set()

    def recording_enter(*frame):
        threads.add(threading.get_ident())
        return enter(*frame)

    monkeypatch.setattr(tracer, "enter", recording_enter)
    tracer.install()
    try:
        traced = harness.delta_sweep(*args)
    finally:
        tracer.uninstall()
    assert traced.rows == plain.rows
    assert threads == {threading.get_ident()}
    assert tracer._stack == []
    assert tracer.counts["dynamics.draws"] == 2 * m * config.n_steps
