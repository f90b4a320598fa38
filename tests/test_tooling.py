"""The benchmark's tracer patches eddykit names from outside the package.

A name it patches that the package no longer defines would break every
traced benchmark run, so this pins each one: it exists, it is replaced
while the tracer is installed, and it is restored afterwards. A traced
sweep must also give the untraced values and exact counters.
"""

import importlib
import math
import threading
from pathlib import Path

import pytest

from eddykit import SimConfig, dynamics, harness, steady_shear

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
    assert math.fsum(tracer.self_s.values()) == pytest.approx(root[4] - root[3], rel=1e-9)
    # box draws one normal per bin coordinate: 2 floor(n / J) per estimate
    draws = m * sum(2 * (config.n_stored // k) for k in multiples)
    assert tracer.counts["estimators.noise_draws"] == draws
