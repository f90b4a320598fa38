"""Tooling around the package: its import footprint and the benchmark's tracer.

Importing eddykit must load no scipy subpackage, since each one adds
its import time to every CLI call. scipy loads on first use: the OU shear
loads the one extension scipy.linalg.cython_lapack (LAPACK's dtbtrs, in
the calling thread, before any row share starts) and no subpackage, and
the spectral cell solver loads scipy.sparse; the steady shear and
Taylor-Green sweeps load none. Whichever of the OU shear and scipy.linalg
loads that extension first, the other reuses the same module.

The benchmark's tracer patches eddykit names from outside the package.
A name it patches that the package no longer defines would break every
traced benchmark run, so this pins each one: it exists, it is replaced
while the tracer is installed, and it is restored afterwards. A traced
sweep must also give the untraced values and exact counters.

The INI keys of each section are the fields of the dataclass that section
builds, so a field added there cannot miss its key.
"""

import dataclasses
import importlib
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from eddykit import FlowSpec, RunPlan, SimConfig, dynamics, harness, steady_shear, taylor_green

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src"


SUBPACKAGES = ("import sys\n"
               "def subpackages():\n"
               "    return sorted(n for n, m in sys.modules.items() if n.count('.') == 1\n"
               "                  and n.startswith('scipy.') and not n.startswith('scipy._')\n"
               "                  and hasattr(m, '__path__'))\n")


def _fresh_python(code: str, *args: str) -> list[str]:
    """Output lines of ``code`` run in a new interpreter that imports eddykit from src."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SUBPACKAGES + code, *args],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True, timeout=120)
    return done.stdout.splitlines()


def test_import_loads_only_the_scipy_subpackages_it_uses():
    # scipy.signal alone once cost over a second of every start-up, and
    # scipy.linalg with scipy.sparse later took over half of a 0.46 s import
    assert _fresh_python("import eddykit, eddykit.cli\nprint(subpackages())") == ["[]"]


def test_scipy_loads_only_with_the_calls_that_need_it(tmp_path):
    # each step adds to the modules of the steps before it, so those that
    # need no scipy run first; every scipy import is recorded with its thread
    (tmp_path / "run.ini").write_text(
        "[flow]\nkind = shear\n\n[simulation]\nkappa = 0.5\ndt = 0.01\nt_final = 2.0\n"
        "seed = 3\n\n[estimation]\ndelta = 0.1 0.2\n\n[sweep]\nrealizations = 4\n")
    code = """
import threading
import numpy as np
from eddykit import SimConfig, cli, dynamics, harness, ou_shear, spectral_diffusivity, taylor_green

importers = set()

class Recorder:
    def find_spec(self, name, path=None, target=None):
        if name.startswith("scipy"):
            importers.add(threading.current_thread().name)
        return None

sys.meta_path.insert(0, Recorder())
ini, csv = sys.argv[1:]
assert cli.main(["sweep", "--config", ini, "--output", csv]) == 0
print("shear sweep", subpackages())
harness.delta_sweep(taylor_green(), SimConfig(kappa=0.5, dt=0.01, t_final=1.0, seed=2),
                    "qv", [0.1], n_realizations=4, direction="x")
print("taylor-green sweep", subpackages())
flow, config = ou_shear(1.0, 0.1), SimConfig(kappa=0.1, dt=0.01, t_final=2.0, seed=5)
dynamics._cpu_count = lambda: 2
shares = dynamics.simulate_ensemble(flow, config, 6)
print("ou shear", subpackages())
print("ou shear linalg", sorted(n for n in sys.modules if n.startswith("scipy.linalg")))
dynamics._cpu_count = lambda: 1
print("one share equal", np.array_equal(shares, dynamics.simulate_ensemble(flow, config, 6)))
spectral_diffusivity(taylor_green(), 0.5)
print("spectral", "scipy.sparse" in subpackages())
print("importers", sorted(importers))
"""
    assert _fresh_python(code, str(tmp_path / "run.ini"), str(tmp_path / "rows.csv")) == [
        "wrote 2 rows to " + str(tmp_path / "rows.csv"),
        "shear sweep []",
        "taylor-green sweep []",
        "ou shear []",
        "ou shear linalg ['scipy.linalg.cython_lapack']",
        "one share equal True",
        "spectral True",
        "importers ['MainThread']",
    ]


OU_BLOCK = """
import numpy as np
from eddykit import SimConfig, dynamics, ou_shear, spectral_diffusivity, taylor_green

def ou_block():
    return dynamics.simulate_ensemble(
        ou_shear(1.0, 0.1), SimConfig(kappa=0.1, dt=0.01, t_final=2.0, seed=5), 4)
"""


def test_dtbtrs_loads_the_extension_alone_and_scipy_linalg_reuses_it():
    code = OU_BLOCK + """
import scipy
before = set(sys.modules)
dynamics._dtbtrs()
print("added", sorted(set(sys.modules) - before))
loaded = sys.modules["scipy.linalg.cython_lapack"]
first = ou_block()
import scipy.linalg, scipy.sparse.linalg
from scipy.linalg import cython_lapack
print("same module", cython_lapack is loaded)
print("same block", np.array_equal(first, ou_block()))
print("spectral", spectral_diffusivity(taylor_green(), 0.5)[1].converged)
"""
    assert _fresh_python(code) == [
        "added ['scipy.linalg.cython_lapack']",
        "same module True",
        "same block True",
        "spectral True",
    ]


def test_dtbtrs_reuses_the_extension_scipy_linalg_loaded():
    code = OU_BLOCK + """
import scipy.linalg
from scipy.linalg import cython_lapack
before = set(sys.modules)
dynamics._dtbtrs()
print("added", sorted(set(sys.modules) - before))
print("same module", sys.modules["scipy.linalg.cython_lapack"] is cython_lapack)
print("ou block", ou_block().shape)
"""
    assert _fresh_python(code) == ["added []", "same module True", "ou block (4, 201, 2)"]


def test_dtbtrs_names_the_missing_extension(tmp_path):
    # a scipy build without linalg/cython_lapack: the OU shear cannot run
    code = OU_BLOCK + """
import scipy
scipy.__path__[:] = [sys.argv[1]]
try:
    ou_block()
except ImportError as exc:
    print(exc.name)
    print(exc)
"""
    assert _fresh_python(code, str(tmp_path)) == [
        "scipy.linalg.cython_lapack",
        "the OU shear needs LAPACK's dtbtrs from scipy.linalg.cython_lapack, "
        "which this scipy does not provide",
    ]


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
    args = (steady_shear(), config, "box", [k * config.dt for k in multiples], 0.05, m, "x")
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
    args = (taylor_green(), config, "qv", [0.1, 0.5, 1.0], 0.0, m, "x")
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


def test_ini_keys_are_the_fields_of_their_owners():
    sections = harness._SECTIONS
    assert list(sections) == ["flow", "simulation", "estimation", "sweep"]
    assert sections["flow"] == tuple(f.name for f in dataclasses.fields(FlowSpec))
    assert sections["simulation"] == tuple(f.name for f in dataclasses.fields(SimConfig))
    # delta fills deltas, and batch_size is checked and dropped
    keys = {"deltas" if key == "delta" else key
            for key in sections["estimation"] + sections["sweep"]}
    plan = {f.name for f in dataclasses.fields(RunPlan)} - {"flow", "sim"}
    assert keys == plan | {"batch_size"}
