"""The benchmark's tracer patches eddykit names from outside the package.

A name it patches that the package no longer defines would break every
traced benchmark run, so this pins each one: it exists, it is replaced
while the tracer is installed, and it is restored afterwards.
"""

import importlib
from pathlib import Path

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
