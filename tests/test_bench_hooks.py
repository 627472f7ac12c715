"""The benchmark's tracer wraps package functions by name (bench/tracing.py).

A rename in `src/steppref` that drops one of those names breaks the
benchmark; this test makes it fail tier-1 on every Python as well.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the body runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def current(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def test_instrument_wraps_and_restore_undoes_every_hook(monkeypatch):
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    patched = list(tracer._patched)
    try:
        assert patched
        for owner, key, original in patched:
            assert current(owner, key) is not original, key
            assert current(owner, key).__wrapped__ is original, key
    finally:
        tracer.restore()
    for owner, key, original in patched:
        assert current(owner, key) is original, key
