"""The benchmark's tracer wraps package functions by name (bench/tracing.py).

A rename in `src/steppref` that drops one of those names breaks the
benchmark; this test makes it fail tier-1 on every Python as well.
"""

from __future__ import annotations

import importlib.util
import sys
from collections import Counter
from pathlib import Path

from steppref import preflearn

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


def test_traced_kernel_calls_count_the_batch_positions(monkeypatch):
    # The tracer reads each kernel call's positions from its arguments
    # (`_kernel_rows`): the logits table first and the position->row array
    # second.
    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        ref = preflearn.ToyPolicy.zeros(5, 2)
        pairs = [preflearn.TokenizedPair((0, 1), (2, 3, 4), (1,)),
                 preflearn.TokenizedPair((3,), (0,), (4, 4))]
        cfg = preflearn.ObjectiveConfig("dpo", beta=0.5)
        preflearn.train(ref.copy(), ref, pairs, cfg, epochs=2, lr=0.5)
        preflearn.objective_loss(ref, ref, pairs, cfg)
    finally:
        tracer.restore()
    spans = [s for s in tracer.spans
             if s.name in ("kernels.seq_logprob", "kernels.add_seq_grad")]
    # train: the reference pass, then two epochs; objective_loss: one of each
    assert Counter(s.name for s in spans) == {"kernels.seq_logprob": 5,
                                              "kernels.add_seq_grad": 3}
    assert [s.attrs for s in spans] == [{"rows": 7, "bytes": 7 * 5 * 8}] * 8
