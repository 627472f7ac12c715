"""In-memory span tracer that instruments steppref from the benchmark's side.

`instrument` replaces each traced function in the namespace its callers look
it up in (a module attribute, or the `cli._STAGES` table) with a wrapper that
records one span per call: name, start, end, parent span and thread, plus
counts taken from the call's arguments and result. Nothing under
`src/steppref` changes. Functions a module imported by name are wrapped in
the importing module, e.g. `pipeline.extract_answer` and the `corpus`
functions `cli` imported.

Spans stay in memory until the run ends. Wrappers are thread-safe: the parent
of a span comes from a per-thread stack, and a span opened on a worker thread
with an empty stack takes as parent the innermost open fan-out span
(`genclient.sample_batch`, which runs `genclient.sample` on a thread pool).

A span's self time is its duration minus the union of its children's. Spans
that overlap on worker threads each count in full, so a layer's summed self
time can exceed its share of the wall clock.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import statistics
import threading
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "corpus", "synthworld", "genclient", "extraction", "pipeline",
          "kernels", "preflearn", "evalmetrics")

EXPLORATION_SPANS = ("pipeline.build_granular_pairs", "pipeline.sweep_exploration_size",
                     "pipeline.explore_first_pit")

# (name, unit, better) of every per-layer metric, in report order. Each one is
# reported on every workload; a layer a workload does not reach reads 0.
PER_LAYER = [
    ("kernels.seq_logprob_calls", "count", "lower"),
    ("kernels.seq_logprob_s", "s", "lower"),
    ("kernels.add_seq_grad_calls", "count", "lower"),
    ("kernels.add_seq_grad_s", "s", "lower"),
    ("kernels.rows_softmaxed", "count", "lower"),
    ("kernels.bytes_moved", "B", "lower"),
    ("kernels.levenshtein_calls", "count", "lower"),
    ("kernels.levenshtein_s", "s", "lower"),
    ("preflearn.objective_loss_s", "s", "lower"),
    ("preflearn.reward_accuracy_s", "s", "lower"),
    ("preflearn.update_s", "s", "lower"),
    ("preflearn.fit_mle_s", "s", "lower"),
    ("preflearn.tokenize_s", "s", "lower"),
    ("preflearn.train_s", "s", "lower"),
    ("preflearn.epoch_ms_p50", "ms", "lower"),
    ("preflearn.epoch_ms_p90", "ms", "lower"),
    ("preflearn.solve_rate_outcome", "ratio", "higher"),
    ("preflearn.solve_rate_granular", "ratio", "higher"),
    ("genclient.sample_calls", "count", "lower"),
    ("genclient.completions", "count", "lower"),
    ("genclient.http_requests", "count", "lower"),
    ("genclient.http_peak_in_flight", "count", "higher"),
    ("genclient.http_server_busy_s", "s", "lower"),
    ("genclient.http_overhead_ms_p50", "ms", "lower"),
    ("genclient.http_overhead_ms_p90", "ms", "lower"),
    ("genclient.http_retries", "count", "lower"),
    ("synthworld.complete_from_calls", "count", "lower"),
    ("synthworld.complete_from_s", "s", "lower"),
    ("synthworld.simulate_solution_calls", "count", "lower"),
    ("synthworld.simulate_solution_s", "s", "lower"),
    ("extraction.extract_answer_s", "s", "lower"),
    ("extraction.split_steps_s", "s", "lower"),
    ("extraction.dedup_s", "s", "lower"),
    ("pipeline.build_rft_s", "s", "lower"),
    ("pipeline.build_pairs_s", "s", "lower"),
    ("pipeline.build_granular_pairs_s", "s", "lower"),
    ("pipeline.sweep_exploration_size_s", "s", "lower"),
    ("pipeline.explore_first_pit_s", "s", "lower"),
    ("pipeline.explore_rounds", "count", "lower"),
    ("pipeline.rollouts", "count", "lower"),
    ("pipeline.pit_depth_mean", "steps", "lower"),
    ("pipeline.gpair_yield", "ratio", "higher"),
    ("pipeline.rft_yield", "ratio", "higher"),
    ("pipeline.dedup_ratio", "ratio", "higher"),
    ("cli.synth_s", "s", "lower"),
    ("cli.rft_s", "s", "lower"),
    ("cli.pairs_s", "s", "lower"),
    ("cli.explore_s", "s", "lower"),
    ("cli.gpair_s", "s", "lower"),
    ("cli.sweep_k_s", "s", "lower"),
    ("cli.train_s", "s", "lower"),
    ("cli.metrics_s", "s", "lower"),
    ("corpus.read_s", "s", "lower"),
    ("corpus.write_s", "s", "lower"),
    ("corpus.hash_s", "s", "lower"),
    ("corpus.bytes_written", "B", "lower"),
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    ("trace.spans", "count", "lower"),
    ("trace.top_level_coverage", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
]
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped functions; `restore` undoes every wrap."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._fanout: list[int] = []
        self._main = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def wrap(self, owner, key: str, name: str, measure=None, bind: bool = False,
             fanout: bool = False) -> None:
        """Replace owner.key (or owner[key] for a dict) with a traced wrapper.

        `measure(result, args)` returns the span's counts; `args` is the bound
        argument mapping when `bind` is set, else the positional tuple.
        """
        is_dict = isinstance(owner, dict)
        original = owner[key] if is_dict else getattr(owner, key)
        signature = inspect.signature(original) if bind else None
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != tracer._main and tracer._fanout:
                parent = tracer._fanout[-1]
            else:
                parent = None
            sid = tracer._new_id()
            stack.append(sid)
            if fanout:
                tracer._fanout.append(sid)
            attrs: dict = {}
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as e:
                attrs["error"] = type(e).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if fanout:
                    tracer._fanout.pop()
                span = Span(sid, name, start, end, parent, threading.get_ident(), attrs)
                with tracer._lock:
                    tracer.spans.append(span)
            if measure is not None:
                bound = signature.bind(*args, **kwargs).arguments if bind else args
                attrs.update(measure(result, bound))
            return result

        if is_dict:
            owner[key] = traced
        else:
            setattr(owner, key, traced)
        self._patched.append((owner, key, original))

    def restore(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def write(self, path: str) -> None:
        rows = [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "thread": s.thread, "attrs": s.attrs}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as f:
            json.dump(rows, f)


def request_key(prompt: str, n: int, temperature: float, seed) -> str:
    """Identity of one completions request, shared with the loopback server."""
    text = json.dumps([prompt, n, temperature, seed])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _kernel_rows(result, args) -> dict:
    logits, ctx = args[0], args[1]
    rows = int(ctx.shape[0])
    return {"rows": rows, "bytes": rows * int(logits.shape[1]) * 8}


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every steppref module the workloads reach."""
    from steppref import (cli, evalmetrics, genclient, kernels, pipeline, preflearn,
                          synthworld)

    w = tracer.wrap
    w(cli, "main", "cli.main")
    for stage in list(cli._STAGES):
        w(cli._STAGES, stage, "cli." + stage.replace("-", "_"))
    w(cli, "read_dataset", "corpus.read")
    w(cli, "write_dataset", "corpus.write",
      measure=lambda r, a: {"bytes": os.path.getsize(a["path"])}, bind=True)
    w(cli, "file_sha256", "corpus.hash")

    w(synthworld, "complete_from", "synthworld.complete_from")
    w(synthworld, "simulate_solution", "synthworld.simulate_solution")

    w(genclient, "sample", "genclient.sample", measure=lambda r, a: {"completions": len(r)})
    w(genclient, "sample_batch", "genclient.sample_batch", fanout=True)
    w(genclient, "_post_once", "genclient.http_request", bind=True,
      measure=lambda r, a: {"key": request_key(a["prompt"], a["n"],
                                                a["sampling"].temperature,
                                                a["sampling"].seed)})

    w(pipeline, "extract_answer", "extraction.extract_answer")
    w(pipeline, "split_steps", "extraction.split_steps")
    w(pipeline, "dedup", "extraction.dedup",
      measure=lambda r, a: {"in": len(a[0]), "out": len(r)})

    w(pipeline, "build_rft", "pipeline.build_rft", bind=True,
      measure=lambda r, a: {"sampled": len(a["problems"]) * a["cfg"].n,
                            "correct": len(r.rft)})
    w(pipeline, "build_pairs", "pipeline.build_pairs")
    w(pipeline, "build_granular_pairs", "pipeline.build_granular_pairs", bind=True,
      measure=lambda r, a: {"pairs": len(a["d_pair"]), "records": len(r.records)})
    w(pipeline, "sweep_exploration_size", "pipeline.sweep_exploration_size")
    w(pipeline, "explore_first_pit", "pipeline.explore_first_pit",
      measure=lambda r, a: {"pit": r.pit_index})

    w(kernels, "levenshtein", "kernels.levenshtein")
    w(kernels, "seq_logprob", "kernels.seq_logprob", measure=_kernel_rows)
    w(kernels, "add_seq_grad", "kernels.add_seq_grad", measure=_kernel_rows)

    w(preflearn, "tokenize_pair_records", "preflearn.tokenize_pair_records")
    w(preflearn, "tokenize_text", "preflearn.tokenize_text")
    w(preflearn, "fit_mle", "preflearn.fit_mle")
    w(preflearn, "train", "preflearn.train")
    w(preflearn, "objective_loss", "preflearn.objective_loss")
    w(preflearn, "reward_accuracy", "preflearn.reward_accuracy")
    w(preflearn, "greedy_decode", "preflearn.greedy_decode")

    for fn in ("top1_accuracy", "pass_at_k", "maj_at_k", "answer_stats", "diversity"):
        w(evalmetrics, fn, "evalmetrics." + fn)


def _union(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def nearest_rank(values: list[float], pct: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tracer: Tracer, pass_start: float, pass_end: float,
                  http: dict | None, solve_rates: tuple[float, float] | None) -> dict:
    """Per-layer metrics of one traced pass (without trace.overhead_s)."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        secs[s.name] = secs.get(s.name, 0.0) + s.seconds

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    def self_time(s: Span) -> float:
        kids = [(c.start, c.end) for c in children.get(s.id, ())]
        return s.seconds - _union(kids, s.start, s.end)

    def ancestors(s: Span):
        while s.parent is not None:
            s = by_id[s.parent]
            yield s

    m: dict[str, float] = {}
    for kernel in ("seq_logprob", "add_seq_grad", "levenshtein"):
        m[f"kernels.{kernel}_calls"] = calls.get(f"kernels.{kernel}", 0)
        m[f"kernels.{kernel}_s"] = secs.get(f"kernels.{kernel}", 0.0)
    m["kernels.rows_softmaxed"] = (attr_sum("kernels.seq_logprob", "rows")
                                   + attr_sum("kernels.add_seq_grad", "rows"))
    m["kernels.bytes_moved"] = (attr_sum("kernels.seq_logprob", "bytes")
                                + attr_sum("kernels.add_seq_grad", "bytes"))

    for fn in ("objective_loss", "reward_accuracy", "fit_mle", "train"):
        m[f"preflearn.{fn}_s"] = secs.get(f"preflearn.{fn}", 0.0)
    m["preflearn.tokenize_s"] = (secs.get("preflearn.tokenize_pair_records", 0.0)
                                 + secs.get("preflearn.tokenize_text", 0.0))
    train_spans = [s for s in spans if s.name == "preflearn.train"]
    # train minus the loss and accuracy calls inside it: the dense update.
    m["preflearn.update_s"] = sum(self_time(s) for s in train_spans)
    epochs_ms = []
    for t in train_spans:
        starts = sorted(c.start for c in children.get(t.id, ())
                        if c.name == "preflearn.objective_loss")
        bounds = starts + [t.end]
        epochs_ms += [1000.0 * (b - a) for a, b in zip(bounds, bounds[1:])]
    m["preflearn.epoch_ms_p50"] = nearest_rank(epochs_ms, 50)
    m["preflearn.epoch_ms_p90"] = nearest_rank(epochs_ms, 90)
    outcome, granular = solve_rates if solve_rates is not None else (0.0, 0.0)
    m["preflearn.solve_rate_outcome"] = outcome
    m["preflearn.solve_rate_granular"] = granular

    m["genclient.sample_calls"] = calls.get("genclient.sample", 0)
    m["genclient.completions"] = attr_sum("genclient.sample", "completions")
    requests_ = [s for s in spans if s.name == "genclient.http_request"]
    m["genclient.http_retries"] = sum(1 for s in requests_ if "error" in s.attrs)
    overhead_ms = []
    if http is not None:
        m["genclient.http_requests"] = http["requests"]
        m["genclient.http_peak_in_flight"] = http["peak_in_flight"]
        m["genclient.http_server_busy_s"] = http["busy_s"]
        served: dict[str, list[float]] = {}
        for key, service_s in http["log"]:
            served.setdefault(key, []).append(service_s)
        for s in requests_:
            queue = served.get(s.attrs.get("key"))
            if queue:
                overhead_ms.append(1000.0 * (s.seconds - queue.pop(0)))
    else:
        m["genclient.http_requests"] = 0
        m["genclient.http_peak_in_flight"] = 0
        m["genclient.http_server_busy_s"] = 0.0
    m["genclient.http_overhead_ms_p50"] = nearest_rank(overhead_ms, 50)
    m["genclient.http_overhead_ms_p90"] = nearest_rank(overhead_ms, 90)

    for fn in ("complete_from", "simulate_solution"):
        m[f"synthworld.{fn}_calls"] = calls.get(f"synthworld.{fn}", 0)
        m[f"synthworld.{fn}_s"] = secs.get(f"synthworld.{fn}", 0.0)
    for fn in ("extract_answer", "split_steps", "dedup"):
        m[f"extraction.{fn}_s"] = secs.get(f"extraction.{fn}", 0.0)

    for fn in ("build_rft", "build_pairs", "build_granular_pairs",
               "sweep_exploration_size", "explore_first_pit"):
        m[f"pipeline.{fn}_s"] = secs.get(f"pipeline.{fn}", 0.0)
    rounds = rollouts = 0
    for s in spans:
        if s.name not in ("genclient.sample", "genclient.sample_batch"):
            continue
        chain = list(ancestors(s))
        if not any(a.name in EXPLORATION_SPANS for a in chain):
            continue
        if s.name == "genclient.sample":
            rollouts += s.attrs.get("completions", 0)
        # A round is one sample or sample_batch call issued by exploration
        # itself, not a sample call a batch fans out.
        if not chain or not chain[0].name.startswith("genclient."):
            rounds += 1
    m["pipeline.explore_rounds"] = rounds
    m["pipeline.rollouts"] = rollouts
    pits = [s.attrs["pit"] for s in spans
            if s.name == "pipeline.explore_first_pit" and s.attrs.get("pit") is not None]
    m["pipeline.pit_depth_mean"] = statistics.fmean(pits) if pits else 0.0
    m["pipeline.gpair_yield"] = _ratio(attr_sum("pipeline.build_granular_pairs", "records"),
                                       attr_sum("pipeline.build_granular_pairs", "pairs"))
    m["pipeline.rft_yield"] = _ratio(attr_sum("pipeline.build_rft", "correct"),
                                     attr_sum("pipeline.build_rft", "sampled"))
    m["pipeline.dedup_ratio"] = _ratio(attr_sum("extraction.dedup", "out"),
                                       attr_sum("extraction.dedup", "in"))

    for stage in ("synth", "rft", "pairs", "explore", "gpair", "sweep_k", "train", "metrics"):
        m[f"cli.{stage}_s"] = secs.get(f"cli.{stage}", 0.0)
    for op in ("read", "write", "hash"):
        m[f"corpus.{op}_s"] = secs.get(f"corpus.{op}", 0.0)
    m["corpus.bytes_written"] = attr_sum("corpus.write", "bytes")

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer_self[s.name.split(".", 1)[0]] += self_time(s)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]

    m["trace.spans"] = len(spans)
    top = [(s.start, s.end) for s in spans
           if s.parent is None and s.thread == tracer._main]
    m["trace.top_level_coverage"] = _ratio(_union(top, pass_start, pass_end),
                                           pass_end - pass_start)
    return m
