"""The benchmark's workloads and the checks on their outputs.

chain         The user's recipe: the eight CLI stages run in-process through
              `steppref.cli.main` with the synthetic provider. Sampling and
              grading are CPU-bound, exploration is shallow (max-distance
              pairing at high epsilon puts nearly every pit at step 1), and
              the stages read and write their datasets through `corpus`.
http-explore  Granular exploration and the k-sweep of deep-pit outcome pairs
              over HTTP against the loopback server, then a short DPO run on
              the granular records. The only workload on `genclient`'s HTTP
              path and `max_in_flight`; it is bound by request latency.
train         DPO, IPO and KTO on outcome and granular pairs at alphabet 1024,
              order 1: wide rows and a dense 1025x1024 table make the trainer
              nearly all of the pass, with no sampling. Runnable, but not
              listed in BENCHMARK.json: its rft_samples_per_s, timed in
              set-up, is not yet steady enough across runs.

Each workload builds its inputs from the seed in `setup`, runs one pass in
`run_pass` (the timed part) and checks that pass in `review` (untimed). The
checks use an evaluator of the chain-arithmetic world written here, not the
code under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from steppref import cli, pipeline, preflearn, synthworld
from steppref.genclient import ProviderHandle, SamplingConfig
from steppref.pipeline import ExploreConfig, PairingConfig
from steppref.synthworld import SynthConfig

from loopback import LoopbackServer

# ---------------------------------------------------------------------------
# independent evaluator of the synthetic world

_START_RE = re.compile(r"^Start with (-?\d+)\.")
_OP_RE = re.compile(r"(Add|Subtract|Multiply by) (\d+)\.")
_STEP_RE = re.compile(r"^(-?\d+)([+*-])(\d+)=(-?\d+)\.$")
_ANSWER_RE = re.compile(r"^The answer is (-?\d+)\.$")
_SYMBOL = {"Add": "+", "Subtract": "-", "Multiply by": "*"}


def _apply(symbol: str, value: int, operand: int) -> int:
    if symbol == "+":
        return value + operand
    if symbol == "-":
        return value - operand
    return value * operand


def question_ops(question: str) -> tuple[int, list[tuple[str, int]]]:
    start = int(_START_RE.match(question).group(1))
    return start, [(_SYMBOL[w], int(x)) for w, x in _OP_RE.findall(question)]


def gold_value(question: str) -> int:
    value, ops = question_ops(question)
    for symbol, operand in ops:
        value = _apply(symbol, value, operand)
    return value


def first_error(question: str, steps: list[str]) -> int | None:
    """1-based index of the first step that does not apply the question's
    operation exactly to the previous declared value, or None."""
    value, ops = question_ops(question)
    for i, line in enumerate(steps, start=1):
        m = _STEP_RE.match(line.strip())
        if m is None or i > len(ops):
            return i
        symbol, operand, declared = m.group(2), int(m.group(3)), int(m.group(4))
        if (symbol, operand) != ops[i - 1] or declared != _apply(symbol, value, operand):
            return i
        value = declared
    return None


def reaches_gold(question: str, steps: list[str], conclusion: str | None) -> bool:
    """Whether a full solution is error-free, complete, and declares the gold value."""
    _, ops = question_ops(question)
    m = _ANSWER_RE.match(conclusion or "")
    return (first_error(question, steps) is None and len(steps) == len(ops)
            and m is not None and int(m.group(1)) == gold_value(question))


def check_granular(question: str, input_text: str, chosen_steps: list[str],
                   chosen_conclusion: str | None, pit_index: int) -> list[str]:
    """Failures of one granular record: the pit must be at or before the
    rejected rationale's first error, so the shared prefix is error-free, and
    the chosen side must reach the gold answer from that prefix."""
    prefix = input_text.split("\n")[1:]
    out = []
    if len(prefix) != pit_index - 1 or first_error(question, prefix) is not None:
        out.append(f"pit {pit_index} is past the first error of its rejected rationale")
    if not reaches_gold(question, prefix + list(chosen_steps), chosen_conclusion):
        out.append(f"chosen side of pit {pit_index} does not reach the gold answer")
    return out


# ---------------------------------------------------------------------------
# shared types


@dataclass
class Phase:
    """Time one stage spent and the work it did, in a set-up or a pass."""

    stage: str  # "rft", "explore" or "train"
    seconds: float
    work: int


@dataclass
class Review:
    phases: list[Phase]
    attempted: int
    failures: list[str] = field(default_factory=list)
    solve_rates: tuple[float, float] | None = None


class _Stopwatch:
    """Times every call of owner.attr while installed."""

    def __init__(self, owner, attr: str):
        self.owner, self.attr = owner, attr
        self.original = getattr(owner, attr)
        self.seconds: list[float] = []
        setattr(owner, attr, self._timed)

    def _timed(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return self.original(*args, **kwargs)
        finally:
            self.seconds.append(time.perf_counter() - start)

    def close(self) -> None:
        setattr(self.owner, self.attr, self.original)


def _read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _timed_repeats(phases: list, stage: str, work: int, repeats: int, fn, *args):
    """Run a set-up stage `repeats` times, adding a Phase per run; return the
    last result. Set-up stages run once per set-up and take 0.01-0.3 s, too
    short to time steadily on a shared machine, so they are repeated; the
    runs are deterministic and give identical results."""
    for _ in range(repeats):
        result, seconds = _timed(fn, *args)
        phases.append(Phase(stage, seconds, work))
    return result


def _softplus(z: float) -> float:
    """log(1 + e^z) without overflow."""
    return max(z, 0.0) + math.log1p(math.exp(-abs(z)))


def _finite_history(history) -> bool:
    return all(math.isfinite(loss) for _, loss, _ in history)


def _train_all(ref, sets: dict, objectives, epochs: int, lr: float):
    """Train each objective on each pair set, starting from the reference.

    Returns {(objective, set): (policy, history)}, with the policy kept for
    DPO only, one train Phase per call, and the runs that diverged, which are
    reported rather than raised.
    """
    runs, phases, errors = {}, [], []
    for obj in objectives:
        for name, pairs in sets.items():
            start = time.perf_counter()
            try:
                policy, history = preflearn.train(ref.copy(), ref, pairs, obj,
                                                  epochs=epochs, lr=lr)
                runs[obj.objective, name] = (policy if obj.objective == "dpo" else None,
                                             history)
            except preflearn.DivergenceError as e:
                errors.append(f"{obj.objective} on {name}: {e}")
            phases.append(Phase("train", time.perf_counter() - start, len(pairs) * epochs))
    return runs, phases, errors


# ---------------------------------------------------------------------------
# chain


class Chain:
    name = "chain"
    SIZES = {
        "full": dict(problems=200, t=6, epsilon=0.3, samples=8, n=32, k=8,
                     explore_epsilon=0.1, ks="4,8,16,32", epochs=10, metrics_k="1,4,8"),
        "tiny": dict(problems=12, t=4, epsilon=0.3, samples=4, n=8, k=4,
                     explore_epsilon=0.1, ks="2,4", epochs=2, metrics_k="1,4"),
    }

    def __init__(self, seed: int, size: str, work_dir: Path, src: Path):
        self.seed, self.cfg = seed, self.SIZES[size]
        self.dir = work_dir / "chain"
        self.first_digest: str | None = None
        self.train_clock = _Stopwatch(preflearn, "train")
        c, p = self.cfg, (lambda name: str(self.dir / name))
        self.base = ["--seed", str(seed), "--out", str(self.dir)]
        inputs = ["--problems-file", p("problems.jsonl"), "--dpair", p("dpair.jsonl")]
        self.stages = [
            ("synth", ["--problems", str(c["problems"]), "--t", str(c["t"]),
                       "--epsilon", str(c["epsilon"]), "--samples", str(c["samples"])]),
            ("rft", ["--problems-file", p("problems.jsonl"), "--n", str(c["n"]),
                     "--epsilon", str(c["epsilon"])]),
            ("pairs", ["--problems-file", p("problems.jsonl"), "--dgen", p("dgen.jsonl"),
                       "--drft", p("drft.jsonl")]),
            ("explore", inputs + ["--k", str(c["k"]), "--epsilon", str(c["explore_epsilon"])]),
            ("gpair", inputs + ["--k", str(c["k"]), "--epsilon", str(c["explore_epsilon"])]),
            ("sweep-k", inputs + ["--ks", c["ks"], "--epsilon", str(c["explore_epsilon"])]),
            ("train", ["--pairs-file", p("dgpair.jsonl"), "--epochs", str(c["epochs"])]),
            ("metrics", ["--problems-file", p("problems.jsonl"), "--dgen", p("samples.jsonl"),
                         "--k", c["metrics_k"]]),
        ]

    def setup(self) -> list[Phase]:
        # The CLI stages generate their own inputs from the seed.
        return []

    def run_pass(self) -> dict:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.train_clock.seconds.clear()
        times, codes = {}, {}
        for stage, argv in self.stages:
            start = time.perf_counter()
            codes[stage] = cli.main(self.base + [stage] + argv)
            times[stage] = time.perf_counter() - start
        return {"times": times, "codes": codes, "train_s": list(self.train_clock.seconds)}

    def review(self, raw: dict) -> Review:
        c, d = self.cfg, self.dir
        failures = [f"stage {s} exited {code}" for s, code in raw["codes"].items() if code]
        if failures:
            return Review([], len(self.stages), failures)
        problems = {r["id"]: r for r in _read_jsonl(d / "problems.jsonl")[1:]}
        for pid, prob in problems.items():
            if prob["gold_answer"] != str(gold_value(prob["question"])):
                failures.append(f"{pid}: gold answer disagrees with the evaluator")
        for rec in _read_jsonl(d / "drft.jsonl")[1:]:
            question = problems[rec["id"]]["question"]
            if not reaches_gold(question, rec["steps"], rec["conclusion"]):
                failures.append(f"{rec['id']}: RFT rationale is not a correct solution")
        for skip in _read_jsonl(d / "rft_skips.jsonl"):
            if skip["reason"].startswith("provider-error"):
                failures.append(f"{skip['id']}: {skip['reason']}")
        dpair = _read_jsonl(d / "dpair.jsonl")[1:]
        exploration_failures = 0
        for row in _read_jsonl(d / "pits.jsonl"):
            if "error" in row:
                exploration_failures += 1
                failures.append(f"explore {row['id']}: {row['error']}")
                continue
            pit = row["pit_index"]
            rejected = dpair[row["record_index"]]["rejected"]["steps"]
            e = first_error(problems[row["id"]]["question"], rejected)
            if pit is not None and (e is None or pit > e):
                failures.append(f"explore {row['id']}: pit {pit} after first error {e}")
        for drop in _read_jsonl(d / "gpair_dropped.jsonl"):
            if drop["reason"] not in ("no-pit", "empty-rejected"):
                exploration_failures += 1
                failures.append(f"gpair {drop['id']}: {drop['reason']}")
        # explore, gpair and sweep-k (once, at max(ks)) each bring every
        # record to a pit verdict
        verdicts = 3 * len(dpair) - exploration_failures
        granular_files = ["dgpair.jsonl"] + [f"dgpair_k{k}.jsonl" for k in c["ks"].split(",")]
        for name in granular_files:
            for rec in _read_jsonl(d / name)[1:]:
                question = problems[rec["id"]]["question"]
                for msg in check_granular(question, rec["input"], rec["chosen"]["steps"],
                                          rec["chosen"]["conclusion"], rec["pit_index"]):
                    failures.append(f"{name} {rec['id']}: {msg}")
        history = (d / "train_history.tsv").read_text(encoding="utf-8").splitlines()[1:]
        if not all(math.isfinite(float(line.split("\t")[1])) for line in history):
            failures.append("train: non-finite loss")
        digest = hashlib.sha256()
        for path in sorted(d.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        if self.first_digest is None:
            self.first_digest = digest.hexdigest()
        elif digest.hexdigest() != self.first_digest:
            failures.append("artifacts differ from the first pass with the same seed")
        n_granular = len(_read_jsonl(d / "dgpair.jsonl")) - 1
        t = raw["times"]
        phases = [
            Phase("rft", t["rft"], c["problems"] * c["n"]),
            Phase("explore", t["explore"] + t["gpair"] + t["sweep-k"], verdicts),
            Phase("train", sum(raw["train_s"]), n_granular * c["epochs"]),
        ]
        # stages + sampled prompts + explored records + the seven check kinds
        attempted = len(self.stages) + c["problems"] + 3 * len(dpair) + 7
        return Review(phases, attempted, failures)

    def http_stats(self) -> dict | None:
        return None

    def close(self) -> None:
        self.train_clock.close()
        shutil.rmtree(self.dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# http-explore


class HttpExplore:
    name = "http-explore"
    # Outcome pairs are picked by the first-error step of their rejected
    # rationale, to a fixed count per step, so every seed explores the same
    # number of records to the same total depth (the pits range from 1 to 8,
    # mean 2.7, like the unfiltered population) and pass times compare across
    # seeds.
    SIZES = {
        "full": dict(t=10, epsilon=0.05, n=8, block=100, rft_repeats=2,
                     quota={1: 14, 2: 8, 3: 7, 4: 3, 5: 3, 6: 2, 7: 1, 8: 1},
                     k=8, ks=[4, 8, 16], delay_ms=10.0, alphabet=32, order=2, epochs=10),
        "tiny": dict(t=6, epsilon=0.05, n=8, block=40, rft_repeats=1,
                     quota={1: 2, 2: 1, 3: 1},
                     k=4, ks=[2, 4], delay_ms=2.0, alphabet=32, order=2, epochs=2),
    }
    # The CLI's trainer defaults, with tau set for IPO.
    OBJECTIVES = (
        preflearn.ObjectiveConfig("dpo", beta=0.1),
        preflearn.ObjectiveConfig("ipo", tau=0.5),
        preflearn.ObjectiveConfig("kto", beta=0.1),
    )

    def __init__(self, seed: int, size: str, work_dir: Path, src: Path):
        self.seed, self.cfg, self.src = seed, self.SIZES[size], src
        self.synth = SynthConfig(t=1, epsilon=self.cfg["epsilon"], seed=seed)
        self.server: LoopbackServer | None = None
        self.reference = None

    def setup(self) -> list[Phase]:
        c = self.cfg
        gen_cfg = SynthConfig(t=c["t"], epsilon=c["epsilon"], seed=self.seed)
        sampler = ProviderHandle.synthetic(gen_cfg)
        sampling = SamplingConfig(n=c["n"], temperature=0.7, seed=self.seed)
        quota = dict(c["quota"])
        problems, pairs, phases = [], [], []
        while any(quota.values()):
            if len(problems) >= 20 * c["block"]:
                raise RuntimeError(f"could not fill the depth quota {c['quota']}")
            block = [synthworld.gen_problem(gen_cfg, i)
                     for i in range(len(problems), len(problems) + c["block"])]
            build = _timed_repeats(phases, "rft", len(block) * c["n"], c["rft_repeats"],
                                   pipeline.build_rft, block, sampler, sampling)
            problems += block
            for rec in pipeline.build_pairs(block, build.rft, build.gen, PairingConfig()):
                depth = first_error(rec.input, list(rec.rejected.steps))
                if quota.get(depth, 0) > 0:
                    quota[depth] -= 1
                    pairs.append(rec)
        self.problems, self.pairs = problems, pairs
        if self.server is not None:
            self.server.close()
        self.server = LoopbackServer(self.src, c["epsilon"], self.seed, c["delay_ms"])
        self.provider = ProviderHandle.http(self.server.url,
                                            max_in_flight=len(os.sched_getaffinity(0)))
        return phases

    def _explore(self, provider: ProviderHandle):
        c = self.cfg
        gran, gran_s = _timed(pipeline.build_granular_pairs, self.problems, self.pairs,
                              provider, ExploreConfig(k=c["k"], temperature=0.7,
                                                      seed=self.seed))
        sweep, sweep_s = _timed(pipeline.sweep_exploration_size, self.problems, self.pairs,
                                provider, c["ks"],
                                ExploreConfig(k=max(c["ks"]), temperature=0.7,
                                              nested_sampling=True, seed=self.seed))
        return gran, sweep, gran_s + sweep_s

    def run_pass(self) -> dict:
        c = self.cfg
        self.server.reset()
        gran, sweep, explore_s = self._explore(self.provider)
        pairs, _ = preflearn.tokenize_pair_records(gran.records, c["alphabet"])
        ref = preflearn.fit_mle([(p.x, p.y_plus) for p in pairs], c["alphabet"], c["order"])
        runs, train_phases, errors = _train_all(ref, {"granular": pairs}, self.OBJECTIVES,
                                                c["epochs"], lr=0.5)
        return {"gran": gran, "sweep": sweep, "explore_s": explore_s, "runs": runs,
                "train_phases": train_phases, "errors": errors}

    def review(self, raw: dict) -> Review:
        c = self.cfg
        if self.reference is None:
            # What the synthetic provider gives for the same seed; HTTP must match.
            self.reference = self._explore(ProviderHandle.synthetic(self.synth))[:2]
        ref_gran, ref_sweep = self.reference
        gran, sweep = raw["gran"], raw["sweep"]
        failures = [f"gpair {d.problem_id}: {d.reason}" for d in gran.failures]
        for entry in sweep:
            failures += [f"sweep k={entry.k} {d.problem_id}: {d.reason}"
                         for d in entry.build.failures]
        if gran != ref_gran:
            failures.append("granular records differ from the synthetic provider's")
        if sweep != ref_sweep:
            failures.append("sweep entries differ from the synthetic provider's")
        by_id = {p.id: p for p in self.problems}
        for rec in gran.records + [r for e in sweep for r in e.build.records]:
            question = by_id[rec.problem_id].question
            failures += [f"{rec.problem_id}: {msg}" for msg in check_granular(
                question, rec.input, list(rec.chosen.steps), rec.chosen.conclusion,
                rec.pit_index)]
        stats = self.server.stats()
        if stats["non_200"]:
            failures.append(f"{stats['non_200']} non-200 responses")
        failures += raw["errors"]
        failures += [f"{obj} on {name}: non-finite loss"
                     for (obj, name), (_, history) in raw["runs"].items()
                     if not _finite_history(history)]
        verdicts = 2 * len(self.pairs) - len(gran.failures) - len(sweep[0].build.failures)
        phases = [Phase("explore", raw["explore_s"], verdicts)] + raw["train_phases"]
        # explored records + requests + training runs + the six check kinds
        attempted = 2 * len(self.pairs) + stats["requests"] + len(self.OBJECTIVES) + 6
        return Review(phases, attempted, failures)

    def http_stats(self) -> dict | None:
        return self.server.stats()

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


# ---------------------------------------------------------------------------
# train


class Train:
    name = "train"
    # Outcome pairs are cut to a fixed count so that the trainer does the
    # same amount of work for every seed.
    SIZES = {
        "full": dict(t=5, value_range=(2, 5), epsilon=0.3, n=12, rft_repeats=2,
                     explore_epsilon=0.05, k=4, explore_repeats=8, pairs=64, block=64,
                     alphabet=1024, order=1, epochs=6, lr=0.4),
        "tiny": dict(t=4, value_range=(2, 5), epsilon=0.3, n=8, rft_repeats=1,
                     explore_epsilon=0.05, k=4, explore_repeats=1, pairs=6, block=8,
                     alphabet=64, order=1, epochs=1, lr=0.4),
    }
    OBJECTIVES = (
        preflearn.ObjectiveConfig("dpo", beta=0.5),
        preflearn.ObjectiveConfig("ipo", tau=0.5),
        preflearn.ObjectiveConfig("kto", beta=0.5),
    )

    def __init__(self, seed: int, size: str, work_dir: Path, src: Path):
        self.seed, self.cfg = seed, self.SIZES[size]
        self.first_solve = None

    def setup(self) -> list[Phase]:
        c, seed = self.cfg, self.seed
        gen_cfg = SynthConfig(t=c["t"], epsilon=c["epsilon"], value_range=c["value_range"],
                              seed=seed)
        sampler = ProviderHandle.synthetic(gen_cfg)
        sampling = SamplingConfig(n=c["n"], temperature=0.7, seed=seed)
        problems, gen, pairs, phases = [], [], [], []
        while len(pairs) < c["pairs"]:
            block = [synthworld.gen_problem(gen_cfg, i)
                     for i in range(len(problems), len(problems) + c["block"])]
            build = _timed_repeats(phases, "rft", len(block) * c["n"], c["rft_repeats"],
                                   pipeline.build_rft, block, sampler, sampling)
            problems += block
            gen += build.gen
            pairs += pipeline.build_pairs(block, build.rft, build.gen, PairingConfig())
        pairs = pairs[: c["pairs"]]
        explorer = ProviderHandle.synthetic(
            SynthConfig(t=c["t"], epsilon=c["explore_epsilon"],
                        value_range=c["value_range"], seed=seed))
        granular = _timed_repeats(phases, "explore", len(pairs), c["explore_repeats"],
                                  pipeline.build_granular_pairs, problems, pairs, explorer,
                                  ExploreConfig(k=c["k"], temperature=0.7, seed=seed))
        if granular.failures:
            raise RuntimeError(f"exploration failed: {granular.failures[0]}")
        zero = SynthConfig(t=c["t"], epsilon=0.0, value_range=c["value_range"], seed=seed)
        self.golds = {p.id: synthworld.simulate_solution(p, zero, 0).rationale
                      for p in problems}
        self.problems, self.gen = problems, gen
        self.outcome, self.granular = pairs, granular.records
        return phases

    def _solve_rate(self, policy, alphabet: int) -> float:
        """Acceptance-8 protocol: greedy-decode the gold chain after its first step."""
        solved = 0
        for p in self.problems:
            gold = self.golds[p.id]
            x = tuple(preflearn.tokenize_text(p.question + "\n" + gold.steps[0], alphabet))
            want = tuple(preflearn.tokenize_text(" ".join(gold.steps[1:]), alphabet))
            solved += preflearn.greedy_decode(policy, x, max_len=len(want)) == want
        return solved / len(self.problems)

    def run_pass(self) -> dict:
        c = self.cfg
        alphabet = c["alphabet"]
        sets = {"outcome": preflearn.tokenize_pair_records(self.outcome, alphabet)[0],
                "granular": preflearn.tokenize_pair_records(self.granular, alphabet)[0]}
        by_id = {p.id: p for p in self.problems}
        examples = [
            (tuple(preflearn.tokenize_text(by_id[rec.problem_id].question, alphabet)),
             tuple(preflearn.tokenize_text(rec.rationale.text(), alphabet)) + (alphabet - 1,))
            for rec in self.gen
        ]
        ref = preflearn.fit_mle(examples, alphabet, c["order"], smoothing=0.5)
        runs, phases, errors = _train_all(ref, sets, self.OBJECTIVES, c["epochs"], c["lr"])
        solve = tuple(self._solve_rate(runs["dpo", name][0], alphabet) for name in sets
                      if ("dpo", name) in runs)
        return {"sets": sets, "ref": ref, "runs": runs, "phases": phases, "solve": solve,
                "errors": errors}

    def review(self, raw: dict) -> Review:
        phases = raw["phases"]
        # six training runs + the four check kinds
        attempted = 6 + 4
        if raw["errors"]:
            return Review(phases, attempted, raw["errors"])
        failures = [f"{obj} on {name}: non-finite loss"
                    for (obj, name), (_, history) in raw["runs"].items()
                    if not _finite_history(history)]
        ref, beta = raw["ref"], self.OBJECTIVES[0].beta
        for name, pairs in raw["sets"].items():
            # DPO losses from an independent per-pair loop: at the start, where
            # the policy is the reference, and at the trained policy.
            trained, history = raw["runs"]["dpo", name]
            checks = [("first-epoch", ref.copy(), history[0][1]),
                      ("trained", trained,
                       preflearn.dpo_loss(trained, ref, pairs, beta)[0])]
            for label, policy, got in checks:
                total = 0.0
                for p in pairs:
                    delta = (preflearn.seq_logprob(policy, p.x, p.y_plus)
                             - preflearn.seq_logprob(ref, p.x, p.y_plus)
                             - preflearn.seq_logprob(policy, p.x, p.y_minus)
                             + preflearn.seq_logprob(ref, p.x, p.y_minus))
                    total += _softplus(-beta * delta)
                if abs(got - total / len(pairs)) > 1e-9:
                    failures.append(f"dpo on {name}: {label} loss {got!r} != "
                                    f"{total / len(pairs)!r}")
        if self.first_solve is None:
            self.first_solve = raw["solve"]
        elif raw["solve"] != self.first_solve:
            failures.append("solve rates differ from the first pass with the same seed")
        return Review(phases, attempted, failures, solve_rates=raw["solve"])

    def http_stats(self) -> dict | None:
        return None

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (Chain, HttpExplore, Train)}
