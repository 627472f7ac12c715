"""The four data-construction stages.

1. build_rft: sample N rationales per problem, grade them against the gold
   answer, dedup, and keep the correct subset.
2. build_pairs: outcome-supervised preference pairs. Each correct rationale
   (in dataset order) grabs the still-unused incorrect rationale at maximal
   token edit distance; every rationale is used at most once, at most
   `max_pairs_per_problem` pairs per problem, and rejected payloads are
   stored without their conclusion line.
3. explore_all: step-level rollouts for all rejected rationales at once.
   Round i draws cfg.k completions from the i-step prefix of every rationale
   still on the frontier, in one `sample_batch`, and counts those that reach
   the gold answer. A rationale leaves at its first zero-success step (the
   pit), after its last step, or on a provider failure (its own
   ExplorationError). read_pit reads the pit at any k up to the explored one.
4. build_granular_pairs / sweep_exploration_size: reassemble pairs at step
   granularity around the pit, with the Table-2-style ablation variants and
   a nested exploration-size sweep that explores once at max(ks). A variant
   is its granularity's suffix: variant "full" builds "granular-full" pairs.
   At pit w the input is the question and the rejected steps before w. The
   rejected side keeps step w ("full", "first-step") or steps w on
   ("reject-all"). The chosen side is found first: at w = 1 the outcome
   pair's chosen rationale, at w > 1 a rescue, an explorer completion from
   that input, graded like any sample. "full" and "reject-all" keep it
   whole; "first-step" then cuts it once, to its first step with no
   conclusion or answer, labeled ungraded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import genclient, kernels
from .corpus import (
    GRAN_OUTCOME,
    GRANULARITIES,
    PairRecord,
    Problem,
    Rationale,
    RationaleRecord,
)
from .extraction import (
    EmptyRationaleError,
    dedup,
    extract_answer,
    split_steps,
)
from .genclient import GenClientError, ProviderHandle, SamplingConfig
from .rng import rng_for

VARIANTS = tuple(g.removeprefix("granular-") for g in GRANULARITIES if g != GRAN_OUTCOME)


class ExplorationError(RuntimeError):
    """Provider failure mid-exploration; carries the tallies gathered so far."""

    def __init__(self, message: str, partial: list[tuple[int, int]]):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class PairingConfig:
    max_pairs_per_problem: int = 8

    def __post_init__(self) -> None:
        if self.max_pairs_per_problem < 1:
            raise ValueError("max_pairs_per_problem must be >= 1")


@dataclass(frozen=True)
class ExploreConfig:
    k: int = 4
    temperature: float = SamplingConfig.temperature
    nested_sampling: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        # the sampling rules on temperature have one home
        SamplingConfig(n=self.k, temperature=self.temperature, seed=self.seed)


@dataclass(frozen=True)
class PitResult:
    pit_index: int | None
    per_step_success: tuple[tuple[int, int], ...]
    rescue: str | None


@dataclass(frozen=True)
class SkipEntry:
    problem_id: str
    reason: str


@dataclass
class RftBuild:
    gen: list[RationaleRecord] = field(default_factory=list)
    rft: list[RationaleRecord] = field(default_factory=list)
    skipped: list[SkipEntry] = field(default_factory=list)


@dataclass(frozen=True)
class DropEntry:
    problem_id: str
    record_index: int
    reason: str


@dataclass
class GranularBuild:
    records: list[PairRecord] = field(default_factory=list)
    dropped: list[DropEntry] = field(default_factory=list)
    failures: list[DropEntry] = field(default_factory=list)


@dataclass
class SweepEntry:
    k: int
    build: GranularBuild
    mean_pit_index: float | None
    pits: list[int | None]


def _tokens(r: Rationale) -> list[str]:
    return " ".join(r.steps).split()


def _graded(problem: Problem, text: str, producer: str) -> Rationale:
    """A completion as steps and a conclusion, labeled correct or incorrect by
    its extracted answer against the gold one. A completion with no step (a
    bare answer declaration is no reasoning) raises EmptyRationaleError."""
    steps, conclusion = split_steps(text, problem.style)
    if not steps:
        raise EmptyRationaleError("completion has no step")
    extracted = extract_answer(text, problem.style)
    label = "correct" if extracted == problem.gold_answer else "incorrect"
    return Rationale(tuple(steps), conclusion, producer, label, extracted)


def build_rft(
    problems: list[Problem],
    provider: ProviderHandle,
    cfg: SamplingConfig,
) -> RftBuild:
    """Sample, parse, grade and dedup rationales for each problem.

    Identical completions are parsed and graded once. Problems whose
    sampling failed, or that yielded no parseable or no correct rationale,
    are listed in the skip report rather than dropped silently.
    """
    out = RftBuild()
    results = genclient.sample_batch(provider, [p.question for p in problems], cfg)
    for problem, result in zip(problems, results):
        if isinstance(result, GenClientError):
            out.skipped.append(SkipEntry(problem.id, f"provider-error: {result}"))
            continue
        rationales = []
        for text in dict.fromkeys(result):
            try:
                rationales.append(_graded(problem, text, "SFT"))
            except EmptyRationaleError:
                continue
        if not rationales:
            out.skipped.append(SkipEntry(problem.id, "no-parseable-samples"))
            continue
        deduped = dedup(rationales)
        out.gen.extend(RationaleRecord(problem.id, r) for r in deduped)
        correct = [r for r in deduped if r.label == "correct"]
        if not correct:
            out.skipped.append(SkipEntry(problem.id, "no-correct-samples"))
        out.rft.extend(RationaleRecord(problem.id, r) for r in correct)
    return out


def build_pairs(
    problems: list[Problem],
    d_rft: list[RationaleRecord],
    d_gen: list[RationaleRecord],
    cfg: PairingConfig,
) -> list[PairRecord]:
    """Greedy max-distance outcome pairing, each rationale used at most once."""
    by_id = {p.id: p for p in problems}
    for rec in d_rft + d_gen:
        if rec.problem_id not in by_id:
            raise ValueError(f"record references unknown problem {rec.problem_id!r}")
    corrects: dict[str, list[Rationale]] = {}
    incorrects: dict[str, list[Rationale]] = {}
    for rec in d_rft:
        corrects.setdefault(rec.problem_id, []).append(rec.rationale)
    for rec in d_gen:
        if rec.rationale.label == "incorrect":
            incorrects.setdefault(rec.problem_id, []).append(rec.rationale)

    pairs: list[PairRecord] = []
    for problem in problems:
        # the still-unused incorrect rationales, in dataset order, so that
        # max() breaks a distance tie toward the earliest
        pool = {j: (r, _tokens(r)) for j, r in enumerate(incorrects.get(problem.id, []))}
        pos = corrects.get(problem.id, [])
        for chosen in pos[: min(cfg.max_pairs_per_problem, len(pool))]:
            chosen_tokens = _tokens(chosen)
            far = max(pool, key=lambda j: kernels.levenshtein(chosen_tokens, pool[j][1]))
            rejected, _ = pool.pop(far)
            pairs.append(
                PairRecord(
                    problem_id=problem.id,
                    input=problem.question,
                    chosen=chosen,
                    rejected=replace(rejected, conclusion=None),
                    granularity=GRAN_OUTCOME,
                    pit_index=None,
                )
            )
    return pairs


# Per explored step, the k (completion, reached-gold) rollouts; rows stop
# after the first step whose rollouts all fail.
Rollouts = list[list[tuple[str, bool]]]


def explore_all(
    problems: list[Problem],
    d_pair: list[PairRecord],
    explorer: ProviderHandle,
    cfg: ExploreConfig,
) -> list[Rollouts | ExplorationError]:
    """Roll out cfg.k completions from every step prefix of every rejected side.

    Positionally aligned with `d_pair`: each record's rollout table, or its
    ExplorationError (with the tallies gathered before the failing step).
    Every record is validated before any request is sent.
    """
    by_id = {p.id: p for p in problems}
    for record in d_pair:
        if record.granularity != GRAN_OUTCOME:
            raise ValueError("exploration expects outcome-granularity pairs")
        if record.problem_id not in by_id:
            raise ValueError(f"record references unknown problem {record.problem_id!r}")
    jobs = [(by_id[r.problem_id], r.rejected) for r in d_pair]
    return _explore_frontier(jobs, explorer, cfg)


def _prefix_prompt(problem: Problem, steps: tuple[str, ...]) -> str:
    """The prompt that continues a rationale after `steps`: the question,
    then one step a line."""
    return "\n".join((problem.question, *steps))


def _explore_frontier(
    jobs: list[tuple[Problem, Rationale]],
    explorer: ProviderHandle,
    cfg: ExploreConfig,
) -> list[Rollouts | ExplorationError]:
    """Level-synchronous exploration: round i sends the i-step prefixes of all
    unresolved rationales in one batch. A rationale leaves the frontier at its
    first zero-success step, after its last step, or on a provider failure, so
    there are as many rounds as the deepest explored step."""
    if any(rejected.label != "incorrect" for _, rejected in jobs):
        raise ValueError("exploration expects a rationale labeled incorrect")
    sampling = SamplingConfig(n=cfg.k, temperature=cfg.temperature, seed=cfg.seed)
    out: list[Rollouts | ExplorationError] = [[] for _ in jobs]
    frontier = list(range(len(jobs)))
    step = 1
    while frontier:
        prompts = [_prefix_prompt(jobs[j][0], jobs[j][1].steps[:step]) for j in frontier]
        results = genclient.sample_batch(explorer, prompts, sampling)
        unresolved = []
        for j, result in zip(frontier, results):
            problem, rejected = jobs[j]
            table = out[j]
            if isinstance(result, GenClientError):
                partial = [(sum(ok for _, ok in row), len(row)) for row in table]
                out[j] = ExplorationError(
                    f"provider failed at step {step} of {problem.id}: {result}", partial
                )
                continue
            # grade each distinct completion once: a wrong prefix gives k copies
            reached = {c: extract_answer(c, problem.style) == problem.gold_answer
                       for c in set(result)}
            row = [(c, reached[c]) for c in result]
            table.append(row)
            if any(ok for _, ok in row) and step < len(rejected.steps):
                unresolved.append(j)
        frontier = unresolved
        step += 1
    return out


def read_pit(
    table: Rollouts,
    k: int,
    n_steps: int,
    problem_id: str,
    seed: int,
) -> PitResult:
    """The first pit at exploration size k, read off the first k rollouts of
    each row (a table explored at a larger size serves every smaller k)."""
    tallies: list[tuple[int, int]] = []
    pit: int | None = None
    for i, row in enumerate(table, start=1):
        successes = sum(ok for _, ok in row[:k])
        tallies.append((successes, k))
        if successes == 0:
            pit = i
            break
    if pit is None and len(tallies) < n_steps:
        raise RuntimeError("exploration table is shorter than the rationale")
    rescue = None
    if pit is not None and pit > 1:
        pool = [c for c, ok in table[pit - 2][:k] if ok]
        rng = rng_for(seed, "rescue", problem_id, pit, k)
        rescue = pool[int(rng.integers(0, len(pool)))]
    return PitResult(pit_index=pit, per_step_success=tuple(tallies), rescue=rescue)


def explore_first_pit(
    problem: Problem,
    rejected: Rationale,
    explorer: ProviderHandle,
    cfg: ExploreConfig,
) -> PitResult:
    """Locate the first zero-success step of one rejected rationale.

    Raises ExplorationError on a provider failure.
    """
    (found,) = _explore_frontier([(problem, rejected)], explorer, cfg)
    if isinstance(found, ExplorationError):
        raise found
    return read_pit(found, cfg.k, len(rejected.steps), problem.id, cfg.seed)


def _assemble_granular(
    problem: Problem,
    record: PairRecord,
    pit: PitResult,
    variant: str,
) -> PairRecord:
    w = pit.pit_index
    steps = record.rejected.steps
    # an outcome pair's rejected side is labeled incorrect and has no conclusion
    rejected = replace(record.rejected, extracted_answer=None,
                       steps=steps[w - 1:] if variant == "reject-all" else steps[w - 1: w])
    # a rescue reached the gold answer, so it grades correct
    chosen = record.chosen if w == 1 else _graded(problem, pit.rescue, "EXPLORER")
    if variant == "first-step":
        chosen = replace(chosen, steps=chosen.steps[:1], conclusion=None,
                         label="ungraded", extracted_answer=None)
    return PairRecord(
        problem_id=problem.id,
        input=_prefix_prompt(problem, steps[:w - 1]),
        chosen=chosen,
        rejected=rejected,
        granularity="granular-" + variant,
        pit_index=w,
    )


def _granular_entry(
    problems: list[Problem],
    d_pair: list[PairRecord],
    explored: list[Rollouts | ExplorationError],
    k: int,
    seed: int,
    variant: str,
) -> SweepEntry:
    """Re-pair each explored record around its pit at exploration size k."""
    by_id = {p.id: p for p in problems}
    out = GranularBuild()
    pits: list[int | None] = []
    for idx, (record, found) in enumerate(zip(d_pair, explored)):
        pits.append(None)
        if isinstance(found, ExplorationError):
            out.failures.append(DropEntry(record.problem_id, idx, str(found)))
            continue
        problem = by_id[record.problem_id]
        pit = read_pit(found, k, len(record.rejected.steps), problem.id, seed)
        if pit.pit_index is None:
            out.dropped.append(DropEntry(record.problem_id, idx, "no-pit"))
            continue
        pits[-1] = pit.pit_index
        try:
            out.records.append(_assemble_granular(problem, record, pit, variant))
        except ValueError as e:  # EmptyRationaleError is one
            out.failures.append(DropEntry(record.problem_id, idx, f"assembly: {e}"))
    depths = [p for p in pits if p is not None]
    # statistics.fmean's computation, without importing statistics
    mean = math.fsum(depths) / len(depths) if depths else None
    return SweepEntry(k=k, build=out, pits=pits, mean_pit_index=mean)


def build_granular_pairs(
    problems: list[Problem],
    d_pair: list[PairRecord],
    explorer: ProviderHandle,
    cfg: ExploreConfig,
    variant: str = "full",
) -> GranularBuild:
    """Explore each rejected rationale and re-pair around its first pit.

    Records with no pit through the final step are dropped (with a report
    entry): a rationale the explorer can rescue everywhere is not actually
    infeasible for it. Exploration errors are likewise collected per record.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant: {variant!r}")
    explored = explore_all(problems, d_pair, explorer, cfg)
    return _granular_entry(problems, d_pair, explored, cfg.k, cfg.seed, variant).build


def sweep_exploration_size(
    problems: list[Problem],
    d_pair: list[PairRecord],
    explorer: ProviderHandle,
    ks: list[int],
    cfg: ExploreConfig,
) -> list[SweepEntry]:
    """Granular datasets for each exploration size in `ks`.

    Requires nested sampling: each record is explored once at max(ks), not
    cfg.k, and the smaller-k results are read off the shared rollout prefix,
    so a record's pit index can only move later (or vanish) as k grows.
    """
    if not ks:
        raise ValueError("ks must be non-empty")
    if any(k < 1 for k in ks):
        raise ValueError("every k must be >= 1")
    if not cfg.nested_sampling:
        raise ValueError("sweep_exploration_size requires cfg.nested_sampling")
    explored = explore_all(problems, d_pair, explorer, replace(cfg, k=max(ks)))
    return [_granular_entry(problems, d_pair, explored, k, cfg.seed, "full")
            for k in ks]
