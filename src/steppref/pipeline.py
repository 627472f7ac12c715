"""The four data-construction stages.

1. build_rft: sample N rationales per problem, grade them against the gold
   answer, dedup, and keep the correct subset.
2. build_pairs: outcome-supervised preference pairs. Each correct rationale
   (in dataset order) grabs the still-unused incorrect rationale at maximal
   token edit distance; every rationale is used at most once, at most
   `max_pairs_per_problem` pairs per problem, and rejected payloads are
   stored without their conclusion line.
3. explore_all: step-level rollouts for all rejected rationales at once.
   Round i draws k completions from the i-step prefix of every rationale
   still on the frontier, in one `sample_batch`, and counts those that reach
   the gold answer. A rationale leaves at its first zero-success step (the
   pit), after its last step, or on a provider failure (its own
   ExplorationError). read_pit reads the pit at any k up to the explored one.
4. build_granular_pairs / sweep_exploration_size: reassemble pairs at step
   granularity around the pit, with the Table-2-style ablation variants and
   a nested exploration-size sweep that explores once at max(ks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import fmean

from . import genclient, kernels
from .corpus import (
    GRAN_FIRST_STEP,
    GRAN_FULL,
    GRAN_OUTCOME,
    GRAN_REJECT_ALL,
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
    strip_conclusion,
    style_for,
)
from .genclient import GenClientError, ProviderHandle, SamplingConfig
from .rng import rng_for

VARIANT_FULL = "full"
VARIANT_FIRST_STEP = "first-step"
VARIANT_REJECT_ALL = "reject-all"
VARIANTS = (VARIANT_FULL, VARIANT_FIRST_STEP, VARIANT_REJECT_ALL)

_GRANULARITY_FOR_VARIANT = {
    VARIANT_FULL: GRAN_FULL,
    VARIANT_FIRST_STEP: GRAN_FIRST_STEP,
    VARIANT_REJECT_ALL: GRAN_REJECT_ALL,
}


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
    temperature: float = 0.7
    nested_sampling: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")


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


def token_edit_distance(a: Rationale, b: Rationale) -> int:
    """Levenshtein distance over whitespace tokens of the joined steps."""
    return kernels.levenshtein(_tokens(a), _tokens(b))


def build_rft(
    problems: list[Problem],
    provider: ProviderHandle,
    cfg: SamplingConfig,
) -> RftBuild:
    """Sample, parse, grade and dedup rationales for each problem.

    Problems whose sampling failed, or that yielded no parseable or no
    correct rationale, are listed in the skip report rather than dropped
    silently.
    """
    out = RftBuild()
    if not problems:
        return out
    results = genclient.sample_batch(provider, [p.question for p in problems], cfg)
    for problem, result in zip(problems, results):
        if isinstance(result, GenClientError):
            out.skipped.append(SkipEntry(problem.id, f"provider-error: {result}"))
            continue
        style = style_for(problem.style)
        rationales = []
        for text in result:
            try:
                steps, conclusion = split_steps(text, style)
            except EmptyRationaleError:
                continue
            if not steps:
                # A bare answer declaration with no reasoning is unusable.
                continue
            extracted = extract_answer(text, style)
            label = "correct" if extracted == problem.gold_answer else "incorrect"
            rationales.append(
                Rationale(tuple(steps), conclusion, "SFT", label, extracted)
            )
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
        pos = corrects.get(problem.id, [])
        neg = incorrects.get(problem.id, [])
        neg_tokens = [_tokens(r) for r in neg]
        used = [False] * len(neg)
        emitted = 0
        for chosen in pos:
            if emitted >= cfg.max_pairs_per_problem:
                break
            best_idx = -1
            best_dist = -1
            chosen_tokens = _tokens(chosen)
            for j, tokens in enumerate(neg_tokens):
                if used[j]:
                    continue
                dist = kernels.levenshtein(chosen_tokens, tokens)
                if dist > best_dist:
                    best_dist = dist
                    best_idx = j
            if best_idx < 0:
                break
            used[best_idx] = True
            emitted += 1
            pairs.append(
                PairRecord(
                    problem_id=problem.id,
                    input=problem.question,
                    chosen=chosen,
                    rejected=strip_conclusion(neg[best_idx]),
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
    k: int,
    temperature: float,
    seed: int,
) -> list[Rollouts | ExplorationError | None]:
    """Roll out k completions from every step prefix of every rejected side.

    Positionally aligned with `d_pair`: each record's rollout table, its
    ExplorationError (with the tallies gathered before the failing step), or
    None for a record with no rejected step. Every record is validated before
    any request is sent.
    """
    by_id = {p.id: p for p in problems}
    for record in d_pair:
        if record.granularity != GRAN_OUTCOME:
            raise ValueError("exploration expects outcome-granularity pairs")
        if record.problem_id not in by_id:
            raise ValueError(f"record references unknown problem {record.problem_id!r}")
    jobs = [(by_id[r.problem_id], r.rejected) for r in d_pair]
    return _explore_frontier(jobs, explorer, k, temperature, seed)


def _explore_frontier(
    jobs: list[tuple[Problem, Rationale]],
    explorer: ProviderHandle,
    k: int,
    temperature: float,
    seed: int,
) -> list[Rollouts | ExplorationError | None]:
    """Level-synchronous exploration: round i sends the i-step prefixes of all
    unresolved rationales in one batch. A rationale leaves the frontier at its
    first zero-success step, after its last step, or on a provider failure, so
    there are as many rounds as the deepest explored step."""
    if any(rejected.label != "incorrect" for _, rejected in jobs):
        raise ValueError("exploration expects a rationale labeled incorrect")
    sampling = SamplingConfig(n=k, temperature=temperature, seed=seed)
    out: list[Rollouts | ExplorationError | None] = [
        [] if rejected.steps else None for _, rejected in jobs
    ]
    frontier = [j for j, table in enumerate(out) if table is not None]
    step = 1
    while frontier:
        prompts = [
            jobs[j][0].question + "\n" + "\n".join(jobs[j][1].steps[:step])
            for j in frontier
        ]
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
            style = style_for(problem.style)
            row = [(c, extract_answer(c, style) == problem.gold_answer) for c in result]
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
    problem: Problem,
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
        rng = rng_for(seed, "rescue", problem.id, pit, k)
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
    (found,) = _explore_frontier([(problem, rejected)], explorer, cfg.k,
                                 cfg.temperature, cfg.seed)
    if found is None:
        raise ValueError("exploration expects at least one step")
    if isinstance(found, ExplorationError):
        raise found
    return read_pit(found, cfg.k, len(rejected.steps), problem, cfg.seed)


def _assemble_granular(
    problem: Problem,
    record: PairRecord,
    pit: PitResult,
    variant: str,
) -> PairRecord:
    w = pit.pit_index
    steps = record.rejected.steps
    if variant == VARIANT_REJECT_ALL:
        rejected_steps = steps[w - 1:]
    else:
        rejected_steps = steps[w - 1: w]
    rejected = Rationale(
        steps=rejected_steps,
        conclusion=None,
        producer=record.rejected.producer,
        label="incorrect",
        extracted_answer=None,
    )
    if w == 1:
        input_text = problem.question
        chosen = record.chosen
    else:
        input_text = problem.question + "\n" + "\n".join(steps[: w - 1])
        style = style_for(problem.style)
        rescue_steps, rescue_conclusion = split_steps(pit.rescue, style)
        if variant == VARIANT_FIRST_STEP:
            if not rescue_steps:
                raise ValueError("rescue completion has no step to keep")
            chosen = Rationale(
                steps=(rescue_steps[0],),
                conclusion=None,
                producer="EXPLORER",
                label="ungraded",
                extracted_answer=None,
            )
        else:
            chosen = Rationale(
                steps=tuple(rescue_steps),
                conclusion=rescue_conclusion,
                producer="EXPLORER",
                label="correct",
                extracted_answer=extract_answer(pit.rescue, style_for(problem.style)),
            )
    return PairRecord(
        problem_id=problem.id,
        input=input_text,
        chosen=chosen,
        rejected=rejected,
        granularity=_GRANULARITY_FOR_VARIANT[variant],
        pit_index=w,
    )


def _granular_entry(
    problems: list[Problem],
    d_pair: list[PairRecord],
    explored: list[Rollouts | ExplorationError | None],
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
        if found is None:
            out.dropped.append(DropEntry(record.problem_id, idx, "empty-rejected"))
            continue
        if isinstance(found, ExplorationError):
            out.failures.append(DropEntry(record.problem_id, idx, str(found)))
            continue
        problem = by_id[record.problem_id]
        pit = read_pit(found, k, len(record.rejected.steps), problem, seed)
        if pit.pit_index is None:
            out.dropped.append(DropEntry(record.problem_id, idx, "no-pit"))
            continue
        pits[-1] = pit.pit_index
        try:
            out.records.append(_assemble_granular(problem, record, pit, variant))
        except (ValueError, EmptyRationaleError) as e:
            out.failures.append(DropEntry(record.problem_id, idx, f"assembly: {e}"))
    found_pits = [p for p in pits if p is not None]
    return SweepEntry(k=k, build=out, pits=pits,
                      mean_pit_index=fmean(found_pits) if found_pits else None)


def build_granular_pairs(
    problems: list[Problem],
    d_pair: list[PairRecord],
    explorer: ProviderHandle,
    cfg: ExploreConfig,
    variant: str = VARIANT_FULL,
) -> GranularBuild:
    """Explore each rejected rationale and re-pair around its first pit.

    Records with no pit through the final step are dropped (with a report
    entry): a rationale the explorer can rescue everywhere is not actually
    infeasible for it. Exploration errors are likewise collected per record.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant: {variant!r}")
    explored = explore_all(problems, d_pair, explorer, cfg.k, cfg.temperature, cfg.seed)
    return _granular_entry(problems, d_pair, explored, cfg.k, cfg.seed, variant).build


def sweep_exploration_size(
    problems: list[Problem],
    d_pair: list[PairRecord],
    explorer: ProviderHandle,
    ks: list[int],
    cfg: ExploreConfig,
) -> list[SweepEntry]:
    """Granular datasets for each exploration size in `ks`.

    Requires nested sampling: each record is explored once at max(ks) and
    the smaller-k results are read off the shared rollout prefix, so a
    record's pit index can only move later (or vanish) as k grows.
    """
    if not ks:
        raise ValueError("ks must be non-empty")
    if any(k < 1 for k in ks):
        raise ValueError("every k must be >= 1")
    if not cfg.nested_sampling:
        raise ValueError("sweep_exploration_size requires cfg.nested_sampling")
    explored = explore_all(problems, d_pair, explorer, max(ks), cfg.temperature,
                           cfg.seed)
    return [_granular_entry(problems, d_pair, explored, k, cfg.seed, VARIANT_FULL)
            for k in ks]
