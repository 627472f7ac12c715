"""Analysis metrics over per-problem prediction sets.

Prediction order inside a SampleSet is an input contract: every metric at k
consumes the first k predictions. The `metrics` stage passes each problem's
answers in the D_GEN file's order, which is the order they were sampled in.
Majority ties break toward the modal answer that appears first, so maj@k is
deterministic and, in `metrics`, a tie goes to the earliest sampled answer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np


class MetricsBoundsError(ValueError):
    """k exceeds the number of predictions available in some set."""


@dataclass(frozen=True)
class SampleSet:
    problem_id: str
    gold_answer: str
    predictions: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "predictions", tuple(self.predictions))
        if not self.predictions:
            raise ValueError("predictions must be non-empty")


def _check_k(sets: list[SampleSet], k: int) -> None:
    if k < 1:
        raise MetricsBoundsError(f"k must be >= 1, got {k}")
    for s in sets:
        if k > len(s.predictions):
            raise MetricsBoundsError(
                f"k={k} exceeds the {len(s.predictions)} predictions of set "
                f"{s.problem_id}"
            )


def top1_accuracy(sets: list[SampleSet]) -> float:
    return pass_at_k(sets, 1)


def pass_at_k(sets: list[SampleSet], k: int) -> float:
    _check_k(sets, k)
    if not sets:
        return 0.0
    return sum(s.gold_answer in s.predictions[:k] for s in sets) / len(sets)


def maj_at_k(sets: list[SampleSet], k: int) -> float:
    _check_k(sets, k)
    if not sets:
        return 0.0
    # most_common orders equal counts by first appearance
    modes = [Counter(s.predictions[:k]).most_common(1)[0][0] for s in sets]
    return sum(m == s.gold_answer for m, s in zip(modes, sets)) / len(sets)


def answer_stats(sets: list[SampleSet], k: int) -> list[tuple[int, float]]:
    """Per set: (distinct answers in first k, dominant answer share of k)."""
    _check_k(sets, k)
    out = []
    for s in sets:
        first_k = s.predictions[:k]
        counts = Counter(first_k)
        out.append((len(counts), max(counts.values()) / k))
    return out


def diversity(embeddings: np.ndarray) -> float:
    """Mean pairwise Euclidean distance over the rows of a 2-D float array."""
    n = embeddings.shape[0]
    diff = embeddings[:, None, :] - embeddings[None, :, :]
    dists = np.sqrt((diff * diff).sum(axis=-1))
    iu = np.triu_indices(n, k=1)
    return float(dists[iu].sum() * 2.0 / (n * (n - 1)))
