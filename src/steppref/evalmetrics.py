"""Analysis metrics over per-problem prediction sets.

Prediction order inside a SampleSet is an input contract (descending
sequence likelihood); every metric at k consumes the first k predictions.
Majority ties break toward the earliest-appearing modal answer, which keeps
maj@k deterministic.
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


@dataclass(frozen=True)
class DiversityInput:
    problem_id: str
    embeddings: np.ndarray

    def __post_init__(self) -> None:
        try:
            emb = np.asarray(self.embeddings, dtype=np.float64)
        except (TypeError, ValueError) as e:
            raise ValueError(f"embedding dimension mismatch: {e}") from e
        if emb.ndim != 2:
            raise ValueError("embeddings must be a list of equal-length vectors")
        if emb.shape[0] < 2:
            raise ValueError("need at least two embeddings")
        if not np.all(np.isfinite(emb)):
            raise ValueError("embeddings must be finite")
        object.__setattr__(self, "embeddings", emb)


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


def diversity(d: DiversityInput) -> float:
    """Mean pairwise Euclidean distance over unordered embedding pairs."""
    emb = d.embeddings
    n = emb.shape[0]
    diff = emb[:, None, :] - emb[None, :, :]
    dists = np.sqrt((diff * diff).sum(axis=-1))
    iu = np.triu_indices(n, k=1)
    return float(dists[iu].sum() * 2.0 / (n * (n - 1)))
