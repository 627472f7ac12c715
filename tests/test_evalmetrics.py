from collections import Counter

import numpy as np
import pytest

from steppref.evalmetrics import (
    MetricsBoundsError,
    SampleSet,
    answer_stats,
    diversity,
    maj_at_k,
    pass_at_k,
    top1_accuracy,
)


def make_sets(rng, n_sets=12, n_preds=10, vocab=6):
    sets = []
    for i in range(n_sets):
        gold = str(int(rng.integers(0, vocab)))
        preds = tuple(str(int(v)) for v in rng.integers(0, vocab, size=n_preds))
        sets.append(SampleSet(f"p{i}", gold, preds))
    return sets


class TestTop1:
    def test_all_correct(self):
        sets = [SampleSet("a", "1", ("1", "2")), SampleSet("b", "3", ("3",))]
        assert top1_accuracy(sets) == 1.0

    def test_none_correct(self):
        sets = [SampleSet("a", "1", ("2",)), SampleSet("b", "3", ("4",))]
        assert top1_accuracy(sets) == 0.0

    def test_three_of_five(self):
        sets = [SampleSet(f"p{i}", "1", ("1",) if i < 3 else ("0",)) for i in range(5)]
        assert top1_accuracy(sets) == 0.6


class TestPassAtK:
    def test_k1_equals_top1(self):
        rng = np.random.default_rng(0)
        sets = make_sets(rng)
        assert pass_at_k(sets, 1) == top1_accuracy(sets)

    def test_boundary_inclusion(self):
        sets = [SampleSet("a", "7", ("1", "2", "7"))]
        assert pass_at_k(sets, 3) == 1.0
        assert pass_at_k(sets, 2) == 0.0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        sets = make_sets(rng)
        for k in range(1, 11):
            want = sum(s.gold_answer in s.predictions[:k] for s in sets) / len(sets)
            assert pass_at_k(sets, k) == pytest.approx(want, abs=1e-12)

    def test_bounds_error_names_set(self):
        sets = [SampleSet("tiny-set", "1", ("1", "2"))]
        with pytest.raises(MetricsBoundsError) as err:
            pass_at_k(sets, 3)
        assert "tiny-set" in str(err.value)
        with pytest.raises(MetricsBoundsError, match="k must be >= 1"):
            pass_at_k(sets, 0)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(2)
        sets = make_sets(rng)
        values = [pass_at_k(sets, k) for k in range(1, 11)]
        assert values == sorted(values)


class TestMajAtK:
    def test_k1_equals_top1(self):
        rng = np.random.default_rng(3)
        sets = make_sets(rng)
        assert maj_at_k(sets, 1) == top1_accuracy(sets)

    def test_clear_mode(self):
        sets = [SampleSet("a", "7", ("7", "7", "3"))]
        assert maj_at_k(sets, 3) == 1.0

    def test_tie_breaks_to_earliest(self):
        sets = [SampleSet("a", "3", ("7", "3", "7", "3"))]
        assert maj_at_k(sets, 4) == 0.0  # 7 appears first among the tied modes

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(4)
        sets = make_sets(rng)
        for k in range(1, 11):
            hits = 0
            for s in sets:
                first = s.predictions[:k]
                counts = Counter(first)
                best = max(counts.values())
                modal = min((first.index(a), a) for a, c in counts.items()
                            if c == best)[1]
                hits += modal == s.gold_answer
            assert maj_at_k(sets, k) == pytest.approx(hits / len(sets), abs=1e-12)


class TestAnswerStats:
    def test_all_identical(self):
        sets = [SampleSet("a", "1", ("4", "4", "4"))]
        assert answer_stats(sets, 3) == [(1, 1.0)]

    def test_all_distinct(self):
        sets = [SampleSet("a", "1", ("1", "2", "3", "4"))]
        assert answer_stats(sets, 4) == [(4, 0.25)]

    def test_hand_counted(self):
        sets = [SampleSet("a", "7", ("7", "7", "3", "2"))]
        assert answer_stats(sets, 4) == [(3, 0.5)]

    def test_ranges(self):
        rng = np.random.default_rng(5)
        sets = make_sets(rng)
        for k in (1, 4, 10):
            for uniq, dom in answer_stats(sets, k):
                assert 1 <= uniq <= k
                assert 1 / k <= dom <= 1.0


class TestDiversity:
    def test_identical_vectors_zero(self):
        assert diversity(np.array([[1.0, 2.0], [1.0, 2.0]])) == 0.0

    def test_two_vectors_distance(self):
        d = diversity(np.array([[0.0, 0.0], [0.0, 2.0]]))
        assert d == pytest.approx(2.0, abs=1e-12)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(6)
        emb = rng.normal(size=(7, 4))
        n = len(emb)
        total = 0.0
        for j in range(n - 1):
            for k in range(j + 1, n):
                total += float(np.linalg.norm(emb[j] - emb[k]))
        want = 2.0 * total / (n * (n - 1))
        assert diversity(emb) == pytest.approx(want, abs=1e-12)

    def test_permutation_invariant_and_scaling(self):
        rng = np.random.default_rng(7)
        emb = rng.normal(size=(5, 3))
        base = diversity(emb)
        perm = diversity(emb[::-1].copy())
        assert perm == pytest.approx(base, abs=1e-12)
        scaled = diversity(3.0 * emb)
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)


@pytest.mark.parametrize("metric", [pass_at_k, maj_at_k])
def test_no_sets_score_zero(metric):
    assert metric([], 3) == 0.0


def test_sampleset_requires_predictions():
    with pytest.raises(ValueError):
        SampleSet("a", "1", ())
