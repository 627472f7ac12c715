import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steppref.corpus import Problem
from steppref.extraction import extract_answer
from steppref.synthworld import (
    PrefixError,
    QuestionParseError,
    SynthConfig,
    complete_from,
    gen_problem,
    simulate_solution,
)

from conftest import trace_with_error
from oracles import oracle_first_error


def eval_question_oracle(question: str) -> int:
    """Independent chain evaluator: sentence-split, keyword dispatch."""
    sentences = [s.strip() for s in question.split(".") if s.strip()]
    assert sentences[-1].startswith("What is")
    value = None
    for s in sentences[:-1]:
        words = s.split()
        if words[0] == "Start":
            value = int(words[-1])
        elif words[0] == "Add":
            value += int(words[1])
        elif words[0] == "Subtract":
            value -= int(words[1])
        elif words[0] == "Multiply":
            value *= int(words[2])
        else:
            raise AssertionError(f"unexpected sentence {s!r}")
    return value


@pytest.mark.parametrize("kwargs", [dict(t=0), dict(epsilon=1.5),
                                    dict(value_range=(9, 2)), dict(value_range=(-3, 1))],
                         ids=["t-0", "epsilon-1.5", "lo-above-hi", "lo-negative"])
def test_synth_config_refused(kwargs):
    with pytest.raises(ValueError):
        SynthConfig(**kwargs)


class TestGenProblem:
    def test_deterministic(self):
        cfg = SynthConfig(t=2, seed=0)
        assert gen_problem(cfg, 0) == gen_problem(cfg, 0)
        assert gen_problem(cfg, 0) != gen_problem(cfg, 1)

    def test_single_step(self):
        cfg = SynthConfig(t=1, seed=3)
        p = gen_problem(cfg, 0)
        assert p.question.count(".") == 2  # start sentence + one op sentence
        assert p.gold_answer == str(eval_question_oracle(p.question))

    def test_gold_matches_independent_evaluator(self):
        for seed in range(4):
            cfg = SynthConfig(t=int(seed % 5) + 1, epsilon=0.2, seed=seed)
            for idx in range(50):
                p = gen_problem(cfg, idx)
                assert p.gold_answer == str(eval_question_oracle(p.question))

    def test_bad_question(self):
        with pytest.raises(QuestionParseError):
            complete_from("How many apples?", [], SynthConfig(), 0, 1)


class TestSimulate:
    def test_eps0_is_correct(self):
        cfg = SynthConfig(t=4, epsilon=0.0, seed=1)
        p = gen_problem(cfg, 0)
        tr = simulate_solution(p, cfg, draw_seed=11)
        assert tr.true_first_error is None
        assert tr.rationale.label == "correct"
        assert tr.rationale.extracted_answer == p.gold_answer
        text = tr.rationale.text()
        assert extract_answer(text, p.style) == p.gold_answer

    def test_eps1_errors_at_step_one(self):
        cfg = SynthConfig(t=4, epsilon=1.0, seed=1)
        p = gen_problem(cfg, 0)
        for draw in range(20):
            tr = simulate_solution(p, cfg, draw_seed=draw)
            assert tr.true_first_error == 1
            assert tr.rationale.label == "incorrect"

    def test_deterministic_in_draw_seed(self):
        cfg = SynthConfig(t=5, epsilon=0.5, seed=2)
        p = gen_problem(cfg, 0)
        assert simulate_solution(p, cfg, 3) == simulate_solution(p, cfg, 3)
        assert simulate_solution(p, cfg, 3) != simulate_solution(p, cfg, 4)

    def test_risk_law_point(self):
        # Fully-correct rate over 2000 draws vs (1-eps)^t.
        cfg = SynthConfig(t=5, epsilon=0.3, seed=0)
        p = gen_problem(cfg, 0)
        n = 2000
        ok = sum(simulate_solution(p, cfg, d).true_first_error is None for d in range(n))
        assert abs(ok / n - 0.7**5) < 0.05

    @given(idx=st.integers(0, 50), t=st.integers(1, 6),
           epsilon=st.sampled_from([0.0, 0.3, 1.0]), stream=st.integers(0, 2**40),
           n=st.integers(1, 12), k=st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_stream_draws_nest_hypothesis(self, idx, t, epsilon, stream, n, k):
        cfg = SynthConfig(t=t, epsilon=epsilon, seed=idx % 3)
        p = gen_problem(cfg, idx)
        k = min(k, n)
        draws = simulate_solution(p, cfg, stream, n=n)
        assert len(draws) == n
        assert draws[:k] == simulate_solution(p, cfg, stream, n=k)
        assert draws[0] == simulate_solution(p, cfg, stream)

    def test_incorrect_trace_answer_differs_from_gold(self):
        cfg = SynthConfig(t=4, epsilon=0.6, seed=5)
        p = gen_problem(cfg, 1)
        for draw in range(200):
            tr = simulate_solution(p, cfg, draw_seed=draw)
            if tr.true_first_error is not None:
                assert tr.rationale.extracted_answer != p.gold_answer


class TestCompleteFrom:
    def test_full_prefix_gives_conclusion_only(self):
        cfg = SynthConfig(t=3, epsilon=0.4, seed=4)
        p = gen_problem(cfg, 0)
        gold = simulate_solution(p, dataclasses.replace(cfg, epsilon=0.0), 0).rationale
        (completion,) = complete_from(p.question, list(gold.steps), cfg, 9, 1)
        assert completion == gold.conclusion
        assert extract_answer(completion, p.style) == p.gold_answer

    def test_corrupted_prefix_always_wrong(self):
        cfg = SynthConfig(t=5, epsilon=0.2, seed=6)
        p = gen_problem(cfg, 2)
        for error_at in (1, 3, 5):
            bad = trace_with_error(p, error_at)
            for prefix_len in range(error_at, 6):
                prefix = list(bad.steps[:prefix_len])
                for completion in complete_from(p.question, prefix, cfg, 0, 10):
                    got = extract_answer(completion, p.style)
                    assert got != p.gold_answer

    def test_empty_prefix_eps0_equals_simulation(self):
        cfg = SynthConfig(t=4, epsilon=0.0, seed=7)
        p = gen_problem(cfg, 3)
        tr = simulate_solution(p, cfg, 0)
        assert complete_from(p.question, [], cfg, 123, 1) == [tr.rationale.text()]

    def test_unparseable_prefix(self):
        cfg = SynthConfig(t=3, epsilon=0.0, seed=8)
        p = gen_problem(cfg, 0)
        with pytest.raises(PrefixError):
            complete_from(p.question, ["first we think hard"], cfg, 0, 1)

    def test_prefix_with_wrong_operation(self):
        cfg = SynthConfig(t=3, epsilon=0.0, seed=8)
        p = gen_problem(cfg, 0)
        # the problem's first op is "Add 8."
        with pytest.raises(PrefixError,
                           match=r"^step 1 applies \+999 but the problem expects \+8$"):
            complete_from(p.question, ["999+999=1998."], cfg, 0, 1)

    def test_too_long_prefix(self):
        cfg = SynthConfig(t=2, epsilon=0.0, seed=8)
        p = gen_problem(cfg, 0)
        gold = simulate_solution(p, cfg, 0).rationale
        with pytest.raises(PrefixError):
            complete_from(p.question, list(gold.steps) + [gold.steps[-1]], cfg, 0, 1)


class TestOracle:
    def test_matches_simulation(self):
        cfg = SynthConfig(t=5, epsilon=0.35, seed=9)
        for idx in range(20):
            p = gen_problem(cfg, idx)
            for draw in range(100):
                tr = simulate_solution(p, cfg, draw_seed=draw)
                assert oracle_first_error(p, tr.rationale) == tr.true_first_error

    def test_hand_built_error_at_two(self):
        p = Problem(id="hand",
                    question="Start with 10. Add 5. Multiply by 2. What is the final value?",
                    gold_answer="30", style="answer-line")
        r = trace_with_error(p, error_at=2, delta=1)
        assert r.steps == ("10+5=15.", "15*2=31.")
        assert oracle_first_error(p, r) == 2

    def test_all_correct_is_none(self):
        cfg = SynthConfig(t=3, epsilon=0.0, seed=10)
        p = gen_problem(cfg, 4)
        gold = simulate_solution(p, cfg, 0).rationale
        assert oracle_first_error(p, gold) is None

    def test_grammar_violation_names_step(self):
        cfg = SynthConfig(t=2, epsilon=0.0, seed=11)
        p = gen_problem(cfg, 0)
        gold = simulate_solution(p, cfg, 0).rationale
        broken = dataclasses.replace(gold, steps=(gold.steps[0], "then magic"),
                                     label="ungraded", extracted_answer=None)
        with pytest.raises(PrefixError, match="^step 2 violates the step grammar"):
            complete_from(p.question, list(broken.steps), cfg, 0, 1)
        assert oracle_first_error(p, broken) == 2


def test_risk_law_grid_3sigma():
    # (1-eps)^t law over the documented grid with a 3-sigma band.
    draws = 800
    for eps in (0.0, 0.1, 0.3, 0.5):
        for t in (1, 3, 6):
            cfg = SynthConfig(t=t, epsilon=eps, seed=17)
            p = gen_problem(cfg, 0)
            q = (1 - eps) ** t
            ok = sum(
                simulate_solution(p, cfg, d).true_first_error is None
                for d in range(draws)
            )
            bound = 3 * math.sqrt(q * (1 - q) / draws) if 0 < q < 1 else 0
            assert abs(ok / draws - q) <= max(bound, 1e-12)
