import dataclasses
import json
import math

import numpy as np
import pytest

from steppref import cli, genclient, kernels, pipeline
from steppref.corpus import (
    KIND_D,
    KIND_PAIR,
    DatasetHeader,
    PairRecord,
    Problem,
    Rationale,
    RationaleRecord,
    write_dataset,
)
from steppref.extraction import EmptyRationaleError, dedup, extract_answer, split_steps
from steppref.genclient import ProviderHandle, SamplingConfig, sample
from steppref.pipeline import (
    DropEntry,
    ExplorationError,
    ExploreConfig,
    GranularBuild,
    PairingConfig,
    PitResult,
    RftBuild,
    SkipEntry,
    _assemble_granular,
    build_granular_pairs,
    build_pairs,
    build_rft,
    explore_all,
    explore_first_pit,
    read_pit,
    sweep_exploration_size,
)
from steppref.rng import rng_for
from steppref.synthworld import SynthConfig, gen_problem, simulate_solution

from conftest import correct_rationale, trace_with_error
from oracles import lev_oracle


class TestTokenEditDistance:
    def test_matches_dp_oracle(self):
        # build_pairs' distance: Levenshtein over the whitespace tokens of the
        # rationales' steps
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(6)]
        for _ in range(60):
            ta = [words[int(i)] for i in rng.integers(0, 6, size=rng.integers(0, 21))]
            tb = [words[int(i)] for i in rng.integers(0, 6, size=rng.integers(0, 21))]
            a = Rationale(steps=(" ".join(ta) or "pad",))
            b = Rationale(steps=(" ".join(tb) or "pad",))
            want = lev_oracle(a.steps[0].split(), b.steps[0].split())
            assert kernels.levenshtein(pipeline._tokens(a), pipeline._tokens(b)) == want


def _fixture_problem(pid="p1"):
    return Problem(id=pid, question=f"question {pid}", gold_answer="7")


def _gen_records(pid, rationales):
    return [RationaleRecord(pid, r) for r in rationales]


def _correct(steps):
    return Rationale(steps=tuple(steps), conclusion="The answer is 7.",
                     label="correct", extracted_answer="7")


def _incorrect(steps):
    return Rationale(steps=tuple(steps), conclusion="The answer is 9.",
                     label="incorrect", extracted_answer="9")


class TestBuildPairs:
    def test_max_distance_partner_chosen(self):
        # chosen 'a b c'; inc1 differs by 1 token, inc2 by 4 tokens (hand DP).
        problem = _fixture_problem()
        chosen = _correct(["a b c"])
        inc1 = _incorrect(["a b d"])
        inc2 = _incorrect(["w x y z"])
        pairs = build_pairs([problem], _gen_records("p1", [chosen]),
                            _gen_records("p1", [chosen, inc1, inc2]),
                            PairingConfig())
        assert len(pairs) == 1
        # the rejected side keeps every field but its conclusion
        assert pairs[0].rejected == dataclasses.replace(inc2, conclusion=None)
        assert pairs[0].granularity == "outcome"
        assert pairs[0].pit_index is None
        assert pairs[0].input == problem.question

    def test_tie_breaks_to_lowest_index(self):
        problem = _fixture_problem()
        chosen = _correct(["a b"])
        inc1 = _incorrect(["c d"])
        inc2 = _incorrect(["e f"])  # same distance 2
        pairs = build_pairs([problem], _gen_records("p1", [chosen]),
                            _gen_records("p1", [inc1, inc2]), PairingConfig())
        assert pairs[0].rejected.steps == inc1.steps

    def test_cap_at_max_pairs(self):
        problem = _fixture_problem()
        corrects = [_correct([f"c{i} x"]) for i in range(10)]
        incorrects = [_incorrect([f"i{i} y"]) for i in range(10)]
        pairs = build_pairs([problem], _gen_records("p1", corrects),
                            _gen_records("p1", incorrects),
                            PairingConfig(max_pairs_per_problem=8))
        assert len(pairs) == 8

    def test_no_incorrect_no_pairs(self):
        problem = _fixture_problem()
        pairs = build_pairs([problem], _gen_records("p1", [_correct(["a"])]),
                            _gen_records("p1", [_correct(["a"])]), PairingConfig())
        assert pairs == []

    def test_rejected_loses_conclusion_and_no_reuse(self):
        problem = _fixture_problem()
        corrects = [_correct([f"c{i} q r"]) for i in range(3)]
        incorrects = [_incorrect([f"i{i} s t"]) for i in range(3)]
        pairs = build_pairs([problem], _gen_records("p1", corrects),
                            _gen_records("p1", incorrects), PairingConfig())
        assert len(pairs) == 3
        assert all(p.rejected.conclusion is None for p in pairs)
        used = [p.rejected.steps for p in pairs]
        assert len(set(used)) == len(used)

    def test_greedy_agrees_with_bruteforce(self):
        rng = np.random.default_rng(5)
        words = [f"t{i}" for i in range(8)]
        for trial in range(30):
            nc, ni = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            corrects = [
                _correct([" ".join(words[int(i)] for i in rng.integers(0, 8, size=rng.integers(1, 8)))])
                for _ in range(nc)
            ]
            incorrects = [
                _incorrect([" ".join(words[int(i)] for i in rng.integers(0, 8, size=rng.integers(1, 8)))])
                for _ in range(ni)
            ]
            problem = _fixture_problem()
            pairs = build_pairs([problem], _gen_records("p1", corrects),
                                _gen_records("p1", incorrects), PairingConfig())
            # independent greedy replay on the oracle distance
            used = set()
            expect = []
            for c in corrects:
                if len(expect) == 8:
                    break
                best, best_d = None, -1
                for j, inc in enumerate(incorrects):
                    if j in used:
                        continue
                    d = lev_oracle(" ".join(c.steps).split(), " ".join(inc.steps).split())
                    if d > best_d:
                        best, best_d = j, d
                if best is None:
                    break
                used.add(best)
                expect.append((c.steps, incorrects[best].steps))
            got = [(p.chosen.steps, p.rejected.steps) for p in pairs]
            assert got == expect

    def test_unknown_problem_id_rejected(self):
        with pytest.raises(ValueError):
            build_pairs([], _gen_records("ghost", [_correct(["a"])]), [], PairingConfig())


@pytest.mark.parametrize("make", [lambda: PairingConfig(0), lambda: ExploreConfig(k=0),
                                  lambda: ExploreConfig(temperature=math.nan)],
                         ids=["max-pairs-0", "k-0", "temperature-nan"])
def test_config_refused(make):
    with pytest.raises(ValueError):
        make()


class TestBuildRft:
    def test_eps0_dedups_to_single_correct(self):
        cfg = SynthConfig(t=3, epsilon=0.0, seed=1)
        provider = ProviderHandle.synthetic(cfg)
        problems = [gen_problem(cfg, 0)]
        out = build_rft(problems, provider, SamplingConfig(n=5, temperature=0.7, seed=2))
        assert len(out.gen) == 1
        assert len(out.rft) == 1
        assert out.rft[0].rationale.extracted_answer == problems[0].gold_answer
        assert out.skipped == []

    def test_no_problems_is_an_empty_build(self):
        provider = ProviderHandle.synthetic(SynthConfig())
        assert build_rft([], provider, SamplingConfig(n=5)) == RftBuild()

    def test_eps1_gives_empty_rft_and_skip_entry(self):
        cfg = SynthConfig(t=3, epsilon=1.0, seed=1)
        provider = ProviderHandle.synthetic(cfg)
        problems = [gen_problem(cfg, 0)]
        out = build_rft(problems, provider, SamplingConfig(n=5, temperature=0.7, seed=2))
        assert out.rft == []
        assert len(out.skipped) == 1
        assert out.skipped[0].problem_id == problems[0].id
        assert out.skipped[0].reason == "no-correct-samples"

    def test_labels_match_extraction(self):
        cfg = SynthConfig(t=4, epsilon=0.4, seed=3)
        provider = ProviderHandle.synthetic(cfg)
        problems = [gen_problem(cfg, i) for i in range(3)]
        out = build_rft(problems, provider, SamplingConfig(n=20, temperature=0.7, seed=5))
        by_id = {p.id: p for p in problems}
        for rec in out.gen:
            gold = by_id[rec.problem_id].gold_answer
            want = "correct" if rec.rationale.extracted_answer == gold else "incorrect"
            assert rec.rationale.label == want
        rft_keys = {(r.problem_id, r.rationale.steps) for r in out.rft}
        gen_correct = {(r.problem_id, r.rationale.steps)
                       for r in out.gen if r.rationale.label == "correct"}
        assert rft_keys == gen_correct

    def test_non_template_question_is_one_skip(self):
        cfg = SynthConfig(t=3, epsilon=0.3, seed=4)
        provider = ProviderHandle.synthetic(cfg)
        problems = [gen_problem(cfg, i) for i in range(3)]
        odd = Problem(id="odd", question="What is two plus two?", gold_answer="4")
        sampling = SamplingConfig(n=6, temperature=0.7, seed=4)
        out = build_rft(problems[:2] + [odd] + problems[2:], provider, sampling)
        clean = build_rft(problems, provider, sampling)
        assert out.gen == clean.gen and out.rft == clean.rft
        (skip,) = [s for s in out.skipped if s.problem_id == "odd"]
        assert skip.reason.startswith("provider-error: not a synthetic question")
        assert [s for s in out.skipped if s.problem_id != "odd"] == clean.skipped
        # alone, it is still one skip rather than an aborted batch
        alone = build_rft([odd], provider, sampling)
        assert alone.gen == [] and alone.skipped == [skip]

    def test_provider_error_reported_per_problem(self, stub_server):
        def respond(payload):
            if "FAIL" in payload["prompt"]:
                return 500, {}
            return 200, {"choices": [{"text": "steps here\nThe answer is 7."}]
                         * int(payload["n"])}

        server = stub_server(respond)
        provider = ProviderHandle.http(server.url, max_in_flight=2)
        problems = [
            Problem(id="ok", question="fine question", gold_answer="7"),
            Problem(id="bad", question="FAIL question", gold_answer="7"),
        ]
        out = build_rft(problems, provider, SamplingConfig(n=2))
        assert [r.problem_id for r in out.rft] == ["ok"]
        assert len(out.skipped) == 1
        assert out.skipped[0].problem_id == "bad"
        assert "provider-error" in out.skipped[0].reason


def _rft_reference(problems, results):
    """build_rft's grading as a loop that parses and grades every completion."""
    out = RftBuild()
    for problem, texts in zip(problems, results):
        rationales = []
        for text in texts:
            try:
                steps, conclusion = split_steps(text, problem.style)
            except EmptyRationaleError:
                continue
            if steps:
                extracted = extract_answer(text, problem.style)
                label = "correct" if extracted == problem.gold_answer else "incorrect"
                rationales.append(Rationale(tuple(steps), conclusion, "SFT", label, extracted))
        if not rationales:
            out.skipped.append(SkipEntry(problem.id, "no-parseable-samples"))
            continue
        deduped = dedup(rationales)
        out.gen.extend(RationaleRecord(problem.id, r) for r in deduped)
        if not any(r.label == "correct" for r in deduped):
            out.skipped.append(SkipEntry(problem.id, "no-correct-samples"))
        out.rft.extend(RationaleRecord(problem.id, r) for r in deduped if r.label == "correct")
    return out


def _counting_parsers(monkeypatch):
    """Texts passed to pipeline.split_steps and pipeline.extract_answer."""
    calls = {"split_steps": [], "extract_answer": []}
    for name in calls:
        original = getattr(pipeline, name)

        def counted(text, style, _name=name, _original=original):
            calls[_name].append(text)
            return _original(text, style)

        monkeypatch.setattr(pipeline, name, counted)
    return calls


class TestRftParsesDistinctCompletionsOnce:
    def test_temperature_0_parses_one_text_per_problem(self, monkeypatch):
        cfg = SynthConfig(t=4, epsilon=0.4, seed=6)
        provider = ProviderHandle.synthetic(cfg)
        problems = [gen_problem(cfg, i) for i in range(4)]
        sampling = SamplingConfig(n=8, temperature=0.0, seed=6)
        results = genclient.sample_batch(provider, [p.question for p in problems], sampling)
        assert all(len(set(texts)) == 1 for texts in results)
        calls = _counting_parsers(monkeypatch)
        out = build_rft(problems, provider, sampling)
        assert calls["split_steps"] == [texts[0] for texts in results]
        assert calls["extract_answer"] == calls["split_steps"]
        assert out == _rft_reference(problems, results)

    def test_duplicate_empty_and_bare_answer_texts(self, monkeypatch, stub_server):
        script = {
            "q-none": ["", "The answer is 3.", "  \n", "The answer is 3.", "", "\n"],
            "q-mixed": ["a\nThe answer is 3.", "", "b\nThe answer is 4.",
                        "a\nThe answer is 3.", "The answer is 3.", "a \nThe answer is 3."],
            "q-wrong": ["c\nThe answer is 5."] * 6,
        }

        def respond(payload):
            return 200, {"choices": [{"text": t} for t in script[payload["prompt"]]]}

        problems = [Problem(id=q.removeprefix("q-"), question=q, gold_answer="3")
                    for q in script]
        calls = _counting_parsers(monkeypatch)
        provider = ProviderHandle.http(stub_server(respond).url, max_in_flight=1)
        out = build_rft(problems, provider, SamplingConfig(n=6))
        distinct = [t for texts in script.values() for t in dict.fromkeys(texts)]
        assert calls["split_steps"] == distinct
        assert calls["extract_answer"] == [
            "a\nThe answer is 3.", "b\nThe answer is 4.", "a \nThe answer is 3.",
            "c\nThe answer is 5."]
        assert out == _rft_reference(problems, list(script.values()))
        assert [r.rationale.steps for r in out.gen] == [("a",), ("b",), ("c",)]
        assert out.skipped == [SkipEntry("none", "no-parseable-samples"),
                               SkipEntry("wrong", "no-correct-samples")]


def _explorer(eps, seed=0, t=5):
    return ProviderHandle.synthetic(SynthConfig(t=t, epsilon=eps, seed=seed))


class TestExploreFirstPit:
    def test_eps0_explorer_finds_exact_pit(self):
        cfg = SynthConfig(t=5, epsilon=0.3, seed=4)
        p = gen_problem(cfg, 0)
        for e in (1, 2, 3, 4, 5):
            rejected = trace_with_error(p, e)
            pit = explore_first_pit(p, rejected, _explorer(0.0), ExploreConfig(k=3, seed=1))
            assert pit.pit_index == e
            tallies = pit.per_step_success
            assert len(tallies) == e
            assert tallies[-1] == (0, 3)
            assert all(s >= 1 for s, _ in tallies[:-1])
            if e == 1:
                assert pit.rescue is None
            else:
                assert pit.rescue is not None
                prefix = "\n".join(rejected.steps[: e - 1])
                assert extract_answer(prefix + "\n" + pit.rescue,
                                      p.style) == p.gold_answer

    def test_never_late(self):
        cfg = SynthConfig(t=5, epsilon=0.25, seed=5)
        found = 0
        for idx in range(40):
            p = gen_problem(cfg, idx)
            for draw in range(6):
                tr = simulate_solution(p, cfg, draw_seed=draw)
                if tr.true_first_error is None:
                    continue
                found += 1
                pit = explore_first_pit(p, tr.rationale, _explorer(0.25, seed=idx),
                                        ExploreConfig(k=3, seed=draw))
                assert pit.pit_index is not None
                assert pit.pit_index <= tr.true_first_error
        assert found > 50

    def test_requires_incorrect_label(self):
        cfg = SynthConfig(t=3, epsilon=0.0, seed=6)
        p = gen_problem(cfg, 0)
        with pytest.raises(ValueError):
            explore_first_pit(p, correct_rationale(p), _explorer(0.0),
                              ExploreConfig())

    def test_provider_failure_carries_partial_tallies(self, stub_server):
        cfg = SynthConfig(t=4, epsilon=0.3, seed=7)
        p = gen_problem(cfg, 0)
        rejected = trace_with_error(p, 3)

        def respond(payload):
            depth = payload["prompt"].count("\n")
            if depth > 1:
                return 500, {}
            text = f"The answer is {p.gold_answer}."
            return 200, {"choices": [{"text": text}] * int(payload["n"])}

        server = stub_server(respond)
        explorer = ProviderHandle.http(server.url)
        with pytest.raises(ExplorationError) as err:
            explore_first_pit(p, rejected, explorer, ExploreConfig(k=2, seed=0))
        assert err.value.partial == [(2, 2)]


class TestBuildGranularPairs:
    def _setup(self, e, t=5, seed=8):
        cfg = SynthConfig(t=t, epsilon=0.3, seed=seed)
        p = gen_problem(cfg, 0)
        chosen = correct_rationale(p)
        rejected = trace_with_error(p, e)
        record = PairRecord(p.id, p.question, chosen, rejected, "outcome", None)
        return cfg, p, record

    def test_variant_full_mid_pit(self):
        cfg, p, record = self._setup(e=3)
        out = build_granular_pairs([p], [record], _explorer(0.0),
                                   ExploreConfig(k=3, seed=2), "full")
        assert out.dropped == [] and out.failures == []
        (rec,) = out.records
        assert rec.granularity == "granular-full"
        assert rec.pit_index == 3
        assert rec.input == p.question + "\n" + "\n".join(record.rejected.steps[:2])
        assert rec.rejected.steps == (record.rejected.steps[2],)
        assert rec.rejected.conclusion is None
        assert rec.chosen.label == "correct"
        assert extract_answer(rec.chosen.text(), p.style) == p.gold_answer

    def test_variant_reject_all(self):
        cfg, p, record = self._setup(e=3)
        out = build_granular_pairs([p], [record], _explorer(0.0),
                                   ExploreConfig(k=3, seed=2), "reject-all")
        (rec,) = out.records
        assert rec.granularity == "granular-reject-all"
        assert rec.rejected.steps == record.rejected.steps[2:]
        assert rec.rejected.conclusion is None

    def test_variant_first_step(self):
        cfg, p, record = self._setup(e=3)
        out = build_granular_pairs([p], [record], _explorer(0.0),
                                   ExploreConfig(k=3, seed=2), "first-step")
        (rec,) = out.records
        assert rec.granularity == "granular-first-step"
        # the full variant's chosen side, cut to its first step
        full = build_granular_pairs([p], [record], _explorer(0.0),
                                    ExploreConfig(k=3, seed=2), "full").records[0]
        assert rec.pit_index == full.pit_index == 3 and rec.input == full.input
        assert len(full.chosen.steps) > 1 and full.chosen.conclusion is not None
        assert rec.chosen == Rationale(steps=full.chosen.steps[:1], conclusion=None,
                                       producer=full.chosen.producer, label="ungraded",
                                       extracted_answer=None)
        assert rec.rejected == full.rejected

    def test_pit_at_one_uses_original_chosen(self):
        cfg, p, record = self._setup(e=1)
        out = build_granular_pairs([p], [record], _explorer(0.0),
                                   ExploreConfig(k=3, seed=2), "full")
        (rec,) = out.records
        assert rec.pit_index == 1
        assert rec.input == p.question
        assert rec.chosen == record.chosen
        assert rec.rejected.steps == (record.rejected.steps[0],)

    def test_pit_at_one_first_step_keeps_one_chosen_step(self):
        cfg, p, record = self._setup(e=1)
        assert len(record.chosen.steps) > 1 and record.chosen.conclusion is not None
        out = build_granular_pairs([p], [record], _explorer(0.0),
                                   ExploreConfig(k=3, seed=2), "first-step")
        (rec,) = out.records
        assert rec.pit_index == 1 and rec.input == p.question
        assert rec.chosen == Rationale(steps=record.chosen.steps[:1], conclusion=None,
                                       producer=record.chosen.producer, label="ungraded",
                                       extracted_answer=None)
        assert rec.rejected.steps == (record.rejected.steps[0],)

    def test_no_pit_record_dropped(self, stub_server):
        cfg, p, record = self._setup(e=2)

        def respond(payload):
            text = f"The answer is {p.gold_answer}."
            return 200, {"choices": [{"text": text}] * int(payload["n"])}

        server = stub_server(respond)
        out = build_granular_pairs([p], [record], ProviderHandle.http(server.url),
                                   ExploreConfig(k=2, seed=0), "full")
        assert out.records == []
        assert len(out.dropped) == 1
        assert out.dropped[0].reason == "no-pit"

    def test_exploration_failures_collected(self, stub_server):
        # Every prompt of the round fails; each record still gets its own entry.
        problems, d_pair = _distinct_records([3, 2, 1])
        server = stub_server(lambda payload: (500, {}))
        out = build_granular_pairs(problems, d_pair,
                                   ProviderHandle.http(server.url, max_in_flight=4),
                                   ExploreConfig(k=2, seed=0), "full")
        assert out.records == [] and out.dropped == []
        assert [(f.problem_id, f.record_index) for f in out.failures] == [
            (p.id, i) for i, p in enumerate(problems)]
        for f in out.failures:
            assert f.reason.startswith(f"provider failed at step 1 of {f.problem_id}: ")

    def test_reward_design_correspondence(self):
        # One rejected step, chosen ends at gold, shared prefix lives in the
        # input of both sides.
        cfg = SynthConfig(t=5, epsilon=0.3, seed=11)
        problems, records = [], []
        for idx in range(12):
            p = gen_problem(cfg, idx)
            for draw in range(8):
                tr = simulate_solution(p, cfg, draw_seed=draw)
                if tr.true_first_error is not None:
                    problems.append(p)
                    records.append(PairRecord(
                        p.id, p.question, correct_rationale(p),
                        dataclasses.replace(tr.rationale, conclusion=None),
                        "outcome", None))
                    break
        out = build_granular_pairs(problems, records, _explorer(0.1, seed=1),
                                   ExploreConfig(k=4, seed=3), "full")
        assert out.records
        by_id = {p.id: p for p in problems}
        for rec in out.records:
            p = by_id[rec.problem_id]
            assert len(rec.rejected.steps) == 1
            assert rec.input.startswith(p.question)
            prefix_steps = rec.input[len(p.question):].strip("\n")
            n_prefix = len(prefix_steps.splitlines()) if prefix_steps else 0
            assert n_prefix == rec.pit_index - 1
            assert rec.rejected.steps[0] not in rec.input.splitlines()
            if rec.pit_index > 1:
                assert extract_answer(rec.chosen.text(), p.style) == p.gold_answer

    def test_requires_outcome_granularity(self):
        cfg, p, record = self._setup(e=2)
        granular = dataclasses.replace(record, granularity="granular-full", pit_index=1)
        with pytest.raises(ValueError):
            build_granular_pairs([p], [granular], _explorer(0.0), ExploreConfig(), "full")

    def test_unknown_variant(self):
        cfg, p, record = self._setup(e=2)
        with pytest.raises(ValueError):
            build_granular_pairs([p], [record], _explorer(0.0), ExploreConfig(),
                                 "bespoke")

    def test_unknown_problem_refused_before_exploring(self):
        cfg, p, record = self._setup(e=2)
        ghost = dataclasses.replace(record, problem_id="ghost")
        with pytest.raises(ValueError, match="ghost"):
            explore_all([p], [record, ghost], _explorer(0.0),
                        ExploreConfig(k=2, temperature=0.7, seed=0))

    def test_read_pit_refuses_a_short_table(self):
        cfg, p, record = self._setup(e=2)
        with pytest.raises(RuntimeError, match="shorter"):
            read_pit([[("x", True)]], 1, 2, p.id, 0)


class TestSweep:
    def _records(self, n, cfg, seed_base=0):
        problems, records = [], []
        idx = 0
        while len(records) < n:
            p = gen_problem(cfg, idx)
            idx += 1
            for draw in range(30):
                tr = simulate_solution(p, cfg, draw_seed=draw + seed_base)
                if tr.true_first_error is not None:
                    problems.append(p)
                    records.append(PairRecord(
                        p.id, p.question, correct_rationale(p),
                        dataclasses.replace(tr.rationale, conclusion=None),
                        "outcome", None))
                    break
        return problems, records

    @pytest.mark.parametrize("ks,message", [([], "non-empty"), ([0, 2], "every k")],
                             ids=["empty", "k-0"])
    def test_refuses_bad_ks(self, ks, message):
        cfg = SynthConfig(t=3, epsilon=0.3, seed=12)
        problems, records = self._records(1, cfg)
        with pytest.raises(ValueError, match=message):
            sweep_exploration_size(problems, records, _explorer(0.3, t=3), ks,
                                   ExploreConfig(nested_sampling=True))

    def test_requires_nested_flag(self):
        cfg = SynthConfig(t=3, epsilon=0.3, seed=12)
        problems, records = self._records(2, cfg)
        with pytest.raises(ValueError):
            sweep_exploration_size(problems, records, _explorer(0.3, t=3), [2, 4],
                                   ExploreConfig(nested_sampling=False))

    def test_singleton_sweep_equals_direct_build(self):
        cfg = SynthConfig(t=4, epsilon=0.3, seed=13)
        problems, records = self._records(8, cfg)
        explorer = _explorer(0.2, seed=13, t=4)
        (entry,) = sweep_exploration_size(problems, records, explorer, [4],
                                          ExploreConfig(temperature=0.7,
                                                        nested_sampling=True, seed=5))
        direct = build_granular_pairs(problems, records, explorer,
                                      ExploreConfig(k=4, temperature=0.7, seed=5),
                                      "full")
        assert entry.build.records == direct.records
        assert entry.k == 4

    def test_pits_monotone_in_k(self):
        cfg = SynthConfig(t=5, epsilon=0.3, seed=14)
        problems, records = self._records(25, cfg)
        entries = sweep_exploration_size(problems, records, _explorer(0.3, seed=14),
                                         [2, 4, 8],
                                         ExploreConfig(temperature=0.7,
                                                       nested_sampling=True, seed=2))
        assert [e.k for e in entries] == [2, 4, 8]
        for a, b in zip(entries, entries[1:]):
            for pit_small, pit_big in zip(a.pits, b.pits):
                if pit_big is None:
                    continue
                assert pit_small is not None
                assert pit_big >= pit_small
        means = [e.mean_pit_index for e in entries]
        assert means[0] <= means[-1]


# ---------------------------------------------------------------------------
# Frontier exploration against a serial per-record reference. The reference
# re-derives the rollouts and the pit reading one record and one step at a
# time through `genclient.sample`; only the re-pairing around a found pit
# (`_assemble_granular`, which exploration does not touch) is shared.


def _serial_table(problem, rejected, explorer, k, temperature, seed):
    sampling = SamplingConfig(n=k, temperature=temperature, seed=seed)
    table = []
    for i in range(1, len(rejected.steps) + 1):
        prompt = problem.question + "\n" + "\n".join(rejected.steps[:i])
        row = [(c, extract_answer(c, problem.style) == problem.gold_answer)
               for c in sample(explorer, prompt, sampling)]
        table.append(row)
        if not any(ok for _, ok in row):
            break
    return table


def _serial_pit(table, k, problem, seed):
    tallies = []
    for i, row in enumerate(table, start=1):
        wins = [c for c, ok in row[:k] if ok]
        tallies.append((len(wins), k))
        if wins:
            continue
        if i == 1:
            return PitResult(1, tuple(tallies), None)
        pool = [c for c, ok in table[i - 2][:k] if ok]
        rng = rng_for(seed, "rescue", problem.id, i, k)
        return PitResult(i, tuple(tallies), pool[int(rng.integers(0, len(pool)))])
    return PitResult(None, tuple(tallies), None)


def _serial_build(problems, d_pair, explorer, ks, temperature, seed, variant):
    """Per k in ks: the reference GranularBuild and pits, exploring at max(ks)."""
    by_id = {p.id: p for p in problems}
    tables = [_serial_table(by_id[r.problem_id], r.rejected, explorer, max(ks),
                            temperature, seed) for r in d_pair]
    out = []
    for k in ks:
        build, pits = GranularBuild(), []
        for idx, (rec, table) in enumerate(zip(d_pair, tables)):
            problem = by_id[rec.problem_id]
            pit = _serial_pit(table, k, problem, seed)
            pits.append(pit.pit_index)
            if pit.pit_index is None:
                build.dropped.append(DropEntry(rec.problem_id, idx, "no-pit"))
                continue
            try:
                build.records.append(_assemble_granular(problem, rec, pit, variant))
            except (ValueError, EmptyRationaleError) as e:
                build.failures.append(DropEntry(rec.problem_id, idx, f"assembly: {e}"))
        out.append((build, pits))
    return tables, out


def _outcome_pairs(seed, eps, n_problems=12, t=5):
    # 32 draws a problem: at eps <= 0.3 and t = 5 a problem misses a correct
    # draw with probability 0.832**32 < 0.3%, so nearly every problem pairs.
    cfg = SynthConfig(t=t, epsilon=eps, seed=seed)
    problems = [gen_problem(cfg, i) for i in range(n_problems)]
    rft = build_rft(problems, ProviderHandle.synthetic(cfg),
                    SamplingConfig(n=32, temperature=0.7, seed=seed))
    return problems, build_pairs(problems, rft.rft, rft.gen, PairingConfig())


def _counting_sample_batch(monkeypatch):
    calls = []
    original = genclient.sample_batch

    def counted(provider, prompts, cfg):
        calls.append(len(prompts))
        return original(provider, prompts, cfg)

    monkeypatch.setattr(genclient, "sample_batch", counted)
    return calls


def _synthetic_responder(explorer, fail=lambda prompt: False):
    """A completions endpoint that answers like the synthetic provider."""

    def respond(payload):
        if fail(payload["prompt"]):
            return 500, {}
        cfg = SamplingConfig(n=int(payload["n"]), temperature=payload["temperature"],
                             seed=payload.get("seed"))
        return 200, {"choices": [{"text": c} for c in
                                 sample(explorer, payload["prompt"], cfg)]}

    return respond


FRONTIER_CASES = [  # (seed, epsilon of the sampled pairs, explorer epsilon, k)
    (0, 0.3, 0.0, 1),
    (1, 0.2, 0.1, 3),
    (2, 0.2, 0.3, 4),
    (3, 0.3, 0.6, 2),
]


class TestFrontierMatchesSerial:
    @pytest.mark.parametrize("seed,pair_eps,eps,k", FRONTIER_CASES)
    def test_granular_pairs_and_rounds(self, monkeypatch, seed, pair_eps, eps, k):
        problems, d_pair = _outcome_pairs(seed, pair_eps)
        assert len(d_pair) >= 8
        explorer = _explorer(eps, seed=seed)
        cfg = ExploreConfig(k=k, temperature=0.7, seed=seed)
        for variant in ("full", "first-step", "reject-all"):
            tables, [(want, _)] = _serial_build(problems, d_pair, explorer, [k], 0.7,
                                                seed, variant)
            calls = _counting_sample_batch(monkeypatch)
            got = build_granular_pairs(problems, d_pair, explorer, cfg, variant)
            monkeypatch.undo()
            assert got == want
            # one batch per explored depth, covering every record that reached it
            assert len(calls) == max(len(t) for t in tables)
            assert calls == [sum(len(t) > i for t in tables) for i in range(len(calls))]
        assert explore_all(problems, d_pair, explorer, cfg) == tables

    @pytest.mark.parametrize("seed,pair_eps,eps,k", FRONTIER_CASES)
    def test_sweep(self, seed, pair_eps, eps, k):
        problems, d_pair = _outcome_pairs(seed, pair_eps)
        explorer = _explorer(eps, seed=seed)
        ks = sorted({1, k, 2 * k})
        _, want = _serial_build(problems, d_pair, explorer, ks, 0.7, seed, "full")
        entries = sweep_exploration_size(
            problems, d_pair, explorer, ks,
            ExploreConfig(temperature=0.7, nested_sampling=True, seed=seed))
        assert [e.k for e in entries] == ks
        for entry, (build, pits) in zip(entries, want):
            assert entry.build == build
            assert entry.pits == pits

    @pytest.mark.parametrize("seed,pair_eps,eps,k", FRONTIER_CASES[1:3])
    def test_pits_rows(self, tmp_path, seed, pair_eps, eps, k):
        problems, d_pair = _outcome_pairs(seed, pair_eps)
        write_dataset(problems, DatasetHeader(KIND_D), tmp_path / "problems.jsonl")
        write_dataset(d_pair, DatasetHeader(KIND_PAIR), tmp_path / "dpair.jsonl")
        assert cli.main(["--seed", str(seed), "--out", str(tmp_path), "explore",
                         "--problems-file", str(tmp_path / "problems.jsonl"),
                         "--dpair", str(tmp_path / "dpair.jsonl"),
                         "--k", str(k), "--epsilon", str(eps)]) == 0
        got = [json.loads(line) for line in
               (tmp_path / "pits.jsonl").read_text().splitlines()]
        # the CLI's synthetic explorer is seeded with --seed
        explorer = ProviderHandle.synthetic(SynthConfig(t=1, epsilon=eps, seed=seed))
        by_id = {p.id: p for p in problems}
        want = []
        for idx, rec in enumerate(d_pair):
            problem = by_id[rec.problem_id]
            table = _serial_table(problem, rec.rejected, explorer, k, 0.7, seed)
            pit = _serial_pit(table, k, problem, seed)
            want.append({"id": rec.problem_id, "record_index": idx,
                         "pit_index": pit.pit_index,
                         "per_step_success": [list(t) for t in pit.per_step_success],
                         "rescue_present": pit.rescue is not None})
        assert got == want

    def test_http_requests_overlap(self, stub_server):
        problems, d_pair = _outcome_pairs(1, 0.2)
        explorer = _explorer(0.1, seed=1)
        server = stub_server(_synthetic_responder(explorer), delay_s=0.02)
        cfg = ExploreConfig(k=3, temperature=0.7, seed=1)
        got = build_granular_pairs(problems, d_pair,
                                   ProviderHandle.http(server.url, max_in_flight=4), cfg)
        assert got == build_granular_pairs(problems, d_pair, explorer, cfg)
        assert 1 < server.peak_concurrency <= 4


def _distinct_records(errors_at, t=5, seed=16):
    """One outcome pair per problem, rejected side first wrong at errors_at[i]."""
    cfg = SynthConfig(t=t, epsilon=0.3, seed=seed)
    problems, records = [], []
    for i, e in enumerate(errors_at):
        p = gen_problem(cfg, i)
        problems.append(p)
        records.append(PairRecord(p.id, p.question, correct_rationale(p),
                                  trace_with_error(p, e), "outcome", None))
    return problems, records


class TestPerRecordFailures:
    def test_one_record_fails_from_step_two(self, stub_server):
        k = 3
        problems, d_pair = _distinct_records([3, 2, 3, 1, 4])
        exact = _explorer(0.0)
        failing = problems[2]
        server = stub_server(_synthetic_responder(
            exact, fail=lambda prompt: prompt.startswith(failing.question)
            and prompt.count("\n") >= 2))
        http = ProviderHandle.http(server.url, max_in_flight=4)
        cfg = ExploreConfig(k=k, seed=0)
        found = explore_all(problems, d_pair, http, cfg)
        err = found[2]
        assert isinstance(err, ExplorationError)
        assert str(err).startswith(f"provider failed at step 2 of {failing.id}: ")
        assert err.partial == [(k, k)]
        got = build_granular_pairs(problems, d_pair, http, cfg)
        assert got.failures == [DropEntry(failing.id, 2, str(err))]
        clean = build_granular_pairs(problems, d_pair, exact, cfg)
        assert got.records == [r for r in clean.records if r.problem_id != failing.id]
        assert got.dropped == clean.dropped

    def test_malformed_rejected_step_is_one_failure(self):
        problems, d_pair = _distinct_records([3, 2, 4])
        bad = d_pair[1]
        steps = list(bad.rejected.steps)
        steps[1] = "two plus two is five."
        d_pair[1] = dataclasses.replace(
            bad, rejected=dataclasses.replace(bad.rejected, steps=tuple(steps)))
        exact = _explorer(0.0)
        cfg = ExploreConfig(k=2, seed=0)
        got = build_granular_pairs(problems, d_pair, exact, cfg)
        (failure,) = got.failures
        assert failure.record_index == 1
        assert failure.reason.startswith(f"provider failed at step 2 of {bad.problem_id}: ")
        assert "step grammar" in failure.reason
        clean = build_granular_pairs(problems, [d_pair[0], d_pair[2]], exact, cfg)
        assert got.records == clean.records
        entries = sweep_exploration_size(
            problems, d_pair, exact, [1, 2],
            ExploreConfig(nested_sampling=True, seed=0))
        for entry in entries:
            assert entry.build.failures == [failure]
            assert entry.pits[1] is None


def test_explore_grades_each_distinct_rollout_once(monkeypatch):
    # A first-step error's wrong row is its table's first row, so the three
    # step-1 records reach their wrong row whatever the rollouts draw.
    errors_at = [3, 2, 3, 1, 4, 1, 1]
    problems, d_pair = _distinct_records(errors_at)
    explorer, k = _explorer(0.3), 4
    want = [_serial_table(p, r.rejected, explorer, k, 0.7, 0)
            for p, r in zip(problems, d_pair)]
    graded = []

    def counted(text, style):
        graded.append(text)
        return extract_answer(text, style)

    monkeypatch.setattr(pipeline, "extract_answer", counted)
    assert explore_all(problems, d_pair, explorer,
                       ExploreConfig(k=k, temperature=0.7, seed=0)) == want
    assert sorted(graded) == sorted(c for table in want for row in table
                                    for c in {c for c, _ in row})
    # a row from a prefix that already went wrong is k copies of one text
    wrong_rows = [table[e - 1] for table, e in zip(want, errors_at) if len(table) >= e]
    assert len(wrong_rows) >= 3
    assert all(len(row) == k and len({c for c, _ in row}) == 1 for row in wrong_rows)
    assert len(graded) < sum(len(row) for table in want for row in table)
