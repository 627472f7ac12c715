"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `PYTHONPATH=src python -m pytest tests/test_acceptance.py -v -s`
from the repo root to see the per-criterion lines. Expected values marked as
derived were computed from the independent oracles embedded here (analytic
formulas, brute-force scans, finite differences), not from the code under test.
"""

import dataclasses
import json
import math
import os
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import steppref
from steppref.corpus import PairRecord, Problem, Rationale
from steppref.evalmetrics import (
    SampleSet,
    answer_stats,
    diversity,
    maj_at_k,
    pass_at_k,
    top1_accuracy,
)
from steppref.genclient import ProviderHandle, SamplingConfig
from steppref.pipeline import (
    ExploreConfig,
    PairingConfig,
    build_granular_pairs,
    build_pairs,
    build_rft,
    explore_first_pit,
    sweep_exploration_size,
)
from steppref.preflearn import (
    ObjectiveConfig,
    TokenizedPair,
    ToyPolicy,
    dpo_loss,
    fit_mle,
    greedy_decode,
    objective_loss,
    reward_accuracy,
    tokenize_pair_records,
    tokenize_text,
    train,
)
from steppref.synthworld import SynthConfig, gen_problem, simulate_solution

from oracles import lev_oracle, oracle_first_error
from test_golden import GOLDEN, chain_digests, processes
from test_preflearn import fd_max_rel_err, kto_fixed_z_err, rand_pair, rand_policy


def _passed(n, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {n} ({name}): PASS{suffix}")


def rejected_traces(cfg, count, one_per_problem=True, max_draws=50):
    """(problem, trace) fixtures whose rationale is labeled incorrect."""
    out = []
    idx = 0
    draw = 0
    while len(out) < count:
        p = gen_problem(cfg, idx)
        if one_per_problem:
            idx += 1
            for d in range(max_draws):
                tr = simulate_solution(p, cfg, draw_seed=d)
                if tr.true_first_error is not None:
                    out.append((p, tr))
                    break
        else:
            tr = simulate_solution(p, cfg, draw_seed=draw)
            draw += 1
            if draw % 20 == 0:
                idx += 1
            if tr.true_first_error is not None:
                out.append((p, tr))
    return out


def test_acceptance_01_risk_law():
    start = time.perf_counter()
    draws = 2000
    for eps in (0.1, 0.3, 0.5):
        for t in (2, 5):
            cfg = SynthConfig(t=t, epsilon=eps, seed=101)
            p = gen_problem(cfg, 0)
            ok = sum(
                simulate_solution(p, cfg, d).true_first_error is None
                for d in range(draws)
            )
            q = (1 - eps) ** t
            bound = 3 * math.sqrt(q * (1 - q) / draws)
            assert abs(ok / draws - q) <= bound, (eps, t, ok / draws, q)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(1, "risk-law", f"{elapsed:.1f}s")


def test_acceptance_02_pit_detection_soundness():
    start = time.perf_counter()
    cfg = SynthConfig(t=5, epsilon=0.25, seed=102)
    traces = rejected_traces(cfg, 500, one_per_problem=False)
    noisy = ProviderHandle.synthetic(SynthConfig(t=5, epsilon=0.25, seed=7))
    exact = ProviderHandle.synthetic(SynthConfig(t=5, epsilon=0.0, seed=7))
    for i, (p, tr) in enumerate(traces):
        e = tr.true_first_error
        assert oracle_first_error(p, tr.rationale) == e
        pit = explore_first_pit(p, tr.rationale, noisy, ExploreConfig(k=3, seed=i))
        assert pit.pit_index is not None and pit.pit_index <= e
        pit0 = explore_first_pit(p, tr.rationale, exact, ExploreConfig(k=2, seed=i))
        assert pit0.pit_index == e
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(2, "pit-detection soundness", f"500 traces, {elapsed:.1f}s")


def test_acceptance_03_pit_detection_calibration():
    eps, t, k = 0.2, 5, 4
    cfg = SynthConfig(t=t, epsilon=eps, seed=103)
    explorer = ProviderHandle.synthetic(SynthConfig(t=t, epsilon=eps, seed=11))
    traces = rejected_traces(cfg, 500, one_per_problem=False)

    def analytic_exact(e):
        # detection exactly at e needs a rescue at every earlier prefix
        prob = 1.0
        for i in range(1, e):
            p_success = (1 - eps) ** (t - i)
            prob *= 1 - (1 - p_success) ** k
        return prob

    hits = 0
    expected = 0.0
    for i, (p, tr) in enumerate(traces):
        e = tr.true_first_error
        pit = explore_first_pit(p, tr.rationale, explorer,
                                ExploreConfig(k=k, temperature=0.7, seed=i))
        hits += pit.pit_index == e
        expected += analytic_exact(e)
    empirical = hits / len(traces)
    analytic = expected / len(traces)
    assert abs(empirical - analytic) <= 0.05, (empirical, analytic)
    _passed(3, "pit-detection calibration",
            f"empirical {empirical:.3f} vs analytic {analytic:.3f}")


def test_acceptance_04_nested_k_monotonicity():
    cfg = SynthConfig(t=6, epsilon=0.3, seed=21)
    pairs_fixtures = rejected_traces(cfg, 300, one_per_problem=True)
    problems = [p for p, _ in pairs_fixtures]
    zero = SynthConfig(t=6, epsilon=0.0, value_range=cfg.value_range, seed=cfg.seed)
    records = [
        PairRecord(p.id, p.question,
                   simulate_solution(p, zero, 0).rationale,
                   dataclasses.replace(tr.rationale, conclusion=None),
                   "outcome", None)
        for p, tr in pairs_fixtures
    ]
    explorer = ProviderHandle.synthetic(SynthConfig(t=6, epsilon=0.3, seed=21))
    ks = [4, 8, 16, 32]
    entries = sweep_exploration_size(
        problems, records, explorer, ks,
        ExploreConfig(temperature=0.7, nested_sampling=True, seed=21),
    )
    assert [e.k for e in entries] == ks
    for a, b in zip(entries, entries[1:]):
        for pit_small, pit_big in zip(a.pits, b.pits):
            if pit_big is None:
                continue  # pit may vanish as k grows
            assert pit_small is not None and pit_big >= pit_small
    means = [e.mean_pit_index for e in entries]
    assert all(m is not None for m in means)
    assert all(b > a for a, b in zip(means, means[1:])), means
    _passed(4, "nested-k monotonicity",
            "means " + " -> ".join(f"{m:.2f}" for m in means))


def test_acceptance_05_pairing_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    words = [f"w{i}" for i in range(9)]

    def rand_text():
        return " ".join(words[int(i)] for i in rng.integers(0, 9, size=rng.integers(1, 9)))

    for trial in range(200):
        nc, ni = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        corrects = [
            Rationale((rand_text(),), "The answer is 7.", "SFT", "correct", "7")
            for _ in range(nc)
        ]
        incorrects = [
            Rationale((rand_text(),), "The answer is 9.", "SFT", "incorrect", "9")
            for _ in range(ni)
        ]
        problem = Problem(id="p1", question="q", gold_answer="7")
        from steppref.corpus import RationaleRecord

        pairs = build_pairs(
            [problem],
            [RationaleRecord("p1", r) for r in corrects],
            [RationaleRecord("p1", r) for r in incorrects],
            PairingConfig(max_pairs_per_problem=8),
        )
        # brute-force greedy replay on the oracle distance
        used: set[int] = set()
        expected = []
        for c in corrects:
            if len(expected) == 8:
                break
            best, best_d = -1, -1
            for j, inc in enumerate(incorrects):
                if j in used:
                    continue
                d = lev_oracle(" ".join(c.steps).split(), " ".join(inc.steps).split())
                if d > best_d:
                    best, best_d = j, d
            if best < 0:
                break
            used.add(best)
            expected.append((c.steps, incorrects[best].steps))
        assert [(p.chosen.steps, p.rejected.steps) for p in pairs] == expected
        assert len(pairs) <= 8
        assert len(pairs) == len(expected) == len(used)  # no rationale reused
        if len({r.steps for r in incorrects}) == len(incorrects):
            seen = [p.rejected.steps for p in pairs]
            assert len(set(seen)) == len(seen)
        assert all(p.rejected.conclusion is None for p in pairs)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(5, "pairing correctness", f"200 fixtures, {elapsed:.1f}s")


def test_acceptance_06_objective_math():
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    # pinned values at policy = ref
    pol = rand_policy(rng, alphabet=6, order=2)
    batch = [rand_pair(rng, alphabet=6) for _ in range(6)]
    loss, _ = dpo_loss(pol, pol, batch, beta=0.5)
    assert abs(loss - math.log(2)) <= 1e-12
    loss_ipo, _ = objective_loss(pol, pol, batch, ObjectiveConfig("ipo", tau=0.01))
    assert loss_ipo == 2500.0

    ipo = ObjectiveConfig("ipo", tau=0.5)
    kto = ObjectiveConfig("kto", beta=0.6, kto_weights=(1.0, 1.3))
    for trial in range(50):
        alphabet = int(rng.integers(3, 9))
        order = int(rng.integers(1, 3))
        policy = rand_policy(rng, alphabet=alphabet, order=order)
        ref = rand_policy(rng, alphabet=alphabet, order=order)
        fd_batch = [rand_pair(rng, alphabet=alphabet) for _ in range(3)]
        err = fd_max_rel_err(policy, fd_batch,
                             lambda p: dpo_loss(p, ref, fd_batch, 0.7))
        assert err < 1e-4, ("dpo", trial, err)
        err = fd_max_rel_err(policy, fd_batch,
                             lambda p: objective_loss(p, ref, fd_batch, ipo))
        assert err < 1e-4, ("ipo", trial, err)
        err = kto_fixed_z_err(policy, ref, fd_batch, kto)
        assert err < 1e-4, ("kto", trial, err)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(6, "objective math", f"50 gradchecks per objective, {elapsed:.1f}s")


def test_acceptance_07_winrate_convergence():
    rng = np.random.default_rng(42)
    alphabet, order = 8, 2
    terminal = alphabet - 1
    pairs = []
    seen = set()
    while len(pairs) < 50:
        x = tuple(int(v) for v in rng.integers(0, alphabet - 1,
                                               size=int(rng.integers(2, 5))))
        y_plus = tuple(int(v) for v in rng.integers(0, alphabet - 1,
                                                    size=int(rng.integers(3, 7))))
        y_plus = y_plus + (terminal,)
        y_minus = tuple(int(v) for v in rng.integers(0, alphabet - 1,
                                                     size=int(rng.integers(3, 7))))
        if y_plus[:-1] == y_minus or (x, y_plus, y_minus) in seen:
            continue
        seen.add((x, y_plus, y_minus))
        pairs.append(TokenizedPair(x, y_plus, y_minus))
    ref = ToyPolicy.zeros(alphabet, order)
    policy, history = train(ref.copy(), ref, pairs, ObjectiveConfig("dpo", beta=1.0),
                            epochs=200, lr=0.5)
    final = reward_accuracy(policy, ref, pairs)
    assert final >= 0.95, final
    _passed(7, "winrate convergence", f"reward accuracy {final:.3f}")


def _direction_run(seed):
    alphabet, order, t = 1024, 1, 5
    value_range = (2, 5)
    gen_cfg = SynthConfig(t=t, epsilon=0.3, value_range=value_range, seed=seed)
    exp_cfg = SynthConfig(t=t, epsilon=0.05, value_range=value_range, seed=seed)
    problems = [gen_problem(gen_cfg, i) for i in range(30)]
    build = build_rft(problems, ProviderHandle.synthetic(gen_cfg),
                      SamplingConfig(n=12, temperature=0.7, seed=seed))
    pairs = build_pairs(problems, build.rft, build.gen, PairingConfig())
    granular = build_granular_pairs(problems, pairs, ProviderHandle.synthetic(exp_cfg),
                                    ExploreConfig(k=4, temperature=0.7, seed=seed),
                                    "full")
    tok_outcome, _ = tokenize_pair_records(pairs, alphabet)
    tok_granular, _ = tokenize_pair_records(granular.records, alphabet)
    by_id = {p.id: p for p in problems}
    gen_examples = []
    for rec in build.gen:
        x = tuple(tokenize_text(by_id[rec.problem_id].question, alphabet))
        y = tuple(tokenize_text(rec.rationale.text(), alphabet)) + (alphabet - 1,)
        gen_examples.append((x, y))
    ref = fit_mle(gen_examples, alphabet, order, smoothing=0.5)
    cfg = ObjectiveConfig("dpo", beta=0.5)
    policy_outcome, _ = train(ref.copy(), ref, tok_outcome, cfg, epochs=100, lr=0.4)
    policy_granular, _ = train(ref.copy(), ref, tok_granular, cfg, epochs=100, lr=0.4)
    zero = SynthConfig(t=t, epsilon=0.0, value_range=value_range, seed=seed)
    golds = {p.id: simulate_solution(p, zero, 0).rationale for p in problems}

    def solve_rate(policy):
        solved = 0
        for p in problems:
            gold = golds[p.id]
            x = tuple(tokenize_text(p.question + "\n" + gold.steps[0], alphabet))
            want = tuple(tokenize_text(" ".join(gold.steps[1:]), alphabet))
            solved += greedy_decode(policy, x, max_len=len(want)) == want
        return solved / len(problems)

    return solve_rate(policy_outcome), solve_rate(policy_granular)


def test_acceptance_08_granular_beats_outcome_direction():
    start = time.perf_counter()
    results = [_direction_run(seed) for seed in range(5)]
    outcome = [o for o, _ in results]
    granular = [g for _, g in results]
    assert statistics.median(granular) >= statistics.median(outcome), results
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _passed(
        8, "granular-vs-outcome direction",
        f"median granular {statistics.median(granular):.3f} >= "
        f"outcome {statistics.median(outcome):.3f}, {elapsed:.0f}s",
    )


def test_acceptance_09_metrics_oracles():
    rng = np.random.default_rng(109)
    for trial in range(100):
        n_sets = int(rng.integers(2, 8))
        n_preds = int(rng.integers(2, 12))
        sets = []
        for i in range(n_sets):
            gold = str(int(rng.integers(0, 5)))
            preds = tuple(str(int(v)) for v in rng.integers(0, 5, size=n_preds))
            sets.append(SampleSet(f"p{i}", gold, preds))
        values = []
        for k in range(1, n_preds + 1):
            # brute-force oracles
            want_pass = sum(s.gold_answer in s.predictions[:k] for s in sets) / n_sets
            hits = 0
            for s in sets:
                first = s.predictions[:k]
                counts = Counter(first)
                best = max(counts.values())
                modal = min((first.index(a), a) for a, c in counts.items()
                            if c == best)[1]
                hits += modal == s.gold_answer
            want_maj = hits / n_sets
            got_pass = pass_at_k(sets, k)
            got_maj = maj_at_k(sets, k)
            assert abs(got_pass - want_pass) <= 1e-12
            assert abs(got_maj - want_maj) <= 1e-12
            values.append(got_pass)
            for s, (uniq, dom) in zip(sets, answer_stats(sets, k)):
                counts = Counter(s.predictions[:k])
                assert uniq == len(counts)
                assert abs(dom - max(counts.values()) / k) <= 1e-12
        assert values == sorted(values)  # pass@k monotone
        assert maj_at_k(sets, 1) == pass_at_k(sets, 1) == top1_accuracy(sets)
        emb = rng.normal(size=(int(rng.integers(2, 7)), 3))
        total, n = 0.0, len(emb)
        for j in range(n - 1):
            for k2 in range(j + 1, n):
                total += float(np.linalg.norm(emb[j] - emb[k2]))
        want = 2.0 * total / (n * (n - 1))
        assert abs(diversity(emb) - want) <= 1e-12
    _passed(9, "metrics oracles", "100 fixtures")


def _cli_env():
    """The inherited environment, with PYTHONPATH led by the absolute
    directory holding the imported `steppref`, so the child runs the code
    under test from any cwd (a relative PYTHONPATH would not resolve)."""
    env = dict(os.environ)
    pkg_root = str(Path(steppref.__file__).resolve().parent.parent)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = pkg_root + (os.pathsep + inherited if inherited else "")
    return env


def test_acceptance_10_end_to_end_reproducibility(tmp_path):
    """The golden chain, one `python -m steppref` process per stage, writes
    the golden bytes, as the in-process run of test_golden must too."""
    launch = processes([sys.executable, "-m", "steppref"], env=_cli_env(), timeout=300)
    digests = chain_digests(tmp_path / "run", launch)
    assert digests == json.loads(GOLDEN.read_text())
    _passed(10, "end-to-end reproducibility", f"{len(digests)} files match the golden table")
