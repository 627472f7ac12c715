import math

import numpy as np
import pytest

from steppref.corpus import PairRecord, Rationale
from steppref.preflearn import (
    DivergenceError,
    DomainError,
    ObjectiveConfig,
    TokenizedPair,
    ToyPolicy,
    context_indices,
    dpo_loss,
    fit_mle,
    greedy_decode,
    objective_loss,
    reward_accuracy,
    seq_logprob,
    tokenize_pair_records,
    tokenize_text,
    train,
)


def rand_policy(rng, alphabet=6, order=2):
    pol = ToyPolicy.zeros(alphabet, order)
    pol.logits = rng.normal(size=pol.logits.shape)
    return pol


def rand_pair(rng, alphabet=6, max_len=6):
    def seq():
        return tuple(int(v) for v in rng.integers(0, alphabet,
                                                  size=int(rng.integers(1, max_len + 1))))
    return TokenizedPair(seq(), seq(), seq())


def seq_logprob_oracle(policy, x, y):
    """Independent chain-rule evaluation, one softmax per position."""
    total = 0.0
    seq = list(x)
    for tok in y:
        window = tuple(seq[-policy.order:])
        probs = policy.next_probs(window)
        total += math.log(probs[tok])
        seq.append(tok)
    return total


class TestSeqLogprob:
    def test_uniform_policy(self):
        pol = ToyPolicy.zeros(2, 1)
        got = seq_logprob(pol, (0,), (1, 0, 1))
        assert got == pytest.approx(3 * math.log(0.5), abs=1e-12)

    def test_empty_y_is_zero(self):
        pol = ToyPolicy.zeros(3, 2)
        assert seq_logprob(pol, (0, 1), ()) == 0.0

    def test_matches_chain_rule_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            pol = rand_policy(rng)
            pair = rand_pair(rng)
            want = seq_logprob_oracle(pol, pair.x, pair.y_plus)
            assert seq_logprob(pol, pair.x, pair.y_plus) == pytest.approx(want, abs=1e-12)

    def test_out_of_alphabet(self):
        pol = ToyPolicy.zeros(3, 1)
        with pytest.raises(DomainError):
            seq_logprob(pol, (0,), (3,))

    def test_always_nonpositive(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pol = rand_policy(rng)
            pair = rand_pair(rng)
            assert seq_logprob(pol, pair.x, pair.y_minus) <= 0.0


def row_oracle(x, y, j, order, alphabet):
    """The base-(alphabet+1) value of the `order` tokens before y[j] in
    (pad,)*order + x + y, where the pad symbol is `alphabet`."""
    window = ((alphabet,) * order + tuple(x) + tuple(y))[len(x) + j: len(x) + j + order]
    return sum(tok * (alphabet + 1) ** (order - 1 - m) for m, tok in enumerate(window))


class TestBadToken:
    # The first token outside the alphabet, in x1, y1, x2, y2, ... order, is
    # the one named, wherever it sits.
    @pytest.mark.parametrize("second,named", [
        (TokenizedPair((0, 9), (8,), (-1,)), 9),
        (TokenizedPair((0, 1), (2, 8), (-1,)), 8),
        (TokenizedPair((0, 1), (2,), (-3, 7)), -3),
    ], ids=["x", "y-plus", "y-minus"])
    def test_message_names_the_first_bad_token(self, second, named):
        pol = ToyPolicy.zeros(5, 2)
        batch = [TokenizedPair((0, 1), (2, 3), (4,)), second]
        want = f"token {named} outside alphabet of size 5"
        calls = [lambda: objective_loss(pol, pol, batch, ObjectiveConfig("dpo")),
                 lambda: reward_accuracy(pol, pol, batch),
                 lambda: train(pol, pol, batch, ObjectiveConfig("ipo", tau=0.5), 1, 0.1),
                 lambda: fit_mle([(p.x, y) for p in batch for y in (p.y_plus, p.y_minus)],
                                 5, 2)]
        for call in calls:
            with pytest.raises(DomainError) as err:
                call()
            assert str(err.value) == want

    def test_seq_logprob_and_greedy_decode(self):
        pol = ToyPolicy.zeros(5, 1)
        for call, named in ((lambda: seq_logprob(pol, (0, 5), (7,)), 5),
                            (lambda: seq_logprob(pol, (0, 1), (2, -2)), -2),
                            (lambda: greedy_decode(pol, (1, 6, 7), 3), 6)):
            with pytest.raises(DomainError) as err:
                call()
            assert str(err.value) == f"token {named} outside alphabet of size 5"


class TestRowIndex:
    def test_matches_padded_window_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(1000):
            alphabet, order = int(rng.integers(2, 41)), int(rng.integers(1, 5))
            x = tuple(int(v) for v in rng.integers(0, alphabet, size=int(rng.integers(0, 4))))
            y = tuple(int(v) for v in rng.integers(0, alphabet, size=int(rng.integers(0, 7))))
            # the row index reads no logits; a full table at alphabet 40 and
            # order 4 would take about 900 MB
            pol = object.__new__(ToyPolicy)
            pol.alphabet_size, pol.order = alphabet, order
            rows = context_indices(x, y, order, alphabet)
            assert rows.dtype == np.int64 and rows.shape == (len(y),)
            for j in range(len(y)):
                want = row_oracle(x, y, j, order, alphabet)
                assert rows[j] == want
                assert pol.context_index(x + y[:j]) == want


class TestNormalization:
    def test_next_probs_sum_to_one(self):
        rng = np.random.default_rng(2)
        pol = rand_policy(rng, alphabet=8, order=2)
        for _ in range(50):
            window = tuple(int(v) for v in rng.integers(0, 8, size=int(rng.integers(0, 3))))
            assert pol.next_probs(window).sum() == pytest.approx(1.0, abs=1e-12)


def kto_reference_point(policy, ref, batch, beta):
    """KTO's z: the clamped mean implicit reward over the batch."""
    rs = [beta * (seq_logprob(policy, p.x, p.y_plus) - seq_logprob(ref, p.x, p.y_plus))
          for p in batch]
    rs += [beta * (seq_logprob(policy, p.x, p.y_minus) - seq_logprob(ref, p.x, p.y_minus))
           for p in batch]
    return max(0.0, sum(rs) / len(rs))


def touched_cells(policy, batch):
    rows = set()
    for pair in batch:
        for y in (pair.y_plus, pair.y_minus):
            rows.update(
                int(c) for c in context_indices(pair.x, y, policy.order,
                                                policy.alphabet_size)
            )
    return sorted(rows)


def fd_max_rel_err(policy, batch, loss_fn, eps=1e-5):
    _, grad = loss_fn(policy)
    worst = 0.0
    for c in touched_cells(policy, batch):
        for v in range(policy.alphabet_size):
            orig = policy.logits[c, v]
            policy.logits[c, v] = orig + eps
            lp, _ = loss_fn(policy)
            policy.logits[c, v] = orig - eps
            lm, _ = loss_fn(policy)
            policy.logits[c, v] = orig
            fd = (lp - lm) / (2 * eps)
            rel = abs(grad[c, v] - fd) / max(abs(grad[c, v]), abs(fd), 1e-5)
            worst = max(worst, rel)
    return worst


class TestDpoLoss:
    def test_policy_equals_ref_is_ln2(self):
        rng = np.random.default_rng(3)
        pol = rand_policy(rng)
        batch = [rand_pair(rng) for _ in range(5)]
        loss, grad = dpo_loss(pol, pol, batch, beta=0.7)
        assert abs(loss - math.log(2)) < 1e-12
        assert np.abs(grad).max() > 0  # gradient generally nonzero at delta=0

    def test_constructed_delta_two(self):
        # order 1, alphabet 2: policy row [2, 0] vs uniform ref makes the
        # chosen/rejected log-ratio difference exactly 2.
        pol = ToyPolicy.zeros(2, 1)
        pol.logits[pol.context_index((0,))] = np.array([2.0, 0.0])
        ref = ToyPolicy.zeros(2, 1)
        batch = [TokenizedPair((0,), (0,), (1,))]
        loss, _ = dpo_loss(pol, ref, batch, beta=1.0)
        assert loss == pytest.approx(math.log(1 + math.exp(-2)), abs=1e-9)
        assert loss == pytest.approx(0.126928, abs=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            pol, ref = rand_policy(rng), rand_policy(rng)
            batch = [rand_pair(rng) for _ in range(4)]
            err = fd_max_rel_err(pol, batch, lambda p: dpo_loss(p, ref, batch, 0.7))
            assert err < 1e-4

    def test_monotone_surrogate(self):
        # Raising log pi(y+|x) through a context untouched by y- strictly
        # decreases the loss.
        pol = ToyPolicy.zeros(3, 1)
        ref = ToyPolicy.zeros(3, 1)
        batch = [TokenizedPair((0,), (1, 1), (2, 2))]
        base, _ = dpo_loss(pol, ref, batch, beta=1.0)
        bumped = pol.copy()
        bumped.logits[bumped.context_index((1,)), 1] += 0.25
        after, _ = dpo_loss(bumped, ref, batch, beta=1.0)
        assert after < base

    def test_beta_required_positive(self):
        pol = ToyPolicy.zeros(2, 1)
        with pytest.raises(ValueError):
            dpo_loss(pol, pol, [TokenizedPair((0,), (0,), (1,))], beta=0.0)


class TestIpoLoss:
    def test_policy_equals_ref_value(self):
        rng = np.random.default_rng(5)
        pol = rand_policy(rng)
        batch = [rand_pair(rng) for _ in range(3)]
        loss, _ = objective_loss(pol, pol, batch, ObjectiveConfig("ipo", tau=0.01))
        assert loss == 2500.0
        loss2, _ = objective_loss(pol, pol, batch, ObjectiveConfig("ipo", tau=0.5))
        assert loss2 == pytest.approx(1.0 / (4 * 0.5**2), abs=1e-12)

    def test_exact_root(self):
        # delta = 1/(2 tau) = 1 via the same construction as the DPO case.
        pol = ToyPolicy.zeros(2, 1)
        pol.logits[pol.context_index((0,))] = np.array([1.0, 0.0])
        ref = ToyPolicy.zeros(2, 1)
        batch = [TokenizedPair((0,), (0,), (1,))]
        loss, _ = objective_loss(pol, ref, batch, ObjectiveConfig("ipo", tau=0.5))
        assert loss < 1e-20

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        pol, ref = rand_policy(rng), rand_policy(rng)
        batch = [rand_pair(rng) for _ in range(4)]
        loss, _ = objective_loss(pol, ref, batch, ObjectiveConfig("ipo", tau=0.3))
        assert loss >= 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            pol, ref = rand_policy(rng), rand_policy(rng)
            batch = [rand_pair(rng) for _ in range(4)]
            cfg = ObjectiveConfig("ipo", tau=0.5)
            err = fd_max_rel_err(pol, batch, lambda p: objective_loss(p, ref, batch, cfg))
            assert err < 1e-4


class TestKtoLoss:
    def test_policy_equals_ref_value(self):
        rng = np.random.default_rng(8)
        pol = rand_policy(rng)
        batch = [rand_pair(rng) for _ in range(3)]
        cfg = ObjectiveConfig("kto", beta=0.5, kto_weights=(1.0, 1.0))
        loss, _ = objective_loss(pol, pol, batch, cfg)
        assert loss == pytest.approx(1.0, abs=1e-12)
        cfg = ObjectiveConfig("kto", beta=0.5, kto_weights=(0.4, 1.2))
        loss, _ = objective_loss(pol, pol, batch, cfg)
        assert loss == pytest.approx(0.5 * (0.4 + 1.2), abs=1e-12)

    def test_saturation_drives_loss_to_zero(self):
        # policy and reference disagree violently, so the chosen reward is
        # hugely positive and the rejected hugely negative
        pol = ToyPolicy.zeros(2, 1)
        ref = ToyPolicy.zeros(2, 1)
        row = pol.context_index((0,))
        pol.logits[row] = np.array([30.0, -30.0])
        ref.logits[row] = np.array([-30.0, 30.0])
        batch = [TokenizedPair((0,), (0,), (1,))]
        cfg = ObjectiveConfig("kto", beta=1.0, kto_weights=(1.0, 1.0))
        loss, _ = objective_loss(pol, ref, batch, cfg, reference_point=0.0)
        assert loss < 1e-6

    def test_gradient_matches_finite_differences_fixed_z(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            pol, ref = rand_policy(rng), rand_policy(rng)
            batch = [rand_pair(rng) for _ in range(4)]
            # pin z at its unperturbed value: no gradient flows through it
            cfg = ObjectiveConfig("kto", beta=0.6, kto_weights=(1.0, 1.3))
            z = kto_reference_point(pol, ref, batch, cfg.beta)
            err = fd_max_rel_err(
                pol, batch,
                lambda p: objective_loss(p, ref, batch, cfg, reference_point=z),
            )
            assert err < 1e-4


class TestRewardAccuracy:
    def test_policy_equals_ref_all_ties(self):
        rng = np.random.default_rng(10)
        pol = rand_policy(rng)
        batch = [rand_pair(rng) for _ in range(6)]
        assert reward_accuracy(pol, pol, batch) == 0.0

    def test_degenerate_equal_sequences(self):
        rng = np.random.default_rng(11)
        pol, ref = rand_policy(rng), rand_policy(rng)
        batch = [TokenizedPair((0,), (1, 2), (1, 2)) for _ in range(4)]
        assert reward_accuracy(pol, ref, batch) == 0.0

    def test_hand_computed_four_pair_fixture(self):
        # order 1, alphabet 2; deltas by hand: +1, -1, -0.5, +0.5 -> 0.5.
        pol = ToyPolicy.zeros(2, 1)
        ref = ToyPolicy.zeros(2, 1)
        pol.logits[pol.context_index((0,))] = np.array([1.0, 0.0])
        ref.logits[ref.context_index((1,))] = np.array([0.5, 0.0])
        batch = [
            TokenizedPair((0,), (0,), (1,)),
            TokenizedPair((0,), (1,), (0,)),
            TokenizedPair((1,), (0,), (1,)),
            TokenizedPair((1,), (1,), (0,)),
        ]
        assert reward_accuracy(pol, ref, batch) == 0.5

    def test_bounds(self):
        rng = np.random.default_rng(12)
        pol, ref = rand_policy(rng), rand_policy(rng)
        batch = [rand_pair(rng) for _ in range(9)]
        acc = reward_accuracy(pol, ref, batch)
        assert 0.0 <= acc <= 1.0


# ---------------------------------------------------------------------------
# The per-pair loss loop that the one loss pass replaced, kept as the
# reference the pass must match bit for bit: per-sequence kernels, scalar
# per-pair formulas, and a gradient accumulated sequence by sequence.


def loop_seq_logprob(logits, ctx, tok):
    rows = logits[ctx]
    m = rows.max(axis=1, keepdims=True)
    lsm = rows - m - np.log(np.exp(rows - m).sum(axis=1, keepdims=True))
    return float(lsm[np.arange(ctx.shape[0]), tok].sum())


def loop_add_seq_grad(logits, ctx, tok, coef, grad):
    rows = logits[ctx]
    m = rows.max(axis=1, keepdims=True)
    e = np.exp(rows - m)
    probs = e / e.sum(axis=1, keepdims=True)
    delta = -coef * probs
    delta[np.arange(ctx.shape[0]), tok] += coef
    np.add.at(grad, ctx, delta)


def loop_sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def loop_sequences(policy, ref, batch):
    """Per pair, (ctx, tok, log pi, log pi_ref) of the chosen and the rejected."""
    out = []
    for pair in batch:
        sides = []
        for y in (pair.y_plus, pair.y_minus):
            ctx = context_indices(pair.x, y, policy.order, policy.alphabet_size)
            tok = np.asarray(y, dtype=np.int64)
            sides.append((ctx, tok, loop_seq_logprob(policy.logits, ctx, tok),
                          loop_seq_logprob(ref.logits, ctx, tok)))
        out.append(sides)
    return out


def loop_loss(policy, ref, batch, cfg, reference_point=None):
    seqs = loop_sequences(policy, ref, batch)
    m = len(seqs)
    grad = np.zeros_like(policy.logits)
    total = 0.0
    if cfg.objective == "kto":
        lam_c, lam_r = cfg.kto_weights
        beta = cfg.beta
        rewards_p = [beta * (p[2] - p[3]) for p, _ in seqs]
        rewards_m = [beta * (n[2] - n[3]) for _, n in seqs]
        if reference_point is None:
            z = max(0.0, (sum(rewards_p) + sum(rewards_m)) / (2 * m))
        else:
            z = reference_point
        for (p, n), r_p, r_m in zip(seqs, rewards_p, rewards_m):
            s_p = loop_sigmoid(beta * (r_p - z))
            s_m = loop_sigmoid(beta * (z - r_m))
            total += lam_c * (1.0 - s_p) + lam_r * (1.0 - s_m)
            coef_p = -lam_c * beta * beta * s_p * (1.0 - s_p) / m
            coef_m = lam_r * beta * beta * s_m * (1.0 - s_m) / m
            loop_add_seq_grad(policy.logits, p[0], p[1], coef_p, grad)
            loop_add_seq_grad(policy.logits, n[0], n[1], coef_m, grad)
        return total / m, grad
    for p, n in seqs:
        delta = (p[2] - p[3]) - (n[2] - n[3])
        if cfg.objective == "dpo":
            total += float(np.logaddexp(0.0, -cfg.beta * delta))
            coef = -cfg.beta * loop_sigmoid(-cfg.beta * delta) / m
        else:
            miss = delta - 1.0 / (2.0 * cfg.tau)
            total += miss * miss
            coef = 2.0 * miss / m
        loop_add_seq_grad(policy.logits, p[0], p[1], coef, grad)
        loop_add_seq_grad(policy.logits, n[0], n[1], -coef, grad)
    return total / m, grad


def loop_accuracy(policy, ref, batch):
    wins = sum(p[2] - p[3] - n[2] + n[3] > 0 for p, n in loop_sequences(policy, ref, batch))
    return wins / len(batch)


def loop_train(policy, ref, batch, cfg, epochs, lr):
    policy = policy.copy()
    history = []
    for epoch in range(1, epochs + 1):
        loss, grad = loop_loss(policy, ref, batch, cfg)
        history.append((epoch, loss, loop_accuracy(policy, ref, batch)))
        policy.logits -= lr * grad
    return policy, history


LOOP_CASES = {
    "dpo": (ObjectiveConfig("dpo", beta=0.7), None),
    "ipo": (ObjectiveConfig("ipo", tau=0.5), None),
    "kto": (ObjectiveConfig("kto", beta=0.6, kto_weights=(1.0, 1.3)), None),
    "kto-pinned-z": (ObjectiveConfig("kto", beta=0.6, kto_weights=(0.8, 1.2)), 0.05),
}


def loop_batches(seed, trials=12):
    """Random policies and batches over small and large alphabets; every
    batch holds sequences longer than 8 tokens, past numpy's unrolled sum,
    and a pair whose two sides are equal, an exact tie up to rounding."""
    rng = np.random.default_rng(seed)
    shapes = [(3, 1), (3, 2), (8, 2), (32, 2), (200, 1)]
    for trial in range(trials):
        alphabet, order = shapes[trial % len(shapes)]
        pol = rand_policy(rng, alphabet=alphabet, order=order)
        ref = rand_policy(rng, alphabet=alphabet, order=order)
        batch = [rand_pair(rng, alphabet=alphabet, max_len=20)
                 for _ in range(int(rng.integers(1, 8)))]
        batch.append(rand_pair(rng, alphabet=alphabet, max_len=39))
        while max(len(batch[-1].y_plus), len(batch[-1].y_minus)) <= 8:
            batch[-1] = rand_pair(rng, alphabet=alphabet, max_len=39)
        batch.insert(0, TokenizedPair(batch[0].x, batch[0].y_plus, batch[0].y_plus))
        yield pol, ref, batch


class TestOnePassMatchesLoop:
    @pytest.mark.parametrize("case", list(LOOP_CASES))
    def test_loss_gradient_and_accuracy(self, case):
        cfg, z = LOOP_CASES[case]
        for pol, ref, batch in loop_batches(20):
            want_loss, want_grad = loop_loss(pol, ref, batch, cfg, z)
            runs = [objective_loss(pol, ref, batch, cfg, z)]
            if cfg.objective == "dpo":
                runs.append(dpo_loss(pol, ref, batch, cfg.beta))
            for loss, grad in runs:
                assert loss == want_loss
                assert grad.tobytes() == want_grad.tobytes()
            assert reward_accuracy(pol, ref, batch) == loop_accuracy(pol, ref, batch)

    @pytest.mark.parametrize("case", ["dpo", "ipo", "kto"])  # train takes z from the batch
    def test_train(self, case):
        cfg, _ = LOOP_CASES[case]
        for pol, ref, batch in loop_batches(21, trials=5):
            for start in (ref.copy(), pol):
                got_pol, got_hist = train(start, ref, batch, cfg, epochs=5, lr=0.5)
                want_pol, want_hist = loop_train(start, ref, batch, cfg, epochs=5, lr=0.5)
                assert got_hist == want_hist
                assert got_pol.logits.tobytes() == want_pol.logits.tobytes()


class TestTrain:
    def test_zero_lr_keeps_policy(self):
        rng = np.random.default_rng(13)
        ref = rand_policy(rng)
        batch = [rand_pair(rng) for _ in range(3)]
        pol, history = train(ref.copy(), ref, batch, ObjectiveConfig("dpo", beta=1.0),
                             epochs=5, lr=0.0)
        np.testing.assert_array_equal(pol.logits, ref.logits)
        losses = {round(loss, 15) for _, loss, _ in history}
        assert len(losses) == 1

    def test_single_pair_converges(self):
        ref = ToyPolicy.zeros(6, 2)
        batch = [TokenizedPair((0,), (1, 2, 3), (2, 2, 1))]
        pol, history = train(ref.copy(), ref, batch, ObjectiveConfig("dpo", beta=1.0),
                             epochs=500, lr=0.5)
        assert history[-1][1] < 0.01
        assert reward_accuracy(pol, ref, batch) == 1.0

    def test_history_shape_and_epochs(self):
        ref = ToyPolicy.zeros(4, 1)
        batch = [TokenizedPair((0,), (1,), (2,))]
        _, history = train(ref.copy(), ref, batch, ObjectiveConfig("dpo", beta=1.0),
                           epochs=7, lr=0.1)
        assert [e for e, _, _ in history] == list(range(1, 8))

    def test_unread_rows_keep_their_bits(self):
        # The gradient is zero outside the rows the batch reads, and x - 0.0
        # is x, -0.0 included, so those rows must come back byte for byte.
        rng = np.random.default_rng(16)
        ref = rand_policy(rng, alphabet=5, order=2)
        batch = [rand_pair(rng, alphabet=5) for _ in range(3)]
        unread = np.setdiff1d(np.arange(ref.logits.shape[0]), touched_cells(ref, batch))
        start = ref.copy()
        start.logits[unread[0], 0] = -0.0
        start.logits[unread[1], 1] = 5e-324
        start.logits[unread[2], 2] = -1e300
        for cfg in LOOP_CASES["dpo"][0], LOOP_CASES["ipo"][0], LOOP_CASES["kto"][0]:
            pol, _ = train(start, ref, batch, cfg, epochs=4, lr=0.5)
            assert pol.logits[unread].tobytes() == start.logits[unread].tobytes()
            assert np.signbit(pol.logits[unread[0], 0])
            assert (pol.logits != start.logits).any()

    @pytest.mark.parametrize("lr", [-1.0, math.nan, math.inf])
    def test_lr_must_be_finite_and_nonnegative(self, lr):
        ref = ToyPolicy.zeros(4, 1)
        batch = [TokenizedPair((0,), (1,), (2,))]
        with pytest.raises(ValueError, match="lr"):
            train(ref.copy(), ref, batch, ObjectiveConfig("dpo", beta=1.0), epochs=2, lr=lr)

    def test_divergence_detected(self):
        # the squared ipo loss overflows once the step blows the logits up
        ref = ToyPolicy.zeros(4, 1)
        batch = [TokenizedPair((0,), (1,), (2,))]
        with pytest.raises(DivergenceError) as err:
            train(ref.copy(), ref, batch, ObjectiveConfig("ipo", tau=0.5),
                  epochs=50, lr=1e300)
        assert "epoch" in str(err.value)

    def test_objective_config_validation(self):
        with pytest.raises(ValueError):
            ObjectiveConfig("ipo", tau=None)
        with pytest.raises(ValueError):
            ObjectiveConfig("ppo")
        with pytest.raises(ValueError):
            ObjectiveConfig("kto", kto_weights=(0.0, 1.0))

    def test_objectives_share_batches(self):
        # The objective is a config switch over identical TokenizedPair data.
        rng = np.random.default_rng(14)
        ref = rand_policy(rng, alphabet=5, order=1)
        batch = [rand_pair(rng, alphabet=5) for _ in range(6)]
        for cfg in (ObjectiveConfig("dpo", beta=0.5),
                    ObjectiveConfig("ipo", tau=0.5),
                    ObjectiveConfig("kto", beta=0.5)):
            pol, history = train(ref.copy(), ref, batch, cfg, epochs=3, lr=0.1)
            assert len(history) == 3


class TestTokenization:
    def _records(self):
        chosen = Rationale(steps=("3+4=7.",), conclusion="The answer is 7.",
                           label="correct", extracted_answer="7")
        rejected = Rationale(steps=("3+4=9.",), conclusion=None,
                             label="incorrect", extracted_answer="9")
        return [PairRecord("p1", "Start with 3. Add 4. What is the final value?",
                           chosen, rejected, "outcome", None)]

    def test_terminal_marker_only_on_chosen(self):
        pairs, vocab = tokenize_pair_records(self._records(), alphabet_size=16)
        (pair,) = pairs
        assert pair.y_plus[-1] == 15
        assert 15 not in pair.y_minus
        assert all(0 <= t < 16 for t in pair.x + pair.y_plus + pair.y_minus)
        assert vocab  # mapping is recorded

    def test_matches_hashing_every_token(self):
        # Tokens repeat within and across texts; each is hashed once, and
        # the pairs and the vocab's items and order are as if every
        # occurrence were.
        records = self._records() * 2
        pairs, vocab = tokenize_pair_records(records, alphabet_size=16)
        want_vocab = {}
        for rec in records:
            for text in (rec.input, rec.chosen.text(), "\n".join(rec.rejected.steps)):
                want_vocab.update(zip(text.split(), tokenize_text(text, 16)))
        assert list(vocab.items()) == list(want_vocab.items())
        rec = records[0]
        assert pairs == [TokenizedPair(tuple(tokenize_text(rec.input, 16)),
                                       tuple(tokenize_text(rec.chosen.text(), 16)) + (15,),
                                       tuple(tokenize_text("\n".join(rec.rejected.steps),
                                                           16)))] * 2

    def test_deterministic(self):
        a, _ = tokenize_pair_records(self._records(), alphabet_size=16)
        b, _ = tokenize_pair_records(self._records(), alphabet_size=16)
        assert a == b

    def test_small_alphabet_rejected(self):
        with pytest.raises(ValueError):
            tokenize_pair_records(self._records(), alphabet_size=2)


class TestMleAndDecode:
    def test_mle_recovers_deterministic_sequence(self):
        x = (0, 1)
        y = (2, 3, 2)
        pol = fit_mle([(x, y)] * 5, alphabet_size=4, order=1, smoothing=0.01)
        assert greedy_decode(pol, x, max_len=3) == y


def loop_fit_mle(examples, alphabet, order, smoothing):
    """Reference table: one count per (row, token) position, added one at a time."""
    counts = np.zeros(((alphabet + 1) ** order, alphabet))
    for x, y in examples:
        for j, tok in enumerate(y):
            counts[row_oracle(x, y, j, order, alphabet), tok] += 1.0
    return np.log(counts + smoothing)


class TestFitMleMatchesLoop:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_random_examples(self, order):
        rng = np.random.default_rng(order)
        for _ in range(30):
            alphabet = int(rng.integers(2, 7))
            examples = [
                (tuple(int(v) for v in rng.integers(0, alphabet, size=int(rng.integers(0, 4)))),
                 tuple(int(v) for v in rng.integers(0, alphabet, size=int(rng.integers(0, 9)))))
                for _ in range(int(rng.integers(0, 6)))
            ]
            got = fit_mle(examples, alphabet, order, smoothing=0.5).logits
            assert got.tobytes() == loop_fit_mle(examples, alphabet, order, 0.5).tobytes()

    @pytest.mark.parametrize("examples", [[], [((0, 1), ())], [((1,), ()), ((), (2, 2))]],
                             ids=["no-examples", "empty-y", "empty-y-and-x"])
    def test_empty_inputs(self, examples):
        got = fit_mle(examples, 3, 2, smoothing=0.25).logits
        assert got.tobytes() == loop_fit_mle(examples, 3, 2, 0.25).tobytes()

    @pytest.mark.parametrize("x,y", [((0, 3), (1,)), ((0,), (1, -1)), ((), (3,))])
    def test_token_outside_alphabet(self, x, y):
        with pytest.raises(DomainError):
            fit_mle([((0,), (1,)), (x, y)], 3, 1)
