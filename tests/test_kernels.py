import numpy as np
import pytest

from steppref import kernels

from oracles import lev_oracle


@pytest.mark.parametrize("seed", range(5))
def test_levenshtein_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        a = rng.integers(0, 5, size=rng.integers(0, 21)).astype(np.int64)
        b = rng.integers(0, 5, size=rng.integers(0, 21)).astype(np.int64)
        want = lev_oracle(list(a), list(b))
        assert kernels.levenshtein(a, b) == want
        # the same sequences as string tokens, as build_pairs passes them
        words = [f"{v}+1={v + 1}." for v in range(5)]
        assert kernels.levenshtein([words[v] for v in a], [words[v] for v in b]) == want


@pytest.mark.parametrize("a,b,want", [
    ("a b c d e", "a b c d e", 0),
    ("a b", "a c", 1),
    ("x y z", "x q", 2),
], ids=["identical", "one-substitution", "unequal-lengths"])
def test_levenshtein_hand_cases(a, b, want):
    # whitespace tokens of the joined steps, as build_pairs passes them; the
    # distance is symmetric
    a, b = a.split(), b.split()
    assert lev_oracle(a, b) == want
    assert kernels.levenshtein(a, b) == want
    assert kernels.levenshtein(b, a) == want


@pytest.mark.parametrize("seed", range(3))
def test_levenshtein_matches_oracle_past_64_tokens(seed):
    # Longer than one 64-bit word on either side, and across the boundary.
    rng = np.random.default_rng(100 + seed)
    for _ in range(8):
        a = rng.integers(0, 4, size=rng.integers(50, 161)).tolist()
        b = rng.integers(0, 4, size=rng.integers(0, 161)).tolist()
        want = lev_oracle(a, b)
        assert kernels.levenshtein(a, b) == want
        assert kernels.levenshtein(b, a) == want


def kernel_logprob(logits, ctx, tok, starts):
    plan = kernels.plan_batch(ctx, tok, starts, logits.shape)
    return kernels.seq_logprob(logits, ctx, plan)[0]


def kernel_grad(logits, ctx, tok, coef):
    """The dense gradient: add_seq_grad's block of rows written into zeros."""
    plan = kernels.plan_batch(ctx, tok, np.zeros(1, np.int64), logits.shape)
    probs = kernels.seq_logprob(logits, ctx, plan)[1]
    grad = np.zeros(logits.shape)
    grad[plan.rows] = kernels.add_seq_grad(logits, ctx, coef, plan, probs)
    return grad


def seq_logprob_oracle(logits, ctx, tok):
    total = 0.0
    for c, v in zip(ctx, tok):
        row = logits[c]
        e = np.exp(row - row.max())
        total += np.log(e[v] / e.sum())
    return total


def add_seq_grad_oracle(logits, ctx, tok, coef, grad):
    for c, v, k in zip(ctx, tok, coef):
        row = logits[c]
        e = np.exp(row - row.max())
        grad[c] -= k * e / e.sum()
        grad[c, v] += k


def rand_flat(rng, rows, width, max_len):
    """A flattened batch: ctx/tok of all sequences, and each one's start and length."""
    lengths = rng.integers(0, max_len + 1, size=int(rng.integers(1, 6)))
    total = int(lengths.sum())
    ctx = rng.integers(0, rows, size=total).astype(np.int64)
    tok = rng.integers(0, width, size=total).astype(np.int64)
    return ctx, tok, np.cumsum(lengths) - lengths, lengths


def test_seq_logprob_matches_oracle():
    rng = np.random.default_rng(2)
    for _ in range(30):
        logits = rng.normal(size=(17, 5))
        ctx, tok, starts, lengths = rand_flat(rng, 17, 5, max_len=12)
        got = kernel_logprob(logits, ctx, tok, starts)
        assert got.shape == (len(starts),)
        for s, (a, n) in enumerate(zip(starts, lengths)):
            want = seq_logprob_oracle(logits, ctx[a:a + n], tok[a:a + n])
            assert got[s] == pytest.approx(want, abs=1e-12)


def test_add_seq_grad_matches_oracle():
    rng = np.random.default_rng(3)
    for _ in range(30):
        logits = rng.normal(size=(11, 4))
        ctx, tok, _, lengths = rand_flat(rng, 11, 4, max_len=7)
        coef = np.repeat(rng.normal(size=len(lengths)), lengths)
        got = kernel_grad(logits, ctx, tok, coef)
        want = np.zeros_like(logits)
        add_seq_grad_oracle(logits, ctx, tok, coef, want)
        np.testing.assert_allclose(got, want, atol=1e-13)


def test_add_seq_grad_rows_sum_to_zero():
    # (onehot - softmax) sums to zero across the row, so every accumulated
    # row keeps a zero sum.
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(9, 6))
    ctx = rng.integers(0, 9, size=12).astype(np.int64)
    tok = rng.integers(0, 6, size=12).astype(np.int64)
    grad = kernel_grad(logits, ctx, tok, rng.normal(size=12))
    np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)


def position_terms(logits, ctx, tok):
    """Per position, log softmax(logits[ctx])[tok] and the softmax row, by
    the per-position operations whose bits the kernels must reproduce."""
    rows = logits[ctx]
    m = rows.max(axis=1)
    e = np.exp(rows - m[:, None])
    s = e.sum(axis=1)
    return rows[np.arange(len(ctx)), tok] - m - np.log(s), e / s[:, None]


def test_seq_logprob_bits_match_per_slice_sums():
    # Every length 0-40 in one batch, shuffled, so that both numpy's short
    # sequential sums and its 8-way unrolled pairwise sums are exercised.
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(23, 7)) * 3.0
    lengths = rng.permutation(np.r_[np.arange(41), np.arange(41)])
    starts = np.cumsum(lengths) - lengths
    ctx = rng.integers(0, 23, size=int(lengths.sum())).astype(np.int64)
    tok = rng.integers(0, 7, size=len(ctx)).astype(np.int64)
    picked, _ = position_terms(logits, ctx, tok)
    want = np.array([picked[a:a + n].sum() for a, n in zip(starts, lengths)])
    got = kernel_logprob(logits, ctx, tok, starts)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("layout", ["C", "F"])
def test_add_seq_grad_bits_match_2d_add_at(layout):
    # Row 3 is read at 30 positions, so its terms must be summed in position
    # order. Rows 3 and 5 hold logits at -1000: their softmax entries
    # underflow to 0, and with a positive coefficient the term is -0.0, which
    # a sum seeded with zeros turns into +0.0.
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(9, 6))
    logits[3, 2:] = -1000.0
    logits[5, :4] = -1000.0
    logits = np.asarray(logits, order=layout)
    ctx = np.r_[np.full(30, 3), rng.integers(0, 9, size=40), np.full(10, 5)]
    ctx = rng.permutation(ctx).astype(np.int64)
    tok = rng.integers(0, 6, size=len(ctx)).astype(np.int64)
    coef = rng.normal(size=len(ctx))
    coef[::3] = np.abs(coef[::3])
    _, probs = position_terms(logits, ctx, tok)
    delta = probs * -coef[:, None]
    delta[np.arange(len(ctx)), tok] += coef
    want = np.zeros(logits.shape)
    np.add.at(want, ctx, delta)
    terms = delta[ctx == 3]
    assert (np.signbit(terms) & (terms == 0)).any()
    got = kernel_grad(logits, ctx, tok, coef)
    assert got.tobytes() == want.tobytes()


def test_active_path_is_numpy():
    assert kernels.active_path() == "numpy"
