import numpy as np
import pytest

from steppref import kernels


def lev_oracle(a, b):
    """Textbook full-matrix Levenshtein."""
    n, m = len(a), len(b)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dp[i][0] = i
    for j in range(m + 1):
        dp[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            dp[i][j] = min(
                dp[i - 1][j] + 1,
                dp[i][j - 1] + 1,
                dp[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return dp[n][m]


@pytest.mark.parametrize("seed", range(5))
def test_levenshtein_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        a = rng.integers(0, 5, size=rng.integers(0, 21)).astype(np.int64)
        b = rng.integers(0, 5, size=rng.integers(0, 21)).astype(np.int64)
        want = lev_oracle(list(a), list(b))
        assert kernels.levenshtein(a, b) == want


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
        got = kernels.seq_logprob(logits, ctx, tok, starts)
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
        got = np.zeros_like(logits)
        want = np.zeros_like(logits)
        kernels.add_seq_grad(logits, ctx, tok, coef, got)
        add_seq_grad_oracle(logits, ctx, tok, coef, want)
        np.testing.assert_allclose(got, want, atol=1e-13)


def test_add_seq_grad_rows_sum_to_zero():
    # (onehot - softmax) sums to zero across the row, so every accumulated
    # row keeps a zero sum.
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(9, 6))
    ctx = rng.integers(0, 9, size=12).astype(np.int64)
    tok = rng.integers(0, 6, size=12).astype(np.int64)
    grad = np.zeros_like(logits)
    kernels.add_seq_grad(logits, ctx, tok, rng.normal(size=12), grad)
    np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)


def test_active_path_is_numpy():
    assert kernels.active_path() == "numpy"
