"""Hot numeric kernels, in numpy.

The trainer flattens a batch of sequences once: `ctx[i]` is the policy-table
row ahead of token `tok[i]`, and sequence s spans the positions from
`starts[s]` up to the next start (or the end). Each kernel then makes one
call per batch.

Kernels:
  levenshtein(a, b)                       -- edit distance between two token
                                             sequences, bit-parallel
  seq_logprob(logits, ctx, tok, starts)   -- per sequence, the sum of
                                             log softmax(logits[ctx])[tok];
                                             and that softmax
  add_seq_grad(logits, ctx, tok, c, soft) -- zeros, then += c * (onehot(tok)
                                             - softmax) at row ctx, one
                                             coefficient per token

seq_logprob softmaxes each distinct row once, and add_seq_grad reuses that
softmax. Both give the bits of the per-position forms: each position's terms
are the same operations, a sequence sums its own positions with numpy's
pairwise `.sum()`, and a gradient entry adds its terms to 0.0 in position
order.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

# add_seq_grad's scratch, in table entries: bounded at any alphabet size
_CHUNK = 1 << 15


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Edit distance between sequences of hashable items: Myers' bit-vector
    algorithm (Myers 1999) in Hyyrö's form, a DP column over `a` held as two
    Python ints of +1 and -1 vertical deltas, advanced once per item of `b`."""
    m = len(a)
    if m == 0:
        return len(b)
    match: dict = {}
    for i, x in enumerate(a):
        match[x] = match.get(x, 0) | 1 << i
    mask, high = (1 << m) - 1, 1 << (m - 1)
    plus, minus, dist = mask, 0, m
    for y in b:
        eq = match.get(y, 0)
        diag = (((eq & plus) + plus) ^ plus) | eq | minus
        h_plus = minus | (~(diag | plus) & mask)
        h_minus = plus & diag
        if h_plus & high:
            dist += 1
        elif h_minus & high:
            dist -= 1
        h_plus = h_plus << 1 | 1  # the first row counts up: one more insertion
        h_minus <<= 1
        plus = (h_minus | ~(diag | h_plus)) & mask
        minus = h_plus & diag & mask
    return dist


class RowSoftmax(NamedTuple):
    """Softmax of each distinct table row a batch reads: the softmax of
    logits[ctx[i]] is probs[inv[i]]."""

    inv: np.ndarray
    probs: np.ndarray


def seq_logprob(logits: np.ndarray, ctx: np.ndarray, tok: np.ndarray,
                starts: np.ndarray) -> tuple[np.ndarray, RowSoftmax]:
    """One log-probability sum per sequence (an empty sequence sums to 0),
    and the softmax taken on the way, for add_seq_grad."""
    # A mask over the table, not np.unique: no sort, and no sort code paged in
    # (~0.6 MB of RSS).
    read = np.zeros(logits.shape[0], bool)
    read[ctx] = True
    rows = np.flatnonzero(read)  # the distinct rows, ascending
    inv = np.cumsum(read)[ctx] - 1  # rows[inv] == ctx
    exp = logits[rows]  # a copy, turned in place into exp(row - max)
    m = exp.max(axis=1)
    exp -= m[:, None]
    np.exp(exp, out=exp)
    total = exp.sum(axis=1)
    picked = logits[ctx, tok] - m[inv] - np.log(total)[inv]
    # One 2-D .sum(axis=1) per distinct length runs numpy's pairwise sum over
    # each sequence's own positions, as picked[a:b].sum() would;
    # np.add.reduceat sums sequentially and differs in the last bits.
    lengths = np.diff(starts, append=ctx.shape[0])
    sums = np.zeros(starts.shape[0])
    for n in sorted(set(lengths.tolist())):  # np.unique's hash path pages in ~1.5 MB
        seqs = np.flatnonzero(lengths == n)
        sums[seqs] = picked[starts[seqs, None] + np.arange(n)].sum(axis=1)
    exp /= total[:, None]
    return sums, RowSoftmax(inv, exp)


def add_seq_grad(
    logits: np.ndarray,
    ctx: np.ndarray,
    tok: np.ndarray,
    coef: np.ndarray,
    soft: RowSoftmax,
) -> np.ndarray:
    """Gradient in the logits of sum_i coef[i] * log softmax(logits[ctx[i]])[tok[i]],
    from `soft`, seq_logprob's softmax of this batch: a fresh C-ordered array
    of zeros to which a 1-D np.add.at adds each position's terms in position
    order, so a row touched by several sequences sums them in batch order."""
    grad = np.zeros(logits.shape)
    flat = grad.reshape(-1)  # a view, because grad is C-ordered
    width = logits.shape[1]
    cols = np.arange(width)
    step = max(1, _CHUNK // width)
    for a in range(0, ctx.shape[0], step):
        b = a + step
        delta = soft.probs[soft.inv[a:b]]
        delta *= -coef[a:b, None]
        delta[np.arange(delta.shape[0]), tok[a:b]] += coef[a:b]
        np.add.at(flat, (ctx[a:b, None] * width + cols).ravel(), delta.ravel())
    return grad


def active_path() -> str:
    return "numpy"
