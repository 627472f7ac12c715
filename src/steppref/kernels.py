"""Hot numeric kernels, in numpy.

The trainer flattens a batch of sequences once: `ctx[i]` is the policy-table
row ahead of token `tok[i]`, and sequence s spans the positions from
`starts[s]` up to the next start (or the end). It plans the batch once too,
so each epoch over a fixed batch is arithmetic on the rows it reads, one
kernel call each.

  levenshtein(a, b)                   -- edit distance between two token
                                         sequences, bit-parallel
  plan_batch(ctx, tok, starts, shape) -- all the kernels need that does not
                                         depend on the logits: the distinct
                                         rows read, each position's index
                                         among them and (row, token) pick,
                                         each sequence's positions by length
  seq_logprob(logits, ctx, plan)      -- per sequence, the sum of log
                                         softmax(logits[ctx])[tok]; and the
                                         softmax of each planned row
  add_seq_grad(probs, ctx, coef,      -- a (planned rows x width) block of
               plan)                     zeros, += coef * (onehot(tok) -
                                         softmax) at each position's row:
                                         the gradient, zero in other rows

Both kernels take a table of the batch's width first and ctx second, so that
a wrapper (bench/tracing.py) sees each call's width and positions.
seq_logprob does not read ctx itself; it takes it for that wrapper alone.
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


class BatchPlan(NamedTuple):
    """What the kernels need of a flattened batch, whatever the logits: its
    distinct table rows, each position's place among them, its (row, token)
    pick, and the positions each sequence spans, grouped by length."""

    rows: np.ndarray  # the distinct table rows read, ascending
    inv: np.ndarray  # per position, its row's index in rows: rows[inv] == ctx
    tok: np.ndarray  # per position, the token read
    pick: np.ndarray  # per position, inv * width + tok: its entry in a block of rows
    lengths: np.ndarray  # per sequence, its number of positions
    # per distinct length n, ascending: the sequences that long, and an array
    # of their positions, one row of n per sequence
    spans: list[tuple[np.ndarray, np.ndarray]]


def plan_batch(ctx: np.ndarray, tok: np.ndarray, starts: np.ndarray,
               shape: tuple[int, int]) -> BatchPlan:
    """The plan of a batch over a table of `shape`."""
    # A mask over the table, not np.unique: no sort, and no sort code paged in
    # (~0.6 MB of RSS).
    read = np.zeros(shape[0], bool)
    read[ctx] = True
    rows = np.flatnonzero(read)
    inv = np.cumsum(read)[ctx] - 1
    lengths = np.diff(starts, append=ctx.shape[0])
    spans = []
    for n in sorted(set(lengths.tolist())):  # np.unique's hash path pages in ~1.5 MB
        seqs = np.flatnonzero(lengths == n)
        spans.append((seqs, starts[seqs, None] + np.arange(n)))
    return BatchPlan(rows, inv, tok, inv * shape[1] + tok, lengths, spans)


def seq_logprob(logits: np.ndarray, ctx: np.ndarray,
                plan: BatchPlan) -> tuple[np.ndarray, np.ndarray]:
    """One log-probability sum per sequence (an empty sequence sums to 0),
    and the softmax of each of plan.rows, for add_seq_grad."""
    exp = logits[plan.rows]  # a copy, turned in place into exp(row - max)
    picked = exp.reshape(-1)[plan.pick]
    m = exp.max(axis=1)
    exp -= m[:, None]
    np.exp(exp, out=exp)
    total = exp.sum(axis=1)
    picked -= m[plan.inv]
    picked -= np.log(total)[plan.inv]
    # One 2-D .sum(axis=1) per distinct length runs numpy's pairwise sum over
    # each sequence's own positions, as picked[a:b].sum() would;
    # np.add.reduceat sums sequentially and differs in the last bits.
    sums = np.zeros(plan.lengths.shape[0])
    for seqs, span in plan.spans:
        sums[seqs] = picked[span].sum(axis=1)
    exp /= total[:, None]
    return sums, exp


def add_seq_grad(probs: np.ndarray, ctx: np.ndarray, coef: np.ndarray,
                 plan: BatchPlan) -> np.ndarray:
    """Gradient in logits[plan.rows] of sum_i coef[i] * log
    softmax(logits[ctx[i]])[tok[i]], from `probs`, seq_logprob's softmax of
    this batch: a block of zeros, one row per plan row, to which a 1-D
    np.add.at adds each position's terms in position order, so a row touched
    by several sequences sums them in batch order. Every other table row's
    gradient is zero."""
    block = np.zeros(probs.shape)
    flat = block.reshape(-1)  # a view, because block is C-ordered
    width = probs.shape[1]
    cols = np.arange(width)
    step = max(1, _CHUNK // width)
    for a in range(0, ctx.shape[0], step):
        b = a + step
        inv = plan.inv[a:b]
        delta = probs[inv]
        delta *= -coef[a:b, None]
        delta[np.arange(delta.shape[0]), plan.tok[a:b]] += coef[a:b]
        np.add.at(flat, (inv[:, None] * width + cols).ravel(), delta.ravel())
    return block


def active_path() -> str:
    return "numpy"
