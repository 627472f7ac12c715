"""Hot numeric kernels, in numpy.

The trainer flattens a batch of sequences once: `ctx[i]` is the policy-table
row ahead of token `tok[i]`, and sequence s spans the positions from
`starts[s]` up to the next start (or the end). Each kernel then makes one
call per batch.

Kernels:
  levenshtein(a, b)                       -- edit distance between two token
                                             sequences, in plain Python
  seq_logprob(logits, ctx, tok, starts)   -- per sequence, the sum of
                                             log softmax(logits[ctx])[tok]
  add_seq_grad(logits, ctx, tok, c, g)    -- g[ctx] += c * (onehot(tok) - softmax),
                                             one coefficient per token
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Two-row DP over any sequences whose items compare with ==. Rationales
    run to a few tokens, where numpy's per-row overhead would dominate."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b):
            cur.append(min(prev[j + 1] + 1, cur[j] + 1, prev[j] + (x != y)))
        prev = cur
    return int(prev[-1])


def seq_logprob(logits: np.ndarray, ctx: np.ndarray, tok: np.ndarray,
                starts: np.ndarray) -> np.ndarray:
    """One log-probability sum per sequence; an empty sequence sums to 0."""
    rows = logits[ctx]  # a copy; worked on in place to keep one batch-sized array
    m = rows.max(axis=1)
    picked = rows[np.arange(ctx.shape[0]), tok]
    rows -= m[:, None]
    np.exp(rows, out=rows)
    picked = picked - m - np.log(rows.sum(axis=1))
    bounds = [*starts.tolist(), ctx.shape[0]]
    # numpy's pairwise .sum() per segment: np.add.reduceat sums sequentially,
    # which differs in the last bits from a per-sequence sum.
    return np.array([picked[a:b].sum() for a, b in zip(bounds, bounds[1:])])


def add_seq_grad(
    logits: np.ndarray,
    ctx: np.ndarray,
    tok: np.ndarray,
    coef: np.ndarray,
    grad: np.ndarray,
) -> None:
    """Accumulate into `grad` in position order, so a row touched by several
    sequences sums their terms in batch order."""
    delta = logits[ctx]  # a copy, turned in place into the rows' terms
    delta -= delta.max(axis=1, keepdims=True)
    np.exp(delta, out=delta)
    delta /= delta.sum(axis=1, keepdims=True)
    delta *= -coef[:, None]
    delta[np.arange(ctx.shape[0]), tok] += coef
    np.add.at(grad, ctx, delta)


def active_path() -> str:
    return "numpy"
