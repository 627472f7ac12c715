"""Tabular preference-learning lab.

A ToyPolicy is an autoregressive next-token model over a small alphabet:
a dense logits table indexed by the last `order` tokens (left-padded with a
dedicated pad symbol), softmaxed per row. DPO, IPO and KTO losses come with
analytic gradients over that table, verified elsewhere against central
finite differences, plus a plain full-batch gradient-descent trainer and a
reward-accuracy (winrate) tracker.

A batch is flattened once: tokens validated, the table row ahead of each
chosen and rejected token found, reference log-probs computed. One loss pass
serves all three objectives: one kernel call for every sequence's log-prob,
one gradient coefficient per sequence from the pairs' log-ratios (the only
objective-specific step), one kernel call to scatter the gradient. Reward
accuracy reuses those log-probs; `train` flattens once per call.

Loss conventions, with r(y) = beta * [log pi(y|x) - log pi_ref(y|x)]:

  dpo:  mean_j -log sigmoid(r_j(y+) - r_j(y-))
  ipo:  mean_j (delta_j - 1/(2*tau))^2          delta with beta absorbed (=1)
  kto:  z = max(0, mean of all r values in the batch), treated as constant;
        mean_j [ lam_c*(1 - sigmoid(beta*(r_j(y+) - z)))
               + lam_r*(1 - sigmoid(beta*(z - r_j(y-)))) ]
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .corpus import PairRecord
from .rng import stable_seed

OBJECTIVES = ("dpo", "ipo", "kto")


class DomainError(ValueError):
    """A token falls outside the policy alphabet."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


@dataclass
class ToyPolicy:
    alphabet_size: int
    order: int
    logits: np.ndarray  # shape [(alphabet_size+1)**order, alphabet_size]

    def __post_init__(self) -> None:
        if self.alphabet_size < 2:
            raise ValueError("alphabet_size must be >= 2")
        if self.order < 1:
            raise ValueError("order must be >= 1")
        self.logits = np.asarray(self.logits, dtype=np.float64)
        want = ((self.alphabet_size + 1) ** self.order, self.alphabet_size)
        if self.logits.shape != want:
            raise ValueError(f"logits shape {self.logits.shape} != {want}")

    @classmethod
    def zeros(cls, alphabet_size: int, order: int) -> "ToyPolicy":
        shape = ((alphabet_size + 1) ** order, alphabet_size)
        return cls(alphabet_size, order, np.zeros(shape))

    @property
    def pad_id(self) -> int:
        return self.alphabet_size

    def copy(self) -> "ToyPolicy":
        return ToyPolicy(self.alphabet_size, self.order, self.logits.copy())

    def context_index(self, window: tuple[int, ...]) -> int:
        """Row index for the last `order` tokens (shorter windows are padded)."""
        base = self.alphabet_size + 1
        padded = (self.pad_id,) * max(0, self.order - len(window)) + tuple(
            window[-self.order:]
        )
        idx = 0
        for c in padded:
            idx = idx * base + c
        return idx

    def next_probs(self, window: tuple[int, ...]) -> np.ndarray:
        row = self.logits[self.context_index(window)]
        e = np.exp(row - row.max())
        return e / e.sum()


@dataclass(frozen=True)
class TokenizedPair:
    x: tuple[int, ...]
    y_plus: tuple[int, ...]
    y_minus: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.x or not self.y_plus or not self.y_minus:
            raise ValueError("tokenized sequences must be non-empty")


@dataclass(frozen=True)
class ObjectiveConfig:
    objective: str = "dpo"
    beta: float = 0.1
    tau: float | None = None
    kto_weights: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective: {self.objective!r}")
        if self.objective in ("dpo", "kto") and self.beta <= 0:
            raise ValueError("beta must be > 0")
        if self.objective == "ipo" and (self.tau is None or self.tau <= 0):
            raise ValueError("ipo needs tau > 0")
        if len(self.kto_weights) != 2:
            raise ValueError("kto_weights must be two values (chosen, rejected)")
        if self.objective == "kto" and any(w <= 0 for w in self.kto_weights):
            raise ValueError("kto weights must be > 0")


def _validate_tokens(seq: tuple[int, ...], alphabet_size: int) -> None:
    for tok in seq:
        if not 0 <= tok < alphabet_size:
            raise DomainError(f"token {tok} outside alphabet of size {alphabet_size}")


def context_indices(
    x: tuple[int, ...], y: tuple[int, ...], order: int, alphabet_size: int
) -> np.ndarray:
    """Row index of the rolling context ahead of each y position."""
    base = alphabet_size + 1
    pad = alphabet_size
    seq = tuple(x) + tuple(y)
    nx = len(x)
    out = np.empty(len(y), dtype=np.int64)
    for j in range(len(y)):
        idx = 0
        for m in range(order):
            pos = nx + j - order + m
            idx = idx * base + (seq[pos] if pos >= 0 else pad)
        out[j] = idx
    return out


def _check_compat(policy: ToyPolicy, ref: ToyPolicy) -> None:
    if (policy.alphabet_size, policy.order) != (ref.alphabet_size, ref.order):
        raise ValueError("policy and reference must share alphabet_size and order")


def seq_logprob(policy: ToyPolicy, x: tuple[int, ...], y: tuple[int, ...]) -> float:
    """log pi(y | x): sum of per-token log softmax terms. Empty y gives 0."""
    _validate_tokens(tuple(x), policy.alphabet_size)
    _validate_tokens(tuple(y), policy.alphabet_size)
    ctx = context_indices(tuple(x), tuple(y), policy.order, policy.alphabet_size)
    tok = np.asarray(y, dtype=np.int64)
    return float(kernels.seq_logprob(policy.logits, ctx, tok, np.zeros(1, np.int64))[0])


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


@dataclass(frozen=True)
class _Flat:
    """A batch flattened once. Sequences run y+_1, y-_1, y+_2, y-_2, ...;
    sequence s spans ctx/tok[starts[s] : starts[s] + lengths[s]]."""

    ctx: np.ndarray
    tok: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    ref_lp: list[float]  # log pi_ref of each sequence


def _logprobs(logits: np.ndarray, ctx: np.ndarray, tok: np.ndarray,
              starts: np.ndarray) -> list[float]:
    return kernels.seq_logprob(logits, ctx, tok, starts).tolist()


def _flatten(policy: ToyPolicy, ref: ToyPolicy, batch: list[TokenizedPair]) -> _Flat:
    _check_compat(policy, ref)
    if not batch:
        raise ValueError("batch must be non-empty")
    seqs = []
    for pair in batch:
        _validate_tokens(pair.x, policy.alphabet_size)
        _validate_tokens(pair.y_plus, policy.alphabet_size)
        _validate_tokens(pair.y_minus, policy.alphabet_size)
        seqs += [(pair.x, pair.y_plus), (pair.x, pair.y_minus)]
    ctx = np.concatenate([context_indices(x, y, policy.order, policy.alphabet_size)
                          for x, y in seqs])
    tok = np.array([t for _, y in seqs for t in y], dtype=np.int64)
    lengths = np.array([len(y) for _, y in seqs], dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    return _Flat(ctx, tok, starts, lengths, _logprobs(ref.logits, ctx, tok, starts))


def _accuracy(pol_lp: list[float], ref_lp: list[float]) -> float:
    """Fraction of pairs whose chosen implicit reward strictly beats the
    rejected one; ties count as losses."""
    wins = sum(
        pp - rp - pm + rm > 0
        for pp, rp, pm, rm in zip(pol_lp[0::2], ref_lp[0::2], pol_lp[1::2], ref_lp[1::2])
    )
    return wins / (len(pol_lp) // 2)


def _terms(cfg: ObjectiveConfig, ratios: list[float],
           reference_point: float | None) -> tuple[float, list[float]]:
    """Batch-mean loss and d loss / d log pi(y) of each sequence, from the
    log-ratios log pi(y) - log pi_ref(y) in flattened order. This is the
    only part that differs between the objectives."""
    m = len(ratios) // 2
    chosen, rejected = ratios[0::2], ratios[1::2]
    total, coefs = 0.0, []
    if cfg.objective == "kto":
        beta, (lam_c, lam_r) = cfg.beta, cfg.kto_weights
        rewards_p = [beta * r for r in chosen]
        rewards_m = [beta * r for r in rejected]
        if reference_point is None:
            z = max(0.0, (sum(rewards_p) + sum(rewards_m)) / (2 * m))
        else:
            z = reference_point
        for r_p, r_m in zip(rewards_p, rewards_m):
            s_p = _sigmoid(beta * (r_p - z))
            s_m = _sigmoid(beta * (z - r_m))
            total += lam_c * (1.0 - s_p) + lam_r * (1.0 - s_m)
            coefs += [-lam_c * beta * beta * s_p * (1.0 - s_p) / m,
                      lam_r * beta * beta * s_m * (1.0 - s_m) / m]
        return total / m, coefs
    for delta in (p - n for p, n in zip(chosen, rejected)):
        if cfg.objective == "dpo":
            total += float(np.logaddexp(0.0, -cfg.beta * delta))
            coef = -cfg.beta * _sigmoid(-cfg.beta * delta) / m
        else:
            miss = delta - 1.0 / (2.0 * cfg.tau)
            total += miss * miss  # not **2: float pow raises instead of inf
            coef = 2.0 * miss / m
        coefs += [coef, -coef]
    return total / m, coefs


def _loss_pass(policy: ToyPolicy, flat: _Flat, cfg: ObjectiveConfig,
               reference_point: float | None = None
               ) -> tuple[float, np.ndarray, list[float]]:
    """Loss, its gradient in the logits, and the policy log-prob of each
    sequence: one seq_logprob call and one add_seq_grad call."""
    pol_lp = _logprobs(policy.logits, flat.ctx, flat.tok, flat.starts)
    loss, coefs = _terms(cfg, [p - r for p, r in zip(pol_lp, flat.ref_lp)],
                         reference_point)
    grad = np.zeros_like(policy.logits)
    kernels.add_seq_grad(policy.logits, flat.ctx, flat.tok,
                         np.repeat(coefs, flat.lengths), grad)
    return loss, grad, pol_lp


def objective_loss(policy: ToyPolicy, ref: ToyPolicy, batch: list[TokenizedPair],
                   cfg: ObjectiveConfig, reference_point: float | None = None
                   ) -> tuple[float, np.ndarray]:
    """Batch-mean loss of `cfg.objective` and its gradient in the logits;
    `reference_point` pins KTO's z (see kto_loss)."""
    loss, grad, _ = _loss_pass(policy, _flatten(policy, ref, batch), cfg, reference_point)
    return loss, grad


def dpo_loss(policy: ToyPolicy, ref: ToyPolicy, batch: list[TokenizedPair],
             beta: float) -> tuple[float, np.ndarray]:
    """Batch-mean -log sigmoid(beta * delta) and its gradient in the logits."""
    return objective_loss(policy, ref, batch, ObjectiveConfig("dpo", beta=beta))


def ipo_loss(policy: ToyPolicy, ref: ToyPolicy, batch: list[TokenizedPair],
             tau: float) -> tuple[float, np.ndarray]:
    """Batch-mean (delta - 1/(2*tau))^2 with beta absorbed into delta (=1)."""
    return objective_loss(policy, ref, batch, ObjectiveConfig("ipo", tau=tau))


def kto_loss(
    policy: ToyPolicy,
    ref: ToyPolicy,
    batch: list[TokenizedPair],
    weights: tuple[float, float],
    beta: float,
    reference_point: float | None = None,
) -> tuple[float, np.ndarray]:
    """Paired KTO-style loss around a per-batch constant reference point z.

    z is the clamped batch mean of the implicit rewards and carries no
    gradient; pass `reference_point` to pin it externally (used by the
    finite-difference checks, which must probe at fixed z).
    """
    cfg = ObjectiveConfig("kto", beta=beta, kto_weights=tuple(weights))
    return objective_loss(policy, ref, batch, cfg, reference_point)


def reward_accuracy(policy: ToyPolicy, ref: ToyPolicy,
                    pairs: list[TokenizedPair]) -> float:
    """Fraction of pairs whose chosen implicit reward strictly beats the
    rejected one; ties count as losses."""
    if not pairs:
        return 0.0
    flat = _flatten(policy, ref, pairs)
    return _accuracy(_logprobs(policy.logits, flat.ctx, flat.tok, flat.starts), flat.ref_lp)


def train(
    policy_init: ToyPolicy,
    ref: ToyPolicy,
    pairs: list[TokenizedPair],
    cfg: ObjectiveConfig,
    epochs: int,
    lr: float,
) -> tuple[ToyPolicy, list[tuple[int, float, float]]]:
    """Full-batch gradient descent; deterministic given identical inputs,
    because it draws no randomness. The batch is flattened, and its
    reference log-probs computed, once per call.

    History rows are (epoch, loss, reward_accuracy), both measured before
    that epoch's update.
    """
    if lr < 0:
        raise ValueError("lr must be >= 0")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    flat = _flatten(policy_init, ref, pairs)
    policy = policy_init.copy()
    history: list[tuple[int, float, float]] = []
    for epoch in range(1, epochs + 1):
        loss, grad, pol_lp = _loss_pass(policy, flat, cfg)
        if not math.isfinite(loss) or not np.all(np.isfinite(grad)):
            raise DivergenceError(f"non-finite loss or gradient at epoch {epoch}")
        history.append((epoch, loss, _accuracy(pol_lp, flat.ref_lp)))
        policy.logits -= lr * grad
    return policy, history


# ---------------------------------------------------------------------------
# bridging pipeline text into the toy alphabet


def token_id(token: str, alphabet_size: int) -> int:
    # Top id is reserved for the terminal marker appended to chosen sequences.
    return stable_seed("tok", token) % (alphabet_size - 1)


def tokenize_text(text: str, alphabet_size: int) -> list[int]:
    return [token_id(t, alphabet_size) for t in text.split()]


def tokenize_pair_records(
    records: list[PairRecord], alphabet_size: int = 32
) -> tuple[list[TokenizedPair], dict[str, int]]:
    """Hash whitespace tokens into a fixed alphabet.

    The chosen sequence gets a terminal marker token; the rejected sequence
    does not (it never carries a conclusion/eos). The token->id mapping is
    returned so a run's tokenization can be recorded.
    """
    if alphabet_size < 3:
        raise ValueError("alphabet_size must be >= 3")
    terminal = alphabet_size - 1
    vocab: dict[str, int] = {}

    def toks(text: str) -> list[int]:
        ids = []
        for t in text.split():
            tid = token_id(t, alphabet_size)
            vocab.setdefault(t, tid)
            ids.append(tid)
        return ids

    pairs = []
    for rec in records:
        x = toks(rec.input)
        y_plus = toks(rec.chosen.text()) + [terminal]
        y_minus = toks("\n".join(rec.rejected.steps))
        pairs.append(TokenizedPair(tuple(x), tuple(y_plus), tuple(y_minus)))
    return pairs, vocab


def fit_mle(
    examples: list[tuple[tuple[int, ...], tuple[int, ...]]],
    alphabet_size: int,
    order: int,
    smoothing: float = 0.5,
) -> ToyPolicy:
    """Count-based next-token policy: logits = log(counts + smoothing)."""
    if smoothing <= 0:
        raise ValueError("smoothing must be > 0")
    policy = ToyPolicy.zeros(alphabet_size, order)
    counts = np.zeros_like(policy.logits)
    for x, y in examples:
        _validate_tokens(tuple(x), alphabet_size)
        _validate_tokens(tuple(y), alphabet_size)
        if not y:
            continue
        ctx = context_indices(tuple(x), tuple(y), order, alphabet_size)
        for c, tok in zip(ctx, y):
            counts[c, tok] += 1.0
    policy.logits = np.log(counts + smoothing)
    return policy


def greedy_decode(policy: ToyPolicy, x: tuple[int, ...], max_len: int) -> tuple[int, ...]:
    """Argmax rollout from context x (ties break toward the lowest id)."""
    _validate_tokens(tuple(x), policy.alphabet_size)
    seq = list(x)
    out: list[int] = []
    for _ in range(max_len):
        row = policy.logits[policy.context_index(tuple(seq))]
        tok = int(np.argmax(row))
        out.append(tok)
        seq.append(tok)
    return tuple(out)
