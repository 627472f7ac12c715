"""Tabular preference-learning lab.

A ToyPolicy is an autoregressive next-token model over a small alphabet:
a dense logits table indexed by the last `order` tokens (left-padded with a
dedicated pad symbol), softmaxed per row. DPO, IPO and KTO losses come with
analytic gradients over that table, verified elsewhere against central
finite differences, plus a plain full-batch gradient-descent trainer and a
reward-accuracy (winrate) tracker.

Loss conventions, with r(y) = beta * [log pi(y|x) - log pi_ref(y|x)]:

  dpo:  mean_j -log sigmoid(r_j(y+) - r_j(y-))
  ipo:  mean_j (delta_j - 1/(2*tau))^2          delta with beta absorbed (=1)
  kto:  z = max(0, mean of all r values in the batch), treated as constant;
        mean_j [ lam_c*(1 - sigmoid(beta*(r_j(y+) - z)))
               + lam_r*(1 - sigmoid(beta*(z - r_j(y-)))) ]
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    if not y:
        return 0.0
    ctx = context_indices(tuple(x), tuple(y), policy.order, policy.alphabet_size)
    tok = np.asarray(y, dtype=np.int64)
    return float(kernels.seq_logprob(policy.logits, ctx, tok))


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


@dataclass
class _PairArrays:
    ctx_p: np.ndarray
    tok_p: np.ndarray
    ctx_m: np.ndarray
    tok_m: np.ndarray
    lp_pol_p: float = 0.0
    lp_pol_m: float = 0.0
    lp_ref_p: float = 0.0
    lp_ref_m: float = 0.0


def _prepare(policy: ToyPolicy, ref: ToyPolicy,
             batch: list[TokenizedPair]) -> list[_PairArrays]:
    _check_compat(policy, ref)
    if not batch:
        raise ValueError("batch must be non-empty")
    out = []
    for pair in batch:
        _validate_tokens(pair.x, policy.alphabet_size)
        _validate_tokens(pair.y_plus, policy.alphabet_size)
        _validate_tokens(pair.y_minus, policy.alphabet_size)
        a = _PairArrays(
            ctx_p=context_indices(pair.x, pair.y_plus, policy.order, policy.alphabet_size),
            tok_p=np.asarray(pair.y_plus, dtype=np.int64),
            ctx_m=context_indices(pair.x, pair.y_minus, policy.order, policy.alphabet_size),
            tok_m=np.asarray(pair.y_minus, dtype=np.int64),
        )
        a.lp_pol_p = float(kernels.seq_logprob(policy.logits, a.ctx_p, a.tok_p))
        a.lp_pol_m = float(kernels.seq_logprob(policy.logits, a.ctx_m, a.tok_m))
        a.lp_ref_p = float(kernels.seq_logprob(ref.logits, a.ctx_p, a.tok_p))
        a.lp_ref_m = float(kernels.seq_logprob(ref.logits, a.ctx_m, a.tok_m))
        out.append(a)
    return out


def dpo_loss(policy: ToyPolicy, ref: ToyPolicy, batch: list[TokenizedPair],
             beta: float) -> tuple[float, np.ndarray]:
    """Batch-mean -log sigmoid(beta * delta) and its gradient in the logits."""
    if beta <= 0:
        raise ValueError("beta must be > 0")
    arrays = _prepare(policy, ref, batch)
    m = len(arrays)
    grad = np.zeros_like(policy.logits)
    total = 0.0
    for a in arrays:
        delta = (a.lp_pol_p - a.lp_ref_p) - (a.lp_pol_m - a.lp_ref_m)
        total += float(np.logaddexp(0.0, -beta * delta))
        coef = -beta * _sigmoid(-beta * delta) / m
        kernels.add_seq_grad(policy.logits, a.ctx_p, a.tok_p, coef, grad)
        kernels.add_seq_grad(policy.logits, a.ctx_m, a.tok_m, -coef, grad)
    return total / m, grad


def ipo_loss(policy: ToyPolicy, ref: ToyPolicy, batch: list[TokenizedPair],
             tau: float) -> tuple[float, np.ndarray]:
    """Batch-mean (delta - 1/(2*tau))^2 with beta absorbed into delta (=1)."""
    if tau <= 0:
        raise ValueError("tau must be > 0")
    arrays = _prepare(policy, ref, batch)
    m = len(arrays)
    target = 1.0 / (2.0 * tau)
    grad = np.zeros_like(policy.logits)
    total = 0.0
    for a in arrays:
        delta = (a.lp_pol_p - a.lp_ref_p) - (a.lp_pol_m - a.lp_ref_m)
        miss = delta - target
        total += miss * miss  # not **2: float pow raises instead of inf
        coef = 2.0 * miss / m
        kernels.add_seq_grad(policy.logits, a.ctx_p, a.tok_p, coef, grad)
        kernels.add_seq_grad(policy.logits, a.ctx_m, a.tok_m, -coef, grad)
    return total / m, grad


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
    lam_c, lam_r = weights
    if lam_c <= 0 or lam_r <= 0:
        raise ValueError("kto weights must be > 0")
    if beta <= 0:
        raise ValueError("beta must be > 0")
    arrays = _prepare(policy, ref, batch)
    m = len(arrays)
    rewards_p = [beta * (a.lp_pol_p - a.lp_ref_p) for a in arrays]
    rewards_m = [beta * (a.lp_pol_m - a.lp_ref_m) for a in arrays]
    if reference_point is None:
        z = max(0.0, (sum(rewards_p) + sum(rewards_m)) / (2 * m))
    else:
        z = reference_point
    grad = np.zeros_like(policy.logits)
    total = 0.0
    for a, r_p, r_m in zip(arrays, rewards_p, rewards_m):
        s_p = _sigmoid(beta * (r_p - z))
        s_m = _sigmoid(beta * (z - r_m))
        total += lam_c * (1.0 - s_p) + lam_r * (1.0 - s_m)
        coef_p = -lam_c * beta * beta * s_p * (1.0 - s_p) / m
        coef_m = lam_r * beta * beta * s_m * (1.0 - s_m) / m
        kernels.add_seq_grad(policy.logits, a.ctx_p, a.tok_p, coef_p, grad)
        kernels.add_seq_grad(policy.logits, a.ctx_m, a.tok_m, coef_m, grad)
    return total / m, grad


def reward_accuracy(policy: ToyPolicy, ref: ToyPolicy,
                    pairs: list[TokenizedPair]) -> float:
    """Fraction of pairs whose chosen implicit reward strictly beats the
    rejected one; ties count as losses."""
    if not pairs:
        return 0.0
    wins = 0
    for pair in pairs:
        delta = (
            seq_logprob(policy, pair.x, pair.y_plus)
            - seq_logprob(ref, pair.x, pair.y_plus)
            - seq_logprob(policy, pair.x, pair.y_minus)
            + seq_logprob(ref, pair.x, pair.y_minus)
        )
        if delta > 0:
            wins += 1
    return wins / len(pairs)


def objective_loss(policy: ToyPolicy, ref: ToyPolicy, batch: list[TokenizedPair],
                   cfg: ObjectiveConfig) -> tuple[float, np.ndarray]:
    if cfg.objective == "dpo":
        return dpo_loss(policy, ref, batch, cfg.beta)
    if cfg.objective == "ipo":
        return ipo_loss(policy, ref, batch, cfg.tau)
    return kto_loss(policy, ref, batch, cfg.kto_weights, cfg.beta)


def train(
    policy_init: ToyPolicy,
    ref: ToyPolicy,
    pairs: list[TokenizedPair],
    cfg: ObjectiveConfig,
    epochs: int,
    lr: float,
) -> tuple[ToyPolicy, list[tuple[int, float, float]]]:
    """Full-batch gradient descent; deterministic given identical inputs,
    because it draws no randomness.

    History rows are (epoch, loss, reward_accuracy), both measured before
    that epoch's update.
    """
    if lr < 0:
        raise ValueError("lr must be >= 0")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    _check_compat(policy_init, ref)
    policy = policy_init.copy()
    history: list[tuple[int, float, float]] = []
    for epoch in range(1, epochs + 1):
        loss, grad = objective_loss(policy, ref, pairs, cfg)
        if not math.isfinite(loss) or not np.all(np.isfinite(grad)):
            raise DivergenceError(f"non-finite loss or gradient at epoch {epoch}")
        history.append((epoch, loss, reward_accuracy(policy, ref, pairs)))
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


def greedy_decode(
    policy: ToyPolicy,
    x: tuple[int, ...],
    max_len: int,
    stop_token: int | None = None,
) -> tuple[int, ...]:
    """Argmax rollout from context x (ties break toward the lowest id)."""
    _validate_tokens(tuple(x), policy.alphabet_size)
    seq = list(x)
    out: list[int] = []
    for _ in range(max_len):
        row = policy.logits[policy.context_index(tuple(seq))]
        tok = int(np.argmax(row))
        out.append(tok)
        seq.append(tok)
        if stop_token is not None and tok == stop_token:
            break
    return tuple(out)
