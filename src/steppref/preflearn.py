"""Tabular preference-learning lab.

A ToyPolicy is an autoregressive next-token model over a small alphabet:
a dense logits table indexed by the last `order` tokens (left-padded with a
dedicated pad symbol), softmaxed per row. DPO, IPO and KTO losses come with
analytic gradients over that table, verified elsewhere against central
finite differences, plus a plain full-batch gradient-descent trainer and a
reward-accuracy (winrate) tracker.

A batch is flattened and planned once: all its tokens validated as one
array, the table row ahead of each chosen and rejected token found with
integer numpy, the kernels' batch plan built (`kernels.plan_batch`: the
distinct rows read and what indexes them), reference log-probs computed.
One loss pass serves all three objectives: one kernel call for every
sequence's log-prob, which softmaxes each distinct table row once, one
gradient coefficient per sequence from the pairs' log-ratios (the only
objective-specific step), one kernel call that scatters the gradient from
that softmax into a block of the rows read. Reward accuracy reuses those
log-probs. `train` flattens once per call, and each epoch checks and steps
only the rows read; `objective_loss` writes the block into a dense gradient.

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
from itertools import chain

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

    def copy(self) -> "ToyPolicy":
        return ToyPolicy(self.alphabet_size, self.order, self.logits.copy())


@dataclass(frozen=True)
class TokenizedPair:
    x: tuple[int, ...]
    y_plus: tuple[int, ...]
    y_minus: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.x or not self.y_plus or not self.y_minus:
            raise ValueError("tokenized sequences must be non-empty")


# setting -> (the objectives that read it, its value when one of them is given none)
_SETTINGS = {"beta": (("dpo", "kto"), 0.1), "tau": (("ipo",), None),
             "kto_weights": (("kto",), (1.0, 1.0))}


@dataclass(frozen=True)
class ObjectiveConfig:
    """A setting given to an objective that does not read it is refused; one
    the objective reads but is not given takes its default from `_SETTINGS`."""

    objective: str = "dpo"
    beta: float | None = None
    tau: float | None = None
    kto_weights: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective: {self.objective!r}")
        for name, (owners, default) in _SETTINGS.items():
            if self.objective in owners:
                if getattr(self, name) is None:
                    object.__setattr__(self, name, default)
            elif getattr(self, name) is not None:
                raise ValueError(f"{name} is read by {' and '.join(owners)}, "
                                 f"not {self.objective}")
        if self.objective == "ipo" and self.tau is None:
            raise ValueError("ipo needs tau")
        if self.kto_weights is not None and len(self.kto_weights) != 2:
            raise ValueError("kto_weights must be two values (chosen, rejected)")
        given = [v for v in (self.beta, self.tau, *(self.kto_weights or ())) if v is not None]
        if not all(map(math.isfinite, given)):
            raise ValueError("beta, tau and kto_weights must be finite")
        if min(given) <= 0:
            raise ValueError("beta, tau and kto_weights must be > 0")


def _validate_tokens(toks: np.ndarray, alphabet_size: int) -> None:
    bad = np.flatnonzero((toks < 0) | (toks >= alphabet_size))
    if bad.shape[0]:
        raise DomainError(f"token {toks[bad[0]]} outside alphabet of size {alphabet_size}")


def _check_compat(policy: ToyPolicy, ref: ToyPolicy) -> None:
    if (policy.alphabet_size, policy.order) != (ref.alphabet_size, ref.order):
        raise ValueError("policy and reference must share alphabet_size and order")


def _token_rows(seqs: list[tuple[tuple[int, ...], tuple[int, ...]]], order: int,
                alphabet_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y) sequences laid end to end, every token checked: ctx[i] is the
    table row ahead of token tok[i], and lengths holds each len(y). A row is
    the `order` tokens before a token read as a base-(alphabet_size+1)
    number, with the pad symbol alphabet_size in place of each one before
    its sequence's x."""
    toks = np.fromiter(chain.from_iterable(chain.from_iterable(seqs)), np.int64)
    _validate_tokens(toks, alphabet_size)  # the first bad token in x1, y1, x2, y2, ... order
    x_len = np.array([len(x) for x, _ in seqs], dtype=np.int64)
    lengths = np.array([len(y) for _, y in seqs], dtype=np.int64)
    # each y token's place in toks, and where its sequence's x starts
    pos = np.arange(lengths.sum()) + np.repeat(np.cumsum(x_len), lengths)
    first = np.repeat(np.cumsum(x_len + lengths) - x_len - lengths, lengths)
    ctx = np.zeros(pos.shape[0], np.int64)
    for back in range(order, 0, -1):
        ctx *= alphabet_size + 1
        ctx += np.where(pos - back >= first, toks.take(pos - back, mode="clip"), alphabet_size)
    return ctx, toks[pos], lengths


def seq_logprob(policy: ToyPolicy, x: tuple[int, ...], y: tuple[int, ...]) -> float:
    """log pi(y | x): sum of per-token log softmax terms. Empty y gives 0."""
    ctx, tok, _ = _token_rows([(x, y)], policy.order, policy.alphabet_size)
    plan = kernels.plan_batch(ctx, tok, np.zeros(1, np.int64), policy.logits.shape)
    return float(_logprobs(policy.logits, ctx, plan)[0])


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


@dataclass(frozen=True)
class _Flat:
    """A batch flattened and planned once. Sequences run y+_1, y-_1, y+_2,
    y-_2, ...; ctx[i] is the table row ahead of position i."""

    ctx: np.ndarray
    plan: kernels.BatchPlan
    ref_lp: list[float]  # log pi_ref of each sequence


def _logprobs(logits: np.ndarray, ctx: np.ndarray, plan: kernels.BatchPlan) -> list[float]:
    return kernels.seq_logprob(logits, ctx, plan)[0].tolist()


def _flatten(policy: ToyPolicy, ref: ToyPolicy, batch: list[TokenizedPair]) -> _Flat:
    _check_compat(policy, ref)
    if not batch:
        raise ValueError("batch must be non-empty")
    seqs = [(p.x, y) for p in batch for y in (p.y_plus, p.y_minus)]
    ctx, tok, lengths = _token_rows(seqs, policy.order, policy.alphabet_size)
    plan = kernels.plan_batch(ctx, tok, np.cumsum(lengths) - lengths, policy.logits.shape)
    return _Flat(ctx, plan, _logprobs(ref.logits, ctx, plan))


def _accuracy(pol_lp: list[float], ref_lp: list[float]) -> float:
    """Fraction of pairs whose chosen implicit reward strictly beats the
    rejected one; ties count as losses."""
    wins = sum(
        pp - rp - pm + rm > 0
        for pp, rp, pm, rm in zip(pol_lp[0::2], ref_lp[0::2], pol_lp[1::2], ref_lp[1::2])
    )
    return wins / (len(pol_lp) // 2)


def _terms(cfg: ObjectiveConfig, ratios: list[float]) -> tuple[float, list[float]]:
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
        z = max(0.0, (sum(rewards_p) + sum(rewards_m)) / (2 * m))
        for r_p, r_m in zip(rewards_p, rewards_m):
            s_p = _sigmoid(beta * (r_p - z))
            s_m = _sigmoid(beta * (z - r_m))
            total += lam_c * (1.0 - s_p) + lam_r * (1.0 - s_m)
            coefs += [-lam_c * beta * beta * s_p * (1.0 - s_p) / m,
                      lam_r * beta * beta * s_m * (1.0 - s_m) / m]
        return total / m, coefs
    deltas = [p - n for p, n in zip(chosen, rejected)]
    if cfg.objective == "dpo":
        # one call for the batch: elementwise the same bits as one per pair
        losses = np.logaddexp(0.0, [-cfg.beta * d for d in deltas]).tolist()
        slopes = [-cfg.beta * _sigmoid(-cfg.beta * d) / m for d in deltas]
    else:
        misses = [d - 1.0 / (2.0 * cfg.tau) for d in deltas]
        losses = [miss * miss for miss in misses]  # not **2: float pow raises instead of inf
        slopes = [2.0 * miss / m for miss in misses]
    for loss, coef in zip(losses, slopes):
        total += loss
        coefs += [coef, -coef]
    return total / m, coefs


def _loss_pass(policy: ToyPolicy, flat: _Flat,
               cfg: ObjectiveConfig) -> tuple[float, np.ndarray, list[float]]:
    """Loss, its gradient in logits[flat.plan.rows] (zero in every other
    row), and the policy log-prob of each sequence: one seq_logprob call,
    and one add_seq_grad call that reuses its softmax."""
    plan = flat.plan
    sums, probs = kernels.seq_logprob(policy.logits, flat.ctx, plan)
    pol_lp = sums.tolist()
    loss, coefs = _terms(cfg, [p - r for p, r in zip(pol_lp, flat.ref_lp)])
    block = kernels.add_seq_grad(probs, flat.ctx, np.repeat(coefs, plan.lengths), plan)
    return loss, block, pol_lp


def objective_loss(policy: ToyPolicy, ref: ToyPolicy, batch: list[TokenizedPair],
                   cfg: ObjectiveConfig) -> tuple[float, np.ndarray]:
    """Batch-mean loss of `cfg.objective` and its gradient in the logits."""
    flat = _flatten(policy, ref, batch)
    loss, block, _ = _loss_pass(policy, flat, cfg)
    grad = np.zeros(policy.logits.shape)
    grad[flat.plan.rows] = block
    return loss, grad


def dpo_loss(policy: ToyPolicy, ref: ToyPolicy, batch: list[TokenizedPair],
             beta: float) -> tuple[float, np.ndarray]:
    """Batch-mean -log sigmoid(beta * delta) and its gradient in the logits.
    Kept because the benchmark calls it; other callers use objective_loss."""
    return objective_loss(policy, ref, batch, ObjectiveConfig("dpo", beta=beta))


def reward_accuracy(policy: ToyPolicy, ref: ToyPolicy,
                    pairs: list[TokenizedPair]) -> float:
    """Fraction of pairs whose chosen implicit reward strictly beats the
    rejected one; ties count as losses."""
    if not pairs:
        return 0.0
    flat = _flatten(policy, ref, pairs)
    return _accuracy(_logprobs(policy.logits, flat.ctx, flat.plan), flat.ref_lp)


def train(
    policy_init: ToyPolicy,
    ref: ToyPolicy,
    pairs: list[TokenizedPair],
    cfg: ObjectiveConfig,
    epochs: int,
    lr: float,
) -> tuple[ToyPolicy, list[tuple[int, float, float]]]:
    """Full-batch gradient descent; deterministic given identical inputs,
    because it draws no randomness. The batch is flattened and planned, and
    its reference log-probs computed, once per call; each epoch then checks
    and updates only the table rows the batch reads, as the gradient is zero
    in every other row.

    History rows are (epoch, loss, reward_accuracy), both measured before
    that epoch's update.
    """
    if not (math.isfinite(lr) and lr >= 0):
        raise ValueError("lr must be finite and >= 0")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    flat = _flatten(policy_init, ref, pairs)
    rows = flat.plan.rows
    policy = policy_init.copy()
    history: list[tuple[int, float, float]] = []
    for epoch in range(1, epochs + 1):
        loss, block, pol_lp = _loss_pass(policy, flat, cfg)
        if not math.isfinite(loss) or not np.all(np.isfinite(block)):
            raise DivergenceError(f"non-finite loss or gradient at epoch {epoch}")
        history.append((epoch, loss, _accuracy(pol_lp, flat.ref_lp)))
        policy.logits[rows] -= lr * block
    return policy, history


# ---------------------------------------------------------------------------
# bridging pipeline text into the toy alphabet


def token_id(token: str, alphabet_size: int) -> int:
    # Top id is reserved for the terminal marker appended to chosen sequences.
    return stable_seed("tok", token) % (alphabet_size - 1)


def tokenize_text(text: str, alphabet_size: int) -> list[int]:
    return [token_id(t, alphabet_size) for t in text.split()]


def tokenize_pair_records(
    records: list[PairRecord], alphabet_size: int
) -> tuple[list[TokenizedPair], dict[str, int]]:
    """Hash whitespace tokens into a fixed alphabet, each distinct token once.

    The chosen sequence gets a terminal marker token; the rejected sequence
    does not (it never carries a conclusion/eos). The token->id mapping is
    returned too, but no stage records it yet: `train` discards it, and only
    tests and the benchmark read it.
    """
    if alphabet_size < 3:
        raise ValueError("alphabet_size must be >= 3")
    terminal = alphabet_size - 1
    vocab: dict[str, int] = {}

    def toks(text: str) -> list[int]:
        words = text.split()
        for word in words:
            if word not in vocab:
                vocab[word] = token_id(word, alphabet_size)
        return [vocab[word] for word in words]

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
    if not (math.isfinite(smoothing) and smoothing > 0):
        raise ValueError("smoothing must be finite and > 0")
    policy = ToyPolicy.zeros(alphabet_size, order)
    ctx, tok, _ = _token_rows(examples, order, alphabet_size)
    counts = np.zeros_like(policy.logits)
    np.add.at(counts, (ctx, tok), 1.0)  # whole numbers: the order of adds cannot matter
    policy.logits = np.log(counts + smoothing)
    return policy


def greedy_decode(policy: ToyPolicy, x: tuple[int, ...], max_len: int) -> tuple[int, ...]:
    """Argmax rollout from context x (ties break toward the lowest id)."""
    _validate_tokens(np.array(x, dtype=np.int64), policy.alphabet_size)
    seq = list(x)
    out: list[int] = []
    for _ in range(max_len):
        ctx, _, _ = _token_rows([(tuple(seq), (0,))], policy.order, policy.alphabet_size)
        tok = int(np.argmax(policy.logits[ctx[0]]))
        out.append(tok)
        seq.append(tok)
    return tuple(out)
