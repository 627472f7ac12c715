"""Deterministic toy solver over multi-step integer chain problems.

Questions are rigid templated English ("Start with 7. Add 3. Multiply by 2.
What is the final value?"), one operation per intended solution step, with
unsigned operands drawn from value_range.
Solution steps are bare equation lines, one per operation, so that
`check_prefix`, the one step parser, reads them back exactly, and so each
step is a single whitespace token (which keeps low-order tabular policies
able to model the chains):

    7+3=10.
    10*2=20.
    The answer is 20.

The simulated solver falls into a "pit" with per-step probability epsilon:
the step's declared result is offset by a nonzero delta. After the first
corruption every later step propagates the wrong running value with exact
arithmetic, so errors are irreversible and never self-correct; additive
deltas survive the remaining add/subtract/multiply ops (multipliers are
>= 2), which guarantees a corrupted trace ends with a wrong final answer.
The probability that a t-step solution is fully correct is therefore
exactly (1 - epsilon)**t.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .corpus import Problem, Rationale
from .extraction import canonicalize
from .rng import rng_for, stable_seed

_OP_WORDS = {"+": "Add", "-": "Subtract", "*": "Multiply by"}
_WORD_OPS = {v: k for k, v in _OP_WORDS.items()}

_MULTIPLIERS = (2, 3)  # never 0 or 1: keeps corruption offsets alive downstream
_DELTAS = (-3, -2, -1, 1, 2, 3)

_QUESTION_RE = re.compile(
    r"^Start with (-?\d+)\.((?: (?:Add|Subtract|Multiply by) \d+\.)+)"
    r" What is the final value\?$"
)
_QUESTION_OP_RE = re.compile(r"(Add|Subtract|Multiply by) (\d+)\.")
_STEP_RE = re.compile(r"^(-?\d+)([+\-*])(\d+)=(-?\d+)\.$")


class QuestionParseError(ValueError):
    """Question text does not follow the synthetic template."""


class PrefixError(ValueError):
    """A completion prefix is not a valid partial solution of the problem."""


@dataclass(frozen=True)
class SynthConfig:
    t: int = 5
    epsilon: float = 0.2
    value_range: tuple[int, int] = (2, 9)
    seed: int = 0

    def __post_init__(self) -> None:
        # Every step at worst multiplies by 3 from the top of an int64 range,
        # so 1000 steps print in under 640 digits, the lowest limit CPython
        # accepts for int/str conversion.
        if not 1 <= self.t <= 1000:
            raise ValueError("t must lie in [1, 1000]")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        lo, hi = self.value_range
        if not 0 <= lo <= hi:  # the question and step grammars read unsigned operands
            raise ValueError("value_range must be (lo, hi) with 0 <= lo <= hi")
        if hi >= 2**63:  # numpy draws operands as int64
            raise ValueError("value_range must end below 2**63")


@dataclass(frozen=True)
class SynthTrace:
    rationale: Rationale
    true_first_error: int | None


def _apply(op: str, value: int, operand: int) -> int:
    if op == "+":
        return value + operand
    if op == "-":
        return value - operand
    return value * operand


@lru_cache(maxsize=4096)
def parse_question(question: str) -> tuple[int, tuple[tuple[str, int], ...]]:
    """(start value, ((op, operand), ...)) for a templated question; an op is
    its step symbol, "+", "-" or "*"."""
    m = _QUESTION_RE.match(question)
    if not m:
        raise QuestionParseError(f"not a synthetic question: {question!r}")
    start = int(m.group(1))
    ops = tuple(
        (_WORD_OPS[word], int(operand))
        for word, operand in _QUESTION_OP_RE.findall(m.group(2))
    )
    return start, ops


def gen_problem(cfg: SynthConfig, idx: int) -> Problem:
    """Deterministic problem number `idx` under cfg.seed."""
    rng = rng_for(cfg.seed, "problem", idx)
    lo, hi = cfg.value_range
    start = int(rng.integers(lo, hi + 1))
    parts = [f"Start with {start}."]
    value = start
    for _ in range(cfg.t):
        # Mostly additive chains keep running values in a narrow band, so
        # different problems genuinely share intermediate states.
        r = rng.random()
        kind = "+" if r < 0.4 else "-" if r < 0.8 else "*"
        if kind == "*":
            operand = int(_MULTIPLIERS[int(rng.integers(0, len(_MULTIPLIERS)))])
        else:
            operand = int(rng.integers(lo, hi + 1))
        parts.append(f"{_OP_WORDS[kind]} {operand}.")
        value = _apply(kind, value, operand)
    parts.append("What is the final value?")
    return Problem(
        id=f"synth-{idx:05d}",
        question=" ".join(parts),
        gold_answer=canonicalize(str(value)),
        style="answer-line",
    )


def _walk(ops: tuple[tuple[str, int], ...], value: int, epsilon: float,
          row: list[float] | None) -> tuple[list[str], int, int | None]:
    """Apply `ops` from `value`, one step line each. `row`, one walk's row of
    its generator's uniform block, holds an entry per op and one more, u: the
    first step whose entry is below epsilon is offset by
    `_DELTAS[int(u * len(_DELTAS))]`. No row (a prefix already wrong), no
    offset. Returns (step lines, final value, 1-based index of that step or None)."""
    lines: list[str] = []
    hit: int | None = None
    for j, (op, operand) in enumerate(ops, start=1):
        declared = _apply(op, value, operand)
        if row is not None and hit is None and row[j - 1] < epsilon:
            declared += _DELTAS[int(row[-1] * len(_DELTAS))]
            hit = j
        lines.append(f"{value}{op}{operand}={declared}.")
        value = declared
    return lines, value, hit


def simulate_solution(p: Problem, cfg: SynthConfig, draw_seed: int,
                      n: int | None = None) -> SynthTrace | list[SynthTrace]:
    """Sampled solutions (corruption strikes each step with prob epsilon), walk i
    reading row i of one `(n, len(ops) + 1)` uniform block, filled in C order
    from one generator per `draw_seed`: the first k of n equal a k-draw.
    Without `n`, the first draw alone."""
    start, ops = parse_question(p.question)
    rng = rng_for(cfg.seed, "draw", p.id, draw_seed)
    traces = []
    for row in rng.random((1 if n is None else n, len(ops) + 1)).tolist():
        steps, value, first_error = _walk(ops, start, cfg.epsilon, row)
        rationale = Rationale(
            steps=tuple(steps),
            conclusion=f"The answer is {value}.",
            producer="SYNTH",
            label="correct" if first_error is None else "incorrect",
            extracted_answer=canonicalize(str(value)),
        )
        traces.append(SynthTrace(rationale=rationale, true_first_error=first_error))
    return traces[0] if n is None else traces


def check_prefix(question: str, prefix_steps: list[str]) -> tuple[int, bool, tuple]:
    """(value after the prefix, whether it went wrong, the ops left after it)."""
    start, ops = parse_question(question)
    if len(prefix_steps) > len(ops):
        raise PrefixError(
            f"prefix has {len(prefix_steps)} steps but the problem has {len(ops)}"
        )
    value = start
    wrong = False
    for i, line in enumerate(prefix_steps, start=1):
        m = _STEP_RE.match(line.strip())
        if not m:
            raise PrefixError(f"step {i} violates the step grammar: {line!r}")
        op, operand, declared = m.group(2), int(m.group(3)), int(m.group(4))
        if (op, operand) != ops[i - 1]:
            raise PrefixError("step {} applies {}{} but the problem expects {}{}"
                              .format(i, op, operand, *ops[i - 1]))
        if declared != _apply(op, value, operand):
            wrong = True
        value = declared
    return value, wrong, ops[len(prefix_steps):]


def complete_from(question: str, prefix_steps: list[str], cfg: SynthConfig,
                  stream: object, n: int) -> list[str]:
    """n continuations of a partial solution under the epsilon process, walk i
    reading row i of one `(n, len(ops left) + 1)` uniform block, filled in C
    order from one generator per `stream`: the first k of n equal a k-draw. A
    wrong prefix is propagated with exact arithmetic, so its answer is wrong
    with certainty and independent of `stream`: no generator, one text n times."""
    value, wrong, ops = check_prefix(question, prefix_steps)
    # The key names the question in every draw: changing it moves every synthetic byte.
    rows = [None] if wrong else rng_for(
        cfg.seed, "complete", f"q-{stable_seed(question) % 10**12:012d}", stream,
    ).random((n, len(ops) + 1)).tolist()
    texts = []
    for row in rows:
        lines, final, _ = _walk(ops, value, cfg.epsilon, row)
        texts.append("\n".join([*lines, f"The answer is {final}."]))
    return texts * n if wrong else texts
