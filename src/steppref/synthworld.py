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

OP_ADD = "add"
OP_SUB = "subtract"
OP_MUL = "multiply"

_OP_WORDS = {OP_ADD: "Add", OP_SUB: "Subtract", OP_MUL: "Multiply by"}
_OP_SYMBOLS = {OP_ADD: "+", OP_SUB: "-", OP_MUL: "*"}
_WORD_OPS = {v: k for k, v in _OP_WORDS.items()}
_SYMBOL_OPS = {v: k for k, v in _OP_SYMBOLS.items()}

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
    if op == OP_ADD:
        return value + operand
    if op == OP_SUB:
        return value - operand
    return value * operand


def _fmt_step(op: str, operand: int, prev: int, declared: int) -> str:
    return f"{prev}{_OP_SYMBOLS[op]}{operand}={declared}."


@lru_cache(maxsize=4096)
def parse_question(question: str) -> tuple[int, tuple[tuple[str, int], ...]]:
    """(start value, ((op, operand), ...)) for a templated question."""
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
        kind = OP_ADD if r < 0.4 else OP_SUB if r < 0.8 else OP_MUL
        if kind == OP_MUL:
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


def problem_from_question(question: str) -> Problem:
    """Reconstruct a Problem from bare question text (id derived from content)."""
    start, ops = parse_question(question)
    value = start
    for op, operand in ops:
        value = _apply(op, value, operand)
    pid = f"q-{stable_seed(question) % 10**12:012d}"
    return Problem(id=pid, question=question, gold_answer=canonicalize(str(value)),
                   style="answer-line")


def _walk(ops: tuple[tuple[str, int], ...], value: int, wrong: bool, epsilon: float,
          rng) -> tuple[list[str], int, int | None]:
    """Apply `ops` from `value`, one step line each. While the chain is still
    right, each step is offset by a `_DELTAS` draw with probability epsilon.
    Returns (step lines, final value, 1-based index in `ops` of the corrupted
    step or None)."""
    lines: list[str] = []
    corrupted: int | None = None
    for i, (op, operand) in enumerate(ops, start=1):
        declared = _apply(op, value, operand)
        if not wrong and rng.random() < epsilon:
            declared += int(_DELTAS[int(rng.integers(0, len(_DELTAS)))])
            wrong, corrupted = True, i
        lines.append(_fmt_step(op, operand, value, declared))
        value = declared
    return lines, value, corrupted


def simulate_solution(p: Problem, cfg: SynthConfig, draw_seed: int,
                      n: int | None = None) -> SynthTrace | list[SynthTrace]:
    """Sampled solutions (corruption strikes each step with prob epsilon), drawn
    in index order from one generator per `draw_seed`: the first k of n equal
    a k-draw. Without `n`, the first draw alone."""
    start, ops = parse_question(p.question)
    rng = rng_for(cfg.seed, "draw", p.id, draw_seed)
    traces = []
    for _ in range(1 if n is None else n):
        steps, value, first_error = _walk(ops, start, False, cfg.epsilon, rng)
        rationale = Rationale(
            steps=tuple(steps),
            conclusion=f"The answer is {value}.",
            producer="SYNTH",
            label="correct" if first_error is None else "incorrect",
            extracted_answer=canonicalize(str(value)),
        )
        traces.append(SynthTrace(rationale=rationale, true_first_error=first_error))
    return traces[0] if n is None else traces


def check_prefix(p: Problem, prefix_steps: list[str]) -> tuple[int, bool, tuple]:
    """(value after the prefix, whether it went wrong, the ops left after it)."""
    start, ops = parse_question(p.question)
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
        op, operand, declared = _SYMBOL_OPS[m.group(2)], int(m.group(3)), int(m.group(4))
        expected_op, expected_operand = ops[i - 1]
        if (op, operand) != (expected_op, expected_operand):
            raise PrefixError(
                f"step {i} applies {op} {operand} but the problem expects "
                f"{expected_op} {expected_operand}"
            )
        if declared != _apply(op, value, operand):
            wrong = True
        value = declared
    return value, wrong, ops[len(prefix_steps):]


def complete_from(p: Problem, prefix_steps: list[str], cfg: SynthConfig,
                  stream: object, n: int) -> list[str]:
    """n continuations of a partial solution under the epsilon process, walked
    in index order from one generator per `stream`: the first k of n equal a
    k-draw. A wrong prefix is propagated with exact arithmetic, so its answer
    is wrong with certainty and independent of `stream`: no generator is
    built, and one text comes back n times."""
    value, wrong, ops = check_prefix(p, prefix_steps)
    rng = None if wrong else rng_for(cfg.seed, "complete", p.id, stream)
    texts = []
    for _ in range(1 if wrong else n):
        lines, final, _ = _walk(ops, value, wrong, cfg.epsilon, rng)
        texts.append("\n".join([*lines, f"The answer is {final}."]))
    return texts * n if wrong else texts
