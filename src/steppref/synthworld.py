"""Deterministic toy solver over multi-step integer chain problems.

Questions are rigid templated English ("Start with 7. Add 3. Multiply by 2.
What is the final value?"), one operation per intended solution step.
Solution steps are bare equation lines, one per operation, so an exact
oracle can parse them back and so each step is a single whitespace token
(which keeps low-order tabular policies able to model the chains):

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


class StepGrammarError(ValueError):
    """A solution step does not follow the synthetic step grammar."""

    def __init__(self, index: int, line: str):
        super().__init__(f"step {index} violates the step grammar: {line!r}")
        self.index = index


class PrefixError(ValueError):
    """A completion prefix is not a valid partial solution of the problem."""


@dataclass(frozen=True)
class SynthConfig:
    t: int = 5
    epsilon: float = 0.2
    value_range: tuple[int, int] = (2, 9)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError("t must be >= 1")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        lo, hi = self.value_range
        if lo > hi:
            raise ValueError("value_range must be (lo, hi) with lo <= hi")


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


def parse_step(line: str, index: int) -> tuple[str, int, int, int]:
    """(op, operand, shown previous value, declared result) for a step line."""
    m = _STEP_RE.match(line.strip())
    if not m:
        raise StepGrammarError(index, line)
    op = _SYMBOL_OPS[m.group(2)]
    return op, int(m.group(3)), int(m.group(1)), int(m.group(4))


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


def simulate_solution(p: Problem, cfg: SynthConfig, draw_seed: int) -> SynthTrace:
    """One sampled solution; corruption strikes each step with prob epsilon."""
    start, ops = parse_question(p.question)
    steps, value, first_error = _walk(ops, start, False, cfg.epsilon,
                                      rng_for(cfg.seed, "draw", p.id, draw_seed))
    rationale = Rationale(
        steps=tuple(steps),
        conclusion=f"The answer is {value}.",
        producer="SYNTH",
        label="correct" if first_error is None else "incorrect",
        extracted_answer=canonicalize(str(value)),
    )
    return SynthTrace(rationale=rationale, true_first_error=first_error)


def _check_prefix(p: Problem, prefix_steps: list[str]) -> tuple[int, bool]:
    """(running value after the prefix, whether the prefix went wrong)."""
    start, ops = parse_question(p.question)
    if len(prefix_steps) > len(ops):
        raise PrefixError(
            f"prefix has {len(prefix_steps)} steps but the problem has {len(ops)}"
        )
    value = start
    wrong = False
    for i, line in enumerate(prefix_steps, start=1):
        try:
            op, operand, _, declared = parse_step(line, i)
        except StepGrammarError as e:
            raise PrefixError(str(e)) from e
        expected_op, expected_operand = ops[i - 1]
        if (op, operand) != (expected_op, expected_operand):
            raise PrefixError(
                f"step {i} applies {op} {operand} but the problem expects "
                f"{expected_op} {expected_operand}"
            )
        if declared != _apply(op, value, operand):
            wrong = True
        value = declared
    return value, wrong


def complete_from(p: Problem, prefix_steps: list[str], cfg: SynthConfig,
                  draw_seed: int) -> str:
    """Continue a partial solution to a full answer under the epsilon process.

    A wrong prefix is propagated with exact arithmetic (no fresh corruption),
    so its final answer is wrong with certainty.
    """
    value, wrong = _check_prefix(p, prefix_steps)
    _, ops = parse_question(p.question)
    lines, value, _ = _walk(ops[len(prefix_steps):], value, wrong, cfg.epsilon,
                            rng_for(cfg.seed, "complete", p.id, draw_seed))
    lines.append(f"The answer is {value}.")
    return "\n".join(lines)


def oracle_first_error(p: Problem, r: Rationale) -> int | None:
    """Smallest step index whose declared result disagrees with exact
    evaluation of that step's operation on the prior declared value."""
    start, _ = parse_question(p.question)
    value = start
    for i, line in enumerate(r.steps, start=1):
        op, operand, _, declared = parse_step(line, i)
        if declared != _apply(op, value, operand):
            return i
        value = declared
    return None
