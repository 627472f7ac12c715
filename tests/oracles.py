"""Reference functions that only the tests call.

The synthetic world's grammar and arithmetic are written out here again, so
that a change to the package's parser does not move the oracle with it.
"""

from __future__ import annotations

import re

from steppref.corpus import Problem, Rationale

_START_RE = re.compile(r"^Start with (-?\d+)\.")
_OP_RE = re.compile(r"(Add|Subtract|Multiply by) (\d+)\.")
_STEP_RE = re.compile(r"^(-?\d+)([+*-])(\d+)=(-?\d+)\.$")
_SYMBOL = {"Add": "+", "Subtract": "-", "Multiply by": "*"}


def evaluate(symbol: str, value: int, operand: int) -> int:
    if symbol == "+":
        return value + operand
    if symbol == "-":
        return value - operand
    return value * operand


def question_ops(question: str) -> tuple[int, list[tuple[str, int]]]:
    """(start value, [(symbol, operand), ...]) of a templated question."""
    start = int(_START_RE.match(question).group(1))
    return start, [(_SYMBOL[w], int(x)) for w, x in _OP_RE.findall(question)]


def lev_oracle(a, b) -> int:
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


def oracle_first_error(p: Problem, r: Rationale) -> int | None:
    """Smallest step index that is off the step grammar, applies another
    operation than the question's, or declares a result that disagrees with
    exact evaluation of that operation on the prior declared value."""
    value, ops = question_ops(p.question)
    for i, line in enumerate(r.steps, start=1):
        m = _STEP_RE.match(line.strip())
        if m is None or i > len(ops):
            return i
        symbol, operand, declared = m.group(2), int(m.group(3)), int(m.group(4))
        if (symbol, operand) != ops[i - 1] or declared != evaluate(symbol, value, operand):
            return i
        value = declared
    return None
