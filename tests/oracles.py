"""Reference functions that only the tests call."""

from __future__ import annotations

from steppref import kernels, pipeline
from steppref.corpus import Problem, Rationale
from steppref.synthworld import _apply, parse_question, parse_step


def token_edit_distance(a: Rationale, b: Rationale) -> int:
    """Levenshtein distance over whitespace tokens of the joined steps."""
    return kernels.levenshtein(pipeline._tokens(a), pipeline._tokens(b))


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
