"""Final-answer extraction and grading utilities.

Covers the extractor side of the pipeline: canonicalizing answer strings,
splitting raw completions into reasoning steps plus an optional conclusion
line, detecting the answer declaration for each answer style, and
deduplicating rationales.

The canonicalization rules are fixed here and versioned with the repo;
grading never consults an external checker. Symbolic equivalence beyond
these rules (e.g. 0.5 vs 1/2) is deliberately out of scope.
"""

from __future__ import annotations

import re
import unicodedata
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .corpus import Rationale


class EmptyRationaleError(ValueError):
    """Raised when a completion contains no non-blank lines."""


# How a completion declares its final answer: "answer-line" is a line
# containing "The answer is <answer>"; "boxed" is the last \boxed{...} group.
STYLES = ("answer-line", "boxed")

_ANSWER_LINE_RE = re.compile(r"the answer is\s*(.+)$", re.IGNORECASE)
_FRAC_RE = re.compile(r"\\[tdc]?frac\{([^{}]*)\}\{([^{}]*)\}")
_THOUSANDS_RE = re.compile(r"(?<=\d),(?=\d)")
_SLASH_RE = re.compile(r"\s*/\s*")
_INTEGER_RE = re.compile(r"(-?[0-9]+)\.?")
_CURRENCY = "$€£¥₩"
_TRAILING = ".,!?;: \t"


def _unknown_style(style: str) -> ValueError:
    return ValueError(f"unknown answer style: {style!r}")


def canonicalize(ans: str) -> str:
    """Normalize an answer string to its canonical comparison form.

    Deterministic and idempotent: LaTeX fractions become a/b, currency
    symbols and digit-grouping commas are dropped, whitespace is collapsed,
    trailing punctuation is stripped, and the result is lowercased.
    """
    # A plain integer, or one ending a sentence ("The answer is 42."), is
    # every synthetic answer; the rules would only strip that period.
    m = _INTEGER_RE.fullmatch(ans)
    return m.group(1) if m else _canonical_by_rules(ans)


def _canonical_by_rules(ans: str) -> str:
    s = ans.strip()
    while True:
        t = _FRAC_RE.sub(lambda m: f"{m.group(1)}/{m.group(2)}", s)
        if t == s:
            break
        s = t
    s = s.replace("\\$", "")
    s = "".join(ch for ch in s if ch not in _CURRENCY)
    s = _THOUSANDS_RE.sub("", s)
    s = _SLASH_RE.sub("/", s)
    s = " ".join(s.split())
    s = s.rstrip(_TRAILING)
    return s.lower().strip()


def _last_boxed_group(text: str) -> str | None:
    start = text.rfind("\\boxed{")
    if start < 0:
        return None
    start += len("\\boxed{")
    depth = 1
    for end in range(start, len(text)):
        if text[end] == "{":
            depth += 1
        elif text[end] == "}":
            depth -= 1
            if depth == 0:
                return text[start:end]
    return None


def extract_answer(raw: str, style: str) -> str | None:
    """Canonical answer from the last declaration of answer style `style`
    (one of STYLES), or None."""
    if style == "answer-line":
        found = None
        for line in raw.splitlines():
            m = _ANSWER_LINE_RE.search(line)
            if m:
                found = m.group(1)
    elif style == "boxed":
        found = _last_boxed_group(raw)
    else:
        raise _unknown_style(style)
    if found is None:
        return None
    return canonicalize(found) or None


def split_steps(raw: str, style: str = "answer-line") -> tuple[list[str], str | None]:
    """Split raw text into non-blank step lines and an optional conclusion.

    The final non-blank line is returned as the conclusion iff it declares
    an answer in style `style` (one of STYLES); otherwise all lines are steps.
    """
    if style not in STYLES:
        raise _unknown_style(style)
    lines = [ln.strip() for ln in raw.splitlines() if ln.strip()]
    if not lines:
        raise EmptyRationaleError("completion has no non-blank lines")
    last = lines[-1]
    if (_ANSWER_LINE_RE.search(last) if style == "answer-line" else "\\boxed{" in last):
        return lines[:-1], last
    return lines, None


_DIGIT_RUN_RE = re.compile(r"\d+")
_LEADING_ZERO_RE = re.compile(r"(?<![0-9])0[0-9]")


def _normalize_step(step: str) -> str:
    collapsed = " ".join(step.split())
    # Only non-ASCII digits (which \d also matches) or leading zeros need the rewrite.
    if collapsed.isascii() and not _LEADING_ZERO_RE.search(collapsed):
        return collapsed
    return _DIGIT_RUN_RE.sub(_plain_number, collapsed)


def _plain_number(m: re.Match) -> str:
    """A digit run as str(int(run)) writes it, at any length: int() reads at
    most 4300 digits from a string by default."""
    run = "".join(str(unicodedata.decimal(ch)) for ch in m.group(0))
    return run.lstrip("0") or "0"


def dedup(rationales: list[Rationale]) -> list[Rationale]:
    """Keep the first rationale per key, in order. The key is the steps with
    whitespace runs collapsed and digit runs written as str(int(run)), so
    cosmetic variants collapse while distinct numbers keep distinct keys."""
    seen: set[str] = set()
    out = []
    for r in rationales:
        key = "\n".join(map(_normalize_step, r.steps))
        if key in seen:
            continue
        seen.add(key)
        out.append(r)
    return out

