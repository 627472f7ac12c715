import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steppref import extraction
from steppref.corpus import Problem, Rationale, RationaleRecord
from steppref.extraction import (
    EmptyRationaleError,
    canonicalize,
    dedup,
    extract_answer,
    split_steps,
)
from steppref.pipeline import PairingConfig, build_pairs

# Hand-built raw -> canonical table.
CANON_CASES = [
    (" 3.50 ", "3.50"),
    ("1,234", "1234"),
    ("$1,000.", "1000"),
    ("72.", "72"),
    ("The Answer", "the answer"),
    ("1 / 2", "1/2"),
    ("\\tfrac{1}{2}", "1/2"),
    ("\\frac{3}{4}", "3/4"),
    ("\\dfrac{10}{7}", "10/7"),
    ("  -5 ", "-5"),
    ("42!!", "42"),
    ("1,000,000", "1000000"),
    ("€50", "50"),
    ("£3.20", "3.20"),
    ("7 ?", "7"),
    ("YES", "yes"),
    ("A  B", "a b"),
    ("\\$25", "25"),
    ("0.5.", "0.5"),
    ("3 / 4 ", "3/4"),
    ("12;", "12"),
    ("x=4", "x=4"),
    ("\\frac{\\frac{1}{2}}{3}", "1/2/3"),
    ("", ""),
    ("   ", ""),
    ("8:", "8"),
    ("1,23", "123"),
    ("₩900", "900"),
    ("10,000.50", "10000.50"),
    ("Seven dollars.", "seven dollars"),
]


@pytest.mark.parametrize("raw,expected", CANON_CASES)
def test_canonicalize_table(raw, expected):
    assert canonicalize(raw) == expected


def test_canonicalize_idempotent_random():
    rng = np.random.default_rng(0)
    alphabet = list("abc01279,.$ \\{}/frac!?€")
    for _ in range(1000):
        s = "".join(
            alphabet[int(i)] for i in rng.integers(0, len(alphabet), size=rng.integers(0, 24))
        )
        once = canonicalize(s)
        assert canonicalize(once) == once


@given(st.from_regex(r"-?[0-9]+\.?", fullmatch=True) | st.text(max_size=40)
       | st.from_regex(r"\s?-?[0-9,]+[.!]?\s?", fullmatch=True))
@settings(max_examples=300, deadline=None)
def test_canonicalize_fast_path_matches_full_rules_hypothesis(s):
    assert canonicalize(s) == extraction._canonical_by_rules(s)


@given(st.text(max_size=40))
@settings(max_examples=200, deadline=None)
def test_canonicalize_idempotent_hypothesis(s):
    once = canonicalize(s)
    assert canonicalize(once) == once


def test_unknown_style_raises():
    with pytest.raises(ValueError, match="unknown answer style: 'prose'"):
        extract_answer("The answer is 3.", "prose")
    with pytest.raises(ValueError, match="unknown answer style: 'prose'"):
        split_steps("The answer is 3.", "prose")


class TestExtractAnswer:
    def test_answer_line(self):
        assert extract_answer("work\nThe answer is 72.", "answer-line") == "72"

    def test_currency_and_separators(self):
        assert extract_answer("The answer is $1,000.", "answer-line") == "1000"

    def test_last_declaration_wins(self):
        raw = "The answer is 3.\nmore work\nThe answer is 9."
        assert extract_answer(raw, "answer-line") == "9"

    def test_no_match_is_none(self):
        assert extract_answer("no declaration here", "answer-line") is None

    def test_boxed_fraction(self):
        raw = "thus the area is \\boxed{\\tfrac{1}{2}} which concludes"
        assert extract_answer(raw, "boxed") == "1/2"

    def test_boxed_last_group(self):
        raw = "\\boxed{3} intermediate \\boxed{7}"
        assert extract_answer(raw, "boxed") == "7"

    def test_boxed_unbalanced_is_none(self):
        assert extract_answer("\\boxed{3", "boxed") is None

    def test_case_insensitive_declaration(self):
        assert extract_answer("the ANSWER IS 5", "answer-line") == "5"


class TestSplitSteps:
    def test_declaration_becomes_conclusion(self):
        steps, conclusion = split_steps("A.\nB.\nThe answer is 7.", "answer-line")
        assert steps == ["A.", "B."]
        assert conclusion == "The answer is 7."

    def test_no_declaration(self):
        steps, conclusion = split_steps("A.", "answer-line")
        assert steps == ["A."]
        assert conclusion is None

    def test_internal_blank_lines_dropped(self):
        steps, conclusion = split_steps("A.\n\n\nB.\n\nC.", "answer-line")
        assert steps == ["A.", "B.", "C."]
        assert conclusion is None

    def test_all_blank_raises(self):
        with pytest.raises(EmptyRationaleError):
            split_steps("\n  \n\t\n", "answer-line")

    def test_rejoin_fixed_point(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            lines = [f"step {int(i)}" for i in rng.integers(0, 50, size=rng.integers(1, 6))]
            if rng.random() < 0.5:
                lines.append(f"The answer is {int(rng.integers(0, 9))}.")
            raw = "\n".join(lines)
            steps, conclusion = split_steps(raw, "answer-line")
            rejoined = "\n".join(steps + ([conclusion] if conclusion else []))
            assert split_steps(rejoined, "answer-line") == (steps, conclusion)


def _r(steps, conclusion=None):
    return Rationale(steps=tuple(steps), conclusion=conclusion)


class TestDedup:
    def test_identical_collapse(self):
        a, b = _r(["x y"]), _r(["x y"])
        assert dedup([a, b]) == [a]

    def test_whitespace_variants_collapse(self):
        a, b = _r(["buys  3   apples"]), _r(["buys 3 apples"])
        assert dedup([a, b]) == [a]

    def test_distinct_numbers_kept(self):
        a, b = _r(["buys 3 apples"]), _r(["buys 4 apples"])
        assert dedup([a, b]) == [a, b]

    def test_leading_zeros_collapse(self):
        a, b = _r(["buys 03 apples"]), _r(["buys 3 apples"])
        assert len(dedup([a, b])) == 1

    def test_numbers_longer_than_int_reads(self):
        """CPython's int() reads at most 4300 digits from a string by default."""
        long = "1" * 5000
        a, b = _r([f"x=0{long}"]), _r([f"x={long}"])
        c, d = _r([f"x=١{long[1:]}"]), _r([f"x=0{long}2"])
        assert dedup([a, b, c, d]) == [a, d]

    def test_idempotent_and_order_stable(self):
        rng = np.random.default_rng(7)
        rationales = [
            _r([f"do {int(rng.integers(0, 4))} then {int(rng.integers(0, 4))}"])
            for _ in range(40)
        ]
        once = dedup(rationales)
        assert dedup(once) == once
        assert len(once) <= len(rationales)
        # stable order: survivors appear in first-occurrence order
        positions = [rationales.index(r) for r in once]
        assert positions == sorted(positions)


# dedup as first written: a fresh regex pass over every step of every
# rationale. The package version must keep exactly the same survivors.
_REF_DIGIT_RUN_RE = re.compile(r"\d+")


def _reference_dedup(rationales):
    seen, out = set(), []
    for r in rationales:
        key = "\n".join(
            _REF_DIGIT_RUN_RE.sub(lambda m: str(int(m.group(0))), " ".join(s.split()))
            for s in r.steps
        )
        if key not in seen:
            seen.add(key)
            out.append(r)
    return out


# Tokens in one group normalize alike on their own: whitespace runs, and one
# number as plain ASCII, with leading zeros, or in non-ASCII decimal digits
# (Arabic-Indic, fullwidth). Letters and operators stand alone.
_TOKEN_GROUPS = [
    [" ", "\t", "  ", " \t "],
    ["0", "00", "\u0660"],
    ["3", "03", "\u0663", "\uff13"],
    ["7", "007", "\u0660\u0667"],
    ["12", "012", "\uff11\uff12"],
    ["x"], ["ab"], ["+"], ["-"], ["*"], ["="], ["."],
]


@st.composite
def _step_variants(draw):
    groups = draw(st.lists(st.sampled_from(_TOKEN_GROUPS), min_size=1, max_size=6))
    render = st.tuples(*(st.sampled_from(g) for g in groups)).map("".join)
    return draw(st.lists(render, min_size=1, max_size=3))


@st.composite
def _rationale_lists(draw):
    """Rationales rendered from a few step templates, each step as one of a
    few cosmetic variants, so whole step tuples, single steps and variants
    of one step all repeat."""
    templates = draw(st.lists(st.lists(_step_variants(), max_size=4), min_size=1, max_size=4))
    steps = st.sampled_from(templates).flatmap(
        lambda slots: st.tuples(*(st.sampled_from(vs) for vs in slots)))
    picks = draw(st.lists(st.tuples(steps, st.sampled_from([None, "The answer is 1."])),
                          max_size=20))
    return [_r(steps, conclusion) for steps, conclusion in picks]


@given(_rationale_lists())
@settings(max_examples=300, deadline=None)
def test_dedup_matches_reference_hypothesis(rationales):
    got, want = dedup(rationales), _reference_dedup(rationales)
    assert [id(r) for r in got] == [id(r) for r in want]


def _rejected_side(r):
    """The rejected side of the one outcome pair built with r as the incorrect
    rationale."""
    problem = Problem(id="p1", question="q", gold_answer="7")
    chosen = Rationale(steps=("b",), conclusion="The answer is 7.", label="correct",
                       extracted_answer="7")
    (pair,) = build_pairs([problem], [RationaleRecord("p1", chosen)],
                          [RationaleRecord("p1", r)], PairingConfig())
    return pair.rejected


class TestStripConclusion:
    def test_strip(self):
        r = Rationale(steps=("a",), conclusion="The answer is 3.", label="incorrect")
        out = _rejected_side(r)
        assert out.conclusion is None
        assert out.steps == r.steps

    def test_preserves_other_fields(self):
        r = Rationale(steps=("a",), conclusion="The answer is 1.", producer="RFT",
                      label="incorrect", extracted_answer="1")
        out = _rejected_side(r)
        assert (out.producer, out.label, out.extracted_answer) == ("RFT", "incorrect", "1")


# Step lines as split_steps returns them: stripped, non-blank, free of the
# characters str.splitlines breaks on (categories Cc, Zl and Zp).
_lines = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")),
                 min_size=1, max_size=20).map(str.strip).filter(bool)
_answers = st.text(max_size=20).map(canonicalize).filter(bool)


@given(st.lists(_lines.filter(lambda ln: split_steps(ln)[1] is None),
                min_size=1, max_size=5),
       st.none() | _answers)
@settings(max_examples=200, deadline=None)
def test_split_steps_roundtrip_hypothesis(steps, answer):
    conclusion = None if answer is None else f"The answer is {answer}."
    raw = "\n".join(steps + ([conclusion] if conclusion else []))
    assert split_steps(raw, "answer-line") == (steps, conclusion)


@given(st.lists(_lines, max_size=5), _answers)
@settings(max_examples=200, deadline=None)
def test_extract_answer_of_known_conclusion_hypothesis(steps, answer):
    rationale = Rationale(steps=tuple(steps), conclusion=f"The answer is {answer}.")
    assert extract_answer(rationale.text(), "answer-line") == answer


# Reference for the "boxed" style: a character walk from the last "\boxed{"
# that copies every character up to the brace closing it, or gives None
# when the group never closes.
def _reference_last_boxed_group(text):
    start = text.rfind("\\boxed{")
    if start < 0:
        return None
    depth, out = 1, []
    for ch in text[start + len("\\boxed{"):]:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return "".join(out)
        out.append(ch)
    return None


_BOXED_PIECES = ["{", "}", "\\boxed{", "\\frac", "\\tfrac{1}{2}", "\\boxed", "12", "x",
                 " ", ".", "$", "1,5"]


@given(st.lists(st.sampled_from(_BOXED_PIECES), max_size=14).map("".join))
@settings(max_examples=400, deadline=None)
def test_boxed_matches_reference_walk_hypothesis(text):
    group = _reference_last_boxed_group(text)
    want = None if group is None else canonicalize(group) or None
    assert extract_answer(text, "boxed") == want
