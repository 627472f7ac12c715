import builtins
import dataclasses
import errno
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steppref.corpus as corpus
from steppref.corpus import (
    GRAN_OUTCOME,
    GRANULARITIES,
    KIND_D,
    KIND_GEN,
    KIND_GPAIR,
    KIND_PAIR,
    KIND_RFT,
    DatasetHeader,
    DatasetParseError,
    LABELS,
    PRODUCERS,
    STYLES,
    PairRecord,
    Problem,
    Rationale,
    RationaleRecord,
    read_dataset,
    record_from_dict,
    record_to_dict,
    write_dataset,
)
from steppref.extraction import canonicalize

from conftest import make_pair_record, make_rationale, write_lines


def test_pair_roundtrip_100_random(tmp_path):
    rng = np.random.default_rng(0)
    records = [make_pair_record(rng, granular=bool(rng.integers(0, 2))) for _ in range(100)]
    for kind in (KIND_PAIR, KIND_GPAIR):  # outcome pairs in the one, granular in the other
        kept = [r for r in records if (r.granularity == GRAN_OUTCOME) == (kind == KIND_PAIR)]
        header = DatasetHeader(kind, source_hash="abc")
        path = tmp_path / f"{kind}.jsonl"
        write_dataset(kept, header, path)
        back, back_header = read_dataset(path, kind)
        assert back == kept
        assert back_header == header


def test_roundtrip_byte_stable(tmp_path):
    rng = np.random.default_rng(1)
    records = [make_pair_record(rng) for _ in range(20)]
    header = DatasetHeader(KIND_PAIR, "abc")
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_dataset(records, header, p1)
    back, back_header = read_dataset(p1, KIND_PAIR)
    write_dataset(back, back_header, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_rationale_file_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    records = [
        RationaleRecord(f"p{i}", make_rationale(rng, "correct")) for i in range(3)
    ]
    path = tmp_path / "rft.jsonl"
    write_dataset(records, DatasetHeader(KIND_RFT), path)
    back, header = read_dataset(path, KIND_RFT)
    assert back == records
    assert header.kind == KIND_RFT


def test_empty_body_valid(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_dataset([], DatasetHeader(KIND_GEN), path)
    records, header = read_dataset(path, KIND_GEN)
    assert records == []
    assert header.kind == KIND_GEN


def test_kind_mismatch_names_both(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "pairs.jsonl"
    write_dataset([make_pair_record(rng)], DatasetHeader(KIND_PAIR), path)
    with pytest.raises(DatasetParseError) as err:
        read_dataset(path, KIND_RFT)
    assert err.value.line_no == 1
    assert "D_RFT" in str(err.value) and "D_PAIR" in str(err.value)


def test_mixed_kinds_rejected_before_write(tmp_path):
    rng = np.random.default_rng(4)
    records = [make_pair_record(rng), RationaleRecord("p1", make_rationale(rng))]
    path = tmp_path / "mixed.jsonl"
    with pytest.raises(ValueError):
        write_dataset(records, DatasetHeader(KIND_PAIR), path)
    assert not path.exists()


def _kind_rule_breaks():
    """(kind, records, refusal) for each kind's rule, the breaking record last."""
    rng = np.random.default_rng(6)
    problem = Problem("p1", "q", "1")
    outcome, granular = make_pair_record(rng), make_pair_record(rng, granular=True)
    return [
        (KIND_D, [problem, Problem("p2", "q", "2"), dataclasses.replace(problem, question="r")],
         "line 4: problem id p1 is already on line 2"),
        (KIND_RFT, [RationaleRecord("p1", make_rationale(rng, "correct")),
                    RationaleRecord("p1", make_rationale(rng, "incorrect"))],
         "line 3: label incorrect does not belong in a D_RFT dataset"),
        (KIND_RFT, [RationaleRecord("p1", make_rationale(rng))],
         "line 2: label ungraded does not belong in a D_RFT dataset"),
        (KIND_PAIR, [outcome, granular],
         "line 3: granularity granular-full does not belong in a D_PAIR dataset"),
        (KIND_GPAIR, [granular, outcome],
         "line 3: granularity outcome does not belong in a D_GPAIR dataset"),
    ]


@pytest.mark.parametrize("kind,records,refusal", _kind_rule_breaks(),
                         ids=["d-repeated-id", "rft-incorrect", "rft-ungraded",
                              "pair-granular", "gpair-outcome"])
def test_writer_refuses_what_the_reader_refuses(tmp_path, kind, records, refusal):
    """The writer refuses a record breaking its kind's rule before it writes,
    in the words the reader uses for that line of the file."""
    path = tmp_path / "data.jsonl"
    with pytest.raises(ValueError) as err:
        write_dataset(records, DatasetHeader(kind), path)
    assert str(err.value) == refusal
    assert list(tmp_path.iterdir()) == []
    write_lines(records, DatasetHeader(kind), path)
    with pytest.raises(DatasetParseError) as err:
        read_dataset(path, kind)
    assert str(err.value) == refusal


def test_source_hash_not_enforced_on_write(tmp_path):
    rng = np.random.default_rng(5)
    header = DatasetHeader(KIND_PAIR, source_hash="definitely-not-a-real-hash")
    path = tmp_path / "pairs.jsonl"
    write_dataset([make_pair_record(rng)], header, path)
    assert read_dataset(path, KIND_PAIR)[1].source_hash == "definitely-not-a-real-hash"


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    head = json.dumps({"kind": "D_RFT", "created_with": {}, "source_hash": ""})
    good = json.dumps({
        "id": "p1", "steps": ["a"], "conclusion": None, "producer": "SFT",
        "label": "correct", "extracted_answer": "1",
    })
    path.write_text(head + "\n" + good + "\n{not json\n")
    with pytest.raises(DatasetParseError) as err:
        read_dataset(path, KIND_RFT)
    assert err.value.line_no == 3


def _write_gen_body(path, lines: list[bytes], eol: bytes = b"\n") -> None:
    head = corpus.dumps({"kind": KIND_GEN, "created_with": {}, "source_hash": ""})
    path.write_bytes(eol.join([head.encode(), *lines]) + eol)


def test_value_split_over_two_lines_fails_on_its_line(tmp_path):
    """Two lines that are one value between them, beside a line holding two
    values, are as many values as lines; the reader must still not take
    them."""
    good = corpus.dumps(record_to_dict(RationaleRecord("p1", Rationale(("a",))))).encode()
    cut = good.index(b',"producer"')
    path = tmp_path / "d.jsonl"
    _write_gen_body(path, [good, good[:cut], good[cut + 1:], good + b"," + good])
    with pytest.raises(DatasetParseError) as err:
        read_dataset(path, KIND_GEN)
    assert err.value.line_no == 3


_SHAPES = ["ok"] * 4 + ["two", "split", "blank", "space", "bad-utf8", "u2028", "nul",
                        "bad-record"]


@st.composite
def _body_lines(draw):
    """D_GEN body lines of every shape a reader could misread, and what
    reading them must give: the records of the valid lines, or the number of
    the first bad line (the header is line 1)."""
    lines, records, bad = [], [], None

    def add(line, ok=True):
        nonlocal bad
        if not ok and bad is None:
            bad = len(lines) + 2
        lines.append(line)

    for rec in draw(st.lists(_rationale_records(), max_size=12)):
        d = record_to_dict(rec)
        line = corpus.dumps(d).encode()
        shape = draw(st.sampled_from(_SHAPES))
        if shape == "two":
            add(line + b"," + line, ok=False)
        elif shape == "split":
            cut = draw(st.integers(1, len(line) - 1))
            add(line[:cut], ok=False)  # an object cut short is no JSON value
            add(line[cut:])
        elif shape in ("blank", "space"):
            add(b"" if shape == "blank" else b" \t ")
            add(line)
            records.append(rec)
        elif shape == "bad-utf8":
            cut = draw(st.integers(0, len(line)))
            add(line[:cut] + b"\xff" + line[cut:], ok=False)
        elif shape in ("u2028", "nul"):
            step = "a\u2028b" if shape == "u2028" else "a\x00b"
            add(corpus.dumps({**d, "steps": [step]}).encode())
            records.append(dataclasses.replace(
                rec, rationale=dataclasses.replace(rec.rationale, steps=(step,))))
        elif shape == "bad-record":
            add(corpus.dumps({**d, "id": ""}).encode(), ok=False)
        else:
            add(line)
            records.append(rec)
    return lines, records if bad is None else bad


@given(_body_lines(), st.sampled_from([b"\n", b"\r\n"]))
@settings(max_examples=300, deadline=None)
def test_body_lines_read_one_at_a_time_hypothesis(tmp_path_factory, body, eol):
    lines, want = body
    path = tmp_path_factory.mktemp("body") / "d.jsonl"
    _write_gen_body(path, lines, eol)
    if isinstance(want, int):
        with pytest.raises(DatasetParseError) as err:
            read_dataset(path, KIND_GEN)
        assert err.value.line_no == want
    else:
        assert read_dataset(path, KIND_GEN)[0] == want


def test_missing_header(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(DatasetParseError):
        read_dataset(path, KIND_RFT)


def test_unwritable_path_raises(tmp_path):
    with pytest.raises(OSError):
        write_dataset([], DatasetHeader(KIND_GEN), tmp_path / "no" / "such" / "dir.jsonl")


class _FailingWriter:
    """A file that takes half of what is written to it, then runs out of space."""

    def __init__(self, path, mode):
        self.f = builtins.open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def _fail_replace(src, dst):
    raise OSError(errno.EIO, "rename failed")


@pytest.mark.parametrize("failure", ["part-way-write", "replace"])
def test_failed_write_keeps_old_file(tmp_path, monkeypatch, failure):
    rng = np.random.default_rng(3)
    header = DatasetHeader(KIND_PAIR)
    path = tmp_path / "pairs.jsonl"
    write_dataset([make_pair_record(rng) for _ in range(5)], header, path)
    old = path.read_bytes()
    if failure == "part-way-write":
        monkeypatch.setattr(corpus, "open", _FailingWriter, raising=False)
    else:
        monkeypatch.setattr(corpus.os, "replace", _fail_replace)
    with pytest.raises(OSError):
        write_dataset([make_pair_record(rng) for _ in range(50)], header, path)
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]  # no temp file left behind


class TestInvariants:
    def test_problem_gold_must_be_canonical(self):
        with pytest.raises(ValueError):
            Problem(id="p", question="q", gold_answer="1,000")

    def test_problem_gold_nonempty(self):
        with pytest.raises(ValueError):
            Problem(id="p", question="q", gold_answer="")

    def test_correct_needs_extracted(self):
        with pytest.raises(ValueError):
            Rationale(steps=("a",), label="correct", extracted_answer=None)

    def test_graded_needs_steps(self):
        with pytest.raises(ValueError):
            Rationale(steps=(), label="incorrect")

    def test_unknown_tags(self):
        with pytest.raises(ValueError):
            Rationale(steps=("a",), producer="GPT4")
        with pytest.raises(ValueError):
            Rationale(steps=("a",), label="maybe")

    def test_outcome_pair_rejects_pit_index(self):
        rng = np.random.default_rng(6)
        rec = make_pair_record(rng)
        with pytest.raises(ValueError):
            PairRecord(rec.problem_id, rec.input, rec.chosen, rec.rejected,
                       "outcome", pit_index=2)

    def test_granular_pair_requires_pit_index(self):
        rng = np.random.default_rng(7)
        rec = make_pair_record(rng)
        with pytest.raises(ValueError):
            PairRecord(rec.problem_id, rec.input, rec.chosen, rec.rejected,
                       "granular-full", pit_index=None)

    def test_rejected_conclusion_forbidden(self):
        rng = np.random.default_rng(8)
        chosen = make_rationale(rng, "correct")
        rejected = make_rationale(rng, "incorrect", with_conclusion=True)
        with pytest.raises(ValueError):
            PairRecord("p1", "q", chosen, rejected, "outcome", None)

    def test_header_kind_checked(self):
        with pytest.raises(ValueError):
            DatasetHeader("D_WEIRD")

    @pytest.mark.parametrize("change,message", [
        (lambda rec: Problem(id="", question="q", gold_answer="1"), "id must be"),
        (lambda rec: Problem(id="p", question="q", gold_answer="1", style="essay"),
         "unknown style"),
        (lambda rec: Rationale(steps=("a", "")), "non-empty lines"),
        (lambda rec: RationaleRecord("", Rationale(steps=("a",))), "problem_id"),
        (lambda rec: dataclasses.replace(rec, problem_id=""), "problem_id"),
        (lambda rec: dataclasses.replace(rec, granularity="granular-some"),
         "unknown granularity"),
        (lambda rec: dataclasses.replace(rec, chosen=rec.rejected), "chosen must"),
        (lambda rec: dataclasses.replace(
            rec, rejected=dataclasses.replace(rec.chosen, conclusion=None)),
         "rejected must"),
    ], ids=["problem-empty-id", "unknown-style", "empty-step", "rationale-empty-id",
            "pair-empty-id", "unknown-granularity", "outcome-chosen-incorrect",
            "outcome-rejected-correct"])
    def test_record_refused(self, change, message):
        rec = make_pair_record(np.random.default_rng(9))
        with pytest.raises(ValueError, match=message):
            change(rec)

    def test_unknown_record_and_kind(self, tmp_path):
        with pytest.raises(TypeError):
            record_to_dict(object())
        with pytest.raises(ValueError, match="unknown dataset kind"):
            record_from_dict({"id": "p"}, "X")
        path = tmp_path / "d.jsonl"
        write_dataset([], DatasetHeader(KIND_D), path)
        with pytest.raises(ValueError, match="unknown dataset kinds"):
            read_dataset(path)


# ---------------------------------------------------------------------------
# round-trip properties over generated records

_texts = st.text(max_size=20)
_ids = st.text(min_size=1, max_size=12)
_golds = _texts.map(canonicalize).filter(bool)


@st.composite
def _rationales(draw, label=None, conclusion=True):
    label = draw(st.sampled_from(LABELS)) if label is None else label
    steps = draw(st.lists(st.text(min_size=1, max_size=20),
                          min_size=0 if label == "ungraded" else 1, max_size=4))
    if label == "correct":
        extracted = draw(_golds)
    else:
        extracted = draw(st.none() | _texts)
    return Rationale(steps=tuple(steps),
                     conclusion=draw(st.none() | _texts) if conclusion else None,
                     producer=draw(st.sampled_from(PRODUCERS)), label=label,
                     extracted_answer=extracted)


_problems = st.builds(Problem, id=_ids, question=_texts, gold_answer=_golds,
                      style=st.sampled_from(STYLES))
def _rationale_records(label=None):
    return st.builds(RationaleRecord, problem_id=_ids, rationale=_rationales(label))


@st.composite
def _pair_records(draw, granularities):
    granularity = draw(st.sampled_from(granularities))
    outcome = granularity == GRAN_OUTCOME
    return PairRecord(
        problem_id=draw(_ids), input=draw(_texts),
        chosen=draw(_rationales("correct" if outcome else None)),
        rejected=draw(_rationales("incorrect" if outcome else None, conclusion=False)),
        granularity=granularity,
        pit_index=None if outcome else draw(st.integers(1, 50)),
    )


# Each kind's rule holds: distinct problem ids, D_RFT rationales labeled
# correct, D_PAIR outcome pairs and D_GPAIR granular ones.
_datasets = st.one_of(
    st.tuples(st.just(KIND_D), st.lists(_problems, max_size=4, unique_by=lambda p: p.id)),
    st.tuples(st.just(KIND_GEN), st.lists(_rationale_records(), max_size=4)),
    st.tuples(st.just(KIND_RFT), st.lists(_rationale_records("correct"), max_size=4)),
    st.tuples(st.just(KIND_PAIR), st.lists(_pair_records([GRAN_OUTCOME]), max_size=4)),
    st.tuples(st.just(KIND_GPAIR), st.lists(_pair_records(GRANULARITIES[1:]), max_size=4)),
)


@given(_datasets)
@settings(max_examples=150, deadline=None)
def test_record_dict_roundtrip_hypothesis(dataset):
    kind, records = dataset
    for rec in records:
        assert record_from_dict(record_to_dict(rec), kind) == rec


@given(_datasets, _texts)
@settings(max_examples=150, deadline=None)
def test_dataset_file_roundtrip_byte_stable_hypothesis(tmp_path_factory, dataset, source):
    kind, records = dataset
    first, second = (tmp_path_factory.mktemp("rt") / name for name in ("a", "b"))
    header = DatasetHeader(kind, source_hash=source)
    write_dataset(records, header, first)
    back, back_header = read_dataset(first, kind)
    assert back == records
    assert back_header == header
    write_dataset(back, back_header, second)
    assert first.read_bytes() == second.read_bytes()
