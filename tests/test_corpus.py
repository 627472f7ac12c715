import builtins
import dataclasses
import errno
import json
from unittest import mock

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
    KIND_PAIR,
    KIND_RFT,
    DatasetHeader,
    DatasetParseError,
    DatasetSchemaError,
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

from conftest import make_pair_record, make_rationale


def test_pair_roundtrip_100_random(tmp_path):
    rng = np.random.default_rng(0)
    records = [make_pair_record(rng, granular=bool(rng.integers(0, 2))) for _ in range(100)]
    header = DatasetHeader(KIND_PAIR, source_hash="abc")
    path = tmp_path / "pairs.jsonl"
    write_dataset(records, header, path)
    back, back_header = read_dataset(path, KIND_PAIR)
    assert back == records
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
    with pytest.raises(DatasetSchemaError) as err:
        read_dataset(path, KIND_RFT)
    assert "D_RFT" in str(err.value) and "D_PAIR" in str(err.value)


def test_mixed_kinds_rejected_before_write(tmp_path):
    rng = np.random.default_rng(4)
    records = [make_pair_record(rng), RationaleRecord("p1", make_rationale(rng))]
    path = tmp_path / "mixed.jsonl"
    with pytest.raises(ValueError):
        write_dataset(records, DatasetHeader(KIND_PAIR), path)
    assert not path.exists()


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
        "label": "ungraded", "extracted_answer": None,
    })
    path.write_text(head + "\n" + good + "\n{not json\n")
    with pytest.raises(DatasetParseError) as err:
        read_dataset(path, KIND_RFT)
    assert err.value.line_no == 3


def _write_gen_body(path, lines: list[bytes], eol: bytes = b"\n") -> None:
    head = corpus.dumps({"kind": KIND_GEN, "created_with": {}, "source_hash": ""})
    path.write_bytes(eol.join([head.encode(), *lines]) + eol)


def _read_outcome(read):
    try:
        return read()
    except DatasetParseError as e:
        return e.line_no, str(e)


def test_value_split_over_two_lines_fails_on_its_line(tmp_path):
    """Two lines that are one value between them, beside a line holding two
    values, give a chunk as many values as lines; the joined parse must still
    not take them."""
    good = corpus.dumps(record_to_dict(RationaleRecord("p1", Rationale(("a",))))).encode()
    cut = good.index(b',"producer"')
    path = tmp_path / "d.jsonl"
    _write_gen_body(path, [good, good[:cut], good[cut + 1:], good + b"," + good])
    with pytest.raises(DatasetParseError) as err:
        read_dataset(path, KIND_GEN)
    assert err.value.line_no == 3


def test_clean_body_is_decoded_in_bulk(tmp_path, monkeypatch):
    rng = np.random.default_rng(4)
    records = [RationaleRecord(f"p{i}", make_rationale(rng)) for i in range(600)]
    path = tmp_path / "d.jsonl"
    write_dataset(records, DatasetHeader(KIND_GEN), path)
    monkeypatch.setattr(corpus, "_decode_lines", None)  # any per-line decode fails
    assert read_dataset(path, KIND_GEN)[0] == records


_SHAPES = ["ok"] * 4 + ["two", "split", "blank", "space", "bad-utf8", "u2028", "nul",
                        "bad-record"]


@st.composite
def _body_lines(draw):
    """D_GEN body lines: valid records, and every line shape a joined parse
    could misread."""
    lines = []
    for rec in draw(st.lists(_rationale_records, max_size=12)):
        d = record_to_dict(rec)
        line = corpus.dumps(d).encode()
        shape = draw(st.sampled_from(_SHAPES))
        if shape == "two":
            lines.append(line + b"," + line)
        elif shape == "split":
            cut = draw(st.integers(1, len(line) - 1))
            lines += [line[:cut], line[cut:]]
        elif shape in ("blank", "space"):
            lines += [b"" if shape == "blank" else b" \t ", line]
        elif shape == "bad-utf8":
            cut = draw(st.integers(0, len(line)))
            lines.append(line[:cut] + b"\xff" + line[cut:])
        elif shape in ("u2028", "nul"):
            mark = "\u2028" if shape == "u2028" else "\x00"
            lines.append(corpus.dumps({**d, "steps": [f"a{mark}b"]}).encode())
        elif shape == "bad-record":
            lines.append(corpus.dumps({**d, "id": ""}).encode())
        else:
            lines.append(line)
    return lines


@given(_body_lines(), st.sampled_from([b"\n", b"\r\n"]), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_chunked_read_matches_per_line_hypothesis(tmp_path_factory, lines, eol, chunk_lines):
    path = tmp_path_factory.mktemp("chunks") / "d.jsonl"
    _write_gen_body(path, lines, eol)
    with mock.patch.object(corpus, "_CHUNK_LINES", chunk_lines):
        got = _read_outcome(lambda: read_dataset(path, KIND_GEN)[0])
    body = path.read_bytes().splitlines()[1:]
    assert got == _read_outcome(lambda: corpus._decode_lines(body, 2, KIND_GEN))


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
_rationale_records = st.builds(RationaleRecord, problem_id=_ids, rationale=_rationales())


@st.composite
def _pair_records(draw):
    granularity = draw(st.sampled_from(GRANULARITIES))
    outcome = granularity == GRAN_OUTCOME
    return PairRecord(
        problem_id=draw(_ids), input=draw(_texts),
        chosen=draw(_rationales("correct" if outcome else None)),
        rejected=draw(_rationales("incorrect" if outcome else None, conclusion=False)),
        granularity=granularity,
        pit_index=None if outcome else draw(st.integers(1, 50)),
    )


_datasets = st.one_of(
    st.tuples(st.just(KIND_D), st.lists(_problems, max_size=4)),
    st.tuples(st.sampled_from([KIND_GEN, KIND_RFT]), st.lists(_rationale_records, max_size=4)),
    st.tuples(st.just(KIND_PAIR), st.lists(_pair_records(), max_size=4)),
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
