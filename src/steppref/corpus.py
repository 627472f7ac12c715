"""Domain types and line-delimited dataset I/O.

A dataset file is UTF-8 JSON lines: the first line is a header record
(kind, upstream content hash), every following line is one body record. So
a file's bytes depend on its kind, source hash and records alone; the
settings it was made with are in the manifest of the stage that wrote it.
Record schemas by kind:

  D                problems: id, question, gold_answer, style
  D_GEN / D_RFT    rationales: id (problem id) + steps, conclusion,
                   producer, label, extracted_answer
  D_PAIR / D_GPAIR preference pairs: id, input, chosen, rejected,
                   granularity, pit_index (chosen/rejected are nested
                   rationale objects)

Field types: id, question, gold_answer and input are strings; steps is a
list of strings; conclusion and extracted_answer are a string or null;
pit_index is an integer or null (a JSON true is not an integer). A line
whose field has another JSON type is a DatasetParseError naming that line.

Serialization is deterministic (sorted keys, compact separators, explicit
nulls) so identical records always produce identical bytes.

Reading decodes the body one line at a time, each as strict UTF-8 and one
JSON value, skipping blank lines; each DatasetParseError names its line.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .extraction import STYLES, canonicalize

KIND_D = "D"
KIND_GEN = "D_GEN"
KIND_RFT = "D_RFT"
KIND_PAIR = "D_PAIR"
KIND_GPAIR = "D_GPAIR"
KINDS = (KIND_D, KIND_GEN, KIND_RFT, KIND_PAIR, KIND_GPAIR)

PRODUCERS = ("SFT", "RFT", "EXPLORER", "HUMAN", "SYNTH")
LABELS = ("correct", "incorrect", "ungraded")

GRAN_OUTCOME = "outcome"
GRANULARITIES = (GRAN_OUTCOME, "granular-full", "granular-first-step", "granular-reject-all")


class DatasetParseError(ValueError):
    """A malformed dataset line; carries the 1-based line number."""

    def __init__(self, line_no: int, detail: str):
        super().__init__(f"line {line_no}: {detail}")
        self.line_no = line_no


@dataclass(frozen=True)
class Problem:
    id: str
    question: str
    gold_answer: str
    style: str = "answer-line"

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("problem id must be non-empty")
        if self.style not in STYLES:
            raise ValueError(f"unknown style: {self.style!r}")
        if not self.gold_answer:
            raise ValueError("gold_answer must be non-empty")
        if canonicalize(self.gold_answer) != self.gold_answer:
            raise ValueError(f"gold_answer not canonical: {self.gold_answer!r}")


@dataclass(frozen=True)
class Rationale:
    """An ordered chain of reasoning steps plus an optional conclusion line."""

    steps: tuple[str, ...]
    conclusion: str | None = None
    producer: str = "SYNTH"
    label: str = "ungraded"
    extracted_answer: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        if self.producer not in PRODUCERS:
            raise ValueError(f"unknown producer: {self.producer!r}")
        if self.label not in LABELS:
            raise ValueError(f"unknown label: {self.label!r}")
        if not all(self.steps):
            raise ValueError("steps must be non-empty lines")
        if self.label != "ungraded" and not self.steps:
            raise ValueError("graded rationale must have at least one step")
        if self.label == "correct" and not self.extracted_answer:
            raise ValueError("correct rationale must carry its extracted answer")

    def text(self) -> str:
        parts = list(self.steps)
        if self.conclusion is not None:
            parts.append(self.conclusion)
        return "\n".join(parts)


@dataclass(frozen=True)
class RationaleRecord:
    """A rationale tied to its problem id (D_GEN / D_RFT body record)."""

    problem_id: str
    rationale: Rationale

    def __post_init__(self) -> None:
        if not self.problem_id:
            raise ValueError("problem_id must be non-empty")


@dataclass(frozen=True)
class PairRecord:
    """One preference pair: shared input, chosen and rejected payloads."""

    problem_id: str
    input: str
    chosen: Rationale
    rejected: Rationale
    granularity: str = GRAN_OUTCOME
    pit_index: int | None = None

    def __post_init__(self) -> None:
        if not self.problem_id:
            raise ValueError("problem_id must be non-empty")
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity: {self.granularity!r}")
        if self.rejected.conclusion is not None:
            raise ValueError("rejected payload must not carry a conclusion")
        if self.granularity == GRAN_OUTCOME:
            if self.pit_index is not None:
                raise ValueError("outcome pair must not carry pit_index")
            if self.chosen.label != "correct":
                raise ValueError("outcome chosen must be labeled correct")
            if self.rejected.label != "incorrect":
                raise ValueError("outcome rejected must be labeled incorrect")
        else:
            if self.pit_index is None or self.pit_index < 1:
                raise ValueError("granular pair needs a 1-based pit_index")


@dataclass(frozen=True)
class DatasetHeader:
    kind: str
    source_hash: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown dataset kind: {self.kind!r}")


Record = Problem | RationaleRecord | PairRecord

_RECORD_TYPES: dict[str, type] = {
    KIND_D: Problem,
    KIND_GEN: RationaleRecord,
    KIND_RFT: RationaleRecord,
    KIND_PAIR: PairRecord,
    KIND_GPAIR: PairRecord,
}


# json.dumps with these arguments builds a new encoder on every call.
_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def dumps(obj: dict[str, Any]) -> str:
    """One JSON line: the deterministic encoding every output line uses."""
    return _ENCODER.encode(obj)


def _rationale_to_dict(r: Rationale) -> dict[str, Any]:
    return {
        "steps": list(r.steps),
        "conclusion": r.conclusion,
        "producer": r.producer,
        "label": r.label,
        "extracted_answer": r.extracted_answer,
    }


def _field_type_error(key: str, want: str, value: Any) -> TypeError:
    return TypeError(f"{key} must be {want}, not {type(value).__name__}")


def _rationale_from_dict(d: dict[str, Any]) -> Rationale:
    steps, conclusion, answer = d["steps"], d.get("conclusion"), d.get("extracted_answer")
    if type(steps) is not list:
        raise _field_type_error("steps", "a list of strings", steps)
    for step in steps:
        if type(step) is not str:
            raise TypeError(f"steps must be a list of strings, but holds a {type(step).__name__}")
    if conclusion is not None and type(conclusion) is not str:
        raise _field_type_error("conclusion", "a string or null", conclusion)
    if answer is not None and type(answer) is not str:
        raise _field_type_error("extracted_answer", "a string or null", answer)
    return Rationale(
        steps=steps,
        conclusion=conclusion,
        producer=d["producer"],
        label=d["label"],
        extracted_answer=answer,
    )


def record_to_dict(rec: Record) -> dict[str, Any]:
    if isinstance(rec, Problem):
        return {
            "id": rec.id,
            "question": rec.question,
            "gold_answer": rec.gold_answer,
            "style": rec.style,
        }
    if isinstance(rec, RationaleRecord):
        return {"id": rec.problem_id, **_rationale_to_dict(rec.rationale)}
    if isinstance(rec, PairRecord):
        return {
            "id": rec.problem_id,
            "input": rec.input,
            "chosen": _rationale_to_dict(rec.chosen),
            "rejected": _rationale_to_dict(rec.rejected),
            "granularity": rec.granularity,
            "pit_index": rec.pit_index,
        }
    raise TypeError(f"not a dataset record: {type(rec).__name__}")


def record_from_dict(d: dict[str, Any], kind: str) -> Record:
    """The record a decoded dataset line holds; a field of the wrong JSON
    type raises TypeError."""
    if type(d["id"]) is not str:
        raise _field_type_error("id", "a string", d["id"])
    if kind == KIND_D:
        if type(d["question"]) is not str:
            raise _field_type_error("question", "a string", d["question"])
        if type(d["gold_answer"]) is not str:
            raise _field_type_error("gold_answer", "a string", d["gold_answer"])
        return Problem(
            id=d["id"],
            question=d["question"],
            gold_answer=d["gold_answer"],
            style=d["style"],
        )
    if kind in (KIND_GEN, KIND_RFT):
        return RationaleRecord(problem_id=d["id"], rationale=_rationale_from_dict(d))
    if kind in (KIND_PAIR, KIND_GPAIR):
        pit_index = d.get("pit_index")
        if type(d["input"]) is not str:
            raise _field_type_error("input", "a string", d["input"])
        if pit_index is not None and type(pit_index) is not int:  # a JSON true is no int
            raise _field_type_error("pit_index", "an integer or null", pit_index)
        return PairRecord(
            problem_id=d["id"],
            input=d["input"],
            chosen=_rationale_from_dict(d["chosen"]),
            rejected=_rationale_from_dict(d["rejected"]),
            granularity=d["granularity"],
            pit_index=pit_index,
        )
    raise ValueError(f"unknown dataset kind: {kind!r}")


def read_dataset(path: str | Path, *kinds: str) -> tuple[list[Record], DatasetHeader]:
    """Parse a dataset file whose header declares one of `kinds`.

    A malformed line, one that is not UTF-8, or a header of another kind
    raises DatasetParseError, which names the line. Other header keys, such
    as the `created_with` that earlier versions wrote, are ignored.
    """
    if not kinds or any(kind not in KINDS for kind in kinds):
        raise ValueError(f"unknown dataset kinds: {kinds!r}")
    # bytes.splitlines splits at "\n", "\r" and "\r\n" only; str.splitlines
    # would also split inside a JSON string at characters json.dumps leaves
    # raw, such as U+2028.
    lines = Path(path).read_bytes().splitlines()
    if not lines:
        raise DatasetParseError(1, "missing header record")
    try:
        head = json.loads(lines[0].decode("utf-8"))
        header = DatasetHeader(kind=head["kind"], source_hash=head.get("source_hash", ""))
    except Exception as e:
        raise DatasetParseError(1, f"bad header: {e}") from e
    if header.kind not in kinds:
        raise DatasetParseError(
            1, f"header declares kind {header.kind}, expected {' or '.join(kinds)}")
    records: list[Record] = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            records.append(record_from_dict(json.loads(line.decode("utf-8")), header.kind))
        except Exception as e:
            raise DatasetParseError(line_no, str(e)) from e
    return records, header


def write_dataset(records: list[Record], header: DatasetHeader, path: str | Path) -> None:
    """Write header + records; rejects mixed/mismatched records before writing.

    header.source_hash is advisory and is not checked against anything here.
    """
    want = _RECORD_TYPES[header.kind]
    for rec in records:
        if not isinstance(rec, want):
            raise ValueError(
                f"record of type {type(rec).__name__} does not belong in a "
                f"{header.kind} dataset"
            )
    out = [dumps({"kind": header.kind, "source_hash": header.source_hash})]
    out.extend(dumps(record_to_dict(r)) for r in records)
    write_atomic(path, ("\n".join(out) + "\n").encode("utf-8"))


def write_atomic(path: str | Path, data: bytes) -> None:
    """Replace `path` by `data` through a temp file in the same directory and
    os.replace: a reader never sees a half-written file, and a write that
    fails part-way leaves the old file intact and no temp file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def file_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
