"""The exit contract of the `cli` docstring, over generated inputs.

Each case changes one field of one body line of one input of the golden
chain (`test_golden.STAGES`), nested fields of `chosen` and `rejected`
included, or deletes it, and runs every chain stage that reads that input
in-process. The contract: exit 0 or 2, never 1; on 2, exactly one `error:
validation:` line on stderr and no --out. Every header's source_hash is
blanked first (an empty hash means unknown and passes), so that a mutated
problems file reaches the record checks instead of stopping at the hash.

The legal values of every field (each label, producer, granularity and
style, pit indices, another problem's id, cut, repeated or foreign steps, a
5000-digit number inside a step or a question) are enumerated on the first
and last body line of each input, so no random draw has to find them. A
hypothesis property draws from those values and from ill-typed ones on any
body line.

Flag values are checked the same way on the unchanged inputs: each chain
row runs once per flag of its stage and per value of that flag type's pool,
which holds ill-typed, empty, negative, zero, nan, inf and list forms. A flag
whose value scales work, memory or threads takes only values it refuses, or
the row's own value, and no value is a URL, since a real endpoint retries
with sleeps. There `train` may also exit 1, as `stage-failure:
DivergenceError`: a finite --beta can still overflow its loss, and that is
its documented stage failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steppref.cli import _STAGE_DECLS, main
from steppref.corpus import GRANULARITIES, LABELS, PRODUCERS
from steppref.extraction import STYLES

from test_golden import STAGES, chain_digests

INPUTS = ["problems.jsonl", "dgen.jsonl", "drft.jsonl", "samples.jsonl",
          "dpair.jsonl", "dgpair.jsonl"]
READERS = {name: [row for row in STAGES if name in row] for name in INPUTS}
DELETE = object()  # the field is removed
ILL_TYPED = [None, 0, -1, 1.5, True, "", "x", [], ["x"], {}, "0", 10**30]

FLAGS = {decl.name: decl.flags for decl in _STAGE_DECLS}
# one pool per flag type, keyed by the name of the flag's argparse type; a
# flag with choices draws them too
FLAG_POOLS = {
    "int": ["x", "", "-1", "0", "1.5", "nan", "inf", "1,,2", "1,2"],
    "float": ["x", "", "-1", "0", "-0", "0.7", "1e-300", "1e308", "nan", "inf", "-inf",
              "1,,2"],
    "comma-separated int": ["", ",", "2,", "1,,2", "-1,2", "0", "1,1", "x", "1.5", "nan"],
    "comma-separated float": ["", ",", "2,", "1,,2", "-1,2", "0,0", "nan,1", "inf,1",
                              "1e308,1", "1,2,3", "x"],
    "LO:HI": ["", "x", "0:0", "3:2", "-1:4", "0:99999999999999999999", "nan:1", "1:2:3"],
    "str": ["", "x", "localhost:80", "ftp://host/v1", "http://", "1,,2"],
}
SCALING = {"--n", "--problems", "--samples", "--t", "--k", "--ks", "--epochs",
           "--max-in-flight", "--alphabet", "--order"}


def _long(text: str) -> str:
    """`text` with its first number 5000 digits long, past CPython's int/str limit."""
    return re.sub(r"\d+", "9" * 5000, text, count=1)


def _legal(name: str, value, other) -> list:
    """Values a record field of this name may legally hold; `other` is the
    same field on another body line."""
    if name == "steps" and value:
        return [value[:1], value[:-1], value + value[-1:], other, [],
                [_long(value[0]), *value[1:]]]
    if name in ("question", "input"):
        return [other, _long(value)]
    return {"label": list(LABELS), "producer": list(PRODUCERS),
            "granularity": list(GRANULARITIES), "style": list(STYLES),
            "pit_index": [None, *range(8)], "conclusion": [None, other],
            "extracted_answer": [None, other]}.get(name, [other])


def _fields(record: dict, prefix: tuple = ()) -> list[tuple]:
    """Key paths of every field, those inside `chosen` and `rejected` included."""
    paths = []
    for key, value in record.items():
        paths.append((*prefix, key))
        if isinstance(value, dict):
            paths += _fields(value, (*prefix, key))
    return paths


def _get(record: dict, path: tuple):
    for key in path:
        record = record[key]
    return record


def _set(record: dict, path: tuple, value) -> dict:
    holder = _get(record, path[:-1])
    if value is DELETE:
        del holder[path[-1]]
    else:
        holder[path[-1]] = value
    return record


def _main(row: list[str], base: Path, swap: dict[str, Path], out: Path) -> tuple[int, str]:
    """Run one STAGES row on the chain in `base`, with the inputs in `swap`
    replaced; return its exit code and stderr."""
    args = [str(swap.get(a, base / a)) if a.endswith(".jsonl") else a for a in row]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["--seed", "0", "--out", str(out), *args])
    return code, err.getvalue()


def _run(row: list[str], base: Path, swap: dict[str, Path], tmp: Path) -> list[str]:
    """Run one STAGES row as `_main` does; return the contract's breaches
    (none, if it held)."""
    out = tmp / "out"
    code, err = _main(row, base, swap, out)
    lines = err.splitlines()
    if code == 0:
        return []
    if code != 2:
        return [f"{row[0]}: exit {code}: {lines}"]
    breaches = []
    if len(lines) != 1 or not lines[0].startswith("error: validation: "):
        breaches.append(f"{row[0]}: exit 2 printed {lines}")
    if out.exists():
        breaches.append(f"{row[0]}: exit 2 left {out}")
    return breaches


def _mutate(base: Path, name: str, line: int, path: tuple, value, tmp: Path) -> list[str]:
    """Write `name` with one field of body line `line` set to `value` and run
    every stage that reads it; return the contract's breaches."""
    lines = (base / name).read_text().splitlines(keepends=True)
    lines[line] = json.dumps(_set(json.loads(lines[line]), path, value)) + "\n"
    bad = tmp / name
    bad.write_text("".join(lines))
    shown = "<deleted>" if value is DELETE else repr(value)[:40]
    where = f"{name} line {line + 1} {'.'.join(map(str, path))} = {shown}"
    breaches = []
    for row in READERS[name]:
        with tempfile.TemporaryDirectory(dir=tmp) as run_dir:
            breaches += [f"{where}: {b}" for b in _run(row, base, {name: bad}, Path(run_dir))]
    return breaches


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("exit-contract") / "chain"
    chain_digests(base)
    for name in INPUTS:
        header, *body = (base / name).read_text().splitlines(keepends=True)
        header = json.dumps({**json.loads(header), "source_hash": ""}) + "\n"
        (base / name).write_text("".join([header, *body]))
    out = tmp_path_factory.mktemp("unchanged")
    for row in STAGES[1:]:  # every stage still runs on the blanked chain
        assert _main(row, base, {}, out) == (0, ""), row
    return base


@pytest.mark.parametrize("name", INPUTS)
def test_legal_values_keep_the_exit_contract(golden_inputs, tmp_path, name):
    lines = (golden_inputs / name).read_text().splitlines()
    first, last = 1, len(lines) - 1
    breaches = []
    for line, other_line in ((first, last), (last, first)):
        record, other = json.loads(lines[line]), json.loads(lines[other_line])
        for path in _fields(record):
            value = _get(record, path)
            values = [DELETE] if isinstance(value, dict) else \
                [DELETE, *_legal(path[-1], value, _get(other, path))]
            for v in values:
                breaches += _mutate(golden_inputs, name, line, path, v, tmp_path)
    assert not breaches, "\n".join(breaches[:20])


@st.composite
def _mutations(draw, base: Path):
    name = draw(st.sampled_from(INPUTS))
    lines = (base / name).read_text().splitlines()
    line = draw(st.integers(1, len(lines) - 1))
    record = json.loads(lines[line])
    other = json.loads(lines[draw(st.integers(1, len(lines) - 1))])
    path = draw(st.sampled_from(_fields(record)))
    value = _get(record, path)
    if path[-1] == "steps" and value and draw(st.booleans()):  # one step of the list
        path = (*path, draw(st.integers(0, len(value) - 1)))
        legal = [_long(value[path[-1]])]
    elif isinstance(value, dict):
        legal = []
    else:
        legal = _legal(path[-1], value, _get(other, path))
    return name, line, path, draw(st.sampled_from([DELETE, *ILL_TYPED, *legal]))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_one_field_mutation_keeps_the_exit_contract_hypothesis(golden_inputs, tmp_path_factory,
                                                                data):
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
        assert _mutate(golden_inputs, *data.draw(_mutations(golden_inputs)), Path(tmp)) == []


def _flag_values(row: list[str], flag: str) -> list[str]:
    """The pool of `flag` in the stage of `row`; for a flag in SCALING, only
    the row's own value and the pool's values that are not unsigned integers."""
    kwargs = FLAGS[row[0]][flag]
    pool = [*kwargs.get("choices", ()), *FLAG_POOLS[kwargs.get("type", str).__name__]]
    if flag not in SCALING:
        return pool
    own = [row[row.index(flag) + 1]] if flag in row else []
    return own + [v for v in pool if not re.fullmatch(r"\d+(,\d+)*", v)]


def _flag_breaches(base: Path, row: list[str], flag: str, value: str, tmp: Path) -> list[str]:
    """Run `row` with `flag` set to `value` last, so that it wins; return the
    contract's breaches."""
    out = tmp / "out"
    code, err = _main([*row, f"{flag}={value}"], base, {}, out)
    lines, where = err.splitlines(), f"{row[0]} {flag}={value!r}: exit {code}"
    if code == 1 and row[0] == "train":
        ok = len(lines) == 1 and lines[0].startswith("error: stage-failure: DivergenceError: ")
    elif code == 2:
        ok = len(lines) == 1 and lines[0].startswith("error: validation: ") \
            and not out.exists()
    else:
        ok = code == 0 and not (flag in SCALING and value not in row)
    return [] if ok else [f"{where}: {lines}"]


@pytest.mark.parametrize("row", STAGES, ids=lambda row: " ".join(row[:1] + row[-2:]))
def test_flag_values_keep_the_exit_contract(golden_inputs, tmp_path, row):
    breaches = []
    for flag in FLAGS[row[0]]:
        for value in _flag_values(row, flag):
            with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
                breaches += _flag_breaches(golden_inputs, row, flag, value, Path(tmp))
    assert not breaches, "\n".join(breaches[:20])
