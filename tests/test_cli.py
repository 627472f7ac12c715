import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import steppref
from steppref import cli
from steppref.cli import main
from steppref.corpus import (
    KIND_D,
    KIND_GEN,
    KIND_GPAIR,
    KIND_PAIR,
    KIND_RFT,
    read_dataset,
    write_dataset,
)
from steppref.genclient import ProviderHandle, SamplingConfig, sample
from steppref.synthworld import SynthConfig

from conftest import trace_with_error


def run(args):
    return main([str(a) for a in args])


def chain(base, seed=3, n=6, problems=5, t=3):
    """Run synth -> rft -> pairs -> gpair in `base`, return the dir."""
    base.mkdir(parents=True, exist_ok=True)
    assert run(["--seed", seed, "--out", base, "synth", "--problems", problems,
                "--t", t, "--epsilon", 0.3, "--samples", 4]) == 0
    assert run(["--seed", seed, "--out", base, "rft",
                "--problems-file", base / "problems.jsonl",
                "--n", n, "--epsilon", 0.3]) == 0
    assert run(["--seed", seed, "--out", base, "pairs",
                "--problems-file", base / "problems.jsonl",
                "--dgen", base / "dgen.jsonl", "--drft", base / "drft.jsonl"]) == 0
    assert run(["--seed", seed, "--out", base, "gpair",
                "--problems-file", base / "problems.jsonl",
                "--dpair", base / "dpair.jsonl", "--k", 3,
                "--epsilon", 0.1]) == 0
    return base


def test_full_chain_artifacts(tmp_path):
    base = chain(tmp_path / "run")
    problems, header = read_dataset(base / "problems.jsonl", KIND_D)
    assert len(problems) == 5
    assert header.created_with["stage"] == "synth"
    samples, _ = read_dataset(base / "samples.jsonl", KIND_GEN)
    assert len(samples) == 20
    gen, gen_header = read_dataset(base / "dgen.jsonl", KIND_GEN)
    assert gen_header.source_hash
    rft, _ = read_dataset(base / "drft.jsonl", KIND_RFT)
    assert all(r.rationale.label == "correct" for r in rft)
    pairs, _ = read_dataset(base / "dpair.jsonl", KIND_PAIR)
    assert all(p.granularity == "outcome" for p in pairs)
    gpairs, _ = read_dataset(base / "dgpair.jsonl", KIND_GPAIR)
    assert gpairs, "granular build should produce records"
    assert all(g.pit_index >= 1 for g in gpairs)
    for stage in ("synth", "rft", "pairs", "gpair"):
        manifest = json.loads((base / f"{stage}_manifest.json").read_text())
        assert manifest["stage"] == stage
        assert manifest["seed"] == 3
        assert "versions" in manifest


def test_explore_report(tmp_path):
    base = chain(tmp_path / "run")
    assert run(["--seed", 3, "--out", base, "explore",
                "--problems-file", base / "problems.jsonl",
                "--dpair", base / "dpair.jsonl", "--k", 3, "--epsilon", 0.1]) == 0
    rows = [json.loads(line) for line in
            (base / "pits.jsonl").read_text().splitlines()]
    pairs, _ = read_dataset(base / "dpair.jsonl", KIND_PAIR)
    assert len(rows) == len(pairs)
    for row in rows:
        assert row["pit_index"] is None or row["pit_index"] >= 1
        assert row["per_step_success"]


def test_gpair_variant_flag(tmp_path):
    base = chain(tmp_path / "run")
    out2 = tmp_path / "variant"
    out2.mkdir()
    assert run(["--seed", 3, "--out", out2, "gpair",
                "--problems-file", base / "problems.jsonl",
                "--dpair", base / "dpair.jsonl", "--k", 3, "--epsilon", 0.1,
                "--variant", "reject-all"]) == 0
    gpairs, _ = read_dataset(out2 / "dgpair.jsonl", KIND_GPAIR)
    assert gpairs
    assert all(g.granularity == "granular-reject-all" for g in gpairs)


def test_sweep_k_outputs(tmp_path):
    base = chain(tmp_path / "run")
    assert run(["--seed", 3, "--out", base, "sweep-k",
                "--problems-file", base / "problems.jsonl",
                "--dpair", base / "dpair.jsonl", "--ks", "2,4",
                "--epsilon", 0.2]) == 0
    for k in (2, 4):
        records, header = read_dataset(base / f"dgpair_k{k}.jsonl", KIND_GPAIR)
        assert header.created_with["k"] == k
    lines = (base / "sweep_summary.tsv").read_text().splitlines()
    assert lines[0] == "k\trecords\tmean_pit_index"
    assert len(lines) == 3


def test_sweep_k_itemises_dropped_records(tmp_path, stub_server):
    base = chain(tmp_path / "run")
    problems, _ = read_dataset(base / "problems.jsonl", KIND_D)
    pairs, _ = read_dataset(base / "dpair.jsonl", KIND_PAIR)
    assert len(pairs) >= 2
    by_question = {p.question: p for p in problems}
    failing = {r.problem_id for r in pairs[0::2]}

    # every rollout of a failing problem gets a 500, any other reaches the gold
    def respond(payload):
        problem = by_question[payload["prompt"].split("\n")[0]]
        if problem.id in failing:
            return 500, {}
        return 200, {"choices": [{"text": f"The answer is {problem.gold_answer}."}]
                     * payload["n"]}

    server = stub_server(respond)
    out = tmp_path / "sweep"
    assert run(["--out", out, "sweep-k", "--problems-file", base / "problems.jsonl",
                "--dpair", base / "dpair.jsonl", "--ks", "1,2",
                "--endpoint", server.url]) == 0
    summary = (out / "sweep_summary.tsv").read_text().splitlines()
    assert summary == ["k\trecords\tmean_pit_index", "1\t0\t", "2\t0\t"]
    rows = [json.loads(line) for line in (out / "sweep_dropped.jsonl").read_text().splitlines()]
    want = [(r.problem_id, k, i)
            for k in (1, 2)
            for fails in (False, True)  # no-pit drops, then failures
            for i, r in enumerate(pairs) if (r.problem_id in failing) == fails]
    assert [(row["id"], row["k"], row["record_index"]) for row in rows] == want
    for row in rows:
        if row["id"] in failing:
            assert row["reason"].startswith(f"provider failed at step 1 of {row['id']}: ")
            assert row["reason"].endswith("HTTPError: HTTP Error 500: Internal Server Error")
        else:
            assert row["reason"] == "no-pit"
    manifest = json.loads((out / "sweep-k_manifest.json").read_text())
    assert "sweep_dropped.jsonl" in manifest["outputs"]


@pytest.mark.parametrize("variant", ["first-step", "full"])
def test_rescue_without_a_step_is_an_assembly_drop(tmp_path, stub_server, variant):
    base = chain(tmp_path / "run")
    problems, _ = read_dataset(base / "problems.jsonl", KIND_D)
    pairs, _ = read_dataset(base / "dpair.jsonl", KIND_PAIR)
    assert len(pairs) >= 2 and all(len(r.rejected.steps) >= 2 for r in pairs)
    by_question = {p.question: p for p in problems}
    bare = {r.problem_id for r in pairs[0::2]}

    # From one step in, every rollout reaches the gold: a bare answer line for
    # the problems in `bare`, a step and then the answer for the others. From
    # two steps in, none does, so every pit is 2 and its rescue is a 1-step
    # rollout.
    def respond(payload):
        question, *prefix = payload["prompt"].split("\n")
        problem = by_question[question]
        if len(prefix) > 1:
            text = "The answer is -1."
        elif problem.id in bare:
            text = f"The answer is {problem.gold_answer}."
        else:
            text = f"1+1=2.\nThe answer is {problem.gold_answer}."
        return 200, {"choices": [{"text": text}] * payload["n"]}

    server = stub_server(respond)
    out = tmp_path / "gpair"
    assert run(["--out", out, "gpair", "--problems-file", base / "problems.jsonl",
                "--dpair", base / "dpair.jsonl", "--k", 2, "--variant", variant,
                "--endpoint", server.url]) == 0
    rows = [json.loads(line) for line in (out / "gpair_dropped.jsonl").read_text().splitlines()]
    assert [(row["id"], row["record_index"]) for row in rows] == [
        (r.problem_id, i) for i, r in enumerate(pairs) if r.problem_id in bare]
    assert all(row["reason"].startswith("assembly: ") for row in rows)
    kept, _ = read_dataset(out / "dgpair.jsonl", KIND_GPAIR)
    assert [g.problem_id for g in kept] == [r.problem_id for r in pairs
                                            if r.problem_id not in bare]
    assert all(g.pit_index == 2 and g.chosen.steps[0] == "1+1=2." for g in kept)


def test_train_and_metrics(tmp_path):
    base = chain(tmp_path / "run")
    assert run(["--seed", 3, "--out", base, "train",
                "--pairs-file", base / "dgpair.jsonl", "--epochs", 4,
                "--alphabet", 64, "--order", 1]) == 0
    lines = (base / "train_history.tsv").read_text().splitlines()
    assert lines[0] == "epoch\tloss\treward_accuracy"
    assert len(lines) == 5
    manifest = json.loads((base / "train_manifest.json").read_text())
    assert manifest["config"]["objective"] == "dpo"
    assert (base / "policy.npy").exists()
    assert not (base / "policy_meta.json").exists()

    assert run(["--seed", 3, "--out", base, "metrics",
                "--problems-file", base / "problems.jsonl",
                "--dgen", base / "samples.jsonl", "--k", "1,4"]) == 0
    rows = (base / "metrics.tsv").read_text().splitlines()
    metrics = {(r.split("\t")[0], r.split("\t")[1]) for r in rows}
    assert ("top1", "1") in metrics
    assert ("pass_at_k", "4") in metrics
    assert ("maj_at_k", "4") in metrics
    assert ("mean_unique_count", "1") in metrics


def test_train_manifest_records_settings(tmp_path):
    base = chain(tmp_path / "run")
    configs = []
    for smoothing in (0.5, 0.25):
        out = tmp_path / f"s{smoothing}"
        assert run(["--seed", 3, "--out", out, "train", "--pairs-file",
                    base / "dgpair.jsonl", "--epochs", 2, "--smoothing", smoothing]) == 0
        configs.append(json.loads((out / "train_manifest.json").read_text())["config"])
    assert configs[0]["smoothing"] == 0.5 and configs[1]["smoothing"] == 0.25
    assert {k: v for k, v in configs[0].items() if k != "smoothing"} == \
        {k: v for k, v in configs[1].items() if k != "smoothing"}
    assert configs[0]["beta"] == 0.1 and configs[0]["tau"] is None
    assert configs[0]["kto_weights"] == [1.0, 1.0]


def test_metrics_embeddings(tmp_path):
    base = chain(tmp_path / "run")
    emb = tmp_path / "emb.jsonl"
    emb.write_text(json.dumps({"id": "synth-00000",
                               "embeddings": [[0.0, 0.0], [3.0, 4.0]]}) + "\n")
    assert run(["--seed", 3, "--out", base, "metrics",
                "--problems-file", base / "problems.jsonl",
                "--dgen", base / "samples.jsonl", "--k", "1",
                "--embeddings", emb]) == 0
    rows = (base / "metrics.tsv").read_text().splitlines()
    div = [r for r in rows if r.startswith("diversity_mean")]
    assert div and float(div[0].split("\t")[2]) == pytest.approx(5.0)


def test_missing_input_validation_failure(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["--out", out, "rft", "--problems-file", tmp_path / "nope.jsonl"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: validation:")
    assert len(err.strip().splitlines()) == 1
    assert not (out / "dgen.jsonl").exists()


def test_bad_k_validation(tmp_path):
    base = chain(tmp_path / "run")
    code = run(["--seed", 3, "--out", base, "metrics",
                "--problems-file", base / "problems.jsonl",
                "--dgen", base / "samples.jsonl", "--k", "99"])
    assert code == 2


def test_wrong_kind_validation(tmp_path):
    base = chain(tmp_path / "run")
    code = run(["--seed", 3, "--out", base, "train",
                "--pairs-file", base / "problems.jsonl"])
    assert code == 2


def test_config_file_defaults_and_flag_override(tmp_path):
    base = tmp_path / "run"
    base.mkdir()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "problems": 4}))
    assert run(["--out", base, "--config", cfg, "synth", "--t", 2]) == 0
    problems, header = read_dataset(base / "problems.jsonl", KIND_D)
    assert len(problems) == 4  # config default applied
    assert run(["--out", base, "--config", cfg, "rft",
                "--problems-file", base / "problems.jsonl"]) == 0
    _, gen_header = read_dataset(base / "dgen.jsonl", KIND_GEN)
    assert gen_header.created_with["n"] == 3  # config default applied
    out2 = tmp_path / "override"
    out2.mkdir()
    assert run(["--out", out2, "--config", cfg, "synth", "--t", 2,
                "--problems", 6]) == 0
    problems2, _ = read_dataset(out2 / "problems.jsonl", KIND_D)
    assert len(problems2) == 6  # explicit flag wins over config


def test_stage_failure_removes_partial_outputs(tmp_path, monkeypatch):
    base = chain(tmp_path / "run")
    out = tmp_path / "boom"
    out.mkdir()
    import steppref.cli as cli

    def explode(*args, **kwargs):
        raise RuntimeError("forced failure after the first write")

    monkeypatch.setattr(cli, "_manifest", explode)
    code = run(["--seed", 3, "--out", out, "pairs",
                "--problems-file", base / "problems.jsonl",
                "--dgen", base / "dgen.jsonl", "--drft", base / "drft.jsonl"])
    assert code == 1
    assert not (out / "dpair.jsonl").exists()


def test_malformed_rejected_step_is_itemised(tmp_path):
    base = chain(tmp_path / "run")
    problems, _ = read_dataset(base / "problems.jsonl", KIND_D)
    pairs, header = read_dataset(base / "dpair.jsonl", KIND_PAIR)
    bad_idx, bad = 1, pairs[1]
    # first wrong at step 3, so an exact explorer rescues step 1 and
    # exploration reaches the malformed step 2
    rejected = trace_with_error(
        next(p for p in problems if p.id == bad.problem_id), SynthConfig(), 3)
    steps = (rejected.steps[0], "two plus two is five.") + rejected.steps[2:]
    pairs[bad_idx] = dataclasses.replace(
        bad, rejected=dataclasses.replace(rejected, steps=steps))
    write_dataset(pairs, header, base / "dpair.jsonl")
    inputs = ["--problems-file", base / "problems.jsonl", "--dpair", base / "dpair.jsonl"]
    for stage, flags in (("explore", ["--k", 2]), ("gpair", ["--k", 2]),
                         ("sweep-k", ["--ks", "1,2"])):
        assert run(["--seed", 3, "--out", base, stage, *inputs, *flags,
                    "--epsilon", 0.0]) == 0
    rows = [json.loads(line) for line in (base / "pits.jsonl").read_text().splitlines()]
    assert len(rows) == len(pairs)
    errors = [row for row in rows if "error" in row]
    assert [row["record_index"] for row in errors] == [bad_idx]
    assert errors[0]["error"].startswith(f"provider failed at step 2 of {bad.problem_id}: ")
    assert errors[0]["partial"] == [[2, 2]]
    dropped = [json.loads(line)
               for line in (base / "gpair_dropped.jsonl").read_text().splitlines()]
    assert {"id": bad.problem_id, "record_index": bad_idx,
            "reason": errors[0]["error"]} in dropped


@dataclasses.dataclass(frozen=True)
class HeaderOnly:
    """A chain output cut to its header line: a dataset with no records."""

    name: str


def _run_stderr(args, capsys):
    code = run(args)
    return code, capsys.readouterr().err.strip().splitlines()


@pytest.mark.parametrize("stage_args,config", [
    (["rft", "--n", "abc"], None),
    (["rft"], {"n": "abc"}),
    (["rft"], {"nn": 3}),
    (["rft", "--n", 0], None),
    (["train", "--objective", "ipo"], None),
    (["train", "--objective", "kto", "--kto-weights", 1], None),
    (["sweep-k", "--ks", "0,2"], None),
    (["rft", "--model", "m"], None),
    (["rft", "--max-in-flight", 9], None),
    (["metrics", "--k", 0], None),
    (["metrics", "--k", 9], None),
    (["rft", "--endpoint", "http://127.0.0.1:9/v1", "--epsilon", 0.5], None),
    (["rft", "--endpoint", ""], None),
    (["rft", "--endpoint", "localhost:8000/v1"], None),
    (["rft"], "{not json"),
    (["rft"], [3]),
    (["rft"], {"n": [3]}),
    (["sweep-k", "--ks", ","], None),
    (["train", "--pairs-file", HeaderOnly("dgpair.jsonl")], None),
    (["metrics", "--dgen", HeaderOnly("samples.jsonl")], None),
    (["train", "--lr", -1], None),
    (["train", "--lr", "nan"], None),
    (["train", "--lr", "inf"], None),
    (["train", "--epochs", 0], None),
    (["train", "--alphabet", 2], None),
    (["train", "--order", 0], None),
    (["train", "--smoothing", 0], None),
], ids=["flag-type", "config-type", "config-unknown-key", "n-0", "ipo-no-tau",
        "one-kto-weight", "ks-0", "model-without-endpoint",
        "max-in-flight-without-endpoint", "metrics-k-0", "metrics-k-9",
        "epsilon-with-endpoint", "endpoint-empty", "endpoint-no-scheme",
        "config-not-json", "config-array", "config-non-scalar", "ks-empty",
        "train-no-records", "metrics-no-records", "lr-negative", "lr-nan", "lr-inf",
        "epochs-0", "alphabet-2", "order-0", "smoothing-0"])
def test_bad_value_is_one_line_exit_2(tmp_path, capsys, stage_args, config):
    """`config` is written as JSON, or as it is when a str."""
    base = chain(tmp_path / "run")

    def resolve(arg):
        if not isinstance(arg, HeaderOnly):
            return arg
        path = tmp_path / arg.name
        path.write_text((base / arg.name).read_text().splitlines(keepends=True)[0])
        return path

    out = tmp_path / "out"
    inputs = {"rft": ["--problems-file", base / "problems.jsonl"],
              "train": ["--pairs-file", base / "dgpair.jsonl"],
              "sweep-k": ["--problems-file", base / "problems.jsonl",
                          "--dpair", base / "dpair.jsonl"],
              # 4 predictions per problem
              "metrics": ["--problems-file", base / "problems.jsonl",
                          "--dgen", base / "samples.jsonl"]}[stage_args[0]]
    top = ["--out", out]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config if isinstance(config, str) else json.dumps(config))
        top += ["--config", cfg]
    # the stage's own flags come last, so an input they name wins
    code, err = _run_stderr([*top, stage_args[0], *inputs,
                             *map(resolve, stage_args[1:])], capsys)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: validation:")
    assert not out.exists()


def test_config_values_are_typed_like_flags(tmp_path):
    base = chain(tmp_path / "run")
    problems = ["--problems-file", base / "problems.jsonl"]
    by_flags, by_config = tmp_path / "flags", tmp_path / "config"
    assert run(["--seed", 3, "--out", by_flags, "rft", *problems, "--n", 4,
                "--temperature", 1, "--epsilon", 0.25]) == 0
    cfg = tmp_path / "cfg.json"
    # JSON ints for float flags, a key of another stage, and a seed that the
    # explicit --seed overrides
    cfg.write_text(json.dumps({"n": 4, "temperature": 1, "epsilon": 0.25,
                               "problems": 7, "seed": 9}))
    assert run(["--seed", 3, "--out", by_config, "--config", cfg, "rft", *problems]) == 0
    names = sorted(p.name for p in by_flags.iterdir())
    assert names == sorted(p.name for p in by_config.iterdir())
    for name in names:
        assert (by_flags / name).read_bytes() == (by_config / name).read_bytes(), name


@pytest.mark.parametrize("stage", ["pairs", "explore", "gpair", "sweep-k", "metrics",
                                   "metrics-embeddings"])
def test_unknown_problem_is_exit_2(tmp_path, capsys, stage):
    base = chain(tmp_path / "run")
    if stage == "metrics-embeddings":
        stage, bad = "metrics", tmp_path / "emb.jsonl"
        bad.write_text("".join(json.dumps({"id": pid, "embeddings": [[0.0], [1.0]]}) + "\n"
                               for pid in ("synth-00000", "synth-99999")))
        flag, extra = "--embeddings", ["--dgen", base / "samples.jsonl"]
    else:
        flag, name, kind, extra = {
            "pairs": ("--dgen", "dgen.jsonl", KIND_GEN, ["--drft", base / "drft.jsonl"]),
            "explore": ("--dpair", "dpair.jsonl", KIND_PAIR, ["--k", 2]),
            "gpair": ("--dpair", "dpair.jsonl", KIND_PAIR, ["--k", 2]),
            "sweep-k": ("--dpair", "dpair.jsonl", KIND_PAIR, ["--ks", "1,2"]),
            "metrics": ("--dgen", "samples.jsonl", KIND_GEN, []),
        }[stage]
        bad = base / name
        records, header = read_dataset(bad, kind)
        records[0] = dataclasses.replace(records[0], problem_id="synth-99999")
        write_dataset(records, header, bad)
    out = tmp_path / "out"
    code, err = _run_stderr(["--out", out, stage, "--problems-file",
                             base / "problems.jsonl", flag, bad, *extra], capsys)
    assert code == 2
    assert err == [f"error: validation: {bad} references unknown problem synth-99999"]
    assert not out.exists()


_GOOD_ROW = json.dumps({"id": "synth-00000", "embeddings": [[0.0], [1.0]]})


@pytest.mark.parametrize("case,line", [
    ("body-not-json", 3),
    ("bad-header", 1),
    ("body-not-utf8", 22),
    ("rows-not-json", 2),
    ("rows-not-utf8", 2),
    ("row-not-object", 2),
    ("row-without-id", 2),
    ("ragged-embeddings", 2),
    ("one-embedding", 2),
    ("non-finite-embedding", 2),
])
def test_malformed_input_is_one_line_exit_2(tmp_path, capsys, case, line):
    base = chain(tmp_path / "run")
    problems = ["--problems-file", base / "problems.jsonl"]
    bad = tmp_path / "bad.jsonl"
    if case in ("body-not-json", "bad-header"):
        lines = (base / "dgen.jsonl").read_text().splitlines()
        lines[line - 1] = "{not json"
        bad.write_text("\n".join(lines) + "\n")
        args = ["pairs", *problems, "--dgen", bad, "--drft", base / "drft.jsonl"]
    elif case == "body-not-utf8":
        # two bytes that are not UTF-8 after the header and 20 sample lines
        bad.write_bytes((base / "samples.jsonl").read_bytes() + b"\xff\xfe")
        args = ["metrics", *problems, "--dgen", bad]
    else:
        row = {"rows-not-json": "{not json",
               "rows-not-utf8": "\xff",
               "row-not-object": "[1, 2]",
               "row-without-id": json.dumps({"embeddings": [[0.0], [1.0]]}),
               "ragged-embeddings": json.dumps({"id": "synth-00000",
                                                "embeddings": [[0.0], [1.0, 2.0]]}),
               "one-embedding": json.dumps({"id": "synth-00000", "embeddings": [[0.0]]}),
               "non-finite-embedding": '{"id": "synth-00000", "embeddings": [[0.0], [NaN]]}',
               }[case]
        # latin-1 writes "\xff" as the lone byte 0xff, which is not UTF-8
        bad.write_bytes((_GOOD_ROW + "\n" + row + "\n").encode("latin-1"))
        args = ["metrics", *problems, "--dgen", base / "samples.jsonl", "--embeddings", bad]
    out = tmp_path / "out"
    code, err = _run_stderr(["--out", out, *args], capsys)
    assert code == 2
    assert len(err) == 1 and err[0].startswith(f"error: validation: {bad}: line {line}: ")
    assert not out.exists()


def test_source_hash_checked_against_problems_file(tmp_path, capsys):
    base = chain(tmp_path / "run")
    # the same problem ids, other questions: dgen and drft now name a stale
    # problems file
    assert run(["--seed", 4, "--out", base, "synth", "--problems", 5, "--t", 3,
                "--samples", 4]) == 0
    problems = ["--problems-file", base / "problems.jsonl"]
    out = tmp_path / "out"
    code, err = _run_stderr(["--out", out, "pairs", *problems, "--dgen",
                             base / "dgen.jsonl", "--drft", base / "drft.jsonl"], capsys)
    assert code == 2 and len(err) == 1
    assert err[0].startswith(f"error: validation: {base / 'dgen.jsonl'} has source_hash ")
    code, err = _run_stderr(["--out", out, "metrics", *problems, "--dgen",
                             base / "dgen.jsonl"], capsys)
    assert code == 2 and len(err) == 1 and "has source_hash" in err[0]
    assert not out.exists()
    # the regenerated samples match; an empty hash is an unknown upstream
    assert run(["--out", out, "metrics", *problems, "--dgen", base / "samples.jsonl"]) == 0
    for name, kind in (("dgen.jsonl", KIND_GEN), ("drft.jsonl", KIND_RFT)):
        records, header = read_dataset(base / name, kind)
        write_dataset(records, dataclasses.replace(header, source_hash=""), base / name)
    assert run(["--out", out, "pairs", *problems, "--dgen", base / "dgen.jsonl",
                "--drft", base / "drft.jsonl"]) == 0


def test_endpoint_selects_http(tmp_path, stub_server, capsys):
    seed, eps = 3, 0.3
    base = chain(tmp_path / "run", seed=seed)
    synthetic = ProviderHandle.synthetic(SynthConfig(t=1, epsilon=eps, seed=seed))

    def respond(payload):
        cfg = SamplingConfig(n=payload["n"], temperature=payload["temperature"],
                             seed=payload["seed"])
        return 200, {"choices": [{"text": text} for text in
                                 sample(synthetic, payload["prompt"], cfg)]}

    server = stub_server(respond)
    problems = ["--problems-file", base / "problems.jsonl"]
    explore = [*problems, "--dpair", base / "dpair.jsonl", "--k", 3]
    by_http, by_synth = tmp_path / "http", tmp_path / "synthetic"
    assert run(["--seed", seed, "--out", by_http, "rft", *problems, "--n", 6,
                "--endpoint", server.url, "--model", "m"]) == 0
    assert server.calls and all(c["model"] == "m" for c in server.calls)
    assert run(["--seed", seed, "--out", by_http, "gpair", *explore,
                "--endpoint", server.url]) == 0
    assert run(["--seed", seed, "--out", by_synth, "rft", *problems, "--n", 6,
                "--epsilon", eps]) == 0
    assert run(["--seed", seed, "--out", by_synth, "gpair", *explore,
                "--epsilon", eps]) == 0
    for name in ("dgen.jsonl", "drft.jsonl", "rft_skips.jsonl", "dgpair.jsonl",
                 "gpair_dropped.jsonl"):
        lines = (by_http / name).read_text().splitlines()
        assert lines[1:] == (by_synth / name).read_text().splitlines()[1:], name
    assert read_dataset(by_http / "dgpair.jsonl", KIND_GPAIR)[0]
    gen, header = read_dataset(by_http / "dgen.jsonl", KIND_GEN)
    assert gen
    assert header.created_with["endpoint"] == server.url
    assert header.created_with["model"] == "m"
    assert header.created_with["max_in_flight"] == 4
    assert header.created_with["epsilon"] is None
    _, header = read_dataset(by_synth / "dgen.jsonl", KIND_GEN)
    assert header.created_with["endpoint"] is None
    code, err = _run_stderr(["--out", tmp_path / "out", "rft", *problems,
                             "--provider", "http", "--endpoint", server.url], capsys)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: validation: unrecognized arguments")


def _loaded_by_fresh_import(module: str, names: set[str]) -> list[str]:
    """Which of `names` are in sys.modules after a fresh interpreter imports `module`."""
    src = str(Path(steppref.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys, {module}; "
         f"print(json.dumps(sorted(set({sorted(names)!r}) & set(sys.modules))))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=60, check=True)
    return json.loads(proc.stdout)


def test_cli_import_loads_no_third_party_http_client():
    assert _loaded_by_fresh_import("steppref.cli", {"requests", "urllib3"}) == []


def test_corpus_import_loads_no_numpy_or_trainer():
    assert _loaded_by_fresh_import("steppref.corpus", {"numpy", "steppref.preflearn"}) == []


def test_provider_failure_names_last_cause(tmp_path, stub_server):
    base = chain(tmp_path / "run")
    server = stub_server(lambda payload: (500, {"error": "down"}))
    problems = ["--problems-file", base / "problems.jsonl"]
    explore = [*problems, "--dpair", base / "dpair.jsonl", "--k", 2, "--endpoint", server.url]
    out = tmp_path / "http"
    assert run(["--out", out, "rft", *problems, "--n", 2, "--endpoint", server.url]) == 0
    assert run(["--out", out, "explore", *explore]) == 0
    assert run(["--out", out, "gpair", *explore]) == 0

    def rows(name):
        return [json.loads(line) for line in (out / name).read_text().splitlines()]

    reasons = ([r["reason"] for r in rows("rft_skips.jsonl")]
               + [r["error"] for r in rows("pits.jsonl")]
               + [r["reason"] for r in rows("gpair_dropped.jsonl")])
    assert len(reasons) == 5 + 2 * len(read_dataset(base / "dpair.jsonl", KIND_PAIR)[0])
    cause = "; last: HTTPError: HTTP Error 500: Internal Server Error"
    assert all(r.endswith(cause) for r in reasons), reasons


_STAGE_ARGS = {
    "synth": lambda base: ["--problems", 2, "--t", 2],
    "rft": lambda base: ["--problems-file", base / "problems.jsonl", "--n", 2],
    "pairs": lambda base: ["--problems-file", base / "problems.jsonl",
                           "--dgen", base / "dgen.jsonl", "--drft", base / "drft.jsonl"],
    "explore": lambda base: ["--problems-file", base / "problems.jsonl",
                             "--dpair", base / "dpair.jsonl", "--k", 2],
    "gpair": lambda base: ["--problems-file", base / "problems.jsonl",
                           "--dpair", base / "dpair.jsonl", "--k", 2],
    "sweep-k": lambda base: ["--problems-file", base / "problems.jsonl",
                             "--dpair", base / "dpair.jsonl", "--ks", "1,2"],
    "train": lambda base: ["--pairs-file", base / "dgpair.jsonl", "--epochs", 1],
    "metrics": lambda base: ["--problems-file", base / "problems.jsonl",
                             "--dgen", base / "samples.jsonl"],
}


@pytest.mark.parametrize("stage", [s.name for s in cli._STAGE_DECLS])
def test_manifest_config_is_every_flag(tmp_path, stage):
    base = chain(tmp_path / "run")
    out = tmp_path / "out"
    assert run(["--seed", 3, "--out", out, stage, *_STAGE_ARGS[stage](base)]) == 0
    _, stage_parsers = cli.build_parser()
    inputs = {i.dest for s in cli._STAGE_DECLS if s.name == stage for i in s.inputs}
    flags = set(stage_parsers[stage].flags()) - inputs
    config = json.loads((out / f"{stage}_manifest.json").read_text())["config"]
    assert set(config) == {"stage", "seed"} | flags
    assert (config["stage"], config["seed"]) == (stage, 3)


def test_gpair_header_records_epsilon(tmp_path):
    base = chain(tmp_path / "run")
    heads = []
    for eps in (0.05, 0.6):
        out = tmp_path / f"eps{eps}"
        assert run(["--seed", 3, "--out", out, "gpair", "--problems-file",
                    base / "problems.jsonl", "--dpair", base / "dpair.jsonl",
                    "--k", 2, "--epsilon", eps]) == 0
        _, header = read_dataset(out / "dgpair.jsonl", KIND_GPAIR)
        assert header.created_with["epsilon"] == eps
        heads.append((out / "dgpair.jsonl").read_text().splitlines()[0])
    assert heads[0] != heads[1]
