import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any

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
from steppref.pipeline import ExploreConfig, PairingConfig
from steppref.preflearn import ObjectiveConfig
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
    problems, _ = read_dataset(base / "problems.jsonl", KIND_D)
    assert len(problems) == 5
    synth = json.loads((base / "synth_manifest.json").read_text())
    assert "problems.jsonl" in synth["outputs"]
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
        assert manifest["config"]["stage"] == stage
        assert manifest["config"]["seed"] == (None if stage == "pairs" else 3)
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
    manifest = json.loads((base / "sweep-k_manifest.json").read_text())
    assert manifest["config"]["ks"] == [2, 4]
    assert [name for name in manifest["outputs"] if name.startswith("dgpair_k")] == [
        "dgpair_k2.jsonl", "dgpair_k4.jsonl"]
    for k in (2, 4):
        read_dataset(base / f"dgpair_k{k}.jsonl", KIND_GPAIR)
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
    assert all(row["reason"] == "assembly: completion has no step" for row in rows)
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
    assert configs[0]["kto_weights"] is None  # dpo reads no kto weights
    # each objective records what it read, and null for what it did not
    for objective, extra, recorded in (
            ("ipo", ["--tau", 0.5], {"beta": None, "tau": 0.5, "kto_weights": None}),
            ("kto", [], {"beta": 0.1, "tau": None, "kto_weights": [1.0, 1.0]})):
        out = tmp_path / objective
        assert run(["--seed", 3, "--out", out, "train", "--pairs-file", base / "dgpair.jsonl",
                    "--epochs", 2, "--objective", objective, *extra]) == 0
        config = json.loads((out / "train_manifest.json").read_text())["config"]
        assert {k: config[k] for k in recorded} == recorded, objective


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


def test_metrics_refuses_d_rft(tmp_path, capsys):
    """metrics scores sampled predictions; in D_RFT each one is the gold answer."""
    base = chain(tmp_path / "run")
    drft = base / "drft.jsonl"
    out = tmp_path / "out"
    code, err = _run_stderr(["--out", out, "metrics", "--problems-file",
                             base / "problems.jsonl", "--dgen", drft], capsys)
    assert (code, err) == (2, [f"error: validation: {drft}: line 1: header declares "
                               "kind D_RFT, expected D_GEN"])
    assert not out.exists()


def test_stage_failure_removes_partial_outputs(tmp_path, monkeypatch):
    base = chain(tmp_path / "run")
    out = tmp_path / "boom"
    out.mkdir()
    import steppref.cli as cli

    def explode(*args, **kwargs):
        raise RuntimeError("forced failure after the first write")

    monkeypatch.setattr(cli.StageRun, "_write_manifest", explode)
    code = run(["--seed", 3, "--out", out, "pairs",
                "--problems-file", base / "problems.jsonl",
                "--dgen", base / "dgen.jsonl", "--drft", base / "drft.jsonl"])
    assert code == 1
    assert not (out / "dpair.jsonl").exists()


def test_failed_clean_up_still_reports_the_stage_failure(tmp_path, monkeypatch, capsys):
    base = chain(tmp_path / "run")
    out = tmp_path / "boom"

    def explode(*args, **kwargs):
        raise RuntimeError("forced failure after the first write")

    def refuse(self, missing_ok=False):
        raise OSError("unlink refused")

    monkeypatch.setattr(cli.StageRun, "_write_manifest", explode)
    monkeypatch.setattr(cli.Path, "unlink", refuse)
    code, err = _run_stderr(["--seed", 3, "--out", out, "pairs",
                             "--problems-file", base / "problems.jsonl",
                             "--dgen", base / "dgen.jsonl",
                             "--drft", base / "drft.jsonl"], capsys)
    assert code == 1
    assert err == ["error: stage-failure: RuntimeError: forced failure after the first write"]


# more digits than int() reads from a string (CPython's default limit is 4300)
_LONG_NUMBER = "1" * 5000


def test_malformed_rejected_step_is_itemised(tmp_path):
    base = chain(tmp_path / "run")
    problems, _ = read_dataset(base / "problems.jsonl", KIND_D)
    pairs, header = read_dataset(base / "dpair.jsonl", KIND_PAIR)
    bad_idx, bad = 1, pairs[1]
    # first wrong at step 3, so an exact explorer rescues step 1 and
    # exploration reaches the malformed step 2
    rejected = trace_with_error(next(p for p in problems if p.id == bad.problem_id), 3)
    inputs = ["--problems-file", base / "problems.jsonl", "--dpair", base / "dpair.jsonl"]
    for step in ("two plus two is five.", f"2+3={_LONG_NUMBER}."):
        steps = (rejected.steps[0], step) + rejected.steps[2:]
        pairs[bad_idx] = dataclasses.replace(
            bad, rejected=dataclasses.replace(rejected, steps=steps))
        write_dataset(pairs, header, base / "dpair.jsonl")
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


def test_question_with_a_long_number_is_a_skip(tmp_path):
    base = chain(tmp_path / "run")
    path = base / "problems.jsonl"
    problems, header = read_dataset(path, KIND_D)
    problems[1] = dataclasses.replace(
        problems[1], question=f"Start with {_LONG_NUMBER}. Add 3. What is the final value?")
    write_dataset(problems, header, path)
    assert run(["--seed", 3, "--out", base, "rft", "--problems-file", path,
                "--n", 2]) == 0
    skips = [json.loads(line) for line in (base / "rft_skips.jsonl").read_text().splitlines()]
    assert [s["id"] for s in skips if s["reason"].startswith("provider-error: ")] == \
        [problems[1].id]


@dataclasses.dataclass(frozen=True)
class HeaderOnly:
    """A chain output cut to its header line: a dataset with no records."""

    name: str


def _run_stderr(args, capsys):
    code = run(args)
    return code, capsys.readouterr().err.strip().splitlines()


@pytest.mark.parametrize("stage_args", [
    ["rft", "--n", "abc"],
    ["rft", "--n", 0],
    ["train", "--objective", "ipo"],
    ["train", "--objective", "kto", "--kto-weights", 1],
    ["sweep-k", "--ks", "0,2"],
    ["rft", "--model", "m"],
    ["rft", "--max-in-flight", 9],
    ["metrics", "--k", 0],
    ["metrics", "--k", 9],
    ["rft", "--endpoint", "http://127.0.0.1:9/v1", "--epsilon", 0.5],
    ["rft", "--endpoint", ""],
    ["rft", "--endpoint", "localhost:8000/v1"],
    ["sweep-k", "--ks", ","],
    ["train", "--pairs-file", HeaderOnly("dgpair.jsonl")],
    ["metrics", "--dgen", HeaderOnly("samples.jsonl")],
    ["train", "--lr", -1],
    ["train", "--lr", "nan"],
    ["train", "--lr", "inf"],
    ["train", "--epochs", 0],
    ["train", "--alphabet", 2],
    ["train", "--order", 0],
    ["train", "--alphabet", 40, "--order", 13],
    ["train", "--alphabet", 1024, "--order", 2],  # 8208 MiB a table
    ["train", "--smoothing", 0],
    ["train", "--smoothing", "inf"],
    ["train", "--beta", "nan"],
    ["train", "--beta", "inf"],
    ["train", "--tau", "nan", "--objective", "ipo"],
    ["train", "--kto-weights", "nan,1", "--objective", "kto"],
    ["explore", "--k", 0],
    ["gpair", "--k", 0],
    ["sweep-k", "--ks", "2,2,1"],
    ["metrics", "--k", "1,1"],
    ["explore", "--temperature", -1],
    ["gpair", "--temperature", "nan"],
    ["sweep-k", "--temperature", "inf"],
    ["rft", "--temperature", "nan"],
    ["synth", "--problems", -3],
    ["synth", "--samples", -1],
    ["synth", "--value-range=-3:1"],
    ["train", "--tau", 0.5],
    ["train", "--objective", "kto", "--tau", 0.5],
    ["train", "--objective", "ipo", "--tau", 0.5, "--beta", 5],
    ["train", "--kto-weights", "1,1"],
    ["train", "--objective", "ipo", "--tau", 0.5, "--kto-weights", "1,1"],
    ["synth", "--epsilon", 0.3],
    ["synth", "--value-range", "0:99999999999999999999"],
    ["synth", "--t", 1001],
    ["sweep-k", "--ks", "1,,2"],
    ["sweep-k", "--ks", "2,"],
    ["metrics", "--k", ""],
    ["train", "--objective", "kto", "--kto-weights", "1,,1"],
    ["rft", "--temperature", 1.3],
    ["gpair", "--temperature", 0.5],
], ids=["flag-type", "n-0", "ipo-no-tau", "one-kto-weight", "ks-0",
        "model-without-endpoint", "max-in-flight-without-endpoint", "metrics-k-0",
        "metrics-k-9", "epsilon-with-endpoint", "endpoint-empty", "endpoint-no-scheme",
        "ks-empty", "train-no-records", "metrics-no-records", "lr-negative", "lr-nan",
        "lr-inf", "epochs-0", "alphabet-2", "order-0", "table-40-13", "table-1024-2",
        "smoothing-0", "smoothing-inf", "beta-nan", "beta-inf", "ipo-tau-nan",
        "kto-weight-nan", "explore-k-0", "gpair-k-0", "ks-repeated",
        "metrics-k-repeated", "explore-temperature-negative", "gpair-temperature-nan",
        "sweep-k-temperature-inf", "rft-temperature-nan", "synth-problems-negative",
        "synth-samples-negative", "synth-value-range-negative", "dpo-tau", "kto-tau",
        "ipo-beta", "dpo-kto-weights", "ipo-kto-weights", "synth-epsilon-no-samples",
        "synth-value-range-past-int64", "synth-t-1001", "ks-empty-item", "ks-trailing-comma",
        "metrics-k-empty", "kto-weights-empty-item", "rft-temperature-1.3",
        "gpair-temperature-0.5"])
def test_bad_value_is_one_line_exit_2(tmp_path, capsys, stage_args):
    base = chain(tmp_path / "run")

    def resolve(arg):
        if not isinstance(arg, HeaderOnly):
            return arg
        path = tmp_path / arg.name
        path.write_text((base / arg.name).read_text().splitlines(keepends=True)[0])
        return path

    out = tmp_path / "out"
    inputs = {"synth": [],
              "rft": ["--problems-file", base / "problems.jsonl"],
              "train": ["--pairs-file", base / "dgpair.jsonl"],
              "sweep-k": ["--problems-file", base / "problems.jsonl",
                          "--dpair", base / "dpair.jsonl"],
              "explore": ["--problems-file", base / "problems.jsonl",
                          "--dpair", base / "dpair.jsonl"],
              "gpair": ["--problems-file", base / "problems.jsonl",
                        "--dpair", base / "dpair.jsonl"],
              # 4 predictions per problem
              "metrics": ["--problems-file", base / "problems.jsonl",
                          "--dgen", base / "samples.jsonl"]}[stage_args[0]]
    # the stage's own flags come last, so an input they name wins
    code, err = _run_stderr(["--out", out, stage_args[0], *inputs,
                             *map(resolve, stage_args[1:])], capsys)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: validation:")
    assert not out.exists()


def test_synthetic_run_takes_temperature_0(tmp_path):
    # the synthetic solver reads 0 as one greedy text per prompt
    base = tmp_path / "run"
    assert run(["--out", base, "synth", "--problems", 3, "--t", 2]) == 0
    assert run(["--out", base, "rft", "--problems-file", base / "problems.jsonl",
                "--temperature", 0]) == 0
    assert json.loads((base / "rft_manifest.json").read_text())["config"]["temperature"] == 0


@pytest.mark.parametrize("sub", ["", "sub"])
def test_out_at_or_under_a_file_is_exit_2(tmp_path, capsys, sub):
    afile = tmp_path / "afile"
    afile.write_bytes(b"kept\n")
    code, err = _run_stderr(["--out", afile / sub, "synth", "--problems", 2], capsys)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: validation:")
    assert afile.read_bytes() == b"kept\n"


def test_config_file_is_an_unknown_option(tmp_path, capsys):
    """Settings come from flags alone."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problems": 4}))
    out = tmp_path / "out"
    code, err = _run_stderr(["--out", out, "--config", cfg, "synth"], capsys)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: validation:")
    assert not out.exists()


def test_unknown_option_before_the_stage_is_named(tmp_path, capsys):
    """argparse reads the value of an option it does not know as the stage
    name; the error names the option, not its value."""
    out = tmp_path / "out"
    code, err = _run_stderr(["--out", out, "--config", "c.json", "synth"], capsys)
    assert (code, err) == (2, ["error: validation: unrecognized arguments: --config"])
    assert not out.exists()


@pytest.mark.parametrize("stage,flag,value", [("metrics", "--k", "0"),
                                              ("sweep-k", "--ks", "0,2")])
def test_k_below_1_is_refused_before_inputs_are_read(tmp_path, capsys, stage, flag, value):
    missing = tmp_path / "missing.jsonl"
    inputs = {"metrics": ["--dgen", missing], "sweep-k": ["--dpair", missing]}[stage]
    out = tmp_path / "out"
    code, err = _run_stderr(["--out", out, stage, "--problems-file", missing, *inputs,
                             flag, value], capsys)
    assert code == 2
    assert len(err) == 1 and err[0].startswith(f"error: validation: argument {flag}: ")
    assert not out.exists()


@pytest.mark.parametrize("stage", ["pairs", "explore", "gpair", "sweep-k", "metrics"])
def test_unknown_problem_is_exit_2(tmp_path, capsys, stage):
    base = chain(tmp_path / "run")
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


@pytest.mark.parametrize("stage", ["rft", "pairs", "explore", "gpair", "sweep-k", "metrics"])
def test_repeated_problem_id_is_exit_2(tmp_path, capsys, stage):
    """Problem 2 given problem 1's id: a record could be graded or explored
    against either problem, so every stage that reads the problems file
    refuses it."""
    base = chain(tmp_path / "run")
    path = base / "problems.jsonl"
    problems, header = read_dataset(path, KIND_D)
    problems[1] = dataclasses.replace(problems[1], id=problems[0].id)
    write_dataset(problems, header, path)
    for name, kind in (("dgen.jsonl", KIND_GEN), ("drft.jsonl", KIND_RFT),
                       ("samples.jsonl", KIND_GEN)):  # made from that file
        records, source = read_dataset(base / name, kind)
        write_dataset(records, dataclasses.replace(source, source_hash=""), base / name)
    out = tmp_path / "out"
    code, err = _run_stderr(["--out", out, stage, *_STAGE_ARGS[stage](base)], capsys)
    assert code == 2
    assert err == [f"error: validation: {path} repeats problem id {problems[0].id}"]
    assert not out.exists()


@pytest.mark.parametrize("stage", ["explore", "gpair", "sweep-k", "train"])
def test_granular_pair_in_a_d_pair_input_is_exit_2(tmp_path, capsys, stage):
    """A D_PAIR dataset holds outcome pairs; the first other pair is named by
    its record index."""
    base = chain(tmp_path / "run")
    outcome, header = read_dataset(base / "dpair.jsonl", KIND_PAIR)
    granular, _ = read_dataset(base / "dgpair.jsonl", KIND_GPAIR)
    bad = tmp_path / "bad.jsonl"
    write_dataset(outcome + granular, header, bad)
    flag = "--pairs-file" if stage == "train" else "--dpair"
    out = tmp_path / "out"
    code, err = _run_stderr(["--out", out, stage, *_STAGE_ARGS[stage](base), flag, bad],
                            capsys)
    assert code == 2
    assert err == [f"error: validation: {bad} record {len(outcome)} has granularity "
                   f"{granular[0].granularity}, but a D_PAIR dataset holds outcome pairs"]
    assert not out.exists()


@pytest.mark.parametrize("label", ["incorrect", "ungraded"])
def test_d_rft_record_not_labeled_correct_is_exit_2(tmp_path, capsys, label):
    """A D_RFT dataset holds correct rationales; pairing one that is not
    would make a chosen side that is not correct."""
    base = chain(tmp_path / "run")
    records, header = read_dataset(base / "drft.jsonl", KIND_RFT)
    records[1] = dataclasses.replace(
        records[1], rationale=dataclasses.replace(records[1].rationale, label=label))
    bad = tmp_path / "bad.jsonl"
    write_dataset(records, header, bad)
    out = tmp_path / "out"
    code, err = _run_stderr(["--out", out, "pairs", *_STAGE_ARGS["pairs"](base),
                             "--drft", bad], capsys)
    assert code == 2
    assert err == [f"error: validation: {bad} record 1 is labeled {label}, "
                   "but a D_RFT dataset holds correct rationales"]
    assert not out.exists()


@pytest.mark.parametrize("name,kind,blank", [
    ("dpair.jsonl", KIND_PAIR, lambda r: dataclasses.replace(r, input="")),
    ("dgpair.jsonl", KIND_GPAIR, lambda r: dataclasses.replace(
        r, rejected=dataclasses.replace(r.rejected, steps=(), label="ungraded"))),
    ("dgpair.jsonl", KIND_GPAIR, lambda r: dataclasses.replace(
        r, rejected=dataclasses.replace(r.rejected, steps=(" ", "\t")))),
], ids=["empty-input", "no-rejected-steps", "blank-rejected-steps"])
def test_train_pair_without_words_is_exit_2(tmp_path, capsys, name, kind, blank):
    """The policy scores words, so a pair whose input or rejected side has
    none cannot be trained on."""
    base = chain(tmp_path / "run")
    records, header = read_dataset(base / name, kind)
    records[1] = blank(records[1])
    bad = tmp_path / "bad.jsonl"
    write_dataset(records, header, bad)
    out = tmp_path / "out"
    code, err = _run_stderr(["--out", out, "train", "--pairs-file", bad], capsys)
    assert code == 2
    assert err == [f"error: validation: {bad} record 1 has no words in its input "
                   "or in its rejected steps"]
    assert not out.exists()


# a record field of the wrong JSON type: case -> (file, path to the field, value)
_MISSING = object()  # deletes the field

# case: (file, path to the field, its new value, the line's refusal); an
# empty path replaces the whole line
_MISTYPED = {
    "id-int": ("problems.jsonl", ["id"], 7, "id must be a string, not int"),
    "question-int": ("problems.jsonl", ["question"], 12345,
                     "question must be a string, not int"),
    "question-missing": ("problems.jsonl", ["question"], _MISSING, "question is missing"),
    "gold-answer-int": ("problems.jsonl", ["gold_answer"], 12,
                        "gold_answer must be a string, not int"),
    "style-int": ("problems.jsonl", ["style"], 1, "style must be a string, not int"),
    "steps-string": ("dgen.jsonl", ["steps"], "Start with 5.",
                     "steps must be a list of strings, not str"),
    "steps-missing": ("dgen.jsonl", ["steps"], _MISSING, "steps is missing"),
    "step-int": ("drft.jsonl", ["steps", 0], 12,
                 "steps must be a list of strings, but holds a int"),
    "conclusion-list": ("drft.jsonl", ["conclusion"], ["The answer is 12."],
                        "conclusion must be a string or null, not list"),
    "extracted-answer-int": ("dgen.jsonl", ["extracted_answer"], 12,
                             "extracted_answer must be a string or null, not int"),
    "producer-int": ("dgen.jsonl", ["producer"], 3, "producer must be a string, not int"),
    "label-list": ("drft.jsonl", ["label"], ["correct"], "label must be a string, not list"),
    "label-missing": ("drft.jsonl", ["label"], _MISSING, "label is missing"),
    "line-array": ("dgen.jsonl", [], ["id", "p0"],
                   "a dataset line must be a JSON object, not list"),
    "input-int": ("dpair.jsonl", ["input"], 3, "input must be a string, not int"),
    "rejected-step-int": ("dpair.jsonl", ["rejected", "steps", 0], 3,
                          "rejected.steps must be a list of strings, but holds a int"),
    "chosen-conclusion-list": ("dpair.jsonl", ["chosen", "conclusion"], ["x"],
                               "chosen.conclusion must be a string or null, not list"),
    "chosen-list": ("dpair.jsonl", ["chosen"], [], "chosen must be an object, not list"),
    "rejected-list": ("dpair.jsonl", ["rejected"], ["x"],
                      "rejected must be an object, not list"),
    "chosen-missing": ("dpair.jsonl", ["chosen"], _MISSING, "chosen is missing"),
    "rejected-label-bogus": ("dpair.jsonl", ["rejected", "label"], "bogus",
                             "rejected: unknown label: 'bogus'"),
    "chosen-step-empty": ("dpair.jsonl", ["chosen", "steps"], [""],
                          "chosen: steps must be non-empty lines"),
    "source-hash-int": ("dpair.jsonl", ["source_hash"], 5,
                        "bad header: source_hash must be a string, not int"),
    "pit-index-true": ("dgpair.jsonl", ["pit_index"], True,
                       "pit_index must be an integer or null, not bool"),
    "pit-index-float": ("dgpair.jsonl", ["pit_index"], 1.0,
                        "pit_index must be an integer or null, not float"),
    "granularity-int": ("dgpair.jsonl", ["granularity"], 2,
                        "granularity must be a string, not int"),
    "granularity-missing": ("dgpair.jsonl", ["granularity"], _MISSING,
                            "granularity is missing"),
}


@pytest.mark.parametrize("case,line", [
    ("body-not-json", 3),
    ("bad-header", 1),
    ("body-not-utf8", 22),
    ("id-int", 3),
    ("question-int", 6),
    ("question-missing", 2),
    ("gold-answer-int", 4),
    ("style-int", 3),
    ("steps-string", 9),
    ("steps-missing", 2),
    ("step-int", 2),
    ("conclusion-list", 3),
    ("extracted-answer-int", 4),
    ("producer-int", 5),
    ("label-list", 2),
    ("label-missing", 3),
    ("line-array", 4),
    ("input-int", 2),
    ("rejected-step-int", 3),
    ("chosen-conclusion-list", 2),
    ("chosen-list", 2),
    ("rejected-list", 3),
    ("chosen-missing", 2),
    ("rejected-label-bogus", 3),
    ("chosen-step-empty", 2),
    ("source-hash-int", 1),
    ("pit-index-true", 2),
    ("pit-index-float", 2),
    ("granularity-int", 3),
    ("granularity-missing", 2),
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
    elif case in _MISTYPED:
        name, path, value, _ = _MISTYPED[case]
        lines = (base / name).read_text().splitlines()
        record = holder = json.loads(lines[line - 1])
        for key in path[:-1]:
            holder = holder[key]
        if not path:
            record = value
        elif value is _MISSING:
            del holder[path[-1]]
        else:
            holder[path[-1]] = value
        lines[line - 1] = json.dumps(record)
        bad.write_text("\n".join(lines) + "\n")
        args = {"problems.jsonl": ["rft", "--problems-file", bad],
                "dgen.jsonl": ["pairs", *problems, "--dgen", bad,
                               "--drft", base / "drft.jsonl"],
                "drft.jsonl": ["pairs", *problems, "--dgen", base / "dgen.jsonl",
                               "--drft", bad],
                "dpair.jsonl": ["explore", *problems, "--dpair", bad],
                "dgpair.jsonl": ["train", "--pairs-file", bad]}[name]
    else:
        # two bytes that are not UTF-8 after the header and 20 sample lines
        bad.write_bytes((base / "samples.jsonl").read_bytes() + b"\xff\xfe")
        args = ["metrics", *problems, "--dgen", bad]
    out = tmp_path / "out"
    code, err = _run_stderr(["--out", out, *args], capsys)
    assert code == 2
    assert len(err) == 1 and err[0].startswith(f"error: validation: {bad}: line {line}: ")
    if case in _MISTYPED:
        assert err[0] == f"error: validation: {bad}: line {line}: {_MISTYPED[case][3]}"
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
        assert (by_http / name).read_bytes() == (by_synth / name).read_bytes(), name
    assert read_dataset(by_http / "dgpair.jsonl", KIND_GPAIR)[0]
    assert read_dataset(by_http / "dgen.jsonl", KIND_GEN)[0]
    config = json.loads((by_http / "rft_manifest.json").read_text())["config"]
    assert config["endpoint"] == server.url
    assert config["model"] == "m"
    assert config["max_in_flight"] == ProviderHandle.max_in_flight  # the default
    assert config["epsilon"] is None
    config = json.loads((by_synth / "rft_manifest.json").read_text())["config"]
    assert config["endpoint"] is None
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


def test_cli_import_defers_http_stack_and_thread_pool():
    """Only an HTTP provider needs them; every synthetic stage start-up pays
    for what `import steppref.cli` loads."""
    deferred = {"urllib.request", "http.client", "email.parser", "ssl",
                "concurrent.futures", "statistics"}
    assert _loaded_by_fresh_import("steppref.cli", deferred) == []


def test_corpus_import_loads_no_numpy_or_trainer():
    assert _loaded_by_fresh_import("steppref.corpus", {"numpy", "steppref.preflearn"}) == []


def test_test_references_import_only_corpus():
    """The test oracles and fixtures import nothing from the package but its
    record types, so a package change cannot move the references that check it."""
    bad = []
    for path in (Path(__file__).with_name(n) for n in ("oracles.py", "conftest.py")):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                mods = [f"steppref.{a.name}" if node.module == "steppref" else node.module
                        for a in node.names]
            else:
                continue
            bad += [f"{path.name}:{node.lineno}: {m}" for m in mods
                    if m.split(".")[0] == "steppref" and m != "steppref.corpus"]
    assert bad == []


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


def _config_defaults(stage: str) -> dict:
    """Each config-backed flag of `stage` and the default its config class holds."""
    synth, sampling, explore = SynthConfig(), SamplingConfig(), ExploreConfig()
    provider = {"epsilon": synth.epsilon, "max_in_flight": None}  # synthetic runs
    return {
        "synth": {"t": synth.t, "epsilon": synth.epsilon, "value_range": synth.value_range},
        "rft": {"n": sampling.n, "temperature": sampling.temperature, **provider},
        "pairs": {"max_pairs": PairingConfig().max_pairs_per_problem},
        "explore": {"k": explore.k, "temperature": explore.temperature, **provider},
        "gpair": {"k": explore.k, "temperature": explore.temperature, **provider},
        "sweep-k": {"temperature": explore.temperature, **provider},
        "train": dataclasses.asdict(ObjectiveConfig()),
        "metrics": {},
    }[stage]


@pytest.mark.parametrize("stage", [s.name for s in cli._STAGE_DECLS])
def test_manifest_config_is_every_flag(tmp_path, stage):
    """A run given only its inputs records every flag, and each config-backed
    flag at its config class's default, so a default cannot drift from it.
    Only a stage that draws randomness records --seed."""
    base = chain(tmp_path / "run")
    out = tmp_path / "out"
    (decl,) = [s for s in cli._STAGE_DECLS if s.name == stage]
    inputs = {i.dest for i in decl.inputs}
    args = _STAGE_ARGS[stage](base)
    given = [a for flag, value in zip(args[::2], args[1::2]) if cli._dest(flag) in inputs
             for a in (flag, value)]
    if stage == "synth":
        given += ["--samples", 1]  # without samples, synth reads no --epsilon
    assert run(["--seed", 3, "--out", out, stage, *given]) == 0
    flags = set(map(cli._dest, decl.flags))
    config = json.loads((out / f"{stage}_manifest.json").read_text())["config"]
    assert set(config) == {"stage", "seed"} | flags
    seed = None if stage in ("pairs", "train", "metrics") else 3
    assert (config["stage"], config["seed"]) == (stage, seed)
    defaults = json.loads(json.dumps(_config_defaults(stage)))  # tuples as lists
    assert {dest: config[dest] for dest in defaults} == defaults


def _files(out: Path) -> dict[str, Any]:
    """Each file in `out`: its bytes, or a manifest's JSON without `versions`."""
    files = {}
    for path in sorted(out.iterdir()):
        files[path.name] = path.read_bytes()
        if path.name.endswith("_manifest.json"):
            files[path.name] = json.loads(files[path.name])
            del files[path.name]["versions"]
    return files


@pytest.mark.parametrize("stage,flag,values,changed", [
    ("pairs", "--seed", (1, 2), set()),
    ("train", "--seed", (1, 2), set()),
    ("metrics", "--seed", (1, 2), set()),
    ("rft", "--seed", (1, 2), {"dgen.jsonl", "drft.jsonl", "rft_skips.jsonl",
                               "rft_manifest.json"}),
    ("synth", "--samples", (1, 2), {"samples.jsonl", "synth_manifest.json"}),
], ids=["pairs", "train", "metrics", "rft", "synth-samples"])
def test_a_setting_is_recorded_only_where_read(tmp_path, stage, flag, values, changed):
    """Two runs that differ only in a setting the stage does not read write
    the same bytes; a stage that reads it records it."""
    base = chain(tmp_path / "run")
    runs = []
    for value in values:
        out = tmp_path / f"{flag}{value}"
        top, rest = (["--seed", value], []) if flag == "--seed" else ([], [flag, value])
        assert run([*top, "--out", out, stage, *_STAGE_ARGS[stage](base), *rest]) == 0
        runs.append(_files(out))
    a, b = runs
    assert a.keys() == b.keys()
    assert {name for name in a if a[name] != b[name]} == changed


def test_gpair_manifest_records_epsilon(tmp_path):
    base = chain(tmp_path / "run")
    heads = []
    for eps in (0.05, 0.6):
        out = tmp_path / f"eps{eps}"
        assert run(["--seed", 3, "--out", out, "gpair", "--problems-file",
                    base / "problems.jsonl", "--dpair", base / "dpair.jsonl",
                    "--k", 2, "--epsilon", eps]) == 0
        config = json.loads((out / "gpair_manifest.json").read_text())["config"]
        assert config["epsilon"] == eps
        heads.append((out / "dgpair.jsonl").read_text().splitlines()[0])
    assert heads[0] == heads[1]  # a header holds no settings


def test_gpair_and_sweep_k_write_the_same_dataset(tmp_path):
    """A granular dataset at k is the same file whichever stage explored it."""
    base = chain(tmp_path / "run", seed=0, problems=8, t=4)
    inputs = ["--problems-file", base / "problems.jsonl", "--dpair", base / "dpair.jsonl",
              "--epsilon", 0.2]
    assert run(["--seed", 0, "--out", tmp_path / "g", "gpair", *inputs, "--k", 4]) == 0
    assert run(["--seed", 0, "--out", tmp_path / "s", "sweep-k", *inputs,
                "--ks", "2,4"]) == 0
    data = (tmp_path / "g" / "dgpair.jsonl").read_bytes()
    assert data == (tmp_path / "s" / "dgpair_k4.jsonl").read_bytes()
    records, _ = read_dataset(tmp_path / "g" / "dgpair.jsonl", KIND_GPAIR)
    assert any(r.pit_index > 1 for r in records)  # a rescued prefix, not only step 1


@pytest.mark.parametrize("argv,stage", [
    (["--help"], None),
    (["-h"], None),
    (["--out", "o", "--help"], None),
    (["-h", "1", "rft"], None),
    (["rft", "--help"], "rft"),
    (["--seed=2", "sweep-k", "-h"], "sweep-k"),
])
def test_help_is_the_full_parsers(capsys, argv, stage):
    parser = cli.build_parser()
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 0
    if stage is not None:  # the subcommand's own parser
        (stages,) = [a.choices for a in parser._actions if isinstance(a.choices, dict)]
        parser = stages[stage]
    assert capsys.readouterr().out == parser.format_help()


@pytest.mark.parametrize("argv,named", [
    (["--he"], "--he"),
    (["--se", "5", "synth"], "--se"),
    (["sweep-k", "--problems-file", "p.jsonl", "--dpair", "d.jsonl", "--k", "4"], "--k 4"),
    (["train", "--pairs-file", "p.jsonl", "--alpha", "64"], "--alpha 64"),
])
def test_a_prefix_of_a_flag_is_refused(tmp_path, monkeypatch, capsys, argv, named):
    """A flag is spelled in full. Prefix matching read these as --help,
    --seed 5, --ks 4 and --alphabet 64."""
    monkeypatch.chdir(tmp_path)  # the inputs named are missing
    out = tmp_path / "out"
    code, err = _run_stderr(["--out", out, *argv], capsys)
    assert (code, err) == (2, [f"error: validation: unrecognized arguments: {named}"])
    assert not out.exists()


def _truncated_flags():
    """(stage, spelling) for each long flag of at least four characters less
    its last character, where that is not itself a flag of the same parser;
    stage None is the top-level parser."""
    top = cli.build_parser()
    (stages,) = [a.choices for a in top._actions if isinstance(a.choices, dict)]
    for stage, parser in [(None, top), *stages.items()]:
        flags = parser._option_string_actions
        for flag in flags:
            if flag.startswith("--") and len(flag) >= 4 and flag[:-1] not in flags:
                yield stage, flag[:-1]


@pytest.mark.parametrize("stage,spelling", list(_truncated_flags()))
def test_every_flag_less_its_last_character_is_refused(tmp_path, monkeypatch, capsys, stage,
                                                       spelling):
    """Given the stage's required inputs, which argparse would report missing
    first, the cut flag is named as an unrecognized argument. Its value, 5,
    reads as a count, a number or a path under tmp_path."""
    monkeypatch.chdir(tmp_path)
    out, value = tmp_path / "out", "5"
    if stage is None:
        argv, named = [spelling, value, "synth"], spelling
    else:
        missing = tmp_path / "missing.jsonl"
        (decl,) = [s for s in cli._STAGE_DECLS if s.name == stage]
        inputs = [a for i in decl.inputs for a in ("--" + i.dest.replace("_", "-"), missing)]
        argv, named = [stage, *inputs, spelling, value], f"{spelling} {value}"
    code, err = _run_stderr(["--out", out, *argv], capsys)
    assert (code, err) == (2, [f"error: validation: unrecognized arguments: {named}"])
    assert not out.exists()


def test_manifest_records_the_numpy_dispatch_level(tmp_path):
    """`versions` lists the SIMD dispatch targets numpy enabled in the process
    that ran the stage, here and in a process with AVX512 dispatch turned off."""
    import numpy._core._multiarray_umath as umath
    enabled = [n for n in umath.__cpu_dispatch__ if umath.__cpu_features__[n]]
    off = [n for n in umath.__cpu_dispatch__ if n == "X86_V4" or n.startswith("AVX512")]
    src = str(Path(steppref.__file__).resolve().parent.parent)
    for env, want in (({}, enabled), ({"NPY_DISABLE_CPU_FEATURES": " ".join(off)},
                                      [n for n in enabled if n not in off])):
        out = tmp_path / f"run{len(env)}"
        subprocess.run([sys.executable, "-m", "steppref", "--out", str(out), "synth",
                        "--problems", "1"], env={**os.environ, "PYTHONPATH": src, **env},
                       timeout=60, check=True)
        versions = json.loads((out / "synth_manifest.json").read_text())["versions"]
        assert versions["numpy_dispatch"] == want


@pytest.mark.parametrize("argv", [["nosuch"], ["--out", "o", "nosuch", "--k", "2"], []])
def test_bad_stage_name_error_is_the_full_parsers(capsys, argv):
    with pytest.raises(cli.ValidationFailure) as want:
        cli.build_parser().parse_args(argv)
    code, err = _run_stderr(argv, capsys)
    assert (code, err) == (2, [f"error: validation: {want.value}"])
    if argv:
        assert all(s.name in err[0] for s in cli._STAGE_DECLS)


def test_one_parser_per_process(tmp_path):
    """Importing the CLI builds no parser; the first `main` call builds one
    and every later call reuses it."""
    src = str(Path(steppref.__file__).resolve().parent.parent)
    outs = [str(tmp_path / name) for name in ("a", "b")]
    proc = subprocess.run(
        [sys.executable, "-c", "import json; from steppref import cli; "
         "built = [cli.build_parser.cache_info().misses]; "
         f"built += [(cli.main(['--out', out, 'synth', '--problems', '1']), "
         f"cli.build_parser.cache_info().misses) for out in {outs!r}]; "
         "print(json.dumps(built))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=60, check=True)
    assert json.loads(proc.stdout) == [0, [0, 1], [0, 1]]
    assert cli.build_parser() is cli.build_parser()
