import dataclasses
import json

import pytest

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


def test_train_and_metrics(tmp_path):
    base = chain(tmp_path / "run")
    assert run(["--seed", 3, "--out", base, "train",
                "--pairs-file", base / "dgpair.jsonl", "--epochs", 4,
                "--alphabet", 64, "--order", 1]) == 0
    lines = (base / "train_history.tsv").read_text().splitlines()
    assert lines[0] == "epoch\tloss\treward_accuracy"
    assert len(lines) == 5
    meta = json.loads((base / "policy_meta.json").read_text())
    assert meta["objective"] == "dpo"
    assert (base / "policy.npy").exists()

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
], ids=["flag-type", "config-type", "config-unknown-key", "n-0", "ipo-no-tau",
        "one-kto-weight", "ks-0"])
def test_bad_value_is_one_line_exit_2(tmp_path, capsys, stage_args, config):
    base = chain(tmp_path / "run")
    out = tmp_path / "out"
    inputs = {"rft": ["--problems-file", base / "problems.jsonl"],
              "train": ["--pairs-file", base / "dgpair.jsonl"],
              "sweep-k": ["--problems-file", base / "problems.jsonl",
                          "--dpair", base / "dpair.jsonl"]}[stage_args[0]]
    top = ["--out", out]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        top += ["--config", cfg]
    code, err = _run_stderr([*top, *stage_args, *inputs], capsys)
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: validation:")
    assert not out.exists() or not any(out.iterdir())


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
    assert not any(out.iterdir())


_GOOD_ROW = json.dumps({"id": "synth-00000", "embeddings": [[0.0], [1.0]]})


@pytest.mark.parametrize("case,line", [
    ("body-not-json", 3),
    ("bad-header", 1),
    ("rows-not-json", 2),
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
    else:
        row = {"rows-not-json": "{not json",
               "row-not-object": "[1, 2]",
               "row-without-id": json.dumps({"embeddings": [[0.0], [1.0]]}),
               "ragged-embeddings": json.dumps({"id": "synth-00000",
                                                "embeddings": [[0.0], [1.0, 2.0]]}),
               "one-embedding": json.dumps({"id": "synth-00000", "embeddings": [[0.0]]}),
               "non-finite-embedding": '{"id": "synth-00000", "embeddings": [[0.0], [NaN]]}',
               }[case]
        bad.write_text(_GOOD_ROW + "\n" + row + "\n")
        args = ["metrics", *problems, "--dgen", base / "samples.jsonl", "--embeddings", bad]
    out = tmp_path / "out"
    code, err = _run_stderr(["--out", out, *args], capsys)
    assert code == 2
    assert len(err) == 1 and err[0].startswith(f"error: validation: {bad}: line {line}: ")
    assert not any(out.iterdir())


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
    assert not any(out.iterdir())
    # the regenerated samples match; an empty hash is an unknown upstream
    assert run(["--out", out, "metrics", *problems, "--dgen", base / "samples.jsonl"]) == 0
    for name, kind in (("dgen.jsonl", KIND_GEN), ("drft.jsonl", KIND_RFT)):
        records, header = read_dataset(base / name, kind)
        write_dataset(records, dataclasses.replace(header, source_hash=""), base / name)
    assert run(["--out", out, "pairs", *problems, "--dgen", base / "dgen.jsonl",
                "--drft", base / "drft.jsonl"]) == 0
