"""Stage-per-subcommand command line.

Each subcommand realizes one pipeline stage and writes exactly its declared
artifacts plus a `<stage>_manifest.json` (config fingerprint, input hashes,
seed, versions) into --out. With the synthetic provider every stage is a
pure function of (config, seed): rerunning a stage with identical inputs
produces byte-identical files.

Exit codes: 0 ok, 2 validation failure (single machine-parseable stderr
line, nothing written), 1 stage failure (partial outputs are removed).

--config takes a JSON object whose keys are flag destinations (e.g.
{"n": 8, "temperature": 0.7}); explicit flags override config values,
config values override built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from io import BytesIO
from pathlib import Path

import numpy as np

from . import __version__, evalmetrics, pipeline, preflearn, synthworld
from .corpus import (
    KIND_D,
    KIND_GEN,
    KIND_GPAIR,
    KIND_PAIR,
    KIND_RFT,
    DatasetHeader,
    PairRecord,
    Problem,
    RationaleRecord,
    file_sha256,
    read_dataset,
    write_atomic,
    write_dataset,
)
from .genclient import ProviderHandle, SamplingConfig
from .pipeline import ExploreConfig, PairingConfig, VARIANTS
from .synthworld import SynthConfig


class ValidationFailure(Exception):
    pass


class _StageIO:
    """Writes each output atomically and tracks it, so a failing stage can
    remove the outputs it already wrote."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.written: list[Path] = []

    def path(self, name: str) -> Path:
        return self.out_dir / name

    def register(self, name: str) -> Path:
        p = self.path(name)
        self.written.append(p)
        return p

    def write_bytes(self, name: str, data: bytes) -> None:
        write_atomic(self.register(name), data)

    def write_text(self, name: str, text: str) -> None:
        self.write_bytes(name, text.encode("utf-8"))

    def write_json(self, name: str, obj: dict) -> None:
        self.write_text(
            name, json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
        )

    def write_dataset(self, name: str, records: list, header: DatasetHeader) -> None:
        write_dataset(records, header, self.register(name))

    def write_jsonl(self, name: str, rows: list[dict]) -> None:
        lines = [
            json.dumps(r, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
            for r in rows
        ]
        self.write_text(name, "".join(ln + "\n" for ln in lines))

    def cleanup(self) -> None:
        for p in self.written:
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass


def _require_inputs(*paths: str) -> list[Path]:
    out = []
    for p in paths:
        path = Path(p)
        if not path.is_file():
            raise ValidationFailure(f"input file not found: {p}")
        out.append(path)
    return out


def _manifest(io: _StageIO, stage: str, seed: int, config: dict,
              inputs: list[Path]) -> None:
    io.write_json(
        f"{stage}_manifest.json",
        {
            "stage": stage,
            "seed": seed,
            "config": config,
            "inputs": {str(p): file_sha256(p) for p in inputs},
            "outputs": [p.name for p in io.written],
            "versions": {
                "steppref": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
        },
    )


def _parse_value_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise ValidationFailure(f"bad value range {text!r}, expected LO:HI") from None


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in str(text).split(",") if x != ""]
    except ValueError:
        raise ValidationFailure(f"bad integer list {text!r}") from None


def _provider(args: argparse.Namespace) -> ProviderHandle:
    if args.provider == "http":
        if not args.endpoint:
            raise ValidationFailure("http provider requires --endpoint")
        return ProviderHandle.http(args.endpoint, args.model,
                                   max_in_flight=int(args.max_in_flight))
    synth = SynthConfig(t=1, epsilon=float(args.epsilon), seed=int(args.seed))
    return ProviderHandle.synthetic(synth, max_in_flight=int(args.max_in_flight))


def _sniff_kind(path: Path, allowed: tuple[str, ...]) -> str:
    with path.open("r", encoding="utf-8") as f:
        first = f.readline()
    try:
        kind = json.loads(first)["kind"]
    except Exception:
        raise ValidationFailure(f"{path} has no parseable header") from None
    if kind not in allowed:
        raise ValidationFailure(
            f"{path} holds kind {kind}, expected one of {', '.join(allowed)}"
        )
    return kind


# ---------------------------------------------------------------------------
# stages


def _run_synth(args: argparse.Namespace, io: _StageIO) -> None:
    value_range = _parse_value_range(args.value_range)
    cfg = SynthConfig(t=int(args.t), epsilon=float(args.epsilon),
                      value_range=value_range, seed=int(args.seed))
    problems = [synthworld.gen_problem(cfg, i) for i in range(int(args.problems))]
    fingerprint = {
        "stage": "synth",
        "problems": int(args.problems),
        "t": cfg.t,
        "epsilon": cfg.epsilon,
        "value_range": list(value_range),
        "seed": cfg.seed,
        "samples": int(args.samples),
    }
    io.write_dataset("problems.jsonl", problems,
                     DatasetHeader(KIND_D, fingerprint))
    if int(args.samples) > 0:
        records = []
        for p in problems:
            for j in range(int(args.samples)):
                trace = synthworld.simulate_solution(p, cfg, draw_seed=j)
                records.append(RationaleRecord(p.id, trace.rationale))
        io.write_dataset(
            "samples.jsonl",
            records,
            DatasetHeader(KIND_GEN, fingerprint,
                          source_hash=file_sha256(io.path("problems.jsonl"))),
        )
    _manifest(io, "synth", int(args.seed), fingerprint, [])


def _run_rft(args: argparse.Namespace, io: _StageIO) -> None:
    (problems_path,) = _require_inputs(args.problems_file)
    provider = _provider(args)
    problems, _ = read_dataset(problems_path, KIND_D)
    sampling = SamplingConfig(n=int(args.n), temperature=float(args.temperature),
                              seed=int(args.seed))
    build = pipeline.build_rft(problems, provider, sampling)
    fingerprint = {
        "stage": "rft",
        "n": sampling.n,
        "temperature": sampling.temperature,
        "seed": int(args.seed),
        "provider": args.provider,
        "epsilon": float(args.epsilon) if args.provider == "synthetic" else None,
    }
    src = file_sha256(problems_path)
    io.write_dataset("dgen.jsonl", build.gen,
                     DatasetHeader(KIND_GEN, fingerprint, src))
    io.write_dataset("drft.jsonl", build.rft,
                     DatasetHeader(KIND_RFT, fingerprint, src))
    io.write_jsonl(
        "rft_skips.jsonl",
        [{"id": s.problem_id, "reason": s.reason} for s in build.skipped],
    )
    _manifest(io, "rft", int(args.seed), fingerprint, [problems_path])


def _run_pairs(args: argparse.Namespace, io: _StageIO) -> None:
    problems_path, dgen_path, drft_path = _require_inputs(
        args.problems_file, args.dgen, args.drft
    )
    problems, _ = read_dataset(problems_path, KIND_D)
    d_gen, _ = read_dataset(dgen_path, KIND_GEN)
    d_rft, _ = read_dataset(drft_path, KIND_RFT)
    cfg = PairingConfig(max_pairs_per_problem=int(args.max_pairs))
    pairs = pipeline.build_pairs(problems, d_rft, d_gen, cfg)
    fingerprint = {
        "stage": "pairs",
        "max_pairs": cfg.max_pairs_per_problem,
        "seed": int(args.seed),
    }
    io.write_dataset("dpair.jsonl", pairs,
                     DatasetHeader(KIND_PAIR, fingerprint, file_sha256(drft_path)))
    _manifest(io, "pairs", int(args.seed), fingerprint,
              [problems_path, dgen_path, drft_path])


def _explore_inputs(args: argparse.Namespace):
    problems_path, dpair_path = _require_inputs(args.problems_file, args.dpair)
    problems, _ = read_dataset(problems_path, KIND_D)
    d_pair, _ = read_dataset(dpair_path, KIND_PAIR)
    return problems_path, dpair_path, problems, d_pair


def _run_explore(args: argparse.Namespace, io: _StageIO) -> None:
    problems_path, dpair_path, problems, d_pair = _explore_inputs(args)
    provider = _provider(args)
    cfg = ExploreConfig(k=int(args.k), temperature=float(args.temperature),
                        seed=int(args.seed))
    by_id = {p.id: p for p in problems}
    for record in d_pair:
        if record.problem_id not in by_id:
            raise ValidationFailure(
                f"pair record references unknown problem {record.problem_id}"
            )
    explored = pipeline.explore_all(problems, d_pair, provider, cfg.k,
                                    cfg.temperature, cfg.seed)
    rows = []
    for idx, (record, found) in enumerate(zip(d_pair, explored)):
        row = {"id": record.problem_id, "record_index": idx}
        if found is None:
            row.update(error="empty-rejected", partial=[])
        elif isinstance(found, pipeline.ExplorationError):
            row.update(error=str(found), partial=found.partial)
        else:
            pit = pipeline.read_pit(found, cfg.k, len(record.rejected.steps),
                                    by_id[record.problem_id], cfg.seed)
            row.update(pit_index=pit.pit_index,
                       per_step_success=[list(t) for t in pit.per_step_success],
                       rescue_present=pit.rescue is not None)
        rows.append(row)
    fingerprint = {"stage": "explore", "k": cfg.k, "temperature": cfg.temperature,
                   "seed": cfg.seed}
    io.write_jsonl("pits.jsonl", rows)
    _manifest(io, "explore", int(args.seed), fingerprint,
              [problems_path, dpair_path])


def _run_gpair(args: argparse.Namespace, io: _StageIO) -> None:
    problems_path, dpair_path, problems, d_pair = _explore_inputs(args)
    if args.variant not in VARIANTS:
        raise ValidationFailure(f"unknown variant {args.variant!r}")
    provider = _provider(args)
    cfg = ExploreConfig(k=int(args.k), temperature=float(args.temperature),
                        seed=int(args.seed))
    build = pipeline.build_granular_pairs(problems, d_pair, provider, cfg,
                                          variant=args.variant)
    fingerprint = {
        "stage": "gpair",
        "k": cfg.k,
        "temperature": cfg.temperature,
        "variant": args.variant,
        "seed": cfg.seed,
    }
    io.write_dataset("dgpair.jsonl", build.records,
                     DatasetHeader(KIND_GPAIR, fingerprint, file_sha256(dpair_path)))
    io.write_jsonl(
        "gpair_dropped.jsonl",
        [
            {"id": d.problem_id, "record_index": d.record_index, "reason": d.reason}
            for d in build.dropped + build.failures
        ],
    )
    _manifest(io, "gpair", int(args.seed), fingerprint, [problems_path, dpair_path])


def _run_sweep_k(args: argparse.Namespace, io: _StageIO) -> None:
    problems_path, dpair_path, problems, d_pair = _explore_inputs(args)
    ks = _parse_int_list(args.ks)
    if not ks:
        raise ValidationFailure("--ks must name at least one exploration size")
    provider = _provider(args)
    cfg = ExploreConfig(k=max(ks), temperature=float(args.temperature),
                        nested_sampling=True, seed=int(args.seed))
    entries = pipeline.sweep_exploration_size(problems, d_pair, provider, ks, cfg)
    fingerprint = {"stage": "sweep-k", "ks": ks, "temperature": cfg.temperature,
                   "seed": cfg.seed}
    summary = ["k\trecords\tmean_pit_index"]
    src = file_sha256(dpair_path)
    for entry in entries:
        io.write_dataset(
            f"dgpair_k{entry.k}.jsonl",
            entry.build.records,
            DatasetHeader(KIND_GPAIR, {**fingerprint, "k": entry.k}, src),
        )
        mean = "" if entry.mean_pit_index is None else f"{entry.mean_pit_index:.12g}"
        summary.append(f"{entry.k}\t{len(entry.build.records)}\t{mean}")
    io.write_text("sweep_summary.tsv", "\n".join(summary) + "\n")
    _manifest(io, "sweep-k", int(args.seed), fingerprint,
              [problems_path, dpair_path])


def _run_train(args: argparse.Namespace, io: _StageIO) -> None:
    (pairs_path,) = _require_inputs(args.pairs_file)
    kind = _sniff_kind(pairs_path, (KIND_PAIR, KIND_GPAIR))
    records, _ = read_dataset(pairs_path, kind)
    if not records:
        raise ValidationFailure(f"{pairs_path} holds no pair records")
    alphabet = int(args.alphabet)
    order = int(args.order)
    pairs, _vocab = preflearn.tokenize_pair_records(records, alphabet)
    # Reference = count-based fit to the chosen sequences, standing in for a
    # one-epoch SFT warm start.
    ref = preflearn.fit_mle([(p.x, p.y_plus) for p in pairs], alphabet, order,
                            smoothing=float(args.smoothing))
    cfg = preflearn.ObjectiveConfig(
        objective=args.objective,
        beta=float(args.beta),
        tau=float(args.tau) if args.tau is not None else None,
        kto_weights=tuple(float(x) for x in str(args.kto_weights).split(",")),
    )
    policy, history = preflearn.train(
        ref.copy(), ref, pairs, cfg, epochs=int(args.epochs), lr=float(args.lr),
        seed=int(args.seed),
    )
    lines = ["epoch\tloss\treward_accuracy"]
    lines += [f"{e}\t{l:.12g}\t{r:.12g}" for e, l, r in history]
    io.write_text("train_history.tsv", "\n".join(lines) + "\n")
    buf = BytesIO()
    np.save(buf, policy.logits)
    io.write_bytes("policy.npy", buf.getvalue())
    io.write_json(
        "policy_meta.json",
        {
            "alphabet_size": alphabet,
            "order": order,
            "objective": cfg.objective,
            "beta": cfg.beta,
            "tau": cfg.tau,
            "kto_weights": list(cfg.kto_weights),
            "epochs": int(args.epochs),
            "lr": float(args.lr),
            "pairs_kind": kind,
        },
    )
    fingerprint = {"stage": "train", "objective": cfg.objective,
                   "epochs": int(args.epochs), "lr": float(args.lr),
                   "alphabet": alphabet, "order": order, "seed": int(args.seed)}
    _manifest(io, "train", int(args.seed), fingerprint, [pairs_path])


def _run_metrics(args: argparse.Namespace, io: _StageIO) -> None:
    problems_path, gen_path = _require_inputs(args.problems_file, args.dgen)
    kind = _sniff_kind(gen_path, (KIND_GEN, KIND_RFT))
    problems, _ = read_dataset(problems_path, KIND_D)
    records, _ = read_dataset(gen_path, kind)
    ks = _parse_int_list(args.k)
    if not ks:
        raise ValidationFailure("--k must name at least one cutoff")
    by_id = {p.id: p for p in problems}
    grouped: dict[str, list[str]] = {}
    for rec in records:
        if rec.problem_id not in by_id:
            raise ValidationFailure(
                f"rationale references unknown problem {rec.problem_id}"
            )
        grouped.setdefault(rec.problem_id, []).append(
            rec.rationale.extracted_answer or ""
        )
    sets = [
        evalmetrics.SampleSet(p.id, p.gold_answer, tuple(grouped[p.id]))
        for p in problems
        if p.id in grouped
    ]
    if not sets:
        raise ValidationFailure("no prediction sets to score")
    min_len = min(len(s.predictions) for s in sets)
    for k in ks:
        if k < 1 or k > min_len:
            raise ValidationFailure(
                f"k={k} out of range: smallest prediction set has {min_len}"
            )
    lines = [f"top1\t1\t{evalmetrics.top1_accuracy(sets):.12g}"]
    for k in ks:
        lines.append(f"pass_at_k\t{k}\t{evalmetrics.pass_at_k(sets, k):.12g}")
        lines.append(f"maj_at_k\t{k}\t{evalmetrics.maj_at_k(sets, k):.12g}")
        stats = evalmetrics.answer_stats(sets, k)
        uniq = sum(u for u, _ in stats) / len(stats)
        dom = sum(d for _, d in stats) / len(stats)
        lines.append(f"mean_unique_count\t{k}\t{uniq:.12g}")
        lines.append(f"mean_dominant_share\t{k}\t{dom:.12g}")
    inputs = [problems_path, gen_path]
    if args.embeddings:
        (emb_path,) = _require_inputs(args.embeddings)
        inputs.append(emb_path)
        values = []
        with emb_path.open("r", encoding="utf-8") as f:
            for line in f:
                if not line.strip():
                    continue
                row = json.loads(line)
                d = evalmetrics.DiversityInput(row["id"], np.asarray(row["embeddings"]))
                values.append(evalmetrics.diversity(d))
        if values:
            lines.append(f"diversity_mean\t-\t{sum(values) / len(values):.12g}")
    io.write_text("metrics.tsv", "\n".join(lines) + "\n")
    fingerprint = {"stage": "metrics", "k": ks, "seed": int(args.seed)}
    _manifest(io, "metrics", int(args.seed), fingerprint, inputs)


_STAGES = {
    "synth": _run_synth,
    "rft": _run_rft,
    "pairs": _run_pairs,
    "explore": _run_explore,
    "gpair": _run_gpair,
    "sweep-k": _run_sweep_k,
    "train": _run_train,
    "metrics": _run_metrics,
}


def _add_provider_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--provider", choices=["synthetic", "http"], default="synthetic")
    p.add_argument("--endpoint", default=None, help="completions endpoint URL")
    p.add_argument("--model", default=None, help="model name sent to the endpoint")
    p.add_argument("--max-in-flight", type=int, default=4, dest="max_in_flight")
    p.add_argument("--epsilon", type=float, default=0.2,
                   help="per-step error rate of the synthetic provider")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="steppref",
        description="Step-level preference data pipeline",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", default=None,
                        help="JSON file of flag defaults")
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="stage", required=True)
    stage_parsers: dict[str, argparse.ArgumentParser] = {}

    def add_stage(name: str, helptext: str) -> argparse.ArgumentParser:
        stage_parsers[name] = sub.add_parser(name, help=helptext)
        return stage_parsers[name]

    p = add_stage("synth", "generate synthetic problems")
    p.add_argument("--problems", type=int, default=20)
    p.add_argument("--t", type=int, default=5)
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--value-range", default="2:9", dest="value_range")
    p.add_argument("--samples", type=int, default=0,
                   help="also emit this many sampled solutions per problem")

    p = add_stage("rft", "sample, grade and dedup rationales")
    p.add_argument("--problems-file", required=True, dest="problems_file")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--temperature", type=float, default=0.7)
    _add_provider_flags(p)

    p = add_stage("pairs", "build outcome preference pairs")
    p.add_argument("--problems-file", required=True, dest="problems_file")
    p.add_argument("--dgen", required=True)
    p.add_argument("--drft", required=True)
    p.add_argument("--max-pairs", type=int, default=8, dest="max_pairs")

    for name, helptext in (("explore", "locate first pits (report only)"),
                           ("gpair", "build granular preference pairs")):
        p = add_stage(name, helptext)
        p.add_argument("--problems-file", required=True, dest="problems_file")
        p.add_argument("--dpair", required=True)
        p.add_argument("--k", type=int, default=4)
        p.add_argument("--temperature", type=float, default=0.7)
        _add_provider_flags(p)
        if name == "gpair":
            p.add_argument("--variant", choices=list(VARIANTS), default="full")

    p = add_stage("sweep-k", "exploration-size sweep (nested)")
    p.add_argument("--problems-file", required=True, dest="problems_file")
    p.add_argument("--dpair", required=True)
    p.add_argument("--ks", default="4,8,16,32")
    p.add_argument("--temperature", type=float, default=0.7)
    _add_provider_flags(p)

    p = add_stage("train", "train the toy policy on a pair dataset")
    p.add_argument("--pairs-file", required=True, dest="pairs_file")
    p.add_argument("--objective", choices=["dpo", "ipo", "kto"], default="dpo")
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--kto-weights", default="1.0,1.0", dest="kto_weights")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--alphabet", type=int, default=32)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--smoothing", type=float, default=0.5)

    p = add_stage("metrics", "score prediction sets")
    p.add_argument("--problems-file", required=True, dest="problems_file")
    p.add_argument("--dgen", required=True)
    p.add_argument("--k", default="1")
    p.add_argument("--embeddings", default=None,
                   help="JSONL of {id, embeddings} for the diversity metric")

    return parser, stage_parsers


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, stage_parsers = build_parser()

    cfg_path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            cfg_path = argv[i + 1]
        elif tok.startswith("--config="):
            cfg_path = tok.split("=", 1)[1]
    if cfg_path:
        try:
            defaults = json.loads(Path(cfg_path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:
            print(f"error: validation: bad config file: {e}", file=sys.stderr)
            return 2
        if not isinstance(defaults, dict):
            print("error: validation: config file must hold a JSON object",
                  file=sys.stderr)
            return 2
        # subparsers re-parse into a fresh namespace, so config-supplied
        # defaults must be installed on every stage parser as well
        parser.set_defaults(**defaults)
        for stage_parser in stage_parsers.values():
            stage_parser.set_defaults(**defaults)

    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    io = _StageIO(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _STAGES[args.stage](args, io)
        return 0
    except ValidationFailure as e:
        io.cleanup()
        print(f"error: validation: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - stage failures map to exit 1
        io.cleanup()
        print(f"error: stage-failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
