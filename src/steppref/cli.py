"""Stage-per-subcommand command line.

Each subcommand realizes one pipeline stage and writes exactly its declared
artifacts plus a `<stage>_manifest.json` (config, input hashes, seed,
versions) into --out. The manifest's `config`, like the `created_with` of
each output header, is the stage name, --seed and every flag of the stage
as resolved: nothing else, and no flag left out. A stage that re-pairs at
step granularity lists every outcome pair it leaves out, with the reason
(no pit, provider failure or assembly failure): `gpair` in
`gpair_dropped.jsonl`, `sweep-k` in `sweep_dropped.jsonl` once per k.

A sampling stage samples from the server at --endpoint if one is given,
else from the synthetic solver, with which every stage is a pure function
of (config, seed): rerunning a stage with identical inputs produces
byte-identical files. Each other provider flag belongs to one provider:
--model and --max-in-flight need --endpoint, and --epsilon (the synthetic
solver's error rate, 0.2 when not given) is refused beside it. An endpoint
must be an http(s) URL. An HTTP run records `epsilon: null` and its
effective --max-in-flight.

Each stage is a `Stage` declaration run by `Stage.run`, which builds the
stage's config objects, then checks, hashes and reads its inputs before the
stage body runs: a dataset header's `source_hash` must be the sha256 of the
given input it was built from (an empty hash means unknown and passes), and
every record must name a problem in --problems-file.

--config takes a JSON object whose keys are flag destinations (e.g.
{"n": 8, "temperature": 0.7}); explicit flags override config values,
config values override built-in defaults. A config value is converted and
checked exactly like the same value given as a flag. A key that is no
flag's destination is a validation failure; other stages' keys are ignored.

Exit codes: 0 ok; 2 validation failure (bad flag or config value, config
object rejecting its values, missing, malformed or wrong-kind input,
source_hash mismatch, unknown problem): a single machine-parseable stderr
line, naming the file and line of a malformed input line, nothing
written; 1 stage failure: partial outputs are removed.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
from dataclasses import dataclass
from io import BytesIO
from pathlib import Path
from typing import Any, Callable
from urllib.parse import urlsplit

import numpy as np

from . import __version__, evalmetrics, pipeline, preflearn, synthworld
from .corpus import (
    KIND_D,
    KIND_GEN,
    KIND_GPAIR,
    KIND_PAIR,
    KIND_RFT,
    DatasetHeader,
    DatasetParseError,
    DatasetSchemaError,
    RationaleRecord,
    dumps,
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

    def register(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)  # a failed validation makes none
        p = self.out_dir / name
        self.written.append(p)
        return p

    def write_bytes(self, name: str, data: bytes) -> None:
        write_atomic(self.register(name), data)

    def write_text(self, name: str, text: str) -> None:
        self.write_bytes(name, text.encode("utf-8"))

    def write_dataset(self, name: str, records: list, header: DatasetHeader) -> None:
        write_dataset(records, header, self.register(name))

    def write_jsonl(self, name: str, rows: list[dict]) -> None:
        self.write_text(name, "".join(dumps(r) + "\n" for r in rows))

    def cleanup(self) -> None:
        for p in self.written:
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass


def _manifest(io: _StageIO, stage: str, seed: int, config: dict,
              inputs: dict[str, str]) -> None:
    manifest = {
        "stage": stage,
        "seed": seed,
        "config": config,
        "inputs": inputs,
        "outputs": [p.name for p in io.written],
        "versions": {
            "steppref": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    io.write_text(f"{stage}_manifest.json",
                  json.dumps(manifest, ensure_ascii=False, sort_keys=True, indent=2) + "\n")


@dataclass(frozen=True)
class Input:
    """One input file of a stage, named by the flag whose destination is `dest`."""

    dest: str
    kinds: tuple[str, ...] = ()  # accepted dataset kinds; () = a plain file, only hashed
    source: str | None = None  # input whose sha256 this dataset's header must carry
    required: bool = True


@dataclass(frozen=True)
class StageRun:
    """What a stage body gets: typed arguments, its config objects and, keyed
    by input dest, the inputs' records and sha256."""

    args: argparse.Namespace
    cfg: Any
    io: _StageIO
    created_with: dict[str, Any]  # recorded in output headers and the manifest
    records: dict[str, list]
    sha256: dict[str, str]

    def header(self, kind: str, source: str, **extra: Any) -> DatasetHeader:
        """Header of an output built from input `source`."""
        return DatasetHeader(kind, {**self.created_with, **extra}, self.sha256[source])


def _read_inputs(inputs: tuple[Input, ...], args: argparse.Namespace
                 ) -> tuple[dict[str, list], dict[str, str]]:
    """Check, hash and read a stage's inputs; returns (records, sha256)."""
    given = {i: Path(getattr(args, i.dest)) for i in inputs
             if getattr(args, i.dest) is not None}
    for path in given.values():
        if not path.is_file():
            raise ValidationFailure(f"input file not found: {path}")
    sha256 = {i.dest: file_sha256(path) for i, path in given.items()}
    records = {}
    for inp, path in given.items():
        if not inp.kinds:
            continue
        try:
            records[inp.dest], header = read_dataset(path, *inp.kinds)
        except (DatasetParseError, DatasetSchemaError) as e:
            raise ValidationFailure(f"{path}: {e}") from None
        if inp.source and header.source_hash not in ("", sha256[inp.source]):
            raise ValidationFailure(
                f"{path} has source_hash {header.source_hash}, but "
                f"{getattr(args, inp.source)} has sha256 {sha256[inp.source]}"
            )
    if "problems_file" in records:
        known = {p.id for p in records["problems_file"]}
        for dest, recs in records.items():
            missing = [r.problem_id for r in recs
                       if dest != "problems_file" and r.problem_id not in known]
            if missing:
                raise ValidationFailure(
                    f"{getattr(args, dest)} references unknown problem {missing[0]}")
    return records, sha256


@dataclass(frozen=True)
class Stage:
    name: str
    help: str
    body: Callable[[StageRun], None]
    flags: dict[str, dict]  # flag name -> add_argument keywords
    inputs: tuple[Input, ...] = ()
    # builds the stage's config objects; a ValueError is a validation failure
    configure: Callable[[argparse.Namespace], Any] = lambda args: None

    def run(self, args: argparse.Namespace, io: _StageIO) -> None:
        try:
            cfg = self.configure(args)
        except ValueError as e:
            raise ValidationFailure(str(e)) from None
        # read after configure, which may resolve flag values
        created_with = {"stage": self.name, "seed": args.seed,
                        **{dest: getattr(args, dest) for dest in map(_dest, self.flags)}}
        run = StageRun(args, cfg, io, created_with, *_read_inputs(self.inputs, args))
        self.body(run)
        _manifest(io, self.name, args.seed, created_with,
                  {str(Path(getattr(args, d))): h for d, h in run.sha256.items()})


def _dest(flag: str) -> str:
    """The argument destination of a flag name, as argparse derives it."""
    return flag[2:].replace("-", "_")


def _provider(args: argparse.Namespace) -> ProviderHandle:
    """Resolve the provider flags in place: an endpoint alone selects HTTP."""
    if args.endpoint is None:
        if args.model is not None or args.max_in_flight is not None:
            raise ValueError("--model and --max-in-flight need --endpoint")
        if args.epsilon is None:
            args.epsilon = 0.2
        return ProviderHandle.synthetic(SynthConfig(t=1, epsilon=args.epsilon,
                                                    seed=args.seed))
    if args.epsilon is not None:
        raise ValueError("--epsilon is the synthetic solver's error rate; "
                         "an endpoint has none")
    url = urlsplit(args.endpoint)
    if url.scheme not in ("http", "https") or not url.netloc:
        raise ValueError(f"--endpoint {args.endpoint!r} is not an http(s) URL")
    if args.max_in_flight is None:
        args.max_in_flight = 4
    return ProviderHandle.http(args.endpoint, args.model, max_in_flight=args.max_in_flight)


# ---------------------------------------------------------------------------
# stage bodies


def _run_synth(run: StageRun) -> None:
    cfg, io = run.cfg, run.io
    problems = [synthworld.gen_problem(cfg, i) for i in range(run.args.problems)]
    io.write_dataset("problems.jsonl", problems, DatasetHeader(KIND_D, run.created_with))
    if run.args.samples > 0:
        records = [
            RationaleRecord(p.id, trace.rationale)
            for p in problems
            for trace in synthworld.simulate_solution(p, cfg, 0, n=run.args.samples)
        ]
        io.write_dataset(
            "samples.jsonl",
            records,
            DatasetHeader(KIND_GEN, run.created_with,
                          source_hash=file_sha256(io.out_dir / "problems.jsonl")),
        )


def _run_rft(run: StageRun) -> None:
    provider, sampling = run.cfg
    build = pipeline.build_rft(run.records["problems_file"], provider, sampling)
    run.io.write_dataset("dgen.jsonl", build.gen, run.header(KIND_GEN, "problems_file"))
    run.io.write_dataset("drft.jsonl", build.rft, run.header(KIND_RFT, "problems_file"))
    run.io.write_jsonl(
        "rft_skips.jsonl",
        [{"id": s.problem_id, "reason": s.reason} for s in build.skipped],
    )


def _run_pairs(run: StageRun) -> None:
    pairs = pipeline.build_pairs(run.records["problems_file"], run.records["drft"],
                                 run.records["dgen"], run.cfg)
    run.io.write_dataset("dpair.jsonl", pairs, run.header(KIND_PAIR, "drft"))


def _run_explore(run: StageRun) -> None:
    provider, cfg = run.cfg
    problems, d_pair = run.records["problems_file"], run.records["dpair"]
    by_id = {p.id: p for p in problems}
    explored = pipeline.explore_all(problems, d_pair, provider, cfg.k,
                                    cfg.temperature, cfg.seed)
    rows = []
    for idx, (record, found) in enumerate(zip(d_pair, explored)):
        row = {"id": record.problem_id, "record_index": idx}
        if isinstance(found, pipeline.ExplorationError):
            row.update(error=str(found), partial=found.partial)
        else:
            pit = pipeline.read_pit(found, cfg.k, len(record.rejected.steps),
                                    by_id[record.problem_id], cfg.seed)
            row.update(pit_index=pit.pit_index,
                       per_step_success=[list(t) for t in pit.per_step_success],
                       rescue_present=pit.rescue is not None)
        rows.append(row)
    run.io.write_jsonl("pits.jsonl", rows)


def _dropped_rows(build: pipeline.GranularBuild, **keys: Any) -> list[dict]:
    """One row per record a granular build left out: no-pit drops, then failures."""
    return [{"id": d.problem_id, **keys, "record_index": d.record_index, "reason": d.reason}
            for d in build.dropped + build.failures]


def _run_gpair(run: StageRun) -> None:
    provider, cfg = run.cfg
    build = pipeline.build_granular_pairs(run.records["problems_file"],
                                          run.records["dpair"], provider, cfg,
                                          variant=run.args.variant)
    run.io.write_dataset("dgpair.jsonl", build.records, run.header(KIND_GPAIR, "dpair"))
    run.io.write_jsonl("gpair_dropped.jsonl", _dropped_rows(build))


def _run_sweep_k(run: StageRun) -> None:
    provider, cfg = run.cfg
    entries = pipeline.sweep_exploration_size(run.records["problems_file"],
                                              run.records["dpair"], provider,
                                              run.args.ks, cfg)
    summary = ["k\trecords\tmean_pit_index"]
    for entry in entries:
        run.io.write_dataset(f"dgpair_k{entry.k}.jsonl", entry.build.records,
                             run.header(KIND_GPAIR, "dpair", k=entry.k))
        mean = "" if entry.mean_pit_index is None else f"{entry.mean_pit_index:.12g}"
        summary.append(f"{entry.k}\t{len(entry.build.records)}\t{mean}")
    run.io.write_text("sweep_summary.tsv", "\n".join(summary) + "\n")
    run.io.write_jsonl("sweep_dropped.jsonl",
                       [row for e in entries for row in _dropped_rows(e.build, k=e.k)])


def _run_train(run: StageRun) -> None:
    args, cfg = run.args, run.cfg
    records = run.records["pairs_file"]
    if not records:
        raise ValidationFailure(f"{args.pairs_file} holds no pair records")
    pairs, _vocab = preflearn.tokenize_pair_records(records, args.alphabet)
    # Reference = count-based fit to the chosen sequences, standing in for a
    # one-epoch SFT warm start.
    ref = preflearn.fit_mle([(p.x, p.y_plus) for p in pairs], args.alphabet, args.order,
                            smoothing=args.smoothing)
    policy, history = preflearn.train(ref.copy(), ref, pairs, cfg,
                                      epochs=args.epochs, lr=args.lr)
    lines = ["epoch\tloss\treward_accuracy"]
    lines += [f"{e}\t{l:.12g}\t{r:.12g}" for e, l, r in history]
    run.io.write_text("train_history.tsv", "\n".join(lines) + "\n")
    buf = BytesIO()
    np.save(buf, policy.logits)
    run.io.write_bytes("policy.npy", buf.getvalue())


def _run_metrics(run: StageRun) -> None:
    grouped: dict[str, list[str]] = {}
    for rec in run.records["dgen"]:
        grouped.setdefault(rec.problem_id, []).append(
            rec.rationale.extracted_answer or ""
        )
    sets = [
        evalmetrics.SampleSet(p.id, p.gold_answer, tuple(grouped[p.id]))
        for p in run.records["problems_file"]
        if p.id in grouped
    ]
    if not sets:
        raise ValidationFailure("no prediction sets to score")
    lines = [f"top1\t1\t{evalmetrics.top1_accuracy(sets):.12g}"]
    try:
        for k in run.args.k:
            lines.append(f"pass_at_k\t{k}\t{evalmetrics.pass_at_k(sets, k):.12g}")
            lines.append(f"maj_at_k\t{k}\t{evalmetrics.maj_at_k(sets, k):.12g}")
            stats = evalmetrics.answer_stats(sets, k)
            uniq = sum(u for u, _ in stats) / len(stats)
            dom = sum(d for _, d in stats) / len(stats)
            lines.append(f"mean_unique_count\t{k}\t{uniq:.12g}")
            lines.append(f"mean_dominant_share\t{k}\t{dom:.12g}")
    except evalmetrics.MetricsBoundsError as e:
        raise ValidationFailure(str(e)) from None
    if run.args.embeddings:
        known = {p.id for p in run.records["problems_file"]}
        values = [evalmetrics.diversity(d)
                  for d in _read_embeddings(run.args.embeddings, known)]
        if values:
            lines.append(f"diversity_mean\t-\t{sum(values) / len(values):.12g}")
    run.io.write_text("metrics.tsv", "\n".join(lines) + "\n")


def _read_embeddings(path: str, known: set[str]) -> list[evalmetrics.DiversityInput]:
    """The {id, embeddings} rows of an --embeddings file. A malformed row is a
    validation failure naming its line."""
    rows = []
    with open(path, "rb") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line.decode("utf-8"))
                if not (isinstance(row, dict) and isinstance(row.get("id"), str)
                        and "embeddings" in row):
                    raise ValueError("a row must be an object with a string id "
                                     "and embeddings")
                if row["id"] not in known:
                    raise ValidationFailure(f"{path} references unknown problem "
                                            f"{row['id']}")
                rows.append(evalmetrics.DiversityInput(row["id"], row["embeddings"]))
            except ValueError as e:
                raise ValidationFailure(f"{path}: line {line_no}: {e}") from None
    return rows


def _value_range(text: str) -> tuple[int, int]:
    lo, hi = text.split(":")
    return int(lo), int(hi)


_value_range.__name__ = "LO:HI"  # argparse names a type in its errors


def _list_of(convert: Callable[[str], Any]) -> Callable[[str], list]:
    def parse(text: str) -> list:
        values = [convert(x) for x in text.split(",") if x != ""]
        if not values:
            raise ValueError(f"no values in {text!r}")
        return values
    parse.__name__ = f"comma-separated {convert.__name__}"
    return parse


_PROVIDER_FLAGS = {
    "--endpoint": dict(help="completions URL, sampled instead of the synthetic solver"),
    "--model": dict(help="model name sent to the endpoint"),
    "--max-in-flight": dict(type=int, help="concurrent requests to the endpoint "
                            "(default 4)"),
    "--epsilon": dict(type=float, help="per-step error rate of the synthetic "
                      "provider (default 0.2)"),
    "--temperature": dict(type=float, default=0.7),
}
_PROBLEMS = Input("problems_file", (KIND_D,))
_DPAIR = Input("dpair", (KIND_PAIR,))


def _explore_config(args: argparse.Namespace) -> tuple[ProviderHandle, ExploreConfig]:
    return _provider(args), ExploreConfig(k=args.k, temperature=args.temperature,
                                          seed=args.seed)


def _sweep_config(args: argparse.Namespace) -> tuple[ProviderHandle, ExploreConfig]:
    if min(args.ks) < 1:
        raise ValueError("every k must be >= 1")
    return _provider(args), ExploreConfig(k=max(args.ks), temperature=args.temperature,
                                          nested_sampling=True, seed=args.seed)


def _train_config(args: argparse.Namespace) -> preflearn.ObjectiveConfig:
    for ok, rule in ((args.epochs >= 1, "--epochs must be >= 1"),
                     (math.isfinite(args.lr) and args.lr >= 0, "--lr must be finite and >= 0"),
                     (args.alphabet >= 3, "--alphabet must be >= 3"),
                     (args.order >= 1, "--order must be >= 1"),
                     (args.smoothing > 0, "--smoothing must be > 0")):
        if not ok:
            raise ValueError(rule)
    return preflearn.ObjectiveConfig(objective=args.objective, beta=args.beta, tau=args.tau,
                                     kto_weights=tuple(args.kto_weights))


_STAGE_DECLS = (
    Stage("synth", "generate synthetic problems", _run_synth,
          flags={"--problems": dict(type=int, default=20),
                 "--t": dict(type=int, default=5),
                 "--epsilon": dict(type=float, default=0.2),
                 "--value-range": dict(type=_value_range, default="2:9"),
                 "--samples": dict(type=int, default=0, help="also emit this many "
                                   "sampled solutions per problem")},
          configure=lambda a: SynthConfig(t=a.t, epsilon=a.epsilon,
                                          value_range=a.value_range, seed=a.seed)),
    Stage("rft", "sample, grade and dedup rationales", _run_rft,
          flags={"--n": dict(type=int, default=100), **_PROVIDER_FLAGS},
          inputs=(_PROBLEMS,),
          configure=lambda a: (_provider(a), SamplingConfig(
              n=a.n, temperature=a.temperature, seed=a.seed))),
    Stage("pairs", "build outcome preference pairs", _run_pairs,
          flags={"--max-pairs": dict(type=int, default=8)},
          inputs=(_PROBLEMS, Input("dgen", (KIND_GEN,), source="problems_file"),
                  Input("drft", (KIND_RFT,), source="problems_file")),
          configure=lambda a: PairingConfig(max_pairs_per_problem=a.max_pairs)),
    Stage("explore", "locate first pits (report only)", _run_explore,
          flags={"--k": dict(type=int, default=4), **_PROVIDER_FLAGS},
          inputs=(_PROBLEMS, _DPAIR), configure=_explore_config),
    Stage("gpair", "build granular preference pairs", _run_gpair,
          flags={"--k": dict(type=int, default=4), **_PROVIDER_FLAGS,
                 "--variant": dict(choices=list(VARIANTS), default="full")},
          inputs=(_PROBLEMS, _DPAIR), configure=_explore_config),
    Stage("sweep-k", "exploration-size sweep (nested); sweep_dropped.jsonl lists "
          "each record left out at each k, and why", _run_sweep_k,
          flags={"--ks": dict(type=_list_of(int), default="4,8,16,32"), **_PROVIDER_FLAGS},
          inputs=(_PROBLEMS, _DPAIR), configure=_sweep_config),
    Stage("train", "train the toy policy on a pair dataset", _run_train,
          flags={"--objective": dict(choices=["dpo", "ipo", "kto"], default="dpo"),
                 "--beta": dict(type=float, default=0.1),
                 "--tau": dict(type=float),
                 "--kto-weights": dict(type=_list_of(float), default="1.0,1.0"),
                 "--epochs": dict(type=int, default=100),
                 "--lr": dict(type=float, default=0.5),
                 "--alphabet": dict(type=int, default=32),
                 "--order": dict(type=int, default=2),
                 "--smoothing": dict(type=float, default=0.5)},
          inputs=(Input("pairs_file", (KIND_PAIR, KIND_GPAIR)),),
          configure=_train_config),
    Stage("metrics", "score prediction sets; --embeddings is a JSONL of "
          "{id, embeddings} for the diversity metric", _run_metrics,
          flags={"--k": dict(type=_list_of(int), default="1")},
          inputs=(_PROBLEMS,
                  Input("dgen", (KIND_GEN, KIND_RFT), source="problems_file"),
                  Input("embeddings", required=False))),
)

# Looked up by name when a stage is dispatched, so a wrapper installed here
# (such as a tracer) sees every call.
_STAGES = {stage.name: stage.run for stage in _STAGE_DECLS}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reports a bad command line as a
    ValidationFailure instead of printing usage and exiting."""

    def error(self, message: str):
        raise ValidationFailure(message)

    def flags(self) -> dict[str, argparse.Action]:
        return {a.dest: a for a in self._actions
                if a.option_strings and a.dest != "help"}


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="steppref", description="Step-level preference data pipeline")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", help="JSON file of flag defaults")
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="stage", required=True)
    stage_parsers: dict[str, _Parser] = {}
    for stage in _STAGE_DECLS:
        p = stage_parsers[stage.name] = sub.add_parser(stage.name, help=stage.help)
        for inp in stage.inputs:
            p.add_argument("--" + inp.dest.replace("_", "-"), required=inp.required)
        for name, kwargs in stage.flags.items():
            p.add_argument(name, **kwargs)
    return parser, stage_parsers


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser, stage_parsers = build_parser()
    args = parser.parse_args(argv)
    if not args.config:
        return args
    try:
        values = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        raise ValidationFailure(f"bad config file: {e}") from None
    if not isinstance(values, dict):
        raise ValidationFailure("config file must hold a JSON object")
    unknown = sorted(set(values).difference(
        *(p.flags() for p in (parser, *stage_parsers.values()))))
    if unknown:
        raise ValidationFailure(f"unknown config key(s): {', '.join(unknown)}")

    def as_flags(p: _Parser) -> list[str]:
        out = []
        for dest, action in p.flags().items():
            if dest in values:
                if not isinstance(values[dest], (str, int, float)):
                    raise ValidationFailure(f"config key {dest}: {json.dumps(values[dest])} "
                                            "is not a flag value")
                out.append(f"{action.option_strings[0]}={values[dest]}")
        return out

    # Parse again with each config value as a flag ahead of the explicit
    # flags, which win. The stage name is the first token that is neither a
    # top-level option nor its value.
    i = 0
    while argv[i].startswith("-"):
        i += 1 if "=" in argv[i] else 2
    return parser.parse_args(as_flags(parser) + argv[:i + 1]
                             + as_flags(stage_parsers[args.stage]) + argv[i + 1:])


def main(argv: list[str] | None = None) -> int:
    io = None
    try:
        args = _parse_args(list(sys.argv[1:] if argv is None else argv))
        io = _StageIO(Path(args.out))
        _STAGES[args.stage](args, io)
        return 0
    except ValidationFailure as e:
        code, message = 2, f"validation: {e}"
    except Exception as e:  # noqa: BLE001 - stage failures map to exit 1
        code, message = 1, f"stage-failure: {type(e).__name__}: {e}"
    if io is not None:
        io.cleanup()
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
