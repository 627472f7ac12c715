"""Stage-per-subcommand command line.

Each subcommand realizes one pipeline stage and writes exactly its declared
artifacts plus a `<stage>_manifest.json` (config, input hashes, outputs,
versions, numpy's enabled SIMD dispatch targets among them) into --out. The
manifest's `config`, the one record of the run's settings, is the stage
name, --seed where the stage draws randomness, null elsewhere, and every
flag of the stage as resolved: nothing else, and no flag left out. A dataset
header holds only its kind and source hash. A stage that re-pairs at step
granularity lists every outcome pair it leaves out, with the reason (no pit,
provider failure or assembly failure): `gpair` in `gpair_dropped.jsonl`,
`sweep-k` in `sweep_dropped.jsonl` once per k.

Settings come from flags alone, each spelled in full: a prefix of a flag is
an unrecognized argument. Each comma-separated item of a list value is a
value, so `--ks 1,,2` is refused. A flag that a run does not read is
refused. The one exception is --seed, which every stage accepts and which a
stage that draws no randomness records as null. A run records `null` for
each other flag it does not read.
A sampling stage samples from the server at --endpoint if one is given,
else from the synthetic solver, with which every stage is a pure function
of (flags, seed): rerunning a stage with identical inputs produces
byte-identical files. So --model and --max-in-flight need --endpoint, and
--epsilon (the synthetic solver's error rate) is refused beside it, and in
`synth` without --samples. An endpoint must be an http(s) URL; an HTTP run
records its effective --max-in-flight. Of `train`'s objective flags,
--beta is read by dpo and kto, --tau by ipo, which needs it, and
--kto-weights by kto. A flag that fills a config field takes its default
from that field.

Each stage is a `Stage` declaration run by `Stage.run`, which builds the
stage's config objects, then checks, hashes and reads its inputs, every one
a dataset, before the stage body runs: a dataset header's `source_hash` must
be the sha256 of the given input it was built from (an empty hash means
unknown and passes), and every record must name a problem in
--problems-file. The body gets one `StageRun`, which owns the outputs: it
writes each one atomically, writes the manifest last, and removes every
output it wrote if the body or the manifest raises.

Exit codes: 0 ok; 2 validation failure (bad or unread flag value, config
object rejecting its values, a `train` policy table over MAX_TABLE_ENTRIES,
missing, malformed or wrong-kind input, a record field of the wrong JSON
type, source_hash mismatch, unknown problem, a problems file repeating a
problem id, a D_PAIR input holding a non-outcome pair, a D_RFT record not
labeled correct, a `train` pair whose input or rejected steps hold no words,
an --out at or under a file): a single machine-parseable stderr line, naming
the file and line of a malformed input line, nothing written; 1 stage
failure: partial outputs are removed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import platform
import sys
from dataclasses import dataclass, field
from io import BytesIO
from pathlib import Path
from typing import Any, Callable
from urllib.parse import urlsplit

import numpy as np

from . import __version__, evalmetrics, pipeline, preflearn, synthworld
from .corpus import (
    GRAN_OUTCOME,
    KIND_D,
    KIND_GEN,
    KIND_GPAIR,
    KIND_PAIR,
    KIND_RFT,
    DatasetHeader,
    DatasetParseError,
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

try:  # the SIMD code numpy runs, on which a float's last bit may depend; private names
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    _DISPATCH = {"numpy_dispatch": [n for n in __cpu_dispatch__ if __cpu_features__.get(n)]}
except ImportError:  # before numpy 2
    _DISPATCH = {}


class ValidationFailure(Exception):
    pass


@dataclass(frozen=True)
class Input:
    """One input file of a stage, named by the flag whose destination is `dest`."""

    dest: str
    kinds: tuple[str, ...]  # accepted dataset kinds
    source: str | None = None  # input whose sha256 this dataset's header must carry


@dataclass
class StageRun:
    """One run of a stage. Its body gets typed arguments, its config objects
    and, keyed by input dest, the inputs' records and sha256, and writes every
    output through it: atomically, each one recorded, so that a failing run
    removes what it wrote."""

    args: argparse.Namespace
    cfg: Any
    created_with: dict[str, Any]  # the manifest's `config`
    records: dict[str, list]
    sha256: dict[str, str]
    written: list[Path] = field(default_factory=list)

    def _output(self, name: str) -> Path:
        out_dir = Path(self.args.out)
        out_dir.mkdir(parents=True, exist_ok=True)  # a failed validation makes none
        self.written.append(out_dir / name)
        return out_dir / name

    def write_bytes(self, name: str, data: bytes) -> None:
        write_atomic(self._output(name), data)

    def write_text(self, name: str, text: str) -> None:
        self.write_bytes(name, text.encode("utf-8"))

    def write_jsonl(self, name: str, rows: list[dict]) -> None:
        self.write_text(name, "".join(dumps(r) + "\n" for r in rows))

    def write_dataset(self, name: str, records: list, kind: str, source_hash: str) -> None:
        """A dataset whose header records the sha256 of the file it was built
        from ("" when there is none)."""
        write_dataset(records, DatasetHeader(kind, source_hash), self._output(name))

    def _write_manifest(self) -> None:
        manifest = {
            "config": self.created_with,
            "inputs": {str(Path(getattr(self.args, d))): h for d, h in self.sha256.items()},
            "outputs": [p.name for p in self.written],
            "versions": {"steppref": __version__, "python": platform.python_version(),
                         "numpy": np.__version__, **_DISPATCH},
        }
        self.write_text(f"{self.created_with['stage']}_manifest.json", json.dumps(
            manifest, ensure_ascii=False, sort_keys=True, indent=2) + "\n")

    def execute(self, body: Callable[[StageRun], None]) -> None:
        """Run `body`, then write the manifest; if either raises, remove
        every output written and re-raise."""
        try:
            body(self)
            self._write_manifest()
        except Exception:
            for p in self.written:
                try:
                    p.unlink(missing_ok=True)
                except OSError:
                    pass
            raise


def _read_inputs(inputs: tuple[Input, ...], args: argparse.Namespace
                 ) -> tuple[dict[str, list], dict[str, str]]:
    """Check, hash and read a stage's inputs; returns (records, sha256)."""
    given = {i: Path(getattr(args, i.dest)) for i in inputs}
    for path in given.values():
        if not path.is_file():
            raise ValidationFailure(f"input file not found: {path}")
    sha256 = {i.dest: file_sha256(path) for i, path in given.items()}
    records = {}
    for inp, path in given.items():
        try:
            records[inp.dest], header = read_dataset(path, *inp.kinds)
        except DatasetParseError as e:
            raise ValidationFailure(f"{path}: {e}") from None
        if inp.source and header.source_hash not in ("", sha256[inp.source]):
            raise ValidationFailure(
                f"{path} has source_hash {header.source_hash}, but "
                f"{getattr(args, inp.source)} has sha256 {sha256[inp.source]}"
            )
        if header.kind == KIND_PAIR:
            for i, r in enumerate(records[inp.dest]):
                if r.granularity != GRAN_OUTCOME:
                    raise ValidationFailure(f"{path} record {i} has granularity {r.granularity}, "
                                            f"but a {KIND_PAIR} dataset holds {GRAN_OUTCOME} pairs")
        if header.kind == KIND_RFT:
            for i, r in enumerate(records[inp.dest]):
                if r.rationale.label != "correct":
                    raise ValidationFailure(f"{path} record {i} is labeled {r.rationale.label}, "
                                            f"but a {KIND_RFT} dataset holds correct rationales")
    if "problems_file" in records:
        known: set[str] = set()
        for p in records["problems_file"]:
            if p.id in known:
                raise ValidationFailure(f"{args.problems_file} repeats problem id {p.id}")
            known.add(p.id)
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
    seeded: bool = False  # the body draws randomness from --seed

    def run(self, args: argparse.Namespace) -> None:
        out = Path(args.out)  # a file there would fail only at the first write
        nearest = next((p for p in (out, *out.parents) if p.exists()), out)
        if not nearest.is_dir():
            raise ValidationFailure(f"--out {out}: {nearest} is not a directory")
        try:
            cfg = self.configure(args)
        except ValueError as e:
            raise ValidationFailure(str(e)) from None
        # read after configure, which may resolve flag values
        created_with = {"stage": self.name, "seed": args.seed if self.seeded else None,
                        **{dest: getattr(args, dest) for dest in map(_dest, self.flags)}}
        StageRun(args, cfg, created_with, *_read_inputs(self.inputs, args)).execute(self.body)


def _dest(flag: str) -> str:
    """The argument destination of a flag name, as argparse derives it."""
    return flag[2:].replace("-", "_")


def _provider(args: argparse.Namespace) -> ProviderHandle:
    """Resolve the provider flags in place: an endpoint alone selects HTTP."""
    if args.endpoint is None:
        if args.model is not None or args.max_in_flight is not None:
            raise ValueError("--model and --max-in-flight need --endpoint")
        if args.epsilon is None:
            args.epsilon = SynthConfig.epsilon
        return ProviderHandle.synthetic(SynthConfig(t=1, epsilon=args.epsilon,
                                                    seed=args.seed))
    if args.epsilon is not None:
        raise ValueError("--epsilon is the synthetic solver's error rate; "
                         "an endpoint has none")
    url = urlsplit(args.endpoint)
    if url.scheme not in ("http", "https") or not url.netloc:
        raise ValueError(f"--endpoint {args.endpoint!r} is not an http(s) URL")
    if args.max_in_flight is None:
        args.max_in_flight = ProviderHandle.max_in_flight
    return ProviderHandle.http(args.endpoint, args.model, max_in_flight=args.max_in_flight)


# ---------------------------------------------------------------------------
# stage bodies


def _run_synth(run: StageRun) -> None:
    cfg, n = run.cfg, run.args.samples
    problems = [synthworld.gen_problem(cfg, i) for i in range(run.args.problems)]
    run.write_dataset("problems.jsonl", problems, KIND_D, "")
    if n > 0:
        records = [RationaleRecord(p.id, trace.rationale) for p in problems
                   for trace in synthworld.simulate_solution(p, cfg, 0, n=n)]
        run.write_dataset("samples.jsonl", records, KIND_GEN, file_sha256(run.written[0]))


def _run_rft(run: StageRun) -> None:
    provider, sampling = run.cfg
    build = pipeline.build_rft(run.records["problems_file"], provider, sampling)
    source = run.sha256["problems_file"]
    run.write_dataset("dgen.jsonl", build.gen, KIND_GEN, source)
    run.write_dataset("drft.jsonl", build.rft, KIND_RFT, source)
    run.write_jsonl("rft_skips.jsonl",
                    [{"id": s.problem_id, "reason": s.reason} for s in build.skipped])


def _run_pairs(run: StageRun) -> None:
    pairs = pipeline.build_pairs(run.records["problems_file"], run.records["drft"],
                                 run.records["dgen"], run.cfg)
    run.write_dataset("dpair.jsonl", pairs, KIND_PAIR, run.sha256["drft"])


def _run_explore(run: StageRun) -> None:
    provider, cfg = run.cfg
    problems, d_pair = run.records["problems_file"], run.records["dpair"]
    by_id = {p.id: p for p in problems}
    explored = pipeline.explore_all(problems, d_pair, provider, cfg)
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
    run.write_jsonl("pits.jsonl", rows)


def _dropped_rows(build: pipeline.GranularBuild, **keys: Any) -> list[dict]:
    """One row per record a granular build left out: no-pit drops, then failures."""
    return [{"id": d.problem_id, **keys, "record_index": d.record_index, "reason": d.reason}
            for d in build.dropped + build.failures]


def _run_gpair(run: StageRun) -> None:
    provider, cfg = run.cfg
    build = pipeline.build_granular_pairs(run.records["problems_file"],
                                          run.records["dpair"], provider, cfg,
                                          variant=run.args.variant)
    run.write_dataset("dgpair.jsonl", build.records, KIND_GPAIR, run.sha256["dpair"])
    run.write_jsonl("gpair_dropped.jsonl", _dropped_rows(build))


def _run_sweep_k(run: StageRun) -> None:
    provider, cfg = run.cfg
    entries = pipeline.sweep_exploration_size(run.records["problems_file"],
                                              run.records["dpair"], provider,
                                              run.args.ks, cfg)
    summary = ["k\trecords\tmean_pit_index"]
    for entry in entries:
        run.write_dataset(f"dgpair_k{entry.k}.jsonl", entry.build.records, KIND_GPAIR,
                          run.sha256["dpair"])
        mean = "" if entry.mean_pit_index is None else f"{entry.mean_pit_index:.12g}"
        summary.append(f"{entry.k}\t{len(entry.build.records)}\t{mean}")
    run.write_text("sweep_summary.tsv", "\n".join(summary) + "\n")
    run.write_jsonl("sweep_dropped.jsonl",
                    [row for e in entries for row in _dropped_rows(e.build, k=e.k)])


def _run_train(run: StageRun) -> None:
    args, cfg = run.args, run.cfg
    records = run.records["pairs_file"]
    if not records:
        raise ValidationFailure(f"{args.pairs_file} holds no pair records")
    for i, r in enumerate(records):  # the policy scores words, so each side needs one
        if not r.input.split() or not any(step.split() for step in r.rejected.steps):
            raise ValidationFailure(f"{args.pairs_file} record {i} has no words in its "
                                    "input or in its rejected steps")
    pairs, _vocab = preflearn.tokenize_pair_records(records, args.alphabet)
    # Reference = count-based fit to the chosen sequences, standing in for a
    # one-epoch SFT warm start.
    ref = preflearn.fit_mle([(p.x, p.y_plus) for p in pairs], args.alphabet, args.order,
                            smoothing=args.smoothing)
    policy, history = preflearn.train(ref.copy(), ref, pairs, cfg,
                                      epochs=args.epochs, lr=args.lr)
    lines = ["epoch\tloss\treward_accuracy"]
    lines += [f"{e}\t{l:.12g}\t{r:.12g}" for e, l, r in history]
    run.write_text("train_history.tsv", "\n".join(lines) + "\n")
    buf = BytesIO()
    np.save(buf, policy.logits)
    run.write_bytes("policy.npy", buf.getvalue())


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
    run.write_text("metrics.tsv", "\n".join(lines) + "\n")


def _value_range(text: str) -> tuple[int, int]:
    lo, hi = text.split(":")
    return int(lo), int(hi)


_value_range.__name__ = "LO:HI"  # argparse names a type in its errors


def _list_of(convert: Callable[[str], Any], counts: bool = False) -> Callable[[str], list]:
    """A comma-separated list, every item a value; `counts` lists hold distinct values >= 1."""
    def parse(text: str) -> list:
        values = [convert(x) for x in text.split(",")]
        if counts and min(values) < 1:
            raise argparse.ArgumentTypeError(f"{text!r} holds a value below 1")
        if counts and len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(f"{text!r} repeats a value")
        return values
    parse.__name__ = f"comma-separated {convert.__name__}"
    return parse


_PROVIDER_FLAGS = {
    "--endpoint": dict(help="completions URL, sampled instead of the synthetic solver"),
    "--model": dict(help="model name sent to the endpoint"),
    "--max-in-flight": dict(type=int, help="concurrent requests to the endpoint "
                            f"(default {ProviderHandle.max_in_flight})"),
    "--epsilon": dict(type=float, help="per-step error rate of the synthetic "
                      f"provider (default {SynthConfig.epsilon})"),
    "--temperature": dict(type=float, default=SamplingConfig.temperature),
}
_PROBLEMS = Input("problems_file", (KIND_D,))
_DPAIR = Input("dpair", (KIND_PAIR,))


def _synth_config(args: argparse.Namespace) -> SynthConfig:
    """Also resolves --epsilon in place, where --samples reads it."""
    if min(args.problems, args.samples) < 0:
        raise ValueError("--problems and --samples must be >= 0")
    if args.epsilon is not None and not args.samples:
        raise ValueError("--epsilon is the error rate of sampled solutions; "
                         "it needs --samples")
    if args.samples and args.epsilon is None:
        args.epsilon = SynthConfig.epsilon
    return SynthConfig(t=args.t, value_range=args.value_range, seed=args.seed,
                       epsilon=SynthConfig.epsilon if args.epsilon is None else args.epsilon)


def _explore_config(args: argparse.Namespace) -> tuple[ProviderHandle, ExploreConfig]:
    return _provider(args), ExploreConfig(k=args.k, temperature=args.temperature,
                                          seed=args.seed)


def _sweep_config(args: argparse.Namespace) -> tuple[ProviderHandle, ExploreConfig]:
    return _provider(args), ExploreConfig(k=max(args.ks), temperature=args.temperature,
                                          nested_sampling=True, seed=args.seed)


# The most float64 entries a policy table, (alphabet+1)**order x alphabet,
# may have: 128 MiB. `train` holds several such tables at once.
MAX_TABLE_ENTRIES = 2**24


def _train_config(args: argparse.Namespace) -> preflearn.ObjectiveConfig:
    """Also resolves --beta and --kto-weights in place: None where unread."""
    for ok, rule in ((args.epochs >= 1, "--epochs must be >= 1"),
                     (math.isfinite(args.lr) and args.lr >= 0, "--lr must be finite and >= 0"),
                     (args.alphabet >= 3, "--alphabet must be >= 3"),
                     (args.order >= 1, "--order must be >= 1"),
                     (math.isfinite(args.smoothing) and args.smoothing > 0,
                      "--smoothing must be finite and > 0")):
        if not ok:
            raise ValueError(rule)
    # past order 24 every alphabet of 3 or more is over the cap: no huge integer
    if (args.alphabet + 1) ** min(args.order, 24) * args.alphabet > MAX_TABLE_ENTRIES:
        raise ValueError(f"--alphabet {args.alphabet} --order {args.order} needs a policy "
                         f"table of more than {MAX_TABLE_ENTRIES} entries")
    cfg = preflearn.ObjectiveConfig(
        objective=args.objective, beta=args.beta, tau=args.tau,
        kto_weights=None if args.kto_weights is None else tuple(args.kto_weights))
    args.beta, args.kto_weights = cfg.beta, cfg.kto_weights
    return cfg


_STAGE_DECLS = (
    Stage("synth", "generate synthetic problems", _run_synth,
          flags={"--problems": dict(type=int, default=20),
                 "--t": dict(type=int, default=SynthConfig.t),
                 "--epsilon": dict(type=float, help="per-step error rate of the "
                                   f"samples (default {SynthConfig.epsilon})"),
                 "--value-range": dict(type=_value_range, default=SynthConfig.value_range),
                 "--samples": dict(type=int, default=0, help="also emit this many "
                                   "sampled solutions per problem")},
          configure=_synth_config, seeded=True),
    Stage("rft", "sample, grade and dedup rationales", _run_rft,
          flags={"--n": dict(type=int, default=SamplingConfig.n), **_PROVIDER_FLAGS},
          inputs=(_PROBLEMS,),
          configure=lambda a: (_provider(a), SamplingConfig(
              n=a.n, temperature=a.temperature, seed=a.seed)), seeded=True),
    Stage("pairs", "build outcome preference pairs", _run_pairs,
          flags={"--max-pairs": dict(type=int, default=PairingConfig.max_pairs_per_problem)},
          inputs=(_PROBLEMS, Input("dgen", (KIND_GEN,), source="problems_file"),
                  Input("drft", (KIND_RFT,), source="problems_file")),
          configure=lambda a: PairingConfig(max_pairs_per_problem=a.max_pairs)),
    Stage("explore", "locate first pits (report only)", _run_explore,
          flags={"--k": dict(type=int, default=ExploreConfig.k), **_PROVIDER_FLAGS},
          inputs=(_PROBLEMS, _DPAIR), configure=_explore_config, seeded=True),
    Stage("gpair", "build granular preference pairs", _run_gpair,
          flags={"--k": dict(type=int, default=ExploreConfig.k), **_PROVIDER_FLAGS,
                 "--variant": dict(choices=list(VARIANTS), default="full")},
          inputs=(_PROBLEMS, _DPAIR), configure=_explore_config, seeded=True),
    Stage("sweep-k", "exploration-size sweep (nested); sweep_dropped.jsonl lists "
          "each record left out at each k, and why", _run_sweep_k,
          flags={"--ks": dict(type=_list_of(int, counts=True),
                              default="4,8,16,32"), **_PROVIDER_FLAGS},
          inputs=(_PROBLEMS, _DPAIR), configure=_sweep_config, seeded=True),
    Stage("train", "train the toy policy on a pair dataset", _run_train,
          flags={"--objective": dict(choices=preflearn.OBJECTIVES,
                                     default=preflearn.ObjectiveConfig.objective),
                 "--beta": dict(type=float, help="read by dpo and kto (default "
                                f"{preflearn.ObjectiveConfig('dpo').beta})"),
                 "--tau": dict(type=float, help="read by ipo, which needs it"),
                 "--kto-weights": dict(type=_list_of(float), help="chosen,rejected; read "
                                       "by kto (default %s,%s)"
                                       % preflearn.ObjectiveConfig("kto").kto_weights),
                 "--epochs": dict(type=int, default=100),
                 "--lr": dict(type=float, default=0.5),
                 "--alphabet": dict(type=int, default=32),
                 "--order": dict(type=int, default=2),
                 "--smoothing": dict(type=float, default=0.5)},
          inputs=(Input("pairs_file", (KIND_PAIR, KIND_GPAIR)),),
          configure=_train_config),
    Stage("metrics", "score prediction sets", _run_metrics,
          flags={"--k": dict(type=_list_of(int, counts=True), default="1")},
          inputs=(_PROBLEMS,
                  Input("dgen", (KIND_GEN,), source="problems_file"))),
)

# Looked up by name when a stage is dispatched, so a wrapper installed here
# (such as a tracer) sees every call.
_STAGES = {stage.name: stage.run for stage in _STAGE_DECLS}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that knows a flag by its full name only, and reports a
    bad command line as a ValidationFailure instead of printing usage and
    exiting. add_subparsers makes each stage's parser one too."""
    __init__ = functools.partialmethod(argparse.ArgumentParser.__init__, allow_abbrev=False)

    def error(self, message: str):
        raise ValidationFailure(message)

    def parse_args(self, args: list[str]) -> argparse.Namespace:
        try:
            return super().parse_args(args)
        except ValidationFailure:
            # argparse passes over an option it does not know, then reads the
            # option's value as the stage name and fails on that: name the
            # option instead
            known = self._option_string_actions
            stage = next((i for i, a in enumerate(args) if not a.startswith("-")
                          and (i == 0 or args[i - 1] not in known)), len(args))
            unknown = [a for a in args[:stage]
                       if a.startswith("--") and a.split("=", 1)[0] not in known]
            if not unknown:
                raise
            raise ValidationFailure("unrecognized arguments: " + " ".join(unknown)) from None


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built on the first call and then reused: a
    parse returns a fresh Namespace and changes nothing in the parser."""
    parser = _Parser(prog="steppref", description="Step-level preference data pipeline")
    parser.add_argument("--seed", type=int, default=0, help="random seed, read by "
                        + ", ".join(s.name for s in _STAGE_DECLS if s.seeded))
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="stage", required=True)
    for decl in _STAGE_DECLS:
        p = sub.add_parser(decl.name, help=decl.help)
        for inp in decl.inputs:
            p.add_argument("--" + inp.dest.replace("_", "-"), required=True)
        for name, kwargs in decl.flags.items():
            p.add_argument(name, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
        _STAGES[args.stage](args)
        return 0
    except ValidationFailure as e:
        code, message = 2, f"validation: {e}"
    except Exception as e:  # noqa: BLE001 - stage failures map to exit 1
        code, message = 1, f"stage-failure: {type(e).__name__}: {e}"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
