"""Benchmark of the steppref pipeline on one workload.

    python3 bench/run.py --workload chain --seed 0 --seconds 20 --trace 0

Workloads: chain, http-explore and train (see workloads.py). Inputs are a
pure function of --seed.

--trace 0 sets the workload up five times, each set-up followed by timed
passes, for --seconds in all, and prints the end-to-end metrics: setup_s
and wall_s are medians over set-ups and passes; each stage throughput is
the stage's total work over its total time, in the set-ups or passes that
ran it. --trace 1 sets up once, then alternates untraced and traced
passes for --seconds and prints the per-layer metrics of the traced passes
(see tracing.py), medians over those passes.

Each pass is checked; a pass that fails a check counts in `failed` and is
not timed. Before a pass, the process-wide cache a fresh CLI process starts
without (`synthworld.parse_question`) is cleared.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The line before it is a report with each metric's
median, its highest percentile that has at least ten samples beyond it, the
sample count, and the environment (kernel path, versions, CPUs, commit).
The report and the spans of the last traced pass are written under
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "rft_samples_per_s": "1/s",
    "explore_records_per_s": "1/s",
    "train_pair_epochs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
THROUGHPUT = {"rft": "rft_samples_per_s", "explore": "explore_records_per_s",
              "train": "train_pair_epochs_per_s"}


def summarize(values: list[float]) -> dict:
    """Median, and the highest listed percentile with >= 10 samples beyond it."""
    out = {"median": statistics.median(values), "samples": len(values)}
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (100.0 - pct) / 100.0 >= 10:
            out[f"p{pct:g}"] = tracing.nearest_rank(values, pct)
            break
    return out


def environment() -> dict:
    import numpy
    from steppref import kernels

    sources = hashlib.sha256()
    for path in sorted((SRC / "steppref").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else None
        else:
            commit = ref
    return {
        "kernel_path": kernels.active_path(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": sources.hexdigest(),
    }


def import_probe() -> None:
    """Import steppref in a fresh interpreter, the start-up cost of every CLI
    stage; timed with the set-up so that work moved to import time shows."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import steppref.cli"], env=env, cwd=ROOT,
                   check=True, timeout=120)


def fresh_state() -> None:
    from steppref import synthworld

    synthworld.parse_question.cache_clear()


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, review) -> bool:
        self.attempted += review.attempted
        self.failures += review.failures
        return not review.failures


def run_plain(wl, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Set up SETUP_REPEATS times, each set-up followed by timed passes for an
    equal share of `seconds`, so set-up and pass samples both spread over the
    whole run.

    Returns the samples of setup_s, wall_s and peak_rss_mb, and per stage
    throughput metric the (work, seconds) of every set-up or pass that ran
    that stage."""
    samples: dict[str, list[float]] = {"setup_s": [], "wall_s": [], "peak_rss_mb": []}
    stages: dict[str, list[tuple[int, float]]] = {name: [] for name in THROUGHPUT.values()}
    passes = []  # (wall, review, passed its checks)
    begin = time.perf_counter()
    for block in range(1, SETUP_REPEATS + 1):
        # Cumulative deadlines: a block that overruns shortens the next ones.
        deadline = begin + seconds * block / SETUP_REPEATS
        fresh_state()
        start = time.perf_counter()
        import_probe()
        phases = wl.setup()
        samples["setup_s"].append(time.perf_counter() - start)
        for ph in phases:
            stages[THROUGHPUT[ph.stage]].append((ph.work, ph.seconds))
        while True:
            fresh_state()
            start = time.perf_counter()
            raw = wl.run_pass()
            wall = time.perf_counter() - start
            review = wl.review(raw)
            del raw  # so that two passes' outputs are never held at once
            passes.append((wall, review, tally.add(review)))
            if time.perf_counter() + wall > deadline:
                break
    # Failed passes are not timed, unless every pass failed: then the result
    # still carries timings, with correct false.
    timed = [p for p in passes if p[2]] or passes
    for wall, review, _ in timed:
        samples["wall_s"].append(wall)
        for ph in review.phases:
            stages[THROUGHPUT[ph.stage]].append((ph.work, ph.seconds))
    samples["peak_rss_mb"].append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return samples, stages


def run_traced(wl, seconds: float, tally: Tally) -> tuple[dict, tracing.Tracer]:
    fresh_state()
    wl.setup()
    deadline = time.perf_counter() + seconds
    plain: list[float] = []
    traced: list[float] = []
    samples: dict[str, list[float]] = {}
    tracer = None
    while not traced or time.perf_counter() + plain[-1] + traced[-1] <= deadline:
        fresh_state()
        start = time.perf_counter()
        raw = wl.run_pass()
        plain.append(time.perf_counter() - start)
        tally.add(wl.review(raw))

        fresh_state()
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        try:
            start = time.perf_counter()
            raw = wl.run_pass()
            end = time.perf_counter()
        finally:
            tracer.restore()
        traced.append(end - start)
        review = wl.review(raw)
        tally.add(review)
        metrics = tracing.layer_metrics(tracer, start, end, wl.http_stats(),
                                        review.solve_rates)
        for name, value in metrics.items():
            samples.setdefault(name, []).append(value)
    samples["trace.overhead_s"] = [statistics.median(traced) - statistics.median(plain)]
    return samples, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="steppref benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the workload at a smoke-test size")
    args = parser.parse_args(argv)

    if not (SRC / "steppref" / "__init__.py").is_file():
        print(f"error: no steppref sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Loopback traffic must never go to a proxy named in the environment, and
    # requests must not pick up credentials from a ~/.netrc outside the checkout.
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    os.environ["NETRC"] = str(OUT / "netrc-unused")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind through the finally below so the loopback server stops.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, args.size, work_dir, SRC)
    tally = Tally()
    tracer = None
    stages: dict[str, list[tuple[int, float]]] = {}
    try:
        if args.trace:
            samples, tracer = run_traced(wl, args.seconds, tally)
            units = tracing.PER_LAYER_UNITS
        else:
            samples, stages = run_plain(wl, args.seconds, tally)
            units = END_TO_END
    finally:
        wl.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    summary = {name: summarize(values) for name, values in samples.items() if values}
    for name, runs in stages.items():
        if runs:
            # A stage throughput is its total work over its total time; the
            # per-set-up or per-pass rates are summarized beside it.
            summary[name] = summarize([work / secs for work, secs in runs])
            summary[name]["total"] = sum(w for w, _ in runs) / sum(t for _, t in runs)
    missing = [name for name in units if name not in summary]
    if missing:
        print(f"error: no samples for {', '.join(missing)}", file=sys.stderr)
        return 1
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "env": environment(),
        "summary": {name: summary[name] for name in units},
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "error_rate": len(tally.failures) / max(tally.attempted, 1),
        "failures": tally.failures[:20],
    }
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        tracer.write(str(OUT / f"spans-{stem}.json"))
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": summary[name].get("total", summary[name]["median"]),
                           "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
