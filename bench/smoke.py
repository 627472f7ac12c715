"""Smoke test of the benchmark itself.

Runs every workload in BENCHMARK.json, and the unlisted `train`, once at the
tiny size, untraced and traced, and checks that the result line holds every
metric with its unit and that the outputs passed their checks. Then checks that the benchmark exits
non-zero, printing no result, in a copy holding only BENCHMARK.json and the
benchmark's own files.

    python3 bench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
# Runnable with --workload but not listed in BENCHMARK.json: its set-up-timed
# rft_samples_per_s is not yet steady enough for the driver's bound.
UNLISTED = ["train"]


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    cmd = [*spec["command"], "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(spec: dict, workload: str, trace: int, proc) -> list[str]:
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None:
            problems.append(f"{where}: missing {metric['name']}")
        elif got["unit"] != metric["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"{where}: {metric['name']} reads {got}")
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def check_bare_copy() -> list[str]:
    """Without the steppref sources the benchmark must fail and print no result."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for rel in spec["paths"]:
            shutil.copytree(ROOT / rel, bare / rel,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare copy: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in [w["name"] for w in spec["workloads"]] + UNLISTED:
        for trace in (0, 1):
            proc = run(ROOT, name, trace)
            problems += check_result(spec, name, trace, proc)
            print(f"{name} trace {trace}: exit {proc.returncode}", flush=True)
    problems += check_bare_copy()
    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
