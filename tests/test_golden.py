"""Golden digests of a tiny synthetic CLI chain.

STAGES is the one chain, and golden_chain.json the one table, behind every
byte-identity check. Each stage runs once at seed 0, and the sha256 of each
file the chain wrote, dataset headers and manifests included, must equal the
table, so a change that claims byte-identical output proves it. The run
directory is hashed as `<run>`, and each manifest's `versions` key, its last,
is left out: Python and numpy versions differ between machines. A row that
names a `--variant` writes into its own directory, and its files are keyed
`<variant>/<file>`. The chain runs in-process here, as one `python -m
steppref` process per stage in acceptance 10, and as one process per stage
of any command with --check, which names each file that is missing or
differs:

    PYTHONPATH=src python tests/test_golden.py --check "$(mktemp -d)/chain" python -m steppref

--check also reads the dispatch targets named in NPY_DISABLE_CPU_FEATURES
(split on spaces or commas) and names each manifest of the run, in any
directory, whose `versions.numpy_dispatch` lists one: numpy ignored the
variable there, and the run did not check what it was meant to.

A change that moves output bytes on purpose regenerates the table and says so:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from steppref.cli import main

GOLDEN = Path(__file__).with_name("golden_chain.json")

STAGES = [
    ["synth", "--problems", "12", "--t", "6", "--epsilon", "0.12", "--samples", "4"],
    ["rft", "--problems-file", "problems.jsonl", "--n", "6", "--epsilon", "0.12"],
    ["pairs", "--problems-file", "problems.jsonl", "--dgen", "dgen.jsonl",
     "--drft", "drft.jsonl"],
    ["explore", "--problems-file", "problems.jsonl", "--dpair", "dpair.jsonl",
     "--k", "3"],
    ["gpair", "--problems-file", "problems.jsonl", "--dpair", "dpair.jsonl",
     "--k", "3"],
    ["gpair", "--problems-file", "problems.jsonl", "--dpair", "dpair.jsonl",
     "--k", "3", "--variant", "first-step"],
    ["gpair", "--problems-file", "problems.jsonl", "--dpair", "dpair.jsonl",
     "--k", "3", "--variant", "reject-all"],
    ["sweep-k", "--problems-file", "problems.jsonl", "--dpair", "dpair.jsonl",
     "--ks", "1,2,4", "--epsilon", "0.4"],
    ["train", "--pairs-file", "dgpair.jsonl", "--epochs", "3", "--alphabet", "64",
     "--order", "1"],
    ["metrics", "--problems-file", "problems.jsonl", "--dgen", "samples.jsonl",
     "--k", "1,4"],
]


def chain_digests(base: Path, launch=main) -> dict[str, str]:
    """Run STAGES in `base` through `launch`, which runs one command line and
    returns its exit code, and return {file name: sha256} of what they wrote."""
    base.mkdir(parents=True, exist_ok=True)
    for stage in STAGES:
        args = [str(base / a) if a.endswith(".jsonl") else a for a in stage]
        out = base / stage[stage.index("--variant") + 1] if "--variant" in stage else base
        assert launch(["--seed", "0", "--out", str(out), *args]) == 0, stage
    digests = {}
    for path in sorted(p for p in base.rglob("*") if p.is_file()):
        data = path.read_bytes().replace(str(base).encode(), b"<run>")
        if path.name.endswith("_manifest.json"):
            data = data[:data.index(b',\n  "versions": ')]
        digests[path.relative_to(base).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


def test_chain_bytes_match_golden(tmp_path):
    assert chain_digests(tmp_path / "run") == json.loads(GOLDEN.read_text())


def processes(command: list[str], **kwargs):
    """A launcher that runs each command line as one `command ... argv` process."""
    return lambda argv: subprocess.run([*command, *argv], **kwargs).returncode


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            GOLDEN.write_text(json.dumps(chain_digests(Path(tmp) / "run"), indent=2,
                                         sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
    elif sys.argv[1:2] == ["--check"] and len(sys.argv) > 3:
        want = json.loads(GOLDEN.read_text())
        got = chain_digests(Path(sys.argv[2]), processes(sys.argv[3:]))
        bad = sorted(n for n in want.keys() | got.keys() if want.get(n) != got.get(n))
        for name in bad:
            print(name, "missing" if name not in got else "differs from the table")
        off = set(os.environ.get("NPY_DISABLE_CPU_FEATURES", "").replace(",", " ").split())
        manifests = sorted(Path(sys.argv[2]).rglob("*_manifest.json"))
        for path in manifests:
            listed = off & set(json.loads(path.read_text())["versions"]["numpy_dispatch"])
            if listed:
                bad.append(path)
                print(path, "lists turned-off dispatch targets", *sorted(listed))
        if off:
            print(f"{len(manifests)} manifests checked against turned-off targets", *sorted(off))
        sys.exit(1 if bad else 0)
    else:
        sys.exit("usage: test_golden.py --write | --check DIR COMMAND...")
