"""Golden digests of a tiny synthetic CLI chain.

Runs every stage once at seed 0 and compares the sha256 of each file it
wrote, dataset headers and manifests included, with a checked-in table, so a
change that claims byte-identical output proves it. The run directory is
hashed as `<run>`, and each manifest's `versions` key, its last, is left out:
Python and numpy versions differ between machines. A change that moves
output bytes on purpose regenerates the table and says so:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
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
    ["sweep-k", "--problems-file", "problems.jsonl", "--dpair", "dpair.jsonl",
     "--ks", "1,2,4", "--epsilon", "0.4"],
    ["train", "--pairs-file", "dgpair.jsonl", "--epochs", "3", "--alphabet", "64",
     "--order", "1"],
    ["metrics", "--problems-file", "problems.jsonl", "--dgen", "samples.jsonl",
     "--k", "1,4"],
]


def chain_digests(base: Path) -> dict[str, str]:
    """Run STAGES in `base` and return {file name: sha256} of what they wrote."""
    base.mkdir(parents=True, exist_ok=True)
    for stage in STAGES:
        args = [str(base / a) if a.endswith(".jsonl") else a for a in stage]
        assert main(["--seed", "0", "--out", str(base), *args]) == 0, stage
    digests = {}
    for path in sorted(base.iterdir()):
        data = path.read_bytes().replace(str(base).encode(), b"<run>")
        if path.name.endswith("_manifest.json"):
            data = data[:data.index(b',\n  "versions": ')]
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def test_chain_bytes_match_golden(tmp_path):
    assert chain_digests(tmp_path / "run") == json.loads(GOLDEN.read_text())


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(chain_digests(Path(tmp) / "run"), indent=2,
                                     sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
