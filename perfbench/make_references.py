"""Compute the stored reference hashes in ``references.json``.

For each seed, every input the workload times for that seed is run once by
the plain serial path — no result store, no queue — and its output hashed.
The benchmark's samples go through stores (and, for ``queue-sweep``, the
work queue), so a stored reference checks those paths against this one.
The FIG5 hash at base seed 100 is also checked against ``BENCH_10.json``.

Usage (from the repository root)::

    python3 perfbench/make_references.py --workload fig5-sweep --seeds 0-10,100
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
sys.path.insert(0, str(ROOT / "src"))

from workloads import ANCHOR_SEED, WORKLOADS, series_hash  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, help="e.g. 0-10,100")
    args = parser.parse_args(argv)

    document = json.loads(REFERENCES.read_text(encoding="utf8")) if REFERENCES.exists() else {}
    table = document.setdefault("full", {}).setdefault(args.workload, {})
    for seed in parse_seeds(args.seeds):
        workload = WORKLOADS[args.workload](seed, HERE)
        for key in workload.keys():
            if str(key) not in table:
                table[str(key)] = series_hash(workload.reference(key))
                print(f"{args.workload} input {key}: {table[str(key)]}", flush=True)
    if args.workload == "fig5-sweep" and str(ANCHOR_SEED) in table:
        bench = json.loads((ROOT / "BENCH_10.json").read_text(encoding="utf8"))
        pinned = bench["runs"]["current"]["suite"]["FIG5"]["rows_sha256"]
        if table[str(ANCHOR_SEED)] != pinned:
            print(f"error: FIG5 at seed {ANCHOR_SEED} does not match BENCH_10.json", file=sys.stderr)
            return 1
        print(f"FIG5 at seed {ANCHOR_SEED} matches BENCH_10.json ({pinned[:12]})")
    document["full"] = {
        name: dict(sorted(entries.items(), key=lambda kv: int(kv[0])))
        for name, entries in sorted(document["full"].items())
    }
    REFERENCES.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
