#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 benchmarks/harness/compare.py BASE_DIR NEW_DIR

Each directory holds result files that run.py wrote to .bench_out/results/.
Prints each side's median and quartiles and flags every end-to-end metric
whose median got worse by more than its bound in BENCHMARK.json.  Refuses
(exit 2) to compare results measured on different lensframe backends.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(directory: Path) -> dict[tuple[str, int], list[dict]]:
    runs: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        runs.setdefault((result["workload"], result["trace"]), []).append(result)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    base, new = (load(Path(a)) for a in argv)
    backends = {json.dumps(r["backend"]) for side in (base, new) for rs in side.values() for r in rs}
    if len(backends) > 1:
        print(f"refusing to compare results from different backends: {sorted(backends)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    regressed = False
    print("median [q1, q3] of each side; the percentage is the change, positive when better")
    for key in sorted(base.keys() & new.keys()):
        for metric in base[key][0]["metrics"]:
            b = quartiles([r["metrics"][metric]["value"] for r in base[key]])
            n = quartiles([r["metrics"][metric]["value"] for r in new[key]])
            worse = (n[1] - b[1]) if better[metric] == "lower" else (b[1] - n[1])
            share = worse / abs(b[1]) if b[1] else 0.0
            flag = ""
            if metric in bounds and share > bounds[metric]:
                flag, regressed = f"  WORSE by more than {bounds[metric]:.0%}", True
            print(
                f"{key[0]:8} {metric:48} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]"
                f"  new {n[1]:.6g} [{n[0]:.6g}, {n[2]:.6g}]  {-share:+.1%}{flag}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
