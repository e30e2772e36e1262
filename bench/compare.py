"""Compare two sets of recorded runs, or show the spread of one set.

    python3 bench/compare.py bench/results/a.jsonl bench/results/b.jsonl
    python3 bench/compare.py bench/results/a.jsonl

For every workload and metric, prints each side's median and quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median. With two
files it also prints the change of the median, in the metric's better
direction, and whether it stays within the metric's bound from
BENCHMARK.json; with one file, whether the spread does. Failed calls are
compared as a share of attempted calls, which must match exactly.
Exits 1 if any bound is exceeded.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    """workload -> {"failed": [share, ...], "metrics": {name: [value, ...]}}"""
    out: dict = defaultdict(lambda: {"failed": [], "metrics": defaultdict(list)})
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            run = json.loads(line)
            side = out[run["workload"]]
            side["failed"].append(run["failed"] / run["attempted"])
            for name, metric in run["metrics"].items():
                side["metrics"][name].append(metric["value"])
    return out


def summary(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sides = [load(p) for p in argv]
    bad = 0
    for workload in sorted(set().union(*sides)):
        print(f"== {workload}: runs {' vs '.join(str(len(s[workload]['failed'])) for s in sides)}")
        shares = [sorted(set(s[workload]["failed"])) for s in sides]
        same = len(shares) == 1 or shares[0] == shares[1]
        bad += not same
        print(f"   failed share {' vs '.join(map(str, shares))} {'ok' if same else 'DIFFERS'}")
        names = sorted(set().union(*(s[workload]["metrics"] for s in sides)))
        for name in names:
            meta = metrics.get(name, {})
            bound = meta.get("bound")
            cells = []
            stats = []
            for side in sides:
                values = side[workload]["metrics"].get(name)
                if not values:
                    cells.append(f"{'-':>38s}")
                    continue
                med, q1, q3, spread = summary(values)
                stats.append((med, spread))
                cells.append(f"{med:12.5g} [{q1:10.5g},{q3:10.5g}] {spread:6.3f}")
            verdict = ""
            if bound is not None and len(stats) == len(sides):
                if len(sides) == 2:
                    (m1, _), (m2, _) = stats
                    worse = (m2 - m1) / m1 if meta["better"] == "lower" else (m1 - m2) / m1
                    ok = worse <= bound
                    verdict = f"worse by {worse:+.3f}, bound {bound}: {'ok' if ok else 'EXCEEDED'}"
                else:
                    ok = stats[0][1] <= bound
                    verdict = f"spread bound {bound}: {'ok' if ok else 'EXCEEDED'}"
                bad += not ok
            print(f"   {name:30s} {' | '.join(cells)}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
