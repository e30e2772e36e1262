"""Run the benchmark over many seeds and record every result.

    python3 bench/series.py --runs 10 --out bench/results/a.jsonl
    python3 bench/series.py --runs 10 --out bench/results/a.jsonl --out bench/results/b.jsonl

Each run is a fresh process of run.py on both workloads, with seeds from
1, run_seconds from BENCHMARK.json and tracing off; its result is
appended to a results file. With two --out files the runs alternate
between them (which goes first alternates too), so the two sets see the
same machine; the second set uses seeds offset by 1000. Exits 1 if any
run exits non-zero or reports a failed call.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("enum-dense", "exact-tall")
SEED_OFFSET = 1000


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--out", action="append", required=True, help="results file (JSON lines)")
    args = parser.parse_args()
    if len(args.out) > 2:
        parser.error("at most two --out files")
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
    for path in args.out:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    failures = 0
    for i in range(args.runs):
        for workload in WORKLOADS:
            sets = list(enumerate(args.out))
            if i % 2:
                sets.reverse()
            for k, path in sets:
                seed = 1 + i + SEED_OFFSET * k
                command = [
                    sys.executable, str(BENCH / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--record", path,
                ]
                done = subprocess.run(command, cwd=BENCH.parent, capture_output=True, text=True)
                last = done.stdout.strip().splitlines()[-1:] or [done.stderr.strip()[-300:]]
                print(f"{workload} seed {seed} -> {path}: exit {done.returncode} {last[0][:160]}", flush=True)
                try:
                    failed = json.loads(last[0])["failed"]
                except (ValueError, KeyError, TypeError):
                    failed = 1
                failures += done.returncode != 0 or failed != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
