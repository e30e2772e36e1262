"""Summarize recorded benchmark runs into a BENCH_*.json trajectory file.

    python3 bench/run.py --workload enum-dense --seed 1 --trace 0 --record runs.jsonl
    python3 tools/bench_summary.py runs.jsonl BENCH_12.json

Reads the JSON lines that `bench/run.py --record FILE` appends. For each
workload and each end-to-end metric of BENCHMARK.json it writes the
median, the quartiles (statistics.quantiles, n=4, as bench/compare.py
takes them) and the run count, with the runs' seeds, run length and
call counts, the commit checked out here (the one the runs measured when
the file is written right after them) and CALIBRATION_SECONDS, the
calibration time that every rate is scaled to. As the measured tree may
sit uncommitted on that commit, it also writes src_sha256, the sha256 of
src/iqpsim/*.py (each file's name, a NUL, its bytes and a NUL, in name
order), and src_differs_from_head, whether git sees src as changed or
untracked against HEAD (null outside a git checkout). Traced runs hold
no end-to-end metrics and are skipped.
"""

import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache files in bench/
sys.path.insert(0, str(ROOT / "bench"))
from run import CALIBRATION_SECONDS  # noqa: E402


def summarize(runs: list[dict], names: list[str]) -> dict:
    workloads: dict = {}
    for run in runs:
        workloads.setdefault(run["workload"], []).append(run)
    out = {}
    for workload, group in sorted(workloads.items()):
        metrics = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in group if name in r["metrics"]]
            if values:
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
                unit = group[0]["metrics"][name]["unit"]
                metrics[name] = {"median": med, "q1": q1, "q3": q3, "runs": len(values), "unit": unit}
        out[workload] = {
            "seeds": sorted(r["seed"] for r in group),
            "run_seconds": sorted({r["seconds"] for r in group}),
            "attempted": sum(r["attempted"] for r in group),
            "failed": sum(r["failed"] for r in group),
            "metrics": metrics,
        }
    return out


def source_state() -> dict:
    """The sha256 of the package source and whether src differs from HEAD."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "iqpsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    status = subprocess.run(
        ["git", "status", "--porcelain", "--", "src"], cwd=ROOT, capture_output=True, text=True
    )
    differs = bool(status.stdout.strip()) if status.returncode == 0 else None
    return {"src_sha256": digest.hexdigest(), "src_differs_from_head": differs}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    with open(argv[0], encoding="utf-8") as handle:
        runs = [json.loads(line) for line in handle if line.strip()]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    summary = {
        "commit": commit.stdout.strip() or None,
        "calibration_seconds": CALIBRATION_SECONDS,
        **source_state(),
        "workloads": summarize([r for r in runs if not r.get("trace")], names),
    }
    Path(argv[1]).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
