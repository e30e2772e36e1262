"""In-process benchmark of the iqpsim command line.

Usage (from the repository root):

    python3 bench/run.py --workload enum-dense --seed 1 --seconds 45 --trace 0

Calls ``iqpsim.cli.main([...])`` in this process, one call at a time
(closed loop, one client), with stdout captured. One round runs one
whole cycle of every phase of the workload, in a fixed order, so the mix
stays the same when the code gets faster and a slow spell of the machine
is shared by all phases. Rounds repeat until ``--seconds`` have passed.
Every output is checked after its call, outside the timed region.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` each round runs every phase twice,
once plain and once traced (alternating which goes first), and the JSON
holds the per-layer metrics and the tracing overhead per phase.
See README.md in this directory.
"""

import argparse
import gc
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 4  # extra set-ups in fresh processes; setup_s is the median of 1 + this
LOGGED_PROBLEMS = 5
CALIBRATION_SECONDS = 0.015  # calibration_work() at the reference speed (2-core Xeon VM, Python 3.11)


def import_cli():
    """Import iqpsim from this checkout's sources, never from elsewhere."""
    if not (SRC / "iqpsim" / "cli.py").is_file():
        sys.exit(f"bench: no iqpsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from iqpsim import cli

    if Path(cli.__file__).resolve().parent != SRC / "iqpsim":
        sys.exit(f"bench: imported iqpsim from {cli.__file__}, not from {SRC}")
    return cli


class Runner:
    def __init__(self, cli, workload: str, seed: int, directory: Path):
        import workloads

        self.cli = cli
        self.workloads = workloads
        self.workload = workload
        self.seed = seed
        self.phases = workloads.WORKLOADS[workload]
        self.inputs = workloads.Inputs(directory)
        self.pit: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.rounds = 0
        self.traced_bytes = 0
        self.problems: list[str] = []
        self.pending: dict = {}
        self.per_round: dict[str, list[float]] = {p.name: [] for p in self.phases}
        self.cpu = 0.0
        self.wall = 0.0

    def cycle(self, phase, round_index: int, copy: int = 0) -> list:
        pre = self.pending.pop((phase.name, round_index, copy), None)
        if pre is not None:
            return pre
        rng = random.Random(f"{self.workload}/{self.seed}/{phase.name}/{round_index}/{copy}")
        return [self.workloads.make_call(s, rng, self.inputs) for s in phase.specs]

    def prepare(self) -> None:
        """Round 0's instances and one warm-up call per phase."""
        for phase in self.phases:
            self.pending[(phase.name, 0, 0)] = self.cycle(phase, 0)
        for phase in self.phases:
            rng = random.Random(f"{self.workload}/{self.seed}/{phase.name}/warm-up")
            call = self.workloads.make_call(phase.specs[0].tiny(), rng, self.inputs)
            self.run_cycle([call], counted=False)

    def invoke(self, call, wall_clock: bool) -> tuple[float, object, str]:
        """Run one call in this process; returns (seconds, exit code, stdout).

        Calls are timed in CPU time of this process (all threads) and of
        the child processes the call waited for, which on a shared VM
        leaves out the time the hypervisor steals; for a single-threaded
        call on an idle host it equals wall time. With wall_clock the
        call is timed in wall time instead, where work spread over
        threads or processes can finish sooner.
        """
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        start_wall, start = time.perf_counter(), cpu_seconds()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(call.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed call, not a dead benchmark
            code = f"{type(exc).__name__}: {exc}"
        cpu, wall = cpu_seconds() - start, time.perf_counter() - start_wall
        self.cpu += cpu
        self.wall += wall
        if code != 0:
            self.problem(f"{call.argv[0]} exited with {code}: {err.getvalue().strip()[:200]}")
        return wall if wall_clock else cpu, code, out.getvalue()

    def problem(self, text: str) -> None:
        if len(self.problems) < LOGGED_PROBLEMS:
            self.problems.append(text)
            print(f"bench: {text}", file=sys.stderr)

    def run_cycle(self, calls, counted: bool = True, wall_clock: bool = False) -> tuple[float, int, int, int]:
        """Time every call, then check the outputs; (seconds, calls, draws, bytes)."""
        seconds = done = draws = out_bytes = 0
        finished = []
        for call in calls:
            dt, code, out = self.invoke(call, wall_clock)
            Path(call.argv[1]).unlink(missing_ok=True)
            seconds += dt
            if code != 0:
                # a warm-up that fails leaves the run incorrect, not failed
                self.failed += counted
                self.wrong += not counted
                continue
            finished.append((call, out))
            done += 1
            draws += call.draws
            out_bytes += len(out)
        self.attempted += len(calls) if counted else 0
        self.check(finished)
        return seconds, done, draws, out_bytes

    def check(self, finished) -> None:
        """Check outputs in a forked child, so the references' memory stays
        out of this process's peak RSS; the child reports back through a pipe."""
        sys.stdout.flush()
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            status = 1
            try:
                report = {"problems": [], "pit": []}
                for call, out in finished:
                    try:
                        report["pit"] += call.check(out) or []
                    except (self.workloads.ref.CheckFailed, KeyError, ValueError, TypeError, IndexError) as exc:
                        argv = " ".join(call.argv[:1] + call.argv[2:])
                        report["problems"].append(f"{argv}: {type(exc).__name__}: {exc}")
                with os.fdopen(write_fd, "w") as pipe:
                    json.dump(report, pipe)
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        with os.fdopen(read_fd) as pipe:
            text = pipe.read()
        _, status = os.waitpid(pid, 0)
        if status != 0 or not text:
            self.wrong += max(1, len(finished))
            self.problem(f"output checker ended with status {status}")
            return
        report = json.loads(text)
        self.pit += report["pit"]
        self.wrong += len(report["problems"])
        for text in report["problems"]:
            self.problem(text)

    def measure(self, seconds: float, tracer=None) -> dict:
        """Run whole rounds until the time is up; per-phase totals."""
        names = [p.name for p in self.phases]
        plain = {n: [0.0, 0, 0] for n in names}
        traced = {n: [0.0, 0, 0] for n in names}
        start = time.perf_counter()
        while self.rounds == 0 or time.perf_counter() - start < seconds:
            for phase in self.phases:
                order = [False] if tracer is None else [self.rounds % 2 == 1, self.rounds % 2 == 0]
                for copy, with_trace in enumerate(order):
                    calls = self.cycle(phase, self.rounds, copy)
                    if with_trace:
                        tracer.install(phase.name)
                    try:
                        dt, done, draws, out_bytes = self.run_cycle(calls, wall_clock=phase.wall_clock)
                    finally:
                        if with_trace:
                            tracer.uninstall()
                    acc = (traced if with_trace else plain)[phase.name]
                    acc[0] += dt
                    acc[1] += done
                    acc[2] += draws
                    if with_trace:
                        self.traced_bytes += out_bytes
                    elif tracer is None and dt:
                        work = draws if phase.counts_draws else done
                        speed = calibration_seconds(phase.wall_clock) / CALIBRATION_SECONDS
                        self.per_round[phase.name].append(work / dt * speed)
            self.rounds += 1
        return {"plain": plain, "traced": traced}

    def correct(self) -> bool:
        ks = self.workloads.ref.ks_statistic(self.pit)
        if ks > self.workloads.ref.KS_LIMIT:
            self.problem(f"sample draws fail goodness of fit: sqrt(N) D = {ks:.3f}")
            return False
        return self.wrong == 0


def calibration_work() -> int:
    """A fixed piece of pure-Python work, independent of iqpsim.

    It mixes what the program spends its time on: GF(2) elimination on
    packed ints in a dict basis, and JSON emission of bit strings.
    """
    rng = random.Random(12345)
    rows = [rng.getrandbits(64) for _ in range(2000)]
    basis: dict[int, int] = {}
    total = 0
    for v in rows * 2:
        for p in sorted(basis, reverse=True):
            if (v >> p) & 1:
                v ^= basis[p]
        if v:
            basis[v.bit_length() - 1] = v
        total += v.bit_count()
        if len(basis) >= 48:
            basis.clear()
    return total + len(json.dumps([{"x": format(r, "064b"), "p": r / 3.0} for r in rows]))


def calibration_seconds(wall_clock: bool) -> float:
    """Best of 3 timings of calibration_work, in the clock a phase uses.

    The shared VM runs up to 1.7 times faster or slower for minutes at a
    time, also in CPU time; scaling a phase's rate by the machine's
    speed measured right after the phase takes that out.
    """
    times = []
    for _ in range(3):
        start_wall, start = time.perf_counter(), cpu_seconds()
        calibration_work()
        times.append(time.perf_counter() - start_wall if wall_clock else cpu_seconds() - start)
    return min(times)


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def child_setup(workload: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append this run's result as one JSON line to a file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # a terminated run still removes its scratch inputs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    cli = import_cli()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    directory = BENCH / ".work" / str(os.getpid())
    directory.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(cli, args.workload, args.seed, directory)
        runner.prepare()
        own_setup = time.process_time()  # CPU time since the process started
        own_setup *= CALIBRATION_SECONDS / calibration_seconds(False)  # at the reference speed
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        setups = [own_setup] + [child_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        gc.freeze()  # the benchmark's own heap stays out of the calls' collections
        totals = runner.measure(args.seconds, tracer)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            directory.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        metrics = traced_metrics(runner, tracer, totals)
    else:
        metrics = plain_metrics(runner, setups)
    result = {
        "correct": runner.correct(),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"# workload {args.workload}, seed {args.seed}, {runner.rounds} rounds, "
          f"{runner.attempted} calls attempted, {runner.failed} failed, {runner.wrong} wrong")
    print(f"# calls took {runner.cpu:.3f} s of CPU time and {runner.wall:.3f} s of wall time")
    for phase in runner.phases:
        seconds, calls, draws = totals["plain"][phase.name]
        clock = "wall" if phase.wall_clock else "CPU"
        raw = (draws if phase.counts_draws else calls) / seconds if seconds else 0.0
        print(f"# phase {phase.name:14s} {calls:5d} calls {draws:6d} draws {seconds:8.3f} s {clock}"
              f" {raw:10.4g}/s unscaled")
    for name, (value, unit) in metrics.items():
        print(f"# {name:32s} {value:14.6g} {unit}")
    if args.record:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "rounds": runner.rounds, **result}
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def plain_metrics(runner: Runner, setups: list[float]) -> dict:
    """Median set-up time, peak RSS, and each phase's median per-round rate
    at the reference speed."""
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for phase in runner.phases:
        metrics[phase.metric] = (statistics.median(runner.per_round[phase.name]), "1/s")
    return metrics


def traced_metrics(runner: Runner, tracer, totals: dict) -> dict:
    import tracing

    metrics = tracing.layer_metrics(tracer.totals(), runner.rounds, runner.traced_bytes)
    for phase in runner.phases:
        plain_s, traced_s = totals["plain"][phase.name][0], totals["traced"][phase.name][0]
        metrics[f"trace.overhead.{phase.name}"] = (traced_s / plain_s - 1.0 if plain_s else 0.0, "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
