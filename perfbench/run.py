#!/usr/bin/env python3
"""Benchmark of the overpoly CLI: one fresh process per command, memos cold.

Run from the root of a source tree; the tree's src/ is what is measured:

    python3 perfbench/run.py --workload roots --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload checks --seed 0 --seconds 60 --trace 1
    python3 perfbench/run.py --selftest

A single client sends the workload's commands in a closed loop: each command
is its own `python -m overpoly.cli ...` process, and the next starts only
after the previous one has exited, so one command runs at a time and every
command starts its memos cold, as every CLI call does.  Workloads and their
seeds are defined in workloads.py, the output checks in oracle.py.

Set-up warms the bytecode with one untimed import.  Passes over the
workload's commands then repeat until the next one would end after --seconds
(at least one pass runs); before each pass, a few fresh interpreters are
timed from spawn to `import overpoly.cli` returning.  The oracle checks each
output after its pass, outside the timed region.

Every timed child runs between two runs of reference.py, a fixed job that
does not import overpoly, and its wall time is scaled by REFERENCE_S over
their mean: a shared machine's speed drifts by up to 2x within minutes, and
the scaled times do not (see calibrated()).

--trace 0 reports the end-to-end metrics, all medians:
  job_s         scaled wall seconds for one pass over the workload's commands
                (the sum of the commands' scaled spawn-to-exit times)
  setup_s       scaled wall seconds from spawning an interpreter to the
                import returning
  peak_rss_mib  largest ru_maxrss among a pass's command processes
--trace 1 alternates untraced passes with passes whose commands run under
tracer.py, and reports the per-layer metrics of the traced passes, the
`-X importtime` breakdown of the import, and trace.overhead_ratio (traced
over untraced job_s).

Every run prints a readable report, then as its last line one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A command fails when its exit code is not 0 or the oracle rejects its output;
fail_ratio = failed / attempted is printed with the report.

Children get an explicit environment: PYTHON* and OVERPOLY_* variables are
dropped (so no worker pool and no config), PYTHONPATH is the tree's src/ and
PYTHONHASHSEED is 0.  Each run keeps its scratch files in its own
.perfbench_work-* directory in the tree, removed when the run ends.
`--append LABEL` adds the run's numbers to perfbench/results.json.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from oracle import Oracle, load_expected
from reference import CHECKSUM as REFERENCE_CHECKSUM
from tracer import layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS_PATH = HERE / "results.json"

# Set-up is probed SETUP_PROBES times before every pass rather than in one
# block, so that a burst of noise from other load cannot skew every probe.
SETUP_PROBES = 3
IMPORTTIME_REPEATS = 5
# A fixed scale, near the time reference.py takes on a lightly loaded 2-core
# x86_64 machine.  Every timed child runs between two runs of reference.py and
# its time is scaled by REFERENCE_S over their mean, so job_s and setup_s read
# as seconds at that speed (see calibrated()).  Changing it changes every
# reported time by the same factor, so it must stay fixed for runs to compare.
REFERENCE_S = 0.2
# Children still running this long after the start of a run are killed, so a
# run always ends within the 180 s its caller allows.
RUN_LIMIT_S = 165.0
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

_IMPORT_PROBE = "import time, overpoly.cli; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
_FILE_PROBE = "import overpoly; print(overpoly.__file__)"
_IMPORTTIME_LINE = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$")


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "OVERPOLY_"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Outcome:
    """How one child process ended."""

    seconds: float
    returncode: int
    maxrss_mib: float
    stdout: str


class Runner:
    """Runs one child at a time to completion; kills any still running at the deadline.

    Children's output goes to files in `work`, a scratch directory of this run.
    """

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.reference_s: list[float] = []
        # The time of the reference job, if it was the last child run.
        self.last_reference: float | None = None

    def run(self, argv: list[str], name: str, stderr_to_stdout: bool = False) -> Outcome:
        self.last_reference = None
        out_path, err_path = self.work / f"{name}.out", self.work / f"{name}.err"
        finished = False
        lock = threading.Lock()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv],
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=out if stderr_to_stdout else err,
                env=self.env,
                cwd=ROOT,
            )

            def kill():
                with lock:
                    if not finished:
                        os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(max(0.5, self.deadline - time.monotonic()), kill)
            timer.start()
            try:
                # Wait without reaping, so the timer can only ever signal this child.
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                seconds = perf_counter() - start
                with lock:
                    finished = True
            finally:
                timer.cancel()
                with lock:
                    if not finished:
                        os.kill(proc.pid, signal.SIGKILL)
                        finished = True
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        return Outcome(seconds, proc.returncode, usage.ru_maxrss / 1024, stdout)


def summary(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    result = {"median": statistics.median(ordered), "n": n}
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= 10:
            result[f"p{p:g}"] = ordered[rank - 1]
            break
    return result


def warm(runner: Runner) -> str:
    """Compile and cache the tree's bytecode; returns overpoly.__file__ relative to the tree."""
    outcome = runner.run(["-c", _FILE_PROBE], "warm")
    location = Path(outcome.stdout.strip()) if outcome.returncode == 0 else None
    if location is None or SRC.resolve() not in location.resolve().parents:
        raise SystemExit(f"overpoly does not import from {SRC} (got {outcome.stdout.strip()!r})")
    return str(location.resolve().relative_to(ROOT.resolve()))


def reference(runner: Runner) -> float:
    """Wall seconds of one run of reference.py, the fixed calibration job."""
    outcome = runner.run([str(HERE / "reference.py")], "reference")
    if outcome.returncode != 0 or json.loads(outcome.stdout)["checksum"] != REFERENCE_CHECKSUM:
        raise SystemExit("reference.py failed or printed a wrong checksum")
    runner.reference_s.append(outcome.seconds)
    runner.last_reference = outcome.seconds
    return outcome.seconds


def calibrated(runner: Runner, jobs) -> list:
    """Runs each job between two runs of the reference job; returns (result, scale) pairs.

    The speed of a shared machine drifts by up to 2x over seconds to minutes,
    and every kind of work in a command slows by about the same factor as the
    reference job run next to it.  `scale` is REFERENCE_S over the mean of the
    reference times just before and just after the job, so a job's seconds
    times its scale read as seconds at the reference speed.  When the last
    child run was the reference job, its time serves as the first `before`.
    """
    done = []
    before = runner.last_reference if runner.last_reference is not None else reference(runner)
    for job in jobs:
        result = job()
        after = reference(runner)
        done.append((result, REFERENCE_S / ((before + after) / 2)))
        before = after
    return done


def time_setup(runner: Runner, probes: int) -> list[float]:
    """Scaled seconds from spawning an interpreter to `import overpoly.cli` returning."""

    def probe() -> float:
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        outcome = runner.run(["-c", _IMPORT_PROBE], "setup")
        if outcome.returncode != 0:
            raise SystemExit("import overpoly.cli failed")
        return float(outcome.stdout) - spawned

    return [seconds * scale for seconds, scale in calibrated(runner, [probe] * probes)]


def importtime(runner: Runner) -> tuple[dict[str, float], float]:
    """`-X importtime` of the import: cumulative seconds per top-level module, and of mpmath."""
    outcome = runner.run(["-X", "importtime", "-c", "import overpoly.cli"], "importtime", True)
    if outcome.returncode != 0:
        raise SystemExit("import overpoly.cli failed")
    top: dict[str, float] = {}
    mpmath_s = 0.0
    for line in outcome.stdout.splitlines():
        match = _IMPORTTIME_LINE.match(line)
        if not match:
            continue
        cumulative_s = int(match.group(1)) / 1e6
        name, depth = match.group(3), len(match.group(2)) - 1
        if name == "mpmath":
            mpmath_s = cumulative_s
        if depth == 0:
            top[name] = top.get(name, 0.0) + cumulative_s
    return top, mpmath_s


@dataclass
class Pass:
    """One pass over a workload's commands; `layers` is set for a traced pass."""

    seconds: float
    rss_mib: float
    attempted: int
    failed: int
    layers: dict | None


def run_pass(runner: Runner, workload, oracle, traced: bool) -> Pass:
    """One pass over the workload's commands; its time is the sum of the commands' scaled wall times."""
    commands = workload.pass_order()
    jobs = []
    for index, argv in enumerate(commands):
        if traced:
            spans = runner.work / f"spans-{index}.json"
            child = [str(HERE / "tracer.py"), str(spans), str(index), *argv]
        else:
            child = ["-m", "overpoly.cli", *argv]
        jobs.append(functools.partial(runner.run, child, f"cmd-{index}"))
    timed = calibrated(runner, jobs)
    outcomes = [outcome for outcome, _ in timed]
    seconds = sum(outcome.seconds * scale for outcome, scale in timed)

    failed = sum(
        not oracle.check(argv, outcome.returncode, outcome.stdout)
        for argv, outcome in zip(commands, outcomes)
    )
    layers = None
    if traced:
        traces = []
        for index in range(len(commands)):
            path = runner.work / f"spans-{index}.json"
            if path.exists():
                with open(path, encoding="utf-8") as handle:
                    data = json.load(handle)
                traces.append((data["spans"], data["counters"]))
                path.unlink()
        layers = layer_metrics(traces)
    rss = max(outcome.maxrss_mib for outcome in outcomes)
    return Pass(seconds, rss, len(commands), failed, layers)


def _repeat(kinds, seconds: float, deadline: float, run) -> list:
    """Cycle through kinds until the next cycle would end after `seconds`; at least one cycle."""
    done = []
    start = perf_counter()
    while True:
        for kind in kinds:
            done.append(run(kind))
        elapsed = perf_counter() - start
        per_cycle = elapsed / (len(done) // len(kinds))
        if elapsed + per_cycle > seconds or time.monotonic() + per_cycle > deadline:
            return done


def measure(workload, seconds: float, trace: bool, oracle) -> dict:
    """One benchmark run; returns its metrics, sample summaries and run facts."""
    with tempfile.TemporaryDirectory(prefix=".perfbench_work-", dir=ROOT) as work:
        return _measure(Runner(Path(work), time.monotonic() + RUN_LIMIT_S), workload, seconds, trace, oracle)


def _measure(runner: Runner, workload, seconds: float, trace: bool, oracle) -> dict:
    info = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "overpoly_file": warm(runner),
        "commands": [" ".join(argv) for argv in workload.commands],
    }
    metrics: dict[str, tuple[float, str]] = {}
    setup: list[float] = []

    def one_pass(traced: bool) -> Pass:
        if not trace:
            setup.extend(time_setup(runner, SETUP_PROBES))
        return run_pass(runner, workload, oracle, traced)

    if not trace:
        passes = _repeat([False], seconds, runner.deadline, one_pass)
        job = [p.seconds for p in passes]
        rss = [p.rss_mib for p in passes]
        metrics["job_s"] = (statistics.median(job), "s")
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mib"] = (statistics.median(rss), "MiB")
        samples = {"job_s": summary(job), "setup_s": summary(setup), "peak_rss_mib": summary(rss)}
    else:
        imports = [importtime(runner) for _ in range(IMPORTTIME_REPEATS)]
        passes = _repeat([False, True], seconds, runner.deadline, one_pass)
        traced = [p for p in passes if p.layers is not None]
        untraced = [p for p in passes if p.layers is None]
        for name, (_, unit) in traced[0].layers.items():
            metrics[name] = (statistics.median(p.layers[name][0] for p in traced), unit)
        overpoly_s = [sum(v for k, v in top.items() if k == "overpoly" or k.startswith("overpoly."))
                      for top, _ in imports]
        metrics["setup.import_overpoly_s"] = (statistics.median(overpoly_s), "s")
        metrics["setup.import_mpmath_s"] = (statistics.median(m for _, m in imports), "s")
        traced_job = statistics.median(p.seconds for p in traced)
        untraced_job = statistics.median(p.seconds for p in untraced)
        metrics["trace.overhead_ratio"] = (traced_job / untraced_job, "ratio")
        samples = {"traced job_s": summary([p.seconds for p in traced]),
                   "untraced job_s": summary([p.seconds for p in untraced])}
        first = imports[0][0]
        info["importtime_top_s"] = {
            name: statistics.median(top.get(name, 0.0) for top, _ in imports)
            for name in sorted(first, key=first.get, reverse=True)[:8]
        }
    samples["reference_s (unscaled)"] = summary(runner.reference_s)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "metrics": metrics,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "info": info,
    }


def print_report(workload, seconds: float, trace: bool, report: dict) -> None:
    info = report["info"]
    print(f"workload {workload.name}  seed {workload.seed}  seconds {seconds:g}  trace {int(trace)}")
    print(f"python {info['python']}  nproc {info['nproc']}  machine {info['machine']}  "
          f"overpoly {info['overpoly_file']}")
    for command in info["commands"]:
        print(f"  command: overpoly {command}")
    for name, stats in report["samples"].items():
        extra = "".join(f"  {k} {v:.6g}" for k, v in stats.items() if k.startswith("p"))
        print(f"{name:<24} median {stats['median']:.6g}  n {stats['n']}{extra or '  (no percentile has 10 samples beyond it)'}")
    for name, top_s in info.get("importtime_top_s", {}).items():
        print(f"  importtime {name:<24} {top_s:.6f} s")
    for name, (value, unit) in report["metrics"].items():
        print(f"{name:<48} {value:.6g} {unit}")
    print(f"fail_ratio {report['failed']}/{report['attempted']} = {report['fail_ratio']:g}")


def result_line(report: dict) -> str:
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()},
    })


def append_result(label: str, workload, seconds: float, trace: bool, report: dict) -> None:
    entries = []
    if RESULTS_PATH.exists():
        with open(RESULTS_PATH, encoding="utf-8") as handle:
            entries = json.load(handle)
    entries.append({
        "label": label,
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "trace": int(trace),
        **report["info"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()},
        "samples": report["samples"],
        "attempted": report["attempted"],
        "failed": report["failed"],
    })
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(entries, handle, indent=1)
        handle.write("\n")


def selftest() -> int:
    """Shrunk commands: every named metric prints with its unit, and the oracle can fail."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    expected = load_expected()
    oracle = Oracle(expected)
    problems = []
    for name in WORKLOADS:
        for trace, seed, listed in ((False, 1, "end_to_end"), (True, DEFAULT_SEED, "per_layer")):
            report = measure(Workload(name, seed, small=True), 0.1, trace, oracle)
            printed = json.loads(result_line(report))["metrics"]
            want = {m["name"]: m["unit"] for m in bench[listed]}
            got = {k: v["unit"] for k, v in printed.items()}
            if got != want:
                problems.append(f"{name} trace={int(trace)}: metrics {got} != {want}")
            if report["failed"]:
                problems.append(f"{name} trace={int(trace)}: {report['failed']} commands failed")
            print(f"selftest {name} trace={int(trace)}: {len(got)} metrics, "
                  f"fail_ratio {report['fail_ratio']:g}")

    wrong = copy.deepcopy(expected)
    wrong["verdicts"]["th1"]["holds"] = not wrong["verdicts"]["th1"]["holds"]
    report = measure(Workload("checks", 1, small=True), 0.1, False, Oracle(wrong))
    passes = report["samples"]["job_s"]["n"]
    print(f"selftest wrong th1 verdict: fail_ratio {report['failed']}/{report['attempted']}")
    if report["failed"] != passes or report["fail_ratio"] <= 0:
        problems.append(f"a wrong recorded verdict gave {report['failed']} failures in {passes} passes")

    for problem in problems:
        print(f"selftest FAILED: {problem}")
    print("selftest ok" if not problems else "selftest failed")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--append", metavar="LABEL", help="add this run to perfbench/results.json")
    parser.add_argument("--selftest", action="store_true", help="quick check with shrunk commands")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "overpoly" / "cli.py").is_file():
        print(f"no overpoly source tree at {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    if args.selftest:
        return selftest()
    workload = Workload(args.workload, args.seed)
    report = measure(workload, args.seconds, bool(args.trace), Oracle(load_expected()))
    print_report(workload, args.seconds, bool(args.trace), report)
    if args.append:
        append_result(args.append, workload, args.seconds, bool(args.trace), report)
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
