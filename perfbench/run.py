"""Benchmark of the fairaudit CLI on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the CLI is run from ``./src`` with the
interpreter running this script. The seed fixes the generated input, which is
written under ``perfbench/.work`` before timing starts. The loop is closed,
with one client: one child process at a time.

``--trace 0`` measures whole CLI runs (``python -m fairaudit.cli ...``) for S
seconds, each followed by one ``--version`` run that times the set-up, and
reports the end-to-end metrics named in BENCHMARK.json as medians over the
runs. Times are reported relative to a fixed reference task run between them
(see ``untraced``), because the host's speed drifts.

``--trace 1`` alternates untraced CLI runs with in-process replays that record
a span around each call into a layer (see ``replay.py``), adds one
tracemalloc pass for the peak-memory metrics, and reports the per-layer
metrics; the spans of every traced replay are written to
``perfbench/.work/spans-<workload>-<seed>.jsonl``.

Both modes first run one traced replay. Every workload run (CLI run, traced
replay or memory pass) must exit with the expected code and print exactly
what that replay printed, and the output itself must pass the workload's
checks (see ``workloads.py``); a run that does not counts as failed. Only
workload runs are counted in ``attempted``, ``failed`` and ``ok_rate``. A
failed ``--version`` or reference-task run, a layer function the replay
cannot find to trace, or per-layer counts that differ between replays is an
error of its own. Any failure or error makes the result ``"correct": false``.
The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import workloads
from spans import self_time_by_name

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"
#: At least MIN_SAMPLES runs are measured even when S seconds are used up, a
#: child taking longer than TIMEOUT_S is killed and counts as failed, and no
#: run starts after HARD_STOP_S, so a slow commit still ends within 180 s.
MIN_SAMPLES = 3
#: Raw medians printed beside the end-to-end metrics; they drift with the
#: host's speed, so BENCHMARK.json bounds their ratios to the reference task.
RAW_METRICS = [
    {"name": "wall_s", "unit": "s"},
    {"name": "cpu_s", "unit": "s"},
    {"name": "work_per_s", "unit": "1/s"},
    {"name": "raw_setup_s", "unit": "s"},
]
#: Scale of ``setup_s``. Set-up time is measured as its ratio to the
#: reference task's time and reported in seconds of a nominal host on which
#: the reference task takes REFERENCE_S seconds (about its wall time on a
#: 2-vCPU Xeon KVM guest). On another host the value is not its wall-clock
#: set-up time, but it compares across hosts and over time; the wall-clock
#: median is printed as ``raw_setup_s``.
REFERENCE_S = 0.22
TIMEOUT_S = 40.0
HARD_STOP_S = 110.0


@dataclass(frozen=True)
class Run:
    wall: float
    cpu: float
    rss_mb: float
    exit_code: int | None
    stdout: Path

    def digest(self) -> str:
        return hashlib.sha256(self.stdout.read_bytes()).hexdigest()


class Harness:
    """Spawns children one at a time and keeps the tally of workload runs,
    their failures and the errors outside them."""

    def __init__(self, case: workloads.Case, workdir: Path) -> None:
        self.case = case
        self.workdir = workdir
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        self.cli = [sys.executable, "-m", "fairaudit.cli"]
        self.replay = [sys.executable, str(BENCH / "replay.py")]
        self.reference_task = [sys.executable, str(BENCH / "reference.py")]
        self.attempted = 0
        self.failures: list[str] = []
        self.errors: list[str] = []
        self.expected: str | None = None
        self.verdicts: dict[tuple[str, int], str | None] = {}

    def spawn(self, argv: list[str]) -> Run:
        """Run ``argv`` to completion; time and resource use are the child's
        own, from wait4."""
        stdout = self.workdir / "stdout"
        with open(stdout, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, env=self.env, cwd=ROOT)
            pidfd = os.pidfd_open(proc.pid)
            try:
                if not select.select([pidfd], [], [], TIMEOUT_S)[0]:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(pidfd)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = None if proc.returncode == -signal.SIGKILL else proc.returncode
        return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, code, stdout)

    def fail(self, reason: str) -> None:
        self.failures.append(reason)
        print(f"perfbench: FAILED {self.case.name}: {reason}", file=sys.stderr)

    def error(self, reason: str) -> None:
        if reason not in self.errors:
            self.errors.append(reason)
            print(f"perfbench: ERROR {self.case.name}: {reason}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return not self.failures and not self.errors

    def verify(self, run: Run, what: str) -> bool:
        """Check one workload run: exit code, output checks (once per
        distinct output) and byte identity with the first run."""
        self.attempted += 1
        if run.exit_code is None:
            self.fail(f"{what} timed out after {TIMEOUT_S} s")
            return False
        digest = run.digest()
        key = (digest, run.exit_code)
        if key not in self.verdicts:
            self.verdicts[key] = workloads.check(self.case, run.exit_code, run.stdout.read_bytes())
        reason = self.verdicts[key]
        if reason is None and self.expected not in (None, digest):
            reason = "stdout differs from the first run on the same input"
        self.expected = self.expected or digest
        if reason is not None:
            self.fail(f"{what}: {reason}")
        return reason is None

    def run_cli(self) -> Run:
        run = self.spawn(self.cli + list(self.case.argv))
        self.verify(run, "CLI run")
        return run

    def run_setup(self) -> Run:
        run = self.spawn(self.cli + ["--version"])
        if run.exit_code != 0 or not run.stdout.read_bytes().startswith(b"fairaudit "):
            self.error(f"--version exited {run.exit_code}")
        return run

    def run_reference_task(self) -> Run:
        run = self.spawn(self.reference_task)
        if run.exit_code != 0:
            self.error(f"reference task exited {run.exit_code}")
        return run

    def run_replay(self, run_id: str, memory: bool = False) -> tuple[Run, dict[str, Any]]:
        out = self.workdir / "replay.json"
        out.unlink(missing_ok=True)
        flags = ["--memory"] if memory else []
        argv = self.replay + ["--out", str(out), "--run-id", run_id, *flags, "--", *self.case.argv]
        run = self.spawn(argv)
        record: dict[str, Any] = {}
        if self.verify(run, "memory pass" if memory else "traced replay"):
            record = json.loads(out.read_text(encoding="utf-8"))
            for site in record["missing"]:
                self.error(f"fairaudit has no {site}, so its layer cannot be traced")
        return run, record


def layer_values(record: dict[str, Any], names: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced replay: ``<span>.s`` is the self time
    of all spans so named, ``<span>.<key>_ratio`` is counter ``key`` over the
    span's calls, anything else is a counter (0 if never bumped)."""
    own = self_time_by_name(record["spans"])
    counters = record["counters"]
    values = {}
    for name in names:
        span, _, key = name.rpartition(".")
        if key == "s":
            values[name] = own.get(span, 0.0)
        elif key.endswith("_ratio"):
            calls = counters.get(f"{span}.calls", 0)
            useful = counters.get(f"{span}.{key.removesuffix('_ratio')}", 0)
            values[name] = useful / calls if calls else 0.0
        else:
            values[name] = counters.get(name, 0)
    return values


def untraced(h: Harness, seconds: float, hard_stop: float) -> tuple[dict[str, float], int]:
    """End-to-end metrics. The reference task (see ``reference.py``) runs
    before and after every CLI run; ``*_rel`` are medians of the CLI's time
    over the mean of the two, which cancels the drift of the host's speed.
    ``setup_s`` is likewise the median of each ``--version`` time over the
    reference run just before it, in units of REFERENCE_S. The raw medians
    (``wall_s``, ``cpu_s``, ``work_per_s``, ``raw_setup_s``) are returned for
    display."""
    reference, setup, runs = [h.run_reference_task()], [], []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_SAMPLES or time.perf_counter() < deadline:
        if time.perf_counter() > hard_stop:
            break
        runs.append(h.run_cli())
        reference.append(h.run_reference_task())
        setup.append(h.run_setup().wall)

    def relative(field: str) -> float:
        return statistics.median(
            getattr(run, field) / ((getattr(before, field) + getattr(after, field)) / 2)
            for run, before, after in zip(runs, reference, reference[1:])
        )

    wall = statistics.median(r.wall for r in runs)
    wall_rel = relative("wall")
    metrics = {
        "setup_s": REFERENCE_S * statistics.median(
            s / ref.wall for s, ref in zip(setup, reference[1:])
        ),
        "wall_rel": wall_rel,
        "cpu_rel": relative("cpu"),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        "work_per_rel": h.case.work / wall_rel,
        "ok_rate": 1 - len(h.failures) / h.attempted,
        "wall_s": wall,
        "cpu_s": statistics.median(r.cpu for r in runs),
        "work_per_s": h.case.work / wall,
        "raw_setup_s": statistics.median(setup),
    }
    return metrics, len(runs)


def traced(
    h: Harness, seconds: float, hard_stop: float, names: list[str], spans_file: Path
) -> tuple[dict[str, float], int]:
    _, peaks = h.run_replay("memory", memory=True)
    walls, traced_walls, samples, records = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_SAMPLES or time.perf_counter() < deadline:
        if time.perf_counter() > hard_stop:
            break
        walls.append(h.run_cli().wall)
        run, record = h.run_replay(f"{h.case.name}-{len(walls)}")
        traced_walls.append(run.wall)
        if record:
            records.append(record)
            samples.append(layer_values(record, names))
    counts = [{k: v for k, v in s.items() if not k.endswith(".s")} for s in samples]
    if any(c != counts[0] for c in counts):
        h.error("per-layer counts differ between traced replays of the same input")
    metrics = dict.fromkeys(names, 0.0)
    if samples:
        metrics.update(counts[0])
        times = [name for name in samples[0] if name not in counts[0]]
        metrics.update({name: statistics.median(s[name] for s in samples) for name in times})
    for name in names:
        if name.endswith(".peak_mb"):
            metrics[name] = peaks.get("peak_mb", {}).get(name[: -len(".peak_mb")], 0.0)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    with open(spans_file, "w", encoding="utf-8") as handle:
        for record in records:
            for name, start, end, parent in record["spans"]:
                span = {"name": name, "start": start, "end": end, "parent": parent}
                handle.write(json.dumps({"run_id": record["run_id"], **span}) + "\n")
    return metrics, len(samples)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "fairaudit" / "cli.py").is_file():
        print("perfbench: ./src/fairaudit not found; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = time.perf_counter()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        case = workloads.MAKERS[args.workload](args.seed, workdir)
        h = Harness(case, workdir)
        h.run_replay("first")
        if args.trace:
            spans_file = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
            names = [m["name"] for m in listed]
            values, samples = traced(h, args.seconds, start + HARD_STOP_S, names, spans_file)
        else:
            values, samples = untraced(h, args.seconds, start + HARD_STOP_S)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()

    print(f"{case.name} (seed {args.seed}): {samples} samples, {case.work} {case.work_unit} a run")
    shown = listed if args.trace else listed + RAW_METRICS
    for metric in shown:
        alias = metric["name"].replace("work", case.work_unit, 1)
        alias = f" ({alias})" if metric["name"].startswith("work_") else ""
        print(f"  {metric['name']}{alias} = {values[metric['name']]:.6g} {metric['unit']}")
    result = {
        "correct": h.correct,
        "attempted": h.attempted,
        "failed": len(h.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
