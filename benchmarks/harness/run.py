#!/usr/bin/env python3
"""The lensframe benchmark.

    python3 benchmarks/harness/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads are in workloads.py.  Each operation runs in a fresh child process
(child.py), one at a time in a closed loop, until --seconds have passed; no
cache is warmed first, because every CLI run and every new library session
starts cold.  Every output is checked; a wrong byte, a wrong answer or a
nonzero exit counts as a failed operation, and the command exits 1 if any
operation failed.

With --trace 0 the run reports the end-to-end metrics (END_TO_END) as
medians over its children.  With --trace 1 it alternates untraced and
traced children and reports the per-layer metrics of tracer.py from the
traced child of median wall time.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Run metadata and
every raw sample go to .bench_out/results/ for compare.py.

End-to-end times are scaled to a reference machine speed.  The speed of a
shared host drifts by 20% and more within minutes, so each child runs
between two runs of calibrate.py, a fixed pure-Python job that does not
import lensframe, and its times are multiplied by CALIBRATION_S over the
mean of those two.  On a 2-core shared VM, in two batches of ten runs per
workload, this cut the spread (IQR over median) of wall_s from 3-28% to
3-10%, and the medians of the two batches agreed within 2.2%.  Raw samples
and the calibrations are kept in the result files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import tracer
from workloads import WORKLOADS, StreamCheck

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = ROOT / ".bench_out"

END_TO_END = {
    "wall_s": "s",  # spawn to exit of one child
    "setup_s": "s",  # spawn to lensframe.cli imported
    "peak_rss_mb": "MB",  # the child's own peak RSS, from wait4
    "first_output_s": "s",  # spawn to the first stdout byte
    # Latency of one result: a query's call, or an output line's arrival
    # after spawn.  Percentiles within each child, then the median over children.
    "result_p50_ms": "ms",
    "result_p99_ms": "ms",
}
SETUP_ROUNDS, SETUP_SPAWNS = 4, 4
CALIBRATION_S = 0.4  # calibrate.py's time at the reference speed, near its median here
MIN_CHILDREN = 3
MIN_TRACED_RUN_CHILDREN = 4  # two traced, two untraced
RUN_DEADLINE_S = 160  # children still running then are killed and count as failed


@dataclass
class Child:
    wall_s: float
    ready_s: float | None
    rss_mb: float
    status: int
    check: StreamCheck
    side: Path
    backend: str | None
    arrivals: list[tuple[float, int]]  # (seconds after spawn, stdout lines so far)
    speed: float = 1.0  # factor to the reference machine speed

    @property
    def first_output_s(self) -> float | None:
        return self.arrivals[0][0] if self.arrivals else None


def child_cmd(side: Path, trace: bool, mode: str, args: list[str]) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), str(side), "1" if trace else "0", mode, *args]


def spawn(cmd: list[str], side: Path, check: StreamCheck, deadline: float) -> Child:
    """Run cmd once with a fresh side-channel directory, draining and checking its stdout."""
    if side.exists():
        shutil.rmtree(side)
    side.mkdir(parents=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    arrivals: list[tuple[float, int]] = []
    with open(side / "stderr.txt", "wb") as stderr:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=stderr, cwd=ROOT, env=env)
    try:
        fd = proc.stdout.fileno()
        while True:
            chunk = _read(proc, fd, deadline)
            if not chunk:
                break
            check.feed(chunk)
            arrivals.append((time.monotonic() - t0, check.lines))
        _, status, usage = os.wait4(proc.pid, 0)
        t_exit = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    check.finish()
    ready, backend = None, None
    if (side / "ready.json").exists():
        info = json.loads((side / "ready.json").read_text())
        ready, backend = info["ready"] - t0, info["backend"]
        if Path(info["package"]).resolve().parent != ROOT / "src" / "lensframe":
            raise SystemExit(f"child imported lensframe from {info['package']}, not from {ROOT / 'src'}")
    return Child(
        wall_s=t_exit - t0,
        ready_s=ready,
        arrivals=arrivals,
        rss_mb=usage.ru_maxrss / 1024,
        status=proc.returncode,
        check=check,
        side=side,
        backend=backend,
    )


def _read(proc: subprocess.Popen, fd: int, deadline: float) -> bytes:
    remaining = deadline - time.monotonic()
    if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
        proc.kill()
        return b""
    return os.read(fd, 1 << 16)


def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of sorted values."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def result_percentiles_ms(child: Child) -> tuple[float, float]:
    """p50 and p99 of the child's result latencies at reference speed; see END_TO_END."""
    latency = child.side / "latency.bin"
    if latency.exists():
        ordered = sorted(array("q", latency.read_bytes()))
        return tuple(percentile(ordered, q) / 1e6 * child.speed for q in (0.50, 0.99))
    total = child.arrivals[-1][1] if child.arrivals else 0
    if not total:
        return (child.wall_s * 1e3 * child.speed,) * 2
    return tuple(
        next(t for t, lines in child.arrivals if lines >= math.ceil(q * total)) * 1e3 * child.speed
        for q in (0.50, 0.99)
    )


def calibrate(work: Path, deadline: float) -> float:
    """Seconds the fixed work of calibrate.py takes right now, in a fresh process."""
    check = StreamCheck(re.compile(rb"^.+$", re.M))
    side = work / "calibrate"
    child = spawn([sys.executable, str(HERE / "calibrate.py")], side, check, deadline)
    if child.status != 0:
        raise SystemExit((side / "stderr.txt").read_text())
    return float(check.kept[0])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    work = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    work.mkdir(parents=True, exist_ok=True)
    workload.prepare(seed, work)
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S

    # Every child runs between two calibrations; its times are scaled to the
    # machine speed at which calibrate.py takes CALIBRATION_S, so that the
    # changing speed of a shared host does not read as a change in lensframe.
    calibrations = [calibrate(work, deadline)]

    def speed() -> float:
        calibrations.append(calibrate(work, deadline))
        return CALIBRATION_S / statistics.fmean(calibrations[-2:])

    side = work / "setup"
    setup_cmd = child_cmd(side, False, "setup", [])
    setups = [spawn(setup_cmd, side, StreamCheck(), deadline)]  # compiles the bytecode, which users pay once
    setup_samples = []
    for _ in range(SETUP_ROUNDS):
        batch = [spawn(setup_cmd, side, StreamCheck(), deadline) for _ in range(SETUP_SPAWNS)]
        factor = speed()
        setup_samples += [c.ready_s * factor for c in batch if c.ready_s is not None]
        setups += batch

    children: list[Child] = []
    attempted = failed = 0
    problems: list[str] = []
    results_ms: list[tuple[float, float]] = []  # (p50, p99) of each untraced child
    loop_start = time.monotonic()
    min_children = MIN_TRACED_RUN_CHILDREN if trace else MIN_CHILDREN
    while time.monotonic() < deadline and (
        time.monotonic() - loop_start < seconds or len(children) < min_children
    ):
        traced = trace and len(children) % 2 == 1
        side = work / f"child{len(children)}"
        cmd = child_cmd(side, traced, workload.mode, workload.child_args())
        child = spawn(cmd, side, workload.new_check(), deadline)
        child.speed = speed()
        bad, found = workload.judge(child.check, child.status)
        attempted += workload.ops
        failed += bad
        problems += [f"{name} child {len(children)}: {p}" for p in found]
        if not traced:
            results_ms.append(result_percentiles_ms(child))
        children.append(child)
        if child.status != 0:
            print((side / "stderr.txt").read_text()[-2000:], file=sys.stderr)

    plain = children[0::2] if trace else children
    setup_samples += [c.ready_s * c.speed for c in plain if c.ready_s is not None]
    if trace:
        metrics = _layer_metrics(children[1::2], plain)
    else:
        values = {
            "wall_s": statistics.median(c.wall_s * c.speed for c in plain),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": statistics.median(c.rss_mb for c in plain),
            "first_output_s": statistics.median(
                (c.wall_s if c.first_output_s is None else c.first_output_s) * c.speed for c in plain
            ),
            "result_p50_ms": statistics.median(p50 for p50, _ in results_ms),
            "result_p99_ms": statistics.median(p99 for _, p99 in results_ms),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    shutil.rmtree(work)  # inputs, side channels and spans; the result file keeps the samples
    backends = {c.backend for c in setups + children}
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "backend": backends.pop() if len(backends) == 1 else sorted(map(str, backends)),
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "children": len(children),

        "metrics": metrics,
        "raw_samples": {
            "calibration_s": calibrations,
            "speed": [c.speed for c in children],
            "wall_s": [c.wall_s for c in children],
            "setup_s": [c.ready_s for c in setups[1:] + plain],
            "peak_rss_mb": [c.rss_mb for c in children],
            "first_output_s": [c.first_output_s for c in children],
        },
        "measured_s": time.monotonic() - started,
    }


def _layer_metrics(traced: list[Child], plain: list[Child]) -> dict:
    chosen = sorted(traced, key=lambda c: c.wall_s)[(len(traced) - 1) // 2]
    values = tracer.layer_metrics(chosen.side, chosen.wall_s)
    values["cli.output_bytes"] = chosen.check.bytes
    values["cli.rows_emitted"] = chosen.check.lines
    values["trace.overhead_s"] = statistics.median(c.wall_s * c.speed for c in traced) - statistics.median(
        c.wall_s * c.speed for c in plain
    )
    units = {name: unit for name, unit, _ in tracer.per_layer_metrics()}
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def metadata() -> dict:
    """Where the numbers came from: source, interpreter, machine."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = done.stdout.strip() or sha
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lensframe").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def report(result: dict, meta: dict) -> None:
    name = result["workload"]
    print(
        f"{name}: seed={result['seed']} trace={result['trace']} backend={result['backend']} "
        f"git={meta['git_sha'][:12]} python={meta['python']} nproc={meta['nproc']} "
        f"children={result['children']} "
        f"speed={statistics.median(result['raw_samples']['speed']):.3f}"
    )
    for metric, m in result["metrics"].items():
        print(f"  {name:8} {metric:48} {m['value']:>14.6g} {m['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"  {name:8} {'error_rate':48} {rate:>14.6g} ({result['failed']}/{result['attempted']} operations)")
    for problem in result["problems"]:
        print(f"  FAIL {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that spawn() kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "lensframe" / "cli.py").is_file():
        print(f"error: no lensframe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    meta = metadata()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        result["meta"] = meta
        results.append(result)
        report(result, meta)
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        path = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1))

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
