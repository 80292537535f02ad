#!/usr/bin/env python3
"""Merge-driver benchmark for summer.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository. It imports summer from ``src/`` of
that checkout (and refuses to run without it), sets the workload up several
times, then runs ops one at a time, in one thread, until ``--seconds`` have
passed and the workload's check set (its first ops) is done. Every output is
compared with a reference that summer does not produce.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` the per-layer ones,
from wrappers installed around summer's public functions (``tracer.py``).
The line before it holds informational values that are not gated.

Cold starts: a git merge driver is a fresh process each time, so no two
in-process ops share an input and ``tokenize_cached`` is cleared before each
one. Without the clear, a warm repeat of a ladder merge runs about twice as
fast as the cold one.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = {"replay": 3}  # set-ups per run; the median is reported
DEFAULT_SETUP_REPEATS = 5
STARTUP_SPAWNS = 3
TAIL_BEYOND = 10

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from calibrate import Clock  # noqa: E402
from tracer import Tracer  # noqa: E402


class BenchError(Exception):
    pass


def import_summer(names: tuple[str, ...]) -> dict:
    """Import summer afresh from this checkout; return its modules by short name."""
    for name in [n for n in sys.modules if n == "summer" or n.startswith("summer.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in names:
        importlib.import_module(f"summer.{name}")
    modules = {n.split(".", 1)[1]: m for n, m in sys.modules.items() if n.startswith("summer.")}
    imported = os.path.abspath(modules["tokens"].__file__)
    if not imported.startswith(os.path.join(SRC, "")):
        raise BenchError(f"summer was imported from {imported}, not from {SRC}")
    return modules


def set_up(cls, seed: int, tracer: Tracer | None = None):
    """One set-up: import summer, then generate or load the workload's inputs."""
    names = ("cli", "bench") if cls is workloads.Corpus else ("cli",)
    start = time.perf_counter()
    summer = import_summer(names)
    workload = cls(ROOT, seed, summer)
    if tracer is None:
        workload.setup()
    else:
        tracer.install()
        tracer.begin("setup")
        summer["tokens"].tokenize_cached.cache_clear()
        try:
            workload.setup()
        finally:
            tracer.add_cache_info(summer["tokens"].tokenize_cached.cache_info())
            tracer.uninstall()
    return time.perf_counter() - start, workload


class Runner:
    """Runs ops one at a time, keeps the cold-start discipline, and records
    each op's raw wall time with the calibration point taken before it."""

    def __init__(self, workload, in_process: bool, clock: Clock):
        self.w = workload
        self.in_process = in_process
        self.clock = clock
        self.seen: set[bytes] = set()
        self.times: list[float] = []
        self.segments: list[float] = []  # op plus its input generation and check
        self.cal_index: list[int] = []
        self.outcomes: list[workloads.Outcome] = []

    def op(self, k: int, variant: int = 0, tracer: Tracer | None = None) -> float:
        self.clock.tick()
        segment_start = time.perf_counter()
        op = self.w.make_op(k, variant)
        if op.key is not None:
            digest = hashlib.sha256(repr(op.key).encode()).digest()
            if digest in self.seen:
                raise BenchError(f"op {k} reuses an input of this run")
            self.seen.add(digest)
        cache = self.w.summer["tokens"].tokenize_cached
        cache.cache_clear()
        if tracer is not None:
            tracer.install()
            tracer.begin(k)
        start = time.perf_counter()
        try:
            result = self.w.run(op, in_process=self.in_process)
        except Exception:  # an op that raises is counted as an error
            traceback.print_exc(file=sys.stderr)
            result = (workloads.ERROR, None)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
            tracer.add_cache_info(cache.cache_info())
        self.outcomes.append(self.w.check(op, result))
        self.times.append(elapsed)
        self.segments.append(time.perf_counter() - segment_start)
        self.cal_index.append(len(self.clock.points) - 1)
        return elapsed

    def scales(self) -> list[float]:
        """Each op's scale to the calibrated machine speed around it."""
        self.clock.tick(force=True)
        return [self.clock.scale_between(i) for i in self.cal_index]


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and which.

    With fewer than 2 * TAIL_BEYOND + 1 samples no such percentile lies
    above the median, so the upper median is reported instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    index = n - 1 - min(TAIL_BEYOND, (n - 1) // 2)
    return ordered[index], 100.0 * (index + 1) / n


def shares(outcomes: list[workloads.Outcome]) -> dict[str, float]:
    entries = sum(o.entries for o in outcomes)
    return {
        "correct_share": sum(o.correct for o in outcomes) / entries,
        "silent_wrong_share": sum(o.silent_wrong for o in outcomes) / entries,
        "error_share": sum(o.status == workloads.ERROR for o in outcomes) / len(outcomes),
        "conflict_share": sum(o.status == workloads.CONFLICT for o in outcomes) / len(outcomes),
    }


def src_lines() -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def startup_seconds() -> float:
    """Median wall time of spawning a Python that only imports summer's CLI."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(STARTUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import summer.cli"], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(cls, seed: int, seconds: float, clock: Clock) -> tuple[dict, dict, Runner]:
    """End-to-end metrics of untraced set-ups and ops."""
    setups = []
    for _ in range(SETUP_REPEATS.get(cls.name, DEFAULT_SETUP_REPEATS)):
        clock.tick(force=True)
        elapsed, workload = set_up(cls, seed)
        setups.append(elapsed)
    clock.tick(force=True)
    setups_scaled = [t * clock.scale_between(i) for i, t in enumerate(setups)]
    runner = Runner(workload, in_process=not workload.spawns, clock=clock)
    deadline = time.perf_counter() + seconds
    k = 0
    while k < workload.check_ops or time.perf_counter() < deadline:
        runner.op(k)
        k += 1
    scales = runner.scales()
    times = [t * scale for t, scale in zip(runner.times, scales)]
    peak_kb = workload.child_peak_kb if workload.spawns else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    op_tail, tail_pct = tail(times)
    check = shares(runner.outcomes[: workload.check_ops])
    metrics = {
        "setup_s": (statistics.median(setups_scaled), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (op_tail, "s"),
        "ops_per_s": (k / sum(t * scale for t, scale in zip(runner.segments, scales)), "1/s"),
        "correct_share": (check["correct_share"], "share"),
        "silent_wrong_free_share": (1.0 - check["silent_wrong_share"], "share"),
        "error_free_share": (1.0 - check["error_share"], "share"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    info = {
        "ops": k,
        "check_ops": workload.check_ops,
        "op_tail_percentile": tail_pct,
        "raw": {
            "setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(runner.times),
            "op_tail_s": tail(runner.times)[0],
            "ops_per_s": k / sum(runner.segments),
        },
        "machine_scale": clock.mean_scale(),
        "calibrations": len(clock.points),
        "calibration_s": clock.spent_s,
        **check,
        "all_ops": shares(runner.outcomes),
        "input_size": workload.input_size(),
    }
    return metrics, info, runner


def measure_traced(cls, seed: int, seconds: float, clock: Clock) -> tuple[dict, dict, Runner]:
    """Per-layer metrics: untraced and traced ops alternate, on two
    spellings (or drift cases) of each case, so their ratio is the overhead."""
    tracer = Tracer()
    clock.tick()
    _elapsed, workload = set_up(cls, seed, tracer)
    runner = Runner(workload, in_process=True, clock=clock)
    plain: list[float] = []
    traced: list[float] = []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < workload.check_ops or time.perf_counter() < deadline:
        plain.append(runner.op(k, variant=0))
        traced.append(runner.op(k, variant=1, tracer=tracer))
        k += 1
    clock.tick(force=True)
    scale = clock.mean_scale()
    metrics = {
        name: (value * scale if unit == "s" else value, unit)
        for name, (value, unit) in tracer.layer_metrics(k).items()
    }
    metrics["cli.startup_s"] = (startup_seconds() * scale, "s")
    metrics["trace.overhead"] = (sum(traced) / sum(plain), "ratio")
    metrics["trace.coverage"] = (tracer.op_self_seconds() / sum(traced), "ratio")
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{cls.name}-{seed}.json")
    tracer.write_spans(spans_path)
    info = {"traced_ops": k, "untraced_ops": k, "machine_scale": scale,
            "spans": len(tracer.spans), "spans_file": os.path.relpath(spans_path, ROOT)}
    return metrics, info, runner


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "summer", "__init__.py")):
        print(f"error: no summer sources under {SRC}", file=sys.stderr)
        return 1
    cls = workloads.WORKLOADS[args.workload]
    # One CPU for the run: calibration, in-process ops and spawned ops (which
    # inherit the affinity) then all see the same core's contention.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        with Clock() as clock:
            run = measure_traced if args.trace else measure
            metrics, info, runner = run(cls, args.seed, args.seconds, clock)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workloads.work_dir(ROOT), ignore_errors=True)
    failed = sum(o.status == workloads.ERROR for o in runner.outcomes)
    info.update(workload=args.workload, seed=args.seed, src_lines=src_lines())
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runner.outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
