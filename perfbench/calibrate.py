"""Machine-speed calibration for timings on a shared, noisy host.

On a 2-vCPU KVM guest (Intel Xeon, model 207) the same pure-Python work ran
up to 1.6x slower (arithmetic) and 2x slower (allocation-heavy) for 30 s and
more at a time while neighbours were busy, so medians of raw wall time moved
by 20-40% between runs whatever their length. The benchmark therefore times
a fixed reference job between its ops and reports each op's wall time scaled
by ``REFERENCE_S / job time``: the time the op takes on this machine when
the job runs at its quiet speed. The raw wall times are reported as well.

The job is independent of summer, so a change to summer moves only the op
side of the ratio. Like summer's hot paths it classifies characters and
allocates a token tuple for each run of them, and its ~5 MB of tuples
outgrow the core's private caches as summer's token lists do; smaller jobs
tracked the slowdowns of the ops less well than no scaling at all. It runs
in a helper process pinned to the benchmark's CPU, so its memory does not
count in the benchmark's peak RSS.
"""

from __future__ import annotations

import subprocess
import sys
import time

# The job's time on a quiet core of the host above (the 5th percentile of
# 870 jobs was 32.8 ms, the median 38.6 ms). A constant: it only converts
# the ratio back to seconds, and changing it rescales every reported time.
REFERENCE_S = 0.033
# A calibration point is taken at most every CAL_EVERY_S and spends CAL_SHARE
# of the time since the previous one calibrating (at least one job).
CAL_EVERY_S = 1.0
CAL_SHARE = 0.05

_TEXT = "".join(f"name{i} = value{i} + {i * 7 % 100};\n" for i in range(6000))


def _work() -> int:
    tokens = []
    start, prev = 0, None
    for i, ch in enumerate(_TEXT):
        cat = 0 if ch.isspace() else 1 if ch.isdecimal() else 2 if ch.isalpha() else 3
        if cat != prev or cat == 3:
            if i:
                tokens.append((_TEXT[start:i], prev, start))
            start, prev = i, cat
    tokens.append((_TEXT[start:], prev, start))
    counts: dict[str, int] = {}
    for text, _cat, _off in tokens:
        counts[text] = counts.get(text, 0) + 1
    return len(counts)


def measure(budget_s: float) -> float:
    """Mean seconds of one reference job, over at least ``budget_s`` and one job.

    The mean, not the best, because an op also pays for every burst of
    interference that lands inside it.
    """
    times: list[float] = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < budget_s:
        job_start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - job_start)
    return sum(times) / len(times)


class Clock:
    """Calibration points taken between ops, and the scale for the work between them.

    Points follow ``CAL_EVERY_S`` and ``CAL_SHARE``, so a long op is framed
    by proportionally long calibrations. Use as a context manager: it starts
    the helper process and stops it.
    """

    def __init__(self) -> None:
        self.points: list[tuple[float, float]] = []  # (taken at, seconds)
        self.spent_s = 0.0
        self._helper: subprocess.Popen | None = None

    def __enter__(self) -> "Clock":
        self._helper = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._ask(0.0)  # the helper's first job grows its heap; not a point
        return self

    def __exit__(self, *exc) -> None:
        helper = self._helper
        if helper is not None:
            helper.stdin.close()
            try:
                helper.wait(timeout=30)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()

    def _ask(self, budget_s: float) -> float:
        self._helper.stdin.write(f"{budget_s}\n")
        self._helper.stdin.flush()
        reply = self._helper.stdout.readline()
        if not reply:
            raise OSError("calibration helper exited")
        return float(reply)

    def tick(self, force: bool = False) -> None:
        """Calibrate if forced or if the last point is older than ``CAL_EVERY_S``."""
        now = time.perf_counter()
        since = now - self.points[-1][0] if self.points else 0.0
        if force or not self.points or since >= CAL_EVERY_S:
            seconds = self._ask(CAL_SHARE * since)
            self.points.append((time.perf_counter(), seconds))
            self.spent_s += time.perf_counter() - now

    def scale_between(self, first: int) -> float:
        """Scale for work done between calibration points ``first`` and the next."""
        pair = self.points[first : first + 2]
        return REFERENCE_S / (sum(s for _, s in pair) / len(pair))

    def mean_scale(self) -> float:
        return sum(REFERENCE_S / s for _, s in self.points) / len(self.points)


def serve() -> None:
    """Helper loop: read a budget per line, answer with the mean job time."""
    for line in sys.stdin:
        print(measure(float(line)), flush=True)


if __name__ == "__main__":
    serve()
