"""Host-speed calibration: every time the benchmark reports is scaled to one
nominal host speed.

The benchmark runs on a few vCPUs of a shared host whose speed drifts with
other tenants' load: a fixed loop timed in 1-s blocks varies by +-20%, and
its 40-s averages by as much, which is more than the bounds the benchmark
sets.  Scaling by a speed measured during the same run removes most of that
drift from the figures without touching the work being measured.

`task()` is a fixed piece of work of the same kind as the package's (small
frozen dataclasses validated in `__post_init__`, 3x3 numpy linalg calls,
dict building).  It does not import the package, so no change to the
package can change its time.  A `Sampler` times it every SAMPLE_EVERY_S
seconds between ops; `factor(t)` is NOMINAL_S over the median of the
samples within WINDOW_S of time t, so a time multiplied by it reads as it
would on a host where the task takes NOMINAL_S.  NOMINAL_S is about the
task's median time on the 2-vCPU host the benchmark was tuned on, so scaled
figures stay close to the raw ones; the raw figures are reported beside
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

NOMINAL_S = 0.0025
SAMPLE_EVERY_S = 0.2
WINDOW_S = 1.0
TASK_REPS = 40

_A = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])


@dataclass(frozen=True)
class _Box:
    a: np.ndarray
    b: float

    def __post_init__(self):
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise ValueError("square matrix expected")


def task() -> float:
    """The fixed calibration work; returns a checksum so none of it is skipped."""
    acc = 0.0
    x = np.ones(3)
    for k in range(TASK_REPS):
        box = _Box(_A + 0.01 * k * np.eye(3), float(k))
        y = np.linalg.solve(box.a, x)
        e = np.linalg.eigvalsh(box.a)
        acc += float(y @ y) + float(e.max()) + float(np.linalg.norm(box.a, 2))
        d = {i: i * box.b for i in range(8)}
        acc += sum(d.values()) * 1e-9
    return acc


class Sampler:
    """Times `task()` on request and turns the samples into speed factors."""

    def __init__(self):
        self.at: list[float] = []        # midpoint of each sample
        self.took: list[float] = []      # its duration in seconds
        self._last = -np.inf

    def sample(self) -> None:
        start = perf_counter()
        task()
        end = perf_counter()
        self.at.append(0.5 * (start + end))
        self.took.append(end - start)
        self._last = end

    def maybe_sample(self, now: float) -> None:
        if now - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, times) -> np.ndarray:
        """NOMINAL_S / (median task time within WINDOW_S of each time)."""
        at, took = np.asarray(self.at), np.asarray(self.took)
        lo = np.searchsorted(at, at - WINDOW_S)
        hi = np.searchsorted(at, at + WINDOW_S, side="right")
        local = np.array([np.median(took[a:b]) for a, b in zip(lo, hi)])
        return NOMINAL_S / np.interp(np.asarray(times, dtype=float), at, local)

    def speed(self) -> float:
        """The run's host speed relative to nominal (above 1: faster)."""
        return NOMINAL_S / float(np.median(self.took))
