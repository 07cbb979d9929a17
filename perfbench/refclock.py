"""A clock that runs at the speed of a fixed reference piece of work.

The cores of the reference box change speed by up to 1.6x within seconds,
while the process keeps running (see NOTES.md, "Steadiness"). A time taken
with `time.perf_counter` therefore says as much about the machine's phase as
about the program. `RefClock` measures the phase while the program runs: a
SIGALRM every `INTERVAL_S` runs `reference_work()` in the main thread, a
fixed mix of interpreter and small-array numpy work that no hwnas change
touches, and times it. Between two ticks the clock advances by the elapsed
wall time times `NOMINAL_TICK_S / t`, where `t` is the median duration of
the last `WINDOW` ticks. So a clock second is the time the program would
take on a machine where one reference tick takes `NOMINAL_TICK_S`. The
ticks themselves are not counted.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque

import numpy as np

INTERVAL_S = 0.05       # wall time between ticks
WINDOW = 5              # ticks per speed estimate
CALIBRATION_TICKS = 21  # ticks run back to back by calibrate()
NOMINAL_TICK_S = 0.001  # a clock second is a wall second when a tick takes this

_rng = np.random.default_rng(0)
_A, _W = _rng.standard_normal((16, 64)), _rng.standard_normal((64, 64))


def reference_work():
    """About 1 ms of interpreter loop and small matrix products."""
    total = 0
    for i in range(4_000):
        total += i % 7
    for _ in range(80):
        np.tanh(_A @ _W)
    return total


def tick_s() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def calibrate() -> float:
    """Median duration of CALIBRATION_TICKS reference ticks run now."""
    return statistics.median(tick_s() for _ in range(CALIBRATION_TICKS))


def rescale(wall_s: float, tick: float) -> float:
    """A wall time taken while a reference tick took `tick` seconds, in clock seconds."""
    return wall_s * NOMINAL_TICK_S / tick


class RefClock:
    """Monotonic clock in reference-speed seconds; see the module docstring."""

    def __init__(self):
        self.ticks = []             # duration of every tick since start()
        self._recent = deque(maxlen=WINDOW)
        self._value = 0.0           # clock reading at _mark
        self._mark = 0.0            # perf_counter() when the last tick ended
        self._scale = 1.0
        self._old_handler = None

    def start(self):
        self._recent.extend(tick_s() for _ in range(WINDOW))
        self._scale = NOMINAL_TICK_S / statistics.median(self._recent)
        self._mark = time.perf_counter()
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler or signal.SIG_DFL)

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        self._value += (t0 - self._mark) * self._scale
        reference_work()
        t1 = time.perf_counter()
        self.ticks.append(t1 - t0)
        self._recent.append(t1 - t0)
        self._scale = NOMINAL_TICK_S / statistics.median(self._recent)
        self._mark = t1

    def __call__(self) -> float:
        # A tick can run between any two bytecodes of this method; read again
        # if one did.
        while True:
            n = len(self.ticks)
            value = self._value + (time.perf_counter() - self._mark) * self._scale
            if n == len(self.ticks):
                return value
