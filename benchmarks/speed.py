"""Reference-speed scaling of the benchmark's timings.

On a shared 2-CPU virtual machine the speed of the one core a run uses
changes by up to 1.5x over seconds to minutes, with other tenants' load, so
raw wall times of one commit spread by more than any useful regression bound.
The sampler times a fixed pure-Python reference loop every INTERVAL seconds
while the workload runs: from a SIGALRM handler, in the same process and on
the same core, so the loop sees the speed the operation sees.  An
operation's scaled time is its wall time without the handler's bursts,
divided by the mean reference-loop time observed during it (plus one burst
just before it) and multiplied by REF_LOOP_S, the loop's time at the
reference speed.  The scaled time is in seconds at that fixed speed; raw
wall times are printed beside it.

Uses only the standard library, so fresh-interpreter set-up probes can start
it before importing anything else.
"""

from __future__ import annotations

import signal
from time import perf_counter

INTERVAL = 0.05
# the loop mixes integer arithmetic with lookups of tuple keys in a dict of a
# few hundred kilobytes, like the library's dicts of cubes; on a 2-vCPU Xeon
# virtual machine it tracked the workloads' slow-downs better than pure
# arithmetic or lookups in a dict that misses the caches
_TABLE = {(i, i * 7 % 100): i for i in range(5000)}
_KEYS = [((k * 7919) % 5000, (k * 7919) % 5000 * 7 % 100) for k in range(4000)]
# the loop's mean seconds while a workload runs, on that Xeon vCPU in its
# fast state, so scaled times read close to fast-state wall times; a
# constant, so scaled times of two commits compare directly
REF_LOOP_S = 0.0016


def reference_loop() -> float:
    """Seconds of one pass of the fixed reference loop."""
    t0 = perf_counter()
    acc = 0
    for i, key in enumerate(_KEYS):
        acc = (acc + _TABLE[key] + i * i) & 0xFFFF
    return perf_counter() - t0


class SpeedSampler:
    """Reference-loop bursts taken every INTERVAL seconds of wall time."""

    def __init__(self) -> None:
        self.bursts: list[float] = []  # burst durations, in time order
        self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        self.bursts.append(reference_loop())

    def timed(self, fn, *args):
        """(result, unscaled seconds, scaled seconds) of fn(*args); both
        exclude the sampler's own bursts."""
        first = len(self.bursts)
        self.bursts.append(reference_loop())
        t0 = perf_counter()
        result = fn(*args)
        raw = perf_counter() - t0
        inside = self.bursts[first + 1:]
        seen = self.bursts[first:]
        work = raw - sum(inside)
        return result, work, work * REF_LOOP_S / (sum(seen) / len(seen))
