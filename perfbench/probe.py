"""Host-speed probe: a fixed pure-Python job timed all through a run.

On a shared VM the host's speed drifts by up to 2x within minutes (CPU
time equals wall time, so it is not scheduler noise; README.md, "Host
drift").  A median over runs cannot remove drift that outlasts the
runs, so each timed phase is also timed against a yardstick that drifts
with it: a SIGALRM timer runs :func:`probe_job`, which touches nothing
of the program, every ``interval`` seconds while the phase runs.  The
phase's host seconds, minus the time spent in the probe, are rescaled
to the host speed at which one probe job takes :data:`NOMINAL_PROBE_S`::

    corrected_s = (wall_s - probe_total_s) * NOMINAL_PROBE_S / mean_probe_s

A change to the program moves ``corrected_s`` exactly as it moves the
wall time, since the probe's work is fixed; a host that runs everything
30% slower for a while moves both the phase and the probe and leaves
``corrected_s`` about where it was.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import List, Optional

#: Seconds one probe job takes at the reference host speed: the median
#: on a 2-vCPU Xeon VM (Python 3.11).  Corrected times are in seconds
#: at that speed, so they read close to the wall time on such a host.
NOMINAL_PROBE_S = 1.5e-3

#: Strided reads of this table give the probe a working set of a few
#: MB, so it also slows when the caches are shared with a busy tenant.
_TABLE = [(i, str(i)) for i in range(20_000)]
_STRIDE = 7_919


class _Msg:
    __slots__ = ("src", "dst", "seq", "body")

    def __init__(self, src: int, dst: int, seq: int, body: str):
        self.src = src
        self.dst = dst
        self.seq = seq
        self.body = body


class _Node:
    def __init__(self, index: int):
        self.index = index
        self.votes: dict = {}
        self.log: dict = {}

    def handle(self, msg: _Msg) -> None:
        voters = self.votes.setdefault(msg.seq, set())
        voters.add(msg.src)
        if len(voters) == 3:
            self.log[msg.seq] = msg.body


def probe_job(start: int = 0) -> int:
    """A fixed slice of calendar, message and table work; returns the
    table position to start the next slice from."""
    nodes = [_Node(i) for i in range(8)]
    calendar: list = []
    pos = start
    for seq in range(60):
        for node in nodes:
            heapq.heappush(calendar, (seq + node.index * 1e-3, node.index,
                                      _Msg(node.index, (node.index + 1) % 8,
                                           seq, _TABLE[pos][1])))
            pos = (pos + _STRIDE) % len(_TABLE)
    while calendar:
        _, _, msg = heapq.heappop(calendar)
        nodes[msg.dst].handle(msg)
    counts: dict = {}
    for i in range(600):
        counts[i & 127] = counts.get(i & 127, 0) + 1
    return pos


def _clock() -> float:
    return time.perf_counter()  # repro: allow[no-wallclock] probe clock


class SpeedProbe:
    """Runs :func:`probe_job` on a SIGALRM timer and keeps its times.

    Only one probe may run at a time (there is one ``ITIMER_REAL``).
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._pos = 0
        self._previous: Optional[object] = None

    def _tick(self, signum, frame) -> None:
        start = _clock()
        self._pos = probe_job(self._pos)
        self.samples.append(_clock() - start)

    def start(self, interval: float) -> "SpeedProbe":
        """Warm the job up, then run it every ``interval`` seconds."""
        for _ in range(3):
            self._pos = probe_job(self._pos)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def take(self) -> List[float]:
        """The samples so far, which are then cleared."""
        samples, self.samples = self.samples, []
        return samples


def corrected(wall_s: float, samples: List[float]) -> float:
    """``wall_s`` without the probe's own time, at the reference speed.

    ``samples`` are the probe times taken inside ``wall_s``; with none,
    the wall time is returned unchanged.
    """
    if not samples:
        return wall_s
    own = wall_s - sum(samples)
    return own * NOMINAL_PROBE_S / statistics.fmean(samples)
