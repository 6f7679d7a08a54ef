"""Host-speed calibration, interleaved with the measured work.

The benchmark runs on a few cores of a shared host, whose speed for
pure-Python code drifts by a fifth or more over seconds and minutes as
other tenants come and go.  An absolute wall time therefore moves with
the host, not with the program.  To separate the two, the benchmark
splits every measured phase into short windows and, between windows,
runs one *calibration round*: a fixed piece of pure-Python work that
does not touch the program under test (dict lookups over a table of
small objects, bytes slicing and copying, an LRU ``OrderedDict``, a
``heapq`` and integer arithmetic — the interpreter paths the program's
data path uses — and a bisect-and-scan over a sorted list of interval
tuples too large for the caches, the memory-bound pattern of
``simcloud.resources`` under a backlog).  Its time is excluded from the
measurement.

A window's *speed factor* is ``REF_NS`` divided by the median round
time around it (``SMOOTH`` rounds each side), and a normalised time is
the measured time times that factor: the time the work would have taken
on a host where one calibration round takes ``REF_NS``.  A change to the
program moves the normalised figures; a slower host moves the rounds
too, and most of its effect cancels.  Code does not all slow alike (the
work here is more memory-bound than the rounds), so some remains: over
ten seeds on the 2-vCPU machine below, the quartile spread of
``ops_per_s`` was 0.10-0.27 of its median raw and 0.02-0.07 normalised.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time
from bisect import bisect_left
from collections import OrderedDict
from typing import List, Sequence, Tuple

#: Median round time on the machine the benchmark was sized on (2 vCPU,
#: Intel Xeon, CPython 3.11), so normalised figures read as wall time
#: there.  A constant: changing it rescales every normalised metric.
REF_NS = 4_400_000
#: Rounds on each side of a window whose median sets its speed factor.
SMOOTH = 4

_rng = random.Random(0)
_KEYS = [f"cal{i:08d}" for i in range(1 << 12)]


class _Rec:
    __slots__ = ("key", "size", "ver")

    def __init__(self, key: str, size: int, ver: int):
        self.key, self.size, self.ver = key, size, ver


_TABLE = {k: _Rec(k, _rng.randrange(4096), 0) for k in _KEYS}
_ORDER = [_KEYS[_rng.randrange(len(_KEYS))] for _ in range(1 << 12)]
_BLOBS = [_rng.randbytes(4096) for _ in range(16)]
_STORE = {k: _BLOBS[i & 15] for i, k in enumerate(_KEYS)}
_SKEWED = [_KEYS[int(_rng.paretovariate(1.2) * 7) % 4096] for _ in range(1 << 12)]
#: interval tuples allocated in random order, then sorted, so walking
#: the list visits memory at random (~10 MB: beyond the caches)
_POINTS = [float(i) for i in range(64)]
_INTERVALS = sorted(
    (_rng.random() * 1e3, _POINTS[i & 63]) for i in range(150_000)
)
#: where the next scan starts; each round walks parts of the interval
#: list that the last ~160 rounds did not, so the walk is always cold
_SCAN_AT = [0]


# The kernels only read the module's tables: a round that replaced
# entries would scatter them over the program's heap, and its cost would
# drift with the program's allocations.


def _objects(n: int) -> int:
    table, order, blob, acc, out = _TABLE, _ORDER, _BLOBS[0], 0, []
    for i in range(n):
        key = order[i & 0xFFF]
        rec = table[key]
        if rec.size & 1:
            rec = _Rec(key, rec.size, rec.ver + 1)
        else:
            cut = rec.size & 1023
            out.append(blob[cut:cut + 64])
        acc += len(key) + rec.ver
        if len(out) > 256:
            out.clear()
    return acc


def _cache(n: int) -> int:
    store, lru, events, acc = _STORE, OrderedDict(), [], 0
    for i in range(n):
        key = _SKEWED[i & 0xFFF]
        value = lru.get(key)
        if value is None:
            value = store[key]
            lru[key] = value
            if len(lru) > 512:
                lru.popitem(last=False)
        else:
            lru.move_to_end(key)
        if i % 16 == 0:
            value = value[::-1]
        heapq.heappush(events, (i * 0.001, key))
        if len(events) > 64:
            heapq.heappop(events)
        acc += len(value)
    return acc


def _scan(n: int, span: int) -> float:
    intervals, acc, at = _INTERVALS, 0.0, _SCAN_AT[0]
    _SCAN_AT[0] = at + n
    for j in range(at, at + n):
        idx = bisect_left(intervals, ((j * 7919) % 997, -1.0))
        for start, end in intervals[idx:idx + span]:
            if end > acc:
                acc = end
    return acc


def _arith(n: int) -> int:
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return acc


def calibration_round() -> Tuple[int, int]:
    """Run one round of fixed work; return its wall and CPU nanoseconds."""
    wall, cpu = time.perf_counter_ns(), time.process_time_ns()
    _objects(700)
    _cache(700)
    _arith(6000)
    _scan(6, 3000)
    return time.perf_counter_ns() - wall, time.process_time_ns() - cpu


def speed_factors(rounds: Sequence[int]) -> List[float]:
    """Per-window speed factor: REF_NS / the median of the rounds within
    SMOOTH of it (a single round is too short to trust on its own)."""
    factors = []
    for i in range(len(rounds)):
        near = rounds[max(0, i - SMOOTH):i + SMOOTH + 1]
        factors.append(REF_NS / statistics.median(near))
    return factors


class Windows:
    """Measured work cut into windows, a calibration round after each.

    ``split(calls)`` closes the current window (recording its wall and
    CPU time and the running call count), runs a round, and opens the
    next window, so rounds are never inside a window.
    """

    def __init__(self) -> None:
        self.wall: List[int] = []
        self.cpu: List[int] = []
        self.rounds: List[int] = []
        self.cpu_rounds: List[int] = []
        #: calls done at the end of each window
        self.marks: List[int] = []
        self._open()

    def _open(self) -> None:
        self._wall, self._cpu = time.perf_counter_ns(), time.process_time_ns()

    def split(self, calls: int = 0) -> None:
        self.wall.append(time.perf_counter_ns() - self._wall)
        self.cpu.append(time.process_time_ns() - self._cpu)
        self.marks.append(calls)
        wall, cpu = calibration_round()
        self.rounds.append(wall)
        self.cpu_rounds.append(cpu)
        self._open()

    def factors(self) -> List[float]:
        return speed_factors(self.rounds)

    def cpu_factors(self) -> List[float]:
        return speed_factors(self.cpu_rounds)

    def normalised_s(self) -> float:
        """Total normalised wall seconds of the closed windows."""
        return sum(w * f for w, f in zip(self.wall, self.factors())) / 1e9
