"""Workload heat telemetry: per-object access heat and hot-key detection.

The placement decisions Tiera's policies make (promote, write back,
evict) are only as good as what the system can *see* about its own
workload.  This module is that measurement layer:

* a :class:`HeatTracker` recording per-object access statistics —
  windowed access frequency (EWMA over configurable decay windows),
  last-access recency, size class, and read/write mix — fed by hooks
  in the instance data path and the server's op loop;
* a bounded-memory **Space-Saving** heavy-hitter sketch
  (:class:`SpaceSavingSketch`) surfacing the top-k hot set with O(k)
  state regardless of keyspace size, with deterministic tie-breaking
  so same-seed runs stay byte-identical;
* per-tier **occupancy/utilization timelines** sampled on the virtual
  clock at record boundaries (never by scheduling timers, so enabling
  the tracker cannot move a simulated timestamp);
* a workload **characterizer** estimating zipfian skew (log-log slope
  of the sketch's count-vs-rank curve) and hot-set churn (turnover of
  the top-k between samples).

Like every pillar of :mod:`repro.obs`, the tracker obeys the Figure 18
observer-effect rule: recording never touches a ``RequestContext``, a
resource, or an RNG.  It is inert (and near-free) until
:meth:`HeatTracker.enable` is called.
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.simcloud.clock import Clock

#: EWMA decay windows, in virtual seconds (short- and long-horizon heat).
DEFAULT_WINDOWS = (60.0, 300.0)

#: Space-Saving sketch capacity: the hot set is read from the top of
#: these k monitored counters.
DEFAULT_TOP_K = 32

#: Per-object stat table cap; least-recently-accessed entries fall off.
DEFAULT_MAX_OBJECTS = 4096

#: Virtual seconds between occupancy/characterizer samples.
DEFAULT_SAMPLE_INTERVAL = 5.0

#: Guaranteed count (count − error) before a sketch entry counts as hot.
DEFAULT_HOT_MIN = 4

#: How many occupancy samples the timeline retains.
DEFAULT_TIMELINE_CAPACITY = 512

#: How many trailing timeline samples a summary carries.
SUMMARY_TIMELINE_SAMPLES = 20

#: Upper bounds of the size classes, in bytes (last class is open).
SIZE_CLASS_BOUNDS: Tuple[Tuple[int, str], ...] = (
    (1024, "<1K"),
    (4 * 1024, "1K-4K"),
    (16 * 1024, "4K-16K"),
    (64 * 1024, "16K-64K"),
    (1024 * 1024, "64K-1M"),
)
SIZE_CLASS_OVERFLOW = ">1M"


def size_class(size: Optional[int]) -> str:
    """The histogram class a payload size falls in (``?`` when unknown)."""
    if size is None:
        return "?"
    for bound, label in SIZE_CLASS_BOUNDS:
        if size < bound:
            return label
    return SIZE_CLASS_OVERFLOW


class SpaceSavingSketch:
    """Metwally et al.'s Space-Saving top-k sketch.

    Holds at most ``capacity`` monitored ``(count, error)`` counters.
    A key already monitored increments in place; an unmonitored key
    replaces the entry with the **smallest count** (ties broken by the
    lexicographically smallest key, so eviction order — and therefore
    every downstream snapshot — is a pure function of the input
    stream), inheriting that count as its overestimation ``error``.

    Guarantees: every key with true frequency > N/capacity is present,
    and for each entry ``count − error ≤ true ≤ count``.
    """

    def __init__(self, capacity: int = DEFAULT_TOP_K):
        if capacity < 1:
            raise ValueError("sketch capacity must be >= 1")
        self.capacity = capacity
        self._entries: Dict[str, List[int]] = {}  # key -> [count, error]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def observe(self, key: str) -> None:
        entry = self._entries.get(key)
        if entry is not None:
            entry[0] += 1
            return
        if len(self._entries) < self.capacity:
            self._entries[key] = [1, 0]
            return
        victim = min(
            self._entries.items(), key=lambda item: (item[1][0], item[0])
        )
        min_count = victim[1][0]
        del self._entries[victim[0]]
        self._entries[key] = [min_count + 1, min_count]

    def count(self, key: str) -> int:
        entry = self._entries.get(key)
        return entry[0] if entry else 0

    def error(self, key: str) -> int:
        entry = self._entries.get(key)
        return entry[1] if entry else 0

    def top(self, n: Optional[int] = None) -> List[Tuple[str, int, int]]:
        """``(key, count, error)`` by descending count (key tie-break)."""
        ranked = sorted(
            ((key, c, e) for key, (c, e) in self._entries.items()),
            key=lambda item: (-item[1], item[0]),
        )
        return ranked if n is None else ranked[:n]

    def to_dict(self) -> List[Dict[str, object]]:
        return [
            {"key": key, "count": count, "error": error}
            for key, count, error in self.top()
        ]


def estimate_skew(counts: Sequence[int]) -> float:
    """Zipf exponent estimate from a descending top-k count profile.

    Fits the slope of ``ln(count)`` against ``ln(rank)`` by least
    squares; under a zipfian workload counts fall as ``rank^-θ``, so
    the negated slope estimates θ.  Returns 0.0 when the profile is
    too short or flat to say anything.
    """
    points = [
        (math.log(rank), math.log(count))
        for rank, count in enumerate(counts, start=1)
        if count > 0
    ]
    if len(points) < 2:
        return 0.0
    n = len(points)
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    var_x = sum((x - mean_x) ** 2 for x, _ in points)
    if var_x == 0.0:
        return 0.0
    cov = sum((x - mean_x) * (y - mean_y) for x, y in points)
    return round(max(0.0, -(cov / var_x)), 4)


class _ObjectHeat:
    """Per-object access statistics (one row of the tracked table)."""

    __slots__ = ("reads", "writes", "last_access", "last_size", "rates")

    def __init__(self, windows: Tuple[float, ...]):
        self.reads = 0
        self.writes = 0
        self.last_access = 0.0
        self.last_size: Optional[int] = None
        self.rates = [0.0] * len(windows)

    def touch(
        self, op: str, size: Optional[int], now: float,
        windows: Tuple[float, ...],
    ) -> None:
        dt = now - self.last_access
        for i, window in enumerate(windows):
            decay = math.exp(-dt / window) if self.rates[i] else 0.0
            self.rates[i] = 1.0 / window + self.rates[i] * decay
        if op == "get":
            self.reads += 1
        else:
            self.writes += 1
        self.last_access = now
        if size is not None:
            self.last_size = size

    def to_dict(self, windows: Tuple[float, ...]) -> Dict[str, object]:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "last_access": round(self.last_access, 6),
            "size": self.last_size,
            "size_class": size_class(self.last_size),
            "rates": {
                f"{int(w)}s": round(rate, 9)
                for w, rate in zip(windows, self.rates)
            },
        }


class HeatTracker:
    """Measures workload heat on the virtual clock.

    Construction is free and the tracker starts disabled: ``record``
    returns immediately until :meth:`enable` configures it, so every
    stack carries one without paying for it (the SLO engine's
    contract).  Enabling creates the ``tiera_heat_*`` metric families
    and registers a registry collector that refreshes the gauges at
    snapshot time.
    """

    def __init__(
        self,
        metrics,
        audit=None,
        clock: Optional[Clock] = None,
    ):
        self.metrics = metrics
        self.audit = audit
        self.clock = clock
        self.enabled = False
        self.windows: Tuple[float, ...] = DEFAULT_WINDOWS
        self.top_k = DEFAULT_TOP_K
        self.max_objects = DEFAULT_MAX_OBJECTS
        self.sample_interval = DEFAULT_SAMPLE_INTERVAL
        self.hot_min = DEFAULT_HOT_MIN
        #: live tier occupancy source, installed by the instance:
        #: ``() -> [(tier, used, capacity), …]``.
        self.occupancy_source: Optional[Callable[[], List[Tuple]]] = None
        self._sketch = SpaceSavingSketch(self.top_k)
        self._objects: "OrderedDict[str, _ObjectHeat]" = OrderedDict()
        self._tier_ops: Dict[Tuple[str, str], int] = {}
        self._size_classes: Dict[str, int] = {}
        self.reads = 0
        self.writes = 0
        self.deletes = 0
        self.timeline: Deque[Dict[str, object]] = deque(
            maxlen=DEFAULT_TIMELINE_CAPACITY
        )
        self.churn = 0.0
        self._last_hot: Optional[frozenset] = None
        self._next_sample: Optional[float] = None
        self._last_seen = 0.0
        self._collector_installed = False

    # -- lifecycle ----------------------------------------------------------

    def enable(
        self,
        windows: Optional[Sequence[float]] = None,
        top_k: Optional[int] = None,
        max_objects: Optional[int] = None,
        sample_interval: Optional[float] = None,
        hot_min: Optional[int] = None,
    ) -> "HeatTracker":
        """Turn the tracker on (idempotent; reconfigures in place).

        Every option is validated before any is applied, so a refused
        call leaves the tracker exactly as it was."""
        if windows is not None:
            windows = tuple(float(w) for w in windows)
            if not windows or any(w <= 0 for w in windows):
                raise ValueError("decay windows must be positive")
        sketch = SpaceSavingSketch(int(top_k)) if top_k is not None else None
        if sample_interval is not None and sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        if max_objects is not None:
            max_objects = int(max_objects)
        if hot_min is not None:
            hot_min = int(hot_min)
        if windows is not None:
            self.windows = windows
        if sketch is not None:
            self.top_k = sketch.capacity
            self._sketch = sketch
        if max_objects is not None:
            self.max_objects = max_objects
        if sample_interval is not None:
            self.sample_interval = float(sample_interval)
        if hot_min is not None:
            self.hot_min = hot_min
        self.enabled = True
        self._install_metrics()
        return self

    def _install_metrics(self) -> None:
        m = self.metrics
        self._m_accesses = m.counter(
            "tiera_heat_accesses_total",
            "Client object accesses seen by the heat tracker",
        )
        self._m_tier_accesses = m.counter(
            "tiera_heat_tier_accesses_total",
            "Tier data-path touches seen by the heat tracker",
        )
        self._m_size_class = m.counter(
            "tiera_heat_size_class_total",
            "Accesses by payload size class",
        )
        self._m_tracked = m.gauge(
            "tiera_heat_tracked_objects",
            "Objects with live per-object heat statistics",
        )
        self._m_hot = m.gauge(
            "tiera_heat_hot_count",
            "Sketch count of each currently-hot key",
        )
        self._m_skew = m.gauge(
            "tiera_heat_skew", "Estimated zipfian skew of the workload"
        )
        self._m_churn = m.gauge(
            "tiera_heat_churn", "Hot-set turnover between samples"
        )
        self._m_util = m.gauge(
            "tiera_heat_tier_utilization",
            "Tier fill fraction at the last occupancy sample",
        )
        if not self._collector_installed:
            m.add_collector(self._collect)
            self._collector_installed = True

    def shutdown(self) -> None:
        if self._collector_installed:
            self.metrics.remove_collector(self._collect)
            self._collector_installed = False

    # -- recording ----------------------------------------------------------

    def _now(self, at: Optional[float]) -> float:
        if at is None:
            at = self.clock.now() if self.clock is not None else self._last_seen
        self._last_seen = max(self._last_seen, at)
        return self._last_seen

    def record(
        self,
        op: str,
        key: str,
        size: Optional[int] = None,
        tier: Optional[str] = None,
        at: Optional[float] = None,
    ) -> None:
        """One client-level object access (the per-op feed point)."""
        if not self.enabled:
            return
        now = self._now(at)
        if op == "get":
            self.reads += 1
        elif op == "delete":
            self.deletes += 1
        else:
            self.writes += 1
        self._m_accesses.inc(op=op)
        cls = size_class(size)
        self._size_classes[cls] = self._size_classes.get(cls, 0) + 1
        self._m_size_class.inc(**{"class": cls})
        self._sketch.observe(key)
        stats = self._objects.get(key)
        if stats is None:
            stats = self._objects[key] = _ObjectHeat(self.windows)
        else:
            self._objects.move_to_end(key)
        stats.touch(op, size, now, self.windows)
        while len(self._objects) > self.max_objects:
            self._objects.popitem(last=False)
        if tier is not None:
            self._record_tier(op, tier)
        self._maybe_sample(now)

    def record_tier(
        self, op: str, tier: str, at: Optional[float] = None
    ) -> None:
        """One tier data-path touch (the instance-level feed point)."""
        if not self.enabled:
            return
        self._now(at)
        self._record_tier(op, tier)

    def _record_tier(self, op: str, tier: str) -> None:
        self._tier_ops[(tier, op)] = self._tier_ops.get((tier, op), 0) + 1
        self._m_tier_accesses.inc(tier=tier, op=op)

    # -- sampling / characterizer -------------------------------------------

    def _maybe_sample(self, now: float) -> None:
        if self._next_sample is None:
            self._next_sample = now + self.sample_interval
            self.sample(now)
        elif now >= self._next_sample:
            self.sample(now)
            self._next_sample = now + self.sample_interval

    def sample(self, now: float) -> None:
        """Take one occupancy + characterizer sample at virtual ``now``."""
        tiers: Dict[str, Dict[str, object]] = {}
        if self.occupancy_source is not None:
            for name, used, capacity in self.occupancy_source():
                utilization = (
                    round(used / capacity, 6) if capacity and capacity > 0
                    else None
                )
                tiers[name] = {
                    "used": used,
                    "capacity": capacity,
                    "utilization": utilization,
                }
        self.timeline.append({"time": round(now, 6), "tiers": tiers})
        hot = frozenset(key for key, _, _ in self._hot_entries())
        if self._last_hot is not None and self._last_hot:
            stable = len(hot & self._last_hot)
            self.churn = round(1.0 - stable / len(self._last_hot), 4)
        self._last_hot = hot

    # -- queries ------------------------------------------------------------

    def _hot_entries(self) -> List[Tuple[str, int, int]]:
        return [
            (key, count, error)
            for key, count, error in self._sketch.top(self.top_k)
            if count - error >= self.hot_min
        ]

    def hot_keys(self) -> List[str]:
        """Currently-hot keys, hottest first."""
        return [key for key, _, _ in self._hot_entries()]

    def is_hot(self, key: str) -> bool:
        if not self.enabled:
            return False
        count = self._sketch.count(key)
        return bool(count) and count - self._sketch.error(key) >= self.hot_min

    def heat_rate(self, key: str, now: Optional[float] = None) -> float:
        """Shortest-window EWMA access rate of ``key`` (0.0 if untracked).

        Rates are stored as of the key's last access; pass ``now`` to
        decay the stored value to the present — an idle key's heat must
        fall even though nothing touches it (the placement engine's
        demotion scores depend on this).
        """
        stats = self._objects.get(key)
        if stats is None:
            return 0.0
        rate = stats.rates[0]
        if now is not None and rate and now > stats.last_access:
            rate *= math.exp(-(now - stats.last_access) / self.windows[0])
        return rate

    def last_access(self, key: str) -> float:
        """Virtual time of ``key``'s latest access (0.0 if untracked)."""
        stats = self._objects.get(key)
        return stats.last_access if stats is not None else 0.0

    def skew(self) -> float:
        return estimate_skew([c for _, c, _ in self._sketch.top()])

    def tier_stats(self, tier: str) -> Dict[str, object]:
        """Measured heat attributes of one tier (spec-condition surface)."""
        reads = self._tier_ops.get((tier, "get"), 0)
        writes = (
            self._tier_ops.get((tier, "put"), 0)
            + self._tier_ops.get((tier, "delete"), 0)
        )
        total = reads + writes
        out: Dict[str, object] = {
            "reads": reads,
            "writes": writes,
            "accesses": total,
            "read_fraction": round(reads / total, 6) if total else 0.0,
            "write_fraction": round(writes / total, 6) if total else 0.0,
            "used": 0,
            "capacity": 0,
            "utilization": 0.0,
        }
        if self.timeline:
            latest = self.timeline[-1]["tiers"].get(tier)
            if latest:
                out["used"] = latest["used"]
                out["capacity"] = latest["capacity"]
                if latest["utilization"] is not None:
                    out["utilization"] = latest["utilization"]
        return out

    def global_stats(self) -> Dict[str, object]:
        """Workload-level heat attributes (spec-condition surface)."""
        total = self.reads + self.writes + self.deletes
        return {
            "accesses": total,
            "reads": self.reads,
            "writes": self.writes + self.deletes,
            "read_fraction": round(self.reads / total, 6) if total else 0.0,
            "tracked": len(self._objects),
            "hot_count": len(self._hot_entries()),
            "skew": self.skew(),
            "churn": self.churn,
        }

    def summary(self, limit: Optional[int] = None) -> Dict[str, object]:
        """The full JSON-able heat snapshot (deterministic key order)."""
        if not self.enabled:
            return {"enabled": False}
        hot = []
        for key, count, error in self._hot_entries()[:limit]:
            entry: Dict[str, object] = {
                "key": key,
                "count": count,
                "error": error,
                "guaranteed": count - error,
            }
            stats = self._objects.get(key)
            if stats is not None:
                entry.update(stats.to_dict(self.windows))
            hot.append(entry)
        tier_names = sorted({tier for tier, _ in self._tier_ops})
        if self.timeline:
            tier_names = sorted(
                set(tier_names) | set(self.timeline[-1]["tiers"])
            )
        total = self.reads + self.writes + self.deletes
        return {
            "enabled": True,
            "config": {
                "windows": list(self.windows),
                "top_k": self.top_k,
                "max_objects": self.max_objects,
                "sample_interval": self.sample_interval,
                "hot_min": self.hot_min,
            },
            "accesses": {
                "total": total,
                "reads": self.reads,
                "writes": self.writes,
                "deletes": self.deletes,
                "read_fraction": (
                    round(self.reads / total, 6) if total else 0.0
                ),
            },
            "tracked_objects": len(self._objects),
            "sketch_entries": len(self._sketch),
            "hot": hot,
            "hot_keys": [h["key"] for h in hot],
            "tiers": {name: self.tier_stats(name) for name in tier_names},
            "skew": self.skew(),
            "churn": self.churn,
            "size_classes": dict(sorted(self._size_classes.items())),
            "timeline": {
                "samples": len(self.timeline),
                "interval": self.sample_interval,
                "recent": list(self.timeline)[-SUMMARY_TIMELINE_SAMPLES:],
            },
        }

    # -- registry collector --------------------------------------------------

    def _collect(self, registry) -> None:
        if not self.enabled:
            return
        self._m_tracked.set(len(self._objects))
        self._m_skew.set(self.skew())
        self._m_churn.set(self.churn)
        for key, count, _ in self._hot_entries():
            self._m_hot.set(count, key=key)
        if self.timeline:
            for name, state in self.timeline[-1]["tiers"].items():
                if state["utilization"] is not None:
                    self._m_util.set(state["utilization"], tier=name)


#: Sparkline glyphs for the occupancy timeline, coldest to fullest.
_SPARK_LEVELS = " .:-=+*#%@"

#: Width of the per-tier occupancy gauge, in cells.
_GAUGE_WIDTH = 20


def render_report(summary: Dict[str, object], width: int = 40) -> str:
    """The ``repro heat`` text report: hot-key bars, tier occupancy
    gauges, and an ASCII occupancy timeline.  Pure function of the
    summary dict, so same-seed runs render byte-identical reports."""
    if not summary.get("enabled"):
        return "heat tracking is not enabled (pass --enable)"
    acc = summary["accesses"]
    config = summary["config"]
    lines = [
        (
            f"workload heat: {acc['total']} accesses "
            f"({acc['reads']} reads / {acc['writes']} writes / "
            f"{acc['deletes']} deletes), "
            f"{summary['tracked_objects']} objects tracked"
        ),
        (
            f"  skew {summary['skew']:.4f}, churn {summary['churn']:.4f}, "
            f"sketch {summary['sketch_entries']}/{config['top_k']} slots, "
            f"hot_min {config['hot_min']}"
        ),
    ]
    hot = summary["hot"]
    if hot:
        lines.append(f"hot keys ({len(hot)}):")
        peak = max(entry["count"] for entry in hot)
        key_w = max(len(entry["key"]) for entry in hot)
        for entry in hot:
            bar = "#" * max(1, round(width * entry["count"] / peak))
            mix = ""
            if "reads" in entry:
                total = entry["reads"] + entry["writes"]
                pct = 100.0 * entry["reads"] / total if total else 0.0
                mix = f"  r{pct:.0f}% {entry['size_class']}"
            lines.append(
                f"  {entry['key']:<{key_w}}  {entry['count']:>6} "
                f"(err {entry['error']})  {bar:<{width}}{mix}"
            )
    else:
        lines.append("hot keys: none")
    tiers = summary["tiers"]
    if tiers:
        lines.append("tiers:")
        name_w = max(len(name) for name in tiers)
        for name in sorted(tiers):
            stats = tiers[name]
            util = stats.get("utilization")
            if util is None or not stats.get("capacity") or stats["capacity"] <= 0:
                gauge = "unbounded".center(_GAUGE_WIDTH)
                pct = "  ∞ "
            else:
                filled = max(0, min(_GAUGE_WIDTH, round(_GAUGE_WIDTH * util)))
                gauge = "#" * filled + "-" * (_GAUGE_WIDTH - filled)
                pct = f"{util * 100:3.0f}%"
            lines.append(
                f"  {name:<{name_w}}  [{gauge}] {pct}  "
                f"{stats['accesses']} ops, "
                f"r{stats['read_fraction'] * 100:.0f}%"
            )
    recent = summary["timeline"].get("recent") or []
    if recent:
        lines.append(
            f"occupancy timeline (last {len(recent)} samples, "
            f"~{summary['timeline']['interval']:g}s apart):"
        )
        names = sorted({name for s in recent for name in s["tiers"]})
        name_w = max((len(name) for name in names), default=0)
        top = len(_SPARK_LEVELS) - 1
        for name in names:
            cells = []
            for s in recent:
                state = s["tiers"].get(name)
                util = state.get("utilization") if state else None
                if util is None:
                    cells.append("?")
                else:
                    cells.append(_SPARK_LEVELS[min(top, round(util * top))])
            lines.append(f"  {name:<{name_w}}  [{''.join(cells)}]")
    return "\n".join(lines)


def merge_summaries(parts: List[Dict[str, object]]) -> Dict[str, object]:
    """Aggregate per-shard heat summaries into one cluster view.

    Keys route to exactly one shard, so the hot lists are disjoint and
    merge by union → re-rank → truncate; tier traffic and occupancy
    sum across shards; skew is re-estimated from the merged count
    profile and churn is access-weighted.  With a single part the
    input is returned untouched, so a one-shard router's snapshot is
    byte-identical to the direct facade's.
    """
    enabled = [p for p in parts if p.get("enabled")]
    if not enabled:
        return {"enabled": False}
    if len(enabled) == 1:
        return enabled[0]
    first = enabled[0]
    top_k = max(p["config"]["top_k"] for p in enabled)
    hot = sorted(
        (entry for p in enabled for entry in p["hot"]),
        key=lambda e: (-e["count"], e["key"]),
    )[:top_k]
    accesses = {
        field: sum(p["accesses"][field] for p in enabled)
        for field in ("total", "reads", "writes", "deletes")
    }
    accesses["read_fraction"] = (
        round(accesses["reads"] / accesses["total"], 6)
        if accesses["total"] else 0.0
    )
    tiers: Dict[str, Dict[str, object]] = {}
    for p in enabled:
        for name, stats in p["tiers"].items():
            agg = tiers.setdefault(
                name,
                {"reads": 0, "writes": 0, "accesses": 0,
                 "used": 0, "capacity": 0},
            )
            for field in ("reads", "writes", "accesses", "used", "capacity"):
                agg[field] += stats.get(field) or 0
    for stats in tiers.values():
        total = stats["accesses"]
        stats["read_fraction"] = (
            round(stats["reads"] / total, 6) if total else 0.0
        )
        stats["write_fraction"] = (
            round(stats["writes"] / total, 6) if total else 0.0
        )
        stats["utilization"] = (
            round(stats["used"] / stats["capacity"], 6)
            if stats["capacity"] else 0.0
        )
    size_classes: Dict[str, int] = {}
    for p in enabled:
        for cls, n in p["size_classes"].items():
            size_classes[cls] = size_classes.get(cls, 0) + n
    weights = [max(p["accesses"]["total"], 0) for p in enabled]
    weight_sum = sum(weights) or 1
    churn = round(
        sum(p["churn"] * w for p, w in zip(enabled, weights)) / weight_sum, 4
    )
    return {
        "enabled": True,
        "config": dict(first["config"], top_k=top_k),
        "accesses": accesses,
        "tracked_objects": sum(p["tracked_objects"] for p in enabled),
        "sketch_entries": sum(p["sketch_entries"] for p in enabled),
        "hot": hot,
        "hot_keys": [h["key"] for h in hot],
        "tiers": {name: tiers[name] for name in sorted(tiers)},
        "skew": estimate_skew([h["count"] for h in hot]),
        "churn": churn,
        "size_classes": dict(sorted(size_classes.items())),
        "timeline": {
            "samples": sum(p["timeline"]["samples"] for p in enabled),
            "interval": first["timeline"]["interval"],
            # Per-shard sample streams interleave on independent record
            # boundaries; a merged stream would be misleading, so the
            # aggregate view carries counts only.
            "recent": [],
        },
    }


__all__ = [
    "DEFAULT_WINDOWS",
    "DEFAULT_TOP_K",
    "DEFAULT_MAX_OBJECTS",
    "DEFAULT_SAMPLE_INTERVAL",
    "DEFAULT_HOT_MIN",
    "HeatTracker",
    "SpaceSavingSketch",
    "estimate_skew",
    "merge_summaries",
    "render_report",
    "size_class",
]
