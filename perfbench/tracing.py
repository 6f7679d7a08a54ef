"""Span tracing installed from outside the program, and span self time.

:func:`install` replaces the public functions named in :data:`TARGETS`
with wrappers that record one span per call: name, start, end, parent
and a request id shared by every span of one facade call.  Nothing in
``src/`` changes; :func:`uninstall` puts the originals back.

Spans live in per-thread buffers (parallel ``array`` columns, so tens
of millions of spans stay compact).  A span opened by a thread with no
open span of its own -- the RPC server's worker -- is parented to the
innermost open span of the load-generating thread, which at that point
is blocked in the client call that caused the work.

A layer is named after the module that defines the wrapped function
(the first part of every span name).  Self time is
a span's duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import operator
import os
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, class or None for module functions, functions)
TARGETS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("server", "repro.core.server", "TieraServer",
     ("put_object", "get_object", "delete_object", "execute_batch")),
    ("sharding", "repro.core.sharding", "ShardedTieraServer", ("execute_batch",)),
    ("sharding", "repro.core.sharding", "ConsistentHashRing", ("owner",)),
    ("rpc", "repro.rpc.client", "TieraClient",
     ("put_object", "get_object", "delete_object", "execute_batch",
      "put_many", "get_many", "delete_many")),
    # the protocol functions as the client module calls them
    ("rpc", "repro.rpc.client", None, ("write_frame", "read_frame")),
    ("control", "repro.core.control", "ControlLayer",
     ("dispatch_action", "evaluate_thresholds")),
    ("responses", "repro.core.responses", "Response", ("execute",)),
    ("instance", "repro.core.instance", "TieraInstance",
     ("write_to_tier", "write_fanout", "read_raw", "remove_from_tier",
      "delete_object", "prepare_overwrite", "create_object", "persist_meta",
      "iter_meta")),
    ("kvstore", "repro.kvstore.store", "KVStore", ("put", "get", "delete")),
    ("placement", "repro.core.placement", "PlacementEngine", ("plan", "run_cycle")),
    ("tiers", "repro.tiers.base", "Tier", ("put", "get", "delete")),
    ("services", "repro.simcloud.services.base", "StorageService",
     ("put", "get", "delete")),
    ("resources", "repro.simcloud.resources", "Resource", ("acquire",)),
    ("clock", "repro.simcloud.clock", "SimClock", ("run_until",)),
    ("obs", "repro.obs.registry", "Counter", ("inc",)),
    ("obs", "repro.obs.registry", "Gauge", ("set",)),
    ("obs", "repro.obs.registry", "Histogram", ("observe",)),
    ("obs", "repro.obs.trace", "Tracer", ("start_request", "finish_request")),
    ("obs", "repro.obs.heat", "HeatTracker", ("record", "record_tier")),
    ("obs", "repro.obs.slo", "SloEngine", ("record",)),
)

#: span-id layout: thread buffer number in the high bits, index below
_SHIFT = 40
_MASK = (1 << _SHIFT) - 1
NO_PARENT = -1


class _Buffer:
    """One thread's spans, as parallel columns."""

    __slots__ = ("base", "start", "end", "parent", "name", "req", "stack")

    def __init__(self, number: int):
        self.base = number << _SHIFT
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("l")
        self.req = array("q")
        self.stack: List[int] = []  # local indices of open spans


class Recorder:
    """Collects spans while active; counts extra figures via probes."""

    def __init__(self):
        self.active = False
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.buffers: List[_Buffer] = []
        self._load: Optional[_Buffer] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._requests = 0
        #: probe sums, e.g. kvstore bytes written, resource waits
        self.sums: Dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, amount: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + amount

    def start(self) -> None:
        """Begin recording; the calling thread generates the load."""
        self._load = self._buffer()
        self.active = True

    def stop(self) -> None:
        self.active = False

    def load_buffer_number(self) -> int:
        """Buffer (``thread`` column) number of the load thread."""
        return self._load.base >> _SHIFT if self._load is not None else 0

    def span_count(self) -> int:
        return sum(len(buf.start) for buf in self.buffers)

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self.buffers))
                self.buffers.append(buf)
            self._local.buf = buf
        return buf

    def _root(self, buf: _Buffer) -> Tuple[int, int]:
        """Parent and request id for a span opened on an empty stack."""
        load = self._load
        if buf is not load and load is not None:
            try:
                top = load.stack[-1]
            except IndexError:  # the load thread is between calls
                pass
            else:
                return load.base | top, load.req[top]
        self._requests += 1
        return NO_PARENT, self._requests

    def wrap(self, fn: Callable, name: str,
             label: Optional[Callable] = None,
             probe: Optional[Callable] = None) -> Callable:
        """A recording wrapper around ``fn``.

        ``label(args)`` may pick the span's name per call (tier-named
        spans); ``probe(args, result)`` runs after the span has closed.
        """
        rec = self
        perf = time.perf_counter_ns
        fixed = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            buf = getattr(rec._local, "buf", None) or rec._buffer()
            stack = buf.stack
            if stack:
                parent = buf.base | stack[-1]
                req = buf.req[stack[-1]]
            else:
                parent, req = rec._root(buf)
            index = len(buf.start)
            buf.parent.append(parent)
            buf.name.append(label(args) if label is not None else fixed)
            buf.req.append(req)
            buf.end.append(0)
            stack.append(index)
            buf.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[index] = perf()
                stack.pop()
            if probe is not None:
                probe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis ------------------------------------------------------------

    def flat(self) -> Dict[str, list]:
        """All spans as flat columns with parents as flat indices."""
        offsets, total = [], 0
        for buf in self.buffers:
            offsets.append(total)
            total += len(buf.start)
        start, end, name, req, parent = [], [], [], [], []
        for buf in self.buffers:
            start.extend(buf.start)
            end.extend(buf.end)
            name.extend(buf.name)
            req.extend(buf.req)
            parent.extend(
                NO_PARENT if p < 0 else offsets[p >> _SHIFT] + (p & _MASK)
                for p in buf.parent
            )
        thread = []
        for number, buf in enumerate(self.buffers):
            thread.extend([number] * len(buf.start))
        return {"start": start, "end": end, "name": name, "req": req,
                "parent": parent, "thread": thread}

    def write(self, path: str) -> None:
        """Write every span (binary columns + JSON header) to ``path``."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        header = {"names": self.names, "columns": [], "sums": self.sums,
                  "parent": f"thread << {_SHIFT} | index; {NO_PARENT} = root",
                  "clock": "time.perf_counter_ns"}
        with open(path + ".bin", "wb") as out:
            for number, buf in enumerate(self.buffers):
                for column in ("start", "end", "parent", "name", "req"):
                    data = getattr(buf, column)
                    header["columns"].append(
                        {"thread": number, "column": column,
                         "typecode": data.typecode, "count": len(data)}
                    )
                    data.tofile(out)
        with open(path + ".json", "w") as out:
            json.dump(header, out)


def _union(intervals: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    merged: List[Tuple[int, int]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def _overlap(a: List[Tuple[int, int]], b: List[Tuple[int, int]]) -> int:
    """Total overlap of two sorted lists of disjoint intervals."""
    total = i = j = 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def self_times(spans: Dict[str, list]) -> List[int]:
    """Self time of every span: its duration minus its children's cover.

    A thread's spans nest strictly, so same-thread children never
    overlap and their durations add up.  Work another thread does for a
    request (the RPC server's) runs while the requesting thread waits,
    but that thread may still be inside an earlier span -- finishing
    its request frame, or waiting for the interpreter lock -- when the
    work starts.  So cross-thread work is subtracted, by time overlap,
    from whichever of the request's spans on the requesting thread was
    innermost at each instant, not from the one recorded as parent.
    """
    start, end, parent, thread, req = (
        spans["start"], spans["end"], spans["parent"], spans["thread"],
        spans["req"],
    )
    n = len(start)
    covered = [0] * n
    remote: Dict[int, List[Tuple[int, int]]] = {}  # request -> worker intervals
    home: Dict[int, int] = {}  # request -> requesting thread
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        if thread[i] != thread[p]:
            remote.setdefault(req[i], []).append((start[i], end[i]))
            home[req[i]] = thread[p]
        else:
            covered[p] += end[i] - start[i]
    selfs = [end[i] - start[i] - covered[i] for i in range(n)]
    if not remote:
        return selfs
    members: Dict[int, List[int]] = {r: [] for r in remote}
    for i in range(n):
        r = req[i]
        if r in members and thread[i] == home[r]:
            members[r].append(i)
    for r, items in members.items():
        busy = _union(remote[r])
        children: Dict[int, List[Tuple[int, int]]] = {i: [] for i in items}
        for i in items:
            if parent[i] in children:
                children[parent[i]].append((start[i], end[i]))
        for c in items:
            # the instants at which ``c`` was the innermost span
            gaps, cursor = [], start[c]
            for lo, hi in sorted(children[c]):
                if lo > cursor:
                    gaps.append((cursor, lo))
                cursor = max(cursor, hi)
            if end[c] > cursor:
                gaps.append((cursor, end[c]))
            selfs[c] -= _overlap(gaps, busy)
    return selfs


class _CountingSocket:
    """Socket stand-in that counts the bytes the client puts on the wire."""

    def __init__(self, sock, recorder: Recorder):
        self._sock = sock
        self._rec = recorder

    def sendall(self, data) -> None:
        self._sock.sendall(data)
        if self._rec.active:
            self._rec.add("rpc.wire_bytes", len(data))

    def recv(self, n: int) -> bytes:
        chunk = self._sock.recv(n)
        if self._rec.active:
            self._rec.add("rpc.wire_bytes", len(chunk))
        return chunk

    def __getattr__(self, attr):
        return getattr(self._sock, attr)


def count_wire_bytes(facade, recorder: Recorder) -> None:
    """Count a TieraClient's wire traffic (its one connection); other
    facades put nothing on a wire."""
    from repro.rpc.client import TieraClient

    if isinstance(facade, TieraClient):
        facade._sock = _CountingSocket(facade._sock, recorder)


def _subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


def _probes(rec: Recorder) -> Dict[str, Callable]:
    def kv_put(args, result):
        rec.add("kvstore.put_bytes", len(args[1]) + len(args[2]))

    def acquire(args, result):
        rec.add("resources.wait_s", result[0] - args[1])
        rec.add("resources.busy_s", args[2])

    def run_cycle(args, result):
        rec.add("placement.moves", sum(
            1 for decision in result["decisions"] if decision.get("applied")
        ))

    def iter_meta(args, result):
        rec.add("instance.meta_scanned", operator.length_hint(result))

    return {"KVStore.put": kv_put, "Resource.acquire": acquire,
            "PlacementEngine.run_cycle": run_cycle,
            "TieraInstance.iter_meta": iter_meta}


def install(rec: Recorder) -> List[Tuple[object, str, object]]:
    """Wrap every target; returns what :func:`uninstall` restores."""
    probes = _probes(rec)
    saved: List[Tuple[object, str, object]] = []
    for layer, module_name, class_name, functions in TARGETS:
        module = importlib.import_module(module_name)
        if class_name is None:
            owners = [(module, f"{layer}.{module_name.rsplit('.', 1)[1]}")]
        else:
            base = getattr(module, class_name)
            owners = [(cls, f"{layer}.{cls.__name__}") for cls in _subclasses(base)]
        for owner, prefix in owners:
            for function in functions:
                original = vars(owner).get(function)
                if original is None or getattr(
                    original, "__isabstractmethod__", False
                ):
                    continue  # inherited or abstract: never runs itself
                base_name = f"{class_name}.{function}" if class_name else function
                label = None
                if layer == "tiers" and function == "get":
                    # name tier reads by tier, to tell fast hits from misses
                    label = _tier_label(rec, f"{prefix}.{function}")
                wrapper = rec.wrap(original, f"{prefix}.{function}",
                                   label=label, probe=probes.get(base_name))
                saved.append((owner, function, original))
                setattr(owner, function, wrapper)
    return saved


def _tier_label(rec: Recorder, name: str) -> Callable:
    ids: Dict[str, int] = {}

    def label(args) -> int:
        tier = args[0].name
        if tier not in ids:
            ids[tier] = rec.name_id(f"{name}@{tier}")
        return ids[tier]

    return label


def uninstall(saved: List[Tuple[object, str, object]]) -> None:
    for owner, function, original in reversed(saved):
        setattr(owner, function, original)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
