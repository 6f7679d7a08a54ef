"""The three benchmark workloads: seeded inputs, stacks and timed drivers.

Every workload is split the same way:

* ``generate(seed, seconds)`` draws every key, operation and payload
  from the seed *before* anything is timed, so the program under test
  only ever receives keys and bytes;
* ``build(seed, inputs, windows)`` is the set-up (construct the stack,
  load the namespace, warm caches) that ``setup_s`` times;
* ``drive(stack, inputs, ...)`` is the timed phase.  It checks every
  envelope and every GET against a plain key -> bytes reference model
  and counts mismatches instead of aborting.

Both the load and the timed phase are cut into short windows with a
host-speed calibration round between them (:mod:`calibrate`); the
rounds are not part of either measurement.

The number of operations in the timed phase is ``OPS_PER_SECOND *
seconds``: fixed for a given ``--seconds`` so that the modelled
(virtual-time) metrics are a pure function of the seed, and sized so
that at the time the benchmark was written the timed phase lasted about
``seconds`` wall seconds on a 2-core machine.
"""

from __future__ import annotations

import heapq
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from calibrate import Windows
from repro.core.api import BatchOp
from repro.core.durability import fsck
from repro.core.server import TieraServer
from repro.core.sharding import ShardedTieraServer
from repro.core.templates import dedup_instance, memcached_ebs_instance
from repro.rpc.client import TieraClient
from repro.rpc.server import TieraRpcServer
from repro.simcloud.cluster import Cluster
from repro.simcloud.pricing import CostMeter
from repro.simcloud.resources import RequestContext
from repro.tiers.registry import TierRegistry
from repro.workloads.distributions import ZipfianKeys

GET, PUT, DELETE = "get", "put", "delete"

#: Virtual closed-loop clients of the direct-server workloads.
CLIENTS = 4
#: Puts per load window during set-up.
LOAD_WINDOW = 200

#: Timed-phase operations per requested second, per workload.
OPS_PER_SECOND = {"read_hot": 5000, "churn_dedup": 1300, "burst_rpc": 2400}

Op = Tuple[str, str, Optional[bytes]]  # (verb, key, payload)


def _payload(rng: random.Random, size: int) -> bytes:
    data = rng.randbytes(size)
    hash(data)  # bytes cache their hash: the model's lookups stay O(1)
    return data


@dataclass
class Inputs:
    """Everything a run sends, generated from the seed before timing."""

    load: List[Tuple[str, bytes]]
    ops: List[Op]
    #: keys read once during set-up to warm a cache (not timed)
    warm: List[str] = field(default_factory=list)
    #: burst_rpc only: ``ops`` cut into the BatchOps of each call
    batches: List[List[BatchOp]] = field(default_factory=list)


@dataclass
class Stack:
    """A built and loaded system under test."""

    facade: object
    clock: object
    instances: list
    meter: CostMeter
    close: Callable[[], None] = lambda: None


class Model:
    """Reference model: the bytes every live key must read back as.

    A not-ok envelope is a failure of kind ``<verb>-<error code>``.  A
    GET whose bytes differ from the model is a failure too: a
    ``stale-read`` when the bytes equal an *earlier* version of the same
    key, ``wrong-bytes`` otherwise.
    """

    def __init__(self, load: List[Tuple[str, bytes]]):
        self.data: Dict[str, bytes] = dict(load)
        self.history: Dict[str, set] = {}
        self.failures: Dict[str, int] = {}

    def fail(self, kind: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1

    def check(self, verb: str, key: str, data: Optional[bytes], result) -> None:
        if not result.ok:
            kind = f"{verb}-{result.error}"
            if result.error == "NO_SUCH_OBJECT" and repr(key) not in result.error_message:
                kind += "-other-key"  # the op tripped over another key's state
            self.fail(kind)
            return
        if verb == PUT:
            old = self.data.get(key)
            if old is not None:
                self.history.setdefault(key, set()).add(hash(old))
            self.data[key] = data
        elif verb == DELETE:
            old = self.data.pop(key, None)
            if old is not None:
                self.history.setdefault(key, set()).add(hash(old))
        elif result.value != self.data.get(key):
            stale = hash(result.value) in self.history.get(key, ())
            self.fail("stale-read" if stale else "wrong-bytes")

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def user_bytes(self) -> int:
        return sum(len(v) for v in self.data.values())


@dataclass
class Phase:
    """What one timed phase measured."""

    ops: int = 0
    #: wall and CPU seconds of the timed phase, calibration rounds excluded
    wall_s: float = 0.0
    cpu_s: float = 0.0
    windows: Windows = field(default_factory=Windows)
    #: wall nanoseconds of each facade call
    call_ns: List[int] = field(default_factory=list)
    #: modelled client latency of each facade call, seconds
    virt: List[float] = field(default_factory=list)
    virt_span: float = 0.0
    model: Optional[Model] = None
    cost_usd_month: float = 0.0
    bytes_stored: int = 0
    fsck_findings: int = 0


def _start(phase: Phase, recorder) -> None:
    if recorder is not None:
        recorder.start()
    phase.windows = Windows()


def _stop(phase: Phase, recorder, ops: int) -> None:
    windows = phase.windows
    if not windows.marks or windows.marks[-1] < len(phase.call_ns):
        windows.split(len(phase.call_ns))
    if recorder is not None:
        recorder.stop()
    phase.wall_s = sum(windows.wall) / 1e9
    phase.cpu_s = sum(windows.cpu) / 1e9
    phase.ops = ops


def _run_direct(stack: Stack, inputs: Inputs, model: Model, recorder,
                window: int) -> Phase:
    """Closed loop of CLIENTS virtual clients over one TieraServer.

    Each client issues its next op when its previous one completes in
    virtual time; the clock is advanced to each issue instant first, so
    timers and background work (placement cycles, promotions) run
    between calls inside the timed phase, as they would for a real
    closed-loop driver.
    """
    server, clock = stack.facade, stack.clock
    start = end = clock.now()
    heap = [(start, client) for client in range(CLIENTS)]
    phase = Phase()
    call_ns, virt = phase.call_ns, phase.virt
    perf, check = time.perf_counter_ns, model.check
    calls = {GET: server.get_object, PUT: server.put_object,
             DELETE: server.delete_object}
    _start(phase, recorder)
    split = phase.windows.split
    for done_ops, (verb, key, data) in enumerate(inputs.ops, 1):
        issue_at, client = heapq.heappop(heap)
        if issue_at > clock.now():
            clock.run_until(issue_at)
        ctx = RequestContext(clock, at=issue_at)
        call = calls[verb]
        t0 = perf()
        try:
            result = call(key, data, ctx=ctx) if verb == PUT else call(key, ctx=ctx)
        except Exception as exc:  # noqa: BLE001 - a raise is a counted failure
            call_ns.append(perf() - t0)
            model.fail(f"raise-{type(exc).__name__}")
        else:
            call_ns.append(perf() - t0)
            virt.append(result.latency)
            check(verb, key, data, result)
        end = max(end, ctx.time)
        heapq.heappush(heap, (ctx.time, client))
        if done_ops % window == 0:
            split(done_ops)
    _stop(phase, recorder, len(inputs.ops))
    phase.virt_span = end - start
    return phase


def _run_batches(stack: Stack, inputs: Inputs, model: Model, recorder,
                 window: int) -> Phase:
    """One client thread sending pre-built 32-op batches over RPC.

    The clock is never advanced, so every batch arrives at the same
    virtual instant and the service channels' backlog keeps growing.
    """
    client = stack.facade
    phase = Phase()
    call_ns, virt = phase.call_ns, phase.virt
    perf, check = time.perf_counter_ns, model.check
    width = len(inputs.batches[0])
    _start(phase, recorder)
    split = phase.windows.split
    for number, batch in enumerate(inputs.batches, 1):
        ops = inputs.ops[(number - 1) * width:number * width]
        t0 = perf()
        try:
            result = client.execute_batch(batch)
        except Exception as exc:  # noqa: BLE001 - a raise is a counted failure
            call_ns.append(perf() - t0)
            for _ in ops:
                model.fail(f"raise-{type(exc).__name__}")
        else:
            call_ns.append(perf() - t0)
            virt.append(result.latency)
            for (verb, key, data), item in zip(ops, result.results):
                check(verb, key, data, item)
        if number % window == 0:
            split(number)
    _stop(phase, recorder, len(inputs.ops))
    phase.virt_span = max(virt, default=0.0)
    return phase


def _direct_stack(seed: int, make_instance) -> Stack:
    cluster = Cluster(seed=seed)
    meter = CostMeter()
    instance = make_instance(TierRegistry(cluster, meter=meter))
    server = TieraServer(instance)
    return Stack(server, cluster.clock, [instance], meter,
                 close=instance.shutdown)


def _load_direct(stack: Stack, inputs: Inputs, windows: Windows) -> None:
    server, clock = stack.facade, stack.clock
    ctx = RequestContext(clock)
    for done, (key, data) in enumerate(inputs.load, 1):
        server.put_object(key, data, ctx=ctx).raise_for_error()
        if done % LOAD_WINDOW == 0:
            windows.split()
    for done, key in enumerate(inputs.warm, 1):
        server.get_object(key, ctx=ctx).raise_for_error()
        if done % LOAD_WINDOW == 0:
            windows.split()
    clock.run_until(ctx.time)


class Workload:
    """Base: a named workload with generate / build / drive."""

    name = ""
    #: ops (direct) or batches (RPC) per timed window, ~50 ms each
    window = 1

    def generate(self, seed: int, seconds: int) -> Inputs:
        raise NotImplementedError

    def build(self, seed: int, inputs: Inputs, windows: Windows) -> Stack:
        """Build and load; ``windows.split()`` marks calibration points."""
        raise NotImplementedError

    def op_count(self, seconds: int) -> int:
        return OPS_PER_SECOND[self.name] * seconds

    def drive(self, stack: Stack, inputs: Inputs, recorder=None) -> Phase:
        """Run the timed phase, then take the end-of-run figures.

        ``recorder`` (a :class:`tracing.Recorder`) records spans during
        the timed phase only.
        """
        model = Model(inputs.load)
        runner = _run_batches if inputs.batches else _run_direct
        phase = runner(stack, inputs, model, recorder, self.window)
        phase.model = model
        phase.cost_usd_month = (
            sum(inst.monthly_cost() for inst in stack.instances)
            + stack.meter.request_charges()
        )
        phase.bytes_stored = sum(
            tier.used for inst in stack.instances for tier in inst.tiers
        )
        phase.fsck_findings = sum(
            len(fsck(inst)["findings"]) for inst in stack.instances
        )
        return phase


class ReadHot(Workload):
    """Zipfian 95/5 get/update over MemcachedEBS with heat + placement."""

    name = "read_hot"
    window = 500
    records, size = 10_000, 4096
    read_share, theta = 0.95, 0.99

    def generate(self, seed: int, seconds: int) -> Inputs:
        rng = random.Random(seed)
        keys = [f"user{i:08d}" for i in range(self.records)]
        load = [(key, _payload(rng, self.size)) for key in keys]
        draw = ZipfianKeys(self.records, theta=self.theta,
                           seed=seed + 1, scramble=True)
        ops: List[Op] = []
        for _ in range(self.op_count(seconds)):
            key = keys[draw.next()]
            if rng.random() < self.read_share:
                ops.append((GET, key, None))
            else:
                ops.append((PUT, key, _payload(rng, self.size)))
        return Inputs(load=load, ops=ops)

    def build(self, seed: int, inputs: Inputs, windows: Windows) -> Stack:
        stack = _direct_stack(
            seed, lambda reg: memcached_ebs_instance(reg, mem="100M", ebs="100M")
        )
        _load_direct(stack, inputs, windows)
        server = stack.facade
        server.configure("heat", top_k=64, hot_min=2).raise_for_error()
        server.configure(
            "placement", objective="balanced", interval=1.0
        ).raise_for_error()
        return stack


class ChurnDedup(Workload):
    """Uniform overwrite/insert/delete/get churn over storeOnce dedup."""

    name = "churn_dedup"
    window = 100
    records, size = 20_000, 4096
    pool_size, dup_share = 256, 0.30
    #: cumulative op mix: overwrite 35%, insert 20%, delete 20%, get 25%
    mix = ((0.35, "overwrite"), (0.55, "insert"), (0.75, DELETE), (1.0, GET))
    #: Memcached holds ~20% of the namespace (Fig 12's split)
    mem = "16M"

    def generate(self, seed: int, seconds: int) -> Inputs:
        rng = random.Random(seed)
        pool = [_payload(rng, self.size) for _ in range(self.pool_size)]

        def payload() -> bytes:
            if rng.random() < self.dup_share:
                return pool[rng.randrange(self.pool_size)]
            return _payload(rng, self.size)

        live = [f"obj{i:08d}" for i in range(self.records)]
        where = {key: i for i, key in enumerate(live)}
        load = [(key, payload()) for key in live]
        warm = rng.sample(live, self.records // 2)
        fresh = self.records
        ops: List[Op] = []
        for _ in range(self.op_count(seconds)):
            roll = rng.random()
            kind = next(k for edge, k in self.mix if roll < edge)
            if kind == "insert":
                key = f"obj{fresh:08d}"
                fresh += 1
                where[key] = len(live)
                live.append(key)
                ops.append((PUT, key, payload()))
                continue
            key = live[rng.randrange(len(live))]
            if kind == "overwrite":
                ops.append((PUT, key, payload()))
            elif kind == GET:
                ops.append((GET, key, None))
            else:
                # swap-remove keeps the live list dense for O(1) draws
                index, last = where.pop(key), live.pop()
                if last != key:
                    live[index] = last
                    where[last] = index
                ops.append((DELETE, key, None))
        return Inputs(load=load, ops=ops, warm=warm)

    def build(self, seed: int, inputs: Inputs, windows: Windows) -> Stack:
        stack = _direct_stack(seed, lambda reg: dedup_instance(reg, mem=self.mem))
        _load_direct(stack, inputs, windows)
        return stack


class BurstRpc(Workload):
    """32-op batches over loopback RPC into a 4-shard router, clock fixed."""

    name = "burst_rpc"
    window = 1
    records, size = 4000, 1024
    shards, batch, preload_chunk = 4, 32, 128

    def op_count(self, seconds: int) -> int:
        return super().op_count(seconds) // self.batch * self.batch

    def generate(self, seed: int, seconds: int) -> Inputs:
        rng = random.Random(seed)
        keys = [f"key{i:06d}" for i in range(self.records)]
        load = [(key, _payload(rng, self.size)) for key in keys]
        ops: List[Op] = []
        for _ in range(self.op_count(seconds)):
            key = keys[rng.randrange(self.records)]
            if rng.random() < 0.5:
                ops.append((PUT, key, _payload(rng, self.size)))
            else:
                ops.append((GET, key, None))
        batches = [
            [BatchOp.put(k, d) if v == PUT else BatchOp.get(k)
             for v, k, d in ops[i:i + self.batch]]
            for i in range(0, len(ops), self.batch)
        ]
        return Inputs(load=load, ops=ops, batches=batches)

    def build(self, seed: int, inputs: Inputs, windows: Windows) -> Stack:
        cluster = Cluster(seed=seed)
        meter = CostMeter()
        registry = TierRegistry(cluster, meter=meter)
        instances = [
            memcached_ebs_instance(registry, mem="16M", ebs="64M")
            for _ in range(self.shards)
        ]
        router = ShardedTieraServer(
            {f"shard{i}": TieraServer(inst) for i, inst in enumerate(instances)}
        )
        before = set(threading.enumerate())
        server = TieraRpcServer(router, pool_size=1).start()
        client = TieraClient(server.host, server.port)

        def close() -> None:
            client.close()
            # stop() alone leaves the accept thread blocked in accept();
            # shutting the listener down wakes it so it can be joined.
            server._listener.shutdown(socket.SHUT_RDWR)
            server.stop()
            for thread in set(threading.enumerate()) - before:
                thread.join(timeout=30)
                if thread.is_alive():
                    raise RuntimeError(f"thread {thread.name} did not stop")
            for inst in instances:
                inst.shutdown()

        stack = Stack(client, cluster.clock, instances, meter, close=close)
        try:
            for i in range(0, len(inputs.load), self.preload_chunk):
                client.put_many(
                    inputs.load[i:i + self.preload_chunk]
                ).raise_for_error()
                windows.split()
        except BaseException:
            close()
            raise
        return stack


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (ReadHot(), ChurnDedup(), BurstRpc())
}
