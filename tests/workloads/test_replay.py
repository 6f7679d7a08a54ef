"""Trace recording and replay."""

import hashlib
import os
import subprocess
import sys

import pytest

from repro.core.server import TieraServer
from repro.core.templates import low_latency_instance, memcached_ebs_instance
from repro.simcloud.cluster import Cluster
from repro.simcloud.resources import RequestContext
from repro.tiers.registry import TierRegistry
from repro.workloads.replay import TraceRecorder, TraceReplayer, load_trace


@pytest.fixture
def server(registry):
    return TieraServer(memcached_ebs_instance(registry, mem="8M", ebs="8M"))


class TestRecorder:
    def test_records_all_op_kinds(self, server, cluster):
        with TraceRecorder(server) as recorder:
            server.put_object("a", b"x" * 100)
            server.get_object("a")
            server.delete_object("a")
        kinds = [event["op"] for event in recorder.events]
        assert kinds == ["put", "get", "delete"]
        assert recorder.events[0]["size"] == 100

    def test_server_restored_after_exit(self, server):
        from repro.core.server import TieraServer

        with TraceRecorder(server):
            assert "put_object" in vars(server)  # hook installed
        assert "put_object" not in vars(server)  # hook removed
        assert server.put_object.__func__ is TieraServer.put_object

    def test_dump_and_load(self, server, tmp_path):
        with TraceRecorder(server) as recorder:
            server.put_object("a", b"1")
            server.get_object("a")
        path = str(tmp_path / "trace.jsonl")
        assert recorder.dump(path) == 2
        events = load_trace(path)
        assert [event["op"] for event in events] == ["put", "get"]

    def test_timestamps_monotone(self, server, cluster):
        with TraceRecorder(server) as recorder:
            ctx = RequestContext(cluster.clock)
            for i in range(5):
                server.put_object(f"k{i}", b"v", ctx=ctx)
        times = [event["at"] for event in recorder.events]
        assert times == sorted(times)


class TestReplayer:
    def _record(self, registry, cluster):
        source = TieraServer(memcached_ebs_instance(registry, mem="8M", ebs="8M"))
        with TraceRecorder(source) as recorder:
            ctx = RequestContext(cluster.clock)
            for i in range(20):
                source.put_object(f"k{i}", bytes(512), ctx=ctx)
            for i in range(20):
                source.get_object(f"k{i % 5}", ctx=ctx)
            cluster.clock.run_until(ctx.time)
        return recorder.events

    def test_replay_against_another_instance(self, registry, cluster):
        events = self._record(registry, cluster)
        target = TieraServer(low_latency_instance(registry, t=30, mem="8M", ebs="8M"))
        latencies = TraceReplayer(target, events).run(paced=False)
        assert len(latencies) == len(events)
        assert all(lat >= 0 for lat in latencies)
        assert target.contains("k0")

    def test_paced_replay_honours_spacing(self, registry):
        # Build a synthetic trace with 1-second spacing.
        events = [
            {"op": "put", "key": f"k{i}", "size": 64, "at": float(i)}
            for i in range(5)
        ]
        cluster = Cluster(seed=9)
        target = TieraServer(
            memcached_ebs_instance(TierRegistry(cluster), mem="8M", ebs="8M")
        )
        TraceReplayer(target, events).run(paced=True)
        # The clock advanced through the recorded 4-second span.
        assert cluster.clock.now() >= 4.0

    def test_replay_tolerates_missing_keys(self, registry, cluster):
        events = [{"op": "get", "key": "ghost", "at": 0.0},
                  {"op": "delete", "key": "ghost", "at": 0.1}]
        target = TieraServer(memcached_ebs_instance(registry, mem="8M", ebs="8M"))
        latencies = TraceReplayer(target, events).run()
        assert len(latencies) == 2

    def test_empty_trace(self, registry, cluster):
        target = TieraServer(memcached_ebs_instance(registry, mem="8M", ebs="8M"))
        assert TraceReplayer(target, []).run() == []

    def test_compare_two_instances(self, registry, cluster):
        """The intended use: one trace, two candidate specs, compare."""
        events = self._record(registry, cluster)
        fast = TieraServer(
            memcached_ebs_instance(registry, mem="8M", ebs="8M")
        )
        fast_latency = sum(TraceReplayer(fast, events).run(paced=False))
        assert fast_latency > 0


class TestPipelinedReplay:
    def _target(self, seed=9):
        cluster = Cluster(seed=seed)
        server = TieraServer(
            memcached_ebs_instance(TierRegistry(cluster), mem="8M", ebs="8M")
        )
        return cluster, server

    def _events(self, count=12):
        return [
            {"op": "put", "key": f"k{i}", "size": 64, "at": 0.0}
            for i in range(count)
        ] + [
            {"op": "get", "key": f"k{i}", "at": 0.0} for i in range(count)
        ]

    def test_depth_covers_every_event(self):
        _, target = self._target()
        latencies = TraceReplayer(target, self._events()).run(
            paced=False, depth=5
        )
        assert len(latencies) == 24
        assert target.contains("k0") and target.contains("k11")

    def test_deeper_replay_finishes_sooner(self):
        spans = {}
        for depth in (1, 4):
            cluster, target = self._target()
            TraceReplayer(target, self._events()).run(paced=False, depth=depth)
            spans[depth] = cluster.clock.now()
        assert spans[4] < spans[1]

    def test_depth_tolerates_missing_keys(self):
        _, target = self._target()
        events = [{"op": "get", "key": "ghost", "at": 0.0},
                  {"op": "delete", "key": "ghost", "at": 0.0}]
        assert len(TraceReplayer(target, events).run(depth=2)) == 2

    def test_invalid_depth_rejected(self):
        _, target = self._target()
        with pytest.raises(ValueError):
            TraceReplayer(target, self._events()).run(depth=0)


class TestStablePayloads:
    """A replayed put's payload is a pure function of the event: it
    must not change with the process's string-hash salt."""

    SCRIPT = (
        "import hashlib\n"
        "from repro.workloads.replay import TraceReplayer\n"
        "for key in ('k0', 'user000042', 'a/b/c'):\n"
        "    op = TraceReplayer._op_for({'op': 'put', 'key': key, 'size': 256})\n"
        "    print(key, hashlib.sha256(op.data).hexdigest())\n"
    )

    def _digests(self, hash_seed: str) -> str:
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(src)]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        return subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        ).stdout

    def test_payload_is_independent_of_the_hash_seed(self):
        first = self._digests("1")
        assert first.count("\n") == 3
        assert first == self._digests("2")

    def test_payload_matches_in_process(self):
        op = TraceReplayer._op_for({"op": "put", "key": "k0", "size": 256})
        digest = hashlib.sha256(op.data).hexdigest()
        assert f"k0 {digest}" in self._digests("3")
