"""Replicated self-healing cluster: quorums, hints, repair, migration."""

import pytest

from repro.core.cluster import ClusterConfig, Hint, HintQueue
from repro.core.server import TieraServer
from repro.core.sharding import ShardedTieraServer
from repro.kvstore.store import MemoryStore
from repro.simcloud.errors import ProcessCrash
from repro.simcloud.faults import CrashPointInjector, FaultProfile
from tests.core.conftest import build_instance

HARD_DOWN = FaultProfile(name="hard-down", flap_period=1e9, flap_duty=0.0)

CONFIG = ClusterConfig(
    replication_factor=3,
    write_quorum=2,
    heartbeat_interval=1000.0,   # probes are driven manually in tests
    anti_entropy_interval=0.0,   # sweeps are called explicitly
)


def make_shard(registry, name):
    instance = build_instance(
        registry,
        [(f"{name}-mem", "Memcached", 10 ** 7),
         (f"{name}-ebs", "EBS", 10 ** 8)],
        name=name,
    )
    return TieraServer(instance)


@pytest.fixture
def rt(registry):
    shards = {name: make_shard(registry, name) for name in ("a", "b", "c", "d")}
    router = ShardedTieraServer(shards, replication=CONFIG)
    yield router
    router.cluster.stop()


def take_down(cluster, router, shard):
    """Hard-down every tier service of ``shard``; returns the handles."""
    return [
        cluster.faults.inject(f"node:{tier.service.node.name}", HARD_DOWN)
        for tier in router.shards[shard].instance.tiers
    ]


def mark_down(cluster, router, shard):
    handles = take_down(cluster, router, shard)
    detector = router.cluster.detector
    for _ in range(CONFIG.down_after_misses):
        detector.tick()
    assert detector.is_down(shard)
    return handles


def bring_up(cluster, router, handles):
    for handle in handles:
        cluster.faults.clear(handle)
    router.cluster.detector.tick()
    # Fire the zero-delay heal scheduled by the up-transition.
    cluster.clock.run_until(cluster.clock.now() + 0.01)


class TestReplication:
    def test_write_lands_on_r_distinct_owners(self, rt):
        result = rt.put_object("k1", b"v1")
        assert result.ok
        owners = rt.cluster.owners("k1")
        assert len(owners) == 3
        assert sorted(result.tier.split(",")) == sorted(owners)
        for name, server in rt.shards.items():
            assert server.contains("k1") == (name in owners)

    def test_read_prefers_primary_then_fails_over(self, cluster, rt):
        rt.put_object("k2", b"payload")
        owners = rt.cluster.owners("k2")
        handles = mark_down(cluster, rt, owners[0])
        result = rt.get_object("k2")
        assert result.ok and result.value == b"payload"
        counter = rt.obs.metrics.counter(
            "tiera_cluster_failover_reads_total", ""
        )
        assert counter.value(shard=owners[0]) >= 1
        bring_up(cluster, rt, handles)

    def test_quorum_succeeds_with_one_owner_down(self, cluster, rt):
        owners = rt.cluster.owners("k3")
        handles = mark_down(cluster, rt, owners[1])
        result = rt.put_object("k3", b"v3")
        assert result.ok
        acked = sorted(result.tier.split(","))
        assert owners[1] not in acked and len(acked) == 2
        assert len(rt.cluster.hints) == 1
        hint = next(iter(rt.cluster.hints))
        assert hint.target == owners[1] and hint.key == "k3"
        assert hint.holder not in owners  # parked on the non-owner
        bring_up(cluster, rt, handles)

    def test_no_quorum_is_a_coded_envelope(self, cluster, rt):
        owners = rt.cluster.owners("k4")
        h1 = mark_down(cluster, rt, owners[0])
        h2 = mark_down(cluster, rt, owners[1])
        result = rt.put_object("k4", b"v4")
        assert not result.ok
        assert result.error == "NO_QUORUM"
        with pytest.raises(Exception) as excinfo:
            result.raise_for_error()
        assert "acked by 1/2" in str(excinfo.value)
        bring_up(cluster, rt, h1)
        bring_up(cluster, rt, h2)

    def test_checksum_vote_skips_stale_replica(self, rt):
        rt.put_object("k5", b"fresh-1")
        owners = rt.cluster.owners("k5")
        # Two owners take a newer write directly; the third goes stale
        # with a minority checksum.
        for shard in owners[1:]:
            rt.shards[shard].put_object("k5", b"fresh-2")
        result = rt.get_object("k5")
        assert result.ok and result.value == b"fresh-2"
        # The scheduled repair converges the stale primary.
        rt.clock.run_until(rt.clock.now() + 0.01)
        assert rt.shards[owners[0]].get_object("k5").value == b"fresh-2"

    def test_read_repair_restores_missing_replica(self, rt):
        rt.put_object("k6", b"v6")
        owners = rt.cluster.owners("k6")
        rt.shards[owners[0]].delete_object("k6")
        result = rt.get_object("k6")
        assert result.ok and result.value == b"v6"
        rt.clock.run_until(rt.clock.now() + 0.01)
        assert rt.shards[owners[0]].contains("k6")
        assert rt.cluster.fsck()["clean"]

    def test_batch_replicates_each_item(self, rt):
        from repro.core.api import BatchOp

        batch = rt.execute_batch(
            [BatchOp.put(f"b{i}", f"v{i}".encode()) for i in range(6)]
            + [BatchOp.get("b0")],
            parallelism=3,
        )
        assert all(r.ok for r in batch.results)
        assert batch.results[-1].value == b"v0"
        for i in range(6):
            assert len(rt.cluster.owners(f"b{i}")) == 3

    def test_legacy_shims_route_through_cluster(self, rt):
        rt.put_object("legacy", b"bytes").raise_for_error()
        assert rt.get_object("legacy").raise_for_error().value == b"bytes"
        assert rt.contains("legacy")
        assert rt.stat("legacy").checksum
        rt.delete_object("legacy").raise_for_error()
        assert not rt.contains("legacy")


class TestSelfHealing:
    def test_hints_replay_when_the_shard_returns(self, cluster, rt):
        owners = rt.cluster.owners("heal-1")
        handles = mark_down(cluster, rt, owners[2])
        rt.put_object("heal-1", b"healed")
        assert rt.cluster.hints.pending(owners[2]) == 1
        holder = next(iter(rt.cluster.hints)).holder
        bring_up(cluster, rt, handles)   # schedules replay + anti-entropy
        assert len(rt.cluster.hints) == 0
        assert rt.shards[owners[2]].get_object("heal-1").value == b"healed"
        # The parked stray on the non-owner is gone again.
        assert not rt.shards[holder].contains("heal-1")
        assert rt.cluster.fsck()["clean"]

    def test_delete_hint_needs_no_bytes(self, cluster, rt):
        rt.put_object("heal-2", b"doomed")
        owners = rt.cluster.owners("heal-2")
        handles = mark_down(cluster, rt, owners[0])
        assert rt.delete_object("heal-2").ok
        hint = next(iter(rt.cluster.hints))
        assert hint.op == "delete" and hint.checksum == ""
        bring_up(cluster, rt, handles)
        assert len(rt.cluster.hints) == 0
        assert not rt.shards[owners[0]].contains("heal-2")

    def test_replay_requeues_while_target_still_down(self, cluster, rt):
        owners = rt.cluster.owners("heal-3")
        handles = mark_down(cluster, rt, owners[0])
        rt.put_object("heal-3", b"parked")
        record = rt.cluster.replay_hints()
        assert record["requeued"] == 1 and record["replayed"] == 0
        assert len(rt.cluster.hints) == 1
        bring_up(cluster, rt, handles)
        assert len(rt.cluster.hints) == 0

    def test_anti_entropy_converges_divergent_group(self, rt):
        rt.put_object("ae-1", b"original")
        owners = rt.cluster.owners("ae-1")
        rt.shards[owners[1]].put_object("ae-1", b"newer-write")
        first = rt.cluster.anti_entropy()
        assert first["divergent"] == 1 and first["repairs"] >= 1
        second = rt.cluster.anti_entropy()
        assert second["divergent"] == 0
        for shard in owners:
            assert rt.shards[shard].get_object("ae-1").value == b"newer-write"

    def test_detector_trips_on_op_failures_alone(self, cluster, rt):
        owners = rt.cluster.owners("fd-1")
        victim = owners[0]
        handles = take_down(cluster, rt, victim)
        # No probe runs; repeated data-path timeouts must trip it.
        for _ in range(CONFIG.op_failure_threshold):
            rt.put_object("fd-1", b"x")
        assert rt.cluster.detector.is_down(victim)
        transitions = [
            (t["shard"], t["to"]) for t in rt.cluster.detector.transitions
        ]
        assert (victim, "suspect") in transitions
        assert (victim, "down") in transitions
        bring_up(cluster, rt, handles)

    def test_health_degrades_while_a_shard_is_down(self, cluster, rt):
        assert rt.health()["status"] == "ok"
        handles = mark_down(cluster, rt, "b")
        health = rt.health()
        assert health["status"] == "degraded"
        assert health["cluster"]["shards"]["b"] == "down"
        bring_up(cluster, rt, handles)
        assert rt.health()["status"] == "ok"


class TestBackgroundTracing:
    """Maintenance paths open their own background trace roots, so
    hint replay, anti-entropy, and read-repair show up in trace trees
    alongside client requests instead of running invisibly."""

    def _roots(self, rt, name):
        return [s for s in rt.obs.tracer.recent() if s.name.startswith(name)]

    def test_anti_entropy_sweep_opens_background_root(self, rt):
        rt.obs.tracer.enabled = True
        rt.put_object("ae-t", b"original")
        owners = rt.cluster.owners("ae-t")
        rt.shards[owners[1]].put_object("ae-t", b"newer")
        rt.cluster.anti_entropy()
        [root] = self._roots(rt, "anti-entropy")
        assert root.kind == "background" and not root.foreground
        assert root.attrs["divergent"] == 1
        assert root.attrs["repairs"] >= 1
        assert root.children  # repair tier-ops nest under the sweep

    def test_hint_replay_opens_background_root(self, cluster, rt):
        rt.obs.tracer.enabled = True
        owners = rt.cluster.owners("hint-t")
        handles = mark_down(cluster, rt, owners[0])
        rt.put_object("hint-t", b"parked")
        rt.cluster.replay_hints()
        roots = self._roots(rt, "hint-replay")
        assert roots and roots[-1].attrs["requeued"] == 1
        bring_up(cluster, rt, handles)
        roots = self._roots(rt, "hint-replay")
        assert roots[-1].attrs["replayed"] == 1
        assert all(r.kind == "background" for r in roots)

    def test_scheduled_read_repair_opens_background_root(self, rt):
        rt.obs.tracer.enabled = True
        rt.put_object("rr-t", b"v")
        owners = rt.cluster.owners("rr-t")
        rt.shards[owners[0]].delete_object("rr-t")
        rt.get_object("rr-t")
        rt.clock.run_until(rt.clock.now() + 0.01)
        [root] = self._roots(rt, "read-repair rr-t")
        assert root.kind == "background" and not root.foreground
        assert root.attrs["key"] == "rr-t"
        assert rt.shards[owners[0]].contains("rr-t")

    def test_untraced_background_paths_stay_silent(self, rt):
        rt.put_object("quiet", b"v")
        rt.cluster.anti_entropy()
        assert rt.obs.tracer.recent() == []


class TestHintQueue:
    def test_newer_write_supersedes_same_slot(self):
        queue = HintQueue()
        queue.add(Hint(key="k", target="t", holder="h1", op="put",
                       checksum="c1"))
        queue.add(Hint(key="k", target="t", holder="h2", op="put",
                       checksum="c2"))
        assert len(queue) == 1
        assert queue.recorded == 2
        assert next(iter(queue)).checksum == "c2"

    def test_take_is_fifo_and_target_scoped(self):
        queue = HintQueue()
        queue.add(Hint(key="k1", target="t1", holder="h", op="put"))
        queue.add(Hint(key="k2", target="t2", holder="h", op="put"))
        queue.add(Hint(key="k3", target="t1", holder="h", op="put"))
        taken = queue.take("t1")
        assert [h.key for h in taken] == ["k1", "k3"]
        assert queue.pending() == 1 and queue.targets() == ["t2"]


class TestMigration:
    def _build(self, registry, journal_store, names=("a", "b", "c")):
        shards = {name: make_shard(registry, name) for name in names}
        router = ShardedTieraServer(
            shards, replication=CONFIG, journal_store=journal_store
        )
        for i in range(24):
            router.put_object(f"mig{i:03d}", f"v{i}".encode())
        return router

    def test_add_shard_rebalances_and_fscks_clean(self, registry):
        router = self._build(registry, MemoryStore())
        moved = router.add_shard("e", make_shard(registry, "e"))
        assert moved > 0
        assert router.cluster.fsck()["clean"]
        assert len(router.cluster.journal) == 0
        for i in range(24):
            assert router.get_object(f"mig{i:03d}").ok
        router.cluster.stop()

    def test_remove_shard_rebalances_and_fscks_clean(self, registry):
        # Four shards at R=3, so the departing shard's keys genuinely
        # need a new third owner (at R == N a removal only drops copies).
        router = self._build(
            registry, MemoryStore(), names=("a", "b", "c", "d")
        )
        departing = router.shards["b"]
        moved = router.remove_shard("b")
        assert moved > 0
        assert "b" not in router.shards
        assert not any(k.startswith("mig") for k in departing.keys())
        assert router.cluster.fsck()["clean"]
        for i in range(24):
            assert router.get_object(f"mig{i:03d}").ok
        router.cluster.stop()

    @pytest.mark.parametrize("point", [
        "cluster.move.intent", "cluster.move.copied", "cluster.migrate.done",
    ])
    def test_crash_mid_add_recovers_from_the_journal(self, registry, point):
        store = MemoryStore()
        router = self._build(registry, store)
        joiner = make_shard(registry, "e")
        router.cluster.crash_points = CrashPointInjector().arm(point, 0)
        with pytest.raises(ProcessCrash):
            router.add_shard("e", joiner)
        router.cluster.stop()
        router.clock.cancel_all()

        # Reopen the control layer over the same shards + journal store,
        # like a restarted migrator process.
        shards_after = dict(router.shards)
        shards_after["e"] = joiner
        reopened = ShardedTieraServer(
            shards_after, replication=CONFIG, journal_store=store
        )
        reopened.cluster.recover()
        report = reopened.cluster.fsck()
        assert report["clean"], report["findings"]
        assert len(reopened.cluster.journal) == 0
        for i in range(24):
            assert reopened.get_object(f"mig{i:03d}").ok
        reopened.cluster.stop()

    def test_fsck_repair_heals_planted_faults(self, registry):
        router = self._build(
            registry, MemoryStore(), names=("a", "b", "c", "d")
        )
        key = "mig000"
        owners = router.cluster.owners(key)
        non_owner = next(
            s for s in sorted(router.shards) if s not in owners
        )
        router.shards[non_owner].put_object(key, b"stray")   # orphan copy
        router.shards[owners[0]].delete_object(key)          # under-replicated
        report = router.cluster.fsck()
        kinds = {f["kind"] for f in report["findings"]}
        assert {"orphan-copy", "under-replicated"} <= kinds
        repaired = router.cluster.fsck(repair=True)
        assert all("repair" in f for f in repaired["findings"])
        assert router.cluster.fsck()["clean"]
        assert not router.shards[non_owner].contains(key)
        assert router.shards[owners[0]].contains(key)
        router.cluster.stop()

    def test_summary_shape(self, registry):
        router = self._build(registry, MemoryStore())
        summary = router.cluster.summary()
        assert summary["replicas"] == 3
        assert set(summary["shards"]) == {"a", "b", "c"}
        assert summary["hints"]["pending"] == 0
        assert summary["journal_pending"] == 0
        router.cluster.stop()
