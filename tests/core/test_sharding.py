"""Horizontally scaled Tiera (the §6 future-work extension)."""

import pytest

from repro.core.errors import EmptyRingError, TieraError
from repro.core.server import TieraServer
from repro.core.sharding import ConsistentHashRing, ShardedTieraServer
from tests.core.conftest import build_instance


def make_shard(registry, name):
    instance = build_instance(
        registry,
        [(f"{name}-mem", "Memcached", 10 ** 7), (f"{name}-ebs", "EBS", 10 ** 8)],
        name=name,
    )
    return TieraServer(instance)


@pytest.fixture
def sharded(registry):
    return ShardedTieraServer(
        {name: make_shard(registry, name) for name in ("a", "b", "c")}
    )


class TestRing:
    def test_deterministic_ownership(self):
        ring = ConsistentHashRing()
        for shard in ("a", "b", "c"):
            ring.add(shard)
        assert ring.owner("key1") == ring.owner("key1")

    def test_keys_spread_across_shards(self):
        ring = ConsistentHashRing()
        for shard in ("a", "b", "c"):
            ring.add(shard)
        owners = {ring.owner(f"key{i}") for i in range(200)}
        assert owners == {"a", "b", "c"}

    def test_spread_is_roughly_even(self):
        ring = ConsistentHashRing()
        for shard in ("a", "b", "c", "d"):
            ring.add(shard)
        counts = {}
        for i in range(4000):
            owner = ring.owner(f"key{i}")
            counts[owner] = counts.get(owner, 0) + 1
        assert min(counts.values()) > 0.4 * max(counts.values())

    def test_removal_only_moves_departing_keys(self):
        ring = ConsistentHashRing()
        for shard in ("a", "b", "c"):
            ring.add(shard)
        before = {f"key{i}": ring.owner(f"key{i}") for i in range(300)}
        ring.remove("c")
        for key, owner in before.items():
            if owner != "c":
                assert ring.owner(key) == owner  # survivors keep their keys

    def test_duplicate_and_missing(self):
        ring = ConsistentHashRing()
        ring.add("a")
        with pytest.raises(ValueError):
            ring.add("a")
        with pytest.raises(KeyError):
            ring.remove("zzz")

    def test_empty_ring(self):
        with pytest.raises(TieraError):
            ConsistentHashRing().owner("key")


class TestRingEdges:
    def test_remove_last_shard_fails_at_the_mutation(self):
        ring = ConsistentHashRing()
        ring.add("a")
        with pytest.raises(EmptyRingError) as excinfo:
            ring.remove("a")
        assert excinfo.value.code == "EMPTY_RING"
        # The refused removal left the ring intact and usable.
        assert ring.owner("key") == "a"

    def test_empty_ring_errors_are_coded(self):
        with pytest.raises(EmptyRingError):
            ConsistentHashRing().owner("key")
        with pytest.raises(EmptyRingError):
            ConsistentHashRing().owners("key", 2)

    def test_duplicate_add_after_remove(self):
        ring = ConsistentHashRing()
        ring.add("a")
        ring.add("b")
        ring.remove("b")
        ring.add("b")  # not a duplicate once removed
        with pytest.raises(ValueError):
            ring.add("b")  # but a second add still is
        assert set(ring.owners("key", 2)) == {"a", "b"}

    def test_owners_are_distinct_and_capped(self):
        ring = ConsistentHashRing()
        for shard in ("a", "b", "c"):
            ring.add(shard)
        owners = ring.owners("key1", 3)
        assert len(owners) == len(set(owners)) == 3
        assert ring.owners("key1", 10) == owners  # capped at shard count
        assert ring.owners("key1", 1) == [owners[0]]
        assert ring.owners("key1", 1)[0] == ring.owner("key1")


class TestShardedServer:
    def test_roundtrip_through_routing(self, sharded):
        for i in range(60):
            sharded.put_object(f"key{i}", f"value{i}".encode()).raise_for_error()
        for i in range(60):
            got = sharded.get_object(f"key{i}").raise_for_error()
            assert got.value == f"value{i}".encode()

    def test_objects_actually_distributed(self, sharded):
        for i in range(120):
            sharded.put_object(f"key{i}", b"x").raise_for_error()
        counts = sharded.object_counts()
        assert sum(counts.values()) == 120
        assert sum(1 for count in counts.values() if count > 0) == 3

    def test_shard_policies_stay_independent(self, sharded):
        sharded.put_object("some-key", b"v").raise_for_error()
        owner = sharded.shard_of("some-key")
        meta = sharded.stat("some-key")
        assert meta.locations  # placed by that shard's own policy
        assert sharded.shards[owner].contains("some-key")

    def test_add_shard_migrates_minimum(self, registry, sharded):
        for i in range(150):
            sharded.put_object(f"key{i}", f"v{i}".encode()).raise_for_error()
        moved = sharded.add_shard("d", make_shard(registry, "d"))
        # Roughly 1/4 of the keys should move — and never the majority.
        assert 0 < moved < 100
        for i in range(150):
            got = sharded.get_object(f"key{i}").raise_for_error()
            assert got.value == f"v{i}".encode()

    def test_remove_shard_drains(self, registry, sharded):
        for i in range(100):
            sharded.put_object(f"key{i}", b"v", tags=["keep"]).raise_for_error()
        victim = sharded.shard_of("key0")
        moved = sharded.remove_shard(victim)
        assert moved > 0
        assert victim not in sharded.shards
        for i in range(100):
            assert sharded.get_object(f"key{i}").raise_for_error().value == b"v"
        # Tags survive migration.
        assert "keep" in sharded.stat("key0").tags

    def test_cannot_remove_last_shard(self, registry):
        single = ShardedTieraServer({"only": make_shard(registry, "only")})
        with pytest.raises(TieraError):
            single.remove_shard("only")

    def test_delete_routes(self, sharded):
        sharded.put_object("k", b"v").raise_for_error()
        sharded.delete_object("k").raise_for_error()
        assert not sharded.contains("k")

    def test_router_has_its_own_observability(self, sharded):
        assert sharded.obs is not None
        for shard in sharded.shards.values():
            assert sharded.obs is not shard.obs

    def test_per_shard_op_counters(self, sharded):
        for i in range(30):
            sharded.put_object(f"key{i}", b"v").raise_for_error()
            sharded.get_object(f"key{i}").raise_for_error()
        counter = sharded.obs.metrics.counter(
            "tiera_shard_ops_total", "per-shard ops routed"
        )
        total_put = sum(
            counter.value(shard=name, op="put") for name in sharded.shards
        )
        total_get = sum(
            counter.value(shard=name, op="get") for name in sharded.shards
        )
        assert total_put == 30 and total_get == 30
        # Every shard saw some traffic (the 30 keys spread across 3).
        for name in sharded.shards:
            assert counter.value(shard=name, op="put") > 0

    def test_health_aggregates_shards(self, sharded):
        sharded.put_object("k", b"v").raise_for_error()
        health = sharded.health()
        assert health["status"] == "ok"
        assert set(health["shards"]) == set(sharded.shards)
        for entry in health["shards"].values():
            assert entry["status"] == "ok"


class TestShardedManagement:
    """Several shards: ``invoke`` nests per-shard answers, except heat,
    whose summaries merge into one cluster view."""

    def test_actions_nest_per_shard(self, sharded):
        off = sharded.invoke("placement", "status")
        assert off.ok and not off.enabled
        assert off.state == {"shards": {"a": {}, "b": {}, "c": {}}}
        sharded.configure("placement", interval=30.0).raise_for_error()
        on = sharded.invoke("placement", "status")
        assert on.enabled
        assert {s["interval"] for s in on.state["shards"].values()} == {30.0}

    def test_heat_summaries_merge(self):
        from repro.simcloud.cluster import Cluster
        from repro.tiers.registry import TierRegistry

        # one cluster (and so one heat tracker) per shard
        router = ShardedTieraServer({
            name: make_shard(TierRegistry(Cluster(seed=seed)), name)
            for seed, name in enumerate(("a", "b"))
        })
        router.configure("heat", hot_min=1).raise_for_error()
        for i in range(30):
            router.put_object(f"k{i}", b"v" * 64).raise_for_error()
        parts = [
            shard.invoke("heat", "summary").state["accesses"]["writes"]
            for shard in router.shards.values()
        ]
        assert 0 < min(parts) and sum(parts) == 30
        merged = router.invoke("heat", "summary")
        assert merged.enabled and "shards" not in merged.state
        assert merged.state["accesses"]["writes"] == 30
        assert router.health()["heat"]["accesses"] == 30

    def test_a_failing_shard_surfaces_its_code_and_exception(self, sharded):
        sharded.configure("heat").raise_for_error()
        result = sharded.invoke("heat", "summary", limit="many")
        assert result.error == "BAD_REQUEST"
        with pytest.raises(ValueError):
            result.raise_for_error()

    def test_backup_is_refused_with_several_shards(self, sharded, tmp_path):
        # the shards would share one catalog and WAL under one root
        configured = sharded.configure("backup", root=str(tmp_path / "bk"))
        assert configured.error == "BAD_REQUEST"
        with pytest.raises(ValueError):
            configured.raise_for_error()
        assert sharded.invoke("backup", "list").error == "BAD_REQUEST"
        assert sharded.feature_status("backup").error == "BAD_REQUEST"
        assert all(s.instance.backup is None for s in sharded.shards.values())
        assert not (tmp_path / "bk").exists()

    def test_observability_features_use_the_router_hub(self, sharded):
        sharded.configure("slo", install_defaults=True).raise_for_error()
        assert len(sharded.obs.slo.objectives) == 4
        status = sharded.feature_status("slo")
        assert status.enabled and "shards" not in status.state
        assert sharded.configure("trace", enable=True).enabled
        assert sharded.obs.tracer.enabled

    def test_cluster_is_answered_by_the_router(self, sharded):
        # replication off: the router holds no ClusterManager
        status = sharded.feature_status("cluster")
        assert status.ok and not status.enabled
        assert sharded.configure("cluster").error == "BAD_CONFIG"
