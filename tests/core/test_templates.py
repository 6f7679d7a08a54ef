"""The paper's canned instances behave as their figures describe."""

import pytest

from repro.core import templates
from repro.core.server import TieraServer
from repro.simcloud.resources import RequestContext


@pytest.fixture
def ctx(cluster):
    return RequestContext(cluster.clock)


class TestLowLatencyInstance:
    def test_figure3_write_back(self, registry, cluster):
        inst = templates.low_latency_instance(registry, t=30.0)
        server = TieraServer(inst)
        server.put_object("k", b"v").raise_for_error()
        meta = inst.meta("k")
        assert meta.locations == {"tier1"}
        assert meta.dirty is True
        cluster.clock.advance(31)
        assert inst.meta("k").locations == {"tier1", "tier2"}
        assert inst.meta("k").dirty is False

    def test_clean_objects_not_recopied(self, registry, cluster):
        inst = templates.low_latency_instance(registry, t=10.0)
        server = TieraServer(inst)
        server.put_object("k", b"v").raise_for_error()
        cluster.clock.advance(11)
        puts = inst.tiers.get("tier2").service.op_counts.get("put", 0)
        cluster.clock.advance(20)  # two more timer firings, nothing dirty
        assert inst.tiers.get("tier2").service.op_counts.get("put", 0) == puts

    def test_smaller_t_means_quicker_durability(self, registry, cluster):
        inst = templates.low_latency_instance(registry, t=5.0)
        server = TieraServer(inst)
        server.put_object("k", b"v").raise_for_error()
        cluster.clock.advance(6)
        assert "tier2" in inst.meta("k").locations


class TestPersistentInstance:
    def test_figure4_write_through(self, registry):
        inst = templates.persistent_instance(registry)
        server = TieraServer(inst)
        server.put_object("k", b"v").raise_for_error()
        # Synchronously in both tiers before the PUT returns.
        assert inst.meta("k").locations == {"tier1", "tier2"}

    def test_backup_threshold_copies_to_s3(self, registry, cluster):
        inst = templates.persistent_instance(
            registry, mem="64K", ebs="64K", backup_threshold=0.5
        )
        server = TieraServer(inst)
        for i in range(9):
            server.put_object(f"k{i}", bytes(4096)).raise_for_error()
        cluster.clock.advance(600)  # let the 40KB/s capped copy finish
        in_s3 = [m.key for m in inst.iter_meta() if "tier3" in m.locations]
        assert len(in_s3) >= 8


class TestGrowingInstance:
    def test_figure6_grow_at_threshold(self, registry, cluster):
        inst = templates.growing_instance(
            registry, t=3600.0, mem="64K", grow_threshold=0.75
        )
        server = TieraServer(inst)
        tier1 = inst.tiers.get("tier1")
        for i in range(12):
            server.put_object(f"k{i}", bytes(4096)).raise_for_error()
        assert tier1.growing  # threshold crossed, node provisioning
        cluster.clock.advance(61)
        assert tier1.capacity == 128 * 1024


class TestMemcachedReplicated:
    def test_put_reaches_both_zones(self, registry):
        inst = templates.memcached_replicated_instance(registry, mem="1M")
        server = TieraServer(inst)
        server.put_object("k", b"v").raise_for_error()
        assert inst.meta("k").locations == {"tier1", "tier2"}
        zones = {
            inst.tiers.get(t).service.node.zone.name for t in ("tier1", "tier2")
        }
        assert len(zones) == 2  # independent fault domains

    def test_get_served_same_az(self, registry):
        inst = templates.memcached_replicated_instance(registry, mem="1M")
        server = TieraServer(inst)
        server.put_object("k", b"v").raise_for_error()
        server.get_object("k").raise_for_error()
        assert inst.tiers.get("tier1").service.op_counts.get("get", 0) == 1
        assert inst.tiers.get("tier2").service.op_counts.get("get", 0) == 0

    def test_survives_one_replica_failure(self, registry):
        inst = templates.memcached_replicated_instance(registry, mem="1M")
        server = TieraServer(inst)
        server.put_object("k", b"v").raise_for_error()
        inst.tiers.get("tier1").service.fail()
        assert server.get_object("k").raise_for_error().value == b"v"


class TestMemcachedS3:
    def test_writes_cached_and_persisted(self, registry):
        inst = templates.memcached_s3_instance(registry, mem="1M")
        server = TieraServer(inst)
        server.put_object("k", b"v").raise_for_error()
        assert inst.meta("k").locations == {"tier1", "tier2"}

    def test_lru_cache_eviction_drops_not_moves(self, registry):
        inst = templates.memcached_s3_instance(registry, mem="8K")
        server = TieraServer(inst)
        for i in range(4):
            server.put_object(f"k{i}", bytes(4096)).raise_for_error()
        assert inst.meta("k0").locations == {"tier2"}  # dropped from cache
        assert inst.meta("k3").locations == {"tier1", "tier2"}

    def test_miss_promotes_into_cache(self, registry):
        inst = templates.memcached_s3_instance(registry, mem="8K")
        server = TieraServer(inst)
        for i in range(4):
            server.put_object(f"k{i}", bytes(4096)).raise_for_error()
        assert server.get_object("k0").raise_for_error().value == bytes(4096)
        assert "tier1" in inst.meta("k0").locations


class TestDurabilityInstances:
    def test_high_durability_immediate_ebs(self, registry, cluster):
        inst = templates.high_durability_instance(registry)
        server = TieraServer(inst)
        server.put_object("k", b"v").raise_for_error()
        assert inst.meta("k").locations == {"tier1", "tier2"}
        cluster.clock.advance(121)
        assert "tier3" in inst.meta("k").locations

    def test_low_durability_loses_window(self, registry, cluster):
        inst = templates.low_durability_instance(registry, push_interval=120)
        server = TieraServer(inst)
        server.put_object("early", b"v").raise_for_error()
        cluster.clock.advance(121)  # early is now backed up
        server.put_object("late", b"v").raise_for_error()
        # Memcached node dies before the next push.
        cluster.clock.advance(30)
        inst.tiers.get("tier1").service.fail()
        # restored from S3
        assert server.get_object("early").raise_for_error().value == b"v"
        from repro.core.errors import TierUnavailableError

        with pytest.raises(TierUnavailableError):
            server.get_object("late").raise_for_error()  # the 2-minute window is lost


class TestReplicatedVolumes:
    def test_replication_triggers_at_50mb(self, registry, cluster):
        inst = templates.replicated_volumes_instance(
            registry, size="1M", trigger_bytes="48K", bandwidth=None
        )
        server = TieraServer(inst)
        for i in range(13):
            server.put_object(f"k{i}", bytes(4096)).raise_for_error()
        cluster.clock.advance(10)  # background copy runs
        replicated = [
            m.key for m in inst.iter_meta() if "tier2" in m.locations
        ]
        assert len(replicated) >= 13  # all dirty objects copied


class TestWriteThroughAndReconfiguration:
    def test_figure17_reconfiguration_path(self, registry, cluster):
        inst = templates.write_through_instance(registry, mem="1M", ebs="1M")
        server = TieraServer(inst)
        server.put_object("before", b"v").raise_for_error()
        assert inst.meta("before").locations == {"tier1", "tier2"}
        tiers, rules = templates.ephemeral_s3_reconfiguration(registry)
        inst.reconfigure(
            add_tiers=tiers,
            remove_tiers=["tier1", "tier2"],
            replace_policy=rules,
        )
        server.put_object("after", b"v").raise_for_error()
        assert inst.meta("after").locations == {"tier3"}
        cluster.clock.advance(121)
        assert "tier4" in inst.meta("after").locations  # backed up to S3
