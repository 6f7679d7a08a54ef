"""TieraInstance: data path, eviction chains, dedup, reconfiguration, cost."""

import time

import pytest

from repro.core.errors import (
    NoCapacityError,
    NoSuchObjectError,
    TierUnavailableError,
)
from repro.core.durability import reopen_instance, simulate_crash
from repro.core.instance import DROP, MetaTable
from repro.core.objects import ObjectMeta, content_checksum
from repro.core.policy import Policy, Rule
from repro.core.events import ActionEvent
from repro.core.responses import Store
from repro.core.selectors import InsertObject
from repro.kvstore import LogStore, MemoryStore
from repro.simcloud.resources import RequestContext
from tests.core.conftest import build_instance


class TestDataPath:
    def test_write_updates_metadata(self, two_tier, ctx):
        two_tier.create_object("k", 3)
        two_tier.write_to_tier("k", b"abc", "tier1", ctx)
        meta = two_tier.meta("k")
        assert meta.locations == {"tier1"}
        assert meta.size == 3

    def test_read_prefers_declaration_order(self, two_tier, ctx):
        two_tier.create_object("k", 1)
        two_tier.write_to_tier("k", b"x", "tier1", ctx)
        two_tier.write_to_tier("k", b"x", "tier2", ctx)
        gets_before = two_tier.tiers.get("tier1").service.op_counts.get("get", 0)
        two_tier.read_raw("k", ctx)
        assert (
            two_tier.tiers.get("tier1").service.op_counts.get("get", 0)
            == gets_before + 1
        )

    def test_read_prefer_overrides(self, two_tier, ctx):
        two_tier.create_object("k", 1)
        two_tier.write_to_tier("k", b"x", "tier1", ctx)
        two_tier.write_to_tier("k", b"x", "tier2", ctx)
        two_tier.read_raw("k", ctx, prefer="tier2")
        assert two_tier.tiers.get("tier2").service.op_counts.get("get", 0) == 1

    def test_read_falls_back_on_failure(self, two_tier, ctx):
        two_tier.create_object("k", 1)
        two_tier.write_to_tier("k", b"x", "tier1", ctx)
        two_tier.write_to_tier("k", b"x", "tier2", ctx)
        two_tier.tiers.get("tier1").service.fail()
        assert two_tier.read_raw("k", ctx) == b"x"

    def test_read_with_all_tiers_failed(self, two_tier, ctx):
        two_tier.create_object("k", 1)
        two_tier.write_to_tier("k", b"x", "tier2", ctx)
        two_tier.tiers.get("tier2").service.fail()
        with pytest.raises(TierUnavailableError):
            two_tier.read_raw("k", ctx)

    def test_missing_object_raises(self, two_tier, ctx):
        with pytest.raises(NoSuchObjectError):
            two_tier.read_raw("ghost", ctx)

    def test_overflow_without_eviction_raises(self, two_tier, ctx):
        two_tier.create_object("big", 100 * 1024)
        with pytest.raises(NoCapacityError):
            two_tier.write_to_tier("big", b"x" * 100 * 1024, "tier1", ctx)

    def test_rewrite_everywhere(self, two_tier, ctx):
        two_tier.create_object("k", 4)
        two_tier.write_to_tier("k", b"aaaa", "tier1", ctx)
        two_tier.write_to_tier("k", b"aaaa", "tier2", ctx)
        two_tier.rewrite_everywhere("k", b"bb", ctx)
        assert two_tier.tiers.get("tier1").get("k", ctx) == b"bb"
        assert two_tier.tiers.get("tier2").get("k", ctx) == b"bb"
        assert two_tier.meta("k").size == 2


class TestEvictionChain:
    def test_cascading_eviction(self, registry, ctx):
        inst = build_instance(
            registry,
            [
                ("tier1", "Memcached", 8192),
                ("tier2", "EBS", 8192),
                ("tier3", "S3", None),
            ],
        )
        inst.eviction_chain.update({"tier1": "tier2", "tier2": "tier3"})
        for i in range(6):
            inst.create_object(f"k{i}", 4096)
            inst.write_to_tier(f"k{i}", bytes(4096), "tier1", ctx)
        # 6 x 4K through a 8K tier over an 8K tier: oldest land in S3.
        assert inst.meta("k0").locations == {"tier3"}
        assert inst.meta("k1").locations == {"tier3"}
        assert inst.meta("k2").locations == {"tier2"}
        assert inst.meta("k5").locations == {"tier1"}

    def test_drop_eviction_requires_second_copy(self, registry, ctx):
        inst = build_instance(
            registry,
            [("cache", "Memcached", 4096), ("store", "S3", None)],
        )
        inst.eviction_chain["cache"] = DROP
        inst.create_object("a", 4096)
        inst.write_to_tier("a", bytes(4096), "cache", ctx)
        inst.write_to_tier("a", bytes(4096), "store", ctx)
        inst.create_object("b", 4096)
        inst.write_to_tier("b", bytes(4096), "cache", ctx)  # drops a
        assert inst.meta("a").locations == {"store"}
        assert inst.meta("b").locations == {"cache"}

    def test_drop_eviction_refuses_to_lose_data(self, registry, ctx):
        inst = build_instance(
            registry, [("cache", "Memcached", 4096), ("store", "S3", None)]
        )
        inst.eviction_chain["cache"] = DROP
        inst.create_object("only", 4096)
        inst.write_to_tier("only", bytes(4096), "cache", ctx)  # not in store
        inst.create_object("b", 4096)
        with pytest.raises(NoCapacityError):
            inst.write_to_tier("b", bytes(4096), "cache", ctx)


class TestDedup:
    def test_alias_lifecycle(self, two_tier, ctx):
        two_tier.create_object("a", 4)
        two_tier.write_to_tier("a", b"data", "tier1", ctx)
        two_tier.dedup_register("sum1", "a")
        two_tier.create_object("b", 4)
        two_tier.alias_object("b", "a")
        assert two_tier.resolve_alias("b") == "a"
        assert two_tier.meta("a").refcount == 1
        # Deleting the alias releases the refcount.
        two_tier.delete_object("b", ctx)
        assert two_tier.meta("a").refcount == 0

    def test_deleting_canonical_promotes_heir(self, two_tier, ctx):
        two_tier.create_object("a", 4)
        two_tier.write_to_tier("a", b"data", "tier1", ctx)
        two_tier.dedup_register("sum1", "a")
        two_tier.create_object("b", 4)
        two_tier.alias_object("b", "a")
        two_tier.delete_object("a", ctx)
        assert two_tier.meta("b").alias_of is None
        assert two_tier.dedup_lookup("sum1") == "b"
        # The heir must still be readable — from a's physical bytes.
        assert two_tier.read_raw("b", ctx) == b"data"

    # The heir is the alias earliest in table order: a key's position is
    # fixed when it is created (or re-created after a delete), not when
    # it is linked.

    @staticmethod
    def _family(inst, ctx, keys, links, tier="tier1"):
        """Create ``a`` and then ``keys`` (in that order), holding
        ``a``'s bytes in ``tier``, and alias ``links`` (in that order)
        to ``a``."""
        inst.create_object("a", 4)
        inst.write_to_tier("a", b"data", tier, ctx)
        inst.dedup_register(content_checksum(b"data"), "a")
        for key in keys:
            inst.create_object(key, 4)
        for key in links:
            inst.alias_object(key, "a")

    @staticmethod
    def _assert_heir(inst, ctx, via, heir, rest):
        aliases = [m.key for m in inst.iter_meta() if m.alias_of == "a"]
        assert aliases == [heir, *rest]
        assert inst.meta("a").refcount == 1 + len(rest)
        if via == "delete":
            inst.delete_object("a", ctx)
        else:
            inst.prepare_overwrite("a", ctx)
            assert inst.meta("a").refcount == 0
        assert inst.meta(heir).alias_of is None
        assert inst.meta(heir).refcount == len(rest)
        assert [inst.meta(k).alias_of for k in rest] == [heir] * len(rest)
        assert [inst.resolve_alias(k) for k in rest] == [heir] * len(rest)
        assert inst.dedup_lookup(content_checksum(b"data")) == heir
        assert inst.read_raw(heir, ctx) == b"data"

    @pytest.mark.parametrize("via", ["delete", "overwrite"])
    def test_heir_is_earliest_in_table_not_link_order(self, two_tier, ctx, via):
        self._family(two_tier, ctx, keys=["b", "c", "d"], links=["d", "c", "b"])
        self._assert_heir(two_tier, ctx, via, heir="b", rest=["c", "d"])

    @pytest.mark.parametrize("via", ["delete", "overwrite"])
    def test_recreated_alias_key_moves_to_the_back(self, two_tier, ctx, via):
        self._family(two_tier, ctx, keys=["b", "c", "d"], links=["b", "c", "d"])
        two_tier.delete_object("b", ctx)
        two_tier.create_object("b", 4)
        two_tier.alias_object("b", "a")
        self._assert_heir(two_tier, ctx, via, heir="c", rest=["d", "b"])

    def test_heir_rule_survives_reopen(self, registry, ctx):
        store = MemoryStore()
        inst = build_instance(
            registry,
            [("tier1", "Memcached", 64 * 1024), ("tier2", "EBS", 10 ** 7)],
            metadata_store=store,
        )
        inst.enable_durability()
        self._family(inst, ctx, keys=["c", "b"], links=["b", "c"], tier="tier2")
        simulate_crash(inst)
        successor, _ = reopen_instance(
            name=inst.name,
            tiers=list(inst.tiers.ordered()),
            policy=Policy(),
            clock=registry.cluster.clock,
            metadata_store=store,
        )
        self._assert_heir(successor, ctx, "delete", heir="c", rest=["b"])

    def test_heir_rule_after_backup_restore(self, registry, ctx, tmp_path):
        inst = build_instance(
            registry,
            [("tier1", "Memcached", 64 * 1024), ("tier2", "EBS", 10 ** 7)],
        )
        inst.enable_durability()
        inst.enable_backups(str(tmp_path))
        self._family(inst, ctx, keys=["c", "b"], links=["b", "c"], tier="tier2")
        inst.backup.snapshot(kind="full")
        inst.backup.restore()
        # A full restore rebuilds the table in key order, so "b" now
        # precedes "c".
        self._assert_heir(inst, ctx, "delete", heir="b", rest=["c"])

    def test_meta_table_refuses_writes_that_bypass_the_alias_index(self):
        table = MetaTable()
        table["k"] = ObjectMeta(key="k", alias_of="a")
        for write in (
            lambda: table.update(j=ObjectMeta(key="j", alias_of="a")),
            lambda: table.setdefault("j", ObjectMeta(key="j", alias_of="a")),
            table.popitem,
        ):
            with pytest.raises(TypeError):
                write()
        assert [m.key for m in table.aliases_of("a")] == ["k"]

    def test_handoff_cost_does_not_grow_with_the_table(self, registry, ctx):
        # Overwriting or deleting a canonical costs O(its aliases): the
        # old whole-table heir scan made 50k objects ~50x dearer than 1k.
        def cost(unrelated):
            inst = build_instance(
                registry,
                [("tier1", "Memcached", 64 * 1024), ("tier2", "EBS", 10 ** 7)],
            )
            for i in range(unrelated):
                inst.create_object(f"other{i}", 4)
            best = float("inf")
            for round_ in range(7):
                a, b, c = (f"{name}{round_}" for name in "abc")
                inst.create_object(a, 4)
                inst.write_to_tier(a, b"data", "tier2", ctx)
                for alias in (b, c):
                    inst.create_object(alias, 4)
                    inst.alias_object(alias, a)
                start = time.process_time()
                inst.prepare_overwrite(a, ctx)  # hands off to b
                inst.delete_object(b, ctx)  # hands off to c
                best = min(best, time.process_time() - start)
                assert inst.meta(c).alias_of is None
            return best

        small, large = cost(1_000), cost(50_000)
        assert large / small <= 3, (small, large)

    def test_dedup_lookup_forgets_dead_keys(self, two_tier, ctx):
        two_tier.create_object("a", 4)
        two_tier.write_to_tier("a", b"data", "tier1", ctx)
        two_tier.dedup_register("sum1", "a")
        two_tier.delete_object("a", ctx)
        assert two_tier.dedup_lookup("sum1") is None


class TestReconfiguration:
    def test_add_and_remove_tiers(self, registry, two_tier, ctx):
        new_tier = registry.create("EphemeralStorage", tier_name="tier3", size=10 ** 6)
        two_tier.reconfigure(add_tiers=[new_tier], remove_tiers=["tier1"])
        assert two_tier.tiers.names() == ["tier2", "tier3"]

    def test_removing_tier_scrubs_locations(self, two_tier, ctx):
        two_tier.create_object("k", 1)
        two_tier.write_to_tier("k", b"x", "tier1", ctx)
        two_tier.write_to_tier("k", b"x", "tier2", ctx)
        two_tier.reconfigure(remove_tiers=["tier1"])
        assert two_tier.meta("k").locations == {"tier2"}

    def test_rule_changes(self, two_tier):
        rule = Rule(ActionEvent("insert"), [Store(InsertObject(), "tier2")], name="n")
        two_tier.reconfigure(add_rules=[rule])
        assert two_tier.policy.rule("n") is rule
        two_tier.reconfigure(remove_rules=["n"])
        assert len(two_tier.policy) == 0

    def test_replace_policy_wholesale(self, two_tier):
        rule = Rule(ActionEvent("insert"), [Store(InsertObject(), "tier2")], name="n")
        two_tier.reconfigure(replace_policy=[rule])
        assert [r.name for r in two_tier.policy] == ["n"]


class TestCostAccounting:
    def test_monthly_cost_by_kind(self, registry):
        inst = build_instance(
            registry,
            [("m", "Memcached", 1024 ** 3), ("e", "EBS", 1024 ** 3)],
        )
        assert inst.monthly_cost() == pytest.approx(35.0 + 0.10)

    def test_s3_costed_by_usage(self, registry, ctx):
        inst = build_instance(registry, [("s", "S3", None)])
        inst.create_object("k", 1024 * 1024)
        inst.write_to_tier("k", b"x" * 1024 * 1024, "s", ctx)
        expected = 0.03 / 1024  # 1 MiB at $0.03/GB-month
        assert inst.monthly_cost() == pytest.approx(expected)

    def test_colocated_tier_costs_nothing(self, registry):
        cache = registry.create(
            "Memcached", tier_name="m", size=1024 ** 3, colocated=True
        )
        from repro.core.instance import TieraInstance

        inst = TieraInstance(
            name="x", tiers=[cache], clock=registry.cluster.clock
        )
        assert inst.monthly_cost() == 0.0


class TestMetadataPersistence:
    def test_metadata_survives_restart(self, registry, tmp_path, ctx):
        path = str(tmp_path / "meta.db")
        inst = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6), ("tier2", "EBS", 10 ** 7)],
            metadata_store=LogStore(path),
        )
        inst.create_object("k", 3, tags={"keep"})
        inst.write_to_tier("k", b"abc", "tier2", ctx)
        inst.shutdown()
        # A new server process over the same metadata store and tiers.
        restarted = build_instance(
            registry,
            [("tier1b", "Memcached", 10 ** 6), ("tier2b", "EBS", 10 ** 7)],
            metadata_store=LogStore(path),
        )
        meta = restarted.meta("k")
        assert meta.size == 3
        assert "keep" in meta.tags
        assert meta.locations == {"tier2"}
