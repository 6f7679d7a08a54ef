"""Property-based invariants over the whole middleware stack.

Random operation sequences against paper-template instances must leave
the system self-consistent: metadata locations agree with tier
contents, tier usage accounting agrees with stored bytes, every live
object is readable, and the dedup index never dangles.
"""

from hypothesis import given, settings, strategies as st

from repro.core.server import TieraServer
from repro.core.templates import (
    dedup_instance,
    low_latency_instance,
    memcached_ebs_instance,
)
from repro.simcloud.cluster import Cluster
from repro.tiers.registry import TierRegistry

# op: (kind, key_id, payload_id, advance_seconds)
OPS = st.lists(
    st.tuples(
        st.sampled_from(["put", "get", "delete", "advance"]),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=40),
    ),
    max_size=50,
)


def payload(payload_id: int) -> bytes:
    return bytes([payload_id]) * (256 + payload_id * 64)


def run_ops(server, cluster, ops):
    live = set()
    for kind, key_id, payload_id, seconds in ops:
        key = f"k{key_id}"
        if kind == "put":
            server.put_object(key, payload(payload_id)).raise_for_error()
            live.add(key)
        elif kind == "get":
            if key in live:
                server.get_object(key).raise_for_error()
        elif kind == "delete":
            if key in live:
                server.delete_object(key).raise_for_error()
                live.discard(key)
        else:
            cluster.clock.advance(seconds)
    return live


def check_invariants(instance, server, live):
    # 1. Every live object is readable; dead keys are gone.
    for key in live:
        assert isinstance(server.get_object(key).raise_for_error().value, bytes)
    assert set(server.keys()) == live
    # 2. Metadata locations agree with tier contents (for non-aliases).
    for meta in instance.iter_meta():
        physical = instance.resolve_alias(meta.key)
        if physical != meta.key:
            continue
        for tier_name in meta.locations:
            assert instance.tiers.get(tier_name).contains(meta.key), (
                f"{meta.key} claimed in {tier_name} but absent"
            )
    # 3. Tier byte accounting matches what is actually stored.
    for tier in instance.tiers:
        stored = sum(tier.service.size_of(k) for k in tier.keys())
        assert tier.used == stored
        if tier.capacity is not None:
            assert tier.used <= tier.capacity
    # 4. The dedup index points at live canonical objects only.
    for checksum, key in list(instance._dedup.items()):
        assert instance.has_object(key)
        assert instance.meta(key).alias_of is None


class TestPolicyEngineInvariants:
    @given(ops=OPS)
    @settings(max_examples=30, deadline=None)
    def test_write_back_instance(self, ops):
        cluster = Cluster(seed=1)
        instance = low_latency_instance(
            TierRegistry(cluster), t=15.0, mem="64K", ebs="1M"
        )
        server = TieraServer(instance)
        live = run_ops(server, cluster, ops)
        check_invariants(instance, server, live)

    @given(ops=OPS)
    @settings(max_examples=30, deadline=None)
    def test_write_through_instance(self, ops):
        cluster = Cluster(seed=2)
        instance = memcached_ebs_instance(
            TierRegistry(cluster), mem="64K", ebs="1M"
        )
        server = TieraServer(instance)
        live = run_ops(server, cluster, ops)
        check_invariants(instance, server, live)

    @given(ops=OPS)
    @settings(max_examples=30, deadline=None)
    def test_dedup_instance(self, ops):
        cluster = Cluster(seed=3)
        instance = dedup_instance(TierRegistry(cluster), mem="32K")
        server = TieraServer(instance)
        live = run_ops(server, cluster, ops)
        check_invariants(instance, server, live)
        # Extra: every object's refcount is the number of keys aliased to
        # it, and the reverse alias index equals one recomputed from
        # ``alias_of``, in table order.
        table = instance._meta
        pointing_in = {}
        for meta in table.values():
            if meta.alias_of is not None:
                pointing_in.setdefault(meta.alias_of, []).append(meta.key)
        for meta in table.values():
            assert meta.refcount == len(pointing_in.get(meta.key, ())), meta.key
        index = {
            canonical: [m.key for m in table.aliases_of(canonical)]
            for canonical in table._aliases
        }
        assert index == pointing_in
