#!/usr/bin/env python
"""Horizontal scaling (the paper's §6 future work): a consistent-hash
ring of Tiera instances, with live shard addition and drain.

Run:  python examples/sharded_tiera.py
"""

from repro.core.events import ActionEvent
from repro.core.instance import TieraInstance
from repro.core.policy import Policy, Rule
from repro.core.responses import Store
from repro.core.selectors import InsertObject
from repro.core.server import TieraServer
from repro.core.sharding import ShardedTieraServer
from repro.simcloud.cluster import Cluster
from repro.tiers.registry import TierRegistry


def make_shard(registry, name: str) -> TieraServer:
    tiers = [
        registry.create("Memcached", tier_name=f"{name}-mem", size=32 * 1024 * 1024),
        registry.create("EBS", tier_name=f"{name}-ebs", size=128 * 1024 * 1024),
    ]
    instance = TieraInstance(
        name=name,
        tiers=tiers,
        policy=Policy([
            Rule(
                ActionEvent("insert"),
                [Store(InsertObject(), (f"{name}-mem", f"{name}-ebs"))],
                name=f"{name}-write-through",
            )
        ]),
        clock=registry.cluster.clock,
    )
    return TieraServer(instance)


def main() -> None:
    cluster = Cluster(seed=31)
    registry = TierRegistry(cluster)
    sharded = ShardedTieraServer(
        {name: make_shard(registry, name) for name in ("shard-a", "shard-b")}
    )

    for i in range(300):
        sharded.put_object(
            f"object-{i}", f"payload {i}".encode()
        ).raise_for_error()
    print("300 objects over two shards:", sharded.object_counts())

    moved = sharded.add_shard("shard-c", make_shard(registry, "shard-c"))
    print(f"joined shard-c: {moved} objects migrated "
          f"({moved / 300:.0%} — only the keys whose owner changed)")
    print("now:", sharded.object_counts())

    drained = sharded.remove_shard("shard-a")
    print(f"drained shard-a: {drained} objects redistributed")
    print("now:", sharded.object_counts())

    # Every object still readable after both topology changes.
    assert all(
        sharded.get_object(f"object-{i}").raise_for_error().value
        == f"payload {i}".encode()
        for i in range(300)
    )
    print("all 300 objects verified readable after rebalancing")


if __name__ == "__main__":
    main()
