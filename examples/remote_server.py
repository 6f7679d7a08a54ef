#!/usr/bin/env python
"""The deployment shape of the paper's prototype: a Tiera server
process (Thrift in the paper, framed JSON-RPC here) serving remote
clients over TCP, on real wall-clock time.

Run:  python examples/remote_server.py
"""

from repro.core.instance import TieraInstance
from repro.core.events import ActionEvent
from repro.core.policy import Policy, Rule
from repro.core.responses import Store
from repro.core.selectors import InsertObject
from repro.core.server import TieraServer
from repro.rpc import TieraClient, TieraRpcServer
from repro.simcloud.clock import WallClock
from repro.simcloud.cluster import Cluster
from repro.tiers.registry import TierRegistry


def main() -> None:
    clock = WallClock()
    cluster = Cluster(clock=clock)
    registry = TierRegistry(cluster)
    tiers = [
        registry.create("Memcached", tier_name="tier1", size=64 * 1024 * 1024),
        registry.create("EBS", tier_name="tier2", size=64 * 1024 * 1024),
    ]
    instance = TieraInstance(
        name="remote-demo",
        tiers=tiers,
        policy=Policy([
            Rule(
                ActionEvent("insert"),
                [Store(InsertObject(), ("tier1", "tier2"))],
                name="write-through",
            ),
        ]),
        clock=clock,
    )

    with TieraRpcServer(TieraServer(instance), port=0) as rpc:
        print(f"Tiera server listening on {rpc.host}:{rpc.port}")
        with TieraClient(rpc.host, rpc.port) as client:
            print(f"ping → {client.ping()}")
            put = client.put_object(
                "remote-object", b"bytes over the wire", tags=["demo"]
            ).raise_for_error()
            print(f"PUT acknowledged (simulated latency "
                  f"{put.latency * 1000:.2f} ms)")
            got = client.get_object("remote-object").raise_for_error()
            print(f"GET → {got.value!r}")
            print(f"stat → {client.stat('remote-object')}")
            print("tiers:")
            for tier in client.tiers():
                print(f"  {tier['name']}: kind={tier['kind']} "
                      f"used={tier['used']} available={tier['available']}")
    instance.shutdown()
    clock.shutdown()
    print("server stopped cleanly")


if __name__ == "__main__":
    main()
