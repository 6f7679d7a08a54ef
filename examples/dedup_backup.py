#!/usr/bin/env python
"""Storage primitives as policy: de-duplication, compression,
encryption — the §4.2.1 storeOnce story plus the Table 1 extras.

Run:  python examples/dedup_backup.py
"""

from repro.core.responses import Compress, Decrypt, Encrypt
from repro.core.selectors import TaggedObjects
from repro.core.server import TieraServer
from repro.core.templates import dedup_instance
from repro.core.conditions import EvalScope
from repro.fs.dedupfs import DedupFileSystem
from repro.simcloud.cluster import Cluster
from repro.simcloud.resources import RequestContext
from repro.tiers.registry import TierRegistry


def main() -> None:
    cluster = Cluster(seed=23)
    registry = TierRegistry(cluster)
    instance = dedup_instance(registry, mem="1M")
    server = TieraServer(instance)
    fs = DedupFileSystem(server)
    s3 = instance.tiers.get("tier2").service

    # Three "nightly backups" of a mostly-unchanged 400 KB file: the
    # storeOnce policy stores each unique 4 KB block exactly once.
    base = bytes(range(256)) * 16  # one 4 KB block pattern
    for night in range(3):
        with fs.open(f"/backup/night{night}.img", "w") as handle:
            for block in range(100):
                if block == night:  # one block changes per night
                    handle.write(bytes([night + 1]) * 4096)
                else:
                    handle.write(base)
    stats = fs.dedup_stats()
    print("three 100-block backups written:")
    print(f"  logical  : {stats['logical_bytes']:,} bytes")
    print(f"  physical : {stats['physical_bytes']:,} bytes")
    print(f"  savings  : {stats['savings']:.0%}")
    print(f"  S3 PUTs  : {s3.put_requests} "
          "(every duplicate block skipped the round trip)")

    # Responses are callable directly too: tag-targeted encryption and
    # compression of the cold backup set.
    server.put_object(
        "secrets.txt", b"the credentials file " * 40, tags=["sensitive"]
    ).raise_for_error()
    scope = EvalScope(instance=instance)
    ctx = RequestContext(cluster.clock)
    Compress(TaggedObjects("sensitive")).execute(scope, ctx)
    Encrypt(TaggedObjects("sensitive"), key="hunter2").execute(scope, ctx)
    meta = server.stat("secrets.txt")
    print(f"\nsecrets.txt: compressed={meta.compressed} encrypted={meta.encrypted}")
    sealed = server.get_object("secrets.txt").raise_for_error().value
    print(f"  reading without the key returns ciphertext: {sealed[:16]!r}…")
    Decrypt(TaggedObjects("sensitive"), key="hunter2").execute(scope, ctx)
    plain = server.get_object("secrets.txt").raise_for_error().value
    print(f"  after decrypt response: {plain[:24]!r}…")


if __name__ == "__main__":
    main()
