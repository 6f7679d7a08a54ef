"""Backup lifecycle: incremental-vs-full snapshot bytes and PITR restore.

The paper's durability story (Table 3, Fig 13) bounds the loss window;
this experiment measures what operating that guarantee costs.  A
write-through instance takes a full snapshot, then absorbs waves of
writes where each wave mutates only a fraction of the data set and is
captured by an incremental snapshot.  Mid-history, a journal sequence
number and its durable state digest are pinned as the point-in-time
target.  The instance is then crashed, reopened over the same backup
store, and restored ``--to-seq`` — the digest must land byte-exact on
the reference, fsck must come back clean, and a timer-scheduled
``verifyBackup()`` drill must report success through ``health()``.

The table reports archive bytes per snapshot (incrementals should cost
roughly the changed fraction, not the full set) and wall-clock restore
time as history grows.

Standalone use::

    python benchmarks/bench_backup_lifecycle.py           # full table
    python benchmarks/bench_backup_lifecycle.py --smoke   # CI gate: a
        deterministic JSON summary (byte-identical across same-seed runs)
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import tempfile
import time as walltime

from repro.bench.report import format_table
from repro.core.durability import fsck, reopen_instance, simulate_crash
from repro.core.events import ActionEvent, TimerEvent
from repro.core.policy import Policy, Rule
from repro.core.responses import Store, VerifyBackup
from repro.core.selectors import InsertObject
from repro.core.server import TieraServer
from repro.kvstore import MemoryStore
from repro.simcloud.cluster import Cluster
from repro.simcloud.resources import RequestContext
from repro.tiers.registry import TierRegistry

SEED = 2014
RECORDS = 120           # objects in the working set
RECORD_BYTES = 2048
WAVES = 4               # incremental snapshots after the full
CHANGE_FRACTION = 0.15  # of the set mutated per wave
VERIFY_INTERVAL = 50.0  # virtual seconds between verification drills

WRITE_THROUGH = Rule(
    ActionEvent("insert"),
    [Store(InsertObject(), ("tier1", "tier2"))],
    name="write-through",
)


def _build(store, root, records=RECORDS):
    cluster = Cluster(seed=SEED)
    registry = TierRegistry(cluster)
    tiers = [
        registry.create("Memcached", tier_name="tier1", size=32 * 1024 * 1024),
        registry.create("EBS", tier_name="tier2", size=256 * 1024 * 1024),
    ]
    from repro.core.instance import TieraInstance

    instance = TieraInstance(
        name="backup-bench",
        tiers=tiers,
        policy=Policy([
            WRITE_THROUGH,
            Rule(TimerEvent(VERIFY_INTERVAL), [VerifyBackup()],
                 name="verify-drill"),
        ]),
        clock=cluster.clock,
        metadata_store=store,
    )
    instance.enable_durability()
    instance.enable_backups(root)
    return cluster, instance, TieraServer(instance)


def _put(cluster, server, key, data):
    ctx = RequestContext(cluster.clock)
    server.put_object(key, data, ctx=ctx).raise_for_error()
    if ctx.time > cluster.clock.now():
        cluster.clock.run_until(ctx.time)


def _payload(rng, tag):
    body = bytes(rng.getrandbits(8) for _ in range(64)) * (
        RECORD_BYTES // 64
    )
    return tag.encode("ascii") + body[len(tag):]


def run_lifecycle(records=RECORDS, waves=WAVES):
    """Run the whole lifecycle; returns (summary, rows, timings).

    ``summary`` holds only virtual-deterministic facts (digests, bytes,
    seqs) — the CI smoke gate byte-diffs two same-seed runs of it.
    ``timings`` holds the wall-clock measurements for the table.
    """
    rng = random.Random(SEED)
    root = tempfile.mkdtemp(prefix="tiera-backup-bench-")
    store = MemoryStore()
    timings = {}
    try:
        cluster, instance, server = _build(store, root, records)
        manager = instance.backup

        for i in range(records):
            _put(cluster, server, f"obj{i:04d}", _payload(rng, f"v0-{i}"))

        t0 = walltime.perf_counter()
        full = manager.snapshot(kind="full")
        timings["full_snapshot_s"] = walltime.perf_counter() - t0
        snapshots = [full]

        changed = max(1, int(records * CHANGE_FRACTION))
        target_seq = None
        target_digest = None
        for wave in range(1, waves + 1):
            victims = rng.sample(range(records), changed)
            for index, i in enumerate(victims):
                _put(cluster, server, f"obj{i:04d}",
                     _payload(rng, f"v{wave}-{i}"))
                if wave == (waves + 1) // 2 and index == changed // 2:
                    # Pin the PITR target mid-wave, strictly between
                    # snapshots, so the restore must replay WAL records
                    # on top of the nearest chain.
                    target_seq = manager.last_seq
                    target_digest = instance.state_digest(durable_only=True)
            snapshots.append(manager.snapshot())

        # Crash the process and reopen a successor over the same
        # surviving state and backup store.
        tiers = list(instance.tiers.ordered())
        eviction_chain = dict(instance.eviction_chain)
        simulate_crash(instance)
        successor, _recovery = reopen_instance(
            name=instance.name,
            tiers=tiers,
            policy=Policy([
                WRITE_THROUGH,
                Rule(TimerEvent(VERIFY_INTERVAL), [VerifyBackup()],
                     name="verify-drill"),
            ]),
            clock=cluster.clock,
            metadata_store=store,
            eviction_chain=eviction_chain,
            backup_root=root,
        )
        server = TieraServer(successor)
        manager = successor.backup

        t0 = walltime.perf_counter()
        restore = manager.restore(to_seq=target_seq)
        timings["pitr_restore_s"] = walltime.perf_counter() - t0
        scrub = fsck(successor, repair=False)

        # The scheduled verification drill: let the timer rule fire.
        cluster.clock.run_until(cluster.clock.now() + VERIFY_INTERVAL + 1.0)
        health = server.health()
        verified = health["backup"]["last_verified_restore"]

        summary = {
            "records": records,
            "waves": waves,
            "changed_per_wave": changed,
            "snapshots": [
                {
                    "id": e["id"], "kind": e["kind"], "bytes": e["bytes"],
                    "objects": e["objects"], "upto_seq": e["upto_seq"],
                    "state_digest": e["state_digest"],
                }
                for e in snapshots
            ],
            "incremental_vs_full_bytes": round(
                snapshots[1]["bytes"] / snapshots[0]["bytes"], 4
            ),
            "pitr": {
                "target_seq": target_seq,
                "base_snapshot": restore["base_snapshot"],
                "replayed": restore["replayed"],
                "digest_match": restore["durable_digest"] == target_digest,
                "durable_digest": restore["durable_digest"],
                "fsck_clean": scrub["clean"],
            },
            "verification": {
                "ran": verified is not None,
                "ok": bool(verified and verified["ok"]),
                "snapshot": verified["snapshot"] if verified else None,
                "replayed": verified["replayed"] if verified else None,
                "health_status": health["status"],
            },
        }
        rows = [
            [e["id"], e["kind"], e["objects"], e["bytes"],
             round(e["bytes"] / snapshots[0]["bytes"], 3)]
            for e in snapshots
        ]
        return summary, rows, timings
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_backup_lifecycle(benchmark, emit):
    out = {}

    def experiment():
        out["summary"], out["rows"], out["timings"] = run_lifecycle()

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    summary = out["summary"]
    emit("backup_lifecycle", format_table(
        "Backup lifecycle: snapshot bytes (full vs incremental chain)",
        ["id", "kind", "objects", "bytes", "vs full"],
        out["rows"],
        note=(
            "each wave mutates ~15% of the set; incrementals should cost\n"
            "roughly the changed fraction of a full archive."
        ),
    ))
    assert summary["pitr"]["digest_match"], "PITR digest must match reference"
    assert summary["pitr"]["fsck_clean"]
    assert summary["pitr"]["replayed"] > 0, "PITR must replay WAL records"
    assert summary["verification"]["ok"]
    assert summary["incremental_vs_full_bytes"] < 0.7, (
        "an incremental over a 15% change wave should be well under a "
        f"full archive (got {summary['incremental_vs_full_bytes']:.2f}x)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Incremental/PITR backup lifecycle measurements."
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="print the deterministic JSON summary and gate on the "
             "lifecycle invariants (used by CI, byte-diffed across runs)",
    )
    args = parser.parse_args(argv)
    summary, rows, timings = run_lifecycle()
    if args.smoke:
        print(json.dumps(summary, indent=2, sort_keys=True))
        ok = (
            summary["pitr"]["digest_match"]
            and summary["pitr"]["fsck_clean"]
            and summary["pitr"]["replayed"] > 0
            and summary["verification"]["ok"]
            and summary["incremental_vs_full_bytes"] < 0.7
        )
        if not ok:
            print("FAIL: backup lifecycle invariants violated",
                  file=sys.stderr)
            return 1
        return 0
    print(format_table(
        "Backup lifecycle: snapshot bytes (full vs incremental chain)",
        ["id", "kind", "objects", "bytes", "vs full"],
        rows,
        note=(
            f"full snapshot {timings['full_snapshot_s'] * 1000:.1f} ms, "
            f"PITR restore {timings['pitr_restore_s'] * 1000:.1f} ms "
            f"({summary['pitr']['replayed']} wal records replayed)"
        ),
    ))
    print(f"PITR digest match: {summary['pitr']['digest_match']}, "
          f"fsck clean: {summary['pitr']['fsck_clean']}, "
          f"scheduled verification: "
          f"{'ok' if summary['verification']['ok'] else 'FAILED'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
