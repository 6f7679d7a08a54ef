"""Durability layer: journal, recovery, fsck, snapshot/restore."""

from __future__ import annotations

import json

import pytest

from repro.core.durability import (
    JOURNAL_PREFIX,
    IntentJournal,
    fsck,
    insert_targets,
    reopen_instance,
    restore_snapshot,
    simulate_crash,
    snapshot_archive,
    write_snapshot,
)
from repro.core.events import ActionEvent
from repro.core.objects import content_checksum
from repro.core.policy import Policy, Rule
from repro.core.responses import Store
from repro.core.selectors import InsertObject
from repro.core.server import TieraServer
from repro.kvstore import MemoryStore
from repro.simcloud.cluster import Cluster
from repro.simcloud.errors import ProcessCrash
from repro.simcloud.faults import CrashPointInjector
from repro.simcloud.resources import RequestContext
from repro.tiers.registry import TierRegistry

from tests.core.conftest import build_instance

WRITE_THROUGH = Rule(
    ActionEvent("insert"),
    [Store(InsertObject(), ("tier1", "tier2"))],
    name="write-through",
)


def _build(store=None, rules=(WRITE_THROUGH,), seed=7):
    cluster = Cluster(seed=seed)
    registry = TierRegistry(cluster)
    instance = build_instance(
        registry,
        [("tier1", "Memcached", 10 ** 6), ("tier2", "EBS", 10 ** 7)],
        rules=rules,
        metadata_store=store if store is not None else MemoryStore(),
    )
    instance.enable_durability()
    return cluster, instance, TieraServer(instance)


def _put(cluster, server, key, data):
    ctx = RequestContext(cluster.clock)
    server.put_object(key, data, ctx=ctx).raise_for_error()
    if ctx.time > cluster.clock.now():
        cluster.clock.run_until(ctx.time)


class TestIntentJournal:
    def test_begin_commit_roundtrip(self):
        store = MemoryStore()
        journal = IntentJournal(store)
        seq = journal.begin({"op": "write", "key": "a"})
        assert len(journal) == 1
        assert [s for s, _ in journal.pending()] == [seq]
        journal.commit(seq)
        assert len(journal) == 0
        assert not any(k.startswith(JOURNAL_PREFIX) for k in store.keys())

    def test_pending_survives_reopen(self):
        store = MemoryStore()
        journal = IntentJournal(store)
        journal.begin({"op": "write", "key": "a"})
        journal.begin({"op": "delete", "key": "b"})
        revived = IntentJournal(store)
        assert [r["key"] for _, r in revived.pending()] == ["a", "b"]
        # Sequence numbers continue past the surviving records.
        assert revived.begin({"op": "scope"}) == 2

    def test_unreadable_record_is_skipped(self):
        store = MemoryStore()
        store.put(JOURNAL_PREFIX + b"notanumber", b"{}")
        store.put(JOURNAL_PREFIX + b"%012d" % 0, b"\xff not json")
        assert len(IntentJournal(store)) == 0

    def test_abort_is_commit(self):
        journal = IntentJournal(MemoryStore())
        seq = journal.begin({"op": "write"})
        journal.abort(seq)
        assert len(journal) == 0


class TestCrashRecovery:
    def _crash_at(self, point, occurrence=0):
        store = MemoryStore()
        cluster, instance, server = _build(store)
        instance.crash_points = CrashPointInjector().arm(point, occurrence)
        _put(cluster, server, "keep", b"acked bytes")
        with pytest.raises(ProcessCrash):
            _put(cluster, server, "wip", b"in-flight bytes")
        simulate_crash(instance)
        successor, recovery = reopen_instance(
            name=instance.name,
            tiers=list(instance.tiers.ordered()),
            policy=Policy([WRITE_THROUGH]),
            clock=cluster.clock,
            metadata_store=store,
        )
        return cluster, successor, recovery

    def test_crash_before_journal_leaves_no_trace_of_wip_write(self):
        # First write of the in-flight PUT dies before journaling its
        # intent for tier1 — recovery must roll nothing forward.
        cluster, successor, recovery = self._crash_at("write.begin", 2)
        assert recovery["replayed"] == []
        assert recovery["fsck"]["clean"] or recovery["fsck"]["repair"]
        assert fsck(successor)["clean"]
        reopened = TieraServer(successor)
        got = reopened.get_object("keep", ctx=RequestContext(cluster.clock))
        assert got.raise_for_error().value == b"acked bytes"

    def test_crash_after_journal_rolls_write_forward(self):
        # Journaled but the tier never got the bytes: recovery replays
        # the intent, so the object lands exactly at the post-op state.
        cluster, successor, recovery = self._crash_at("write.journaled", 3)
        assert [r["op"] for r in recovery["replayed"]] == ["write"]
        assert fsck(successor)["clean"]
        reopened = TieraServer(successor)
        got = reopened.get_object("wip", ctx=RequestContext(cluster.clock))
        assert got.raise_for_error().value == b"in-flight bytes"

    def test_crash_mid_delete_completes_the_delete(self):
        store = MemoryStore()
        cluster, instance, server = _build(store)
        _put(cluster, server, "victim", b"doomed")
        instance.crash_points = CrashPointInjector().arm("delete.data")
        with pytest.raises(ProcessCrash):
            server.delete_object(
                "victim", ctx=RequestContext(cluster.clock)
            ).raise_for_error()
        simulate_crash(instance)
        successor, recovery = reopen_instance(
            name=instance.name,
            tiers=list(instance.tiers.ordered()),
            policy=Policy([WRITE_THROUGH]),
            clock=cluster.clock,
            metadata_store=store,
        )
        assert [r["op"] for r in recovery["replayed"]] == ["delete"]
        assert not successor.has_object("victim")
        assert fsck(successor)["clean"]

    def test_open_scope_is_reported_not_replayed(self):
        cluster, successor, recovery = self._crash_at("write.data", 2)
        assert [r["rule"] for r in recovery["incomplete_responses"]] == (
            ["write-through"]
        )

    def test_journal_empty_after_recovery(self):
        _, successor, _ = self._crash_at("write.journaled", 2)
        assert len(successor.durability.journal) == 0
        assert successor.durability.summary()["recovered"] is True


class TestFsck:
    def _seeded(self):
        cluster, instance, server = _build()
        _put(cluster, server, "alpha", b"alpha bytes")
        _put(cluster, server, "beta", b"beta bytes")
        return cluster, instance, server

    def test_clean_instance_is_clean(self):
        _, instance, _ = self._seeded()
        report = fsck(instance)
        assert report["clean"] and report["findings"] == []

    def test_ghost_location_dropped(self):
        _, instance, _ = self._seeded()
        tier = instance.tiers.get("tier2")
        tier.service._used -= len(tier.service._data.pop("alpha"))
        tier._order.pop("alpha", None)
        report = fsck(instance, repair=True)
        kinds = {f["kind"] for f in report["findings"]}
        # The dropped ghost location cascades into an under-replicated
        # recopy within the same pass: tier2 ends up holding real bytes.
        assert {"ghost", "under-replicated"} <= kinds
        assert tier.service._data["alpha"] == b"alpha bytes"
        assert fsck(instance)["clean"]

    def test_orphan_bytes_deleted(self):
        _, instance, _ = self._seeded()
        service = instance.tiers.get("tier2").service
        service._data["stray"] = b"who wrote this"
        service._used += 14
        report = fsck(instance, repair=True)
        assert [f["kind"] for f in report["findings"]] == ["orphan"]
        assert "stray" not in service._data
        assert fsck(instance)["clean"]

    def test_unrecorded_verified_copy_adopted(self):
        _, instance, _ = self._seeded()
        meta = instance._meta["alpha"]
        meta.locations.discard("tier1")
        instance.persist_meta(meta)
        report = fsck(instance, repair=True)
        adopted = [f for f in report["findings"] if f["kind"] == "unrecorded"]
        assert adopted and adopted[0]["repair"] == "adopt"
        assert "tier1" in meta.locations
        assert fsck(instance)["clean"]

    def test_checksum_mismatch_rewritten_from_clean_copy(self):
        _, instance, _ = self._seeded()
        service = instance.tiers.get("tier2").service
        service._data["beta"] = b"rotted bit"
        report = fsck(instance, repair=True)
        bad = [f for f in report["findings"] if f["kind"] == "checksum-mismatch"]
        assert bad and bad[0]["repair"] == "rewrite-from-clean-copy"
        assert service._data["beta"] == b"beta bytes"
        assert fsck(instance)["clean"]

    def test_no_clean_copy_rolls_back_to_surviving_content(self):
        # Both copies hold the same bytes but the recorded checksum is
        # newer (interrupted overwrite): adopt the content, never drop.
        _, instance, _ = self._seeded()
        meta = instance._meta["beta"]
        meta.checksum = content_checksum(b"newer bytes that never landed")
        instance.persist_meta(meta)
        report = fsck(instance, repair=True)
        bad = [f for f in report["findings"] if f["kind"] == "checksum-mismatch"]
        assert bad and bad[0]["repair"] == "adopt-content"
        assert instance.has_object("beta")
        assert meta.checksum == content_checksum(b"beta bytes")
        assert fsck(instance)["clean"]

    def test_lost_object_dropped(self):
        _, instance, _ = self._seeded()
        meta = instance._meta["alpha"]
        for tier in instance.tiers.ordered():
            service = tier.service
            if "alpha" in service._data:
                service._used -= len(service._data.pop("alpha"))
            tier._order.pop("alpha", None)
        meta.locations.clear()
        instance.persist_meta(meta)
        report = fsck(instance, repair=True)
        assert any(f["kind"] == "lost" for f in report["findings"])
        assert not instance.has_object("alpha")
        assert fsck(instance)["clean"]

    def test_under_replicated_recopied_to_policy_target(self):
        _, instance, _ = self._seeded()
        assert insert_targets(instance) == ["tier2"]
        meta = instance._meta["alpha"]
        service = instance.tiers.get("tier2").service
        service._used -= len(service._data.pop("alpha"))
        instance.tiers.get("tier2")._order.pop("alpha", None)
        meta.locations.discard("tier2")
        instance.persist_meta(meta)
        report = fsck(instance, repair=True)
        assert any(f["kind"] == "under-replicated" for f in report["findings"])
        assert service._data["alpha"] == b"alpha bytes"
        assert fsck(instance)["clean"]

    def test_report_only_mode_changes_nothing(self):
        _, instance, _ = self._seeded()
        service = instance.tiers.get("tier2").service
        service._data["beta"] = b"rotted bit"
        before = instance.state_digest()
        report = fsck(instance, repair=False)
        assert not report["clean"] and report["repair"] is False
        assert instance.state_digest() == before


class TestSnapshotRestore:
    def test_roundtrip_durable_state(self, tmp_path):
        cluster, instance, server = _build()
        for i in range(5):
            _put(cluster, server, f"obj{i}", b"payload-%d" % i)
        path = str(tmp_path / "backup.tar")
        manifest = write_snapshot(instance, path)
        assert manifest["objects"] == 5

        # Restore into a *fresh* same-shape instance.
        _, target, _ = _build(seed=99)
        result = restore_snapshot(target, path)
        assert result["verified"] is True
        assert result["objects"] == 5
        assert target.state_digest(durable_only=True) == (
            instance.state_digest(durable_only=True)
        )

    def test_snapshot_is_deterministic(self):
        cluster, instance, server = _build()
        _put(cluster, server, "a", b"one")
        blob1, _ = snapshot_archive(instance)
        blob2, _ = snapshot_archive(instance)
        assert blob1 == blob2

    def test_include_volatile_roundtrips_full_digest(self):
        cluster, instance, server = _build()
        _put(cluster, server, "a", b"one")
        _put(cluster, server, "b", b"two")
        blob, manifest = snapshot_archive(instance, include_volatile=True)
        from repro.core.durability import restore_archive

        _, target, _ = _build(seed=99)
        result = restore_archive(target, blob)
        assert result["verified"] is True
        assert target.state_digest() == instance.state_digest()

    def test_restore_refuses_missing_tier(self):
        cluster, instance, server = _build()
        _put(cluster, server, "a", b"one")
        blob, _ = snapshot_archive(instance)
        tampered = blob  # restore into an instance lacking tier2
        cluster2 = Cluster(seed=5)
        registry2 = TierRegistry(cluster2)
        lonely = build_instance(
            registry2, [("tier1", "Memcached", 10 ** 6)],
            metadata_store=MemoryStore(),
        )
        from repro.core.durability import restore_archive

        with pytest.raises(ValueError, match="no tier"):
            restore_archive(lonely, tampered)

    def test_restore_refuses_future_format(self):
        cluster, instance, server = _build()
        blob, _ = snapshot_archive(instance)
        import io
        import tarfile

        with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
            manifest = json.loads(tar.extractfile("manifest.json").read())
        manifest["format"] = 999
        out = io.BytesIO()
        with tarfile.open(fileobj=out, mode="w") as tar:
            raw = json.dumps(manifest).encode()
            info = tarfile.TarInfo("manifest.json")
            info.size = len(raw)
            tar.addfile(info, io.BytesIO(raw))
        from repro.core.durability import restore_archive

        with pytest.raises(ValueError, match="newer"):
            restore_archive(instance, out.getvalue())


class TestCheckpoint:
    def test_checkpoint_compacts_logstore(self, tmp_path):
        from repro.kvstore import LogStore

        store = LogStore(str(tmp_path / "meta.db"))
        cluster, instance, server = _build(store)
        for i in range(10):
            _put(cluster, server, "hot", b"version-%d" % i)
        assert store.dead_bytes > 0
        report = instance.durability.checkpoint()
        assert "LogStore" in report["compacted"]
        assert store.dead_bytes == 0
        assert report["pending"] == 0
        instance.shutdown()

    def test_disabled_durability_keeps_data_path_unjournaled(self):
        cluster = Cluster(seed=7)
        registry = TierRegistry(cluster)
        instance = build_instance(
            registry,
            [("tier1", "Memcached", 10 ** 6), ("tier2", "EBS", 10 ** 7)],
            rules=(WRITE_THROUGH,),
            metadata_store=MemoryStore(),
        )
        server = TieraServer(instance)
        _put(cluster, server, "a", b"one")
        assert instance.durability is None
        assert not any(
            k.startswith(JOURNAL_PREFIX)
            for k in instance.metadata_store.keys()
        )
