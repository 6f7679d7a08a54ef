"""RPC server/client over real sockets (WallClock instances)."""

import threading
import time

import pytest

from repro.core.instance import TieraInstance
from repro.core.policy import Policy, Rule
from repro.core.events import ActionEvent
from repro.core.responses import Store
from repro.core.selectors import InsertObject
from repro.core.server import TieraServer
from repro.rpc import RpcError, TieraClient, TieraRpcServer
from repro.simcloud.clock import WallClock
from repro.simcloud.cluster import Cluster
from repro.tiers.registry import TierRegistry


@pytest.fixture
def live_server():
    clock = WallClock()
    cluster = Cluster(clock=clock)
    registry = TierRegistry(cluster)
    tiers = [
        registry.create("Memcached", tier_name="tier1", size=64 * 1024 * 1024),
        registry.create("EBS", tier_name="tier2", size=64 * 1024 * 1024),
    ]
    instance = TieraInstance(
        name="rpc-test",
        tiers=tiers,
        policy=Policy([
            Rule(
                ActionEvent("insert"),
                [Store(InsertObject(), ("tier1", "tier2"))],
                name="write-through",
            )
        ]),
        clock=clock,
    )
    rpc = TieraRpcServer(TieraServer(instance), port=0).start()
    yield rpc
    rpc.stop()
    instance.shutdown()
    clock.shutdown()


@pytest.fixture
def client(live_server):
    with TieraClient(live_server.host, live_server.port) as conn:
        yield conn


class TestLifecycle:
    def test_stop_ends_the_accept_thread(self, live_server, client):
        # One served request, then a pause: the accept thread is back
        # blocked in accept() when stop() runs.
        assert client.ping()
        time.sleep(0.2)
        accept = live_server._accept_thread
        assert accept.is_alive()
        live_server.stop()
        accept.join(timeout=2.0)
        assert not accept.is_alive()


class TestRpcRoundtrip:
    def test_ping(self, client):
        assert client.ping()

    def test_put_get(self, client):
        latency = client.put("k", b"remote bytes")
        assert latency >= 0
        assert client.get("k") == b"remote bytes"

    def test_binary_safety(self, client):
        payload = bytes(range(256)) * 8
        client.put("bin", payload)
        assert client.get("bin") == payload

    def test_delete_and_contains(self, client):
        client.put("k", b"v")
        assert client.contains("k")
        client.delete("k")
        assert not client.contains("k")

    def test_stat(self, client):
        client.put("k", b"hello", tags=["web"])
        stat = client.stat("k")
        assert stat["size"] == 5
        assert stat["tags"] == ["web"]
        assert sorted(stat["locations"]) == ["tier1", "tier2"]

    def test_tags_and_keys(self, client):
        client.put("a", b"1", tags=["x"])
        client.put("b", b"2")
        client.add_tag("b", "x")
        assert client.keys(tag="x") == ["a", "b"]
        assert client.keys() == ["a", "b"]

    def test_tiers_listing(self, client):
        tiers = client.tiers()
        assert [t["name"] for t in tiers] == ["tier1", "tier2"]
        assert all(t["available"] for t in tiers)

    def test_missing_key_error(self, client):
        with pytest.raises(RpcError) as excinfo:
            client.get("ghost")
        assert excinfo.value.error_type == "NoSuchObjectError"

    def test_unknown_method(self, live_server, client):
        with pytest.raises(RpcError) as excinfo:
            client._call("explode")
        assert excinfo.value.error_type == "UnknownMethod"


class TestIntrospection:
    def test_stats_snapshot(self, client):
        client.put("k", b"v")
        snap = client.stats()
        requests = snap["metrics"]["tiera_requests_total"]["samples"]
        assert requests["op=put"] == 1
        assert snap["audit"]["appended"] >= 1
        assert snap["traces"]["enabled"] is False

    def test_stats_prometheus_text(self, client):
        client.put("k", b"v")
        text = client.stats(format="prometheus")
        assert isinstance(text, str)
        assert "# TYPE tiera_requests_total counter" in text
        assert 'tiera_requests_total{op="put"} 1' in text

    def test_trace_toggle_and_fetch(self, client):
        result = client.trace(enable=True)
        assert result["enabled"] is True
        client.put("k", b"v")
        client.get("k")
        result = client.trace(limit=5, enable=False)
        assert result["enabled"] is False
        ops = [t["attrs"]["op"] for t in result["traces"]]
        assert ops == ["put", "get"]
        get_trace = result["traces"][-1]
        assert get_trace["attrs"]["served_by"] in ("tier1", "tier2")

    def test_health(self, client):
        client.put("k", b"v")
        health = client.health()
        assert health["status"] == "ok"
        assert health["objects"] == 1
        assert health["rules_fired"] == {"write-through": 1}

    def test_cli_stats_summary(self, live_server, capsys):
        from repro.cli import main

        with TieraClient(live_server.host, live_server.port) as conn:
            conn.put("k", b"v")
        assert main(
            ["stats", "--port", str(live_server.port)]
        ) == 0
        out = capsys.readouterr().out
        assert "instance rpc-test — status ok" in out
        assert "tier tier1 (memcached)" in out
        assert "rules fired: write-through×1" in out

    def test_cli_stats_prometheus(self, live_server, capsys):
        from repro.cli import main

        assert main(
            ["stats", "--port", str(live_server.port), "--format", "prometheus"]
        ) == 0
        assert "# TYPE tiera_tier_ops_total counter" in capsys.readouterr().out

    def test_cli_stats_json(self, live_server, capsys):
        import json

        from repro.cli import main

        assert main(
            ["stats", "--port", str(live_server.port), "--format", "json"]
        ) == 0
        snap = json.loads(capsys.readouterr().out)
        assert "metrics" in snap and "audit" in snap

    def test_cli_stats_connection_refused(self, capsys):
        from repro.cli import main

        assert main(["stats", "--port", "1"]) == 1
        assert "cannot connect" in capsys.readouterr().err


class TestConcurrency:
    def test_parallel_clients(self, live_server):
        errors = []

        def worker(worker_id):
            try:
                with TieraClient(live_server.host, live_server.port) as conn:
                    for i in range(20):
                        key = f"w{worker_id}-{i}"
                        conn.put(key, key.encode())
                        assert conn.get(key) == key.encode()
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert errors == []

    def test_sequential_requests_one_connection(self, client):
        for i in range(50):
            client.put(f"k{i}", b"x")
        assert len(client.keys()) == 50


class TestDurabilityVerbs:
    def test_fsck_clean_over_rpc(self, client):
        client.put("k", b"bytes")
        report = client.fsck()
        assert report["clean"] is True
        assert report["counts"]["findings"] == 0

    def test_fsck_repair_flag_round_trips(self, client):
        client.put("k", b"bytes")
        report = client.fsck(repair=True)
        assert report["repair"] is True

    def test_snapshot_restore_roundtrip(self, client):
        for i in range(3):
            client.put(f"obj{i}", b"payload-%d" % i)
        result = client.snapshot()
        manifest = result["manifest"]
        assert manifest["objects"] == 3
        assert result["archive"][:8]  # non-empty tar bytes

        client.delete("obj0")
        client.put("obj9", b"post-snapshot write")
        restored = client.restore(result["archive"])
        assert restored["verified"] is True
        assert client.contains("obj0")
        assert not client.contains("obj9")
        assert client.get("obj1") == b"payload-1"

    def test_restore_rejects_garbage_archive(self, client):
        with pytest.raises(RpcError):
            client.restore(b"this is not a tar archive")

    def test_cli_fsck(self, live_server, capsys):
        from repro.cli import main

        code = main(["fsck", "--port", str(live_server.port)])
        assert code == 0
        assert '"clean": true' in capsys.readouterr().out

    def test_cli_snapshot_and_restore(self, live_server, capsys, tmp_path):
        from repro.cli import main

        with TieraClient(live_server.host, live_server.port) as conn:
            conn.put("cli-obj", b"cli bytes")
        archive = str(tmp_path / "backup.tar")
        port = str(live_server.port)
        assert main(["snapshot", "--port", port, "--out", archive]) == 0
        assert "1 objects" in capsys.readouterr().out
        with TieraClient(live_server.host, live_server.port) as conn:
            conn.delete("cli-obj")
        assert main(["restore", archive, "--port", port]) == 0
        assert '"verified": true' in capsys.readouterr().out
        with TieraClient(live_server.host, live_server.port) as conn:
            assert conn.get("cli-obj") == b"cli bytes"


class TestBackupVerbs:
    def test_disabled_store_reports_disabled(self, client):
        assert client.backup() == {"enabled": False}

    def test_lifecycle_round_trip(self, client, tmp_path):
        client.put("obj0", b"v0" * 64)
        status = client.backup(enable=True, root=str(tmp_path / "bk"))
        assert status["enabled"] is True

        full = client.backup(action="snapshot", kind="full")["snapshot"]
        assert full["kind"] == "full"
        client.put("obj1", b"v1" * 64)
        inc = client.backup(action="snapshot")["snapshot"]
        assert inc["kind"] == "incremental"
        assert inc["parent"] == full["id"]

        listing = client.backup(action="list")["snapshots"]
        assert [e["id"] for e in listing] == [full["id"], inc["id"]]

        verify = client.backup(action="verify")["verify"]
        assert verify["ok"] is True

        frozen = client.backup(
            action="mark_immutable", snapshot_id=full["id"]
        )["snapshot"]
        assert frozen["immutable"] is True
        # keep_last=1 cannot orphan the chain: nothing is pruned.
        assert client.backup(action="prune", keep_last=1)["prune"][
            "pruned"
        ] == []

        status = client.backup()["status"]
        assert status["snapshots"] == 2
        assert status["last_verified_restore"]["ok"] is True

    def test_restore_to_seq_over_rpc(self, client, tmp_path):
        client.backup(enable=True, root=str(tmp_path / "bk"))
        client.put("k", b"v1" * 64)
        client.backup(action="snapshot", kind="full")
        client.put("k", b"v2" * 64)
        target = client.backup()["status"]["wal"]["last_seq"]
        client.put("k", b"v3" * 64)
        restore = client.backup(action="restore", to_seq=target)["restore"]
        assert restore["to_seq"] == target
        assert restore["replayed"] > 0
        assert client.get("k") == b"v2" * 64

    def test_backup_errors_have_a_stable_code(self, client, tmp_path):
        client.backup(enable=True, root=str(tmp_path / "bk"))
        with pytest.raises(RpcError) as excinfo:
            client.backup(action="restore", to_seq=10 ** 9)
        assert excinfo.value.code == "BACKUP_ERROR"

    def test_cli_backup_commands(self, live_server, capsys, tmp_path):
        from repro.cli import main

        port = str(live_server.port)
        # Not enabled yet: a clean error, not a traceback.
        assert main(["backup", "list", "--port", port]) == 1
        assert "not enabled" in capsys.readouterr().err

        with TieraClient(live_server.host, live_server.port) as conn:
            conn.put("cli-obj", b"cli bytes")
            conn.backup(enable=True, root=str(tmp_path / "bk"))

        assert main([
            "backup", "snapshot", "--port", port, "--kind", "full",
        ]) == 0
        assert '"kind": "full"' in capsys.readouterr().out
        assert main(["backup", "list", "--port", port]) == 0
        assert "#1 full:" in capsys.readouterr().out
        assert main(["backup", "verify", "--port", port]) == 0
        assert '"ok": true' in capsys.readouterr().out
        assert main(["backup", "prune", "--port", port,
                     "--keep-last", "5"]) == 0
        assert '"pruned": []' in capsys.readouterr().out


class TestClusterVerb:
    @pytest.fixture
    def cluster_rpc(self):
        from repro.bench.failover import build_shard_cluster
        from repro.core.cluster import ClusterConfig

        sim, router, _, _ = build_shard_cluster(
            shards=3, config=ClusterConfig(replication_factor=2)
        )
        rpc = TieraRpcServer(router, port=0).start()
        yield rpc, router
        rpc.stop()
        router.cluster.stop()

    def test_not_a_cluster_answers_disabled(self, client):
        assert client.cluster() == {"enabled": False}

    def test_status_fsck_replay_and_anti_entropy(self, cluster_rpc):
        rpc, router = cluster_rpc
        with TieraClient(rpc.host, rpc.port) as conn:
            conn.put("ck", b"cluster bytes")
            assert conn.get("ck") == b"cluster bytes"

            status = conn.cluster()["status"]
            assert status["replicas"] == 2
            assert set(status["shards"]) == set(router.shards)
            assert all(s == "up" for s in status["shards"].values())

            assert conn.cluster("fsck")["fsck"]["clean"]
            assert conn.cluster("replay")["replay"]["replayed"] == 0
            assert conn.cluster("anti_entropy")["anti_entropy"][
                "divergent"] == 0
            assert conn.health()["cluster"]["hints"]["pending"] == 0

    def test_unknown_action_is_a_bad_request(self, cluster_rpc):
        rpc, _ = cluster_rpc
        with TieraClient(rpc.host, rpc.port) as conn:
            with pytest.raises(RpcError) as excinfo:
                conn.cluster("explode")
            assert excinfo.value.code == "BAD_REQUEST"

    def test_instance_only_verbs_fail_cleanly_on_a_router(self, cluster_rpc):
        rpc, _ = cluster_rpc
        with TieraClient(rpc.host, rpc.port) as conn:
            with pytest.raises(RpcError) as excinfo:
                conn.tiers()
            assert excinfo.value.code == "BAD_REQUEST"
