"""RPC server/client over real sockets (WallClock instances)."""

import socket
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
from repro.rpc.protocol import encode_bytes, read_frame, write_frame
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
        result = client.put_object("k", b"remote bytes").raise_for_error()
        assert result.latency >= 0
        assert client.get_object("k").raise_for_error().value == b"remote bytes"

    def test_binary_safety(self, client):
        payload = bytes(range(256)) * 8
        client.put_object("bin", payload).raise_for_error()
        assert client.get_object("bin").raise_for_error().value == payload

    def test_delete_and_contains(self, client):
        client.put_object("k", b"v").raise_for_error()
        assert client.contains("k")
        client.delete_object("k").raise_for_error()
        assert not client.contains("k")

    def test_stat(self, client):
        client.put_object("k", b"hello", tags=["web"]).raise_for_error()
        stat = client.stat("k")
        assert stat["size"] == 5
        assert stat["tags"] == ["web"]
        assert sorted(stat["locations"]) == ["tier1", "tier2"]

    def test_tags_and_keys(self, client):
        client.put_object("a", b"1", tags=["x"]).raise_for_error()
        client.put_object("b", b"2").raise_for_error()
        client.add_tag("b", "x")
        assert client.keys(tag="x") == ["a", "b"]
        assert client.keys() == ["a", "b"]

    def test_tiers_listing(self, client):
        tiers = client.tiers()
        assert [t["name"] for t in tiers] == ["tier1", "tier2"]
        assert all(t["available"] for t in tiers)

    def test_missing_key_error(self, client):
        with pytest.raises(RpcError) as excinfo:
            client.get_object("ghost").raise_for_error()
        assert excinfo.value.error_type == "NoSuchObjectError"

    def test_unknown_method(self, live_server, client):
        with pytest.raises(RpcError) as excinfo:
            client._call("explode")
        assert excinfo.value.error_type == "UnknownMethod"

    def test_positional_put_frame_is_an_unknown_method(self, live_server):
        """Only the envelope verbs are on the wire: a raw ``put`` frame
        is refused, not served."""
        with socket.create_connection(
            (live_server.host, live_server.port), timeout=5.0
        ) as sock:
            write_frame(sock, {
                "id": 1, "method": "put",
                "params": {"key": "k", "data": encode_bytes(b"v")},
            })
            response = read_frame(sock)
        assert "result" not in response
        assert response["error"]["code"] == "UNKNOWN_METHOD"

    @pytest.mark.parametrize("method", [
        "heat", "placement", "slo", "profile", "resilience", "fsck",
        "backup", "cluster", "trace",
    ])
    def test_per_feature_frames_are_unknown_methods(self, live_server, method):
        """Features are managed through configure / feature_status /
        invoke only: the old per-feature wire methods are gone."""
        with socket.create_connection(
            (live_server.host, live_server.port), timeout=5.0
        ) as sock:
            write_frame(sock, {"id": 1, "method": method, "params": {}})
            response = read_frame(sock)
        assert "result" not in response
        assert response["error"]["code"] == "UNKNOWN_METHOD"


def disabled(envelope) -> bool:
    """The envelope of an action on a feature that is off."""
    return envelope.ok and not envelope.enabled and envelope.state == {}


class TestHeatVerb:
    def test_misspelled_option_is_refused_and_tracker_stays_off(self, client):
        envelope = client.configure("heat", topk=4)
        assert envelope.error == "BAD_CONFIG"
        assert disabled(client.invoke("heat", "summary"))

    def test_heat_verb_is_read_only(self, client):
        refused = client.invoke("heat", "summary", enable=True, top_k=4)
        assert refused.error == "BAD_REQUEST"
        assert disabled(client.invoke("heat", "summary"))
        client.configure("heat", top_k=4).raise_for_error()
        summary = client.invoke("heat", "summary", limit=1)
        assert summary.state["config"]["top_k"] == 4


class TestIntrospection:
    def test_stats_snapshot(self, client):
        client.put_object("k", b"v").raise_for_error()
        snap = client.stats()
        requests = snap["metrics"]["tiera_requests_total"]["samples"]
        assert requests["op=put"] == 1
        assert snap["audit"]["appended"] >= 1
        assert snap["traces"]["enabled"] is False

    def test_stats_prometheus_text(self, client):
        client.put_object("k", b"v").raise_for_error()
        text = client.stats(format="prometheus")
        assert isinstance(text, str)
        assert "# TYPE tiera_requests_total counter" in text
        assert 'tiera_requests_total{op="put"} 1' in text

    def test_trace_toggle_and_fetch(self, client):
        result = client.configure("trace", enable=True)
        assert result.enabled is True
        client.put_object("k", b"v").raise_for_error()
        client.get_object("k").raise_for_error()
        client.configure("trace", enable=False).raise_for_error()
        result = client.invoke("trace", "recent", limit=5)
        assert result.enabled is False
        ops = [t["attrs"]["op"] for t in result.state["traces"]]
        assert ops == ["put", "get"]
        get_trace = result.state["traces"][-1]
        assert get_trace["attrs"]["served_by"] in ("tier1", "tier2")

    def test_health(self, client):
        client.put_object("k", b"v").raise_for_error()
        health = client.health()
        assert health["status"] == "ok"
        assert health["objects"] == 1
        assert health["rules_fired"] == {"write-through": 1}

    def test_cli_stats_summary(self, live_server, capsys):
        from repro.cli import main

        with TieraClient(live_server.host, live_server.port) as conn:
            conn.put_object("k", b"v").raise_for_error()
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
                        conn.put_object(key, key.encode()).raise_for_error()
                        got = conn.get_object(key).raise_for_error()
                        assert got.value == key.encode()
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
            client.put_object(f"k{i}", b"x").raise_for_error()
        assert len(client.keys()) == 50


class TestDurabilityVerbs:
    def test_fsck_clean_over_rpc(self, client):
        client.put_object("k", b"bytes").raise_for_error()
        report = client.invoke("durability", "fsck").state
        assert report["clean"] is True
        assert report["counts"]["findings"] == 0

    def test_fsck_repair_flag_round_trips(self, client):
        client.put_object("k", b"bytes").raise_for_error()
        report = client.invoke("durability", "fsck", repair=True).state
        assert report["repair"] is True

    def test_snapshot_restore_roundtrip(self, client):
        for i in range(3):
            client.put_object(f"obj{i}", b"payload-%d" % i).raise_for_error()
        result = client.snapshot()
        manifest = result["manifest"]
        assert manifest["objects"] == 3
        assert result["archive"][:8]  # non-empty tar bytes

        client.delete_object("obj0").raise_for_error()
        client.put_object("obj9", b"post-snapshot write").raise_for_error()
        restored = client.restore(result["archive"])
        assert restored["verified"] is True
        assert client.contains("obj0")
        assert not client.contains("obj9")
        assert client.get_object("obj1").raise_for_error().value == b"payload-1"

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
            conn.put_object("cli-obj", b"cli bytes").raise_for_error()
        archive = str(tmp_path / "backup.tar")
        port = str(live_server.port)
        assert main(["snapshot", "--port", port, "--out", archive]) == 0
        assert "1 objects" in capsys.readouterr().out
        with TieraClient(live_server.host, live_server.port) as conn:
            conn.delete_object("cli-obj").raise_for_error()
        assert main(["restore", archive, "--port", port]) == 0
        assert '"verified": true' in capsys.readouterr().out
        with TieraClient(live_server.host, live_server.port) as conn:
            assert conn.get_object("cli-obj").raise_for_error().value == b"cli bytes"


class TestBackupVerbs:
    def test_disabled_store_reports_disabled(self, client):
        assert disabled(client.invoke("backup", "status"))

    def test_lifecycle_round_trip(self, client, tmp_path):
        client.put_object("obj0", b"v0" * 64).raise_for_error()
        status = client.configure("backup", root=str(tmp_path / "bk"))
        assert status.enabled is True

        full = client.invoke("backup", "snapshot", kind="full").state[
            "snapshot"]
        assert full["kind"] == "full"
        client.put_object("obj1", b"v1" * 64).raise_for_error()
        inc = client.invoke("backup", "snapshot").state["snapshot"]
        assert inc["kind"] == "incremental"
        assert inc["parent"] == full["id"]

        listing = client.invoke("backup", "list").state["snapshots"]
        assert [e["id"] for e in listing] == [full["id"], inc["id"]]

        verify = client.invoke("backup", "verify").state["verify"]
        assert verify["ok"] is True

        frozen = client.invoke(
            "backup", "mark_immutable", snapshot_id=full["id"]
        ).state["snapshot"]
        assert frozen["immutable"] is True
        # keep_last=1 cannot orphan the chain: nothing is pruned.
        assert client.invoke("backup", "prune", keep_last=1).state["prune"][
            "pruned"
        ] == []

        status = client.invoke("backup", "status").state["status"]
        assert status["snapshots"] == 2
        assert status["last_verified_restore"]["ok"] is True

    def test_restore_to_seq_over_rpc(self, client, tmp_path):
        client.configure("backup", root=str(tmp_path / "bk"))
        client.put_object("k", b"v1" * 64).raise_for_error()
        client.invoke("backup", "snapshot", kind="full")
        client.put_object("k", b"v2" * 64).raise_for_error()
        target = client.invoke("backup", "status").state["status"]["wal"][
            "last_seq"]
        client.put_object("k", b"v3" * 64).raise_for_error()
        restore = client.invoke("backup", "restore", to_seq=target).state[
            "restore"]
        assert restore["to_seq"] == target
        assert restore["replayed"] > 0
        assert client.get_object("k").raise_for_error().value == b"v2" * 64

    def test_backup_errors_have_a_stable_code(self, client, tmp_path):
        client.configure("backup", root=str(tmp_path / "bk"))
        result = client.invoke("backup", "restore", to_seq=10 ** 9)
        assert result.error == "BACKUP_ERROR"
        with pytest.raises(RpcError) as excinfo:
            result.raise_for_error()
        assert excinfo.value.code == "BACKUP_ERROR"

    def test_cli_backup_commands(self, live_server, capsys, tmp_path):
        from repro.cli import main

        port = str(live_server.port)
        # Not enabled yet: a clean error, not a traceback.
        assert main(["backup", "list", "--port", port]) == 1
        assert "not enabled" in capsys.readouterr().err

        with TieraClient(live_server.host, live_server.port) as conn:
            conn.put_object("cli-obj", b"cli bytes").raise_for_error()
            conn.configure("backup", root=str(tmp_path / "bk"))

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
        assert disabled(client.invoke("cluster", "status"))

    def test_status_fsck_replay_and_anti_entropy(self, cluster_rpc):
        rpc, router = cluster_rpc
        with TieraClient(rpc.host, rpc.port) as conn:
            conn.put_object("ck", b"cluster bytes").raise_for_error()
            assert conn.get_object("ck").raise_for_error().value == b"cluster bytes"

            status = conn.invoke("cluster", "status").state["status"]
            assert status["replicas"] == 2
            assert set(status["shards"]) == set(router.shards)
            assert all(s == "up" for s in status["shards"].values())

            assert conn.invoke("cluster", "fsck").state["fsck"]["clean"]
            assert conn.invoke("cluster", "replay").state["replay"][
                "replayed"] == 0
            assert conn.invoke("cluster", "anti_entropy").state[
                "anti_entropy"]["divergent"] == 0
            assert conn.health()["cluster"]["hints"]["pending"] == 0

    def test_unknown_action_is_a_bad_request(self, cluster_rpc):
        rpc, _ = cluster_rpc
        with TieraClient(rpc.host, rpc.port) as conn:
            result = conn.invoke("cluster", "explode")
            assert result.error == "BAD_REQUEST"
            with pytest.raises(RpcError) as excinfo:
                result.raise_for_error()
            assert excinfo.value.code == "BAD_REQUEST"

    def test_instance_only_verbs_fail_cleanly_on_a_router(self, cluster_rpc):
        rpc, _ = cluster_rpc
        with TieraClient(rpc.host, rpc.port) as conn:
            with pytest.raises(RpcError) as excinfo:
                conn.tiers()
            assert excinfo.value.code == "BAD_REQUEST"

    def test_backup_is_refused_on_a_router(self, cluster_rpc, tmp_path):
        rpc, router = cluster_rpc
        root = tmp_path / "bk"
        with TieraClient(rpc.host, rpc.port) as conn:
            answers = [
                conn.configure("backup", root=str(root)),
                conn.feature_status("backup"),
                conn.invoke("backup", "snapshot", kind="full"),
                conn.invoke("backup", "restore", to_seq=1),
            ]
        for result in answers:
            assert not result.ok and result.error == "BAD_REQUEST"
            with pytest.raises(RpcError) as excinfo:
                result.raise_for_error()
            assert excinfo.value.code == "BAD_REQUEST"
        assert all(s.instance.backup is None for s in router.shards.values())
        assert not root.exists()

    def test_slo_trace_and_profile_use_the_router_hub(self, cluster_rpc):
        rpc, router = cluster_rpc
        objective = {"name": "get_avail", "op": "get",
                     "kind": "availability", "target": 0.99}
        with TieraClient(rpc.host, rpc.port) as conn:
            configured = conn.configure("slo", objectives=[objective])
            assert configured.ok and configured.enabled
            assert [o.name for o in router.obs.slo.objectives] == ["get_avail"]
            assert [o["name"] for o in configured.state["objectives"]] == [
                "get_avail"]
            # a duplicate name is refused and installs nothing
            refused = conn.configure(
                "slo", install_defaults=True, objectives=[objective])
            assert refused.error == "BAD_CONFIG"
            assert [o.name for o in router.obs.slo.objectives] == ["get_avail"]

            assert conn.configure("trace", enable=True).enabled
            assert router.obs.tracer.enabled
            conn.put_many([(f"t{i}", b"x") for i in range(3)]).raise_for_error()
            recent = conn.invoke("trace", "recent", limit=50).state["traces"]
            assert recent == [
                t.to_dict() for t in router.obs.tracer.recent(50)]
            assert len(recent) == 1 and recent[0]["attrs"]["op"] == "batch"
            assert not conn.configure("trace", enable=False).enabled
            assert not router.obs.tracer.enabled

            profile = conn.invoke("profile", "status")
            assert profile.ok and "shards" not in profile.state
            assert profile.state["wall"]["total_seconds"] >= 0.0
