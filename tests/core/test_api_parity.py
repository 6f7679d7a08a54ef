"""StorageAPI parity: direct, sharded, and RPC façades must agree.

The same op script runs against a :class:`TieraServer`, a single-shard
:class:`ShardedTieraServer`, and a :class:`TieraClient` talking to a
:class:`TieraRpcServer` — each over its own fresh same-seed simulated
stack, so every envelope (including virtual-time latencies) must come
back identical.  ``OpResult.exception`` is excluded from equality, so a
captured in-process exception and its RPC-rehydrated twin compare equal.
"""

import pytest

from repro.core.api import (
    BatchOp,
    BatchResult,
    ManagementAPI,
    ManagementResult,
    StorageAPI,
)
from repro.core.errors import (
    BackpressureError, NoSuchObjectError, UnknownFeatureError, code_for,
)
from repro.core.features import FEATURES
from repro.core.events import ActionEvent
from repro.core.policy import Rule
from repro.core.responses import Store
from repro.core.selectors import InsertObject
from repro.core.server import TieraServer
from repro.core.sharding import ShardedTieraServer
from repro.rpc import RpcError, TieraClient, TieraRpcServer
from repro.simcloud.cluster import Cluster
from repro.tiers.registry import TierRegistry
from tests.core.conftest import build_instance

SEED = 5
BIG = 64 * 1024 * 1024


def fresh_server(max_inflight=128) -> TieraServer:
    cluster = Cluster(seed=SEED)
    registry = TierRegistry(cluster)
    instance = build_instance(
        registry,
        [("tier1", "Memcached", BIG), ("tier2", "EBS", BIG)],
        rules=[Rule(
            ActionEvent("insert"),
            [Store(InsertObject(), ("tier1", "tier2"))],
            name="write-through",
        )],
        name="parity",
    )
    return TieraServer(instance, max_inflight=max_inflight)


@pytest.fixture
def direct() -> TieraServer:
    return fresh_server()


@pytest.fixture
def sharded() -> ShardedTieraServer:
    return ShardedTieraServer({"s1": fresh_server()})


@pytest.fixture
def rpc_client():
    rpc = TieraRpcServer(fresh_server(), port=0).start()
    client = TieraClient(rpc.host, rpc.port)
    yield client
    client.close()
    rpc.stop()


def run_script(facade):
    """The shared op script: single ops, errors, and mixed batches."""
    out = []
    out.append(facade.put_object("alpha", b"a" * 512))
    out.append(facade.put_object("tagged", b"t" * 256, tags=["hot", "backup"]))
    out.append(facade.get_object("alpha"))
    out.append(facade.get_object("ghost"))          # NO_SUCH_OBJECT
    out.append(facade.delete_object("tagged"))
    out.append(facade.delete_object("ghost"))       # NO_SUCH_OBJECT
    out.append(facade.put_many(
        [(f"bulk{i}", bytes([65 + i]) * 128) for i in range(6)],
        parallelism=3,
    ))
    out.append(facade.get_many(["bulk0", "bulk3", "missing"], parallelism=2))
    out.append(facade.execute_batch(
        [
            BatchOp.put("mix", b"m" * 64),
            BatchOp.get("bulk1"),
            BatchOp.delete("bulk2"),
            BatchOp.get("nope"),
        ],
        parallelism=4,
    ))
    return out


def flatten(outcomes):
    """Batches → comparable tuples + their item envelopes."""
    flat = []
    for item in outcomes:
        if isinstance(item, BatchResult):
            flat.append(("batch", item.latency, item.parallelism, item.code))
            flat.extend(item.results)
        else:
            flat.append(item)
    return flat


class TestParity:
    def test_all_facades_satisfy_the_protocol(self, direct, sharded, rpc_client):
        for facade in (direct, sharded, rpc_client):
            assert isinstance(facade, StorageAPI)

    def test_direct_and_sharded_agree(self, direct, sharded):
        assert flatten(run_script(direct)) == flatten(run_script(sharded))

    def test_direct_and_rpc_agree(self, direct, rpc_client):
        assert flatten(run_script(direct)) == flatten(run_script(rpc_client))

    def test_missing_key_code_parity(self, direct, sharded, rpc_client):
        codes = set()
        types = set()
        for facade in (direct, sharded, rpc_client):
            result = facade.get_object("nope")
            assert not result.ok
            codes.add(result.error)
            types.add(result.error_type)
        assert codes == {"NO_SUCH_OBJECT"}
        assert types == {"NoSuchObjectError"}

    def test_batch_partial_failure_code_parity(self, direct, sharded, rpc_client):
        for facade in (direct, sharded, rpc_client):
            facade.put_object("real", b"v")
            batch = facade.get_many(["real", "fake"])
            assert batch.code == "PARTIAL_FAILURE"
            assert [r.ok for r in batch.results] == [True, False]

    def test_raise_for_error_raises_per_facade_exception(
        self, direct, sharded, rpc_client
    ):
        for facade, exc_type in (
            (direct, NoSuchObjectError),
            (sharded, NoSuchObjectError),
            (rpc_client, RpcError),
        ):
            with pytest.raises(exc_type) as err:
                facade.get_object("nope").raise_for_error()
            assert getattr(err.value, "code") == "NO_SUCH_OBJECT"


class TestBackpressureParity:
    def test_all_facades_refuse_with_the_same_code(self):
        items = [(f"k{i}", b"v") for i in range(5)]
        codes = []

        direct = fresh_server(max_inflight=4)
        with pytest.raises(BackpressureError) as err:
            direct.put_many(items)
        codes.append(err.value.code)

        sharded = ShardedTieraServer({"s1": fresh_server()}, max_inflight=4)
        with pytest.raises(BackpressureError) as err:
            sharded.put_many(items)
        codes.append(err.value.code)

        rpc = TieraRpcServer(fresh_server(max_inflight=4), port=0).start()
        try:
            with TieraClient(rpc.host, rpc.port) as client:
                with pytest.raises(RpcError) as err:
                    client.put_many(items)
                codes.append(err.value.code)
        finally:
            rpc.stop()

        assert codes == ["BACKPRESSURE"] * 3


class TestHeatParity:
    """The heat snapshot is part of the API surface: the same op script
    must yield the identical summary from every façade (the single-shard
    router merges through :func:`repro.obs.heat.merge_summaries`, the
    RPC façade through a JSON round-trip — neither may perturb it)."""

    HEAT_CONFIG = dict(top_k=8, hot_min=2, sample_interval=2.0)

    def _drive(self, facade):
        facade.put_object("alpha", b"a" * 512)
        facade.put_object("beta", b"b" * 256)
        for _ in range(4):
            facade.get_object("alpha")
        facade.get_object("beta")
        facade.delete_object("beta")

    def test_summaries_identical_across_facades(self, direct, sharded, rpc_client):
        summaries = []
        for facade in (direct, sharded, rpc_client):
            facade.configure("heat", **self.HEAT_CONFIG).raise_for_error()
            self._drive(facade)
            summaries.append(facade.invoke("heat", "summary"))
        assert summaries[0] == summaries[1]
        assert summaries[0] == summaries[2]
        assert summaries[0].enabled is True
        assert summaries[0].state["hot_keys"][0] == "alpha"

    def test_disabled_snapshot_parity(self, direct, sharded, rpc_client):
        for facade in (direct, sharded, rpc_client):
            summary = facade.invoke("heat", "summary")
            assert (summary.ok, summary.enabled, summary.state) == (
                True, False, {}
            )

    def test_limit_truncates_hot_list_everywhere(
        self, direct, sharded, rpc_client
    ):
        summaries = []
        for facade in (direct, sharded, rpc_client):
            facade.configure("heat", **self.HEAT_CONFIG).raise_for_error()
            for key in ("a", "b", "c"):
                for _ in range(3):
                    facade.put_object(key, b"x" * 64)
            summaries.append(facade.invoke("heat", "summary", limit=1))
        assert summaries[0] == summaries[1] == summaries[2]
        assert len(summaries[0].state["hot"]) == 1


class TestManagementParity:
    """configure/feature_status: one envelope shape from every façade.

    The single-shard router returns the shard's envelope unchanged and
    the RPC client rehydrates through ``ManagementResult.from_wire`` —
    both must compare equal to the direct façade's dataclass."""

    def test_all_facades_satisfy_the_protocol(self, direct, sharded, rpc_client):
        for facade in (direct, sharded, rpc_client):
            assert isinstance(facade, ManagementAPI)

    def test_configure_heat_envelopes_identical(
        self, direct, sharded, rpc_client
    ):
        results = [
            facade.configure("heat", top_k=8, hot_min=2)
            for facade in (direct, sharded, rpc_client)
        ]
        assert results[0] == results[1] == results[2]
        assert results[0].ok and results[0].enabled
        assert results[0].state["config"]["top_k"] == 8

    def test_configure_placement_envelopes_identical(
        self, direct, sharded, rpc_client
    ):
        results = [
            facade.configure("placement", objective="cost", interval=45.0)
            for facade in (direct, sharded, rpc_client)
        ]
        assert results[0] == results[1] == results[2]
        assert results[0].state["objective"] == "cost"
        statuses = [
            facade.feature_status("placement")
            for facade in (direct, sharded, rpc_client)
        ]
        assert statuses[0] == statuses[1] == statuses[2]
        assert statuses[0].state["interval"] == 45.0

    def test_unknown_feature_code_parity(self, direct, sharded, rpc_client):
        for action in ("configure", "feature_status"):
            results = [
                getattr(facade, action)("wormhole")
                for facade in (direct, sharded, rpc_client)
            ]
            assert results[0] == results[1] == results[2]
            assert not results[0].ok
            assert results[0].error == "UNKNOWN_FEATURE"

    def test_bad_config_code_parity(self, direct, sharded, rpc_client):
        results = [
            facade.configure("placement", objective="yolo")
            for facade in (direct, sharded, rpc_client)
        ]
        assert results[0] == results[1] == results[2]
        assert results[0].error == "BAD_CONFIG"
        assert results[0].enabled is False

    def test_placement_introspection_parity(self, direct, sharded, rpc_client):
        for facade in (direct, sharded, rpc_client):
            facade.configure("placement", interval=30.0).raise_for_error()
            facade.put_object("k", b"v" * 128)
        for action in ("status", "plan", "run", "status"):
            docs = [
                facade.invoke("placement", action)
                for facade in (direct, sharded, rpc_client)
            ]
            assert docs[0] == docs[1] == docs[2], action
            assert docs[0].ok and docs[0].enabled
        assert docs[0].state["running"] is True
        assert docs[0].state["cycles"] == 1

    def test_placement_disabled_shape_parity(self, direct, sharded, rpc_client):
        for action in ("status", "plan", "run"):
            docs = [
                facade.invoke("placement", action)
                for facade in (direct, sharded, rpc_client)
            ]
            assert docs == [ManagementResult("placement", action)] * 3

    def test_cluster_on_a_non_cluster_is_disabled(
        self, direct, sharded, rpc_client
    ):
        docs = [
            facade.invoke("cluster", "status")
            for facade in (direct, sharded, rpc_client)
        ]
        assert docs == [ManagementResult("cluster", "status")] * 3

    def test_unknown_feature_invoke_parity(self, direct, sharded, rpc_client):
        results = [
            facade.invoke("wormhole", "status")
            for facade in (direct, sharded, rpc_client)
        ]
        assert results[0] == results[1] == results[2]
        assert results[0].error == "UNKNOWN_FEATURE"
        for result in results:
            with pytest.raises(UnknownFeatureError):
                result.raise_for_error()

    def test_feature_status_is_the_status_action(
        self, direct, sharded, rpc_client
    ):
        # one read per feature: feature_status(f) == invoke(f, "status")
        direct.configure("placement").raise_for_error()
        for facade in (direct, sharded, rpc_client):
            for feature in FEATURES:
                assert (facade.feature_status(feature)
                        == facade.invoke(feature, "status")), feature

    def test_unknown_action_parity(self, direct, sharded, rpc_client):
        results = [
            facade.invoke("placement", "explode")
            for facade in (direct, sharded, rpc_client)
        ]
        assert results[0] == results[1] == results[2]
        assert not results[0].ok
        assert results[0].error == "BAD_REQUEST"

    def test_failed_action_raises_per_facade_exception(
        self, direct, sharded, rpc_client
    ):
        for facade, exc_type in (
            (direct, ValueError),
            (sharded, ValueError),
            (rpc_client, RpcError),
        ):
            facade.configure("heat").raise_for_error()
            with pytest.raises(exc_type) as err:
                facade.invoke("heat", "summary", limit="many").raise_for_error()
            assert code_for(err.value) == "BAD_REQUEST"


class TestRemovedSurface:
    """One verb per job: the positional ``put``/``get``/``delete`` shims,
    ``enable_heat`` and the per-feature verbs are gone from every façade
    (docs/API.md maps each to its envelope, ``configure`` or ``invoke``
    replacement)."""

    REMOVED = (
        "put", "get", "delete", "get_with_context", "enable_heat",
        "heat_summary", "placement_status", "placement_plan",
        "placement_run", "_per_shard", "FEATURES",
        "_feature_enabled", "_feature_envelope",
        "heat", "placement", "slo", "profile", "resilience", "fsck",
        "backup", "trace",
    )

    def test_no_facade_carries_a_removed_verb(self, direct, sharded, rpc_client):
        for facade in (direct, sharded, rpc_client):
            present = [name for name in self.REMOVED if hasattr(facade, name)]
            assert present == [], type(facade).__name__

    def test_client_has_no_cluster_verb(self, rpc_client):
        # The shard router keeps its ``cluster`` manager attribute; the
        # client's ``cluster(action)`` wrapper is what was removed.
        assert not hasattr(rpc_client, "cluster")


class TestShardRouterTagPropagation:
    """Regression: tags given to the router reach the owning shard
    unchanged (its put once took a different tags default than
    TieraServer's, so tags diverged by façade)."""

    def test_envelope_put_propagates_tags(self, sharded):
        sharded.put_object("k2", b"v", tags=["cold"])
        assert sharded.stat("k2").tags == {"cold"}

    def test_batch_put_propagates_tags_through_router(self, sharded):
        batch = sharded.execute_batch(
            [BatchOp.put("k3", b"v", tags=["bulk", "hot"])]
        )
        assert batch.ok
        assert sharded.stat("k3").tags == {"bulk", "hot"}
