"""Thread-pooled RPC server exposing a TieraServer's API over TCP.

Mirrors the prototype's deployment: "The Tiera server is deployed as a
Thrift server on an EC2 instance … the size of the thread pool dedicated
to service client requests [comes from] the configuration file" (§3).
The pool size is taken from the instance's control layer.
"""

from __future__ import annotations

import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional

from repro.core import api
from repro.core.api import BatchOp
from repro.core.errors import (
    BAD_REQUEST,
    TieraError,
    UNKNOWN_METHOD,
    code_for,
)
from repro.core.server import TieraServer
from repro.rpc.protocol import decode_bytes, encode_bytes, read_frame, write_frame
from repro.simcloud.errors import SimCloudError


class TieraRpcServer:
    """Serves PUT/GET/DELETE/stat/tag methods for one Tiera instance."""

    def __init__(
        self,
        tiera: TieraServer,
        host: str = "127.0.0.1",
        port: int = 0,
        pool_size: Optional[int] = None,
    ):
        self.tiera = tiera
        if pool_size is None:
            # Shard routers have no single control layer; fall back to
            # the control-layer default pool size for those.
            instance = getattr(tiera, "instance", None)
            pool_size = (
                instance.control.request_pool_size
                if instance is not None else 8
            )
        self._pool = ThreadPoolExecutor(
            max_workers=pool_size, thread_name_prefix="tiera-rpc"
        )
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.host, self.port = self._listener.getsockname()
        self._running = False
        self._accept_thread: Optional[threading.Thread] = None
        self._op_lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "TieraRpcServer":
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="tiera-rpc-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._running = False
        # close() from another thread does not wake a thread blocked in
        # accept() on Linux; shutdown() does.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        self._pool.shutdown(wait=False)

    def __enter__(self) -> "TieraRpcServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- connection handling ---------------------------------------------------

    def _accept_loop(self) -> None:
        while self._running:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self._pool.submit(self._serve_connection, conn)

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            while self._running:
                try:
                    request = read_frame(conn)
                except (OSError, ValueError):
                    return
                if request is None:
                    return
                response = self._handle(request)
                try:
                    write_frame(conn, response)
                except OSError:
                    return

    def _handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        request_id = request.get("id")
        method_name = request.get("method", "")
        params = request.get("params") or {}
        handler = getattr(self, f"_method_{method_name}", None)
        if handler is None:
            return _error(request_id, "UnknownMethod", method_name, UNKNOWN_METHOD)
        try:
            # The instance's data structures are not thread-safe; one
            # operation at a time, like a single control-layer worker.
            with self._op_lock:
                result = handler(params)
        except (TieraError, SimCloudError) as exc:
            return _error(request_id, type(exc).__name__, str(exc), code_for(exc))
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            # AttributeError covers instance-only verbs called against a
            # shard router (which has no single ``.instance``).
            return _error(request_id, "BadRequest", str(exc), BAD_REQUEST)
        return {"id": request_id, "result": result}

    # -- methods ------------------------------------------------------------------

    def _method_put_object(self, params: Dict[str, Any]) -> Dict[str, Any]:
        tags = params.get("tags")
        result = self.tiera.put_object(
            params["key"],
            decode_bytes(params["data"]),
            tags=list(tags) if tags else None,
        )
        return result.to_wire(encode_bytes)

    def _method_get_object(self, params: Dict[str, Any]) -> Dict[str, Any]:
        result = self.tiera.get_object(
            params["key"], prefer=params.get("prefer")
        )
        return result.to_wire(encode_bytes)

    def _method_delete_object(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return self.tiera.delete_object(params["key"]).to_wire(encode_bytes)

    def _method_batch(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Run a batch of ops, overlapped server-side in virtual time.

        Item failures come back inside their envelopes (never as an RPC
        error); an over-limit batch raises backpressure out of
        ``execute_batch``, which :meth:`_handle` maps to the
        ``BACKPRESSURE`` error code.
        """
        ops = [BatchOp.from_wire(wire, decode_bytes) for wire in params["ops"]]
        batch = self.tiera.execute_batch(
            ops,
            parallelism=int(params.get("parallelism", api.DEFAULT_PARALLELISM)),
        )
        return {
            "results": [r.to_wire(encode_bytes) for r in batch.results],
            "latency": batch.latency,
            "parallelism": batch.parallelism,
            "code": batch.code,
        }

    def _method_contains(self, params: Dict[str, Any]) -> bool:
        return self.tiera.contains(params["key"])

    def _method_stat(self, params: Dict[str, Any]) -> Dict[str, Any]:
        meta = self.tiera.stat(params["key"])
        return {
            "key": meta.key,
            "size": meta.size,
            "locations": sorted(meta.locations),
            "dirty": meta.dirty,
            "tags": sorted(meta.tags),
            "access_count": meta.access_count,
            "version": meta.version,
        }

    def _method_add_tag(self, params: Dict[str, Any]) -> bool:
        self.tiera.add_tag(params["key"], params["tag"])
        return True

    def _method_keys(self, params: Dict[str, Any]) -> list:
        tag = params.get("tag")
        if tag is not None:
            return self.tiera.keys_with_tag(tag)
        return self.tiera.keys()

    def _method_ping(self, params: Dict[str, Any]) -> str:
        return "pong"

    # -- introspection verbs (STATS / TRACE / HEALTH) -----------------------

    def _method_stats(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Observability snapshot: JSON by default, Prometheus text on
        ``format="prometheus"``."""
        from repro.obs.export import render_prometheus, stats_snapshot

        obs = self.tiera.obs
        if params.get("format") == "prometheus":
            return {"format": "prometheus", "text": render_prometheus(obs.metrics)}
        return stats_snapshot(obs, audit_limit=int(params.get("audit_limit", 50)))

    def _method_trace(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Inspect (and optionally toggle) per-request tracing."""
        tracer = self.tiera.obs.tracer
        if "enable" in params:
            tracer.enabled = bool(params["enable"])
        limit = int(params.get("limit", 10))
        return {
            "enabled": tracer.enabled,
            "dropped": tracer.dropped,
            "traces": [span.to_dict() for span in tracer.recent(limit)],
        }

    def _method_health(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return self.tiera.health()

    def _method_profile(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """The server's accumulated profile: wall-clock sections from
        served requests, virtual-time attribution from the registry,
        and a per-component rollup of retained traces.

        ``reset=true`` clears the wall-section tree after reporting, so
        the next call profiles a fresh window.
        """
        from repro.obs.profiler import trace_breakdown, virtual_breakdown

        obs = self.tiera.obs
        wall = obs.profiler.wall_report()
        report = {
            "measured_wall_seconds": wall["total_seconds"],
            "coverage": 1.0,
            "wall": wall,
            "virtual": virtual_breakdown(None, obs.metrics.snapshot()),
            "traces": trace_breakdown(obs.tracer.recent()),
        }
        if params.get("reset"):
            obs.profiler.reset()
        return report

    def _method_slo(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Inspect (and optionally configure) the SLO engine.

        ``install_defaults=true`` installs the canned objectives when
        none are present; ``objectives=[{...}]`` installs explicit ones
        (fields of :class:`~repro.obs.slo.SloObjective`).
        """
        from repro.obs.slo import SloObjective, default_slos

        engine = self.tiera.obs.slo
        if params.get("install_defaults") and not engine.objectives:
            engine.install(default_slos())
        for spec in params.get("objectives") or []:
            engine.install([SloObjective(**spec)])
        if not engine.objectives:
            return {"objectives": [], "breaching": [], "alerting": []}
        return engine.summary()

    def _method_resilience(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Inspect (and optionally enable / kick) the resilience layer.

        ``enable=true`` turns the layer on; ``replay=true`` kicks a
        repair-queue replay for every tier that looks reachable.
        """
        instance = self.tiera.instance
        if params.get("enable"):
            instance.enable_resilience()
        res = instance.resilience
        if res is None:
            return {"enabled": False}
        out: Dict[str, Any] = {"enabled": True}
        if params.get("replay"):
            out["replay_kicked"] = res.replay_pending()
        out.update(res.summary())
        return out

    def _method_heat(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Inspect heat telemetry; ``limit`` caps the hot list.

        Read-only: the tracker is switched on and tuned through
        ``configure("heat", ...)``.  Works against both a single
        instance and a shard router (per-shard aggregation); answers
        ``{"enabled": False}`` until enabled.
        """
        limit = params.get("limit")
        return self.tiera.heat_summary(
            limit=int(limit) if limit is not None else None
        )

    # -- unified management API ---------------------------------------------

    def _method_configure(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Enable or retune a feature; see :class:`ManagementAPI`.

        Error codes (``UNKNOWN_FEATURE``, ``BAD_CONFIG``) ride inside
        the envelope, never as RPC-level errors, so the rehydrated
        result compares equal to the direct façade's.
        """
        options = params.get("options") or {}
        return self.tiera.configure(params["feature"], **options).to_wire()

    def _method_feature_status(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return self.tiera.feature_status(params["feature"]).to_wire()

    def _method_placement(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Placement introspection: ``action`` is ``status`` (default),
        ``plan`` (score without moving), or ``run`` (one cycle now)."""
        action = params.get("action", "status")
        if action == "status":
            return self.tiera.placement_status()
        if action == "plan":
            return self.tiera.placement_plan()
        if action == "run":
            return self.tiera.placement_run()
        raise ValueError(f"unknown placement action {action!r}")

    # -- durability verbs (FSCK / SNAPSHOT / RESTORE) -----------------------

    def _method_fsck(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Cross-check metadata against tier contents; ``repair=true``
        fixes what it finds (see :func:`repro.core.durability.fsck`)."""
        from repro.core.durability import fsck

        return fsck(self.tiera.instance, repair=bool(params.get("repair")))

    def _method_snapshot(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """A barman-style full snapshot: deterministic tar archive of
        the instance's durable state, returned inline with its manifest."""
        from repro.core.durability import snapshot_archive

        blob, manifest = snapshot_archive(
            self.tiera.instance,
            include_volatile=bool(params.get("include_volatile")),
        )
        return {"archive": encode_bytes(blob), "manifest": manifest}

    def _method_restore(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Replace the instance's entire state with a snapshot archive's."""
        from repro.core.durability import restore_archive

        return restore_archive(
            self.tiera.instance, decode_bytes(params["archive"])
        )

    def _method_backup(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Backup lifecycle verbs, dispatched on ``action``:
        ``snapshot`` / ``restore`` / ``prune`` / ``verify`` / ``list`` /
        ``mark_immutable`` / ``status``.  Requires backups enabled on
        the instance (``enable=true`` with a ``root`` attaches one)."""
        instance = self.tiera.instance
        if params.get("enable") and instance.backup is None:
            instance.enable_backups(str(params["root"]))
        manager = instance.backup
        if manager is None:
            return {"enabled": False}
        action = str(params.get("action", "status"))
        if action == "snapshot":
            entry = manager.snapshot(
                kind=str(params.get("kind", "auto")),
                immutable=bool(params.get("immutable")),
            )
            return {"enabled": True, "snapshot": entry}
        if action == "restore":
            to_seq = params.get("to_seq")
            to_time = params.get("to_time")
            snapshot_id = params.get("snapshot_id")
            return {
                "enabled": True,
                "restore": manager.restore(
                    to_seq=int(to_seq) if to_seq is not None else None,
                    to_time=(
                        float(to_time) if to_time is not None else None
                    ),
                    snapshot_id=(
                        int(snapshot_id) if snapshot_id is not None else None
                    ),
                ),
            }
        if action == "prune":
            keep_last = params.get("keep_last")
            keep_window = params.get("keep_window")
            return {
                "enabled": True,
                "prune": manager.prune(
                    keep_last=(
                        int(keep_last) if keep_last is not None else None
                    ),
                    keep_window=(
                        float(keep_window) if keep_window is not None
                        else None
                    ),
                ),
            }
        if action == "verify":
            return {"enabled": True, "verify": manager.verify_restore()}
        if action == "list":
            return {"enabled": True, "snapshots": manager.list_snapshots()}
        if action == "mark_immutable":
            return {
                "enabled": True,
                "snapshot": manager.mark_immutable(
                    int(params["snapshot_id"])
                ),
            }
        if action == "status":
            return {"enabled": True, "status": manager.health_summary()}
        raise ValueError(f"unknown backup action {action!r}")

    def _method_cluster(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Replicated-cluster verbs, dispatched on ``action``:
        ``status`` / ``fsck`` / ``replay`` / ``anti_entropy``.  Answers
        ``{"enabled": False}`` when the server is not a replicated shard
        router (single instances and replication-off routers)."""
        manager = getattr(self.tiera, "cluster", None)
        if manager is None:
            return {"enabled": False}
        action = str(params.get("action", "status"))
        if action == "status":
            return {"enabled": True, "status": manager.summary()}
        if action == "fsck":
            return {
                "enabled": True,
                "fsck": manager.fsck(repair=bool(params.get("repair"))),
            }
        if action == "replay":
            return {
                "enabled": True,
                "replay": manager.replay_hints(params.get("target")),
            }
        if action == "anti_entropy":
            return {"enabled": True, "anti_entropy": manager.anti_entropy()}
        raise ValueError(f"unknown cluster action {action!r}")

    def _method_tiers(self, params: Dict[str, Any]) -> list:
        return [
            {
                "name": tier.name,
                "kind": tier.kind,
                "capacity": tier.capacity,
                "used": tier.used,
                "available": tier.available,
            }
            for tier in self.tiera.instance.tiers
        ]


def _error(
    request_id, error_type: str, message: str, code: str
) -> Dict[str, Any]:
    return {
        "id": request_id,
        "error": {"code": code, "type": error_type, "message": message},
    }
