"""The application interface layer: PUT/GET over a Tiera instance.

"The application interface layer exposes a simple PUT/GET API … the
client can merely call PUT/GET and let the Tiera server decide in which
tier the object should be placed/retrieved based on the control layer"
(§2.2).  The server builds an action per client call, hands it to the
control layer, and applies a default placement (first-declared tier,
evicting down the instance's eviction chain) when no rule placed the
object.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core import api, features
from repro.core.actions import Action, DELETE, GET, INSERT
from repro.core.api import (
    AdmissionController,
    BatchOp,
    BatchResult,
    ManagementResult,
    OpResult,
)
from repro.core.errors import TieraError, code_for
from repro.core.instance import TieraInstance
from repro.core.objects import ObjectMeta, content_checksum
from repro.simcloud.errors import SimCloudError
from repro.simcloud.resources import RequestContext


class TieraServer:
    """The :class:`~repro.core.api.StorageAPI` façade over one
    :class:`TieraInstance`.

    Single-object verbs return :class:`~repro.core.api.OpResult`
    envelopes; batch verbs run their items across ``parallelism``
    concurrent lanes in virtual time and return a
    :class:`~repro.core.api.BatchResult`.  Features (heat, placement,
    backups, ...) are managed through :meth:`configure`,
    :meth:`feature_status` and :meth:`invoke`.
    """

    def __init__(
        self,
        instance: TieraInstance,
        max_inflight: int = api.DEFAULT_MAX_INFLIGHT,
    ):
        self.instance = instance
        self.clock = instance.clock
        self.obs = instance.obs
        self.admission = AdmissionController(max_inflight)
        metrics = self.obs.metrics
        self._requests = metrics.counter(
            "tiera_requests_total", "Client PUT/GET/DELETE requests served."
        )
        self._request_errors = metrics.counter(
            "tiera_request_errors_total", "Client requests that raised."
        )
        self._request_seconds = metrics.histogram(
            "tiera_request_seconds",
            "Client-observed simulated latency per request.",
        )
        self._batches = metrics.counter(
            "tiera_batches_total", "Batch requests served."
        )
        self._batch_items = metrics.counter(
            "tiera_batch_items_total", "Operations submitted inside batches."
        )
        self._batch_seconds = metrics.histogram(
            "tiera_batch_seconds",
            "Client-observed simulated latency per batch.",
        )
        self._backpressure = metrics.counter(
            "tiera_backpressure_total",
            "Requests refused by admission control.",
        )

    def _ctx(self, ctx: Optional[RequestContext]) -> RequestContext:
        return ctx if ctx is not None else RequestContext(self.clock)

    def _begin(self, op: str, key: str, ctx: RequestContext, trace: bool):
        """Open the request trace (when tracing) and note the start time."""
        return self.obs.tracer.start_request(op, key, ctx, force=trace), ctx.time

    def _end(self, op, root, ctx, start, error: Optional[BaseException] = None):
        """Close the trace and record the request's registry samples."""
        latency = ctx.time - start
        if error is None:
            self._requests.inc(op=op)
            self._request_seconds.observe(latency, op=op)
            self.obs.tracer.finish_request(root, ctx)
        else:
            self._request_errors.inc(op=op, error=type(error).__name__)
            self.obs.tracer.finish_request(
                root, ctx, error=f"{type(error).__name__}: {error}"
            )
        # SLO accounting rides the same completion event; it is a no-op
        # until objectives are installed, and never touches virtual time.
        self.obs.slo.record(op, latency, error is None, ctx.time)

    # -- the StorageAPI surface (envelope verbs) -----------------------------

    def put_object(
        self,
        key: str,
        data: bytes,
        *,
        tags: Optional[List[str]] = None,
        ctx: Optional[RequestContext] = None,
        trace: bool = False,
    ) -> OpResult:
        """Store (or overwrite) an object; failure comes back in the
        envelope (``ok=False`` + stable error code), not as a raise."""
        return self._run_op(
            BatchOp.put(key, data, tags=tags), self._ctx(ctx), trace
        )

    def get_object(
        self,
        key: str,
        *,
        prefer: Optional[str] = None,
        ctx: Optional[RequestContext] = None,
        trace: bool = False,
    ) -> OpResult:
        """Retrieve an object; the payload rides in ``result.value``."""
        return self._run_op(
            BatchOp.get(key, prefer=prefer), self._ctx(ctx), trace
        )

    def delete_object(
        self,
        key: str,
        *,
        ctx: Optional[RequestContext] = None,
        trace: bool = False,
    ) -> OpResult:
        return self._run_op(BatchOp.delete(key), self._ctx(ctx), trace)

    def _run_op(
        self, op: BatchOp, ctx: RequestContext, trace: bool = False
    ) -> OpResult:
        """Execute one op, capturing domain failures into the envelope.

        Only Tiera/simcloud errors are data; programming errors (and
        :class:`~repro.simcloud.errors.ProcessCrash`, a BaseException)
        still propagate.
        """
        root, started = self._begin(op.op, op.key, ctx, trace)
        try:
            with self.obs.profiler.section(f"op:{op.op}"):
                result = self._apply_op(op, ctx)
        except (TieraError, SimCloudError) as exc:
            self._end(op.op, root, ctx, started, exc)
            return OpResult(
                op=op.op,
                key=op.key,
                ok=False,
                latency=ctx.time - started,
                error=code_for(exc),
                error_message=str(exc),
                error_type=type(exc).__name__,
                exception=exc,
            )
        except BaseException as exc:
            self._end(op.op, root, ctx, started, exc)
            raise
        self._end(op.op, root, ctx, started)
        result.latency = ctx.time - started
        # Heat accounting (per-object sketch + EWMA) rides the same
        # completion event — one record per client op, whether the op
        # arrived alone or inside a batch; inert until enabled.
        self.obs.heat.record(op.op, op.key, size=result.size, at=ctx.time)
        return result

    def _apply_op(self, op: BatchOp, ctx: RequestContext) -> OpResult:
        if op.op == api.PUT:
            meta = self._put(op.key, op.data, op.tags or (), ctx)
            return OpResult(
                op=api.PUT,
                key=op.key,
                ok=True,
                tier=",".join(sorted(meta.locations)),
                checksum=meta.checksum,
                size=len(op.data),
            )
        if op.op == api.GET:
            ctx.served_by = None
            data = self._get(op.key, ctx, op.prefer)
            return OpResult(
                op=api.GET,
                key=op.key,
                ok=True,
                tier=ctx.served_by or "",
                checksum=content_checksum(data),
                size=len(data),
                value=data,
            )
        self._delete(op.key, ctx)
        return OpResult(op=api.DELETE, key=op.key, ok=True)

    def _put(
        self, key: str, data: bytes, tags: Iterable[str], ctx: RequestContext
    ) -> ObjectMeta:
        instance = self.instance
        if instance.versioning_enabled and instance.has_object(key):
            instance.preserve_version(key, ctx)
        if instance.has_object(key):
            # Overwrite: keep the dedup index and any aliases coherent
            # before the new bytes land.
            instance.prepare_overwrite(key, ctx)
        prior_locations = (
            set(instance.meta(key).locations) if instance.has_object(key) else set()
        )
        meta = instance.create_object(key, len(data), tags=set(tags))
        meta.checksum = content_checksum(data)
        action = Action(
            kind=INSERT,
            key=key,
            meta=meta,
            tier=instance.tiers.first().name if len(instance.tiers) else None,
            data=data,
        )
        instance.control.dispatch_action(action, ctx)
        if meta.alias_of is None and not action.placed:
            # No Store/StoreOnce rule claimed placement.  New objects get
            # the default placement (first-declared tier — the implicit
            # "insert.into tier1" that Figure 4's write-through reacts
            # to); overwritten objects are refreshed wherever they
            # already live, minus tiers a reactive copy just wrote.
            if prior_locations:
                stale = sorted(prior_locations - action.stored_in)
                if stale:
                    instance.write_fanout(key, data, stale, ctx)
            elif instance.tiers.first().name not in action.stored_in:
                self._default_store(action, ctx)
            # The default placement changed tier occupancy after the
            # dispatch-time check: give threshold rules another look.
            instance.control.evaluate_thresholds(ctx, action=action)
        instance.persist_meta(meta)
        return meta

    def _default_store(self, action: Action, ctx: RequestContext) -> None:
        """No rule placed the object: put it in the first-declared tier,
        making room down the eviction chain if one is configured."""
        instance = self.instance
        first = instance.tiers.first().name
        evict_to = instance.eviction_chain.get(first)
        instance.write_to_tier(
            action.key, action.data or b"", first, ctx, evict_to=evict_to
        )

    def _get(
        self, key: str, ctx: RequestContext, prefer: Optional[str]
    ) -> bytes:
        """Retrieve an object's content.

        Compression applied by a ``compress`` response is transparent —
        GET inflates.  Encryption is *not* transparent (the application
        owns the key; install a ``decrypt`` response or call it
        explicitly), so encrypted objects come back as stored.
        """
        instance = self.instance
        meta = instance.meta(key)
        action = Action(kind=GET, key=key, meta=meta)
        instance.control.dispatch_action(action, ctx)
        data = instance.read_raw(key, ctx, prefer=prefer)
        meta.touch(self.clock.now())
        physical_meta = instance.meta(instance.resolve_alias(key))
        if physical_meta.compressed and not physical_meta.encrypted:
            # Encrypted objects come back as stored: the ciphertext
            # wraps the compressed bytes, and only a decrypt response
            # (which holds the key) can peel it off.
            data = zlib.decompress(data)
        return data

    def _delete(self, key: str, ctx: RequestContext) -> None:
        instance = self.instance
        meta = instance.meta(key)
        action = Action(kind=DELETE, key=key, meta=meta)
        instance.control.dispatch_action(action, ctx)
        if instance.has_object(key):
            instance.delete_object(key, ctx)

    # -- batch verbs ---------------------------------------------------------

    def execute_batch(
        self,
        ops: Sequence[BatchOp],
        *,
        parallelism: int = api.DEFAULT_PARALLELISM,
        ctx: Optional[RequestContext] = None,
        trace: bool = False,
    ) -> BatchResult:
        """Run a batch of independent operations, overlapped in virtual
        time across ``parallelism`` concurrent lanes.

        Items execute in submission order (so seeded latency draws are
        schedule-independent) but *cost* as if pipelined: each item
        starts on the earliest-free lane, and the batch's latency is the
        latest lane completion — max-plus-queueing, not a sum.  Results
        come back in submission order; item failures are captured in
        their envelopes (the batch's ``code`` is ``PARTIAL_FAILURE``),
        never raised.  The only raise is
        :class:`~repro.core.errors.BackpressureError`, *before* any item
        runs, when admission control refuses the batch.
        """
        ops = list(ops)
        if parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        ctx = self._ctx(ctx)
        try:
            self.admission.acquire(len(ops))
        except TieraError:
            self._backpressure.inc(op="batch")
            raise
        root = self.obs.tracer.start_request(
            "batch", f"{len(ops)} ops", ctx, force=trace
        )
        # When this batch is itself nested inside a traced request (the
        # sharded router's per-shard sub-batches), parent the item spans
        # on the enclosing span instead of a fresh root.
        parent = root if root is not None else ctx.span
        started = ctx.time
        lanes = [ctx.time] * max(1, min(parallelism, len(ops)))
        results: List[OpResult] = []
        try:
            branches = ctx.scatter()
            for index, op in enumerate(ops):
                lane = min(range(len(lanes)), key=lanes.__getitem__)
                bctx = branches.branch(at=lanes[lane])
                span = None
                if parent is not None:
                    # Each item gets its own child span so tier-ops nest
                    # under the item, not the batch root.  The branch
                    # inherited the root as its span; repoint it.
                    span = parent.child(
                        f"{op.op} {op.key}", "op", bctx.time,
                        op=op.op, key=op.key, index=index, lane=lane,
                    )
                    bctx.span = span
                result = self._run_op(op, bctx)
                results.append(result)
                if span is not None:
                    span.finish(bctx.time)
                    if not result.ok:
                        span.error = result.error
                    bctx.span = None
                lanes[lane] = bctx.time
            branches.join()
        finally:
            self.admission.release(len(ops))
        self._batches.inc()
        self._batch_items.inc(len(ops))
        self._batch_seconds.observe(ctx.time - started)
        if root is not None:
            root.attrs["items"] = len(ops)
            root.attrs["parallelism"] = len(lanes)
        self.obs.tracer.finish_request(root, ctx)
        return BatchResult(
            results=results,
            latency=ctx.time - started,
            parallelism=len(lanes),
        )

    def put_many(
        self,
        items: Iterable[Tuple[str, bytes]],
        *,
        tags: Optional[List[str]] = None,
        parallelism: int = api.DEFAULT_PARALLELISM,
        ctx: Optional[RequestContext] = None,
    ) -> BatchResult:
        return self.execute_batch(
            api.batch_from_verbs(api.PUT, items, tags=tags),
            parallelism=parallelism, ctx=ctx,
        )

    def get_many(
        self,
        keys: Iterable[str],
        *,
        parallelism: int = api.DEFAULT_PARALLELISM,
        ctx: Optional[RequestContext] = None,
    ) -> BatchResult:
        return self.execute_batch(
            api.batch_from_verbs(api.GET, keys),
            parallelism=parallelism, ctx=ctx,
        )

    def delete_many(
        self,
        keys: Iterable[str],
        *,
        parallelism: int = api.DEFAULT_PARALLELISM,
        ctx: Optional[RequestContext] = None,
    ) -> BatchResult:
        return self.execute_batch(
            api.batch_from_verbs(api.DELETE, keys),
            parallelism=parallelism, ctx=ctx,
        )

    # -- introspection ---------------------------------------------------------

    def health(self) -> Dict[str, object]:
        """A liveness/dirt summary the watchdog and RPC layer can query.

        Surfaces what used to be invisible: background policy failures
        (``ControlLayer.background_errors``), per-tier availability, and
        the audit log's error tally.
        """
        instance = self.instance
        control = instance.control
        res = instance.resilience
        tiers = []
        for tier in instance.tiers:
            entry = {
                "name": tier.name,
                "kind": tier.kind,
                "used": tier.used,
                "capacity": tier.capacity,
                "available": tier.available,
                "node": tier.service.node.name,
                "zone": tier.service.node.zone.name,
            }
            if res is not None:
                entry["breaker"] = res.breaker(tier.name).state
                entry["pending_repairs"] = res.repair_queue.pending(tier.name)
            tiers.append(entry)
        errors = control.background_errors
        status = "ok"
        if any(not t["available"] for t in tiers) or any(
            t.get("breaker") == "open" for t in tiers
        ):
            status = "degraded"
        elif errors:
            status = "dirty"
        out = {
            "instance": instance.name,
            "time": self.clock.now(),
            "status": status,
            "objects": instance.object_count(),
            "tiers": tiers,
            "rules_fired": dict(control.fired),
            "background_errors": len(errors),
            "recent_background_errors": [
                f"{source}: {type(exc).__name__}: {exc}"
                for source, exc in errors[-5:]
            ],
            "audit_errors": instance.obs.audit.error_count(),
        }
        if res is not None:
            out["resilience"] = res.summary()
        if instance.durability is not None:
            out["durability"] = instance.durability.summary()
        if instance.backup is not None:
            backup = instance.backup.health_summary()
            out["backup"] = backup
            verified = backup["last_verified_restore"]
            if (
                verified is not None
                and not verified.get("ok")
                and out["status"] == "ok"
            ):
                # The latest restore drill failed: the instance serves
                # fine but its recoverability claim is broken.
                out["status"] = "dirty"
        slo = self.obs.slo
        if slo.objectives:
            summary = slo.summary()
            out["slo"] = summary
            if summary["alerting"] and status == "ok":
                out["status"] = "degraded"
        heat = self.obs.heat
        if heat.enabled:
            # Hot-key detail stays in the heat verb/snapshot; health
            # carries the workload-shape headline only.
            out["heat"] = dict(
                heat.global_stats(), hot_keys=heat.hot_keys()
            )
        if instance.placement is not None:
            status_doc = instance.placement.status()
            out["placement"] = {
                key: status_doc[key]
                for key in (
                    "running", "objective", "interval", "cycles",
                    "moves", "bytes_moved", "last_cycle",
                )
            }
        return out

    # -- unified management API ---------------------------------------------

    def configure(self, feature: str, **options) -> ManagementResult:
        """Switch ``feature`` on or retune it (see
        :mod:`repro.core.features`); answers with its status."""
        return features.configure(self, feature, **options)

    def feature_status(self, feature: str) -> ManagementResult:
        """Whether ``feature`` is on, and its status document."""
        return features.feature_status(self, feature)

    def invoke(self, feature: str, action: str, **params) -> ManagementResult:
        """Run one of ``feature``'s named actions; a failure comes back
        in the envelope with its stable code and exception."""
        return features.invoke(self, feature, action, **params)

    def last_trace(self):
        """The most recently completed request trace (or ``None``)."""
        return self.obs.tracer.last()

    # -- metadata operations ---------------------------------------------------

    def contains(self, key: str) -> bool:
        return self.instance.has_object(key)

    def stat(self, key: str) -> ObjectMeta:
        return self.instance.meta(key)

    def add_tag(self, key: str, tag: str) -> None:
        """Tags add structure to the namespace and define object classes
        that policies target (§2.1)."""
        meta = self.instance.meta(key)
        meta.tags.add(tag)
        self.instance.persist_meta(meta)

    def remove_tag(self, key: str, tag: str) -> None:
        meta = self.instance.meta(key)
        meta.tags.discard(tag)
        self.instance.persist_meta(meta)

    def keys_with_tag(self, tag: str) -> List[str]:
        return sorted(
            meta.key for meta in self.instance.iter_meta() if tag in meta.tags
        )

    def keys(self) -> List[str]:
        return sorted(meta.key for meta in self.instance.iter_meta())

    def __repr__(self) -> str:
        return f"<TieraServer over {self.instance!r}>"
