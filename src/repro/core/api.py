"""The unified ``StorageAPI`` façade surface.

Three façades move objects in and out of a Tiera instance: the in-process
:class:`~repro.core.server.TieraServer`, the consistent-hash
:class:`~repro.core.sharding.ShardedTieraServer` router, and the
socket-side :class:`~repro.rpc.client.TieraClient`.  Historically each
grew its own verb signatures and return shapes; this module defines the
one contract they all implement now:

* single-object verbs ``put_object`` / ``get_object`` / ``delete_object``
  with **keyword-only** options, returning a structured :class:`OpResult`
  envelope (latency, tier, checksum, stable error code) instead of a bare
  value — errors are *captured* in the envelope, not raised;
* batch verbs ``put_many`` / ``get_many`` / ``delete_many`` and the
  general ``execute_batch``, which run independent items concurrently in
  virtual time (see ``RequestContext.scatter``) and return a
  :class:`BatchResult` preserving submission order;
* :class:`AdmissionController` bounding in-flight operations — an
  over-limit batch is refused up front with ``BACKPRESSURE`` before any
  item runs.

These are the only data-plane verbs: the earlier positional
``put``/``get``/``delete`` were removed (docs/API.md maps old to new).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.core.errors import PARTIAL_FAILURE

#: Operation names accepted in a batch.
PUT = "put"
GET = "get"
DELETE = "delete"
_OPS = (PUT, GET, DELETE)

#: Default number of concurrent lanes a batch executes across.
DEFAULT_PARALLELISM = 8

#: Default bound on in-flight operations before backpressure.
DEFAULT_MAX_INFLIGHT = 128


@dataclass
class BatchOp:
    """One operation in a batch: what to do, to which key, with what."""

    op: str
    key: str
    data: Optional[bytes] = None
    tags: Optional[List[str]] = None
    prefer: Optional[str] = None

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"unknown batch op {self.op!r}")
        if self.op == PUT and self.data is None:
            raise ValueError(f"put of {self.key!r} carries no data")

    @classmethod
    def put(cls, key: str, data: bytes, *, tags: Optional[List[str]] = None
            ) -> "BatchOp":
        return cls(PUT, key, data=data, tags=tags)

    @classmethod
    def get(cls, key: str, *, prefer: Optional[str] = None) -> "BatchOp":
        return cls(GET, key, prefer=prefer)

    @classmethod
    def delete(cls, key: str) -> "BatchOp":
        return cls(DELETE, key)

    # -- wire form (RPC) -----------------------------------------------------

    def to_wire(self, encode_bytes) -> Dict[str, object]:
        wire: Dict[str, object] = {"op": self.op, "key": self.key}
        if self.data is not None:
            wire["data"] = encode_bytes(self.data)
        if self.tags is not None:
            wire["tags"] = list(self.tags)
        if self.prefer is not None:
            wire["prefer"] = self.prefer
        return wire

    @classmethod
    def from_wire(cls, wire: Dict[str, object], decode_bytes) -> "BatchOp":
        data = wire.get("data")
        return cls(
            op=wire["op"],
            key=wire["key"],
            data=decode_bytes(data) if data is not None else None,
            tags=list(wire["tags"]) if wire.get("tags") is not None else None,
            prefer=wire.get("prefer"),
        )


@dataclass
class OpResult:
    """Structured outcome of one storage operation.

    Failure is data here, not control flow: a missing key yields an
    ``OpResult`` with ``ok=False`` and ``error="NO_SUCH_OBJECT"``.
    Callers that want an exception call :meth:`raise_for_error`.
    """

    op: str
    key: str
    ok: bool
    latency: float = 0.0
    #: tier(s) involved: the serving tier for a get, a comma-joined
    #: sorted list of stored-in tiers for a put, "" when not applicable.
    tier: str = ""
    checksum: str = ""
    size: int = 0
    #: stable error code (see repro.core.errors), None on success.
    error: Optional[str] = None
    error_message: str = ""
    #: exception class name, kept so the RPC client can re-raise faithfully.
    error_type: str = ""
    #: payload bytes for a successful get; None otherwise.
    value: Optional[bytes] = None
    #: the captured exception object, when the op ran in-process.
    #: Excluded from equality so direct and RPC façades compare equal.
    exception: Optional[BaseException] = field(
        default=None, repr=False, compare=False
    )

    def raise_for_error(self) -> "OpResult":
        """Re-raise the captured failure (no-op on success)."""
        if self.ok:
            return self
        if self.exception is not None:
            raise self.exception
        raise RuntimeError(
            f"{self.op} {self.key!r} failed: "
            f"[{self.error}] {self.error_message}"
        )

    # -- wire form (RPC) -----------------------------------------------------

    def to_wire(self, encode_bytes) -> Dict[str, object]:
        wire: Dict[str, object] = {
            "op": self.op,
            "key": self.key,
            "ok": self.ok,
            "latency": self.latency,
            "tier": self.tier,
            "checksum": self.checksum,
            "size": self.size,
        }
        if not self.ok:
            wire["error"] = self.error
            wire["error_message"] = self.error_message
            wire["error_type"] = self.error_type
        if self.value is not None:
            wire["value"] = encode_bytes(self.value)
        return wire

    @classmethod
    def from_wire(cls, wire: Dict[str, object], decode_bytes) -> "OpResult":
        value = wire.get("value")
        return cls(
            op=wire["op"],
            key=wire["key"],
            ok=wire["ok"],
            latency=wire.get("latency", 0.0),
            tier=wire.get("tier", ""),
            checksum=wire.get("checksum", ""),
            size=wire.get("size", 0),
            error=wire.get("error"),
            error_message=wire.get("error_message", ""),
            error_type=wire.get("error_type", ""),
            value=decode_bytes(value) if value is not None else None,
        )


@dataclass
class BatchResult:
    """Outcome of a batch: per-item results in submission order.

    A batch never raises for item-level failures; ``code`` is
    ``PARTIAL_FAILURE`` when any item failed and ``None`` when all
    succeeded.  ``latency`` is the whole batch's virtual-time span —
    the max over item completion times, not their sum.
    """

    results: List[OpResult]
    latency: float = 0.0
    parallelism: int = 1

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def code(self) -> Optional[str]:
        return None if self.ok else PARTIAL_FAILURE

    @property
    def failures(self) -> List[OpResult]:
        return [r for r in self.results if not r.ok]

    def values(self) -> List[Optional[bytes]]:
        """Payloads in submission order (None for non-gets/failures)."""
        return [r.value for r in self.results]

    def raise_for_error(self) -> "BatchResult":
        for result in self.results:
            result.raise_for_error()
        return self

    def __iter__(self):
        return iter(self.results)

    def __len__(self):
        return len(self.results)

    def __getitem__(self, index):
        return self.results[index]


class AdmissionController:
    """Bounds in-flight operations; refuses overload with backpressure.

    The bound is over *operations*, not batches: one 32-item batch
    admits 32.  A request that would exceed the limit is rejected whole
    — partial admission would break batch ordering guarantees — with a
    :class:`~repro.core.errors.BackpressureError` (code ``BACKPRESSURE``)
    raised before any virtual time is spent.
    """

    def __init__(self, max_inflight: int = DEFAULT_MAX_INFLIGHT):
        if max_inflight < 1:
            raise ValueError("admission limit must be at least 1")
        self.max_inflight = max_inflight
        self.inflight = 0
        self.admitted = 0
        self.rejected = 0

    def acquire(self, count: int = 1) -> None:
        from repro.core.errors import BackpressureError

        if count > self.max_inflight - self.inflight:
            self.rejected += count
            raise BackpressureError(
                requested=count,
                inflight=self.inflight,
                limit=self.max_inflight,
            )
        self.inflight += count
        self.admitted += count

    def release(self, count: int = 1) -> None:
        self.inflight = max(0, self.inflight - count)


@runtime_checkable
class StorageAPI(Protocol):
    """The verb set every Tiera façade implements.

    All options are keyword-only; all outcomes are envelopes.  Single
    ops return :class:`OpResult`; batch verbs return
    :class:`BatchResult` in submission order.
    """

    def put_object(self, key: str, data: bytes, *,
                   tags: Optional[List[str]] = None) -> OpResult: ...

    def get_object(self, key: str, *,
                   prefer: Optional[str] = None) -> OpResult: ...

    def delete_object(self, key: str) -> OpResult: ...

    def execute_batch(self, ops: Sequence[BatchOp], *,
                      parallelism: int = DEFAULT_PARALLELISM) -> BatchResult: ...

    def put_many(self, items: Iterable[Tuple[str, bytes]], *,
                 tags: Optional[List[str]] = None,
                 parallelism: int = DEFAULT_PARALLELISM) -> BatchResult: ...

    def get_many(self, keys: Iterable[str], *,
                 parallelism: int = DEFAULT_PARALLELISM) -> BatchResult: ...

    def delete_many(self, keys: Iterable[str], *,
                    parallelism: int = DEFAULT_PARALLELISM) -> BatchResult: ...

    def contains(self, key: str) -> bool: ...


@dataclass
class ManagementResult:
    """Envelope for the unified management surface.

    ``configure(feature, **options)``, ``feature_status(feature)`` and
    ``invoke(feature, action, **params)`` return this from every façade
    — direct, sharded, and RPC — so the admin plane has the same stable
    shape as the data plane.  Errors are *captured*, never raised: an
    unknown feature comes back with ``error == "UNKNOWN_FEATURE"``,
    refused options with ``error == "BAD_CONFIG"``, a failed action
    with its exception's code.  ``state`` is a JSON-clean dict (no
    tuples, no bytes) so the RPC round-trip is the identity.
    """

    feature: str
    action: str                     # "configure" | "status" | an action
    ok: bool = True
    enabled: bool = False
    state: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None     # stable code, e.g. UNKNOWN_FEATURE
    error_message: Optional[str] = None
    #: the captured exception of a failed action (in process, or its
    #: RpcError on the client).  Excluded from equality so direct and
    #: RPC façades compare equal.
    exception: Optional[BaseException] = field(
        default=None, repr=False, compare=False
    )

    def raise_for_error(self) -> "ManagementResult":
        if not self.ok:
            if self.exception is not None:
                raise self.exception
            from repro.core import errors

            exc_cls = {
                errors.UNKNOWN_FEATURE: errors.UnknownFeatureError,
                errors.BAD_CONFIG: errors.BadConfigError,
            }.get(self.error)
            if exc_cls is errors.UnknownFeatureError:
                raise exc_cls(self.feature)
            if exc_cls is errors.BadConfigError:
                raise exc_cls(self.feature, self.error_message or "")
            raise errors.TieraError(self.error_message or self.error or "")
        return self

    def to_wire(self) -> Dict[str, object]:
        wire: Dict[str, object] = {
            "feature": self.feature,
            "action": self.action,
            "ok": self.ok,
            "enabled": self.enabled,
            "state": self.state,
            "error": self.error,
            "error_message": self.error_message,
        }
        if self.exception is not None:
            # kept so the RPC client can re-raise faithfully
            wire["error_type"] = type(self.exception).__name__
        return wire

    @classmethod
    def from_wire(cls, doc: Dict[str, object]) -> "ManagementResult":
        return cls(
            feature=doc["feature"],
            action=doc["action"],
            ok=doc["ok"],
            enabled=doc["enabled"],
            state=doc.get("state") or {},
            error=doc.get("error"),
            error_message=doc.get("error_message"),
        )


@runtime_checkable
class ManagementAPI(Protocol):
    """The admin verbs every Tiera façade implements.

    One keyword-only ``configure`` turns a feature on or retunes it,
    one ``feature_status`` inspects it, one ``invoke`` runs a named
    action; all return :class:`ManagementResult` envelopes with stable
    error codes.  The features and their actions are the rows of
    :mod:`repro.core.features`.
    """

    def configure(self, feature: str, **options) -> ManagementResult: ...

    def feature_status(self, feature: str) -> ManagementResult: ...

    def invoke(
        self, feature: str, action: str, **params
    ) -> ManagementResult: ...


def batch_from_verbs(
    op: str,
    items: Iterable,
    *,
    tags: Optional[List[str]] = None,
) -> List[BatchOp]:
    """Build the BatchOp list behind put_many/get_many/delete_many."""
    ops: List[BatchOp] = []
    if op == PUT:
        for key, data in items:
            ops.append(BatchOp.put(key, data, tags=tags))
    elif op == GET:
        for key in items:
            ops.append(BatchOp.get(key))
    elif op == DELETE:
        for key in items:
            ops.append(BatchOp.delete(key))
    else:  # pragma: no cover - callers pass module constants
        raise ValueError(f"unknown batch op {op!r}")
    return ops
