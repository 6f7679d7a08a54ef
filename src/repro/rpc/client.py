"""Blocking RPC client for a remote Tiera instance.

Implements the same :class:`~repro.core.api.StorageAPI` surface as the
in-process façades: envelope verbs (``put_object``/``get_object``/
``delete_object``) and batch verbs riding the ``batch`` wire method.
Captured failures carry an :class:`~repro.rpc.protocol.RpcError` (with
the server's stable ``code``) as their exception, so
``raise_for_error`` raises it.
"""

from __future__ import annotations

import itertools
import socket
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core import api
from repro.core.api import BatchOp, BatchResult, OpResult
from repro.rpc.protocol import (
    RpcError,
    decode_bytes,
    encode_bytes,
    read_frame,
    write_frame,
)


class TieraClient:
    """Connects to a :class:`~repro.rpc.server.TieraRpcServer`.

    Thread-safe: concurrent calls serialize on the connection, matching
    how a single benchmark client thread uses the real Thrift client.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "TieraClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _call(self, method: str, **params) -> Any:
        request_id = next(self._ids)
        with self._lock:
            write_frame(
                self._sock, {"id": request_id, "method": method, "params": params}
            )
            response = read_frame(self._sock)
        if response is None:
            raise ConnectionError("server closed the connection")
        if response.get("id") != request_id:
            raise RpcError("ProtocolError", "response id mismatch")
        if "error" in response:
            err = response["error"]
            raise RpcError(
                err.get("type", "Error"),
                err.get("message", ""),
                code=err.get("code", "INTERNAL"),
            )
        return response.get("result")

    @staticmethod
    def _from_wire(wire: Dict[str, Any]) -> OpResult:
        """Decode an envelope, rehydrating failures as RpcErrors so
        ``raise_for_error`` raises the same exception type the old
        raising client did (with the stable ``code`` attached)."""
        result = OpResult.from_wire(wire, decode_bytes)
        if not result.ok:
            result.exception = RpcError(
                result.error_type or "Error",
                result.error_message,
                code=result.error or "INTERNAL",
            )
        return result

    # -- the StorageAPI surface -------------------------------------------

    def put_object(
        self, key: str, data: bytes, *, tags: Optional[List[str]] = None
    ) -> OpResult:
        return self._from_wire(self._call(
            "put_object",
            key=key,
            data=encode_bytes(data),
            tags=list(tags) if tags else None,
        ))

    def get_object(
        self, key: str, *, prefer: Optional[str] = None
    ) -> OpResult:
        return self._from_wire(
            self._call("get_object", key=key, prefer=prefer)
        )

    def delete_object(self, key: str) -> OpResult:
        return self._from_wire(self._call("delete_object", key=key))

    def execute_batch(
        self,
        ops: Sequence[BatchOp],
        *,
        parallelism: int = api.DEFAULT_PARALLELISM,
    ) -> BatchResult:
        """One round trip for the whole batch; the server overlaps the
        items in virtual time.  Raises :class:`RpcError` with code
        ``BACKPRESSURE`` when the server's admission control refuses."""
        wire = self._call(
            "batch",
            ops=[op.to_wire(encode_bytes) for op in ops],
            parallelism=parallelism,
        )
        return BatchResult(
            results=[self._from_wire(w) for w in wire["results"]],
            latency=wire["latency"],
            parallelism=wire["parallelism"],
        )

    def put_many(
        self,
        items: Iterable[Tuple[str, bytes]],
        *,
        tags: Optional[List[str]] = None,
        parallelism: int = api.DEFAULT_PARALLELISM,
    ) -> BatchResult:
        return self.execute_batch(
            api.batch_from_verbs(api.PUT, items, tags=tags),
            parallelism=parallelism,
        )

    def get_many(
        self, keys: Iterable[str], *, parallelism: int = api.DEFAULT_PARALLELISM
    ) -> BatchResult:
        return self.execute_batch(
            api.batch_from_verbs(api.GET, keys), parallelism=parallelism
        )

    def delete_many(
        self, keys: Iterable[str], *, parallelism: int = api.DEFAULT_PARALLELISM
    ) -> BatchResult:
        return self.execute_batch(
            api.batch_from_verbs(api.DELETE, keys), parallelism=parallelism
        )

    def contains(self, key: str) -> bool:
        return self._call("contains", key=key)

    def stat(self, key: str) -> Dict[str, Any]:
        return self._call("stat", key=key)

    def add_tag(self, key: str, tag: str) -> None:
        self._call("add_tag", key=key, tag=tag)

    def keys(self, tag: Optional[str] = None) -> List[str]:
        if tag is None:
            return self._call("keys")
        return self._call("keys", tag=tag)

    def ping(self) -> bool:
        return self._call("ping") == "pong"

    def tiers(self) -> List[Dict[str, Any]]:
        return self._call("tiers")

    # -- introspection ----------------------------------------------------

    def stats(self, format: str = "json", audit_limit: int = 50) -> Any:
        """The server's observability snapshot.

        ``format="json"`` returns the snapshot dict; ``"prometheus"``
        returns the text exposition as a string.
        """
        result = self._call("stats", format=format, audit_limit=audit_limit)
        if format == "prometheus":
            return result["text"]
        return result

    def health(self) -> Dict[str, Any]:
        return self._call("health")

    # -- unified management API -------------------------------------------

    def configure(self, feature: str, **options) -> "api.ManagementResult":
        """Enable or retune ``feature`` (the :class:`ManagementAPI` verb)."""
        return self._envelope("configure", feature=feature, options=options)

    def feature_status(self, feature: str) -> "api.ManagementResult":
        """Inspect ``feature`` (the :class:`ManagementAPI` verb)."""
        return self._envelope("feature_status", feature=feature)

    def invoke(
        self, feature: str, action: str, **params
    ) -> "api.ManagementResult":
        """Run one of ``feature``'s named actions on the server."""
        return self._envelope(
            "invoke", feature=feature, action=action, params=params
        )

    def _envelope(self, method: str, **params) -> "api.ManagementResult":
        """The envelope, equal to the direct façade's.  A failure the
        server captured from an exception carries an :class:`RpcError`
        with its code for ``raise_for_error``."""
        doc = self._call(method, **params)
        result = api.ManagementResult.from_wire(doc)
        if not result.ok and "error_type" in doc:
            result.exception = RpcError(
                doc["error_type"], result.error_message or "",
                code=result.error or "INTERNAL",
            )
        return result

    # -- state archives ----------------------------------------------------

    def snapshot(self, include_volatile: bool = False) -> Dict[str, Any]:
        """Pull a full snapshot of the server's state.

        Returns ``{"archive": <tar bytes>, "manifest": <dict>}``."""
        result = self._call("snapshot", include_volatile=include_volatile)
        return {
            "archive": decode_bytes(result["archive"]),
            "manifest": result["manifest"],
        }

    def restore(self, archive: bytes) -> Dict[str, Any]:
        """Replace the server's state with a snapshot archive's."""
        return self._call("restore", archive=encode_bytes(archive))
