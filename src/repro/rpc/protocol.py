"""Wire protocol: 4-byte big-endian length prefix + UTF-8 JSON body.

Requests look like ``{"id": 7, "method": "put_object", "params": {...}}``;
responses are ``{"id": 7, "result": ...}`` or ``{"id": 7, "error":
{"code": "...", "type": "...", "message": "..."}}``.  Object payloads
are base64 strings (JSON cannot carry raw bytes).

``code`` is the stable error taxonomy from :mod:`repro.core.errors` —
clients branch on it, never on ``type`` (an exception class name kept
for messages and backwards compatibility) or message text.
"""

from __future__ import annotations

import base64
import json
import socket
import struct
from typing import Any, Dict, Optional

MAX_FRAME = 64 * 1024 * 1024  # 64 MiB: generous bound against garbage
_LEN = struct.Struct(">I")


class RpcError(Exception):
    """An error returned by the remote server.

    ``code`` is the stable error code (``NO_SUCH_OBJECT``,
    ``BACKPRESSURE``, …); ``error_type`` is the server-side exception
    class name, kept for human-readable messages.
    """

    def __init__(self, error_type: str, message: str, code: str = "INTERNAL"):
        self.error_type = error_type
        self.message = message
        self.code = code or "INTERNAL"
        super().__init__(f"{error_type}: {message}")


class ConnectionClosed(Exception):
    """The peer closed the connection mid-stream."""


def encode_bytes(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def decode_bytes(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"))


def write_frame(sock: socket.socket, message: Dict[str, Any]) -> None:
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ValueError("frame too large")
    sock.sendall(_LEN.pack(len(body)) + body)


def _read_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionClosed()
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one message; ``None`` on orderly EOF at a frame boundary."""
    try:
        header = _read_exact(sock, _LEN.size)
    except ConnectionClosed:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise ValueError(f"frame of {length} bytes exceeds limit")
    body = _read_exact(sock, length)
    return json.loads(body.decode("utf-8"))
