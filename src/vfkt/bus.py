"""Traced message bus for the party/server protocol simulation.

Every send is recorded in a trace as {from, to, kind, shape, checksum} --
never the payload itself -- so privacy properties (who saw what kind of
message) can be asserted from the trace alone. ``send`` hands back the
payload it traced, and the recipient works on that value.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np


def _payload_fingerprint(payload: Any):
    """(shape, checksum) of a payload without retaining its content.

    The shape is an array's shape, or a flat tuple/list of arrays' shapes;
    any other payload that holds an array raises TypeError, so every float
    that crosses the bus is counted in the trace.
    """
    h = hashlib.sha256()
    shape: list | None
    arrays = 0

    def feed(obj):
        nonlocal arrays
        if isinstance(obj, np.ndarray):
            arrays += 1
            h.update(str(obj.shape).encode())
            h.update(np.ascontiguousarray(obj))  # its buffer: a C-contiguous array is not copied
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                feed(item)
        elif isinstance(obj, dict):
            feed(list(obj.items()))
        elif obj is None:
            h.update(b"none")
        else:
            h.update(repr(obj).encode())

    if isinstance(payload, np.ndarray):
        shape = list(payload.shape)
    elif isinstance(payload, (tuple, list)) and all(isinstance(p, np.ndarray) for p in payload):
        shape = [list(p.shape) for p in payload]
    else:
        shape = None
    feed(payload)
    if shape is None and arrays:
        raise TypeError(
            f"payload holds {arrays} array(s) but is neither an array nor a flat "
            "tuple/list of arrays")
    return shape, h.hexdigest()[:16]


class MessageBus:
    """An in-memory trace of every message between parties and the server."""

    def __init__(self):
        self.trace: list[dict] = []

    def send(self, sender: str, recipient: str, kind: str, payload: Any) -> Any:
        """Trace one message and deliver it: the recipient uses the returned payload."""
        shape, checksum = _payload_fingerprint(payload)
        self.trace.append({"from": sender, "to": recipient, "kind": kind,
                           "shape": shape, "checksum": checksum})
        return payload

    def messages_to(self, recipient: str) -> list[dict]:
        return [r for r in self.trace if r["to"] == recipient]

    def messages_of_kind(self, kind: str) -> list[dict]:
        return [r for r in self.trace if r["kind"] == kind]
