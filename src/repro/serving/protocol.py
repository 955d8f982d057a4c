"""The serving wire protocol: versioned JSON envelopes and one binary upload.

Everything is stdlib: ``http.server`` on the server side, ``urllib`` on
the client side.  Control messages and the work download are JSON, with
the packed global state base64-wrapped; a result upload is one binary
frame (``application/octet-stream``).  Endpoints (all under ``/v1``):

========================  =====================================================
``GET  /v1/health``       liveness + run phase (``serving``/``done``/``failed``)
``GET  /v1/config``       the run's ``FederationConfig`` + uplink codec — a
                          client rebuilds its local client population from this
``POST /v1/register``     ``{"clients": [...]|null}`` → a session serving those
                          client indices (null = any)
``GET  /v1/work``         ``?session=&wait=&have_batch=`` long-poll for a
                          task: ``{"status": "task"|"wait"|"done", ...}``; a
                          ``task`` response carries the wire ``ClientTask``,
                          its lease, and (unless the session already holds
                          batch ``have_batch``'s weights) the global state
``POST /v1/result``       a result frame (below) → ``{"accepted"}`` —
                          idempotent; late/stale results are acknowledged but
                          dropped.  With ``?session=&have_batch=`` an accepted
                          upload is also the session's next poll: ``next``
                          holds the ``/v1/work`` payload (no ``protocol``
                          key) of a task leased on the spot, or ``done``; it
                          is absent when nothing is ready (poll ``/v1/work``)
                          and after a duplicate or late upload.  An unknown
                          session, a JSON body or a malformed frame is
                          refused (400, naming the cause) before the result
                          is kept
``GET  /v1/history``      the finished run's ``History`` (409 while running)
``POST /v1/shutdown``     stop the server loop
========================  =====================================================

A result frame is one :func:`~repro.federated.compression.pack_payload`
container.  Its meta is ``{"protocol", "task_id", "update"}``, where
``update`` is the ``ClientUpdate.to_wire()`` dict without its blobs (the
state keeps its ``codec`` and ``bits``; ``mask`` is dropped).  Its raw
``uint8`` sections are ``state`` (the codec payload) and ``mask`` (the
packed mask), each present only when the update carries it, so the
server decodes no base64.

Work dispatch is per-client FIFO (a client's tasks execute in round
order), leases expire so a disconnected client's task is re-dispatched
(a lease that rode back on an upload included), and duplicate results
are acknowledged-but-ignored — the retry story for flaky clients.  A
session with queued work makes one HTTP round trip per task.
"""

from __future__ import annotations

import base64
from typing import Any, Dict, Mapping, Tuple

import numpy as np

from ..federated.compression import pack_payload, unpack_payload

#: Protocol version served by /v1 and checked by clients.
PROTOCOL_VERSION = 2

#: ``GET /v1/work`` response statuses.
STATUS_TASK = "task"
STATUS_WAIT = "wait"
STATUS_DONE = "done"

#: Content type of a result frame.
FRAME_TYPE = "application/octet-stream"


def b64_encode(blob: bytes) -> str:
    """Binary → JSON-safe ASCII (codec payloads, packed states)."""
    return base64.b64encode(blob).decode("ascii")


def b64_decode(text: str) -> bytes:
    """Inverse of :func:`b64_encode`."""
    return base64.b64decode(text.encode("ascii"))


def check_protocol(payload: Dict[str, Any], what: str) -> None:
    """Refuse payloads from a different protocol generation."""
    version = payload.get("protocol")
    if version != PROTOCOL_VERSION:
        raise ValueError(
            f"unsupported {what} protocol version {version!r} "
            f"(this build speaks {PROTOCOL_VERSION})"
        )


def pack_result(task_id: int, wire_update: Mapping[str, Any]) -> bytes:
    """Frame one ``ClientUpdate.to_wire()`` dict as a ``POST /v1/result`` body.

    The base64 blobs are decoded here, on the client, and travel raw.
    """
    update = dict(wire_update)
    blobs = {}
    if update["state"] is not None:
        state = dict(update["state"])
        blobs["state"] = b64_decode(state.pop("blob"))
        update["state"] = state
    mask = update.pop("mask")
    if mask is not None:
        blobs["mask"] = b64_decode(mask)
    meta = {"protocol": PROTOCOL_VERSION, "task_id": int(task_id), "update": update}
    return pack_payload(
        meta, {name: np.frombuffer(blob, np.uint8) for name, blob in blobs.items()}
    )


def unpack_result(body: bytes) -> Tuple[int, Dict[str, Any], Dict[str, bytes]]:
    """Inverse of :func:`pack_result`: ``(task_id, update fields, sections)``.

    ``sections`` maps ``state``/``mask`` to raw blobs, ready for
    ``ClientUpdate.from_wire(fields, **sections)``.  A body that is not one
    container, comes from another protocol version or lacks the state its
    fields declare raises ``ValueError`` naming the fault.
    """
    meta, arrays = unpack_payload(body)
    check_protocol(meta, "result")
    update = meta["update"]
    if (update.get("state") is not None) != ("state" in arrays):
        raise ValueError(
            "result frame's state section disagrees with its update fields"
        )
    sections = {name: array.tobytes() for name, array in arrays.items()}
    return int(meta["task_id"]), update, sections
