"""The serving wire protocol: versioned JSON envelopes over HTTP.

Everything is stdlib: ``http.server`` on the server side, ``urllib`` on
the client side, JSON bodies with base64-wrapped binary blobs (codec
payloads from :mod:`repro.federated.compression`).  Endpoints (all under
``/v1``):

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
``POST /v1/result``       ``{"task_id", "update"}`` → ``{"accepted"}`` —
                          idempotent; late/stale results are acknowledged but
                          dropped.  With ``?session=&have_batch=`` an accepted
                          upload is also the session's next poll: ``next``
                          holds the ``/v1/work`` payload (no ``protocol``
                          key) of a task leased on the spot, or ``done``; it
                          is absent when nothing is ready (poll ``/v1/work``)
                          and after a duplicate or late upload.  An unknown
                          session is refused (400) before the result is kept
``GET  /v1/history``      the finished run's ``History`` (409 while running)
``POST /v1/shutdown``     stop the server loop
========================  =====================================================

Work dispatch is per-client FIFO (a client's tasks execute in round
order), leases expire so a disconnected client's task is re-dispatched
(a lease that rode back on an upload included), and duplicate results
are acknowledged-but-ignored — the retry story for flaky clients.  A
session with queued work makes one HTTP round trip per task.
"""

from __future__ import annotations

import base64
from typing import Any, Dict

#: Protocol version served by /v1 and checked by clients.
PROTOCOL_VERSION = 1

#: ``GET /v1/work`` response statuses.
STATUS_TASK = "task"
STATUS_WAIT = "wait"
STATUS_DONE = "done"


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
