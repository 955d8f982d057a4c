"""Wire-attached clients: the HTTP session and the local-training runner.

:class:`ServerClient` is a thin, retrying ``urllib`` wrapper over the
``/v1`` protocol — one instance per connection/session.  On top of it,
:class:`WireClientRunner` rebuilds the *local* side of the federation from
the server's published config (``make_clients`` — same seeds, same
partitions, so client ``i`` here is bit-identical to client ``i`` of an
in-process run), then leases tasks, executes them through the
one-and-only :func:`~repro.federated.execution.run_client_task` code
path, and streams codec-encoded updates back.  A served task costs one
HTTP round trip: each upload brings back the session's next lease, and
``GET /v1/work`` long-polls only when no task is ready.  Uploads are
binary result frames (:func:`~repro.serving.protocol.pack_result`): the
client unwraps the base64 of ``ClientUpdate.to_wire()``, so the server
reads the weight blobs raw.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Sequence, Union

from ..federated.builder import FederationConfig, make_clients
from ..federated.compression import build_compressor, unpack_state
from ..federated.execution import ClientTask, run_client_task
from .protocol import (
    FRAME_TYPE,
    PROTOCOL_VERSION,
    STATUS_DONE,
    STATUS_TASK,
    b64_decode,
    check_protocol,
    pack_result,
)


class ServerClient:
    """One HTTP session against a :class:`~repro.serving.server
    .FederationServer` (or anything speaking the same protocol).

    Transient transport errors (connection refused/reset mid-round, the
    server's accept backlog overflowing under a thundering herd) are
    retried with linear backoff; protocol errors raise immediately.

    One request per served task: :meth:`post_result` names the session
    and the batch whose weights :meth:`work` last handed out, the server
    answers with the session's next lease when one is ready, and the
    following :meth:`work` returns that lease without a request.  A held
    lease omits those weights, so a caller keeps the weights it was
    given (every runner here does).  ``lease_on_upload = False`` makes
    uploads ask for nothing.  Control messages are JSON; an upload is
    one ``application/octet-stream`` result frame.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 5,
        backoff_seconds: float = 0.2,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff_seconds = backoff_seconds
        self.session: Optional[int] = None
        self.lease_seconds: float = 30.0
        self.lease_on_upload = True
        self._have_batch = 0  # batch of the weights work() last handed out
        self._next: Optional[Dict[str, Any]] = None  # lease from an upload

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request(
        self, path: str, body: Union[Dict[str, Any], bytes, None] = None
    ) -> Dict[str, Any]:
        """One request with retries: a dict body goes as JSON, bytes as a
        result frame; the reply is always JSON."""
        data = None
        headers = {}
        if isinstance(body, bytes):
            data = body
            headers["Content-Type"] = FRAME_TYPE
        elif body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        last_error: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            request = urllib.request.Request(
                self.base_url + path, data=data, headers=headers
            )
            try:
                with urllib.request.urlopen(
                    request, timeout=self.timeout
                ) as response:
                    return json.loads(response.read().decode("utf-8"))
            except urllib.error.HTTPError as exc:
                # The server answered: decode its error payload and raise —
                # retrying a protocol error would just repeat it.
                detail = exc.read().decode("utf-8", "replace")
                try:
                    detail = json.loads(detail).get("error", detail)
                except (json.JSONDecodeError, AttributeError):
                    pass
                raise RuntimeError(
                    f"{path} failed with HTTP {exc.code}: {detail}"
                ) from exc
            except (urllib.error.URLError, ConnectionError, TimeoutError) as exc:
                last_error = exc
                if attempt < self.retries:
                    time.sleep(self.backoff_seconds * (attempt + 1))
        raise ConnectionError(
            f"{self.base_url}{path} unreachable after "
            f"{self.retries + 1} attempts: {last_error}"
        ) from last_error

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("/v1/health")

    def fetch_config(self) -> Dict[str, Any]:
        """The server's run description: ``{"config": ..., "codec": ...}``."""
        payload = self._request("/v1/config")
        check_protocol(payload, "config")
        return payload

    def register(self, clients: Optional[Sequence[int]] = None) -> int:
        payload = self._request(
            "/v1/register",
            {
                "protocol": PROTOCOL_VERSION,
                "clients": None if clients is None else list(clients),
            },
        )
        check_protocol(payload, "register")
        self.session = int(payload["session"])
        self.lease_seconds = float(payload["lease_seconds"])
        return self.session

    @property
    def holds_lease(self) -> bool:
        """The last upload brought back a lease :meth:`work` has not returned."""
        return self._next is not None

    def work(self, wait_seconds: float = 5.0, have_batch: int = 0) -> Dict[str, Any]:
        """The session's next lease: the one the last upload brought back
        (no request), else a ``GET /v1/work`` long-poll."""
        if self.session is None:
            raise RuntimeError("register() before polling for work")
        payload, self._next = self._next, None
        if payload is None:
            payload = self._request(
                f"/v1/work?session={self.session}&wait={wait_seconds}"
                f"&have_batch={have_batch}"
            )
        if "global" in payload:
            self._have_batch = int(payload["batch_id"])
        return payload

    def post_result(self, task_id: int, wire_update: Dict[str, Any]) -> bool:
        """Upload one ``ClientUpdate.to_wire()`` dict as a binary result
        frame (its base64 decoded here); True when the server recorded it."""
        path = "/v1/result"
        if self.lease_on_upload and self.session is not None:
            path += f"?session={self.session}&have_batch={self._have_batch}"
        payload = self._request(path, pack_result(task_id, wire_update))
        self._next = payload.get("next")
        return bool(payload["accepted"])

    def fetch_history(self) -> Dict[str, Any]:
        return self._request("/v1/history")["history"]

    def shutdown(self) -> None:
        self._request("/v1/shutdown", {"protocol": PROTOCOL_VERSION})


class WireClientRunner:
    """Drives real local training for a slice of the federation.

    The runner downloads the server's config, rebuilds the client
    population locally (lazy pool — only the served indices ever
    materialize), registers for ``client_indices`` (None = serve
    anything), and then loops: lease → decode weights → train/evaluate →
    encode → upload, until the server reports the run done.  Each upload
    brings back the next lease when one is ready, so the runner
    long-polls only when the board is empty.  After :meth:`stop` uploads
    ask for no further lease; a lease already on its way is still served.

    Client state lives here across rounds, exactly as it lives in the
    trainer's client list in-process — which is why served indices must
    not overlap between concurrently attached runners.
    """

    def __init__(
        self,
        base_url: str,
        client_indices: Optional[Sequence[int]] = None,
        poll_seconds: float = 5.0,
        timeout: float = 60.0,
    ) -> None:
        self.api = ServerClient(base_url, timeout=timeout)
        self.client_indices = (
            None if client_indices is None else list(client_indices)
        )
        self.poll_seconds = poll_seconds
        self.tasks_completed = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None

    def run(self) -> int:
        """Serve until the run completes; returns tasks completed."""
        published = self.api.fetch_config()
        config = FederationConfig.from_dict(published["config"])
        # Encode uploads with the server's *wire* codec (normally identity:
        # a ``compression:`` section is modeled trainer-side, not on the
        # transport), never with ``config.compression`` — lossy-encoding
        # full states here would corrupt aggregation server-side.
        codec = build_compressor(published.get("codec") or "identity")
        clients = make_clients(config)
        self.api.register(self.client_indices)
        have_batch = 0
        global_state = None
        while not self._stop.is_set() or self.api.holds_lease:
            try:
                response = self.api.work(
                    wait_seconds=self.poll_seconds, have_batch=have_batch
                )
            except ConnectionError:
                if self._confirm_run_over():
                    break
                raise
            status = response["status"]
            if status == STATUS_DONE:
                break
            if status != STATUS_TASK:
                continue  # wait: poll again
            if "global" in response:
                global_state = unpack_state(b64_decode(response["global"]))
                have_batch = int(response["batch_id"])
            task = ClientTask.from_wire(response["task"])
            update = run_client_task(
                clients[task.client_index], task, global_state
            )
            self.api.post_result(
                int(response["task_id"]), update.to_wire(codec=codec)
            )
            self.tasks_completed += 1
        return self.tasks_completed

    def _confirm_run_over(self) -> bool:
        """After losing the connection, verify the run actually ended.

        A server that finished serving may be torn down before this
        runner's next poll — that is a clean end of service, but only if
        the run is confirmed over.  A crash or a partition that outlasts
        the retry window must surface through :meth:`join`, not be
        swallowed as success.
        """
        try:
            return self.api.health().get("phase") in ("done", "stopped")
        except (ConnectionError, RuntimeError):
            return False

    # ------------------------------------------------------------------
    # Thread sugar (the CLI and tests run many runners side by side)
    # ------------------------------------------------------------------
    def start(self) -> "WireClientRunner":
        self._thread = threading.Thread(
            target=self._run_guarded, name="repro-wire-client", daemon=True
        )
        self._thread.start()
        return self

    def _run_guarded(self) -> None:
        try:
            self.run()
        except BaseException as exc:
            self._error = exc

    def join(self, timeout: Optional[float] = None) -> int:
        if self._thread is None:
            raise RuntimeError("runner was never started")
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError(f"runner still serving after {timeout}s")
        if self._error is not None:
            raise RuntimeError("wire client failed") from self._error
        return self.tasks_completed

    def stop(self) -> None:
        self.api.lease_on_upload = False
        self._stop.set()


def attach_runners(
    base_url: str,
    partitions: List[Sequence[int]],
    poll_seconds: float = 5.0,
) -> List[WireClientRunner]:
    """Start one runner per index partition (disjoint slices of clients)."""
    return [
        WireClientRunner(
            base_url, client_indices=list(part), poll_seconds=poll_seconds
        ).start()
        for part in partitions
    ]
