""":class:`FederationServer`: the round loop behind an HTTP endpoint.

The server owns three things: a :class:`~repro.serving.hub.WireHub` task
board, a trainer thread running the stock round loop
``Federation.from_config(config, RemoteClients(n), backend=WireBackend(hub))
.run()``, and a ``ThreadingHTTPServer`` exposing the hub to wire clients
(see :mod:`~repro.serving.protocol` for the endpoint table).  The
handler answers in JSON and reads each result upload as one binary frame,
passing its raw state and mask blobs to ``ClientUpdate.from_wire``, so no
base64 is decoded server-side.  Because the trainer loop is the stock
one, everything config-driven — samplers, fleet simulation, round
policies, callbacks — works unchanged over the wire.

The server holds no client population: :class:`RemoteClients` has only a
length, so the server never synthesizes the dataset or builds a replica.
Client data and models live on the wire clients, and a server-side read
of a client (a checkpoint, a post-hoc state fallback) raises instead of
reading a model that never trained.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Iterable, Optional
from urllib.parse import parse_qs, urlparse

from ..federated.builder import FederationConfig
from ..federated.federation import Federation
from ..federated.metrics import History
from ..federated.registry import TRAINERS
from ..federated.trainers.subfedavg import SubFedAvgTrainer
from ..utils.serialization import history_to_dict
from .hub import HubClosed, WireBackend, WireHub
from .protocol import (
    FRAME_TYPE,
    PROTOCOL_VERSION,
    STATUS_WAIT,
    check_protocol,
    unpack_result,
)


class _QuietThreadingHTTPServer(ThreadingHTTPServer):
    """Threading server that tolerates clients abandoning their sockets.

    A long-polling client whose socket times out (or that is killed
    mid-round) leaves the handler writing into a dead pipe; that is a
    normal serving event — the lease-expiry requeue recovers the task —
    not something worth a traceback per occurrence.
    """

    daemon_threads = True
    # A thousand clients long-polling means a thousand concurrent
    # connects at round boundaries; the default backlog of 5 drops them.
    request_queue_size = 256

    def handle_error(self, request, client_address) -> None:
        import sys

        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError)):
            return
        super().handle_error(request, client_address)


class RemoteClients:
    """The server's view of a wire-served population: its size, nothing else.

    Indexing (and so iterating) raises ``RuntimeError``: each client's
    data and model live on the wire client that serves its index.
    """

    def __init__(self, num_clients: int) -> None:
        self.num_clients = num_clients

    def __len__(self) -> int:
        return self.num_clients

    def __getitem__(self, index):
        raise RuntimeError(
            f"client {index} has no server-side replica: its state lives on "
            "the wire clients"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RemoteClients({self.num_clients})"


class FederationServer:
    """A long-lived federation endpoint for one configured run.

    >>> server = FederationServer(config)           # doctest: +SKIP
    >>> server.start()                              # doctest: +SKIP
    >>> print(server.url)  # clients attach here    # doctest: +SKIP
    >>> history = server.wait()                     # doctest: +SKIP

    ``port=0`` binds an ephemeral port (read it back from ``.port``).
    ``time_scale`` > 0 paces task dispatch by the fleet-simulated
    download-done offsets (seconds of simulated time per real second);
    0 dispatches immediately.  The run starts on :meth:`start` and the
    trainer thread blocks on the hub until enough wire clients attach to
    execute each round's tasks.
    """

    def __init__(
        self,
        config: FederationConfig,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_seconds: float = 30.0,
        time_scale: float = 0.0,
        callbacks: Optional[Iterable] = None,
    ) -> None:
        if issubclass(TRAINERS[config.algorithm].cls, SubFedAvgTrainer):
            raise ValueError(
                f"cannot serve {config.algorithm!r}: wire clients build their "
                "clients without a PruningController, so Sub-FedAvg rounds "
                "cannot run over the wire; run it in-process instead"
            )
        self.config = config
        self.host = host
        self._requested_port = port
        self._callbacks = callbacks
        self.hub = WireHub(lease_seconds=lease_seconds)
        # Wire transport is always lossless.  A ``compression:`` section is
        # *modeled* by the trainer itself (FedAvgCompressed round-trips each
        # delta through the codec server-side), so encoding full client
        # states with a lossy codec here would zero most coordinates on
        # decode and double-apply the codec — corrupting aggregation.
        self.backend = WireBackend(self.hub, codec="identity", time_scale=time_scale)
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._trainer_thread: Optional[threading.Thread] = None
        self._history: Optional[History] = None
        self._error: Optional[BaseException] = None
        self._phase = "idle"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FederationServer":
        """Bind the port, start the HTTP loop and the trainer thread."""
        if self._httpd is not None:
            raise RuntimeError("server already started")
        federation = Federation.from_config(
            self.config, RemoteClients(self.config.num_clients), backend=self.backend
        )
        handler = _make_handler(self)
        self._httpd = _QuietThreadingHTTPServer(
            (self.host, self._requested_port), handler
        )
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.2},
            name="repro-serve-http",
            daemon=True,
        )
        self._http_thread.start()
        self._phase = "serving"
        self._trainer_thread = threading.Thread(
            target=self._run_trainer,
            args=(federation,),
            name="repro-serve-trainer",
            daemon=True,
        )
        self._trainer_thread.start()
        return self

    def _run_trainer(self, federation: Federation) -> None:
        try:
            self._history = federation.run(callbacks=self._callbacks)
            self._phase = "done"
        except HubClosed:
            self._phase = "stopped"
        except BaseException as exc:  # surfaced through .history / /v1/health
            self._error = exc
            self._phase = "failed"
        finally:
            self.hub.mark_done()

    def wait(self, timeout: Optional[float] = None) -> History:
        """Block until the run finishes; returns (or raises) its outcome."""
        if self._trainer_thread is None:
            raise RuntimeError("server was never started")
        self._trainer_thread.join(timeout)
        if self._trainer_thread.is_alive():
            raise TimeoutError(f"run still in progress after {timeout}s")
        return self.history

    @property
    def history(self) -> History:
        if self._error is not None:
            raise RuntimeError("the served run failed") from self._error
        if self._history is None:
            raise RuntimeError("the run has not finished")
        return self._history

    @property
    def phase(self) -> str:
        return self._phase

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("server was never started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        """Tear everything down (idempotent); an unfinished run is aborted."""
        self.hub.close()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._http_thread is not None:
            self._http_thread.join(timeout=5.0)
            self._http_thread = None
        if self._trainer_thread is not None:
            self._trainer_thread.join(timeout=5.0)
            self._trainer_thread = None

    def __enter__(self) -> "FederationServer":
        return self.start() if self._httpd is None else self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FederationServer(phase={self._phase!r})"


def _make_handler(server: FederationServer):
    """A request-handler class closed over one :class:`FederationServer`."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        # ------------------------------------------------------------------
        def log_message(self, *args) -> None:  # quiet by default
            pass

        def _reply(self, payload: Dict[str, Any], status: int = 200) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _error(self, status: int, message: str) -> None:
            self._reply(
                {"protocol": PROTOCOL_VERSION, "error": message}, status=status
            )

        def _read_body(self) -> bytes:
            length = int(self.headers.get("Content-Length", 0))
            if length < 0:
                # rfile.read(-1) would block until the client hangs up.
                self.close_connection = True
                raise ValueError(f"negative Content-Length {length}")
            return self.rfile.read(length)

        # ------------------------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 - http.server API
            url = urlparse(self.path)
            try:
                if url.path == "/v1/health":
                    self._reply(
                        {
                            "protocol": PROTOCOL_VERSION,
                            "phase": server.phase,
                            "tasks_completed": server.hub.tasks_completed,
                        }
                    )
                elif url.path == "/v1/config":
                    self._reply(
                        {
                            "protocol": PROTOCOL_VERSION,
                            "config": server.config.to_dict(),
                            "codec": server.backend.codec,
                        }
                    )
                elif url.path == "/v1/work":
                    query = parse_qs(url.query)
                    payload = server.hub.take(
                        int(query["session"][0]),
                        wait_seconds=float(query.get("wait", ["0"])[0]),
                        have_batch=int(query.get("have_batch", ["0"])[0]),
                    )
                    payload["protocol"] = PROTOCOL_VERSION
                    self._reply(payload)
                elif url.path == "/v1/history":
                    if server.phase == "serving":
                        self._error(409, "run still in progress")
                    elif server.phase == "failed":
                        self._error(500, "the served run failed")
                    else:
                        self._reply(
                            {
                                "protocol": PROTOCOL_VERSION,
                                "history": history_to_dict(server.history),
                            }
                        )
                else:
                    self._error(404, f"unknown endpoint {url.path}")
            except (KeyError, ValueError) as exc:
                self._error(400, str(exc))
            except HubClosed:
                self._reply({"protocol": PROTOCOL_VERSION, "status": "done"})

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            url = urlparse(self.path)
            try:
                body = self._read_body()
                if url.path == "/v1/register":
                    request = json.loads(body.decode("utf-8")) if body else {}
                    check_protocol(request, "register")
                    session = server.hub.register(request.get("clients"))
                    self._reply(
                        {
                            "protocol": PROTOCOL_VERSION,
                            "session": session,
                            "lease_seconds": server.hub.lease_seconds,
                        }
                    )
                elif url.path == "/v1/result":
                    from ..federated.execution import ClientUpdate

                    query = parse_qs(url.query)
                    session = (
                        int(query["session"][0]) if "session" in query else None
                    )
                    kind = self.headers.get("Content-Type", "")
                    if kind != FRAME_TYPE:
                        raise ValueError(
                            f"/v1/result takes one {FRAME_TYPE} result frame "
                            f"(protocol {PROTOCOL_VERSION}); got Content-Type "
                            f"{kind!r}"
                        )
                    try:
                        task_id, fields, sections = unpack_result(body)
                        update = ClientUpdate.from_wire(fields, **sections)
                    except (TypeError, AttributeError) as exc:
                        # Fields of the wrong type, or an unknown section.
                        raise ValueError(f"malformed result frame: {exc}") from exc
                    accepted = server.hub.complete(
                        task_id, update, session_id=session
                    )
                    payload = {"protocol": PROTOCOL_VERSION, "accepted": accepted}
                    if accepted and session is not None:
                        # The upload doubles as the session's next poll: a
                        # ready task (or ``done``) rides back on this reply.
                        lease = server.hub.take(
                            session,
                            have_batch=int(query.get("have_batch", ["0"])[0]),
                        )
                        if lease["status"] != STATUS_WAIT:
                            payload["next"] = lease
                    self._reply(payload)
                elif url.path == "/v1/shutdown":
                    self._reply({"protocol": PROTOCOL_VERSION, "stopping": True})
                    # Shut down from a helper thread: shutdown() blocks until
                    # serve_forever() exits, which cannot happen from inside
                    # a handler of that very server.
                    threading.Thread(target=server.stop, daemon=True).start()
                else:
                    self._error(404, f"unknown endpoint {url.path}")
            except (KeyError, ValueError) as exc:
                self._error(400, str(exc))
            except HubClosed:
                self._reply({"protocol": PROTOCOL_VERSION, "status": "done"})

    return Handler
