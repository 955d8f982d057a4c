"""Federation-as-a-service: the round loop as a long-lived wire protocol.

The simulator prices million-client rounds; this package *serves* them.
:class:`FederationServer` runs the unchanged trainer loop in a background
thread, but on a :class:`WireBackend` that publishes every
:class:`~repro.federated.execution.ClientTask` to a :class:`WireHub` task
board instead of executing it in-process.  Wire-attached clients
(:class:`WireClientRunner`, or anything speaking the HTTP protocol in
:mod:`~repro.serving.protocol`) register, long-poll for work, train
locally and upload codec-encoded updates as binary result frames.

Because the trainer loop itself is untouched — same sampler draws, same
fleet-simulator plans, same aggregation order — a synchronous-policy run
served over the wire produces a **bit-identical**
:class:`~repro.federated.metrics.History` to the same config run
in-process.  Under the async-buffer policy the server becomes genuinely
asynchronous: it closes rounds without waiting for stragglers, and their
uploads land in later rounds with the policy's staleness discount.
:func:`run_load_test` drives thousands of fake clients against a real
localhost server and reports round latency / aggregate throughput
(the ``BENCH_serving`` artifact).
"""

from .protocol import PROTOCOL_VERSION, b64_decode, b64_encode
from .hub import HubClosed, TaskEntry, WireBackend, WireHub
from .server import FederationServer
from .client import ServerClient, WireClientRunner, attach_runners
from .loadtest import LoadTestReport, run_load_test

__all__ = [
    "PROTOCOL_VERSION",
    "b64_encode",
    "b64_decode",
    "HubClosed",
    "TaskEntry",
    "WireHub",
    "WireBackend",
    "FederationServer",
    "ServerClient",
    "WireClientRunner",
    "attach_runners",
    "LoadTestReport",
    "run_load_test",
]
