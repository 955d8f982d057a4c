"""FederationServer end to end: wire-served runs vs the in-process loop.

The central claim of the serving package: attaching real clients over
HTTP changes *where* client work executes and nothing else.  A
synchronous-policy run served over the wire is bit-identical to the same
config run in-process; an async-buffer run matches everywhere except
per-round ``train_loss`` membership (the in-process simulation trains
stragglers eagerly and counts their loss in the round that *started*
them; the wire collects it in the round that *delivers* them).
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.federated import (
    CompressionConfig,
    DataConfig,
    Federation,
    FederationConfig,
    LocalTrainConfig,
    ScenarioConfig,
    SystemsConfig,
)
from repro.federated.builder import make_clients
from repro.federated.compression import pack_payload, unpack_payload, unpack_state
from repro.federated.execution import ClientTask, run_client_task
from repro.federated.registry import TRAINERS
from repro.federated.trainers.subfedavg import SubFedAvgTrainer
from repro.serving import FederationServer, ServerClient, attach_runners
from repro.serving.client import WireClientRunner
from repro.serving.loadtest import (
    FakeWireClient,
    echo_state,
    echo_update,
    load_test_config,
    run_load_test,
)
from repro.serving.protocol import (
    FRAME_TYPE,
    PROTOCOL_VERSION,
    STATUS_DONE,
    STATUS_TASK,
    STATUS_WAIT,
    b64_decode,
    pack_result,
)
from repro.utils.serialization import history_to_dict

SCENARIO = ScenarioConfig(profiles=("edge-phone", "raspberry-pi"))
#: Every registered algorithm the server accepts, except plain FedAvg
#: (the first gate below runs that one).
SERVABLE = [
    name
    for name, spec in TRAINERS.items()
    if name != "fedavg" and not issubclass(spec.cls, SubFedAvgTrainer)
]
PRICING = dict(flops_per_example=1e6, examples_per_round=100.0)


def tiny_config(**overrides):
    base = dict(
        dataset="mnist",
        algorithm="fedavg",
        num_clients=4,
        rounds=2,
        sample_fraction=0.5,
        seed=0,
        eval_every=1,
        data=DataConfig(n_train=160, n_test=80),
        local=LocalTrainConfig(epochs=1, batch_size=10),
    )
    base.update(overrides)
    return FederationConfig(**base)


def serve_run(config, partitions, lease_seconds=30.0):
    """One wire-served run: a server plus one runner per index partition."""
    with FederationServer(config, lease_seconds=lease_seconds) as server:
        runners = attach_runners(server.url, partitions, poll_seconds=1.0)
        history = server.wait(timeout=120.0)
        for runner in runners:
            runner.stop()
        for runner in runners:
            runner.join(timeout=30.0)
    return history


class TestSynchronousEquivalence:
    def test_wire_run_bit_identical_to_in_process(self):
        config = tiny_config()
        local = history_to_dict(Federation.from_config(config).run())
        served = history_to_dict(serve_run(config, [(0, 1), (2, 3)]))
        assert served == local

    @pytest.mark.parametrize("algorithm", SERVABLE)
    def test_every_servable_algorithm_bit_identical(self, algorithm):
        config = tiny_config(algorithm=algorithm)
        local = history_to_dict(Federation.from_config(config).run())
        served = history_to_dict(serve_run(config, [(0, 1), (2, 3)]))
        assert served == local

    @pytest.mark.parametrize("codec", ("topk", "quantize"))
    def test_lossy_compression_config_bit_identical(self, codec):
        """A ``compression:`` section is modeled by the trainer (it
        round-trips each delta server-side), so the wire transport must
        stay lossless — a lossy codec config must not corrupt the served
        aggregation or double-apply the codec."""
        config = tiny_config(
            algorithm="fedavg-compressed",
            compression=CompressionConfig(codec=codec, fraction=0.5, bits=8),
        )
        local = history_to_dict(Federation.from_config(config).run())
        served = history_to_dict(serve_run(config, [(0, 1), (2, 3)]))
        assert served == local


class TestAsyncBufferEquivalence:
    def test_wire_run_matches_except_straggler_loss_membership(self):
        config = tiny_config(
            num_clients=6,
            rounds=4,
            data=DataConfig(n_train=240, n_test=120),
            scenario=SCENARIO,
            systems=SystemsConfig(
                round_policy="async-buffer", buffer_size=2, **PRICING
            ),
        )
        local = history_to_dict(Federation.from_config(config).run())
        served = history_to_dict(serve_run(config, [(0, 1, 2), (3, 4, 5)]))
        assert served["final_accuracy"] == local["final_accuracy"]
        assert (
            served["final_per_client_accuracy"]
            == local["final_per_client_accuracy"]
        )
        for wire_round, local_round in zip(served["rounds"], local["rounds"]):
            diffs = {
                key
                for key in local_round
                if wire_round.get(key) != local_round[key]
            }
            assert diffs <= {"train_loss"}


class TestDisconnectRecovery:
    def test_abandoned_lease_is_redispatched(self):
        config = tiny_config()
        local = history_to_dict(Federation.from_config(config).run())
        with FederationServer(config, lease_seconds=0.5) as server:
            # A flaky client leases round 1's first task and vanishes.
            flaky = ServerClient(server.url)
            flaky.register(None)
            leased = flaky.work(wait_seconds=10.0)
            assert leased["status"] == "task"
            # A steady fleet attaches; the expired lease must come back to
            # it, and the run must still finish bit-identical.
            runners = attach_runners(server.url, [(0, 1), (2, 3)],
                                     poll_seconds=0.5)
            history = server.wait(timeout=120.0)
            for runner in runners:
                runner.stop()
            for runner in runners:
                runner.join(timeout=30.0)
        assert history_to_dict(history) == local


    def test_abandoned_piggybacked_lease_is_redispatched(self):
        # One round: the flaky client trains its own copy of a client the
        # runners never see trained, so that client must not train again.
        config = tiny_config(rounds=1)
        local = history_to_dict(Federation.from_config(config).run())
        with FederationServer(config, lease_seconds=0.5) as server:
            # A flaky client trains round 1's first task; its upload brings
            # back the second task's lease, and then it vanishes.
            flaky = ServerClient(server.url)
            flaky.register(None)
            leased = flaky.work(wait_seconds=10.0)
            task = ClientTask.from_wire(leased["task"])
            update = run_client_task(
                make_clients(config)[task.client_index],
                task,
                unpack_state(b64_decode(leased["global"])),
            )
            assert flaky.post_result(leased["task_id"], update.to_wire())
            assert flaky.holds_lease
            runners = attach_runners(server.url, [(0, 1), (2, 3)],
                                     poll_seconds=0.5)
            history = server.wait(timeout=120.0)
            for runner in runners:
                runner.stop()
            for runner in runners:
                runner.join(timeout=30.0)
        assert history_to_dict(history) == local


class TestUploadLease:
    """``POST /v1/result`` doubles as the session's next poll."""

    @pytest.fixture()
    def server(self):
        # Every client trains in round 1: four tasks, one batch.
        with FederationServer(tiny_config(sample_fraction=1.0)) as server:
            yield server

    @staticmethod
    def lease(server):
        api = ServerClient(server.url)
        api.register(None)
        leased = api.work(wait_seconds=10.0)
        assert leased["status"] == STATUS_TASK
        return api, leased, echo_update(leased["task"], echo_state(leased["global"]))

    @staticmethod
    def raw_upload(api, leased, update, session):
        return api._request(
            f"/v1/result?session={session}&have_batch={leased['batch_id']}",
            pack_result(leased["task_id"], update),
        )

    def test_upload_brings_back_the_next_lease(self, server):
        api, leased, update = self.lease(server)
        assert api.post_result(leased["task_id"], update)
        assert api.holds_lease
        held = api.work(wait_seconds=0.0)
        assert not api.holds_lease
        assert held["status"] == STATUS_TASK
        assert held["task_id"] != leased["task_id"]
        # Same batch: the session already holds its weights.
        assert held["batch_id"] == leased["batch_id"] and "global" not in held

    def test_duplicate_upload_leases_nothing(self, server):
        api, leased, update = self.lease(server)
        first = self.raw_upload(api, leased, update, api.session)
        assert first["accepted"] is True and first["next"]["status"] == STATUS_TASK
        again = self.raw_upload(api, leased, update, api.session)
        assert again["accepted"] is False
        assert "next" not in again  # two tasks were still pending
        assert server.hub.outstanding() == 3

    def test_unknown_session_refused_before_recording(self, server):
        api, leased, update = self.lease(server)
        with pytest.raises(RuntimeError, match="400: 'unknown session 424242'"):
            self.raw_upload(api, leased, update, 424242)
        assert server.hub.tasks_completed == 0
        assert api.post_result(leased["task_id"], update)

    def test_upload_is_one_binary_frame(self, server, monkeypatch):
        api, leased, update = self.lease(server)
        sent = []
        urlopen = urllib.request.urlopen

        def counted(request, *args, **kwargs):
            sent.append(request)
            return urlopen(request, *args, **kwargs)

        monkeypatch.setattr(urllib.request, "urlopen", counted)
        assert api.post_result(leased["task_id"], update)
        assert len(sent) == 1
        (request,) = sent
        assert request.get_header("Content-type") == FRAME_TYPE
        blob = update["state"]["blob"]
        assert b64_decode(blob) in request.data
        assert blob[:64].encode("ascii") not in request.data

    def test_upload_without_lease_on_upload_asks_for_nothing(self, server):
        api, leased, update = self.lease(server)
        api.lease_on_upload = False
        assert api.post_result(leased["task_id"], update)
        assert not api.holds_lease

    def test_stopped_runner_asks_for_no_lease(self, server):
        runner = WireClientRunner(server.url)
        runner.stop()
        assert runner.api.lease_on_upload is False


def _edit_meta(frame, **changes):
    meta, arrays = unpack_payload(frame)
    meta.update(changes)
    return pack_payload(meta, arrays)


def _with_section(frame, name):
    meta, arrays = unpack_payload(frame)
    arrays[name] = arrays["state"]
    return pack_payload(meta, arrays)


#: name -> (good frame -> (body, Content-Type), what the 400 must name)
MALFORMED = {
    "json-body": (
        lambda frame: (json.dumps(unpack_payload(frame)[0]).encode(),
                       "application/json"),
        "frame (protocol 2); got Content-Type 'application/json'",
    ),
    "bad-magic": (lambda frame: (b"XXXX" + frame[4:], FRAME_TYPE), "magic"),
    "truncated-header": (lambda frame: (frame[:6], FRAME_TYPE), "truncated"),
    "truncated-section": (
        lambda frame: (frame[:-100], FRAME_TYPE), "truncated: array 'state'"
    ),
    "trailing-bytes": (
        lambda frame: (frame + bytes(8), FRAME_TYPE), "8 bytes after its last"
    ),
    "old-protocol": (
        lambda frame: (_edit_meta(frame, protocol=1), FRAME_TYPE),
        "protocol version 1",
    ),
    "bad-dtype": (
        lambda frame: (frame.replace(b'"uint8"', b'"bogus"', 1), FRAME_TYPE),
        "malformed result frame",
    ),
    "unknown-section": (
        lambda frame: (_with_section(frame, "extra"), FRAME_TYPE),
        "malformed result frame",
    ),
    "state-missing": (
        lambda frame: (pack_payload(unpack_payload(frame)[0], {}), FRAME_TYPE),
        "state section",
    ),
}


class TestMalformedUploads:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_refused_before_recording(self, case):
        """A result body that is not one protocol-2 frame gets a 400 naming
        its fault; nothing is recorded and the lease stays live."""
        make_body, cause = MALFORMED[case]
        with FederationServer(tiny_config(sample_fraction=1.0)) as server:
            api, leased, update = TestUploadLease.lease(server)
            body, content_type = make_body(pack_result(leased["task_id"], update))
            request = urllib.request.Request(
                f"{server.url}/v1/result?session={api.session}",
                data=body, headers={"Content-Type": content_type},
            )
            with pytest.raises(urllib.error.HTTPError) as refused:
                urllib.request.urlopen(request, timeout=10.0)
            assert refused.value.code == 400
            assert cause in json.loads(refused.value.read())["error"]
            assert server.hub.tasks_completed == 0
            assert server.hub.outstanding() == 4
            assert api.post_result(leased["task_id"], update)
            assert server.hub.tasks_completed == 1


class TestNegativeContentLength:
    @pytest.mark.parametrize(
        "path", ["/v1/register", "/v1/result", "/v1/shutdown", "/v1/nope"]
    )
    def test_refused_before_reading(self, path):
        with FederationServer(tiny_config()) as server:
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=3.0) as sock:
                sock.sendall(
                    f"POST {path} HTTP/1.1\r\nHost: x\r\n"
                    "Content-Type: application/json\r\n"
                    "Content-Length: -1\r\n\r\n".encode("ascii")
                )
                # The handler replies, then closes: read to EOF (a blocked
                # handler makes recv time out instead).
                reply = b""
                while chunk := sock.recv(4096):
                    reply += chunk
            assert reply.startswith(b"HTTP/1.1 400 ")
            assert b"negative Content-Length" in reply
            assert server.hub._sessions == {}
            assert server.phase == "serving"


class TestRoundTrips:
    def test_one_request_per_task_plus_round_boundary_polls(self, monkeypatch):
        """Two echo sessions over eight clients: each batch's first task
        per session comes from a long-poll, every other one rides back on
        the previous upload."""
        urls = []
        urlopen = urllib.request.urlopen

        def counted(request, *args, **kwargs):
            urls.append(request.full_url)
            return urlopen(request, *args, **kwargs)

        monkeypatch.setattr(urllib.request, "urlopen", counted)
        num_clients, rounds = 8, 2
        config = load_test_config(num_clients, rounds)
        with FederationServer(config) as server:
            fakes = [
                FakeWireClient(server.url, range(part, num_clients, 2),
                               poll_seconds=30.0)
                for part in range(2)
            ]
            held = []
            for fake in fakes:
                work = fake.api.work

                def watched(*args, _work=work, **kwargs):
                    before = len(urls)
                    payload = _work(*args, **kwargs)
                    if len(urls) == before:
                        held.append(payload["status"])
                    return payload

                fake.api.work = watched
            threads = [
                threading.Thread(target=fake.serve, daemon=True)
                for fake in fakes
            ]
            for thread in threads:
                thread.start()
            server.wait(timeout=60.0)
            for thread in threads:
                thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert all(fake.error is None for fake in fakes)
        tasks = num_clients * (rounds + 1)  # train rounds + final evaluation
        batches = rounds + 1
        assert sum(fake.tasks_completed for fake in fakes) == tasks
        uploads = [url for url in urls if "/v1/result" in url]
        polls = [url for url in urls if "/v1/work" in url]
        assert len(uploads) == tasks
        # Per session: one poll for each batch's first task, one that sees
        # the run done.  The two-requests-per-task protocol made 24 polls.
        assert len(polls) <= len(fakes) * (batches + 1)
        assert len(urls) <= tasks + len(fakes) * (batches + 2)
        # The rest of the leases came back on uploads, with no request.
        assert held.count(STATUS_TASK) >= tasks - len(fakes) * batches
        assert set(held) <= {STATUS_TASK, STATUS_DONE}


class TestCrashSurfacesFailure:
    def test_runner_raises_when_server_vanishes_midrun(self):
        """A server crash (HTTP gone, run unfinished) must surface through
        join(), not be mistaken for a clean end of service."""
        config = tiny_config(rounds=50, eval_every=0)
        server = FederationServer(config).start()
        try:
            runner = WireClientRunner(server.url, poll_seconds=0.2)
            runner.api.retries = 1
            runner.api.backoff_seconds = 0.05
            runner.start()
            deadline = time.monotonic() + 60.0
            while runner.tasks_completed == 0:
                assert time.monotonic() < deadline, "runner never got work"
                time.sleep(0.02)
            # The "crash": HTTP vanishes while the trainer still serves.
            server._httpd.shutdown()
            server._httpd.server_close()
            with pytest.raises(RuntimeError, match="wire client failed"):
                runner.join(timeout=60.0)
        finally:
            server.stop()


class TestServerHoldsNoPopulation:
    def test_served_run_never_synthesizes_data(self, monkeypatch):
        """The server builds no client data: echo clients (which build
        none either) drive a whole run with the data builders disabled."""
        import repro.federated.builder as builder

        def refuse(*args, **kwargs):
            raise AssertionError("the server built client data")

        monkeypatch.setattr(builder, "load_dataset", refuse)
        monkeypatch.setattr(builder, "build_client_data", refuse)
        report = run_load_test(num_clients=4, rounds=2, poll_seconds=1.0,
                               timeout=60.0)
        assert report.failed_clients == 0
        assert report.tasks_completed == 4 * 2 + 4  # train rounds + final eval
        assert report.final_accuracy == 0.5

    def test_indexing_the_population_names_the_client(self):
        class Probe:
            clients = None

            def on_run_start(self, trainer):
                self.clients = trainer.clients

        probe = Probe()
        with FederationServer(tiny_config(), callbacks=[probe]):
            deadline = time.monotonic() + 30.0
            while probe.clients is None:
                assert time.monotonic() < deadline, "run never started"
                time.sleep(0.01)
        assert len(probe.clients) == 4
        with pytest.raises(RuntimeError, match="client 2 has no server-side"):
            probe.clients[2]
        with pytest.raises(RuntimeError, match="client 0 has no server-side"):
            list(probe.clients)


class TestRefusesSubFedAvg:
    @pytest.mark.parametrize("algorithm", ["sub-fedavg-un", "sub-fedavg-hy"])
    def test_construction_names_the_cause(self, algorithm):
        """Wire clients carry no PruningController, so a served Sub-FedAvg
        round could only die mid-run; the server refuses it up front."""
        with pytest.raises(ValueError, match="PruningController"):
            FederationServer(tiny_config(algorithm=algorithm))


class TestEndpoints:
    @pytest.fixture()
    def server(self):
        with FederationServer(tiny_config()) as server:
            yield server

    def test_health_reports_serving_phase(self, server):
        payload = ServerClient(server.url).health()
        assert payload["protocol"] == PROTOCOL_VERSION
        assert payload["phase"] == "serving"

    def test_config_round_trips(self, server):
        payload = ServerClient(server.url).fetch_config()
        rebuilt = FederationConfig.from_dict(payload["config"])
        assert rebuilt.to_dict() == server.config.to_dict()

    def test_work_without_eligible_client_waits(self, server):
        api = ServerClient(server.url)
        api.register([999])  # an index the run never schedules
        assert api.work(wait_seconds=0.0)["status"] == STATUS_WAIT

    def test_history_conflicts_while_serving(self, server):
        with pytest.raises(RuntimeError, match="409"):
            ServerClient(server.url).fetch_history()

    def test_unknown_endpoint_is_404(self, server):
        with pytest.raises(RuntimeError, match="404"):
            ServerClient(server.url)._request("/v1/nope")

    def test_wrong_protocol_version_rejected(self, server):
        with pytest.raises(RuntimeError, match="400"):
            ServerClient(server.url)._request(
                "/v1/register", {"protocol": 999, "clients": None}
            )

    def test_unregistered_work_poll_rejected(self, server):
        with pytest.raises(RuntimeError, match="400"):
            ServerClient(server.url)._request("/v1/work?session=424242")
