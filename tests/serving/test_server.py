"""FederationServer end to end: wire-served runs vs the in-process loop.

The central claim of the serving package: attaching real clients over
HTTP changes *where* client work executes and nothing else.  A
synchronous-policy run served over the wire is bit-identical to the same
config run in-process; an async-buffer run matches everywhere except
per-round ``train_loss`` membership (the in-process simulation trains
stragglers eagerly and counts their loss in the round that *started*
them; the wire collects it in the round that *delivers* them).
"""

import time

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
from repro.serving import FederationServer, ServerClient, attach_runners
from repro.serving.client import WireClientRunner
from repro.serving.protocol import PROTOCOL_VERSION, STATUS_WAIT
from repro.utils.serialization import history_to_dict

SCENARIO = ScenarioConfig(profiles=("edge-phone", "raspberry-pi"))
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
