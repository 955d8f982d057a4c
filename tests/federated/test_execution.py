"""Execution-backend subsystem: tasks, backends and equivalence guarantees.

The core contract under test: serial, thread and process backends run the
same federation to the *bit-identical* History — losses, accuracies,
masks — and callbacks fire in deterministic round order regardless of how
client tasks are scheduled.
"""

import json

import numpy as np
import pytest

from repro.federated import (
    Callback,
    ClientTask,
    ClientUpdate,
    DataConfig,
    Federation,
    FederationConfig,
    LocalTrainConfig,
    ProcessBackend,
    QuantizationCompressor,
    SerialBackend,
    SpawnProcessBackend,
    ThreadBackend,
    WorkerPool,
    available_backends,
    resolve_backend,
)
from repro.federated.execution import (
    WIRE_VERSION,
    ClientSync,
    resolve_start_method,
)
from repro.pruning import MaskSet

BACKENDS = ("serial", "thread", "process")


def small_config(algorithm, backend, **overrides):
    defaults = dict(
        dataset="mnist",
        algorithm=algorithm,
        num_clients=6,
        rounds=2,
        sample_fraction=0.5,
        data=DataConfig(n_train=240, n_test=120),
        seed=0,
        eval_every=1,
        backend=backend,
        workers=2,
        local=LocalTrainConfig(epochs=1, batch_size=10),
    )
    defaults.update(overrides)
    return FederationConfig(**defaults)


def run_federation(algorithm, backend, **overrides):
    federation = Federation.from_config(small_config(algorithm, backend, **overrides))
    history = federation.run()
    return history, federation


def assert_histories_identical(reference, other, context=""):
    assert len(reference.rounds) == len(other.rounds), context
    for a, b in zip(reference.rounds, other.rounds):
        assert a.sampled_clients == b.sampled_clients, context
        assert a.train_loss == b.train_loss, (context, a.round_index)
        assert a.mean_accuracy == b.mean_accuracy, (context, a.round_index)
        assert a.sampled_accuracy == b.sampled_accuracy, (context, a.round_index)
        assert a.mean_sparsity == b.mean_sparsity, (context, a.round_index)
        assert a.mean_channel_sparsity == b.mean_channel_sparsity, context
        assert a.uploaded_bytes == b.uploaded_bytes, context
        assert a.downloaded_bytes == b.downloaded_bytes, context
    assert reference.final_accuracy == other.final_accuracy, context
    assert reference.final_per_client_accuracy == other.final_per_client_accuracy


class TestBackendResolution:
    def test_available_backends(self):
        assert set(available_backends()) == {
            "serial", "thread", "process", "process-spawn",
        }

    def test_resolve_by_name(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("thread", workers=3), ThreadBackend)
        assert isinstance(resolve_backend("process", workers=2), ProcessBackend)

    def test_resolve_passthrough_and_none(self):
        backend = ThreadBackend(workers=2)
        assert resolve_backend(backend) is backend
        assert isinstance(resolve_backend(None), SerialBackend)

    def test_resolve_unknown_raises(self):
        with pytest.raises(KeyError):
            resolve_backend("gpu-cluster")

    def test_worker_defaults(self):
        assert ThreadBackend(workers=0).workers >= 1
        assert ThreadBackend(workers=5).workers == 5


class TestClientTask:
    def test_validates_kind_and_load(self):
        with pytest.raises(ValueError):
            ClientTask(client_index=0, kind="dance")
        with pytest.raises(ValueError):
            ClientTask(client_index=0, load="everything")
        with pytest.raises(ValueError):
            ClientTask(client_index=0, load="partial")  # shared_names missing

    def test_tasks_are_picklable(self):
        import pickle

        task = ClientTask(
            client_index=3, kind="train", load="partial", shared_names=("fc3.weight",)
        )
        assert pickle.loads(pickle.dumps(task)) == task


class TestConfigPlumbing:
    def test_backend_round_trips_through_json(self):
        config = small_config("fedavg", "thread")
        restored = FederationConfig.from_json(config.to_json())
        assert restored == config
        assert restored.backend == "thread"
        assert restored.workers == 2

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError):
            small_config("fedavg", "quantum")

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            small_config("fedavg", "thread", workers=-1)

    def test_trainer_carries_backend(self):
        _, federation = run_federation("standalone", "thread", rounds=1, eval_every=0)
        assert isinstance(federation.trainer.backend, ThreadBackend)
        assert federation.trainer.backend.workers == 2


class TestBackendEquivalence:
    """Serial vs thread vs process runs produce identical histories."""

    @pytest.mark.parametrize("backend", ("thread", "process"))
    def test_fedavg_history_identical(self, backend):
        reference, ref_fed = run_federation("fedavg", "serial")
        candidate, cand_fed = run_federation("fedavg", backend)
        assert_histories_identical(reference, candidate, f"fedavg/{backend}")
        for name in ref_fed.trainer.global_state:
            assert np.array_equal(
                ref_fed.trainer.global_state[name],
                cand_fed.trainer.global_state[name],
            ), name

    @pytest.mark.parametrize("backend", ("thread", "process"))
    def test_subfedavg_history_and_masks_identical(self, backend):
        reference, ref_fed = run_federation("sub-fedavg-un", "serial")
        candidate, cand_fed = run_federation("sub-fedavg-un", backend)
        assert_histories_identical(reference, candidate, f"sub-fedavg/{backend}")
        for ref_client, cand_client in zip(ref_fed.clients, cand_fed.clients):
            assert ref_client.mask == cand_client.mask
            assert (
                ref_client.controller.un_rate == cand_client.controller.un_rate
            )

    @pytest.mark.parametrize(
        "algorithm", ("lg-fedavg", "mtl", "standalone", "fedavg-ft")
    )
    def test_remaining_trainers_thread_identical(self, algorithm):
        reference, _ = run_federation(algorithm, "serial")
        candidate, _ = run_federation(algorithm, "thread")
        assert_histories_identical(reference, candidate, f"{algorithm}/thread")


class RecordingCallback(Callback):
    def __init__(self):
        self.events = []

    def on_run_start(self, trainer):
        self.events.append(("run_start", None))

    def on_round_start(self, trainer, round_index, sampled):
        self.events.append(("round_start", round_index))

    def on_evaluate(self, trainer, round_index, accuracy):
        self.events.append(("evaluate", round_index))

    def on_round_end(self, trainer, round_index, record):
        self.events.append(("round_end", round_index))

    def on_run_end(self, trainer, history):
        self.events.append(("run_end", None))


class TestCallbackOrdering:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_callbacks_fire_in_round_order(self, backend):
        callback = RecordingCallback()
        federation = Federation.from_config(small_config("fedavg", backend))
        federation.run(callbacks=[callback])
        assert callback.events == [
            ("run_start", None),
            ("round_start", 1),
            ("evaluate", 1),
            ("round_end", 1),
            ("round_start", 2),
            ("evaluate", 2),
            ("round_end", 2),
            ("run_end", None),
        ]


class TestSideEffectFreeEvaluation:
    """Mid-run evaluate_all must not clobber client-local models."""

    @pytest.mark.parametrize("algorithm", ("fedavg", "fedavg-ft", "sub-fedavg-un"))
    def test_evaluate_all_preserves_client_state(self, algorithm):
        federation = Federation.from_config(
            small_config(algorithm, "serial", rounds=1, eval_every=0)
        )
        trainer = federation.trainer
        trainer._round(1, trainer.sampler.sample())
        before = [client.state_dict() for client in federation.clients]
        rng_before = [client.rng_state() for client in federation.clients]
        trainer.evaluate_all()
        for client, state, rng in zip(federation.clients, before, rng_before):
            after = client.state_dict()
            for name in state:
                assert np.array_equal(state[name], after[name]), (
                    algorithm,
                    client.client_id,
                    name,
                )
            assert client.rng_state() == rng

    def test_evaluate_all_deterministic_repeat(self):
        federation = Federation.from_config(
            small_config("fedavg-ft", "serial", rounds=1, eval_every=0)
        )
        trainer = federation.trainer
        trainer._round(1, trainer.sampler.sample())
        assert trainer.evaluate_all() == trainer.evaluate_all()


class TestStragglerWeighting:
    """A client that did no local work must not drag the average."""

    def test_zero_epoch_client_reports_zero_examples(self):
        federation = Federation.from_config(
            small_config("fedavg", "serial", rounds=1, eval_every=0)
        )
        client = federation.clients[0]
        result = client.train_local(epochs=0)
        assert result.num_examples == 0

    def test_num_examples_counts_work_done(self):
        federation = Federation.from_config(
            small_config("fedavg", "serial", rounds=1, eval_every=0)
        )
        client = federation.clients[0]
        result = client.train_local(epochs=3)
        assert result.num_examples == 3 * len(client.data.train)

    def test_zero_epoch_straggler_excluded_from_average(self):
        class ZeroFirst:
            """Straggler model granting client 0 no epochs at all."""

            def epochs_for(self, client_index):
                return 0 if client_index == 0 else 2

        from repro.federated.builder import make_clients, model_factory
        from repro.federated.trainers.fedavg import FedAvg

        config = small_config("fedavg", "serial", rounds=1, eval_every=0)
        clients = make_clients(config)
        trainer = FedAvg(
            clients,
            model_factory(config),
            rounds=1,
            sample_fraction=1.0,
            seed=0,
            stragglers=ZeroFirst(),
        )
        stale = clients[0].state_dict()
        trainer._round(1, list(range(len(clients))))

        # Recompute the expected average from the workers only.
        worked = [clients[i] for i in range(1, len(clients))]
        expected = np.mean(
            [c.state_dict()["conv1.weight"] for c in worked], axis=0
        )
        # Uniform data sizes and epochs: average of the workers' states.
        assert np.allclose(trainer.global_state["conv1.weight"], expected)
        assert not np.allclose(trainer.global_state["conv1.weight"], stale["conv1.weight"])


class TestWireSchema:
    """ClientTask/ClientUpdate versioned wire serialization."""

    def test_task_roundtrip(self):
        task = ClientTask(
            client_index=3, kind="evaluate", load="partial",
            shared_names=("fc3.weight", "fc3.bias"),
            anchor_global=True, epochs=2, restore=True, want_trajectory=True,
        )
        wire = task.to_wire()
        assert wire["schema"] == WIRE_VERSION
        assert ClientTask.from_wire(wire) == task
        # JSON round-trip (what the HTTP protocol actually does).
        assert ClientTask.from_wire(json.loads(json.dumps(wire))) == task

    def test_task_rejects_unknown_schema(self):
        wire = ClientTask(client_index=0).to_wire()
        wire["schema"] = 99
        with pytest.raises(ValueError):
            ClientTask.from_wire(wire)

    def test_update_roundtrip_bitwise(self):
        rng = np.random.default_rng(0)
        update = ClientUpdate(
            client_index=1, client_id=1,
            state={"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)},
            mask=MaskSet({"w": (rng.random((4, 3)) < 0.5).astype(float)}),
            num_examples=40, mean_loss=1.25, val_accuracy=0.5,
            pruned_unstructured=True, accuracy=0.75, sparsity=0.3,
        )
        wire = json.loads(json.dumps(update.to_wire()))
        again = ClientUpdate.from_wire(wire)
        assert again.client_id == 1 and again.num_examples == 40
        assert again.mean_loss == 1.25 and again.accuracy == 0.75
        assert again.pruned_unstructured and not again.pruned_structured
        for name in update.state:
            np.testing.assert_array_equal(again.state[name], update.state[name])
        np.testing.assert_array_equal(again.mask["w"], update.mask["w"])

    def test_update_eval_only_payload(self):
        update = ClientUpdate(client_index=2, client_id=2, accuracy=0.5)
        again = ClientUpdate.from_wire(update.to_wire())
        assert again.state is None and again.mask is None
        assert again.accuracy == 0.5

    def test_update_sync_stays_off_the_wire(self):
        update = ClientUpdate(
            client_index=0, client_id=0, state={"w": np.zeros(2)},
            sync=ClientSync(model_state={}, rng_state={}),
        )
        wire = update.to_wire()
        assert "sync" not in wire
        assert ClientUpdate.from_wire(wire).sync is None

    def test_update_codec_parameter(self):
        rng = np.random.default_rng(1)
        state = {"w": rng.normal(size=(8, 8))}
        update = ClientUpdate(client_index=0, client_id=0, state=state)
        wire = update.to_wire(codec=QuantizationCompressor(bits=8))
        assert wire["state"]["codec"] == "quantize"
        decoded = ClientUpdate.from_wire(wire)  # header-dispatched decode
        expected, _ = QuantizationCompressor(bits=8).roundtrip(state)
        np.testing.assert_array_equal(decoded.state["w"], expected["w"])


class TestWorkerPool:
    def test_persists_across_maps(self):
        pool = WorkerPool(workers=2)
        try:
            first = pool.map(_square, [1, 2, 3])
            inner = pool._pool
            second = pool.map(_square, [4, 5])
            assert first == [1, 4, 9] and second == [16, 25]
            assert pool._pool is inner  # same pool object: workers reused
        finally:
            pool.close()
        assert pool._pool is None

    def test_empty_map_never_spawns(self):
        pool = WorkerPool(workers=2)
        assert pool.map(_square, []) == []
        assert pool._pool is None

    def test_context_manager_closes(self):
        with WorkerPool(workers=1) as pool:
            assert pool.map(_square, [3]) == [9]
        assert pool._pool is None

    def test_unpicklable_payload_clear_error(self):
        with WorkerPool(workers=1) as pool:
            with pytest.raises(RuntimeError, match="pickle"):
                pool.map(_square, [lambda: None])

    def test_resolve_start_method(self):
        assert resolve_start_method(None) in ("fork", "spawn")
        assert resolve_start_method("spawn") == "spawn"
        with pytest.raises(RuntimeError, match="unavailable"):
            resolve_start_method("not-a-method")


def _square(value):
    return value * value


class TestSpawnBackend:
    """The spawn-safe process path: same histories, no fork dependency."""

    def test_registered_and_resolvable(self):
        backend = resolve_backend("process-spawn", workers=2)
        assert isinstance(backend, SpawnProcessBackend)
        assert backend.start_method == "spawn"

    def test_explicit_start_method_plumbs_through(self):
        assert ProcessBackend(workers=1, start_method="spawn").start_method == "spawn"

    def test_spawn_history_identical_to_serial(self):
        reference, _ = run_federation("fedavg", "serial", rounds=1)
        candidate, cand_fed = run_federation("fedavg", "process-spawn", rounds=1)
        assert_histories_identical(reference, candidate, "fedavg/process-spawn")
        backend = cand_fed.trainer.backend
        assert backend.start_method == "spawn"
        assert backend.pool._pool is not None  # persistent: still warm
        backend.close()

    def test_fork_backend_skips_the_persistent_pool(self):
        """Fork batches inherit state in ephemeral pools: no payload
        shipping, and the persistent (spawn-path) pool never starts."""
        if resolve_start_method(None) != "fork":
            pytest.skip("platform has no fork")
        _, federation = run_federation("fedavg", "process")
        backend = federation.trainer.backend
        assert backend.pool._pool is None
        backend.close()
