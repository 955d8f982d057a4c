"""Virtual clients: the ClientPool must be invisible to training results.

Two families of guarantees:

* mechanics — lazy materialization, LRU eviction, dirty-only spills to
  memory, pinning during concurrent execution;
* equivalence — a federation trained through a pool (any capacity, any
  backend) produces *bit-identical* histories to one trained
  on eagerly constructed clients, including stateful algorithms whose
  masks and data order must survive eviction.
"""

import numpy as np
import pytest

from repro.federated import (
    ClientPool,
    DataConfig,
    Federation,
    FederationConfig,
    LocalTrainConfig,
    make_clients,
)
from repro.pruning import StructuredConfig, UnstructuredConfig
from repro.utils.serialization import history_to_dict


def tiny_config(**overrides):
    base = dict(
        dataset="mnist",
        algorithm="fedavg",
        num_clients=6,
        rounds=2,
        sample_fraction=0.5,
        seed=0,
        eval_every=1,
        data=DataConfig(n_train=240, n_test=120),
        local=LocalTrainConfig(epochs=1, batch_size=10),
    )
    base.update(overrides)
    return FederationConfig(**base)


def pool_for(config):
    clients = make_clients(config)
    assert isinstance(clients, ClientPool)
    return clients


def history_fingerprint(history):
    return (
        history.final_accuracy,
        tuple(sorted(history.final_per_client_accuracy.items())),
        tuple(r.train_loss for r in history.rounds),
        tuple(r.mean_accuracy for r in history.rounds),
    )


class TestPoolMechanics:
    def test_lazy_materialization_and_lru_eviction(self):
        pool = pool_for(tiny_config(client_cache=2))
        assert pool.live_count == 0 and pool.materializations == 0
        first = pool[0]
        assert first.client_id == 0
        pool[1]
        assert pool.live_count == 2 and pool.evictions == 0
        pool[2]  # capacity 2: client 0 (least recently used) is evicted
        assert pool.live_count == 2 and pool.evictions == 1
        # An untrained client spills nothing — rebuilding is free.
        assert pool.spills == 0
        rebuilt = pool[0]
        assert rebuilt is not first
        assert rebuilt.client_id == 0

    def test_zero_capacity_never_evicts(self):
        pool = pool_for(tiny_config(client_cache=0))
        for index in range(len(pool)):
            pool[index]
        assert pool.live_count == len(pool)
        assert pool.evictions == 0

    def test_trained_client_state_survives_eviction(self):
        pool = pool_for(tiny_config(client_cache=1))
        client = pool[3]
        client.train_local(epochs=1)
        trained = {k: v.copy() for k, v in client.model.state_dict().items()}
        rng_after = client.rng_state()
        pool[4]  # evicts (and spills) client 3
        assert pool.spills == 1
        restored = pool[3]
        assert restored is not client
        for name, value in restored.model.state_dict().items():
            assert np.array_equal(value, trained[name])
        # The data-order stream resumes exactly where training left it.
        assert restored.rng_state() == rng_after

    def test_restored_client_stays_dirty_on_reeviction(self):
        """A restored client must keep its spilled state alive even if it
        does no further work — forgetting it would resurrect the fresh
        initial state on the next materialization."""
        pool = pool_for(tiny_config(client_cache=1))
        pool[0].train_local(epochs=1)
        pool[1]  # spill 0
        pool[0]  # restore 0 (no new training)
        pool[1]  # evict 0 again: re-spilled although it did no new work
        assert pool.spills == 2
        trained = pool[0].model.state_dict()
        fresh = pool.build(0).model.state_dict()
        assert any(
            not np.array_equal(trained[name], fresh[name]) for name in trained
        )

    def test_pinned_clients_survive_capacity_pressure(self):
        pool = pool_for(tiny_config(client_cache=1))
        with pool.pinned([0, 1, 2]):
            kept = [pool[0], pool[1], pool[2]]
            assert pool.live_count == 3  # grown past capacity, nothing evicted
            assert all(pool[i] is client for i, client in enumerate(kept))
        assert pool.live_count == 1  # back under the cap on exit

    def test_index_resolves_even_after_eviction(self):
        pool = pool_for(tiny_config(client_cache=1))
        client = pool[2]
        pool[3]  # evict 2
        assert pool.index(client) == 2
        with pytest.raises(ValueError):
            pool_for(tiny_config(client_cache=1)).index(client)

    def test_setup_hooks_apply_to_live_and_future_clients(self):
        pool = pool_for(tiny_config(client_cache=0))
        live = pool[0]
        seen = []
        pool.add_setup_hook(lambda client: seen.append(int(client.client_id)))
        assert seen == [0]  # applied to already-live clients immediately
        pool[1]
        assert seen == [0, 1]
        assert live is pool[0]

    def test_negative_and_out_of_range_indexing(self):
        pool = pool_for(tiny_config())
        assert pool[-1].client_id == len(pool) - 1
        with pytest.raises(IndexError):
            pool[len(pool)]
        assert [c.client_id for c in pool[1:3]] == [1, 2]


class TestStateStores:
    def test_config_validates_pool_fields(self):
        with pytest.raises(ValueError, match="client_cache"):
            tiny_config(client_cache=-1)


class TestPoolEquivalence:
    """Capacity and backend must never change training results."""

    def run(self, **overrides):
        return Federation.from_config(tiny_config(**overrides)).run()

    @pytest.mark.parametrize("algorithm", ["fedavg", "sub-fedavg-un"])
    def test_tight_cache_matches_unbounded(self, algorithm):
        unbounded = self.run(algorithm=algorithm, client_cache=0)
        thrashing = self.run(algorithm=algorithm, client_cache=2)
        assert history_fingerprint(thrashing) == history_fingerprint(unbounded)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_backends_match_serial_under_eviction(self, backend):
        serial = self.run(client_cache=2, backend="serial")
        parallel = self.run(client_cache=2, backend=backend, workers=2)
        assert history_fingerprint(parallel) == history_fingerprint(serial)


class TestLazySubFedAvgRounds:
    """A Sub-FedAvg round touches only the clients it started.

    The round record's sparsities come from the train updates (kept per
    client by the trainer) and its sampled accuracy from the same
    dispatch, so a pool smaller than the population neither rebuilds
    untouched clients nor changes a single number of the history.  The
    pruning gates are opened (``epsilon=0``, ``acc_threshold=0``) so
    masks and channels really commit and both sparsity paths carry
    non-zero values.
    """

    def config(self, algorithm, backend, client_cache):
        extra = {}
        if algorithm == "sub-fedavg-hy":
            extra["structured"] = StructuredConfig(epsilon=0.0, acc_threshold=0.0)
        if backend == "process":
            extra.update(
                workers=2,
                scenario={"profiles": ["edge-phone", "raspberry-pi"]},
                systems={"round_policy": "async-buffer"},
            )
        return tiny_config(
            algorithm=algorithm,
            backend=backend,
            client_cache=client_cache,
            num_clients=8,
            rounds=4,
            sample_fraction=0.5,
            eval_every=0,
            data=DataConfig(n_train=320, n_test=160),
            unstructured=UnstructuredConfig(epsilon=0.0, acc_threshold=0.0),
            **extra,
        )

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("algorithm", ["sub-fedavg-un", "sub-fedavg-hy"])
    def test_tight_cache_matches_unbounded(self, algorithm, backend):
        unbounded = Federation.from_config(self.config(algorithm, backend, 0)).run()
        thrashing = Federation.from_config(self.config(algorithm, backend, 2)).run()
        assert history_to_dict(thrashing) == history_to_dict(unbounded)
        assert unbounded.rounds[-1].mean_sparsity > 0
        if algorithm == "sub-fedavg-hy":
            assert unbounded.rounds[-1].mean_channel_sparsity > 0

    def test_round_builds_only_what_it_touches(self):
        """8 clients, 4 rounds of 4 sampled, cache 2 (LRU order makes every
        lookup a miss): each round builds its clients twice (the downlink
        mask, then the train task) and the final evaluation builds every
        client once.  Scanning all clients per round would build 120."""
        federation = Federation.from_config(self.config("sub-fedavg-un", "serial", 2))
        federation.run()
        pool = federation.clients
        assert pool.materializations <= 4 * 2 * 4 + len(pool)

    @pytest.mark.parametrize("algorithm", ["sub-fedavg-un", "sub-fedavg-hy"])
    def test_mean_sparsities_equal_a_full_scan(self, algorithm):
        federation = Federation.from_config(self.config(algorithm, "serial", 2))
        history = federation.run()
        trainer = federation.trainer
        scan = [c.controller.unstructured_sparsity() for c in trainer.clients]
        channel_scan = [c.controller.channel_sparsity() for c in trainer.clients]
        assert trainer.mean_unstructured_sparsity() == float(np.mean(scan)) > 0
        assert trainer.mean_channel_sparsity() == float(np.mean(channel_scan))
        record = history.rounds[-1]
        assert record.mean_sparsity == trainer.mean_unstructured_sparsity()
        assert record.mean_channel_sparsity == trainer.mean_channel_sparsity()
        if algorithm == "sub-fedavg-hy":
            assert trainer.mean_channel_sparsity() > 0
