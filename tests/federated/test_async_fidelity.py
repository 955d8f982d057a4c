"""Async-carry fidelity: carried deliveries replay upload-time snapshots.

Under the async-buffer policy a client's upload can land rounds after it
was produced.  The server must aggregate *what was uploaded*, not
whatever the live client object happens to hold when the arrival lands —
restarts, pool evictions/rebuilds and evaluation passes all mutate the
live object in between.  These are regression tests for the historical
bug where the carried branch read ``self.clients[id].state_dict()`` at
delivery time.
"""

import numpy as np

from repro.federated import (
    ClientTask,
    DataConfig,
    Federation,
    FederationConfig,
    LocalTrainConfig,
    SubFedAvgUn,
    SystemsConfig,
    fedavg_average,
    make_clients,
    model_factory,
)
from repro.federated.trainers.fedavg import FedAvg
from repro.systems import Delivery, LazyDeliveries, RoundPlan


def tiny_config(**overrides):
    base = dict(
        dataset="mnist",
        algorithm="fedavg",
        num_clients=4,
        rounds=2,
        sample_fraction=0.5,
        seed=0,
        data=DataConfig(n_train=160, n_test=80),
        local=LocalTrainConfig(epochs=1, batch_size=10),
    )
    base.update(overrides)
    return FederationConfig(**base)


def plan(round_index, started, deliveries, busy=(), stragglers=()):
    deliveries = tuple(deliveries)
    columns = ("client_id", "round_started", "staleness", "weight")
    return RoundPlan(
        round_index=round_index,
        start=0.0,
        sampled=tuple(started) + tuple(busy),
        started=tuple(started),
        busy=tuple(busy),
        deliveries=LazyDeliveries(
            *([getattr(d, name) for d in deliveries] for name in columns)
        ),
        stragglers=tuple(stragglers),
        close_seconds=1.0,
        round_seconds=1.5,
    )


def train_task(index):
    return ClientTask(client_index=index, kind="train", load="global")


def states_equal(a, b):
    return all(np.array_equal(a[key], b[key]) for key in a)


class TestFedAvgCarriedDeliveries:
    def make_trainer(self):
        config = tiny_config()
        clients = make_clients(config)
        return FedAvg(clients, model_factory(config), rounds=2)

    def test_carried_delivery_replays_upload_time_state(self):
        trainer = self.make_trainer()
        # Round 1: client 0 uploads but the round closes without it — the
        # policy says its arrival lands next round.
        trainer.round_plan = plan(1, started=(0,), deliveries=(), stragglers=(0,))
        (update,) = trainer.execute([train_task(0)])
        trainer._aggregate([update])
        held = {key: value.copy() for key, value in update.state.items()}
        examples = update.num_examples

        # The live client moves on before the arrival lands.
        trainer.clients[0].train_local(epochs=1)
        live = trainer.clients[0].state_dict()
        assert not states_equal(live, held)

        # Round 2: the carried arrival is delivered, staleness-discounted.
        delivery = Delivery(client_id=0, round_started=1, staleness=1, weight=0.5)
        trainer.round_plan = plan(2, started=(), deliveries=(delivery,), busy=(0,))
        trainer._aggregate([])
        expected = fedavg_average([held], [examples * delivery.weight])
        assert states_equal(trainer.global_state, expected)
        assert not states_equal(trainer.global_state, fedavg_average([live], [1.0]))
        # The held snapshot is consumed exactly once.
        assert trainer._held_updates == {}

    def test_delivered_update_clears_any_stale_snapshot(self):
        trainer = self.make_trainer()
        trainer.round_plan = plan(1, started=(0,), deliveries=(), stragglers=(0,))
        (update,) = trainer.execute([train_task(0)])
        trainer._aggregate([update])
        assert 0 in trainer._held_updates
        # The client restarts and its *new* upload is delivered on time:
        # the old snapshot must not linger for a later phantom arrival.
        trainer.round_plan = plan(
            2, started=(0,), deliveries=(Delivery(0, 2, 0, 1.0),)
        )
        (fresh,) = trainer.execute([train_task(0)])
        trainer._aggregate([fresh])
        assert trainer._held_updates == {}

    def test_posthoc_replay_without_snapshot_falls_back_to_live_state(self):
        trainer = self.make_trainer()
        delivery = Delivery(client_id=1, round_started=1, staleness=1, weight=1.0)
        trainer.round_plan = plan(2, started=(), deliveries=(delivery,), busy=(1,))
        trainer._aggregate([])  # no held snapshot: must not crash
        live = trainer.clients[1].state_dict()
        assert states_equal(trainer.global_state, fedavg_average([live], [1.0]))


class TestSubFedAvgCarriedDeliveries:
    def make_trainer(self):
        config = tiny_config(algorithm="sub-fedavg-un")
        clients = make_clients(config)
        return SubFedAvgUn(clients, model_factory(config), rounds=2)

    def test_carried_delivery_replays_upload_time_state_and_mask(self):
        trainer = self.make_trainer()
        trainer.round_plan = plan(1, started=(0,), deliveries=(), stragglers=(0,))
        (update,) = trainer.execute([train_task(0)])
        trainer._delivered_states([update])
        held_state = {key: value.copy() for key, value in update.state.items()}
        held_mask = update.mask

        trainer.clients[0].train_local(epochs=1)
        assert not states_equal(trainer.clients[0].state_dict(), held_state)

        delivery = Delivery(client_id=0, round_started=1, staleness=1, weight=0.5)
        trainer.round_plan = plan(2, started=(), deliveries=(delivery,), busy=(0,))
        states, masks = trainer._delivered_states([])
        assert len(states) == 1 and states_equal(states[0], held_state)
        assert masks[0] is held_mask
        assert trainer._held_states == {}


class TestAsyncRunsUnderEviction:
    """End to end: async carries + pool evictions must not perturb results."""

    def run(self, client_cache):
        config = tiny_config(
            num_clients=6,
            rounds=4,
            data=DataConfig(n_train=240, n_test=120),
            client_cache=client_cache,
            scenario={"profiles": ("edge-phone", "raspberry-pi")},
            systems=SystemsConfig(
                round_policy="async-buffer",
                buffer_size=1,
                flops_per_example=1e6,
                examples_per_round=100.0,
            ),
        )
        return Federation.from_config(config).run()

    def test_histories_identical_across_cache_sizes(self):
        unbounded = self.run(client_cache=0)
        thrashing = self.run(client_cache=1)
        assert thrashing.final_accuracy == unbounded.final_accuracy
        assert (
            thrashing.final_per_client_accuracy
            == unbounded.final_per_client_accuracy
        )
        assert [r.train_loss for r in thrashing.rounds] == [
            r.train_loss for r in unbounded.rounds
        ]
