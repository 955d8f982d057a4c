"""Fleet simulation end to end: configs, runs, records, reporting."""

import dataclasses
import json

import pytest

from repro.federated import (
    DataConfig,
    Federation,
    FederationConfig,
    FleetSimCallback,
    ScenarioConfig,
    SystemsConfig,
)
from repro.federated.builder import build_fleet_simulator
from repro.systems import FleetSimulator, SynchronousPolicy
from repro.systems.report import (
    simulated_time_curve,
    simulated_time_to_accuracy,
    total_stragglers,
)
from repro.utils.serialization import history_from_dict, history_to_dict

#: Two-tier fleet + pinned pricing: phones finish one round in ~0.75 s,
#: Pis in ~1.4 s, so a 1-second deadline reliably drops the Pi tier.
SCENARIO = ScenarioConfig(profiles=("edge-phone", "raspberry-pi"))
PRICING = dict(flops_per_example=1e6, examples_per_round=100.0)


def tiny_config(algorithm="fedavg", systems=None, **overrides):
    base = dict(
        dataset="mnist",
        algorithm=algorithm,
        num_clients=6,
        rounds=3,
        sample_fraction=0.5,
        seed=0,
        eval_every=1,
        data=DataConfig(n_train=240, n_test=120),
        scenario=SCENARIO,
        systems=systems,
    )
    base.update(overrides)
    return FederationConfig(**base)


def run(config):
    return Federation.from_config(config).run()


class TestConfigPlumbing:
    def test_systems_section_json_roundtrip(self):
        config = tiny_config(
            systems=SystemsConfig(
                round_policy="deadline", deadline_seconds=1.0, **PRICING
            )
        )
        restored = FederationConfig.from_json(config.to_json())
        assert restored == config
        assert restored.systems.deadline_seconds == 1.0

    def test_systems_section_accepts_plain_mapping(self):
        config = tiny_config(
            systems={"round_policy": "async-buffer", "buffer_size": 2}
        )
        assert isinstance(config.systems, SystemsConfig)
        assert config.systems.buffer_size == 2

    def test_configs_without_systems_hash_unchanged(self):
        with_section = tiny_config(
            systems=SystemsConfig(round_policy="synchronous", **PRICING)
        )
        without = tiny_config(systems=None)
        assert with_section.stable_hash() != without.stable_hash()
        # The canonical payload of a systems-free config must not even
        # mention the section (that is what keeps old hashes stable).
        assert "systems" not in without._canonical_dict()

    def test_post_pr4_scenario_fields_hash_only_when_set(self):
        base = tiny_config(scenario=ScenarioConfig(sampler="availability"))
        payload = base._canonical_dict()["scenario"]
        assert "fleet" not in payload
        tweaked = tiny_config(
            scenario=ScenarioConfig(sampler="availability", fleet="uniform")
        )
        assert "fleet" in tweaked._canonical_dict()["scenario"]
        assert tweaked.stable_hash() != base.stable_hash()

    def test_builder_derives_pricing_from_the_run(self):
        simulator = build_fleet_simulator(
            tiny_config(systems=SystemsConfig()), num_clients=6
        )
        assert simulator.flops_per_example > 0
        # 240 examples over 6 clients at the trainer's epoch budget.
        assert simulator.examples_per_round >= 40


class TestLiveRuns:
    def test_sync_systems_run_matches_plain_run_exactly(self):
        """The simulator must observe, not perturb, synchronous training."""
        plain = run(tiny_config(systems=None))
        simulated = run(
            tiny_config(systems=SystemsConfig(round_policy="synchronous", **PRICING))
        )
        assert simulated.final_accuracy == plain.final_accuracy
        assert simulated.final_per_client_accuracy == plain.final_per_client_accuracy
        assert [r.train_loss for r in simulated.rounds] == [
            r.train_loss for r in plain.rounds
        ]

    def test_records_annotated_with_simulated_time(self):
        result = run(
            tiny_config(systems=SystemsConfig(round_policy="synchronous", **PRICING))
        )
        assert all(r.simulated_seconds is not None for r in result.rounds)
        assert result.total_simulated_seconds > 0

    def test_deadline_produces_zero_weight_stragglers(self):
        result = run(
            tiny_config(
                systems=SystemsConfig(
                    round_policy="deadline", deadline_seconds=1.0, **PRICING
                )
            )
        )
        assert total_stragglers(result) > 0
        # Deadline rounds are capped at deadline + overhead.
        assert all(r.simulated_seconds <= 1.5 + 1e-9 for r in result.rounds)

    def test_policies_produce_differing_deterministic_time_curves(self):
        def curve(policy, **params):
            config = tiny_config(
                algorithm="sub-fedavg-un",
                systems=SystemsConfig(round_policy=policy, **params, **PRICING),
            )
            return simulated_time_curve(run(config))

        sync = curve("synchronous")
        deadline = curve("deadline", deadline_seconds=1.0)
        buffered = curve("async-buffer", buffer_size=2)
        assert sync != deadline != buffered
        # Seed determinism: an identical rebuild reproduces each curve.
        assert curve("deadline", deadline_seconds=1.0) == deadline
        assert curve("async-buffer", buffer_size=2) == buffered

    def test_compressed_trainer_honors_the_plan(self):
        """fedavg-compressed delegates to the plan-aware aggregation."""
        result = run(
            tiny_config(
                algorithm="fedavg-compressed",
                systems=SystemsConfig(
                    round_policy="deadline", deadline_seconds=1.0, **PRICING
                ),
            )
        )
        assert total_stragglers(result) > 0
        # Seed-deterministic like every other policy run.
        rerun = run(
            tiny_config(
                algorithm="fedavg-compressed",
                systems=SystemsConfig(
                    round_policy="deadline", deadline_seconds=1.0, **PRICING
                ),
            )
        )
        assert rerun.final_accuracy == result.final_accuracy

    def test_plan_unaware_trainers_refuse_non_sync_policies(self):
        """A policy the trainer cannot enforce must fail loudly, not
        silently misreport stragglers that were aggregated anyway."""
        for algorithm in ("lg-fedavg", "mtl", "standalone"):
            with pytest.raises(ValueError, match="round plan"):
                Federation.from_config(
                    tiny_config(
                        algorithm=algorithm,
                        systems=SystemsConfig(
                            round_policy="deadline",
                            deadline_seconds=1.0,
                            **PRICING,
                        ),
                    )
                )
            # Synchronous simulation is observational and stays allowed.
            Federation.from_config(
                tiny_config(
                    algorithm=algorithm,
                    systems=SystemsConfig(round_policy="synchronous", **PRICING),
                )
            )

    def test_async_run_marks_busy_clients(self):
        config = tiny_config(
            rounds=4,
            systems=SystemsConfig(
                round_policy="async-buffer", buffer_size=1, **PRICING
            ),
        )
        federation = Federation.from_config(config)
        result = federation.run()
        assert all(r.simulated_seconds is not None for r in result.rounds)
        assert total_stragglers(result) > 0

    def test_seconds_to_accuracy_reads_simulated_time(self):
        result = run(
            tiny_config(systems=SystemsConfig(round_policy="synchronous", **PRICING))
        )
        target = result.rounds[0].mean_accuracy
        assert result.seconds_to_accuracy(target) == pytest.approx(
            result.rounds[0].simulated_seconds
        )
        assert simulated_time_to_accuracy(result, 2.0) is None


class TestPerClientTraffic:
    def test_subfedavg_records_carry_per_client_bytes(self):
        result = run(tiny_config(algorithm="sub-fedavg-un", systems=None))
        for record in result.rounds:
            assert record.client_uploaded_bytes is not None
            assert set(record.client_uploaded_bytes) == set(record.sampled_clients)
            assert sum(record.client_uploaded_bytes.values()) == pytest.approx(
                record.uploaded_bytes
            )
            assert sum(record.client_downloaded_bytes.values()) == pytest.approx(
                record.downloaded_bytes
            )

    def test_simulator_prices_per_client_when_available(self):
        simulator = FleetSimulator(
            SCENARIO.build_fleet(4), SynchronousPolicy(),
            flops_per_example=1e6, examples_per_round=100,
        )
        from repro.federated import RoundRecord

        base = dict(round_index=1, sampled_clients=[0, 1], train_loss=1.0)

        even_split = RoundRecord(**base, uploaded_bytes=2e6, downloaded_bytes=2e6)
        skewed = RoundRecord(
            **base,
            uploaded_bytes=2e6,
            downloaded_bytes=2e6,
            client_uploaded_bytes={0: 0.2e6, 1: 1.8e6},
            client_downloaded_bytes={0: 0.2e6, 1: 1.8e6},
        )
        # The slow Pi (id 1) carries most of the bytes, so the skewed
        # round is strictly slower than the even-split approximation.
        assert (
            simulator.fresh().observe(skewed).round_seconds
            > simulator.fresh().observe(even_split).round_seconds
        )

    def test_history_serialization_roundtrips_new_fields(self):
        result = run(
            tiny_config(
                algorithm="sub-fedavg-un",
                systems=SystemsConfig(
                    round_policy="deadline", deadline_seconds=1.0, **PRICING
                ),
            )
        )
        restored = history_from_dict(
            json.loads(json.dumps(history_to_dict(result)))
        )
        for original, loaded in zip(result.rounds, restored.rounds):
            assert loaded.client_uploaded_bytes == original.client_uploaded_bytes
            assert loaded.simulated_seconds == original.simulated_seconds
            assert loaded.stragglers == original.stragglers


class TestPostHocCallback:
    def test_callback_annotates_a_plain_run(self):
        config = tiny_config(systems=None)
        federation = Federation.from_config(config)
        simulator = build_fleet_simulator(
            dataclasses.replace(
                config, systems=SystemsConfig(round_policy="synchronous", **PRICING)
            ),
            num_clients=config.num_clients,
        )
        callback = FleetSimCallback(simulator)
        result = federation.run(callbacks=[callback])
        assert all(r.simulated_seconds is not None for r in result.rounds)
        assert callback.total_seconds == pytest.approx(
            sum(r.simulated_seconds for r in result.rounds)
        )

    def test_posthoc_simulate_agrees_with_live_annotation_for_fedavg(self):
        """Dense traffic estimates are exact, so live == replayed."""
        config = tiny_config(
            systems=SystemsConfig(round_policy="synchronous", **PRICING)
        )
        federation = Federation.from_config(config)
        result = federation.run()
        replay = federation.trainer.fleet_sim.simulate(result)
        assert replay.round_seconds == [r.simulated_seconds for r in result.rounds]
