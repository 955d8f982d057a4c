"""Participation scenarios: the sampler registry and AvailabilitySampler."""

import numpy as np
import pytest

from repro.federated import (
    AvailabilitySampler,
    ClientSampler,
    DataConfig,
    Federation,
    FederationConfig,
    FixedSampler,
    LocalTrainConfig,
    ScenarioConfig,
    available_samplers,
    build_sampler,
    get_sampler,
    register_sampler,
    sampler_specs,
    unregister_sampler,
)
from repro.systems import EDGE_PHONE, RASPBERRY_PI, Fleet


class TestSamplerRegistry:
    def test_builtins_registered(self):
        assert available_samplers()[:3] == ("uniform", "fixed", "availability")

    def test_get_unknown_raises_with_choices(self):
        with pytest.raises(KeyError, match="unknown sampler"):
            get_sampler("bogus")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_sampler("uniform")(lambda *a: None)

    def test_summaries_populated(self):
        assert all(spec.summary for spec in sampler_specs())

    def test_uniform_factory_matches_paper_protocol(self):
        built = build_sampler(ScenarioConfig(), 50, 0.2, seed=3)
        reference = ClientSampler(50, 0.2, seed=3)
        assert isinstance(built, ClientSampler)
        assert built.sample() == reference.sample()

    def test_fixed_factory_uses_config_subset(self):
        scenario = ScenarioConfig(sampler="fixed", fixed_clients=(2, 0))
        sampler = build_sampler(scenario, 5, 0.5, seed=0)
        assert sampler.sample() == [0, 2]
        assert sampler.num_clients == 5

    def test_fixed_factory_defaults_to_all_clients(self):
        sampler = build_sampler(ScenarioConfig(sampler="fixed"), 4, 0.5, seed=0)
        assert sampler.sample() == [0, 1, 2, 3]

    def test_third_party_sampler_runs_end_to_end(self):
        """Acceptance: a custom participation model via the decorator only."""

        @register_sampler("first-client")
        def first_client(num_clients, sample_fraction, seed, scenario):
            return FixedSampler([0], num_clients=num_clients)

        try:
            config = FederationConfig(
                dataset="mnist", algorithm="fedavg", num_clients=3, rounds=2,
                sample_fraction=1.0, data=DataConfig(n_train=120, n_test=60),
                local=LocalTrainConfig(epochs=1, batch_size=10),
                scenario=ScenarioConfig(sampler="first-client"),
            )
            history = Federation.from_config(config).run()
            for record in history.rounds:
                assert record.sampled_clients == [0]
        finally:
            unregister_sampler("first-client")


class TestScenarioConfig:
    def test_defaults_are_uniform(self):
        assert ScenarioConfig().sampler == "uniform"

    def test_fixed_clients_list_coerced_to_tuple(self):
        scenario = ScenarioConfig(fixed_clients=[3, 1])
        assert scenario.fixed_clients == (3, 1)
        assert scenario == ScenarioConfig(fixed_clients=(3, 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(participation=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(participation_spread=-0.1)
        with pytest.raises(ValueError):
            ScenarioConfig(dropout=1.0)

    def test_unknown_sampler_rejected_at_config_time(self):
        with pytest.raises(KeyError, match="unknown sampler"):
            FederationConfig(
                dataset="mnist", algorithm="fedavg",
                scenario=ScenarioConfig(sampler="bogus"),
            )

    def test_participation_probs_reach_the_sampler(self):
        scenario = ScenarioConfig(
            sampler="availability", participation_probs=(0.9, 0.1, 0.5)
        )
        sampler = build_sampler(scenario, 3, 1.0, seed=0)
        assert list(sampler.participation_probs) == [0.9, 0.1, 0.5]

    def test_device_profiles_reach_the_sampler_by_name(self):
        scenario = ScenarioConfig(
            sampler="availability",
            profiles=("edge-phone", "raspberry-pi"),
            profile_participation=(("edge-phone", 0.9), ("raspberry-pi", 0.2)),
        )
        sampler = build_sampler(scenario, 4, 1.0, seed=0)
        assert list(sampler.participation_probs) == [0.9, 0.2, 0.9, 0.2]

    def test_profile_participation_accepts_a_mapping(self):
        """The natural dict spelling works and canonicalizes name-sorted."""
        from_mapping = ScenarioConfig(
            sampler="availability",
            profiles=("edge-phone", "raspberry-pi"),
            profile_participation={"raspberry-pi": 0.2, "edge-phone": 0.9},
        )
        from_pairs = ScenarioConfig(
            sampler="availability",
            profiles=("edge-phone", "raspberry-pi"),
            profile_participation=(("edge-phone", 0.9), ("raspberry-pi", 0.2)),
        )
        assert from_mapping == from_pairs
        sampler = build_sampler(from_mapping, 4, 1.0, seed=0)
        assert list(sampler.participation_probs) == [0.9, 0.2, 0.9, 0.2]

    def test_unknown_profile_name_rejected(self):
        scenario = ScenarioConfig(sampler="availability", profiles=("mainframe",))
        with pytest.raises(KeyError, match="unknown device profile"):
            build_sampler(scenario, 4, 1.0, seed=0)

    def test_profile_scenario_round_trips_through_json(self):
        config = FederationConfig(
            dataset="mnist", algorithm="fedavg",
            scenario=ScenarioConfig(
                sampler="availability",
                participation_probs=(0.8, 0.4),
                profiles=("edge-phone",),
                profile_participation=(("edge-phone", 0.7),),
            ),
        )
        restored = FederationConfig.from_json(config.to_json())
        assert restored == config
        assert restored.scenario.profile_participation == (("edge-phone", 0.7),)


class TestAvailabilitySampler:
    def test_deterministic_under_seed(self):
        kwargs = dict(
            sample_fraction=0.5, participation=0.7,
            participation_spread=0.2, dropout=0.1,
        )
        a = AvailabilitySampler(40, seed=11, **kwargs)
        b = AvailabilitySampler(40, seed=11, **kwargs)
        rounds_a = [a.sample() for _ in range(10)]
        rounds_b = [b.sample() for _ in range(10)]
        assert rounds_a == rounds_b

    def test_dropout_reproducible_and_thinning(self):
        """Dropout thins rounds but never empties them, reproducibly."""
        full = AvailabilitySampler(30, sample_fraction=1.0, seed=5, dropout=0.0)
        dropped = AvailabilitySampler(30, sample_fraction=1.0, seed=5, dropout=0.6)
        dropped_again = AvailabilitySampler(30, sample_fraction=1.0, seed=5, dropout=0.6)
        sizes_full = [len(full.sample()) for _ in range(20)]
        rounds_dropped = [dropped.sample() for _ in range(20)]
        assert [dropped_again.sample() for _ in range(20)] == rounds_dropped
        sizes_dropped = [len(participants) for participants in rounds_dropped]
        assert sizes_full == [30] * 20
        assert np.mean(sizes_dropped) < 0.6 * 30
        assert min(sizes_dropped) >= 1

    def test_never_empty_even_under_extreme_dropout(self):
        sampler = AvailabilitySampler(
            10, sample_fraction=0.3, seed=0, participation=0.01, dropout=0.99
        )
        for _ in range(50):
            assert len(sampler.sample()) >= 1

    def test_explicit_per_client_probabilities(self):
        probs = [1.0, 1.0, 0.01, 0.01]
        sampler = AvailabilitySampler(
            4, sample_fraction=1.0, seed=7, participation_probs=probs
        )
        counts = np.zeros(4)
        for _ in range(200):
            for index in sampler.sample():
                counts[index] += 1
        assert counts[0] > 150 and counts[1] > 150
        assert counts[2] < 50 and counts[3] < 50

    def test_device_profiles_assigned_round_robin(self):
        """Profile-derived probabilities follow the fleet's client map."""
        profiles = [EDGE_PHONE, RASPBERRY_PI]
        sampler = AvailabilitySampler(
            6, sample_fraction=1.0, seed=0,
            profiles=profiles,
            profile_participation={"edge-phone": 0.9, "raspberry-pi": 0.2},
        )
        fleet = Fleet(cycle=tuple(profiles))
        for client_id in range(6):
            expected = 0.9 if fleet.profile_for(client_id).name == "edge-phone" else 0.2
            assert sampler.participation_probs[client_id] == expected

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            AvailabilitySampler(5, participation=0.0)
        with pytest.raises(ValueError):
            AvailabilitySampler(5, dropout=1.0)
        with pytest.raises(ValueError):
            AvailabilitySampler(5, participation_probs=[0.5, 0.5])  # wrong length
        with pytest.raises(ValueError):
            AvailabilitySampler(2, participation_probs=[0.5, 1.5])

    def test_availability_run_is_reproducible(self):
        """Same config, same history — the sampler draws from its own seed."""
        config = FederationConfig(
            dataset="mnist", algorithm="fedavg", num_clients=4, rounds=3,
            sample_fraction=1.0, data=DataConfig(n_train=120, n_test=60),
            local=LocalTrainConfig(epochs=1, batch_size=10),
            scenario=ScenarioConfig(
                sampler="availability", participation=0.6, dropout=0.2
            ),
        )
        first = Federation.from_config(config).run()
        second = Federation.from_config(config).run()
        assert [r.sampled_clients for r in first.rounds] == [
            r.sampled_clients for r in second.rounds
        ]
        assert first.final_accuracy == second.final_accuracy


class TestFixedSamplerValidation:
    def test_explicit_num_clients_validates_range(self):
        with pytest.raises(ValueError, match="out of range"):
            FixedSampler([0, 7], num_clients=5)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FixedSampler([1, 1], num_clients=3)

    def test_inference_still_works_without_num_clients(self):
        sampler = FixedSampler([3, 1, 4])
        assert sampler.num_clients == 5
        assert sampler.sample() == [1, 3, 4]

    def test_composes_with_larger_federation(self):
        sampler = FixedSampler([0, 1], num_clients=100)
        assert sampler.num_clients == 100
        assert sampler.clients_per_round == 2
