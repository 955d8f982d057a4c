"""Fleet shapes: the registry, round-robin parity, scenario wiring."""

import pytest

from repro.federated import AvailabilitySampler, DataConfig, ScenarioConfig
from repro.systems import (
    DEVICE_PROFILES,
    EDGE_PHONE,
    RASPBERRY_PI,
    WORKSTATION,
    DeviceProfile,
    Fleet,
    available_fleets,
    build_fleet,
    build_round_timelines,
    get_fleet,
    register_fleet,
    unregister_fleet,
)


class TestDeviceProfile:
    def test_defaults_match_paper_uplink(self):
        assert EDGE_PHONE.upload_bytes_per_second == 1e6  # §4.2.2: ~1 MB/s

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            DeviceProfile(flops_per_second=0)
        with pytest.raises(ValueError):
            DeviceProfile(upload_bytes_per_second=-1)

    def test_builtin_profiles_ordered_by_speed(self):
        assert (
            RASPBERRY_PI.flops_per_second
            < EDGE_PHONE.flops_per_second
            < WORKSTATION.flops_per_second
        )


class TestFleet:
    def test_cycle_reproduces_the_historical_modulo_rule(self):
        profiles = (EDGE_PHONE, RASPBERRY_PI, WORKSTATION)
        fleet = Fleet(cycle=profiles)
        for client_id in range(10):
            assert fleet.profile_for(client_id) is profiles[client_id % 3]

    def test_assignments_win_then_cycle_takes_over(self):
        fleet = Fleet(cycle=(EDGE_PHONE,), assignments=(WORKSTATION, RASPBERRY_PI))
        assert fleet.profile_for(0) is WORKSTATION
        assert fleet.profile_for(1) is RASPBERRY_PI
        assert fleet.profile_for(2) is EDGE_PHONE

    def test_needs_at_least_one_profile(self):
        with pytest.raises(ValueError):
            Fleet(cycle=())

    def test_device_classes_deduplicated_in_order(self):
        fleet = Fleet(cycle=(RASPBERRY_PI, EDGE_PHONE, RASPBERRY_PI))
        assert fleet.device_classes() == ("raspberry-pi", "edge-phone")


class TestRegistry:
    def test_builtin_shapes_registered(self):
        assert set(available_fleets()) >= {"tiers", "uniform", "profile-list"}

    def test_unknown_fleet_raises_with_choices(self):
        with pytest.raises(KeyError, match="tiers"):
            get_fleet("armada")

    def test_register_and_unregister_roundtrip(self):
        @register_fleet("test-everyone-pi", summary="all raspberry-pi")
        def _factory(num_clients, scenario):
            return Fleet(cycle=(RASPBERRY_PI,))

        try:
            fleet = build_fleet(
                ScenarioConfig(fleet="test-everyone-pi"), num_clients=4
            )
            assert fleet.profile_for(3) is RASPBERRY_PI
        finally:
            unregister_fleet("test-everyone-pi")
        assert "test-everyone-pi" not in available_fleets()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_fleet("tiers")(lambda n, s: Fleet())


class TestScenarioWiring:
    def test_tiers_uses_scenario_profiles_round_robin(self):
        scenario = ScenarioConfig(profiles=("workstation", "raspberry-pi"))
        fleet = scenario.build_fleet(num_clients=4)
        assert fleet.profile_for(0) is WORKSTATION
        assert fleet.profile_for(1) is RASPBERRY_PI
        assert fleet.profile_for(2) is WORKSTATION

    def test_tiers_defaults_to_edge_phone(self):
        fleet = ScenarioConfig().build_fleet(num_clients=3)
        assert fleet.profile_for(2) is EDGE_PHONE

    def test_uniform_takes_first_profile_only(self):
        scenario = ScenarioConfig(
            fleet="uniform", profiles=("raspberry-pi", "workstation")
        )
        fleet = scenario.build_fleet(num_clients=5)
        assert all(fleet.profile_for(i) is RASPBERRY_PI for i in range(5))

    def test_profile_list_is_explicit_per_client(self):
        scenario = ScenarioConfig(
            fleet="profile-list",
            client_profiles=("workstation", "edge-phone", "raspberry-pi"),
        )
        fleet = scenario.build_fleet(num_clients=3)
        assert [fleet.profile_for(i).name for i in range(3)] == [
            "workstation", "edge-phone", "raspberry-pi",
        ]

    def test_profile_list_requires_enough_entries(self):
        scenario = ScenarioConfig(
            fleet="profile-list", client_profiles=("edge-phone",)
        )
        with pytest.raises(ValueError, match="1 device classes for 2 clients"):
            scenario.build_fleet(num_clients=2)

    def test_unknown_profile_name_raises(self):
        with pytest.raises(KeyError, match="edge-phone"):
            ScenarioConfig(profiles=("quantum-phone",)).build_fleet(num_clients=2)

    def test_unknown_fleet_name_rejected_at_config_time(self):
        with pytest.raises(KeyError):
            ScenarioConfig(fleet="armada")

    def test_scenario_fleet_fields_json_roundtrip(self):
        from repro.federated import FederationConfig

        config = FederationConfig(
            dataset="mnist",
            algorithm="fedavg",
            num_clients=3,
            rounds=1,
            data=DataConfig(n_train=60, n_test=30),
            scenario=ScenarioConfig(
                fleet="profile-list",
                client_profiles=("edge-phone", "raspberry-pi", "workstation"),
                diurnal_amplitude=0.5,
            ),
        )
        assert FederationConfig.from_json(config.to_json()) == config


class TestSharedAssignment:
    """The satellite: one Fleet feeds both pricing and availability."""

    def test_round_pricing_follows_the_fleet_assignment(self):
        fleet = Fleet(cycle=(EDGE_PHONE, WORKSTATION))
        timelines = build_round_timelines(fleet, 1, 0.0, range(6), {}, 1e6, 100)
        for client_id in range(6):
            profile = fleet.profile_for(client_id)
            assert timelines.compute_seconds[client_id] == (
                3e8 / profile.flops_per_second
            )

    def test_availability_sampler_consumes_the_same_fleet(self):
        fleet = Fleet(cycle=(EDGE_PHONE, RASPBERRY_PI))
        sampler = AvailabilitySampler(
            num_clients=6,
            sample_fraction=1.0,
            seed=0,
            fleet=fleet,
            profile_participation={"raspberry-pi": 0.25, "edge-phone": 0.95},
        )
        # Probabilities follow the fleet's assignment, not a private map.
        for client_id in range(6):
            expected = 0.95 if fleet.profile_for(client_id) is EDGE_PHONE else 0.25
            assert sampler.participation_probs[client_id] == pytest.approx(expected)

    def test_legacy_profiles_argument_still_works(self):
        sampler = AvailabilitySampler(
            num_clients=4,
            sample_fraction=1.0,
            seed=0,
            profiles=[EDGE_PHONE, RASPBERRY_PI],
            profile_participation={"raspberry-pi": 0.3},
        )
        assert sampler.participation_probs[1] == pytest.approx(0.3)
        assert sampler.participation_probs[3] == pytest.approx(0.3)

    def test_device_profiles_reexported_from_federated(self):
        import repro.federated as federated

        assert federated.DEVICE_PROFILES is DEVICE_PROFILES
        assert federated.EDGE_PHONE is EDGE_PHONE
