"""Array round pricing: cohort timelines, lazy deliveries, policy contract,
hierarchical uplink contention and the hash of the ``systems`` section."""

import numpy as np
import pytest

from repro.federated import (
    DataConfig,
    EDGE_PHONE,
    Federation,
    FederationConfig,
    RASPBERRY_PI,
    ScenarioConfig,
    SystemsConfig,
    WORKSTATION,
)
from repro.systems import (
    Fleet,
    FleetSimulator,
    HierarchicalFleet,
    LazyDeliveries,
    RoundPolicy,
    build_round_timelines,
)
from repro.systems.rounds import Delivery

THREE_TIER = Fleet(cycle=(EDGE_PHONE, RASPBERRY_PI, WORKSTATION))


def traffic_for(cohort):
    """Skewed per-client bytes so re-pricing is not a no-op."""
    return {cid: (1e6 + cid * 3e5, 2e6 + cid * 1e5) for cid in cohort}


class TestRoundTimelines:
    def test_jitter_factor_scales_every_phase(self):
        cohort = (0, 1, 2, 3, 4)
        traffic = traffic_for(cohort)
        draws = np.random.default_rng(11).uniform(0.8, 1.2, size=len(cohort))
        base = build_round_timelines(THREE_TIER, 1, 0.0, cohort, traffic, 1e6, 100.0)
        jittered = build_round_timelines(
            THREE_TIER, 1, 0.0, cohort, traffic, 1e6, 100.0, jitter_factors=draws
        )
        for phase in ("download_seconds", "compute_seconds", "upload_seconds"):
            assert np.array_equal(
                getattr(jittered, phase), getattr(base, phase) * draws
            )

    def test_uniform_traffic_pair_matches_per_client_map(self):
        cohort = (0, 1, 2, 3)
        pair = build_round_timelines(
            THREE_TIER, 1, 0.0, cohort, (2e6, 3e6), 1e6, 100.0
        )
        mapped = build_round_timelines(
            THREE_TIER, 1, 0.0, cohort, {cid: (2e6, 3e6) for cid in cohort},
            1e6, 100.0,
        )
        assert np.array_equal(pair.durations, mapped.durations)


class TestLazyDeliveries:
    def test_sequence_protocol_and_equality(self):
        lazy = LazyDeliveries(
            np.array([3, 1]), np.array([2, 1]), np.array([0, 1]),
            np.array([1.0, 0.5]),
        )
        assert len(lazy) == 2
        assert lazy[0] == Delivery(3, 2, 0, 1.0)
        assert lazy[-1] == Delivery(1, 1, 1, 0.5)
        assert lazy[0:2] == (Delivery(3, 2, 0, 1.0), Delivery(1, 1, 1, 0.5))
        assert lazy == LazyDeliveries([3, 1], [2, 1], [0, 1], [1.0, 0.5])
        assert lazy != LazyDeliveries([3], [2], [0], [1.0])
        assert lazy.id_set == frozenset({1, 3})
        assert lazy.weight_for(1) == 0.5
        assert lazy.weight_for(99) == 0.0


class TestPolicyContract:
    def test_policy_without_decide_names_its_class(self):
        class HalfPolicy(RoundPolicy):
            name = "half"

        simulator = FleetSimulator(
            THREE_TIER, HalfPolicy(), flops_per_example=1e6, examples_per_round=100
        )
        with pytest.raises(NotImplementedError, match="HalfPolicy"):
            simulator.plan_round(1, (0, 1), traffic_for((0, 1)))


class TestHierarchicalFleet:
    def test_contention_caps_upload_rates(self):
        fleet = HierarchicalFleet(
            cycle=(EDGE_PHONE,), regions=2,
            region_uplink_bytes_per_second=1.5e6,
        )
        # Four clients, two per cell: each gets 0.75 MB/s of backhaul,
        # below the 1 MB/s device uplink.
        rates = fleet.upload_rates((0, 1, 2, 3))
        assert np.all(rates == 0.75e6)
        # A lone client per cell gets the full backhaul, capped by device.
        assert np.all(fleet.upload_rates((0, 1)) == 1e6)

    def test_crowded_cells_slow_the_round(self):
        uncontended = Fleet(cycle=(EDGE_PHONE,))
        contended = HierarchicalFleet(
            cycle=(EDGE_PHONE,), regions=1,
            region_uplink_bytes_per_second=1e6,
        )
        cohort = tuple(range(8))
        free = build_round_timelines(
            uncontended, 1, 0.0, cohort, (1e6, 1e6), 1e6, 100.0
        )
        shared = build_round_timelines(
            contended, 1, 0.0, cohort, (1e6, 1e6), 1e6, 100.0
        )
        # Eight phones share one 1 MB/s cell: uploads take 8x longer.
        assert shared.max_duration() > free.max_duration()
        assert np.all(shared.upload_seconds == free.upload_seconds * 8.0)

    def test_registry_factory_validates_scenario(self):
        scenario = ScenarioConfig(
            fleet="hierarchical", regions=3,
            region_uplink_bytes_per_second=2e6,
        )
        fleet = scenario.build_fleet(num_clients=12)
        assert isinstance(fleet, HierarchicalFleet)
        assert fleet.regions == 3
        with pytest.raises(ValueError, match="regions"):
            ScenarioConfig(fleet="hierarchical").build_fleet(num_clients=4)
        with pytest.raises(ValueError, match="uplink"):
            ScenarioConfig(fleet="hierarchical", regions=2).build_fleet(
                num_clients=4
            )

    def test_hierarchical_federation_run_end_to_end(self):
        config = FederationConfig(
            dataset="mnist",
            algorithm="fedavg",
            num_clients=6,
            rounds=2,
            sample_fraction=0.5,
            seed=0,
            data=DataConfig(n_train=240, n_test=120),
            scenario=ScenarioConfig(
                profiles=("edge-phone", "raspberry-pi"),
                fleet="hierarchical",
                regions=2,
                region_uplink_bytes_per_second=5e5,
            ),
            systems=SystemsConfig(
                flops_per_example=1e6, examples_per_round=100.0
            ),
        )
        result = Federation.from_config(config).run()
        assert len(result.rounds) == 2
        assert all(r.simulated_seconds > 0 for r in result.rounds)
        # Hash round-trips with the hierarchical scenario fields present.
        restored = FederationConfig.from_json(config.to_json())
        assert restored.stable_hash() == config.stable_hash()


class TestHashGating:
    def base(self, **overrides):
        settings = dict(
            dataset="mnist", algorithm="fedavg", num_clients=6, rounds=2,
            seed=0, data=DataConfig(n_train=240, n_test=120),
        )
        settings.update(overrides)
        return FederationConfig(**settings)

    def test_pool_defaults_absent_from_canonical_payload(self):
        payload = self.base()._canonical_dict()
        assert "client_cache" not in payload
        assert "state_store" not in payload

    def test_non_default_pool_knobs_join_the_hash(self):
        default = self.base()
        assert (
            self.base(client_cache=8).stable_hash() != default.stable_hash()
        )
        assert (
            self.base(state_store="file").stable_hash() != default.stable_hash()
        )

    def test_hierarchical_scenario_fields_gated(self):
        plain = self.base(scenario=ScenarioConfig())._canonical_dict()
        assert "regions" not in plain.get("scenario", {})
