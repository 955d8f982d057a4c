"""Array round pricing: cohort timelines, lazy deliveries, the policy
contract and the hash gating of the pool knobs."""

import numpy as np
import pytest

from repro.federated import (
    DataConfig,
    EDGE_PHONE,
    FederationConfig,
    RASPBERRY_PI,
    WORKSTATION,
)
from repro.systems import (
    Fleet,
    FleetSimulator,
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

    def test_non_default_pool_knobs_join_the_hash(self):
        default = self.base()
        assert (
            self.base(client_cache=8).stable_hash() != default.stable_hash()
        )
