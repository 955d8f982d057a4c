"""Round policies and the FleetSimulator engine."""

import pytest

from repro.federated import (
    EDGE_PHONE,
    History,
    RASPBERRY_PI,
    RoundRecord,
)
from repro.systems import (
    AsyncBufferPolicy,
    DeadlinePolicy,
    Fleet,
    FleetSimulator,
    SynchronousPolicy,
    SystemsConfig,
    UPLOAD_DONE,
    ROUND_POLICIES,
    build_round_policy,
    build_round_timelines,
    compare_simulated_time_to_accuracy,
    register_round_policy,
)

TWO_TIER = Fleet(cycle=(EDGE_PHONE, RASPBERRY_PI))


def record(index, clients, up=1e6, down=1e6, accuracy=None, per_client=None):
    rec = RoundRecord(
        round_index=index,
        sampled_clients=list(clients),
        train_loss=1.0,
        mean_accuracy=accuracy,
        uploaded_bytes=up,
        downloaded_bytes=down,
    )
    if per_client is not None:
        rec.client_uploaded_bytes = {cid: b for cid, (b, _) in per_client.items()}
        rec.client_downloaded_bytes = {cid: b for cid, (_, b) in per_client.items()}
    return rec


def history(records):
    run = History(algorithm="x")
    for rec in records:
        run.append(rec)
    return run


def simulator(policy, fleet=TWO_TIER, **kwargs):
    defaults = dict(
        flops_per_example=1e6,
        examples_per_round=100,
        server_overhead_seconds=0.5,
        seed=0,
    )
    defaults.update(kwargs)
    return FleetSimulator(fleet, policy, **defaults)


def slowest_client_plus_overhead(traffic, overhead=0.5, fleet=TWO_TIER):
    """The synchronous round price spelled out per client: the slowest
    ``compute + up + down`` (in that summation order) plus server overhead."""

    def client_seconds(client_id, up, down):
        profile = fleet.profile_for(client_id)
        compute = (3.0 * 1e6 * 100) / profile.flops_per_second
        return (
            compute
            + up / profile.upload_bytes_per_second
            + down / profile.download_bytes_per_second
        )

    return (
        max(client_seconds(cid, up, down) for cid, (up, down) in traffic.items())
        + overhead
    )


class TestRegistry:
    def test_factory_without_docstring_has_empty_summary(self):
        register_round_policy("test-nodoc")(lambda systems: SynchronousPolicy())
        try:
            assert ROUND_POLICIES["test-nodoc"].summary == ""
        finally:
            ROUND_POLICIES.unregister("test-nodoc")
        assert "test-nodoc" not in ROUND_POLICIES


class TestSynchronousPricing:
    """A synchronous round is its slowest client plus overhead, bitwise."""

    @pytest.mark.parametrize("overhead", [0.0, 0.5, 2.0])
    def test_per_client_traffic_prices_the_slowest_client(self, overhead):
        per_client = {0: (4e5, 1e6), 1: (3.7e6, 2e6), 5: (9e5, 1.5e6)}
        run = history(
            [
                record(
                    1, clients=[0, 1, 5], up=5e6, down=4.5e6, per_client=per_client
                )
            ]
        )
        report = simulator(
            SynchronousPolicy(), server_overhead_seconds=overhead
        ).simulate(run)
        assert report.total_seconds == slowest_client_plus_overhead(
            per_client, overhead
        )

    def test_even_split_fallback_without_per_client_bytes(self):
        run = history(
            [record(i, clients=[0, 1, 2], up=2e6, down=3e6) for i in range(1, 6)]
        )
        report = simulator(SynchronousPolicy()).simulate(run)
        even_split = {cid: (2e6 / 3, 3e6 / 3) for cid in (0, 1, 2)}
        assert report.round_seconds == [slowest_client_plus_overhead(even_split)] * 5
        assert report.total_seconds == sum(report.round_seconds)

    def test_per_round_seconds_match_too(self):
        run = history([record(1, clients=[0, 3]), record(2, clients=[1])])
        report = simulator(SynchronousPolicy()).simulate(run)
        for outcome, rec in zip(report.outcomes, run.rounds):
            assert outcome.round_seconds == slowest_client_plus_overhead(
                rec.per_client_traffic()
            )

    def test_cheaper_uplink_means_faster_rounds(self):
        """Sub-FedAvg's smaller exchanges translate to simulated-time wins."""
        dense = simulator(SynchronousPolicy()).simulate(
            history([record(1, clients=[0, 1], up=4e6, down=4e6)])
        )
        sparse = simulator(SynchronousPolicy()).simulate(
            history([record(1, clients=[0, 1], up=2e6, down=2e6)])
        )
        assert sparse.total_seconds < dense.total_seconds

    def test_time_to_accuracy_reached_or_never(self):
        def priced(accuracies):
            run = history(
                [record(i, clients=[0, 1], accuracy=a) for i, a in enumerate(accuracies, 1)]
            )
            report = simulator(SynchronousPolicy()).simulate(run)
            for rec, seconds in zip(run.rounds, report.round_seconds):
                rec.simulated_seconds = seconds
            return run, report

        run, report = priced((0.3, 0.6, 0.9))
        assert report.time_to_accuracy(run, 0.55) == sum(report.round_seconds[:2])
        assert report.time_to_accuracy(run, 0.99) is None
        curves = {"fast": (0.9,), "slow": (0.1, 0.9), "never": (0.1,)}
        table = compare_simulated_time_to_accuracy(
            {name: priced(curve)[0] for name, curve in curves.items()}, target=0.8
        )
        assert table["fast"] < table["slow"]
        assert table["never"] is None

    def test_no_stragglers_under_synchrony(self):
        run = history([record(1, clients=[0, 1, 2, 3])])
        report = simulator(SynchronousPolicy()).simulate(run)
        assert report.total_stragglers == 0
        # Per-phase events are never scheduled for this round's cohort.
        assert report.trace == ()


class TestDeadlinePolicy:
    def test_slow_tier_misses_a_tight_deadline(self):
        # Pi clients (odd ids) need ~1.4 s; phones ~0.75 s at these bytes.
        run = history([record(1, clients=[0, 1, 2, 3], up=1.6e6, down=1.6e6)])
        report = simulator(DeadlinePolicy(1.0)).simulate(run)
        (outcome,) = report.outcomes
        assert set(outcome.stragglers) == {1, 3}
        assert outcome.round_seconds == pytest.approx(1.5)  # deadline + overhead

    def test_straggler_deliveries_are_excluded_not_discounted(self):
        # Even split over two clients: the phone (id 0) needs ~0.86 s, the
        # Pi (id 1) ~1.5 s, so a 1-second deadline drops only the Pi.
        run = history([record(1, clients=[0, 1], up=1.0e6, down=1.0e6)])
        report = simulator(DeadlinePolicy(1.0)).simulate(run)
        (outcome,) = report.outcomes
        delivered = {d.client_id for d in outcome.deliveries}
        assert delivered == {0}
        assert all(d.weight == 1.0 for d in outcome.deliveries)

    def test_round_closes_early_when_everyone_makes_it(self):
        run = history([record(1, clients=[0, 2], up=1e5, down=1e5)])
        relaxed = simulator(DeadlinePolicy(100.0)).simulate(run)
        sync = simulator(SynchronousPolicy()).simulate(run)
        assert relaxed.total_seconds == sync.total_seconds

    def test_requires_positive_deadline(self):
        with pytest.raises(ValueError):
            DeadlinePolicy(0.0)
        with pytest.raises(ValueError):
            SystemsConfig(round_policy="deadline")  # deadline_seconds unset


class TestAsyncBufferPolicy:
    def test_round_closes_on_kth_arrival(self):
        run = history([record(1, clients=[0, 1, 2, 3], up=1.6e6, down=1.6e6)])
        report = simulator(AsyncBufferPolicy(buffer_size=2)).simulate(run)
        (outcome,) = report.outcomes
        delivered = {d.client_id for d in outcome.deliveries}
        assert delivered == {0, 2}  # the two phones arrive first
        assert set(outcome.stragglers) == {1, 3}
        sync = simulator(SynchronousPolicy()).simulate(run)
        assert report.total_seconds < sync.total_seconds

    def test_stragglers_carry_over_and_deliver_stale(self):
        engine = simulator(AsyncBufferPolicy(buffer_size=2))
        engine.observe(record(1, clients=[0, 1, 2, 3], up=1.6e6, down=1.6e6))
        assert set(engine.in_flight) == {1, 3}
        # Next round samples fresh phones; the in-flight Pi uploads are
        # still pending and land as carried, staleness-discounted
        # deliveries in a later round.
        outcome = engine.observe(record(2, clients=[4, 6], up=1.6e6, down=1.6e6))
        carried = [d for d in outcome.deliveries if d.round_started == 1]
        assert carried, "in-flight uploads never landed"
        assert all(d.staleness == 1 for d in carried)
        assert all(d.weight == pytest.approx(2 ** -0.5) for d in carried)

    def test_busy_clients_do_not_restart(self):
        engine = simulator(AsyncBufferPolicy(buffer_size=2))
        engine.observe(record(1, clients=[0, 1, 2, 3], up=1.6e6, down=1.6e6))
        plan = engine.plan_round(
            2, [1, 4], {1: (1.6e6, 1.6e6), 4: (1.6e6, 1.6e6)}
        )
        assert plan.busy == (1,)
        assert plan.started == (4,)
        engine.complete_round(None)

    def test_all_busy_round_restarts_everyone(self):
        engine = simulator(AsyncBufferPolicy(buffer_size=1))
        engine.observe(record(1, clients=[0, 1, 2, 3], up=1.6e6, down=1.6e6))
        busy = sorted(engine.in_flight)
        plan = engine.plan_round(
            2, busy, {cid: (1.6e6, 1.6e6) for cid in busy}
        )
        assert plan.busy == ()
        assert plan.started == tuple(busy)
        engine.complete_round(None)

    def test_staleness_weight_formula(self):
        policy = AsyncBufferPolicy(buffer_size=1, staleness_exponent=0.5)
        assert policy.weight(0) == 1.0
        assert policy.weight(3) == pytest.approx(0.5)

    def test_auto_buffer_is_half_the_arrivals(self):
        run = history([record(1, clients=[0, 1, 2, 3])])
        report = simulator(AsyncBufferPolicy(buffer_size=0)).simulate(run)
        assert len(report.outcomes[0].deliveries) == 2


class TestDeterminism:
    def test_simulate_twice_identical_outcomes_and_trace(self):
        run = history(
            [record(i, clients=[0, 1, 2, 3], up=1.6e6, down=1.6e6) for i in range(1, 5)]
        )
        engine = simulator(AsyncBufferPolicy(buffer_size=2))
        first, second = engine.simulate(run), engine.simulate(run)
        assert first.trace == second.trace
        assert first.round_seconds == second.round_seconds
        assert [o.deliveries for o in first.outcomes] == [
            o.deliveries for o in second.outcomes
        ]

    def test_jitter_is_seed_deterministic(self):
        run = history([record(i, clients=[0, 1, 2]) for i in range(1, 4)])
        a = simulator(SynchronousPolicy(), jitter=0.3, seed=7).simulate(run)
        b = simulator(SynchronousPolicy(), jitter=0.3, seed=7).simulate(run)
        c = simulator(SynchronousPolicy(), jitter=0.3, seed=8).simulate(run)
        assert a.round_seconds == b.round_seconds
        assert a.round_seconds != c.round_seconds

    def test_carried_upload_events_drain_in_arrival_order(self):
        # Only uploads carried across rounds are scheduled on the heap.
        run = history(
            [record(i, clients=[0, 1, 2, 3], up=1.6e6, down=1.6e6) for i in range(1, 5)]
        )
        report = simulator(AsyncBufferPolicy(buffer_size=1)).simulate(run)
        uploads = [e for e in report.trace if e.kind == UPLOAD_DONE]
        assert uploads
        assert [e.time for e in uploads] == sorted(e.time for e in uploads)


class TestEngineProtocol:
    def test_dangling_plan_self_heals(self):
        engine = simulator(SynchronousPolicy())
        engine.plan_round(1, [0, 1], {0: (1e6, 1e6), 1: (1e6, 1e6)})
        # A second plan without completing the first must not stall time.
        engine.plan_round(2, [0, 1], {0: (1e6, 1e6), 1: (1e6, 1e6)})
        assert engine.clock.now > 0.0
        assert len(engine.outcomes) == 1
        engine.complete_round(None)

    def test_complete_without_plan_raises(self):
        with pytest.raises(RuntimeError):
            simulator(SynchronousPolicy()).complete_round(None)

    def test_repriced_late_delivery_leaves_no_stale_events(self):
        """A planned-delivered client whose actual bytes push its finish
        past the close must not leak events into the next round's trace."""
        engine = simulator(DeadlinePolicy(1.0))
        # Estimate says client 0 (phone) makes the deadline easily...
        engine.plan_round(1, [0], {0: (1e5, 1e5)})
        # ...but the recorded actuals blow way past it.
        late = record(1, clients=[0], per_client={0: (8e6, 8e6)})
        engine.complete_round(late)
        outcome = engine.observe(record(2, clients=[2], up=1e5, down=1e5))
        assert all(e.round_index == 2 for e in outcome.events)
        assert len(engine.clock) == 0

    def test_completion_reprices_from_the_record(self):
        engine = simulator(SynchronousPolicy())
        estimate = {0: (1e5, 1e5)}
        engine.plan_round(1, [0], estimate)
        actual = record(1, clients=[0], per_client={0: (8e6, 8e6)})
        outcome = engine.complete_round(actual)
        # Actual bytes are 80x the estimate; the recorded time reflects them.
        assert outcome.round_seconds > 8.0

    def test_build_round_policy_from_config(self):
        policy = build_round_policy(
            SystemsConfig(round_policy="async-buffer", buffer_size=3)
        )
        assert isinstance(policy, AsyncBufferPolicy)
        assert policy.buffer_size == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            simulator(SynchronousPolicy(), flops_per_example=0)
        with pytest.raises(ValueError):
            simulator(SynchronousPolicy(), jitter=1.5)
        with pytest.raises(KeyError):
            SystemsConfig(round_policy="psychic")


class TestTimelines:
    def test_phases_priced_from_profile_rates(self):
        timeline = build_round_timelines(
            Fleet(cycle=(EDGE_PHONE,)),
            round_index=1,
            start=0.0,
            client_ids=[0],
            traffic={0: (1e6, 8e6)},
            flops_per_example=1e6,
            examples_per_round=100,
        ).view(0)
        assert timeline.upload_seconds == pytest.approx(1.0)  # 1 MB at 1 MB/s
        assert timeline.download_seconds == pytest.approx(1.0)  # 8 MB at 8 MB/s
        assert timeline.compute_seconds == pytest.approx(0.3)
        assert timeline.finish == pytest.approx(2.3)

    def test_missing_traffic_prices_compute_only(self):
        timeline = build_round_timelines(
            Fleet(cycle=(EDGE_PHONE,)),
            round_index=1,
            start=0.0,
            client_ids=[9],
            traffic={},
            flops_per_example=1e6,
            examples_per_round=100,
        ).view(0)
        assert timeline.upload_seconds == 0.0
        assert timeline.duration == pytest.approx(0.3)
