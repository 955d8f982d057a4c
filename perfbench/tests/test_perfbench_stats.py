"""Unit tests of perfbench's statistics rules and span arithmetic.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402
from stats import (  # noqa: E402
    MIN_BEYOND,
    Metric,
    check_metric,
    check_timing_scale,
    percentile,
    self_time,
    spread_ratio,
    union_length,
)
from tracing import Tracer  # noqa: E402

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "BENCHMARK.json",
)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert percentile([0.01] * 99, 90) is None
    assert percentile([0.01] * 100, 90).n == 100
    assert percentile([0.01] * 999, 99) is None
    assert percentile([0.01] * 1000, 99) is not None
    # The integer form must not be defeated by float rounding at the edge.
    assert percentile([0.01] * (MIN_BEYOND * 10), 90) is not None


def test_median_is_emitted_with_its_count():
    metric = percentile([0.3, 0.1, 0.2], 50)
    assert metric.value == pytest.approx(0.2)
    assert metric.n == 3
    assert percentile([], 50) is None


def test_percentile_interpolates_like_numpy():
    samples = [float(i) / 1000 for i in range(1, 101)]
    assert percentile(samples, 90).value == pytest.approx(0.0901)


def test_percentile_rejects_lower_tails():
    with pytest.raises(ValueError):
        percentile([1.0] * 100, 10)


def test_sub_millisecond_timings_are_refused():
    with pytest.raises(ValueError, match="below"):
        check_timing_scale("round_s_p50", Metric(0.0008, "s"))
    check_timing_scale("round_s_p50", Metric(0.002, "s"))
    check_timing_scale("tasks_per_s", Metric(0.0001, "1/s"))


@pytest.mark.parametrize("name", ["", "bad name", "-lead", "x" * 65, "a/b"])
def test_bad_names_are_refused(name):
    with pytest.raises(ValueError):
        check_metric(name, Metric(1.0, "s"))


def test_every_metric_needs_a_unit():
    with pytest.raises(ValueError, match="unit"):
        check_metric("run_s", Metric(1.0, ""))
    check_metric("engine.kernel.calls", Metric(3.0, "count"))


def test_every_declared_metric_name_and_unit_is_valid():
    for name, unit in run.PER_LAYER:
        check_metric(name, Metric(0.0, unit))
    with open(BENCHMARK_JSON) as handle:
        declared = json.load(handle)
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in declared["per_layer"]] == [n for n, _ in run.PER_LAYER]
    assert [m["unit"] for m in declared["per_layer"]] == [u for _, u in run.PER_LAYER]


def test_train_and_evaluate_tasks_are_never_pooled():
    feds = [{"train_s": [0.3] * 100}]  # evaluate latencies live elsewhere
    metrics = run.served_task_latency(feds)
    assert metrics["task_s_p50"].value == pytest.approx(0.3)
    assert metrics["task_s_p90"].n == 100
    assert metrics["task_s_p99"] is None


def test_union_of_overlapping_intervals():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


def test_self_time_subtracts_the_union_of_children():
    # Two overlapping children cover [1, 4]; one pokes past the span's end.
    assert self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0)]) == pytest.approx(7.0)
    assert self_time(0.0, 5.0, [(4.0, 8.0)]) == pytest.approx(4.0)


def test_round_phases_sum_to_the_round(monkeypatch):
    import tracing

    clock = iter([0.0, 0.1, 0.2, 1.0, 2.0, 2.5, 2.6, 3.0])
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(clock))
    tracer = Tracer()
    round_span = tracer.begin("round")              # 0.0
    tracer.end(tracer.begin("round.sample"))        # 0.1 .. 0.2
    tracer.end(tracer.begin("trainer.execute"))     # 1.0 .. 2.0
    tracer.end(tracer.begin("aggregation.fedavg"))  # 2.5 .. 2.6
    tracer.end(round_span)                          # 3.0
    monkeypatch.undo()
    (phases,) = tracer.round_phases()
    assert phases["sample"] == pytest.approx(0.1)
    assert phases["execute"] == pytest.approx(1.0)
    assert phases["aggregate"] == pytest.approx(0.1)
    assert phases["self"] == pytest.approx(1.8)
    parts = sum(phases[k] for k in tracing.PHASES)
    assert parts == pytest.approx(phases["total"]) == pytest.approx(3.0)


def test_spans_record_their_parent():
    tracer = Tracer()
    outer = tracer.begin("round")
    inner = tracer.begin("trainer.execute")
    tracer.end(inner)
    tracer.end(outer)
    assert inner[4] == outer[0]
    assert outer[4] == 0


def test_spread_ratio_is_the_interquartile_share_of_the_median():
    assert spread_ratio([1.0] * 10) == 0.0
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert spread_ratio(values) == pytest.approx((4.5 - 1.5) / 3.0)
