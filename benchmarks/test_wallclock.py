"""Benchmark: seconds-to-accuracy under edge device profiles.

Converts the Figure 3 convergence curves into simulated wall-clock time on
a 1 MB/s-uplink edge device — the deployment framing behind the paper's
communication argument.
"""

import pytest

from repro.experiments import run_convergence
from repro.federated.accounting import dense_conv_flops
from repro.models import create_model
from repro.systems import EDGE_PHONE, Fleet, FleetSimulator, SynchronousPolicy

TARGET = 0.7


@pytest.mark.benchmark(group="wallclock")
def test_seconds_to_accuracy(benchmark, once, capsys):
    histories = once(
        benchmark,
        run_convergence,
        "mnist",
        algorithms=("sub-fedavg-un", "fedavg"),
        preset="smoke",
        seed=0,
    )
    flops = dense_conv_flops(create_model("mnist"), 28)
    simulator = FleetSimulator(
        Fleet(cycle=(EDGE_PHONE,)),
        SynchronousPolicy(),
        flops_per_example=flops,
        examples_per_round=60 * 3,  # shard size x local epochs at smoke scale
    )
    reports = {name: simulator.simulate(history) for name, history in histories.items()}
    table = {
        name: reports[name].time_to_accuracy(history, TARGET)
        for name, history in histories.items()
    }
    totals = {name: report.total_seconds for name, report in reports.items()}

    with capsys.disabled():
        print(f"\nSimulated wall-clock on {EDGE_PHONE.name} (uplink 1 MB/s):")
        for name, seconds in table.items():
            text = f"{seconds:.1f} s" if seconds is not None else "never"
            print(
                f"  {name:>14}: to {TARGET:.0%} accuracy in {text} "
                f"(full run {totals[name]:.1f} s)"
            )

    # Sub-FedAvg's cheaper uplink must not make the full run slower.
    assert totals["sub-fedavg-un"] <= totals["fedavg"] + 1.0
