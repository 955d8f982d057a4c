"""Regenerate ``pins.json``: the final accuracy of every pinned seed.

    python3 perfbench/pin.py --seeds 0-31

Run from the repository root after changing a workload's shape.  The
fleet workload is pinned from the ``serial`` backend, so its benchmark
runs (``process`` backend) check that forked execution matches serial
execution.  The served workload needs no pin: echo clients fix its
accuracy at 0.5.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import federation_config  # noqa: E402

PINNED = ("hybrid-cifar10", "unstructured-mnist-fleet")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range A-B")
    args = parser.parse_args(argv)
    first, last = (int(part) for part in args.seeds.split("-"))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(1, os.path.join(os.getcwd(), "src"))
    from repro.federated import Federation

    pins = {workload: {} for workload in PINNED}
    for workload in PINNED:
        for seed in range(first, last + 1):
            config = federation_config(workload, seed, backend="serial")
            accuracy = Federation.from_config(config).run().final_accuracy
            pins[workload][str(seed)] = accuracy
            print(f"{workload} seed {seed}: {accuracy!r}", flush=True)
    with open(os.path.join(HERE, "pins.json"), "w") as handle:
        json.dump({"accuracy": pins}, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
