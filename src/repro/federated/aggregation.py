"""Server-side aggregation rules.

Two aggregators matter to the paper:

* :func:`fedavg_average` — the classic example-count-weighted mean of dense
  client states (McMahan et al. 2017).
* :func:`intersection_average` — **Sub-FedAvg**: for every coordinate, the
  plain mean over the clients whose mask keeps that coordinate.  Where no
  sampled client keeps a coordinate, the previous global value is retained.
  This is "taking the average on the intersection of the remaining
  parameters of each subnetwork of each client" (§3.4, step iv).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..pruning import MaskSet

State = Dict[str, np.ndarray]


def fedavg_average(
    states: Sequence[State], weights: Optional[Sequence[float]] = None
) -> State:
    """Weighted mean of client state dicts (weights default to uniform)."""
    if not states:
        raise ValueError("no client states to aggregate")
    if weights is None:
        weights = [1.0] * len(states)
    if len(weights) != len(states):
        raise ValueError("weights and states length mismatch")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    keys = states[0].keys()
    result: State = {}
    for key in keys:
        accumulator = np.zeros_like(states[0][key], dtype=np.float64)
        for state, weight in zip(states, weights):
            accumulator += (weight / total) * state[key]
        result[key] = accumulator
    return result


def intersection_average(
    states: Sequence[State],
    masks: Sequence[Optional[MaskSet]],
    previous_global: State,
) -> State:
    """Sub-FedAvg aggregation.

    For a parameter tensor ``p`` and coordinate ``i``::

        new[i] = mean over {k : mask_k[i] = 1} of state_k[i]   if any keeps i
        new[i] = previous_global[i]                            otherwise

    Tensors a client's mask does not cover (biases, BN statistics in the
    unstructured variant) are treated as fully kept by that client, so they
    reduce to the plain average — matching the reference implementation,
    which averages unmasked tensors across all participants.
    """
    if len(states) != len(masks):
        raise ValueError("states and masks length mismatch")
    if not states:
        raise ValueError("no client states to aggregate")

    result: State = {}
    for key in previous_global.keys():
        numerator = np.zeros_like(previous_global[key], dtype=np.float64)
        denominator = np.zeros_like(previous_global[key], dtype=np.float64)
        for state, mask in zip(states, masks):
            value = state[key]
            keep = None
            if mask is not None:
                keep = mask.get(key)
            if keep is None:
                numerator += value
                denominator += 1.0
            else:
                numerator += value * keep
                denominator += keep
        kept = denominator > 0
        averaged = np.where(kept, numerator / np.where(kept, denominator, 1.0), 0.0)
        result[key] = np.where(kept, averaged, previous_global[key])
    return result


def zero_fill_average(
    states: Sequence[State],
    masks: Sequence[Optional[MaskSet]],
    previous_global: State,
) -> State:
    """Ablation baseline: naive mean treating pruned coordinates as zeros.

    Divides by the number of clients everywhere instead of by the number of
    keepers, so coordinates kept by few clients are dragged toward zero.
    :func:`~repro.experiments.ablations.ablate_aggregation` uses this to
    show why Sub-FedAvg's intersection rule matters; it is not part of the
    paper's algorithm.
    """
    if len(states) != len(masks):
        raise ValueError("states and masks length mismatch")
    if not states:
        raise ValueError("no client states to aggregate")
    count = float(len(states))
    result: State = {}
    for key in previous_global.keys():
        accumulator = np.zeros_like(previous_global[key], dtype=np.float64)
        for state, mask in zip(states, masks):
            value = state[key]
            keep = mask.get(key) if mask is not None else None
            accumulator += value if keep is None else value * keep
        result[key] = accumulator / count
    return result


def partial_average(
    states: Sequence[State],
    names: Sequence[str],
    previous_global: State,
    weights: Optional[Sequence[float]] = None,
) -> State:
    """Average only the named tensors; keep the rest of the global state.

    Used by LG-FedAvg, where only the shared (classifier) layers travel.
    """
    shared = fedavg_average(
        [{name: state[name] for name in names} for state in states], weights
    )
    result = {key: value.copy() for key, value in previous_global.items()}
    result.update(shared)
    return result
