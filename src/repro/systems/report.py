"""Time-to-accuracy reporting over simulated fleet time.

The deployment-relevant question is not "how many rounds to X% accuracy"
but "how many *seconds* on the target fleet".  These helpers read the
``simulated_seconds`` the fleet simulator stamped on each round record
(:class:`~repro.systems.callback.FleetSimCallback`), so every figure and
table driver can report a time axis.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


def simulated_time_curve(history) -> List[Tuple[float, float]]:
    """(cumulative simulated seconds, mean accuracy) pairs of one history.

    Rounds without a duration advance the accuracy axis but not the time
    axis; rounds without an accuracy measurement are skipped, matching
    :meth:`History.accuracy_curve <repro.federated.metrics.History.accuracy_curve>`.
    """
    curve: List[Tuple[float, float]] = []
    elapsed = 0.0
    for record in history.rounds:
        seconds = record.simulated_seconds
        if seconds is not None:
            elapsed += seconds
        if record.mean_accuracy is not None:
            curve.append((elapsed, record.mean_accuracy))
    return curve


def simulated_time_to_accuracy(history, target: float) -> Optional[float]:
    """Simulated seconds until mean accuracy reaches ``target`` (or None)."""
    for elapsed, accuracy in simulated_time_curve(history):
        if accuracy >= target:
            return elapsed
    return None


def compare_simulated_time_to_accuracy(
    histories: Dict[str, "object"], target: float
) -> Dict[str, Optional[float]]:
    """Per-algorithm simulated seconds-to-target (the Fig-3 time axis)."""
    return {
        name: simulated_time_to_accuracy(history, target)
        for name, history in histories.items()
    }


def total_simulated_seconds(history) -> Optional[float]:
    """Sum of per-round simulated seconds (None when no round is priced)."""
    priced = [
        record.simulated_seconds
        for record in history.rounds
        if record.simulated_seconds is not None
    ]
    if not priced:
        return None
    return float(sum(priced))


def total_stragglers(history) -> int:
    """How many client-rounds missed their close across the whole run."""
    return sum(len(record.stragglers or ()) for record in history.rounds)
