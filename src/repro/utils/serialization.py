"""Persistence for model states, masks and run histories.

State dicts and mask sets serialize to ``.npz`` archives; run histories
serialize to JSON.  Round-tripping is exact for float64 arrays, which the
checkpoint/restore tests rely on.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Union

import numpy as np

from ..federated.metrics import History, RoundRecord
from ..pruning import MaskSet

PathLike = Union[str, Path]


def save_state(path: PathLike, state: Dict[str, np.ndarray]) -> None:
    """Write a state dict (or any name->array mapping) to an ``.npz`` file."""
    np.savez(Path(path), **state)


def load_state(path: PathLike) -> Dict[str, np.ndarray]:
    """Read a state dict written by :func:`save_state`."""
    with np.load(Path(path)) as archive:
        return {name: archive[name].copy() for name in archive.files}


def save_mask(path: PathLike, mask: MaskSet) -> None:
    """Persist a mask set (stored as uint8 to keep archives small)."""
    np.savez(Path(path), **{name: value.astype(np.uint8) for name, value in mask.items()})


def load_mask(path: PathLike) -> MaskSet:
    with np.load(Path(path)) as archive:
        return MaskSet({name: archive[name].astype(np.float64) for name in archive.files})


def history_to_dict(history: History) -> Dict:
    """JSON-safe dict for a run history (arrays are plain lists)."""
    return {
        "algorithm": history.algorithm,
        "final_accuracy": history.final_accuracy,
        "final_per_client_accuracy": {
            str(cid): acc for cid, acc in history.final_per_client_accuracy.items()
        },
        "total_communication_bytes": history.total_communication_bytes,
        "rounds": [asdict(record) for record in history.rounds],
    }


def _round_record(fields: Dict) -> RoundRecord:
    fields = dict(fields)
    # Histories written before simulated time had one name stored it as
    # ``wall_clock_seconds``; it carries the same simulated seconds.
    legacy_seconds = fields.pop("wall_clock_seconds", None)
    if fields.get("simulated_seconds") is None and legacy_seconds is not None:
        fields["simulated_seconds"] = legacy_seconds
    return RoundRecord(**fields)


def history_from_dict(payload: Dict) -> History:
    """Inverse of :func:`history_to_dict`; the round trip is exact."""
    history = History(algorithm=payload["algorithm"])
    for record in payload["rounds"]:
        history.rounds.append(_round_record(record))
    history.final_accuracy = payload["final_accuracy"]
    history.final_per_client_accuracy = {
        int(cid): acc for cid, acc in payload["final_per_client_accuracy"].items()
    }
    history.total_communication_bytes = payload["total_communication_bytes"]
    return history


def save_history(path: PathLike, history: History) -> None:
    """Serialize a run history to JSON."""
    Path(path).write_text(json.dumps(history_to_dict(history), indent=2))


def load_history(path: PathLike) -> History:
    return history_from_dict(json.loads(Path(path).read_text()))
