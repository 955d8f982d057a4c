"""Checkpoint/resume for long federated runs.

The ``paper`` preset (100 clients, 500 rounds) takes hours on CPU; these
helpers snapshot a trainer mid-run and restore it so runs survive
interruption.  A checkpoint captures:

* the global state dict,
* the completed-round count and run history,
* each client's personal model state,
* for Sub-FedAvg trainers: each client's committed masks and pruning rates.

Sampler RNG state is *not* captured (numpy generators are not portable
across versions); resuming re-seeds sampling, which changes which clients
are drawn after the resume point but not the algorithm's semantics.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Union

from ..utils.serialization import history_from_dict, history_to_dict
from .metrics import History
from .trainers.base import FederatedTrainer
from .trainers.subfedavg import SubFedAvgTrainer

PathLike = Union[str, Path]

FORMAT_VERSION = 1


def save_checkpoint(path: PathLike, trainer: FederatedTrainer, completed_rounds: int) -> None:
    """Write a resumable snapshot of ``trainer`` after ``completed_rounds``."""
    payload = {
        "version": FORMAT_VERSION,
        "algorithm": trainer.algorithm_name,
        "completed_rounds": completed_rounds,
        "global_state": trainer.global_state,
        "history": history_to_dict(trainer.history),
        "clients": {},
    }
    for client in trainer.clients:
        entry = {"model": client.state_dict()}
        if isinstance(trainer, SubFedAvgTrainer):
            controller = client.controller
            entry["un_mask"] = {name: controller.un_mask[name] for name in controller.un_mask}
            entry["un_rate"] = controller.un_rate
            entry["ch_mask"] = {name: controller.ch_mask[name] for name in controller.ch_mask}
            entry["st_rate"] = controller.st_rate
        payload["clients"][client.client_id] = entry
    with open(path, "wb") as handle:
        pickle.dump(payload, handle)


def load_checkpoint(path: PathLike, trainer: FederatedTrainer) -> int:
    """Restore ``trainer`` in place; returns the completed-round count.

    The trainer must have been built with the same configuration
    (same algorithm, client count and model architecture) — mismatches
    raise rather than silently corrupting the run.
    """
    with open(path, "rb") as handle:
        payload = pickle.load(handle)
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')}")
    if payload["algorithm"] != trainer.algorithm_name:
        raise ValueError(
            f"checkpoint is for {payload['algorithm']!r}, trainer is "
            f"{trainer.algorithm_name!r}"
        )
    if set(payload["clients"]) != {client.client_id for client in trainer.clients}:
        raise ValueError("checkpoint client ids do not match the trainer's clients")

    trainer.global_state = payload["global_state"]
    trainer.history = history_from_dict(payload["history"])
    # A ClientPool would drop a restored client on eviction: its RNG
    # stream did not move, so it looks untouched.  Mark each one dirty
    # before the next lookup can evict it.
    mark_dirty = getattr(trainer.clients, "mark_dirty", None)
    for index, client in enumerate(trainer.clients):
        entry = payload["clients"][client.client_id]
        client.model.load_state_dict(entry["model"])
        if isinstance(trainer, SubFedAvgTrainer):
            controller = client.controller
            for name, mask in entry["un_mask"].items():
                controller.un_mask[name] = mask
            controller.un_rate = entry["un_rate"]
            for name, mask in entry["ch_mask"].items():
                controller.ch_mask[name] = mask
            controller.st_rate = entry["st_rate"]
            trainer.client_sparsity[index] = controller.unstructured_sparsity()
            trainer.client_channel_sparsity[index] = controller.channel_sparsity()
        if mark_dirty is not None:
            mark_dirty(index)
    return int(payload["completed_rounds"])


def run_with_checkpoints(
    trainer: FederatedTrainer,
    path: PathLike,
    every: int = 10,
    resume: bool = True,
) -> History:
    """Deprecated shim over the callback API.

    Equivalent to ``trainer.run(callbacks=[CheckpointCallback(path,
    every=every, resume=resume)])``, which is the preferred spelling — it
    composes with other callbacks (progress, early stopping, fleet time).
    """
    from .callbacks import CheckpointCallback

    return trainer.run(callbacks=[CheckpointCallback(path, every=every, resume=resume)])
