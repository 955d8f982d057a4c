"""Lifecycle callbacks observing (and steering) a federated run.

:meth:`FederatedTrainer.run() <repro.federated.trainers.base.FederatedTrainer.run>`
accepts a list of callbacks and invokes, in list order:

* ``on_run_start(trainer)`` — once, before the first round (checkpoint
  restore happens here, so a callback may pre-populate the history),
* ``on_round_start(trainer, round_index, sampled)``,
* ``on_evaluate(trainer, round_index, accuracy)`` — after each periodic
  all-client evaluation (``eval_every``),
* ``on_round_end(trainer, round_index, record)`` — the record is mutable;
  callbacks may annotate it (e.g. simulated seconds) or call
  ``trainer.request_stop()`` to end the round loop early,
* ``on_run_end(trainer, history)`` — once, after the final evaluation.

Built-ins cover the common run furniture: :class:`ProgressLogger`,
:class:`EarlyStopping` and :class:`CheckpointCallback` (the callback form
of the old ``run_with_checkpoints`` driver).  Live per-round simulated
seconds come from :class:`~repro.systems.callback.FleetSimCallback`.
"""

from __future__ import annotations

import sys
from dataclasses import fields
from pathlib import Path
from typing import Iterable, List, Optional

from .metrics import History, RoundRecord

#: Hook names dispatched by :class:`CallbackList`, in lifecycle order.
HOOKS = (
    "on_run_start",
    "on_round_start",
    "on_evaluate",
    "on_round_end",
    "on_run_end",
)


class Callback:
    """No-op base class; subclass and override the hooks you need."""

    def on_run_start(self, trainer) -> None:
        """Called once before the round loop starts."""

    def on_round_start(self, trainer, round_index: int, sampled: List[int]) -> None:
        """Called before each communication round executes."""

    def on_evaluate(self, trainer, round_index: int, accuracy: float) -> None:
        """Called after each periodic all-client evaluation."""

    def on_round_end(self, trainer, round_index: int, record: RoundRecord) -> None:
        """Called after each round's record is appended to the history."""

    def on_run_end(self, trainer, history: History) -> None:
        """Called once after the final evaluation."""


class CallbackList:
    """Dispatches each hook to every callback, preserving list order.

    Callbacks need not subclass :class:`Callback`; any object exposing a
    subset of the hook methods works (missing hooks are skipped).
    """

    def __init__(self, callbacks: Optional[Iterable] = None) -> None:
        self.callbacks = list(callbacks or ())

    def dispatch(self, hook: str, *args) -> None:
        if hook not in HOOKS:
            raise ValueError(f"unknown callback hook {hook!r}; choose from {HOOKS}")
        for callback in self.callbacks:
            method = getattr(callback, hook, None)
            if method is not None:
                method(*args)

    def on_run_start(self, trainer) -> None:
        self.dispatch("on_run_start", trainer)

    def on_round_start(self, trainer, round_index, sampled) -> None:
        self.dispatch("on_round_start", trainer, round_index, sampled)

    def on_evaluate(self, trainer, round_index, accuracy) -> None:
        self.dispatch("on_evaluate", trainer, round_index, accuracy)

    def on_round_end(self, trainer, round_index, record) -> None:
        self.dispatch("on_round_end", trainer, round_index, record)

    def on_run_end(self, trainer, history) -> None:
        self.dispatch("on_run_end", trainer, history)


class ProgressLogger(Callback):
    """Prints a one-line summary of every ``every``-th round."""

    def __init__(self, every: int = 1, stream=None) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.every = every
        self.stream = stream

    def _print(self, message: str) -> None:
        print(message, file=self.stream if self.stream is not None else sys.stdout)

    def on_round_end(self, trainer, round_index: int, record: RoundRecord) -> None:
        if round_index % self.every:
            return
        parts = [
            f"round {round_index}/{trainer.rounds}",
            f"loss={record.train_loss:.4f}",
        ]
        if record.mean_accuracy is not None:
            parts.append(f"acc={record.mean_accuracy:.3f}")
        if record.mean_sparsity:
            parts.append(f"sparsity={record.mean_sparsity:.0%}")
        parts.append(f"up={record.uploaded_bytes / 1e6:.2f}MB")
        if record.simulated_seconds is not None:
            parts.append(f"t={record.simulated_seconds:.1f}s")
        self._print("  ".join(parts))

    def on_run_end(self, trainer, history: History) -> None:
        if history.final_accuracy is not None:
            self._print(
                f"{history.algorithm}: final personalized accuracy "
                f"{history.final_accuracy:.4f} after {len(history.rounds)} rounds"
            )


class EarlyStopping(Callback):
    """Stops the round loop when a monitored metric stalls (or hits a target).

    ``monitor`` names a :class:`RoundRecord` field (``"train_loss"`` is
    always populated; ``"mean_accuracy"`` requires ``eval_every``).  Rounds
    where the metric is missing do not count toward patience.  The history
    is truncated but consistent: the trainer still runs its final
    all-client evaluation, so ``final_accuracy`` is always set.
    """

    def __init__(
        self,
        monitor: str = "train_loss",
        mode: str = "auto",
        patience: int = 3,
        min_delta: float = 0.0,
        target: Optional[float] = None,
    ) -> None:
        if mode not in ("auto", "min", "max"):
            raise ValueError(f"mode must be auto/min/max, got {mode!r}")
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        record_fields = tuple(spec.name for spec in fields(RoundRecord))
        if monitor not in record_fields:
            raise ValueError(
                f"monitor must be a RoundRecord field, got {monitor!r}; "
                f"choose from {record_fields}"
            )
        if mode == "auto":
            mode = "min" if "loss" in monitor else "max"
        self.monitor = monitor
        self.mode = mode
        self.patience = patience
        self.min_delta = min_delta
        self.target = target
        self.best: Optional[float] = None
        self.stale_rounds = 0
        self.stopped_round: Optional[int] = None

    def on_run_start(self, trainer) -> None:
        # Reset per-run state so one instance can be reused across runs.
        self.best = None
        self.stale_rounds = 0
        self.stopped_round = None

    def _improved(self, value: float) -> bool:
        if self.best is None:
            return True
        if self.mode == "min":
            return value < self.best - self.min_delta
        return value > self.best + self.min_delta

    def _reached_target(self, value: float) -> bool:
        if self.target is None:
            return False
        return value <= self.target if self.mode == "min" else value >= self.target

    def on_round_end(self, trainer, round_index: int, record: RoundRecord) -> None:
        value = getattr(record, self.monitor, None)
        if value is None:
            return
        if self._reached_target(value):
            self.stopped_round = round_index
            trainer.request_stop()
            return
        if self._improved(value):
            self.best = value
            self.stale_rounds = 0
        else:
            self.stale_rounds += 1
            if self.stale_rounds >= self.patience:
                self.stopped_round = round_index
                trainer.request_stop()


class CheckpointCallback(Callback):
    """Snapshots the trainer every ``every`` rounds; resumes if a file exists.

    The callback form of the old ``run_with_checkpoints`` driver: restoring
    a checkpoint in ``on_run_start`` pre-populates the trainer's history,
    which makes the round loop skip the already-completed rounds.
    """

    def __init__(self, path, every: int = 10, resume: bool = True) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.path = Path(path)
        self.every = every
        self.resume = resume
        self.restored_rounds = 0
        self._last_saved: Optional[int] = None

    def on_run_start(self, trainer) -> None:
        from .checkpoint import load_checkpoint

        self._last_saved = None
        self.restored_rounds = 0
        if self.resume and self.path.exists():
            self.restored_rounds = load_checkpoint(self.path, trainer)
        elif not self.resume:
            trainer.history = History(algorithm=trainer.algorithm_name)

    def on_round_end(self, trainer, round_index: int, record: RoundRecord) -> None:
        from .checkpoint import save_checkpoint

        if (
            round_index % self.every == 0
            or round_index == trainer.rounds
            or trainer.stop_requested
        ):
            save_checkpoint(self.path, trainer, round_index)
            self._last_saved = round_index

    def on_run_end(self, trainer, history: History) -> None:
        # Backstop for early-stopped runs: if another callback (listed after
        # this one) requested the stop, the last completed round may not have
        # hit a checkpoint boundary — persist it so a resume does not silently
        # retrain past the stop decision.
        from .checkpoint import save_checkpoint

        completed = len(history.rounds)
        if completed and self._last_saved != completed:
            save_checkpoint(self.path, trainer, completed)
            self._last_saved = completed
