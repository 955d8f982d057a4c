"""Lifecycle callbacks: dispatch order, early stopping, built-ins."""

import io

import pytest

from repro.federated import (
    Callback,
    CallbackList,
    CheckpointCallback,
    EarlyStopping,
    Federation,
    FederationConfig,
    LocalTrainConfig,
    ProgressLogger,
    SystemsConfig,
)


def tiny_federation(rounds=2, eval_every=0, algorithm="fedavg", systems=None):
    config = FederationConfig(
        dataset="mnist",
        algorithm=algorithm,
        num_clients=3,
        rounds=rounds,
        sample_fraction=1.0,
        n_train=120,
        n_test=60,
        seed=0,
        eval_every=eval_every,
        local=LocalTrainConfig(epochs=1, batch_size=10),
        systems=systems,
    )
    return Federation.from_config(config)


class Recorder(Callback):
    """Logs every hook invocation as (tag, hook, round_index_or_None)."""

    def __init__(self, tag, log):
        self.tag = tag
        self.log = log

    def on_run_start(self, trainer):
        self.log.append((self.tag, "on_run_start", None))

    def on_round_start(self, trainer, round_index, sampled):
        self.log.append((self.tag, "on_round_start", round_index))

    def on_evaluate(self, trainer, round_index, accuracy):
        self.log.append((self.tag, "on_evaluate", round_index))

    def on_round_end(self, trainer, round_index, record):
        self.log.append((self.tag, "on_round_end", round_index))

    def on_run_end(self, trainer, history):
        self.log.append((self.tag, "on_run_end", None))


class TestDispatchOrder:
    def test_lifecycle_sequence(self):
        log = []
        tiny_federation(rounds=2).run(callbacks=[Recorder("a", log)])
        assert [(hook, rnd) for _, hook, rnd in log] == [
            ("on_run_start", None),
            ("on_round_start", 1),
            ("on_round_end", 1),
            ("on_round_start", 2),
            ("on_round_end", 2),
            ("on_run_end", None),
        ]

    def test_custom_callback_observes_every_round(self):
        """Acceptance: a registered callback sees all rounds of a run."""
        log = []
        federation = tiny_federation(rounds=4)
        federation.run(callbacks=[Recorder("a", log)])
        seen = [rnd for _, hook, rnd in log if hook == "on_round_end"]
        assert seen == [1, 2, 3, 4]

    def test_on_evaluate_fires_with_eval_every(self):
        log = []
        tiny_federation(rounds=2, eval_every=1).run(callbacks=[Recorder("a", log)])
        hooks = [(hook, rnd) for _, hook, rnd in log]
        # evaluation happens between round start and round end, every round
        assert hooks.index(("on_evaluate", 1)) == hooks.index(("on_round_start", 1)) + 1
        assert ("on_evaluate", 2) in hooks

    def test_callbacks_invoked_in_list_order(self):
        log = []
        tiny_federation(rounds=1).run(
            callbacks=[Recorder("first", log), Recorder("second", log)]
        )
        per_hook = {}
        for tag, hook, _ in log:
            per_hook.setdefault(hook, []).append(tag)
        for tags in per_hook.values():
            assert tags == ["first", "second"]

    def test_duck_typed_partial_callback(self):
        class OnlyRoundEnd:
            def __init__(self):
                self.rounds = []

            def on_round_end(self, trainer, round_index, record):
                self.rounds.append(round_index)

        partial = OnlyRoundEnd()
        tiny_federation(rounds=2).run(callbacks=[partial])
        assert partial.rounds == [1, 2]

    def test_unknown_hook_rejected(self):
        with pytest.raises(ValueError, match="unknown callback hook"):
            CallbackList([]).dispatch("on_coffee_break")


class TestEarlyStopping:
    def test_halts_loop_with_truncated_consistent_history(self):
        federation = tiny_federation(rounds=10)
        # min_delta is impossible to beat, so patience expires immediately.
        stopper = EarlyStopping(monitor="train_loss", patience=2, min_delta=100.0)
        history = federation.run(callbacks=[stopper])
        assert stopper.stopped_round == 3  # round 1 sets best, 2-3 are stale
        assert len(history.rounds) == 3
        # Truncated but consistent: the final evaluation still ran.
        assert history.final_accuracy is not None
        assert len(history.final_per_client_accuracy) == 3

    def test_target_accuracy_stops_run(self):
        federation = tiny_federation(rounds=10, eval_every=1)
        stopper = EarlyStopping(monitor="mean_accuracy", target=0.0)
        history = federation.run(callbacks=[stopper])
        assert stopper.stopped_round == 1
        assert len(history.rounds) == 1

    def test_missing_metric_rounds_do_not_count(self):
        # mean_accuracy never measured (eval_every=0): must run to completion.
        federation = tiny_federation(rounds=3)
        stopper = EarlyStopping(monitor="mean_accuracy", patience=1)
        history = federation.run(callbacks=[stopper])
        assert stopper.stopped_round is None
        assert len(history.rounds) == 3

    def test_mode_auto_infers_direction(self):
        assert EarlyStopping(monitor="train_loss").mode == "min"
        assert EarlyStopping(monitor="mean_accuracy").mode == "max"

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)
        with pytest.raises(ValueError):
            EarlyStopping(mode="sideways")

    def test_misspelled_monitor_rejected(self):
        with pytest.raises(ValueError, match="RoundRecord field"):
            EarlyStopping(monitor="mean_acc")

    def test_instance_reusable_across_runs(self):
        stopper = EarlyStopping(monitor="train_loss", patience=2, min_delta=100.0)
        first = tiny_federation(rounds=10).run(callbacks=[stopper])
        assert stopper.stopped_round == 3
        # A fresh run with the same instance must not inherit best/staleness.
        second = tiny_federation(rounds=10).run(callbacks=[stopper])
        assert len(second.rounds) == len(first.rounds)
        assert stopper.stopped_round == 3  # re-derived, not carried over


class TestBuiltins:
    def test_progress_logger_writes_stream(self):
        stream = io.StringIO()
        tiny_federation(rounds=2).run(callbacks=[ProgressLogger(stream=stream)])
        out = stream.getvalue()
        assert "round 1/2" in out
        assert "final personalized accuracy" in out

    def test_progress_logger_every(self):
        stream = io.StringIO()
        tiny_federation(rounds=2).run(callbacks=[ProgressLogger(every=2, stream=stream)])
        out = stream.getvalue()
        assert "round 1/2" not in out
        assert "round 2/2" in out

    def test_progress_logger_prints_simulated_time(self):
        """The automatic fleet callback runs first, so every round line
        carries the round's simulated seconds."""
        stream = io.StringIO()
        systems = SystemsConfig(flops_per_example=1e6, examples_per_round=40.0)
        history = tiny_federation(rounds=2, systems=systems).run(
            callbacks=[ProgressLogger(stream=stream)]
        )
        lines = [
            line for line in stream.getvalue().splitlines() if line.startswith("round ")
        ]
        assert len(lines) == 2
        for line, record in zip(lines, history.rounds):
            assert f"t={record.simulated_seconds:.1f}s" in line

    def test_checkpoint_callback_resumes(self, tmp_path):
        path = tmp_path / "ckpt.pkl"
        first = tiny_federation(rounds=2)
        first.run(callbacks=[CheckpointCallback(path, every=1)])

        resumed = tiny_federation(rounds=4)
        log = []
        history = resumed.run(
            callbacks=[CheckpointCallback(path, every=1), Recorder("a", log)]
        )
        assert len(history.rounds) == 4
        # only rounds 3-4 executed live; 1-2 came from the checkpoint
        executed = [rnd for _, hook, rnd in log if hook == "on_round_start"]
        assert executed == [3, 4]

    def test_checkpoint_callback_invalid_every(self):
        with pytest.raises(ValueError):
            CheckpointCallback("x.pkl", every=0)

    def test_checkpoint_persists_early_stopped_round(self, tmp_path):
        """Early stop between boundaries must still be durable on resume."""
        from repro.federated import load_checkpoint

        path = tmp_path / "ckpt.pkl"
        federation = tiny_federation(rounds=10)
        stopper = EarlyStopping(monitor="train_loss", patience=2, min_delta=100.0)
        # Checkpoint boundary (every=10) is never reached before the stop;
        # the callback is listed first, so only the run-end backstop saves.
        history = federation.run(
            callbacks=[CheckpointCallback(path, every=10), stopper]
        )
        assert len(history.rounds) == 3
        fresh = tiny_federation(rounds=10)
        assert load_checkpoint(path, fresh.trainer) == 3
