"""Sweep engine: spec expansion, hashing, failure isolation, resume, parity."""

import json

import pytest

from repro.experiments import (
    PRESETS,
    ResultStore,
    SweepCell,
    SweepError,
    SweepRunner,
    SweepSpec,
    Variant,
    federation_config,
    run_algorithm,
    run_sweep,
    smoke_spec,
)
from repro.federated import DataConfig, Federation, FederationConfig, SystemsConfig
from repro.pruning import UnstructuredConfig


def tiny_config(**overrides) -> FederationConfig:
    """A federation small enough that a cell runs in well under a second."""
    defaults = dict(
        dataset="mnist",
        algorithm="fedavg",
        num_clients=4,
        rounds=2,
        sample_fraction=0.5,
        data=DataConfig(n_train=96, n_test=48),
        seed=0,
    )
    defaults.update(overrides)
    return FederationConfig(**defaults)


def tiny_cell(key="cell", **overrides) -> SweepCell:
    return SweepCell(key=key, config=tiny_config(**overrides))


FLEET_CELL = dict(
    systems=SystemsConfig(
        round_policy="deadline", deadline_seconds=1.0,
        flops_per_example=1e6, examples_per_round=100.0,
    )
)


def _write_compute_section(payload):
    """What every store cell carried while configs had a compute section."""
    payload["config"]["compute"] = {"engine": "eager", "runtime": "numpy", "fusion": True}


def _write_pricing_fields(payload):
    """What every fleet store cell carried while ``systems.pricing`` and
    ``RoundRecord.wall_clock_seconds`` existed."""
    payload["config"]["systems"]["pricing"] = "vector"
    for record in payload["history"]["rounds"]:
        record["wall_clock_seconds"] = None


class TestSpecExpansion:
    def test_axes_product_and_order(self):
        spec = SweepSpec(
            name="grid",
            datasets=("mnist", "emnist"),
            algorithms=("fedavg", "standalone"),
            seeds=(0, 1),
        )
        cells = spec.expand()
        assert len(cells) == 2 * 2 * 2
        # datasets outermost, then algorithms, then seeds innermost
        assert cells[0].key == "grid/mnist/fedavg/seed0"
        assert cells[1].key == "grid/mnist/fedavg/seed1"
        assert cells[2].key == "grid/mnist/standalone/seed0"
        assert cells[4].key == "grid/emnist/fedavg/seed0"

    def test_cells_carry_full_configs(self):
        spec = SweepSpec(name="grid", datasets=("mnist",), algorithms=("fedavg",))
        (cell,) = spec.expand()
        preset = PRESETS["smoke"]
        assert cell.config.dataset == "mnist"
        assert cell.config.algorithm == "fedavg"
        assert cell.config.num_clients == preset.num_clients
        assert cell.config.rounds == preset.rounds

    def test_variant_pins_pruning_and_trainer_overrides(self):
        variant = Variant(
            label="un@50",
            algorithm="sub-fedavg-un",
            unstructured=UnstructuredConfig(target_rate=0.5, step=0.2),
            trainer_overrides={"aggregator": "zerofill"},
            tags={"target": 0.5},
        )
        spec = SweepSpec(name="grid", datasets=("mnist",), algorithms=(variant,))
        (cell,) = spec.expand()
        assert cell.key == "grid/mnist/un@50/seed0"
        assert cell.config.unstructured.target_rate == 0.5
        assert cell.trainer_overrides == {"aggregator": "zerofill"}
        assert cell.tags["target"] == 0.5

    def test_override_axis_labels_keys_and_configures_cells(self):
        spec = SweepSpec(
            name="grid",
            datasets=("mnist",),
            algorithms=("fedavg",),
            base={"data": {"partition": "dirichlet"}},
            overrides={
                "alpha=0.1": {"data": {"dirichlet_alpha": 0.1}},
                "alpha=5": {"data": {"dirichlet_alpha": 5.0}},
            },
        )
        cells = spec.expand()
        assert [cell.key for cell in cells] == [
            "grid/mnist/fedavg/alpha=0.1/seed0",
            "grid/mnist/fedavg/alpha=5/seed0",
        ]
        assert all(cell.config.data.partition == "dirichlet" for cell in cells)
        assert cells[0].config.data.dirichlet_alpha == 0.1
        assert cells[1].config.data.dirichlet_alpha == 5.0
        # The preset's sizes survive the merged data overrides.
        assert cells[0].config.data.n_train == PRESETS["smoke"].n_train

    def test_eval_every_override_routes_to_dedicated_parameter(self):
        spec = SweepSpec(
            name="grid",
            datasets=("mnist",),
            algorithms=("fedavg",),
            base={"eval_every": 1},
        )
        (cell,) = spec.expand()
        assert cell.config.eval_every == 1

    def test_smoke_spec_is_the_ci_2x2_grid(self):
        cells = smoke_spec().expand()
        assert len(cells) == 4
        assert {cell.config.dataset for cell in cells} == {"mnist", "emnist"}
        assert {cell.config.algorithm for cell in cells} == {
            "fedavg",
            "sub-fedavg-un",
        }
        assert all(cell.config.rounds == PRESETS["smoke"].rounds for cell in cells)


class TestConfigHash:
    def test_stable_across_field_ordering(self):
        config = tiny_config()
        payload = config.to_dict()
        reordered = dict(reversed(list(payload.items())))
        assert list(reordered) != list(payload)
        assert FederationConfig.from_dict(reordered).stable_hash() == config.stable_hash()

    def test_differs_when_any_field_differs(self):
        assert tiny_config().stable_hash() != tiny_config(seed=1).stable_hash()
        assert (
            tiny_config().stable_hash()
            != tiny_config(algorithm="standalone").stable_hash()
        )

    def test_trainer_overrides_fold_into_cell_hash_order_independently(self):
        plain = tiny_cell()
        tweaked = SweepCell(
            key="cell", config=tiny_config(), trainer_overrides={"a": 1, "b": 2}
        )
        reordered = SweepCell(
            key="cell", config=tiny_config(), trainer_overrides={"b": 2, "a": 1}
        )
        assert tweaked.config_hash != plain.config_hash
        assert tweaked.config_hash == reordered.config_hash

    def test_tags_and_key_do_not_affect_the_hash(self):
        a = SweepCell(key="a", config=tiny_config(), tags={"color": "red"})
        b = SweepCell(key="b", config=tiny_config(), tags={"color": "blue"})
        assert a.config_hash == b.config_hash


class TestGridHashPins:
    """Cell hashes of the data-scenario ablation grids, pinned while their
    overrides were flat keywords: re-spelling them as nested ``data``
    mappings must not orphan stored sweep results."""

    @pytest.mark.parametrize(
        "grid, key, expected",
        [
            ("heterogeneity", "sub-fedavg-un/alpha=0.1", "b4b8ebb3c7ac90e7"),
            ("heterogeneity", "fedavg/alpha=5", "4925c9b2c8e1f7f3"),
            ("partition", "sub-fedavg-un/label-k", "8426b454ac38becb"),
            ("partition", "fedavg/iid", "b0e6507bf7ba5897"),
        ],
    )
    def test_expanded_cell_hash_pinned(self, grid, key, expected):
        from repro.experiments import heterogeneity_spec, partition_spec

        spec = {"heterogeneity": heterogeneity_spec, "partition": partition_spec}[grid]
        cells = {cell.key: cell for cell in spec("mnist").expand()}
        cell = cells[f"ablate-{grid}/mnist/{key}/seed0"]
        assert cell.config.stable_hash() == expected


class TestOverrideCollision:
    def test_preset_derived_override_raises_clear_error(self):
        with pytest.raises(ValueError, match="rounds"):
            run_algorithm("mnist", "fedavg", "smoke", rounds=2)

    def test_error_names_every_colliding_field(self):
        with pytest.raises(ValueError, match=r"\['data.n_train', 'rounds'\]"):
            federation_config(
                "mnist", "fedavg", PRESETS["smoke"], rounds=2, data={"n_train": 10}
            )

    def test_non_derived_overrides_still_pass_through(self):
        config = federation_config(
            "mnist",
            "fedavg",
            PRESETS["smoke"],
            data={"partition": "dirichlet", "dirichlet_alpha": 0.3},
            backend="thread",
        )
        assert config.data.partition == "dirichlet"
        assert config.backend == "thread"

    def test_registry_override_helpers_flow_through(self):
        """partition_override/sampler_override dicts work as overrides,
        including partitioner params outside the legacy flat six."""
        from repro.experiments import partition_override, sampler_override

        overrides = {
            **partition_override("label-k", labels_per_client=3),
            **sampler_override("availability", dropout=0.25),
        }
        config = federation_config("mnist", "fedavg", PRESETS["smoke"], **overrides)
        assert config.data.partition == "label-k"
        assert config.data.labels_per_client == 3
        assert config.scenario.sampler == "availability"
        assert config.scenario.dropout == 0.25

    def test_override_helpers_validate_names_at_declaration(self):
        from repro.experiments import partition_override, sampler_override

        with pytest.raises(KeyError, match="unknown partition strategy"):
            partition_override("bogus")
        with pytest.raises(KeyError, match="unknown sampler"):
            sampler_override("bogus")


class TestFailureIsolation:
    def test_one_failing_cell_does_not_kill_the_sweep(self):
        good = tiny_cell(key="good")
        bad = SweepCell(
            key="bad",
            config=tiny_config(seed=7),
            trainer_overrides={"not_a_trainer_kwarg": True},
        )
        result = run_sweep([good, bad])
        assert result.executed == ["good"]
        assert set(result.failed) == {"bad"}
        assert "not_a_trainer_kwarg" in result.failed["bad"]
        assert result["good"].ok
        with pytest.raises(SweepError, match="bad"):
            result.raise_failures()

    def test_failed_cells_are_not_cached(self, tmp_path):
        store = ResultStore(tmp_path)
        bad = SweepCell(
            key="bad",
            config=tiny_config(),
            trainer_overrides={"not_a_trainer_kwarg": True},
        )
        run_sweep([bad], store=store)
        assert list(tmp_path.glob("*.json")) == []
        # and a retry executes it again rather than reusing a failure
        result = run_sweep([bad], store=store)
        assert set(result.failed) == {"bad"}


class TestResume:
    def test_second_run_executes_zero_cells(self, tmp_path):
        store = ResultStore(tmp_path)
        cells = [tiny_cell("a"), tiny_cell("b", seed=1)]
        first = run_sweep(cells, store=store)
        assert first.executed == ["a", "b"] and first.reused == []
        second = run_sweep(cells, store=store)
        assert second.executed == [] and second.reused == ["a", "b"]
        assert second["a"].history == first["a"].history

    def test_store_files_are_keyed_by_config_hash(self, tmp_path):
        store = ResultStore(tmp_path)
        cell = tiny_cell()
        run_sweep([cell], store=store)
        assert (tmp_path / f"{cell.config_hash}.json").exists()

    def test_resume_false_recomputes(self, tmp_path):
        store = ResultStore(tmp_path)
        cell = tiny_cell()
        run_sweep([cell], store=store)
        again = run_sweep([cell], store=store, resume=False)
        assert again.executed == [cell.key]

    def test_corrupt_store_entry_is_recomputed(self, tmp_path):
        store = ResultStore(tmp_path)
        cell = tiny_cell()
        run_sweep([cell], store=store)
        store.path_for(cell.config_hash).write_text("{not json")
        result = run_sweep([cell], store=store)
        assert result.executed == [cell.key]
        assert result[cell.key].ok

    @pytest.mark.parametrize(
        "overrides, write_removed_fields",
        [({}, _write_compute_section), (FLEET_CELL, _write_pricing_fields)],
        ids=["compute-section", "pricing-fields"],
    )
    def test_store_cell_with_removed_fields_still_resumes(
        self, tmp_path, overrides, write_removed_fields
    ):
        """Stores written while configs or records carried fields that were
        since removed load under their original hash instead of silently
        recomputing."""
        store = ResultStore(tmp_path)
        cell = tiny_cell(**overrides)
        first = run_sweep([cell], store=store)
        path = store.path_for(cell.config_hash)
        payload = json.loads(path.read_text())
        write_removed_fields(payload)
        path.write_text(json.dumps(payload))
        loaded = store.load(cell.config_hash)
        assert loaded is not None
        assert loaded.config_hash == cell.config_hash
        assert loaded.config.stable_hash() == cell.config_hash
        assert loaded.history == first[cell.key].history
        resumed = run_sweep([cell], store=store)
        assert resumed.executed == [] and resumed.reused == [cell.key]

    def test_duplicate_cells_compute_once(self):
        result = run_sweep([tiny_cell("x"), tiny_cell("y")])
        assert result.executed == ["x"]
        assert result["y"].history == result["x"].history

    def test_cache_hit_rebinds_key_and_tags_to_the_requesting_cell(self, tmp_path):
        store = ResultStore(tmp_path)
        original = SweepCell(key="gridA/cell", config=tiny_config(), tags={"role": "A"})
        run_sweep([original], store=store)
        # same config requested by a different grid under different labels
        requester = SweepCell(key="gridB/cell", config=tiny_config(), tags={"role": "B"})
        result = run_sweep([requester], store=store)
        assert result.reused == ["gridB/cell"]
        assert result["gridB/cell"].key == "gridB/cell"
        assert result["gridB/cell"].tags == {"role": "B"}
        # duplicates inside one grid get their own labels too
        dup = run_sweep([tiny_cell("x"), SweepCell(key="y", config=tiny_config(), tags={"n": 2})])
        assert dup["y"].key == "y" and dup["y"].tags == {"n": 2}


class TestParity:
    def test_parallel_sweep_matches_serial_single_cell_runs(self, tmp_path):
        cells = [tiny_cell("fedavg"), tiny_cell("standalone", algorithm="standalone")]
        store = ResultStore(tmp_path)
        sweep = run_sweep(cells, store=store, jobs=2, executor="thread")
        sweep.raise_failures()
        for cell in cells:
            direct = Federation.from_config(cell.config).run()
            assert sweep[cell.key].history == direct

    def test_store_round_trip_preserves_history_exactly(self, tmp_path):
        store = ResultStore(tmp_path)
        cell = tiny_cell()
        live = run_sweep([cell], store=store)[cell.key].history
        reloaded = store.load(cell.config_hash).history
        assert reloaded == live

    def test_export_is_valid_json_with_summaries(self, tmp_path):
        from repro.experiments import export_results

        store = ResultStore(tmp_path)
        cell = tiny_cell()
        run_sweep([cell], store=store)
        payload = json.loads(export_results(store.load_all()))
        assert payload["cells"][0]["config_hash"] == cell.config_hash
        assert payload["cells"][0]["final_accuracy"] is not None
        assert payload["details"][0]["config"] == cell.config.to_dict()

    def test_every_grid_serializes_to_strict_json(self):
        """No Infinity/NaN in any declared grid: the result store and the
        CI artifact must parse under RFC 8259 (jq, JS), not just Python."""
        from repro.experiments import (
            aggregation_spec,
            fig1_spec,
            fig2_spec,
            fig3_spec,
            gate_spec,
            heterogeneity_spec,
            pruning_step_spec,
            table1_spec,
        )

        specs = [
            smoke_spec(),
            table1_spec("mnist"),
            fig1_spec("mnist"),
            fig2_spec("mnist"),
            fig3_spec("mnist"),
            aggregation_spec("mnist"),
            gate_spec("mnist"),
            heterogeneity_spec("mnist"),
            pruning_step_spec("mnist"),
        ]
        for spec in specs:
            for cell in spec.expand():
                json.dumps(cell.config.to_dict(), allow_nan=False)
