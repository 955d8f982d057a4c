"""Trainer registry: registration, lookup, and error handling."""

import pytest

from repro.federated import (
    DataConfig,
    FedAvg,
    FederationConfig,
    LocalTrainConfig,
    SubFedAvgHy,
    SubFedAvgUn,
    TRAINERS,
    build_trainer,
    make_clients,
    register_trainer,
)
from repro.federated.trainers.base import FederatedTrainer


CORE = (
    "standalone",
    "fedavg",
    "fedprox",
    "lg-fedavg",
    "mtl",
    "sub-fedavg-un",
    "sub-fedavg-hy",
)


class TestLookup:
    def test_core_algorithms_registered(self):
        names = tuple(TRAINERS)
        for name in CORE:
            assert name in names

    def test_lookup_returns_spec(self):
        spec = TRAINERS["fedavg"]
        assert spec.name == "fedavg"
        assert spec.cls is FedAvg
        assert spec.config_sections == ()
        assert spec.summary  # first docstring line

    def test_config_sections_declared(self):
        assert TRAINERS["sub-fedavg-un"].config_sections == ("unstructured",)
        assert TRAINERS["sub-fedavg-hy"].config_sections == (
            "unstructured",
            "structured",
        )

    def test_local_defaults_declared(self):
        assert TRAINERS["fedprox"].local_defaults == {"prox_mu": 0.01}
        assert TRAINERS["mtl"].local_defaults == {"mtl_lambda": 0.1}

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(KeyError, match="bogus.*choose from"):
            TRAINERS["bogus"]

    def test_algorithms_view_is_live(self):
        """A trainer registered after import is selectable at once."""
        from repro.cli import build_parser

        @register_trainer("live-algo")
        class LiveAlgo(FedAvg):
            pass

        try:
            assert TRAINERS["live-algo"].cls is LiveAlgo
            args = build_parser().parse_args(["run", "--algorithm", "live-algo"])
            assert args.algorithm == "live-algo"
        finally:
            TRAINERS.unregister("live-algo")
        assert "live-algo" not in TRAINERS


class TestRegistration:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_trainer("fedavg")
            class Clone(FederatedTrainer):
                pass

    def test_unknown_config_section_rejected(self):
        with pytest.raises(ValueError, match="unknown config section"):
            register_trainer("x-algo", config_sections=("nonexistent",))

    def test_unregister_unknown_raises(self):
        with pytest.raises(KeyError, match="not registered"):
            TRAINERS.unregister("never-registered")

    def test_custom_trainer_builds_through_config(self):
        @register_trainer("unit-test-algo", local_defaults={"prox_mu": 0.5})
        class UnitTestAlgo(FedAvg):
            pass

        try:
            config = FederationConfig(
                dataset="mnist", algorithm="unit-test-algo", num_clients=3,
                rounds=2, data=DataConfig(n_train=120, n_test=60),
                local=LocalTrainConfig(epochs=1),
            )
            clients = make_clients(config)
            trainer = build_trainer(config, clients)
            assert isinstance(trainer, UnitTestAlgo)
            assert trainer.algorithm_name == "unit-test-algo"
            # declared local_defaults patched non-positive fields
            assert all(client.config.prox_mu == 0.5 for client in clients)
        finally:
            TRAINERS.unregister("unit-test-algo")

    def test_unregistered_name_invalid_in_config(self):
        @register_trainer("transient-algo")
        class Transient(FedAvg):
            pass

        TRAINERS.unregister("transient-algo")
        with pytest.raises(KeyError):
            FederationConfig(dataset="mnist", algorithm="transient-algo")
        # a stored config naming the deleted robust-fedavg is refused alike
        with pytest.raises(KeyError, match="'robust-fedavg'; choose from") as error:
            FederationConfig.from_dict({"dataset": "mnist", "algorithm": "robust-fedavg"})
        assert all(name in str(error.value) for name in TRAINERS)


class TestBuilderDispatch:
    def test_trainer_overrides_forwarded(self):
        config = FederationConfig(
            dataset="mnist", algorithm="sub-fedavg-un", num_clients=3,
            rounds=2, data=DataConfig(n_train=120, n_test=60),
            local=LocalTrainConfig(epochs=1),
        )
        trainer = build_trainer(config, make_clients(config), aggregator="zerofill")
        assert isinstance(trainer, SubFedAvgUn)
        assert trainer.aggregator == "zerofill"

    def test_hybrid_receives_both_sections(self):
        from repro.pruning import StructuredConfig, UnstructuredConfig

        un = UnstructuredConfig(target_rate=0.3)
        st = StructuredConfig(target_rate=0.2)
        config = FederationConfig(
            dataset="mnist", algorithm="sub-fedavg-hy", num_clients=3,
            rounds=2, data=DataConfig(n_train=120, n_test=60),
            local=LocalTrainConfig(epochs=1), unstructured=un, structured=st,
        )
        trainer = build_trainer(config, make_clients(config))
        assert isinstance(trainer, SubFedAvgHy)
        assert trainer.unstructured is un
        assert trainer.structured is st
