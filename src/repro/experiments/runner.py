"""Shared experiment-running machinery."""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..data import DataConfig
from ..federated import Federation, FederationConfig, History, LocalTrainConfig
from ..pruning import StructuredConfig, UnstructuredConfig
from .presets import PRESETS, ScalePreset


def federation_config(
    dataset: str,
    algorithm: str,
    preset: ScalePreset,
    seed: int = 0,
    unstructured: Optional[UnstructuredConfig] = None,
    structured: Optional[StructuredConfig] = None,
    eval_every: Optional[int] = None,
    **overrides,
) -> FederationConfig:
    """Translate a scale preset into a full :class:`FederationConfig`.

    ``overrides`` may only name config fields this function does not
    already derive from its arguments — e.g. ``backend=``, or whole nested
    sections (``scenario=ScenarioConfig(...)``, typically built with
    :func:`~repro.experiments.presets.sampler_override` so the names are
    registry-validated at grid-declaration time).  A ``data`` override is
    a mapping of :class:`~repro.data.partition.DataConfig` fields (see
    :func:`~repro.experiments.presets.partition_override`) applied on top
    of the preset's ``n_train``/``n_test``.  Passing a preset-derived
    field raises immediately with the dedicated parameter to use instead —
    previously this surfaced as a bare ``TypeError: got multiple values for
    keyword argument`` deep in the dataclass constructor.
    """
    data_changes = overrides.pop("data", None) or {}
    derived = dict(
        dataset=dataset,
        algorithm=algorithm,
        num_clients=preset.num_clients,
        rounds=preset.rounds,
        sample_fraction=preset.sample_fraction,
        seed=seed,
        eval_every=preset.eval_every if eval_every is None else eval_every,
        local=LocalTrainConfig(epochs=preset.local_epochs),
        unstructured=unstructured,
        structured=structured,
    )
    preset_data = {"n_train", "n_test"} & set(data_changes)
    colliding = sorted(
        (set(overrides) & set(derived)) | {f"data.{name}" for name in preset_data}
    )
    if colliding:
        raise ValueError(
            f"override(s) {colliding} collide with preset-derived fields; "
            "use the dedicated parameters (dataset/algorithm/seed/"
            "unstructured/structured/eval_every), pick a different preset, "
            "or adjust the result with dataclasses.replace()"
        )
    data = DataConfig(n_train=preset.n_train, n_test=preset.n_test)
    return FederationConfig(**derived, data=replace(data, **data_changes), **overrides)


def run_algorithm(
    dataset: str,
    algorithm: str,
    preset: str = "smoke",
    seed: int = 0,
    unstructured: Optional[UnstructuredConfig] = None,
    structured: Optional[StructuredConfig] = None,
    eval_every: Optional[int] = None,
    callbacks=None,
    **overrides,
) -> History:
    """Run one (dataset, algorithm) cell of the evaluation grid."""
    config = federation_config(
        dataset,
        algorithm,
        PRESETS[preset],
        seed=seed,
        unstructured=unstructured,
        structured=structured,
        eval_every=eval_every,
        **overrides,
    )
    return Federation.from_config(config).run(callbacks=callbacks)


def format_table(headers, rows) -> str:
    """Plain-text table with column alignment (paper-style output)."""
    columns = [headers, *[[str(cell) for cell in row] for row in rows]]
    widths = [max(len(row[i]) for row in columns) for i in range(len(headers))]
    lines = []
    header_line = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in columns[1:]:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
