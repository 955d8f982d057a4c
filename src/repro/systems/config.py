"""The ``systems`` section of a run config: how the fleet behaves in time.

:class:`SystemsConfig` is the serializable knob set of the fleet
simulator, attached to a
:class:`~repro.federated.builder.FederationConfig` as its optional
``systems`` section.  A config without one (every pre-systems payload)
runs exactly as before — no simulator is built, histories and
``stable_hash`` values are unchanged.

The pricing fields default to 0.0 = *derive from the run*: the builder
fills ``flops_per_example`` from the model's conv FLOPs (the paper's
§4.2.3 convention, via :mod:`repro.federated.accounting`) and
``examples_per_round`` from the local epoch budget times the per-client
shard size.  Pin them explicitly to compare policies on a fixed cost
model across datasets (the ``fleet`` sweep grid does).
"""

from __future__ import annotations

from dataclasses import dataclass

from .rounds import build_round_policy


@dataclass(frozen=True)
class SystemsConfig:
    """Declarative description of the systems model of one run."""

    round_policy: str = "synchronous"
    deadline_seconds: float = 0.0  # deadline policy: the round budget T (> 0)
    buffer_size: int = 0  # async-buffer K (0 = half the pending arrivals)
    staleness_exponent: float = 0.5  # async weight = (1+staleness)^-exponent
    server_overhead_seconds: float = 0.5
    flops_per_example: float = 0.0  # 0 = derive from the model (conv FLOPs)
    examples_per_round: float = 0.0  # 0 = derive from epochs × shard size
    jitter: float = 0.0  # per-(round, client) duration jitter, in [0, 1)

    def __post_init__(self) -> None:
        if self.deadline_seconds < 0:
            raise ValueError(
                f"deadline_seconds must be >= 0, got {self.deadline_seconds}"
            )
        if self.server_overhead_seconds < 0:
            raise ValueError(
                "server_overhead_seconds must be >= 0, "
                f"got {self.server_overhead_seconds}"
            )
        if self.flops_per_example < 0 or self.examples_per_round < 0:
            raise ValueError(
                "flops_per_example and examples_per_round must be >= 0 "
                "(0 means derive from the run)"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        # Validate the policy name and its parameters where the config is
        # written, not three cells into a sweep: constructing the policy
        # runs the same checks the builder will.
        build_round_policy(self)
