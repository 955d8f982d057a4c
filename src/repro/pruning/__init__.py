"""Pruning: masks, unstructured/structured derivation, client-side gating."""

from .mask import MaskSet, hamming_distance
from .unstructured import magnitude_mask, random_mask, sparsity_of
from .structured import (
    ChannelMask,
    ReductionReport,
    bn_scale_channel_mask,
    conv_spatial_sizes,
    expand_channel_mask,
    reduction_report,
)
from .compact import compact_model, compaction_summary
from .controller import (
    MaskSnapshot,
    PruneDecision,
    PruningController,
    StructuredConfig,
    UnstructuredConfig,
)

__all__ = [
    "MaskSet",
    "hamming_distance",
    "magnitude_mask",
    "random_mask",
    "sparsity_of",
    "ChannelMask",
    "bn_scale_channel_mask",
    "expand_channel_mask",
    "reduction_report",
    "conv_spatial_sizes",
    "ReductionReport",
    "PruningController",
    "UnstructuredConfig",
    "StructuredConfig",
    "MaskSnapshot",
    "PruneDecision",
    "compact_model",
    "compaction_summary",
]
