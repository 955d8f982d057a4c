"""Binary parameter masks.

A :class:`MaskSet` maps parameter names to 0/1 arrays of the parameter's
shape.  Masks are the central currency of Sub-FedAvg: clients derive them
locally, apply them during training (pruned coordinates frozen at zero) and
upload them with their weights; the server averages on mask intersections.

Parameters without an entry are implicitly fully kept — a deliberate
sparse representation so that "mask only FC layers" (the hybrid algorithm)
needs no entries for conv/BN tensors.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

import numpy as np


class MaskSet:
    """Named binary keep-masks over a model's parameters (1 = keep)."""

    def __init__(self, masks: Optional[Mapping[str, np.ndarray]] = None) -> None:
        self._masks: Dict[str, np.ndarray] = {}
        if masks:
            for name, mask in masks.items():
                self[name] = mask

    # ------------------------------------------------------------------
    # Mapping protocol
    # ------------------------------------------------------------------
    def __setitem__(self, name: str, mask: np.ndarray) -> None:
        array = np.array(mask, dtype=np.float64)
        # Elementwise, so NaN (equal to neither) is refused too.
        if not ((array == 0.0) | (array == 1.0)).all():
            raise ValueError(f"mask {name!r} contains values other than 0/1")
        self._masks[name] = array

    def __getitem__(self, name: str) -> np.ndarray:
        return self._masks[name]

    def __contains__(self, name: str) -> bool:
        return name in self._masks

    def __iter__(self) -> Iterator[str]:
        return iter(self._masks)

    def __len__(self) -> int:
        return len(self._masks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MaskSet):
            return NotImplemented
        if set(self._masks) != set(other._masks):
            return False
        return all(np.array_equal(self._masks[k], other._masks[k]) for k in self._masks)

    def items(self) -> Iterable[Tuple[str, np.ndarray]]:
        return self._masks.items()

    def names(self) -> Iterable[str]:
        return self._masks.keys()

    def get(self, name: str, default=None):
        return self._masks.get(name, default)

    def copy(self) -> "MaskSet":
        # Entries were validated on the way in: copy them without a recheck.
        clone = MaskSet()
        clone._masks = {name: mask.copy() for name, mask in self._masks.items()}
        return clone

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def ones_like(cls, shapes: Mapping[str, Tuple[int, ...]]) -> "MaskSet":
        """Fully dense mask set over ``name -> shape``."""
        return cls({name: np.ones(shape) for name, shape in shapes.items()})

    @classmethod
    def for_model(cls, model, names: Optional[Iterable[str]] = None) -> "MaskSet":
        """Dense masks for the named parameters of ``model`` (all if None)."""
        params = dict(model.named_parameters())
        chosen = list(names) if names is not None else list(params)
        return cls({name: np.ones(params[name].shape) for name in chosen})

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def kept(self) -> int:
        """Number of coordinates kept (mask value 1)."""
        return int(sum(mask.sum() for mask in self._masks.values()))

    def total(self) -> int:
        return int(sum(mask.size for mask in self._masks.values()))

    def sparsity(self) -> float:
        """Fraction of masked coordinates pruned (0 = dense)."""
        total = self.total()
        if total == 0:
            return 0.0
        return 1.0 - self.kept() / total

    def density(self) -> float:
        return 1.0 - self.sparsity()

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def intersect(self, other: "MaskSet") -> "MaskSet":
        """Coordinate-wise AND; missing entries are treated as all-ones."""
        result = MaskSet()
        for name in set(self._masks) | set(other._masks):
            a = self._masks.get(name)
            b = other._masks.get(name)
            if a is None:
                result[name] = b.copy()
            elif b is None:
                result[name] = a.copy()
            else:
                result[name] = a * b
        return result

    def union(self, other: "MaskSet") -> "MaskSet":
        """Coordinate-wise OR over the shared names (missing = all-ones)."""
        result = MaskSet()
        for name in set(self._masks) | set(other._masks):
            a = self._masks.get(name)
            b = other._masks.get(name)
            if a is None or b is None:
                source = a if a is not None else b
                result[name] = np.ones_like(source)
            else:
                result[name] = np.maximum(a, b)
        return result

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply_to_model(self, model) -> None:
        """Zero pruned coordinates of the model's parameters in place."""
        params = dict(model.named_parameters())
        for name, mask in self._masks.items():
            if name not in params:
                raise KeyError(f"mask refers to unknown parameter {name!r}")
            params[name].data *= mask

    def apply_to_state(self, state: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Return a copy of ``state`` with pruned coordinates zeroed."""
        out = {name: value.copy() for name, value in state.items()}
        for name, mask in self._masks.items():
            if name in out:
                out[name] = out[name] * mask
        return out

    def as_grad_masks(self) -> Dict[str, np.ndarray]:
        """View usable by ``SGD.set_masks`` (same arrays, no copy)."""
        return dict(self._masks)


def hamming_distance(a: MaskSet, b: MaskSet, normalized: bool = True) -> float:
    """Hamming distance between two mask sets (the paper's "mask distance").

    Compares the union of the two mask sets' names; a name present in only
    one set is compared against an implicit all-ones mask.  With
    ``normalized=True`` (the paper's usage) the count of differing
    coordinates is divided by the total number of compared coordinates.
    """
    names = set(a.names()) | set(b.names())
    if not names:
        return 0.0
    differing = 0
    total = 0
    for name in names:
        mask_a = a.get(name)
        mask_b = b.get(name)
        if mask_a is None:
            mask_a = np.ones_like(mask_b)
        if mask_b is None:
            mask_b = np.ones_like(mask_a)
        if mask_a.shape != mask_b.shape:
            raise ValueError(f"mask shape mismatch for {name!r}")
        differing += int((mask_a != mask_b).sum())
        total += mask_a.size
    return differing / total if normalized else float(differing)
