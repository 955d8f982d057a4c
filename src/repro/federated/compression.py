"""Symmetric update codecs: the compression API behind trainer and wire.

The paper positions Sub-FedAvg against the classic cost-reduction line:
structured/sketched updates (Konečný et al. 2016) and gradient compression
(Lin et al. 2017).  This module implements the representative codecs — and,
since PR 8, implements them as a *symmetric* API that can actually survive
a wire:

* :meth:`Compressor.encode` packs a state/update dict into an
  :class:`EncodedState` — real bytes (self-describing header + raw
  buffers) plus the *modeled* bit count the communication meter charges,
* :meth:`Compressor.decode` is the matching inverse: any instance of the
  same codec can decode any peer's payload (all parameters needed to
  decode travel in the payload header),
* :meth:`Compressor.roundtrip` preserves the historical simulation
  contract (``decoded_update, bits``) for in-process callers.

Codecs register in :data:`COMPRESSORS` with :func:`register_compressor`
and are selected by a :class:`CompressionConfig` (the ``compression:``
section of ``FederationConfig``); :func:`build_compressor` resolves one.
The serving layer uses the same registry for its uplink transport codec.

Modeled bits vs container bytes: the paper's accounting convention prices
values at 32 bits (``FLOAT_BITS``) plus 1-bit occupancy masks
(``MASK_BITS``), while the container carries float64 for bitwise-lossless
reconstruction — so ``EncodedState.bits`` (what the meter charges) is
deliberately *not* ``8 * len(payload)``.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..registry import Registry
from ..pruning.unstructured import _rank_threshold
from .accounting.communication import FLOAT_BITS, MASK_BITS
from .execution import ClientUpdate
from .metrics import RoundRecord
from .registry import register_trainer
from .trainers.fedavg import FedAvg

State = Dict[str, np.ndarray]

#: Container magic + layout version ("repro codec, v1").
_MAGIC = b"RPC1"


# ----------------------------------------------------------------------
# Payload container: one deterministic byte layout for every codec
# ----------------------------------------------------------------------
def pack_payload(meta: Dict, arrays: Dict[str, np.ndarray]) -> bytes:
    """Pack a JSON-safe ``meta`` dict plus named arrays into one blob.

    Layout: magic, little-endian header length, canonical-JSON header
    (meta + per-array dtype/shape manifest in insertion order), then the
    raw array buffers concatenated in the same order.  Deterministic for
    equal inputs, so payload bytes are comparable across processes.
    """
    header = {
        "meta": meta,
        "arrays": [
            {"name": name, "dtype": str(array.dtype), "shape": list(array.shape)}
            for name, array in arrays.items()
        ],
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    parts = [_MAGIC, struct.pack("<I", len(head)), head]
    for array in arrays.values():
        parts.append(np.ascontiguousarray(array).tobytes())
    return b"".join(parts)


def unpack_payload(blob: bytes) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """Inverse of :func:`pack_payload`: ``(meta, arrays)`` with fresh arrays.

    A blob that is not exactly one container raises ``ValueError`` naming
    the fault: wrong magic, a header or array cut short, or bytes left
    over after the last array.
    """
    if blob[:4] != _MAGIC:
        raise ValueError(
            f"not a codec payload (magic {blob[:4]!r}, expected {_MAGIC!r})"
        )
    if len(blob) < 8:
        raise ValueError(f"codec payload truncated: {len(blob)} bytes")
    (head_len,) = struct.unpack("<I", blob[4:8])
    offset = 8 + head_len
    if offset > len(blob):
        raise ValueError(
            f"codec payload truncated: its header needs {head_len} bytes, "
            f"{len(blob) - 8} follow"
        )
    header = json.loads(blob[8:offset].decode())
    arrays: Dict[str, np.ndarray] = {}
    for spec in header["arrays"]:
        dtype = np.dtype(spec["dtype"])
        shape = tuple(spec["shape"])
        count = math.prod(shape)
        size = dtype.itemsize * count
        if count < 0 or offset + size > len(blob):
            raise ValueError(
                f"codec payload truncated: array {spec['name']!r} needs "
                f"{size} bytes at offset {offset} of {len(blob)}"
            )
        array = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
        arrays[spec["name"]] = array.reshape(shape).copy()
        offset += size
    if offset != len(blob):
        raise ValueError(
            f"codec payload has {len(blob) - offset} bytes after its last array"
        )
    return header["meta"], arrays


def pack_state(state: State) -> bytes:
    """Pack a plain state dict losslessly (the identity container)."""
    return pack_payload({}, {name: np.asarray(v) for name, v in state.items()})


def unpack_state(blob: bytes) -> State:
    """Inverse of :func:`pack_state`."""
    return unpack_payload(blob)[1]


@dataclass(frozen=True)
class EncodedState:
    """One encoded update: codec name, payload bytes, modeled wire bits."""

    codec: str
    payload: bytes
    bits: float

    @property
    def nbytes(self) -> int:
        """Actual container size (≠ ``bits/8``; see module docstring)."""
        return len(self.payload)


# ----------------------------------------------------------------------
# Codec base class
# ----------------------------------------------------------------------
class Compressor:
    """Symmetric lossy codec over state/update dicts.

    ``encode`` produces an :class:`EncodedState`; ``decode`` reconstructs
    exactly the post-roundtrip values from the payload alone (every
    decode parameter travels in the header, so a default-constructed
    instance of the same codec decodes any peer's payload).
    ``roundtrip`` keeps the historical in-memory contract.
    """

    name = "abstract"

    def encode(self, update: State) -> EncodedState:
        raise NotImplementedError

    def decode(self, encoded: Union[EncodedState, bytes]) -> State:
        blob = encoded.payload if isinstance(encoded, EncodedState) else bytes(encoded)
        return self._decode_unpacked(*unpack_payload(blob))

    def _decode_unpacked(self, meta: Dict, arrays: Dict[str, np.ndarray]) -> State:
        """:meth:`decode` of an already unpacked payload."""
        codec = meta.get("codec")
        if codec != self.name:
            raise ValueError(
                f"payload was encoded by codec {codec!r}, not {self.name!r}"
            )
        return self._decode(meta, arrays)

    def _decode(self, meta: Dict, arrays: Dict[str, np.ndarray]) -> State:
        raise NotImplementedError

    def roundtrip(self, update: State) -> Tuple[State, float]:
        """Encode then decode: ``(post-roundtrip update, modeled bits)``."""
        encoded = self.encode(update)
        return self.decode(encoded), encoded.bits

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class IdentityCompressor(Compressor):
    """Lossless passthrough: raw buffers on the wire, 32 modeled bits/value."""

    name = "identity"

    def encode(self, update: State) -> EncodedState:
        arrays = {name: np.asarray(value) for name, value in update.items()}
        bits = sum(value.size for value in arrays.values()) * FLOAT_BITS
        payload = pack_payload({"codec": self.name}, arrays)
        return EncodedState(self.name, payload, float(bits))

    def _decode(self, meta, arrays):
        return dict(arrays)


class TopKCompressor(Compressor):
    """Keep the top ``fraction`` of update coordinates by magnitude.

    Wire format modelled as 32-bit values for survivors plus a 1-bit
    occupancy mask — the same convention the paper uses for Sub-FedAvg's
    masks, which keeps the comparison apples-to-apples.
    """

    name = "topk"

    def __init__(self, fraction: float = 0.1) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = fraction

    def encode(self, update: State) -> EncodedState:
        magnitudes = np.concatenate([np.abs(v).ravel() for v in update.values()])
        threshold = _rank_threshold(magnitudes, 1.0 - self.fraction)
        arrays: Dict[str, np.ndarray] = {}
        shapes: Dict[str, List[int]] = {}
        kept = 0
        total = 0
        for name, value in update.items():
            value = np.asarray(value, dtype=np.float64)
            flat = value.ravel()
            indices = np.flatnonzero(np.abs(flat) > threshold)
            arrays[f"{name}/idx"] = indices.astype(np.int64)
            arrays[f"{name}/val"] = flat[indices]
            shapes[name] = list(value.shape)
            kept += int(indices.size)
            total += value.size
        bits = kept * FLOAT_BITS + total * MASK_BITS
        payload = pack_payload({"codec": self.name, "shapes": shapes}, arrays)
        return EncodedState(self.name, payload, float(bits))

    def _decode(self, meta, arrays):
        return _scatter_decode(meta["shapes"], arrays)


class RandomMaskCompressor(Compressor):
    """Random sparsification with unbiased rescaling (structured updates).

    Each coordinate survives independently with probability ``fraction``
    and is scaled by ``1/fraction`` so the expected update is unchanged.
    The mask stream lives encoder-side only; survivors travel explicitly,
    so decode needs no shared seed.
    """

    name = "randommask"

    def __init__(self, fraction: float = 0.1, seed: int = 0) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = fraction
        self._rng = np.random.default_rng(seed)

    def encode(self, update: State) -> EncodedState:
        arrays: Dict[str, np.ndarray] = {}
        shapes: Dict[str, List[int]] = {}
        kept = 0
        total = 0
        for name, value in update.items():
            value = np.asarray(value, dtype=np.float64)
            mask = self._rng.random(value.shape) < self.fraction
            flat = (value * mask / self.fraction).ravel()
            indices = np.flatnonzero(mask.ravel())
            arrays[f"{name}/idx"] = indices.astype(np.int64)
            arrays[f"{name}/val"] = flat[indices]
            shapes[name] = list(value.shape)
            kept += int(indices.size)
            total += value.size
        bits = kept * FLOAT_BITS + total * MASK_BITS
        payload = pack_payload({"codec": self.name, "shapes": shapes}, arrays)
        return EncodedState(self.name, payload, float(bits))

    def _decode(self, meta, arrays):
        return _scatter_decode(meta["shapes"], arrays)


def _scatter_decode(
    shapes: Dict[str, List[int]], arrays: Dict[str, np.ndarray]
) -> State:
    """Rebuild dense tensors from (indices, values) sparse pairs."""
    decoded: State = {}
    for name, shape in shapes.items():
        shape = tuple(shape)
        flat = np.zeros(math.prod(shape), dtype=np.float64)
        flat[arrays[f"{name}/idx"]] = arrays[f"{name}/val"]
        decoded[name] = flat.reshape(shape)
    return decoded


class QuantizationCompressor(Compressor):
    """Uniform per-tensor quantization to ``bits`` bits per value.

    Codes travel as the narrowest unsigned integer type that holds
    ``2**bits - 1``; the per-tensor ``(low, span)`` range rides in the
    header, so decode is exact for the quantized values (encode→decode
    is bitwise-stable).
    """

    name = "quantize"

    def __init__(self, bits: int = 8) -> None:
        if not 1 <= bits <= 32:
            raise ValueError(f"bits must be in [1, 32], got {bits}")
        self.bits = bits
        self.levels = 2 ** bits - 1

    def _code_dtype(self) -> np.dtype:
        if self.bits <= 8:
            return np.dtype(np.uint8)
        if self.bits <= 16:
            return np.dtype(np.uint16)
        return np.dtype(np.uint32)

    def encode(self, update: State) -> EncodedState:
        arrays: Dict[str, np.ndarray] = {}
        tensors: Dict[str, Dict] = {}
        total_bits = 0.0
        for name, value in update.items():
            value = np.asarray(value, dtype=np.float64)
            low, high = float(value.min()), float(value.max())
            span = high - low
            if span == 0.0:
                # Constant tensor: quantization is degenerate, ship it raw.
                tensors[name] = {"raw": True}
                arrays[name] = value.copy()
            else:
                codes = np.round((value - low) / span * self.levels)
                tensors[name] = {"low": low, "span": span}
                arrays[name] = codes.astype(self._code_dtype())
            # b bits per value + two 32-bit floats (min/max) per tensor.
            total_bits += value.size * self.bits + 2 * FLOAT_BITS
        meta = {"codec": self.name, "levels": self.levels, "tensors": tensors}
        payload = pack_payload(meta, arrays)
        return EncodedState(self.name, payload, total_bits)

    def _decode(self, meta, arrays):
        levels = meta["levels"]
        decoded: State = {}
        for name, spec in meta["tensors"].items():
            if spec.get("raw"):
                decoded[name] = arrays[name]
            else:
                codes = arrays[name].astype(np.float64)
                decoded[name] = spec["low"] + codes / levels * spec["span"]
        return decoded


# ----------------------------------------------------------------------
# Codec registry + config section
# ----------------------------------------------------------------------
#: Registered codecs, ``name -> Plugin`` whose ``factory`` receives the
#: :class:`CompressionConfig` selecting it and returns a :class:`Compressor`.
COMPRESSORS = Registry("compressor")
register_compressor = COMPRESSORS.register


@dataclass(frozen=True)
class CompressionConfig:
    """The ``compression:`` config section: codec choice + its knobs.

    ``codec`` resolves through the registry; ``fraction`` parameterizes
    the sparsifying codecs (topk / randommask), ``bits`` the quantizer,
    ``seed`` the randommask stream.  Hash-gated on ``FederationConfig``:
    a config without a section keeps its historical ``stable_hash``.
    """

    codec: str = "identity"
    fraction: float = 0.1
    bits: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        COMPRESSORS[self.codec]  # raises KeyError for unknown codecs


def build_compressor(
    config: Union[CompressionConfig, str, None] = None,
) -> Compressor:
    """Resolve a ``compression`` section (or codec name, or None) to a codec."""
    if config is None:
        config = CompressionConfig()
    elif isinstance(config, str):
        config = CompressionConfig(codec=config)
    return COMPRESSORS[config.codec].factory(config)


def decode_state(encoded: Union[EncodedState, bytes]) -> State:
    """Decode any registered codec's payload by its self-describing header."""
    blob = encoded.payload if isinstance(encoded, EncodedState) else bytes(encoded)
    meta, arrays = unpack_payload(blob)
    codec = build_compressor(CompressionConfig(codec=meta.get("codec", "identity")))
    return codec._decode_unpacked(meta, arrays)


@register_compressor("identity", summary="lossless passthrough (32 modeled bits/value)")
def _build_identity(config: CompressionConfig) -> Compressor:
    return IdentityCompressor()


@register_compressor("topk", summary="largest-magnitude fraction of coordinates")
def _build_topk(config: CompressionConfig) -> Compressor:
    return TopKCompressor(config.fraction)


@register_compressor("randommask", summary="random sparsification, unbiased rescale")
def _build_randommask(config: CompressionConfig) -> Compressor:
    return RandomMaskCompressor(config.fraction, seed=config.seed)


@register_compressor("quantize", summary="uniform per-tensor b-bit quantization")
def _build_quantize(config: CompressionConfig) -> Compressor:
    return QuantizationCompressor(bits=config.bits)


# ----------------------------------------------------------------------
# Compressed-uplink trainer: a thin shim over the registry
# ----------------------------------------------------------------------
@register_trainer("fedavg-compressed", config_sections=("compression",))
class FedAvgCompressed(FedAvg):
    """FedAvg whose uplink carries compressed *updates* instead of states.

    Downlink stays full precision (the asymmetric-bandwidth setting of
    §2: uplink is the bottleneck).  The server round-trips each client's
    update through the configured codec and charges the modeled bit
    count.  The codec comes from the registry via the ``compression:``
    config section; ``compressor=`` accepts a prebuilt instance directly.
    """

    algorithm_name = "fedavg-compressed"

    def __init__(
        self,
        *args,
        compressor: Optional[Compressor] = None,
        compression: Union[CompressionConfig, Dict, None] = None,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if isinstance(compression, dict):
            compression = CompressionConfig(**compression)
        self.compression = compression
        if compressor is None:
            compressor = build_compressor(compression)
        self.compressor = compressor

    def _round(self, round_index: int, sampled: List[int]) -> RoundRecord:
        started = self.round_participants(sampled)
        updates = self.execute(self._train_tasks(started))
        # Encode/decode server-side in sampled order: stochastic codecs
        # (RandomMaskCompressor) draw from one stream, so the reduction
        # order must not depend on the execution backend.
        decoded_updates = []
        uplink_bits = 0.0
        one_way_down = self.total_params * FLOAT_BITS / 8.0
        client_up = {}
        client_down = {}
        for update in updates:
            delta = {
                name: value - self.global_state[name]
                for name, value in update.state.items()
            }
            decoded, bits = self.compressor.roundtrip(delta)
            uplink_bits += bits
            client_up[update.client_id] = bits / 8.0
            client_down[update.client_id] = one_way_down
            decoded_updates.append(
                ClientUpdate(
                    client_index=update.client_index,
                    client_id=update.client_id,
                    state={
                        name: self.global_state[name] + decoded[name]
                        for name in decoded
                    },
                    num_examples=update.num_examples,
                    mean_loss=update.mean_loss,
                )
            )

        # Delegate to FedAvg's plan-aware aggregation over the *decoded*
        # states: deadline stragglers weigh zero, and carried async
        # arrivals land with their staleness discount (the in-flight
        # client's model still holds the state it uploaded).
        self._aggregate(decoded_updates)
        downlink = len(started) * one_way_down
        return RoundRecord(
            round_index=round_index,
            sampled_clients=sampled,
            train_loss=float(np.mean([update.mean_loss for update in updates])),
            uploaded_bytes=uplink_bits / 8.0,
            downloaded_bytes=downlink,
            client_uploaded_bytes=client_up,
            client_downloaded_bytes=client_down,
        )
