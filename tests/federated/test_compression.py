"""Update-compression codecs and the compressed FedAvg trainer."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.federated import (
    DataConfig,
    FedAvgCompressed,
    FederationConfig,
    IdentityCompressor,
    LocalTrainConfig,
    QuantizationCompressor,
    RandomMaskCompressor,
    TopKCompressor,
    make_clients,
)
from repro.federated.accounting import FLOAT_BITS
from repro.federated.builder import model_factory
from repro.federated import compression
from repro.federated.compression import (
    CompressionConfig,
    CompressorSpec,
    EncodedState,
    available_compressors,
    build_compressor,
    decode_state,
    pack_payload,
    pack_state,
    register_compressor,
    unpack_payload,
    unpack_state,
    unregister_compressor,
)


def sample_update(rng, sizes=((10, 4), (7,))):
    return {f"t{i}": rng.normal(size=shape) for i, shape in enumerate(sizes)}


class TestPayloadContainer:
    def test_roundtrip_meta_and_arrays(self, rng):
        meta = {"codec": "x", "nested": {"a": [1, 2]}}
        arrays = {
            "f64": rng.normal(size=(3, 2)),
            "u8": np.arange(5, dtype=np.uint8),
            "scalar": np.float64(3.5).reshape(()),
        }
        out_meta, out = unpack_payload(pack_payload(meta, arrays))
        assert out_meta == meta
        for name in arrays:
            assert out[name].dtype == arrays[name].dtype
            np.testing.assert_array_equal(out[name], arrays[name])

    def test_deterministic_bytes(self, rng):
        update = sample_update(rng)
        assert pack_state(update) == pack_state(update)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            unpack_payload(b"not a payload")

    def test_state_roundtrip_bitwise(self, rng):
        update = sample_update(rng)
        decoded = unpack_state(pack_state(update))
        for name in update:
            np.testing.assert_array_equal(decoded[name], update[name])


class TestIdentity:
    def test_encode_produces_bytes(self, rng):
        update = sample_update(rng)
        encoded = IdentityCompressor().encode(update)
        assert isinstance(encoded, EncodedState)
        assert isinstance(encoded.payload, bytes)
        assert encoded.codec == "identity"
        assert encoded.nbytes == len(encoded.payload)

    def test_decode_bitwise_lossless(self, rng):
        update = sample_update(rng)
        codec = IdentityCompressor()
        decoded = codec.decode(codec.encode(update))
        for name in update:
            np.testing.assert_array_equal(decoded[name], update[name])

    def test_modeled_bits(self, rng):
        update = sample_update(rng)
        _, bits = IdentityCompressor().roundtrip(update)
        assert bits == sum(v.size for v in update.values()) * FLOAT_BITS

    def test_returns_copies(self, rng):
        update = sample_update(rng)
        decoded, _ = IdentityCompressor().roundtrip(update)
        decoded["t0"][0] = 999.0
        assert not np.shares_memory(decoded["t0"], update["t0"])
        assert update["t0"][0, 0] != 999.0


class TestTopK:
    def test_keeps_largest(self, rng):
        update = {"t": np.array([0.1, -5.0, 0.2, 3.0])}
        decoded, _ = TopKCompressor(0.5).roundtrip(update)
        np.testing.assert_allclose(decoded["t"], [0.0, -5.0, 0.0, 3.0])

    def test_bit_accounting(self):
        update = {"t": np.arange(1.0, 101.0)}
        _, bits = TopKCompressor(0.25).roundtrip(update)
        assert bits == 25 * FLOAT_BITS + 100

    def test_fraction_one_is_lossless(self, rng):
        update = sample_update(rng)
        decoded, _ = TopKCompressor(1.0).roundtrip(update)
        for name in update:
            np.testing.assert_allclose(decoded[name], update[name])

    def test_survivors_bitwise_exact(self, rng):
        update = sample_update(rng)
        decoded, _ = TopKCompressor(0.5).roundtrip(update)
        for name in update:
            kept = decoded[name] != 0
            np.testing.assert_array_equal(decoded[name][kept], update[name][kept])

    def test_default_instance_decodes_peer_payload(self, rng):
        # Decode parameters travel in the payload header, not the codec.
        encoded = TopKCompressor(0.25).encode(sample_update(rng))
        expected = TopKCompressor(0.25).decode(encoded)
        decoded = TopKCompressor().decode(encoded.payload)
        for name in expected:
            np.testing.assert_array_equal(decoded[name], expected[name])

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            TopKCompressor(0.0)

    @settings(max_examples=25, deadline=None)
    @given(fraction=st.floats(min_value=0.05, max_value=1.0))
    def test_property_sparsity_matches_fraction(self, fraction):
        rng = np.random.default_rng(0)
        update = {"t": rng.normal(size=400)}
        decoded, _ = TopKCompressor(fraction).roundtrip(update)
        kept = int((decoded["t"] != 0).sum())
        assert kept <= int(np.ceil(fraction * 400)) + 1


class TestRandomMask:
    def test_unbiased_in_expectation(self):
        update = {"t": np.ones(20000)}
        decoded, _ = RandomMaskCompressor(0.25, seed=1).roundtrip(update)
        assert decoded["t"].mean() == pytest.approx(1.0, abs=0.05)

    def test_survivors_rescaled(self):
        update = {"t": np.ones(1000)}
        decoded, _ = RandomMaskCompressor(0.5, seed=0).roundtrip(update)
        survivors = decoded["t"][decoded["t"] != 0]
        np.testing.assert_allclose(survivors, 2.0)

    def test_decode_needs_no_seed(self, rng):
        # Survivors travel explicitly: any instance decodes the payload.
        update = sample_update(rng)
        encoder = RandomMaskCompressor(0.5, seed=7)
        encoded = encoder.encode(update)
        decoded = RandomMaskCompressor().decode(encoded.payload)
        assert any((decoded[name] != 0).any() for name in update)


class TestQuantization:
    def test_roundtrip_error_bounded(self, rng):
        update = sample_update(rng)
        decoded, _ = QuantizationCompressor(bits=8).roundtrip(update)
        for name in update:
            span = update[name].max() - update[name].min()
            step = span / 255
            assert np.abs(decoded[name] - update[name]).max() <= step / 2 + 1e-12

    def test_more_bits_less_error(self, rng):
        update = {"t": rng.normal(size=500)}
        errors = {}
        for bits in (2, 8):
            decoded, _ = QuantizationCompressor(bits=bits).roundtrip(update)
            errors[bits] = np.abs(decoded["t"] - update["t"]).max()
        assert errors[8] < errors[2]

    def test_encode_decode_bitwise_stable(self, rng):
        # Quantized values are a fixed point: a second encode→decode pass
        # reproduces them bit-for-bit (the wire satellite's guarantee).
        update = sample_update(rng)
        codec = QuantizationCompressor(bits=8)
        once, _ = codec.roundtrip(update)
        twice, _ = codec.roundtrip(once)
        for name in update:
            np.testing.assert_array_equal(once[name], twice[name])

    def test_wide_codes_use_wider_dtype(self, rng):
        update = {"t": rng.normal(size=64)}
        codec = QuantizationCompressor(bits=16)
        decoded = codec.decode(codec.encode(update))
        span = update["t"].max() - update["t"].min()
        step = span / (2 ** 16 - 1)
        assert np.abs(decoded["t"] - update["t"]).max() <= step / 2 + 1e-12

    def test_constant_tensor(self):
        update = {"t": np.full(10, 3.0)}
        decoded, _ = QuantizationCompressor(bits=4).roundtrip(update)
        np.testing.assert_array_equal(decoded["t"], update["t"])

    def test_bit_accounting(self):
        update = {"t": np.arange(10.0)}
        _, bits = QuantizationCompressor(bits=8).roundtrip(update)
        assert bits == 10 * 8 + 2 * FLOAT_BITS

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            QuantizationCompressor(bits=0)
        with pytest.raises(ValueError):
            QuantizationCompressor(bits=64)


class TestRegistry:
    def test_builtin_codecs_registered(self):
        assert set(available_compressors()) >= {
            "identity", "topk", "randommask", "quantize",
        }

    def test_build_from_config(self):
        codec = build_compressor(CompressionConfig(codec="topk", fraction=0.3))
        assert isinstance(codec, TopKCompressor)
        assert codec.fraction == 0.3
        quant = build_compressor(CompressionConfig(codec="quantize", bits=4))
        assert isinstance(quant, QuantizationCompressor)
        assert quant.bits == 4

    def test_build_from_name_and_none(self):
        assert isinstance(build_compressor("identity"), IdentityCompressor)
        assert isinstance(build_compressor(None), IdentityCompressor)

    def test_unknown_codec_raises(self):
        with pytest.raises(KeyError):
            CompressionConfig(codec="nope")
        with pytest.raises(KeyError):
            build_compressor("nope")

    def test_decode_state_dispatches_by_header(self, rng):
        update = sample_update(rng)
        for name in ("identity", "quantize"):
            codec = build_compressor(name)
            expected = codec.decode(codec.encode(update))
            decoded = decode_state(codec.encode(update))
            for key in expected:
                np.testing.assert_array_equal(decoded[key], expected[key])

    @pytest.mark.parametrize("name", available_compressors())
    def test_decode_state_equals_codec_decode(self, rng, name, monkeypatch):
        codec = build_compressor(name)
        encoded = codec.encode(sample_update(rng))
        expected = codec.decode(encoded)
        unpacks = []
        real_unpack = compression.unpack_payload

        def counting_unpack(blob):
            unpacks.append(len(blob))
            return real_unpack(blob)

        monkeypatch.setattr(compression, "unpack_payload", counting_unpack)
        for source in (encoded, encoded.payload):
            decoded = decode_state(source)
            assert decoded.keys() == expected.keys()
            for key in expected:
                assert decoded[key].dtype == expected[key].dtype
                np.testing.assert_array_equal(decoded[key], expected[key])
        # The dispatch reads only the header: one full unpack per decode.
        assert len(unpacks) == 2

    def test_register_and_unregister(self):
        @register_compressor("test-null", summary="test codec")
        def _build(config):
            return IdentityCompressor()

        try:
            assert "test-null" in available_compressors()
            with pytest.raises(ValueError):
                register_compressor("test-null")(_build)
        finally:
            spec = unregister_compressor("test-null")
        assert isinstance(spec, CompressorSpec)
        assert "test-null" not in available_compressors()

    def test_decoding_foreign_codec_payload_raises(self, rng):
        encoded = TopKCompressor(0.5).encode(sample_update(rng))
        with pytest.raises(ValueError):
            QuantizationCompressor().decode(encoded.payload)


class TestConfigSection:
    def test_hash_gated(self):
        config = FederationConfig(dataset="mnist", algorithm="fedavg")
        with_codec = dataclasses.replace(
            config, compression=CompressionConfig(codec="quantize")
        )
        assert config.compression is None
        assert with_codec.stable_hash() != config.stable_hash()
        # Absent section ⇒ canonical payload has no compression key at all.
        assert "compression" not in config._canonical_dict()

    def test_dict_roundtrip(self):
        config = FederationConfig(
            dataset="mnist",
            algorithm="fedavg-compressed",
            compression=CompressionConfig(codec="topk", fraction=0.2),
        )
        again = FederationConfig.from_dict(config.to_dict())
        assert again == config
        assert again.compression == CompressionConfig(codec="topk", fraction=0.2)


class TestCompressedTrainer:
    def make_trainer(self, compressor=None, **kwargs):
        config = FederationConfig(
            dataset="mnist", algorithm="fedavg", num_clients=4,
            data=DataConfig(n_train=160, n_test=80), seed=0,
            local=LocalTrainConfig(epochs=1, batch_size=10),
        )
        clients = make_clients(config)
        return FedAvgCompressed(
            clients=clients,
            model_fn=model_factory(config),
            rounds=2,
            sample_fraction=0.5,
            seed=0,
            compressor=compressor,
            **kwargs,
        )

    def test_runs_with_each_codec(self):
        for compressor in (
            IdentityCompressor(),
            TopKCompressor(0.2),
            RandomMaskCompressor(0.2, seed=0),
            QuantizationCompressor(bits=8),
        ):
            history = self.make_trainer(compressor).run()
            assert 0.0 <= history.final_accuracy <= 1.0

    def test_compression_section_selects_codec(self):
        trainer = self.make_trainer(
            compression=CompressionConfig(codec="topk", fraction=0.2)
        )
        assert isinstance(trainer.compressor, TopKCompressor)
        assert trainer.compressor.fraction == 0.2
        # A plain dict (JSON ergonomics) works too.
        trainer = self.make_trainer(compression={"codec": "quantize", "bits": 4})
        assert isinstance(trainer.compressor, QuantizationCompressor)

    def test_topk_uplink_cheaper_than_identity(self):
        identity = self.make_trainer(IdentityCompressor()).run()
        compressed = self.make_trainer(TopKCompressor(0.1)).run()
        identity_up = sum(record.uploaded_bytes for record in identity.rounds)
        compressed_up = sum(record.uploaded_bytes for record in compressed.rounds)
        assert compressed_up < identity_up

    def test_identity_matches_plain_fedavg_cost_up(self):
        history = self.make_trainer(IdentityCompressor()).run()
        trainer = self.make_trainer(IdentityCompressor())
        expected_per_round = 2 * trainer.total_params * FLOAT_BITS / 8
        assert history.rounds[0].uploaded_bytes == expected_per_round
