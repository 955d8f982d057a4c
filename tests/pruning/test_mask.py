"""MaskSet algebra and the Hamming mask distance, with property tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.models import MLP
from repro.pruning import MaskSet, hamming_distance

binary_arrays = hnp.arrays(
    dtype=np.int64,
    shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=6),
    elements=st.integers(min_value=0, max_value=1),
)


class TestMaskSetBasics:
    def test_set_get_contains(self):
        masks = MaskSet()
        masks["w"] = np.array([1, 0, 1])
        assert "w" in masks
        np.testing.assert_array_equal(masks["w"], [1.0, 0.0, 1.0])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="0/1"):
            MaskSet({"w": np.array([0.5, 1.0])})

    @pytest.mark.parametrize("bad", [np.nan, 2, -1, np.inf])
    def test_rejects_nan_and_out_of_range(self, bad):
        with pytest.raises(ValueError, match="0/1"):
            MaskSet({"w": np.array([1.0, bad])})

    def test_counts(self):
        masks = MaskSet({"a": np.array([1, 0, 0, 1]), "b": np.ones(4)})
        assert masks.kept() == 6
        assert masks.total() == 8
        assert masks.sparsity() == 0.25
        assert masks.density() == 0.75

    def test_empty_sparsity_zero(self):
        assert MaskSet().sparsity() == 0.0

    def test_copy_is_deep(self):
        masks = MaskSet({"a": np.array([1.0, 0.0])})
        clone = masks.copy()
        clone["a"][0] = 0.0
        assert masks["a"][0] == 1.0

    def test_equality(self):
        a = MaskSet({"w": np.array([1, 0])})
        b = MaskSet({"w": np.array([1, 0])})
        c = MaskSet({"w": np.array([1, 1])})
        assert a == b
        assert a != c
        assert a != MaskSet({"v": np.array([1, 0])})

    def test_for_model(self, rng):
        model = MLP(4, 2, hidden=(3,), rng=rng)
        masks = MaskSet.for_model(model)
        assert masks.total() == model.num_parameters()
        assert masks.sparsity() == 0.0

    def test_for_model_subset(self, rng):
        model = MLP(4, 2, hidden=(3,), rng=rng)
        masks = MaskSet.for_model(model, ["fc1.weight"])
        assert list(masks.names()) == ["fc1.weight"]

    def test_ones_like(self):
        masks = MaskSet.ones_like({"w": (2, 3)})
        assert masks["w"].shape == (2, 3)


class TestMaskAlgebra:
    def test_intersect(self):
        a = MaskSet({"w": np.array([1, 1, 0])})
        b = MaskSet({"w": np.array([1, 0, 0])})
        np.testing.assert_array_equal(a.intersect(b)["w"], [1, 0, 0])

    def test_intersect_missing_treated_dense(self):
        a = MaskSet({"w": np.array([1, 0])})
        b = MaskSet({"v": np.array([0, 1])})
        merged = a.intersect(b)
        np.testing.assert_array_equal(merged["w"], [1, 0])
        np.testing.assert_array_equal(merged["v"], [0, 1])

    def test_union(self):
        a = MaskSet({"w": np.array([1, 0, 0])})
        b = MaskSet({"w": np.array([0, 1, 0])})
        np.testing.assert_array_equal(a.union(b)["w"], [1, 1, 0])

    @settings(max_examples=30, deadline=None)
    @given(binary_arrays, binary_arrays)
    def test_property_intersection_subset(self, a, b):
        if a.shape != b.shape:
            b = np.resize(b, a.shape)
        ma, mb = MaskSet({"w": a}), MaskSet({"w": b})
        inter = ma.intersect(mb)["w"]
        assert (inter <= ma["w"]).all()
        assert (inter <= mb["w"]).all()

    @settings(max_examples=30, deadline=None)
    @given(binary_arrays)
    def test_property_intersect_idempotent(self, a):
        masks = MaskSet({"w": a})
        assert masks.intersect(masks) == masks

    @settings(max_examples=30, deadline=None)
    @given(binary_arrays)
    def test_property_union_intersect_absorption(self, a):
        masks = MaskSet({"w": a})
        assert masks.union(masks.intersect(masks)) == masks


class TestApplication:
    def test_apply_to_model_zeros(self, rng):
        model = MLP(4, 2, hidden=(3,), rng=rng)
        masks = MaskSet({"fc1.weight": np.zeros((3, 4))})
        masks.apply_to_model(model)
        np.testing.assert_array_equal(model.fc1.weight.data, np.zeros((3, 4)))
        assert not np.allclose(model.fc2.weight.data, 0.0)

    def test_apply_unknown_name_raises(self, rng):
        model = MLP(4, 2, rng=rng)
        with pytest.raises(KeyError):
            MaskSet({"bogus": np.ones(3)}).apply_to_model(model)

    def test_apply_to_state_copies(self):
        state = {"w": np.ones(3)}
        masked = MaskSet({"w": np.array([1, 0, 1])}).apply_to_state(state)
        np.testing.assert_array_equal(masked["w"], [1, 0, 1])
        np.testing.assert_array_equal(state["w"], [1, 1, 1])  # untouched

    def test_as_grad_masks_shares_arrays(self):
        masks = MaskSet({"w": np.array([1.0, 0.0])})
        assert masks.as_grad_masks()["w"] is masks["w"]


class TestHammingDistance:
    def test_identical_is_zero(self):
        masks = MaskSet({"w": np.array([1, 0, 1])})
        assert hamming_distance(masks, masks) == 0.0

    def test_normalized_value(self):
        a = MaskSet({"w": np.array([1, 1, 1, 1])})
        b = MaskSet({"w": np.array([1, 0, 1, 0])})
        assert hamming_distance(a, b) == 0.5

    def test_unnormalized(self):
        a = MaskSet({"w": np.array([1, 1])})
        b = MaskSet({"w": np.array([0, 0])})
        assert hamming_distance(a, b, normalized=False) == 2.0

    def test_missing_name_compared_to_ones(self):
        a = MaskSet({"w": np.array([1, 1])})
        b = MaskSet()
        assert hamming_distance(a, b) == 0.0
        a2 = MaskSet({"w": np.array([0, 0])})
        assert hamming_distance(a2, b) == 1.0

    def test_empty_sets(self):
        assert hamming_distance(MaskSet(), MaskSet()) == 0.0

    def test_shape_mismatch_raises(self):
        a = MaskSet({"w": np.array([1, 1])})
        b = MaskSet({"w": np.array([1, 1, 1])})
        with pytest.raises(ValueError):
            hamming_distance(a, b)

    @settings(max_examples=30, deadline=None)
    @given(binary_arrays, binary_arrays)
    def test_property_symmetry(self, a, b):
        if a.shape != b.shape:
            b = np.resize(b, a.shape)
        ma, mb = MaskSet({"w": a}), MaskSet({"w": b})
        assert hamming_distance(ma, mb) == hamming_distance(mb, ma)

    @settings(max_examples=30, deadline=None)
    @given(binary_arrays)
    def test_property_zero_iff_equal(self, a):
        masks = MaskSet({"w": a})
        assert hamming_distance(masks, masks.copy()) == 0.0
