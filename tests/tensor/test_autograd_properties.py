"""Hypothesis property tests for the autograd engine."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.tensor import Tensor, check_gradients

SMALL_FLOATS = st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False
)


def arrays(max_side=4, min_dims=1, max_dims=3):
    return hnp.arrays(
        dtype=np.float64,
        shape=hnp.array_shapes(
            min_dims=min_dims, max_dims=max_dims, min_side=1, max_side=max_side
        ),
        elements=SMALL_FLOATS,
    )


@settings(max_examples=30, deadline=None)
@given(arrays())
def test_add_gradient_is_ones(data):
    a = Tensor(data, requires_grad=True)
    (a + 1.0).sum().backward()
    np.testing.assert_allclose(a.grad, np.ones_like(data))


@settings(max_examples=30, deadline=None)
@given(arrays())
def test_mul_gradient_is_other_operand(data):
    a = Tensor(data, requires_grad=True)
    b = Tensor(np.full_like(data, 2.5))
    (a * b).sum().backward()
    np.testing.assert_allclose(a.grad, np.full_like(data, 2.5))

@settings(max_examples=25, deadline=None)
@given(arrays(max_side=3, max_dims=2))
def test_sum_then_backward_matches_gradcheck(data):
    a = Tensor(data + 0.1, requires_grad=True)  # shift away from relu kink
    check_gradients(lambda: (a.relu() * a).sum(), [a], atol=1e-4)


@settings(max_examples=30, deadline=None)
@given(arrays())
def test_reshape_preserves_gradient_mass(data):
    a = Tensor(data, requires_grad=True)
    a.reshape(-1).sum().backward()
    np.testing.assert_allclose(a.grad, np.ones_like(data))


@settings(max_examples=30, deadline=None)
@given(arrays(min_dims=2, max_dims=2))
def test_transpose_involution(data):
    a = Tensor(data)
    np.testing.assert_array_equal(a.transpose().transpose().data, data)


@settings(max_examples=30, deadline=None)
@given(arrays(min_dims=2, max_dims=2), st.integers(min_value=0, max_value=1))
def test_sum_axis_equals_numpy(data, axis):
    a = Tensor(data)
    np.testing.assert_allclose(a.sum(axis=axis).data, data.sum(axis=axis), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(arrays(min_dims=1, max_dims=1))
def test_chain_rule_scaling(data):
    """d/dx of (c * x).sum() is c for any constant c."""
    a = Tensor(data, requires_grad=True)
    (a * 3.0 + a * -1.5).sum().backward()
    np.testing.assert_allclose(a.grad, np.full_like(data, 1.5))
