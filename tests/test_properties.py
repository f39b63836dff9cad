"""Property-based invariants over randomized inputs (hypothesis drives the
seeds and curvature values; numpy generates the actual matrices)."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nullgeo.checks import radon_hurwitz_oracle
from nullgeo.core import (
    SYM_TOL,
    _asymmetry,
    is_codazzi_compatible,
    jacobi_derivative,
    jacobi_tensor,
    max_invertible_time,
    shape_operator_at,
    splitting_tensor_at,
)
from nullgeo.sampling import random_compatible_pair, random_splitting_tensor
from nullgeo.theorems import radon_hurwitz


curvatures = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=5)


def _mat(seed, q):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(q, q))


@given(seed=seeds, q=dims, c=curvatures)
@settings(max_examples=60, deadline=None)
def test_jacobi_initial_conditions(seed, q, c):
    C0 = _mat(seed, q)
    assert np.array_equal(jacobi_tensor(c, C0, 0.0), np.eye(q))
    np.testing.assert_allclose(jacobi_derivative(c, C0, 0.0), -C0, atol=1e-15)


@given(seed=seeds, q=dims, c=curvatures)
@settings(max_examples=60, deadline=None)
def test_gauge_identity_exact_at_zero(seed, q, c):
    """At t = 0 the grid evaluator builds J = I: C(0) and A(0) are C0 and A0
    bit for bit."""
    C0 = _mat(seed, q)
    A0 = np.random.default_rng([seed, 1]).uniform(-1.0, 1.0, size=(2, q, q))
    for k in (-1.0, 0.0, 1.0, c):
        assert np.array_equal(splitting_tensor_at(k, C0, 0.0).mat, C0)
        ops = shape_operator_at(A0, k, C0, 0.0).ops
        assert len(ops) == 2 and all(np.array_equal(a, b) for a, b in zip(ops, A0))


@given(seed=seeds, q=dims, c=curvatures, s=st.floats(0.05, 0.45), t=st.floats(0.05, 0.45))
@settings(max_examples=60, deadline=None)
def test_cocycle_property(seed, q, c, s, t):
    """Restarting the flow at C(s) and running for t more lands on C(s+t)."""
    C0 = _mat(seed, q)
    b = max_invertible_time(c, C0)
    horizon = min(b, 2.0)
    s *= horizon
    t *= horizon
    Cs = splitting_tensor_at(c, C0, s).mat
    restarted = splitting_tensor_at(c, Cs, t).mat
    direct = splitting_tensor_at(c, C0, s + t).mat
    scale = 1.0 + np.abs(direct).max()
    assert np.abs(restarted - direct).max() <= 1e-8 * scale


@given(seed=seeds, q=dims, c=curvatures, t=st.floats(0.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_jacobi_solves_its_ode(seed, q, c, t):
    """Second-difference residual of J'' + c J at the closed form."""
    C0 = _mat(seed, q)
    h = 1e-4
    J = lambda x: jacobi_tensor(c, C0, x)
    second = (J(t + h) - 2.0 * J(t) + J(t - h)) / (h * h)
    resid = np.abs(second + c * J(t)).max()
    assert resid <= 1e-5 * (1.0 + abs(c)) * (1.0 + np.abs(J(t)).max())


@given(seed=seeds, q=dims, c=curvatures, t=st.floats(0.1, 2.0))
@settings(max_examples=60, deadline=None)
def test_derivative_matches_finite_difference(seed, q, c, t):
    C0 = _mat(seed, q)
    h = 1e-6
    fd = (jacobi_tensor(c, C0, t + h) - jacobi_tensor(c, C0, t - h)) / (2 * h)
    exact = jacobi_derivative(c, C0, t)
    assert np.abs(fd - exact).max() <= 1e-5 * (1.0 + np.abs(exact).max())


@given(m=st.integers(min_value=1, max_value=4096))
@settings(max_examples=200, deadline=None)
def test_radon_hurwitz_agrees_with_recursion(m):
    assert radon_hurwitz(m) == radon_hurwitz_oracle(m)


@given(seed=seeds, q=st.integers(min_value=2, max_value=4))
@settings(max_examples=40, deadline=None)
def test_compatible_pair_is_codazzi(seed, q):
    rng = np.random.default_rng(seed)
    A0, C0 = random_compatible_pair(rng, q, p=2)
    assert is_codazzi_compatible(A0, C0)
    for a in A0.ops:
        assert np.abs(a - a.T).max() <= 1e-12 * (1.0 + np.abs(a).max())
    for p in (0, 3):
        with pytest.raises(ValueError):
            random_compatible_pair(rng, q, p)


@given(seed=seeds, q=st.integers(min_value=2, max_value=4), t=st.floats(0.05, 0.6))
@settings(max_examples=40, deadline=None)
def test_symmetry_propagates_along_flow(seed, q, t):
    """Codazzi-compatible initial data keeps the shape operators symmetric."""
    rng = np.random.default_rng(seed)
    A0, C0 = random_compatible_pair(rng, q)
    b = max_invertible_time(-1.0, C0.mat)
    A = shape_operator_at(A0, -1.0, C0, t * min(b, 3.0))
    assert max(map(_asymmetry, A.ops)) <= SYM_TOL


@given(seed=seeds, q=st.integers(min_value=2, max_value=4), t=st.floats(0.05, 0.6))
@settings(max_examples=40, deadline=None)
def test_kernel_is_preserved(seed, q, t):
    """Vectors killed by A0 are still killed after evolving, because
    A(t) = A0 J(t)^{-1} and J(t) maps ker A0 into itself for compatible data."""
    rng = np.random.default_rng(seed)
    A0, C0 = random_compatible_pair(rng, q)
    b = max_invertible_time(-1.0, C0.mat)
    time = t * min(b, 3.0)
    A = shape_operator_at(A0, -1.0, C0, time)
    for a0, a in zip(A0.ops, A.ops):
        _, s, vt = np.linalg.svd(a0)
        null_mask = s <= 1e-10 * (s[0] if s[0] > 0 else 1.0)
        for v in vt[len(s) - int(null_mask.sum()):]:
            assert np.linalg.norm(a @ v) <= 1e-8 * (1.0 + np.abs(a).max())


@given(seed=seeds, q=st.integers(min_value=2, max_value=4))
@settings(max_examples=40, deadline=None)
def test_random_splitting_tensor_shape(seed, q):
    rng = np.random.default_rng(seed)
    C = random_splitting_tensor(rng, q)
    assert C.shape == (q, q)
    assert np.isfinite(C).all()
