import math

import numpy as np
import pytest

from nullgeo.core import (
    INTERVAL_SLACK,
    RICCATI_BLOWUP,
    GeodesicDomain,
    NullityProfile,
    ShapeOperatorSet,
    SingularJacobi,
    SplittingTensor,
    _STAGE_CHUNK,
    _Evolution,
    _rk4_path,
    _rk4_segments,
    _rk4_stage_times,
    is_codazzi_compatible,
    jacobi_derivative,
    jacobi_tensor,
    max_invertible_time,
    riccati_flow,
    riccati_path,
    shape_ode_flow,
    shape_ode_path,
    shape_operator_at,
    splitting_tensor_at,
)
from nullgeo.sampling import random_compatible_pair

from conftest import det_sampling_bmax, rk4_second_order

SKEW2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


class TestDomainTypes:
    def test_profile_q(self):
        p = NullityProfile(n=5, p=2, nu=3)
        assert p.q == 2

    @pytest.mark.parametrize("n,p,nu", [(0, 1, 0), (3, -1, 0), (3, 1, 4), (3, 1, -1)])
    def test_profile_rejects_bad_dims(self, n, p, nu):
        with pytest.raises(ValueError):
            NullityProfile(n=n, p=p, nu=nu)

    def test_segment_needs_finite_positive_b(self):
        with pytest.raises(ValueError):
            GeodesicDomain.segment(0.0)
        with pytest.raises(ValueError):
            GeodesicDomain.segment(math.inf)
        assert GeodesicDomain.segment(1.5).b == 1.5

    def test_splitting_tensor_must_be_square(self):
        with pytest.raises(ValueError):
            SplittingTensor(np.zeros((2, 3)))


class TestJacobiTensor:
    def test_flat_closed_form(self, rng):
        C0 = rng.uniform(-1, 1, size=(3, 3))
        t = 0.7
        J = jacobi_tensor(0.0, C0, t).mat
        np.testing.assert_allclose(J, np.eye(3) - t * C0, rtol=0, atol=1e-15)

    def test_sphere_half_period_is_minus_identity(self):
        J = jacobi_tensor(1.0, np.zeros((2, 2)), math.pi).mat
        np.testing.assert_allclose(J, -np.eye(2), atol=1e-15)

    def test_initial_condition(self, rng):
        C0 = rng.uniform(-1, 1, size=(4, 4))
        for c in (-1.0, 0.0, 1.0, 2.5):
            assert np.array_equal(jacobi_tensor(c, C0, 0.0).mat, np.eye(4))

    def test_hyperbolic_skew_vs_ode_oracle(self):
        J = jacobi_tensor(-1.0, SKEW2, 1.0).mat
        expected = math.cosh(1.0) * np.eye(2) - math.sinh(1.0) * SKEW2
        np.testing.assert_allclose(J, expected, atol=1e-14)
        J_ode, _ = rk4_second_order(-1.0, SKEW2, 1.0)
        np.testing.assert_allclose(J, J_ode, atol=1e-10)

    def test_general_curvature_vs_ode_oracle(self, rng):
        C0 = rng.uniform(-1, 1, size=(3, 3))
        for c in (-2.3, 0.4, 3.1):
            J = jacobi_tensor(c, C0, 0.8).mat
            J_ode, _ = rk4_second_order(c, C0, 0.8)
            np.testing.assert_allclose(J, J_ode, atol=1e-10)


class TestJacobiDerivative:
    def test_derivative_at_zero(self, rng):
        C0 = rng.uniform(-1, 1, size=(3, 3))
        for c in (-1.0, 0.0, 1.0):
            np.testing.assert_allclose(jacobi_derivative(c, C0, 0.0), -C0, atol=1e-15)

    def test_flat_derivative_is_constant(self, rng):
        C0 = rng.uniform(-1, 1, size=(3, 3))
        np.testing.assert_allclose(jacobi_derivative(0.0, C0, 2.3), -C0, atol=1e-15)

    def test_hyperbolic_no_splitting(self):
        dJ = jacobi_derivative(-1.0, np.zeros((2, 2)), 1.0)
        np.testing.assert_allclose(dJ, math.sinh(1.0) * np.eye(2), atol=1e-15)

    def test_matches_finite_difference(self, rng):
        C0 = rng.uniform(-1, 1, size=(3, 3))
        h = 1e-6
        for c in (-1.0, 1.0):
            t = 0.9
            fd = (jacobi_tensor(c, C0, t + h).mat - jacobi_tensor(c, C0, t - h).mat) / (2 * h)
            exact = jacobi_derivative(c, C0, t)
            scale = 1.0 + np.abs(exact).max()
            assert np.abs(fd - exact).max() <= 1e-6 * scale


class TestMaxInvertibleTime:
    def test_flat_diagonal(self):
        assert max_invertible_time(0.0, np.diag([2.0, -3.0])) == pytest.approx(0.5, abs=1e-15)

    def test_sphere_scalar(self):
        assert max_invertible_time(1.0, np.array([[1.0]])) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_hyperbolic_skew_never_singular(self):
        assert max_invertible_time(-1.0, SKEW2) == math.inf

    def test_hyperbolic_double_eigenvalue(self):
        b = max_invertible_time(-1.0, 2.0 * np.eye(2))
        assert b == pytest.approx(0.5 * math.log(3.0), abs=1e-15)

    def test_hyperbolic_critical_eigenvalue_never_singular(self):
        # eigvals returns the eigenvalue a = 1 as a(1 + O(1e-16)); within
        # INTERVAL_SLACK it is a, and J(t) = e^{-t} on it never vanishes
        rng = np.random.default_rng(0)
        for _ in range(200):
            S = rng.normal(size=(3, 3))
            C0 = S @ np.diag([1.0, 0.3, -0.5]) @ np.linalg.inv(S)
            assert max_invertible_time(-1.0, C0) == math.inf

    def test_hyperbolic_eigenvalue_beyond_slack_is_singular(self):
        rng = np.random.default_rng(0)
        S = rng.normal(size=(3, 3))
        lam = 1.0 + 1e-6
        assert lam - 1.0 > 1000 * INTERVAL_SLACK
        C0 = S @ np.diag([lam, 0.3, -0.5]) @ np.linalg.inv(S)
        b = max_invertible_time(-1.0, C0)
        assert b == pytest.approx(0.5 * math.log((lam + 1.0) / (lam - 1.0)), rel=1e-8)

    def test_agrees_with_det_sampling(self, rng):
        for c in (-1.0, 0.0, 1.0):
            C0 = rng.uniform(-1, 1, size=(4, 4))
            b = max_invertible_time(c, C0)
            oracle = det_sampling_bmax(c, C0)
            if math.isinf(oracle):
                assert b > 10.0 or math.isinf(b)
            else:
                assert b == pytest.approx(oracle, abs=1e-6)


class TestSplittingTensorAt:
    def test_zero_splitting_stays_zero(self):
        C = splitting_tensor_at(0.0, np.zeros((3, 3)), 1.7).mat
        np.testing.assert_allclose(C, np.zeros((3, 3)), atol=1e-15)

    def test_flat_diagonal_scalar_riccati(self):
        lam = np.array([0.5, -1.5])
        t = 0.4
        C = splitting_tensor_at(0.0, np.diag(lam), t).mat
        np.testing.assert_allclose(C, np.diag(lam / (1 - lam * t)), atol=1e-12)

    def test_hyperbolic_tanh(self):
        for t in (0.3, 1.0, 2.5):
            C = splitting_tensor_at(-1.0, np.zeros((2, 2)), t).mat
            np.testing.assert_allclose(C, -math.tanh(t) * np.eye(2), atol=1e-14)

    def test_matches_riccati_oracle(self, rng):
        C0 = rng.uniform(-1, 1, size=(3, 3))
        for c in (-1.0, 0.0, 1.0):
            t = 0.6 * min(max_invertible_time(c, C0), 5.0)
            closed = splitting_tensor_at(c, C0, t).mat
            ode = riccati_flow(c, C0, t).mat
            assert np.abs(closed - ode).max() <= 1e-6

    def test_gauge_identity_exact(self, rng):
        C0 = rng.uniform(-1, 1, size=(4, 4))
        assert np.array_equal(splitting_tensor_at(-1.0, C0, 0.0).mat, C0)

    def test_raises_at_singularity(self):
        C0 = np.diag([2.0, -3.0])
        with pytest.raises(SingularJacobi):
            splitting_tensor_at(0.0, C0, 0.5)
        with pytest.raises(SingularJacobi):
            splitting_tensor_at(0.0, C0, 0.8)


class TestShapeOperatorAt:
    def test_zero_splitting_freezes_shape(self, rng):
        A0 = ShapeOperatorSet((np.diag([1.0, -2.0]),))
        A = shape_operator_at(A0, 0.0, np.zeros((2, 2)), 3.0)
        np.testing.assert_allclose(A.ops[0], A0.ops[0], atol=1e-15)

    def test_flat_rank_one_splitting(self):
        A0 = ShapeOperatorSet((np.diag([1.0, 2.0, 3.0]),))
        lam = 0.8
        C0 = np.diag([lam, 0.0, 0.0])
        t = 0.5
        A = shape_operator_at(A0, 0.0, C0, t)
        expected = A0.ops[0] @ np.diag([1 / (1 - lam * t), 1.0, 1.0])
        np.testing.assert_allclose(A.ops[0], expected, atol=1e-12)

    def test_critical_eigenvector_blowup_rate(self):
        # eigenvalue sqrt(-c) of the splitting tensor: the shape image on
        # that eigenvector grows like 1/(cosh t - sinh t) = e^t
        A0 = ShapeOperatorSet((np.eye(2),))
        C0 = np.eye(2)
        x0 = np.array([1.0, 0.0])
        for t in (1.0, 3.0, 10.0):
            A = shape_operator_at(A0, -1.0, C0, t)
            growth = np.linalg.norm(A.ops[0] @ x0)
            assert growth == pytest.approx(math.exp(t), rel=1e-10)

    def test_constant_rank(self, rng):
        A0, C0 = random_compatible_pair(rng, 4, p=2)
        b = max_invertible_time(-1.0, C0.mat)
        ranks0 = [np.linalg.matrix_rank(a, tol=1e-10) for a in A0.ops]
        for t in (0.2, 0.5, 0.8):
            A = shape_operator_at(A0, -1.0, C0, t * min(b, 5.0) * 0.9)
            ranks = [np.linalg.matrix_rank(a, tol=1e-10) for a in A.ops]
            assert ranks == ranks0


class TestGridEvaluator:
    """One evaluation on a time grid gives the same bits as the public
    one-time functions at each of its times."""

    @pytest.mark.parametrize("q", [2, 8, 32])
    @pytest.mark.parametrize("sign", [-1.0, 0.0, 1.0])
    def test_grid_matches_single_times_bitwise(self, rng, q, sign):
        c = sign * 0.64
        C0 = rng.uniform(-1, 1, size=(q, q)) / math.sqrt(q)
        A0 = [rng.uniform(-1, 1, size=(q, q)) for _ in range(2)]
        # both sides of a|t| = 1 (a = 0.8 for c < 0), in both directions
        reach = 3.0 / 0.8
        fwd = min(0.9 * max_invertible_time(c, C0), reach)
        bwd = min(0.9 * max_invertible_time(c, -C0), reach)
        grid = [*np.linspace(fwd, 0.05, 12), *np.linspace(-0.05, -bwd, 12)]
        ev = _Evolution(c, C0)
        C = ev.splitting(grid)
        A = ev.shape(A0, grid)
        Jinv = ev.inverse(grid)
        dets = ev.det(grid)
        for k, t in enumerate(grid):
            assert np.array_equal(C[k], splitting_tensor_at(c, C0, t).mat)
            J = jacobi_tensor(c, C0, t).mat
            if c >= 0.0 or 0.8 * abs(t) < 1.0:
                # off the scaled branch: the textbook -J' J^{-1}, bit for bit
                dJ = jacobi_derivative(c, C0, t)
                assert np.array_equal(C[k], -np.linalg.solve(J.T, dJ.T).T)
            single = shape_operator_at(A0, c, C0, t).ops
            for stack, a in zip(A, single):
                assert np.array_equal(stack[k], a)
            assert dets[k] == np.linalg.det(J)
            np.testing.assert_allclose(Jinv[k] @ J, np.eye(q), atol=1e-9)

    def test_det_beyond_cosh_overflow_uses_scaled_form(self):
        # J = cosh t - sinh t / 2 ~ e^t / 4 is representable past the point
        # where cosh t is not; det J = inf only where the value itself is
        ev = _Evolution(-1.0, np.array([[0.5]]))
        near, beyond, far = ev.det([700.0, 711.0, 712.0])
        assert near == pytest.approx(math.cosh(700.0) - 0.5 * math.sinh(700.0), rel=1e-12)
        assert beyond == pytest.approx(math.exp(711.0 - math.log(4.0)), rel=1e-12)
        assert far == math.inf

    def test_check_raises_at_first_singular_time(self):
        ev = _Evolution(0.0, np.diag([2.0, -3.0]))
        ev.check([0.0, 0.25, -0.3])
        with pytest.raises(SingularJacobi, match="t=0.5"):
            ev.check([0.25, 0.5, 0.8])
        with pytest.raises(SingularJacobi, match="t=-0.4"):
            ev.check([-0.4])


class TestRiccatiFlow:
    def test_zero_fixed_point(self):
        C = riccati_flow(0.0, np.zeros((2, 2)), 3.0).mat
        np.testing.assert_allclose(C, np.zeros((2, 2)), atol=1e-15)

    def test_sphere_tangent_solution(self):
        # C' = C^2 + I from C(0) = 0 is tan(t) I
        C = riccati_flow(1.0, np.zeros((2, 2)), math.pi / 4).mat
        np.testing.assert_allclose(C, np.eye(2), atol=1e-10)

    def test_flat_scalar_solution(self):
        C = riccati_flow(0.0, np.array([[1.0]]), 0.5).mat
        assert C[0, 0] == pytest.approx(2.0, abs=1e-10)

    def test_blowup_guard(self):
        with pytest.raises(SingularJacobi):
            riccati_flow(0.0, np.diag([2.0, -3.0]), 0.6)

    def test_bitwise_textbook_rk4_on_criterion_01_draws(self):
        # the draws and time grids of acceptance criterion 01, at a coarser
        # step: the arithmetic of a step does not depend on its size
        rng = np.random.default_rng(101)
        for i in range(200):
            c = (-1.0, 0.0, 1.0)[i % 3]
            q = int(rng.integers(1, 6))
            C0 = rng.uniform(-1.0, 1.0, size=(q, q))
            span = min(0.8 * max_invertible_time(c, C0), 5.0)
            times = [span * k / 5 for k in range(1, 6)]
            ref = _rk4_path(lambda _t, C: C @ C + c * np.eye(q), C0, times, 2e-2, RICCATI_BLOWUP)
            got = riccati_path(c, C0, times, step=2e-2)
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))


class TestShapeOdeFlow:
    def test_zero_splitting(self):
        A0 = ShapeOperatorSet((np.diag([1.0, -1.0]),))
        A = shape_ode_flow(A0, 0.0, np.zeros((2, 2)), 2.0)
        np.testing.assert_allclose(A.ops[0], A0.ops[0], atol=1e-12)

    def test_flat_identity_splitting(self):
        A0 = ShapeOperatorSet((np.diag([1.0, -1.0]),))
        A = shape_ode_flow(A0, 0.0, np.eye(2), 0.5)
        np.testing.assert_allclose(A.ops[0], np.diag([2.0, -2.0]), atol=1e-8)

    def test_matches_closed_form_on_catalog_data(self):
        # hyperbolic-cylinder principal curvatures, vanishing splitting
        lam_s = math.sqrt(2.0)
        lam_h = 1.0 / math.sqrt(2.0)
        A0 = ShapeOperatorSet((np.diag([lam_s, lam_h]),))
        C0 = np.zeros((2, 2))
        ode = shape_ode_flow(A0, -1.0, C0, 1.0)
        closed = shape_operator_at(A0, -1.0, C0, 1.0)
        assert np.abs(ode.ops[0] - closed.ops[0]).max() <= 1e-6

    def test_stage_times_are_the_integrator_times(self):
        # the shape oracle takes C at the exact float time of each stage
        times = [0.3, 0.3, 1.25, 2.0]
        seen = []
        _rk4_path(lambda t, y: seen.append(t) or 0.0 * y, np.zeros(1), times, 1e-3, 1.0)
        grids = [g for seg in _rk4_segments(times, 1e-3) for g in _rk4_stage_times(*seg)]
        assert set(seen) == {t for g in grids for t in g}
        assert max(len(g) for g in grids) == 2 * _STAGE_CHUNK + 1

    @staticmethod
    def _assert_matches_textbook_rk4(c, C0, A0, times, step=1e-2):
        # the generic integrator with one closed-form C per stage
        ref = _rk4_path(
            lambda t, A: A @ splitting_tensor_at(c, C0, t).mat,
            np.stack(A0), times, step, RICCATI_BLOWUP,
        )
        got = shape_ode_path(A0, c, C0, times, step)
        for At, y in zip(got, ref):
            assert np.abs(np.stack(At.ops) - y).max() <= 1e-12 * np.abs(y).max()

    @pytest.mark.parametrize(
        "c,q,p",
        [
            (-1.0, 1, 1), (0.0, 2, 2), (1.0, 3, 1), (-1.0, 4, 2),
            (0.0, 5, 1), (1.0, 1, 2), (-1.0, 2, 1), (0.0, 3, 2),
            (1.0, 4, 2), (1.0, 5, 1), (0.0, 1, 1),
        ],
    )
    def test_step_propagator_matches_textbook_rk4(self, rng, c, q, p):
        C0 = rng.uniform(-1.0, 1.0, size=(q, q))
        A0 = [rng.uniform(-1.0, 1.0, size=(q, q)) for _ in range(p)]
        span = min(0.8 * max_invertible_time(c, C0), 1.5)
        self._assert_matches_textbook_rk4(c, C0, A0, [0.0, 0.4 * span, 0.4 * span, span])

    def test_step_propagator_matches_textbook_rk4_across_scaled_branch(self, rng):
        # c = -0.25: a|t| = 1 at t = 2, so the grid crosses onto the scaled
        # branch of C; a skew C0 keeps J invertible for all t
        m = rng.uniform(-1.0, 1.0, size=(3, 3))
        A0 = [rng.uniform(-1.0, 1.0, size=(3, 3)) for _ in range(2)]
        self._assert_matches_textbook_rk4(-0.25, m - m.T, A0, [1.5, 3.5])

    def test_blowup_guard_names_the_first_step_past_the_bound(self):
        # A(t) = 5.0001e7 / (1 - t) reaches the guard 1e8 at t = 0.49999,
        # inside the step (0.499, 0.5]; with 5e7 the crossing would sit
        # exactly on the step end, where rounding decides the step
        A0 = ShapeOperatorSet((5.0001e7 * np.eye(2),))
        with pytest.raises(SingularJacobi, match=r"near t=0\.5$"):
            shape_ode_flow(A0, 0.0, np.eye(2), 0.6)


class TestCodazziCompatibility:
    def test_symmetric_with_zero_splitting(self, rng):
        m = rng.uniform(-1, 1, size=(3, 3))
        A0 = ShapeOperatorSet((0.5 * (m + m.T),))
        assert is_codazzi_compatible(A0, np.zeros((3, 3)))

    def test_inverse_pair_construction(self, rng):
        A0, C0 = random_compatible_pair(rng, 4, p=2)
        assert is_codazzi_compatible(A0, C0)

    def test_nilpotent_counterexample(self):
        A0 = ShapeOperatorSet((np.diag([1.0, 2.0]),))
        C0 = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert not is_codazzi_compatible(A0, C0)
