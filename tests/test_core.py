import math

import numpy as np
import pytest

from nullgeo.core import (
    INTERVAL_SLACK,
    RICCATI_BLOWUP,
    SYM_TOL,
    GeodesicDomain,
    NullityError,
    NullityProfile,
    ShapeOperatorSet,
    SingularJacobi,
    SplittingTensor,
    _COSH_MAX,
    _STAGE_CHUNK,
    _Evolution,
    _guard_limit,
    _riccati_stack,
    _shape_stack,
    _Stack,
    is_codazzi_compatible,
    jacobi_derivative,
    jacobi_tensor,
    max_invertible_time,
    riccati_path,
    shape_ode_path,
    shape_operator_at,
    splitting_tensor_at,
)
from nullgeo.checks import SKEW2, _batch, riccati_cases, riccati_deviation, shape_cases, shape_deviation
from nullgeo.sampling import random_compatible_pair

from conftest import POWERS_OF_TWO, det_sampling_bmax, rank_one_draws, rk4_path, rk4_second_order


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
        J = jacobi_tensor(0.0, C0, t)
        np.testing.assert_allclose(J, np.eye(3) - t * C0, rtol=0, atol=1e-15)

    def test_sphere_half_period_is_minus_identity(self):
        J = jacobi_tensor(1.0, np.zeros((2, 2)), math.pi)
        np.testing.assert_allclose(J, -np.eye(2), atol=1e-15)

    def test_initial_condition(self, rng):
        C0 = rng.uniform(-1, 1, size=(4, 4))
        for c in (-1.0, 0.0, 1.0, 2.5):
            assert np.array_equal(jacobi_tensor(c, C0, 0.0), np.eye(4))

    def test_hyperbolic_skew_vs_ode_oracle(self):
        J = jacobi_tensor(-1.0, SKEW2, 1.0)
        expected = math.cosh(1.0) * np.eye(2) - math.sinh(1.0) * SKEW2
        np.testing.assert_allclose(J, expected, atol=1e-14)
        J_ode, _ = rk4_second_order(-1.0, SKEW2, 1.0)
        np.testing.assert_allclose(J, J_ode, atol=1e-10)

    def test_general_curvature_vs_ode_oracle(self, rng):
        C0 = rng.uniform(-1, 1, size=(3, 3))
        for c in (-2.3, 0.4, 3.1):
            J = jacobi_tensor(c, C0, 0.8)
            J_ode, _ = rk4_second_order(c, C0, 0.8)
            np.testing.assert_allclose(J, J_ode, atol=1e-10)

    def test_past_the_float_range_is_a_nullity_error(self):
        # cosh(a|t|) is past the float range from a|t| ~ 710.48: one line
        # naming t, where math.cosh raised a bare OverflowError
        C0 = 0.5 * np.eye(2)
        for fn in (jacobi_tensor, jacobi_derivative):
            for t in (800.0, -711.0):
                with pytest.raises(NullityError, match=rf"^[^\n]* at t={t}$"):
                    fn(-1.0, C0, t)
        # the times that return keep the bits of the libm arithmetic
        for t in (700.0, _COSH_MAX, 710.0, -709.5):
            co, si = math.cosh(t), math.sinh(t)
            assert np.array_equal(jacobi_tensor(-1.0, C0, t), co * np.eye(2) - si * C0)
            assert np.array_equal(jacobi_derivative(-1.0, C0, t), si * np.eye(2) - co * C0)


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
            fd = (jacobi_tensor(c, C0, t + h) - jacobi_tensor(c, C0, t - h)) / (2 * h)
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

    @pytest.mark.parametrize("c", [-1e-300, -1e-40, -1e-20, -1e-12])
    def test_hyperbolic_root_for_a_far_below_the_eigenvalue(self, c):
        # coth(a b) = lam / a with a = sqrt(-c) << lam: b = atanh(2a) / a for
        # lam = 1/2, 2 (1 + 4a^2/3 + ...) by the series; (x + 1)/(x - 1) with
        # x = lam / a rounded to 1 for x > ~2**53 and gave b = 0
        want = 2.0 * (1.0 + 4.0 * -c / 3.0)
        assert max_invertible_time(c, np.array([[0.5]])) == pytest.approx(want, rel=1e-12)
        assert np.isfinite(splitting_tensor_at(c, [[0.5]], 1.0).mat).all()

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
            ode = riccati_path(c, C0, [t])[-1]
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
        dets = ev.evaluate([], grid)[0]
        for k, t in enumerate(grid):
            assert np.array_equal(C[k], splitting_tensor_at(c, C0, t).mat)
            J = jacobi_tensor(c, C0, t)
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
        near, beyond, far = ev.evaluate([], [700.0, 711.0, 712.0])[0]
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
        C = riccati_path(0.0, np.zeros((2, 2)), [3.0])[-1]
        np.testing.assert_allclose(C, np.zeros((2, 2)), atol=1e-15)

    def test_sphere_tangent_solution(self):
        # C' = C^2 + I from C(0) = 0 is tan(t) I
        C = riccati_path(1.0, np.zeros((2, 2)), [math.pi / 4])[-1]
        np.testing.assert_allclose(C, np.eye(2), atol=1e-10)

    def test_flat_scalar_solution(self):
        C = riccati_path(0.0, np.array([[1.0]]), [0.5])[-1]
        assert C[0, 0] == pytest.approx(2.0, abs=1e-10)

    def test_blowup_guard(self):
        with pytest.raises(SingularJacobi):
            riccati_path(0.0, np.diag([2.0, -3.0]), [0.6])

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
            ref = rk4_path(lambda _t, C: C @ C + c * np.eye(q), C0, times, 2e-2, RICCATI_BLOWUP)
            got = riccati_path(c, C0, times, step=2e-2)
            assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(got, ref))

    def test_lone_rank_one_case_is_textbook_rk4(self):
        # a lone q = 1 case steps on Python floats; records and guard
        # messages are those of the textbook RK4 on 1x1 arrays
        calm = {}
        for c, C0, times, step in rank_one_draws():
            def f(_t, C, c=c):
                return C @ C + c * np.eye(1)

            try:
                ref = rk4_path(f, C0, times, step, RICCATI_BLOWUP)
            except SingularJacobi as exc:
                with pytest.raises(SingularJacobi) as got:
                    riccati_path(c, C0, times, step)
                assert str(got.value) == str(exc)
                continue
            got = riccati_path(c, C0, times, step)
            assert len(got) == len(ref) == 4
            assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(got, ref))
            calm.setdefault(step, []).append((c, C0, times, got))
        # q = 1 stacks of K >= 2 keep the stacked path and the same bits
        for step, cases in calm.items():
            cs, C0s, times, alone = zip(*cases)
            assert len(cases) >= 2
            for path, ref in zip(_riccati_stack(cs, C0s, times, step), alone):
                assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(path, ref))


class TestShapeOdeFlow:
    def test_zero_splitting(self):
        A0 = ShapeOperatorSet((np.diag([1.0, -1.0]),))
        A = shape_ode_path(A0, 0.0, np.zeros((2, 2)), [2.0])[-1]
        np.testing.assert_allclose(A.ops[0], A0.ops[0], atol=1e-12)

    def test_flat_identity_splitting(self):
        A0 = ShapeOperatorSet((np.diag([1.0, -1.0]),))
        A = shape_ode_path(A0, 0.0, np.eye(2), [0.5])[-1]
        np.testing.assert_allclose(A.ops[0], np.diag([2.0, -2.0]), atol=1e-8)

    def test_matches_closed_form_on_catalog_data(self):
        # hyperbolic-cylinder principal curvatures, vanishing splitting
        lam_s = math.sqrt(2.0)
        lam_h = 1.0 / math.sqrt(2.0)
        A0 = ShapeOperatorSet((np.diag([lam_s, lam_h]),))
        C0 = np.zeros((2, 2))
        ode = shape_ode_path(A0, -1.0, C0, [1.0])[-1]
        closed = shape_operator_at(A0, -1.0, C0, 1.0)
        assert np.abs(ode.ops[0] - closed.ops[0]).max() <= 1e-6

    def test_stage_times_are_the_integrator_times(self, monkeypatch):
        # the shape oracle takes C at the exact float time of each stage
        times = [0.3, 0.3, 1.25, 2.0]
        seen = []
        rk4_path(lambda t, y: seen.append(t) or 0.0 * y, np.zeros(1), times, 1e-3, 1.0)
        stack = _Stack([times], 1e-3)
        live = stack.h[0] > 0.0
        t0, h = stack.t0[0][live], stack.h[0][live]
        assert set(seen) == {*t0, *(t0 + 0.5 * h), *(t0 + h)}
        grids, splitting = [], _Evolution.splitting
        monkeypatch.setattr(
            _Evolution, "splitting", lambda ev, ts: grids.append(ts.copy()) or splitting(ev, ts)
        )
        shape_ode_path([np.eye(2)], 0.0, np.zeros((2, 2)), times, 1e-3)
        assert set(seen) == {t for g in grids for t in g}
        assert max(len(g) for g in grids) == 2 * _STAGE_CHUNK + 1

    @staticmethod
    def _assert_matches_textbook_rk4(c, C0, A0, times, step=1e-2):
        # the generic integrator with one closed-form C per stage
        ref = rk4_path(
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
            shape_ode_path(A0, 0.0, np.eye(2), [0.6])


def _bits(x) -> np.ndarray:
    # int64 views tell -0.0 from 0.0, which array_equal does not
    return np.asarray(x, dtype=float).view(np.int64)


# the generators of acceptance criteria 01 (seed 101, 200 cases) and 02
# (seed 102), and of the `check` runs of seeds 0..7 (5 cases each)
DEVIATION_DRAWS = pytest.mark.parametrize(
    "ric_seed,shape_seed,count",
    [(101, 102, 200)] + [([s, 100], [s, 200], 5) for s in range(8)],
    ids=["criteria-01-02"] + [f"check-seed-{s}" for s in range(8)],
)
STACK_STEP = 2e-2  # the arithmetic of a step does not depend on its size


class TestStackedOracles:
    """Cases stepped together as one stack give the bits of each case
    stepped alone, and the deviations computed from stacks are those of the
    case-by-case loop."""

    @DEVIATION_DRAWS
    def test_riccati_stacks_match_stacks_of_one(self, ric_seed, shape_seed, count):
        cases = riccati_cases(np.random.default_rng(ric_seed), count)
        alone = [riccati_path(*case, STACK_STEP) for case in cases]
        for path, one in zip(_batch(_riccati_stack, cases, STACK_STEP), alone, strict=True):
            assert len(path) == len(one) == 5
            assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(path, one))
        worst = 0.0
        for (c, C0, ts), path in zip(cases, alone):
            for t, Ct in zip(ts, path):
                worst = max(worst, float(np.abs(splitting_tensor_at(c, C0, t).mat - Ct).max()))
        got = riccati_deviation(np.random.default_rng(ric_seed), count, STACK_STEP)
        assert _bits(got) == _bits(worst)

    @DEVIATION_DRAWS
    def test_shape_stacks_match_stacks_of_one(self, ric_seed, shape_seed, count):
        cases = shape_cases(np.random.default_rng(shape_seed), count)
        alone = [shape_ode_path(list(A0), *case, STACK_STEP) for A0, *case in cases]
        for path, one in zip(_batch(_shape_stack, cases, STACK_STEP), alone, strict=True):
            assert len(path) == len(one) == 5
            for a, b in zip(path, one):
                assert np.array_equal(_bits(a), _bits(np.stack(b.ops)))
        worst = 0.0
        for (A0, c, C0, ts), path in zip(cases, alone):
            for t, At in zip(ts, path):
                for x, y in zip(shape_operator_at(list(A0), c, C0, t).ops, At.ops):
                    worst = max(worst, float(np.abs(x - y).max()))
        got = shape_deviation(np.random.default_rng(shape_seed), count, STACK_STEP)
        assert _bits(got) == _bits(worst)

    def test_mixed_schedules_pad_only_after_the_last_record(self, rng):
        for cs, times, step in [
            # a repeated time, a record at 0 and schedules of different lengths
            ([1.0, -1.0, 0.0], [[0.0, 0.3, 0.3, 0.9], [0.05], [0.2, 1.7]], 1e-2),
            # segments that end at different offsets inside 512-step blocks;
            # |eigenvalues of C0| < 1 = sqrt(-c) keeps J invertible
            ([-1.0, -1.0], [[0.3, 0.3, 1.25, 2.0], [0.7, 3.1]], 1e-3),
        ]:
            C0s = [0.3 * rng.uniform(-1.0, 1.0, size=(3, 3)) for _ in cs]
            stacked = _riccati_stack(cs, C0s, times, step)
            A0s = [np.stack([rng.uniform(-1.0, 1.0, size=(3, 3))]) for _ in cs]
            shaped = _shape_stack(A0s, cs, C0s, times, step)
            for c, C0, A0, ts, path, shape in zip(cs, C0s, A0s, times, stacked, shaped):
                alone = riccati_path(c, C0, ts, step)
                assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(path, alone))
                alone = [np.stack(b.ops) for b in shape_ode_path(list(A0), c, C0, ts, step)]
                assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(shape, alone))

    def test_guard_in_a_stack_names_the_crossing_case_as_alone(self, rng):
        # C = diag(2, -3) / (1 - diag(2, -3) t) blows up at t = 0.5; the other
        # cases of the stack run longer and stay bounded
        blow = np.diag([2.0, -3.0])
        with pytest.raises(SingularJacobi) as alone:
            riccati_path(0.0, blow, [0.6])
        calm = [0.1 * rng.uniform(-1.0, 1.0, size=(2, 2)) for _ in range(3)]
        with pytest.raises(SingularJacobi) as stacked:
            _riccati_stack([-1.0, 0.0, 1.0, 0.0], [*calm, blow],
                           [[0.3, 1.0], [0.7], [0.2, 0.4, 0.9], [0.6]], 1e-3)
        assert str(stacked.value) == str(alone.value)
        assert "near t=0.5" in str(alone.value)

        A0 = 5.0001e7 * np.eye(2)
        with pytest.raises(SingularJacobi) as alone:
            shape_ode_path([A0], 0.0, np.eye(2), [0.6])
        calm = [np.stack([np.eye(2)]) for _ in range(2)]
        with pytest.raises(SingularJacobi) as stacked:
            _shape_stack([*calm, A0[None]], [0.0, -1.0, 0.0], [np.zeros((2, 2)), SKEW2, np.eye(2)],
                         [[0.3, 0.9], [1.0], [0.6]], 1e-3)
        assert str(stacked.value) == str(alone.value)
        assert str(alone.value).endswith("near t=0.5")

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, RICCATI_BLOWUP, -RICCATI_BLOWUP]
    )
    @pytest.mark.parametrize("shape", [(1, 1, 1), (1, 3, 3), (7, 2, 2), (60, 2, 5, 5)])
    def test_guard_screen_never_clears_a_tripping_entry(self, rng, bad, shape):
        # the sum of squares screens the stack; an entry that trips the exact
        # check must always fail the screen, at the worst place in the stack
        scale = 0.999 * RICCATI_BLOWUP / math.sqrt(math.prod(shape))
        Y = scale * rng.uniform(-1.0, 1.0, size=shape)
        Y.reshape(-1)[-1] = bad
        yf = Y.reshape(-1)
        assert not yf.dot(yf) < _guard_limit(yf.size)
        stack = _Stack([[1.0]] * len(Y), 0.5)
        with pytest.raises(SingularJacobi, match=r"exceeded blow-up guard near t=0\.5$"):
            stack.guard(Y, 0)

    def test_guard_screen_is_conservative_just_below_the_bound(self):
        below = np.nextafter(RICCATI_BLOWUP, 0.0)
        yf = np.array([below, 0.0, 0.0, 0.0])
        assert not yf.dot(yf) < _guard_limit(yf.size)  # screened out, then
        _Stack([[1.0]], 0.5).guard(yf.reshape(1, 2, 2), 0)  # the exact check passes

    @pytest.mark.parametrize("value", [math.nan, math.inf, RICCATI_BLOWUP])
    def test_oracles_trip_on_nan_inf_and_the_bound_itself(self, value):
        # C = 0 makes every step matrix I, so A keeps its entries exactly
        A0 = np.diag([value, 0.0])
        late = "near t=0.001$"  # the end of the first step
        with np.errstate(invalid="ignore"), pytest.raises(SingularJacobi, match=late):
            shape_ode_path([A0], 0.0, np.zeros((2, 2)), [0.5])
        if value != RICCATI_BLOWUP:
            with np.errstate(invalid="ignore"), pytest.raises(SingularJacobi, match=late):
                riccati_path(0.0, np.diag([value, 0.0]), [0.5])
        below = np.diag([np.nextafter(RICCATI_BLOWUP, 0.0), 0.0])
        (A,) = shape_ode_path([below], 0.0, np.zeros((2, 2)), [0.5])
        assert np.array_equal(_bits(A.ops[0]), _bits(below))

    # the closed forms' arithmetic one time at a time, with Python floats

    @staticmethod
    def _scalar_jacobi(c, C0, t):
        a = math.sqrt(abs(c))
        if c == 0.0:
            u, v, du, dv = 1.0, t, 0.0, 1.0
        elif c > 0.0:
            co, si = math.cos(a * t), math.sin(a * t)
            u, v, du, dv = co, si / a, -a * si, co
        else:
            co, si = math.cosh(a * t), math.sinh(a * t)
            u, v, du, dv = co, si / a, a * si, co
        eye = np.eye(len(C0))
        return u * eye - v * C0, du * eye - dv * C0

    def _scalar_factors(self, c, C0, t):
        a = math.sqrt(abs(c))
        if not (c < 0.0 and a * abs(t) >= 1.0):
            return (*self._scalar_jacobi(c, C0, t), 1.0)
        eye = np.eye(len(C0))
        sgn = math.copysign(1.0, t)
        eps = math.exp(-2.0 * a * abs(t))
        M = (eye - (sgn / a) * C0) + eps * (eye + (sgn / a) * C0)
        N = sgn * a * (eye - eps * eye) - (1.0 + eps) * C0
        return M, N, 2.0 * math.exp(-a * abs(t))

    def _scalar_det(self, c, C0, t):
        a = math.sqrt(abs(c))
        if a * abs(t) <= _COSH_MAX:
            return np.linalg.det(self._scalar_jacobi(c, C0, t)[0])
        sign, logdet = np.linalg.slogdet(self._scalar_factors(c, C0, t)[0])
        try:
            return sign * math.exp(len(C0) * (a * abs(t) - math.log(2.0)) + logdet)
        except OverflowError:
            return sign * math.inf

    @staticmethod
    def _straddling_grid(c):
        """Times at, next to and below a|t| = 1 and a|t| = _COSH_MAX, of
        both signs (a = 1 for c = 0), and 0, -0, 3, -2."""
        a = math.sqrt(abs(c)) or 1.0
        grid = []
        for edge in (1.0 / a, _COSH_MAX / a):
            for t in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, math.inf), 0.5 * edge):
                grid += [float(t), -float(t)]
        grid += [0.0, -0.0, 3.0, -2.0]
        if c > 0.0:
            grid = [t for t in grid if abs(t) < 0.9 * math.pi / a]
        return grid

    @pytest.mark.parametrize("c", [-0.64, -1.0, 0.25, 0.0])
    def test_factors_and_det_straddling_branch_points_match_scalar_arithmetic(self, rng, c):
        # a|t| = 1 switches to the scaled factors, a|t| = _COSH_MAX the det;
        # the grids give the bits of the per-time arithmetic they replaced
        C0 = 0.3 * rng.uniform(-1.0, 1.0, size=(3, 3))
        grid = self._straddling_grid(c)
        ev = _Evolution(c, C0)
        P, Q, r = ev._factors(grid)
        with np.errstate(over="ignore", invalid="ignore"):
            det = ev.evaluate([], grid)[0]
            for k, t in enumerate(grid):
                p1, q1, r1 = self._scalar_factors(c, C0, t)
                assert np.array_equal(_bits(P[k]), _bits(p1))
                assert np.array_equal(_bits(Q[k]), _bits(q1))
                assert _bits(r[k]) == _bits(r1)
                assert _bits(det[k]) == _bits(self._scalar_det(c, C0, t))
                assert _bits(det[k]) == _bits(ev.evaluate([], [t])[0][0])

    @pytest.mark.parametrize("c", [-0.64, -1.0, 0.25, 0.0])
    def test_one_factor_stack_gives_det_splitting_and_shape(self, rng, c):
        # evaluate takes det J, C and A from one stack of factors; each keeps
        # the bits of its own grid method, on the whole grid and on each
        # time alone
        C0 = 0.3 * rng.uniform(-1.0, 1.0, size=(3, 3))
        ops = [rng.uniform(-1.0, 1.0, size=(3, 3)) for _ in range(2)]
        grid = self._straddling_grid(c)
        ev = _Evolution(c, C0)
        with np.errstate(over="ignore", invalid="ignore"):
            det, C, A = ev.evaluate(ops, grid)
            assert np.array_equal(_bits(det), _bits([self._scalar_det(c, C0, t) for t in grid]))
            assert np.array_equal(_bits(C), _bits(ev.splitting(grid)))
            for got, want in zip(A, ev.shape(ops, grid), strict=True):
                assert np.array_equal(_bits(got), _bits(want))
            for k, t in enumerate(grid):
                det1, C1, A1 = ev.evaluate(ops, [t])
                assert _bits(det1[0]) == _bits(det[k])
                assert np.array_equal(_bits(C1[0]), _bits(C[k]))
                assert all(np.array_equal(_bits(a1[0]), _bits(a[k])) for a1, a in zip(A1, A))


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

    @pytest.mark.filterwarnings("error")
    def test_products_past_the_float_range(self):
        # symmetry of A0 C0^k does not depend on the scale of A0 or of C0;
        # an inf product once made the asymmetry NaN, which passed
        I = np.eye(2)
        shear = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert not is_codazzi_compatible([I], shear)
        assert not is_codazzi_compatible([1e200 * I], 1e200 * shear)
        assert is_codazzi_compatible([1e200 * I], 1e200 * I)
        assert is_codazzi_compatible([[[1e200]]], [[-1e200]])
        # A0 C0 = 1e400 E_22 overflows, 1 in its scaled units underflows to
        # 0, and A0 C0^2 = 0 is symmetric
        A0 = np.array([[0.0, 0.0, 1.0], [0.0, 2.0, 0.0], [1.0, 0.0, 0.0]])
        N = np.zeros((3, 3))
        N[0, 2] = 1.0
        assert is_codazzi_compatible([1e200 * A0], 1e200 * N)

    def test_below_unit_scale(self):
        # the measure is relative: A0 = 1e-9 I is as incompatible as I
        shear = np.array([[-1.0, -1.0], [0.0, -1.0]])
        for s in (1.0, 1e-9, 1e-300):
            assert not is_codazzi_compatible([s * np.eye(2)], shear)
            assert is_codazzi_compatible([s * np.eye(2)], -np.eye(2))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s", POWERS_OF_TWO)
    def test_verdicts_do_not_depend_on_scale(self, s):
        # nearly compatible draws, as in the test below, scaled by a power of
        # two: A0, C0 or both; the asymmetry itself keeps its bits
        rng = np.random.default_rng(1910)
        verdicts = []
        for _ in range(100):
            q = int(rng.integers(2, 6))
            A0s, C0s = random_compatible_pair(rng, q, 1)
            K = rng.normal(size=(q, q))
            C0 = C0s.mat + np.linalg.solve(A0s.ops[0], 10 ** rng.uniform(-11, -6) * (K - K.T))
            A0 = A0s.ops[0]
            verdicts.append(is_codazzi_compatible([A0], C0))
            for pair in (([s * A0], C0), ([A0], s * C0), ([s * A0], s * C0)):
                assert is_codazzi_compatible(*pair) == verdicts[-1]
            a = ShapeOperatorSet((A0,)).asymmetry()
            assert ShapeOperatorSet((s * A0,)).asymmetry() == a
        assert 10 < sum(verdicts) < 90

    def test_finite_verdicts_are_the_unscaled_loops(self):
        # draws whose asymmetry straddles SYM_TOL, over a range of scales,
        # get the verdict of the plain loop on the unscaled products
        def unscaled(A0, C0):
            for m in A0:
                for _ in range(len(C0)):
                    if not np.abs(m - m.T).max() <= SYM_TOL * np.abs(m).max():
                        return False
                    m = m @ C0
            return True

        rng = np.random.default_rng(1910)
        verdicts = []
        for _ in range(300):
            q = int(rng.integers(2, 6))
            A0s, C0s = random_compatible_pair(rng, q, 1)
            K = rng.normal(size=(q, q))
            C0 = C0s.mat + np.linalg.solve(A0s.ops[0], 10 ** rng.uniform(-11, -6) * (K - K.T))
            A0 = [10 ** rng.uniform(-3, 3) * A0s.ops[0]]
            verdicts.append(unscaled(A0, C0))
            assert is_codazzi_compatible(A0, C0) == verdicts[-1]
        assert 50 < sum(verdicts) < 250
