import math
import re
import warnings

import numpy as np
import pytest

from nullgeo import core
from nullgeo.core import (
    INTERVAL_SLACK,
    RICCATI_BLOWUP,
    SYM_TOL,
    DomainKind,
    GeodesicDomain,
    NullityError,
    NullityProfile,
    ShapeOperatorSet,
    SingularJacobi,
    SplittingTensor,
    _COSH_MAX,
    _STAGE_CHUNK,
    _asymmetry,
    _evaluate_grid,
    _factors,
    _guard,
    _shape_grid,
    _spectrum,
    _splitting_grid,
    is_codazzi_compatible,
    jacobi_derivative,
    jacobi_tensor,
    max_invertible_time,
    real_eigenvalues,
    riccati_path,
    shape_ode_path,
    shape_operator_at,
    splitting_tensor_at,
)
from nullgeo.checks import (
    SKEW2, WORKED_FAMILY, riccati_cases, riccati_deviation, sample_grid, shape_cases,
    shape_deviation,
)
from nullgeo.classify import (
    PreconditionViolated, classify_splitting_spectrum, decay_report, sign_balance_check,
)
from nullgeo.sampling import random_compatible_pair
from nullgeo.theorems import (
    alpha_norm, alpha_operator_norm, mean_curvature_norm, minimality_certificate,
    scalar_curvature, theorem1_pipeline,
)

from conftest import (
    POWERS_OF_TWO, SCALES, bits, det_sampling_bmax, jacobi_scalars, rank_one_draws, rk4_path,
    rk4_second_order,
)


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
        with pytest.raises(ValueError, match="must be square"):
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


class TestSpectrum:
    def test_scaling_by_a_power_of_two_is_exact(self, rng):
        # eigvals of 2**k M is not 2**k eigvals(M) to the bit; the helper's
        # eigenvalues and spectral radius are
        for _ in range(100):
            q = int(rng.integers(1, 6))
            M = rng.normal(size=(q, q))
            w, rho = _spectrum(M)
            assert rho == np.abs(w).max()
            for s in SCALES:
                ws, rhos = _spectrum(s * M)
                assert np.array_equal(ws, s * w) and rhos == s * rho

    @pytest.mark.parametrize("s", SCALES)
    def test_realness_is_relative_to_the_spectral_radius(self, s):
        # 2 -+ 1e-9 i is complex at every scale, 2 -+ 1e-12 i real; below unit
        # scale the first once counted as real
        assert real_eigenvalues(s * np.array([[2.0, 1e-9], [-1e-9, 2.0]])) == []
        assert real_eigenvalues(s * np.array([[2.0, 1e-12], [-1e-12, 2.0]])) == [2.0 * s] * 2

    def test_an_eigenvalue_past_the_float_range_is_a_nullity_error(self):
        # full(1.7e308) has the eigenvalue 3.4e308 > DBL_MAX: every entry
        # point that takes the spectrum raises the base error, with no
        # warning; full(8e307), of spectral radius 1.6e308, keeps its results
        big, fits = np.full((2, 2), 1.7e308), np.full((2, 2), 8e307)
        calls = [
            lambda M: real_eigenvalues(M),
            lambda M: max_invertible_time(-1.0, M),
            lambda M: splitting_tensor_at(-1.0, M, 1e-309),
            lambda M: classify_splitting_spectrum(-1.0, M, GeodesicDomain.ray()),
            lambda M: sign_balance_check([np.eye(2)], 1.0, M),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(NullityError, match=r"^an eigenvalue of modulus 3\.4e\+308 "):
                    call(big)
            assert real_eigenvalues(fits) == [1.6e308, 0.0]
            assert max_invertible_time(-1.0, fits) == 6.25e-309
            C = splitting_tensor_at(-1.0, fits, 1e-309).mat
            assert C[0, 0] == pytest.approx(9.52380952e307)
            verdict = classify_splitting_spectrum(-1.0, fits, GeodesicDomain.ray())
            assert verdict.offending_eigenvalues == (1.6e308,)
            with pytest.raises(PreconditionViolated, match="real eigenvalues"):
                sign_balance_check([np.eye(2)], 1.0, fits)


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

    @pytest.mark.parametrize("s", SCALES)
    def test_horizon_keeps_under_rescaled_geometry(self, s):
        # (c, C0, t) -> (s^2 c, s C0, t / s) keeps J: the horizon is b / s
        # exactly, with the eigenvalues and the slack of a measured at scale
        rng = np.random.default_rng(1910)
        for _ in range(300):
            q = int(rng.integers(1, 6))
            c = float(rng.choice([-1.0, 0.0, 1.0, -0.25, 4.0]))
            C0 = rng.uniform(-2.0, 2.0, size=(q, q))
            assert max_invertible_time(s * s * c, s * C0) == max_invertible_time(c, C0) / s

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
        C = _splitting_grid(c, C0, grid)
        A = _shape_grid(c, C0, A0, grid)
        Jinv = _shape_grid(c, C0, [np.eye(q)], grid)[0]  # I J^{-1}
        dets = _evaluate_grid(c, C0, [], grid)[0]
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
        near, beyond, far = _evaluate_grid(-1.0, np.array([[0.5]]), [], [700.0, 711.0, 712.0])[0]
        assert near == pytest.approx(math.cosh(700.0) - 0.5 * math.sinh(700.0), rel=1e-12)
        assert beyond == pytest.approx(math.exp(711.0 - math.log(4.0)), rel=1e-12)
        assert far == math.inf

    def test_rounding_loss_is_a_nullity_error(self):
        # C0 = a I is the unstable fixed point of c = -a^2, C(t) = C0, with no
        # singular time; on the scaled branch M = 2 eps I underflows, to a
        # subnormal pivot and a non-finite C from t ~ 355.24 and to a singular
        # M from t = 373.  Each call raises the base error, one line naming
        # the first lost t
        I2, lost = np.eye(2), r"^J\(t\) cannot be inverted at t={}$"
        assert splitting_tensor_at(-1.0, I2, 10.0).mat[0, 0] == pytest.approx(1.0, rel=1e-8)
        calls = [
            (lambda: splitting_tensor_at(-1.0, I2, 372.0), "372.0"),
            (lambda: splitting_tensor_at(-1.0, I2, 373.0), "373.0"),
            (lambda: shape_operator_at([np.diag([1.0, -1.0])], -1.0, I2, 400.0), "400.0"),
            # a = 1e4: a stage time of the first block of steps
            (lambda: shape_ode_path([1e-200 * I2], -1e8, 1e4 * I2, [0.6]), r"0\.036\d*"),
        ]
        for call, t in calls:
            with pytest.raises(NullityError, match=lost.format(t)) as err:
                call()
            assert type(err.value) is NullityError

    def test_shape_past_the_float_range_is_a_nullity_error(self):
        # c = 0, C0 = 1: A(t) = A0 / (1 - t) leaves the float range past
        # t = 0.44 for A0 = 1e308 and past t = 0.67 for 0.6e308.  The
        # product raises no warning, and the first such t of the grid over
        # all operators is named
        big, lost = np.array([[1e308]]), r"^A\(t\) leaves the float range at t=0\.5$"
        I1 = np.eye(1)
        calls = [
            lambda: shape_operator_at([big], 0.0, [[1.0]], 0.5),
            lambda: _shape_grid(0.0, I1, [0.6 * big, big], [0.25, 0.5, 0.75]),
            lambda: _evaluate_grid(0.0, I1, [0.6 * big, big], [0.0, 0.25, 0.5, 0.75]),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(NullityError, match=lost) as err:
                    call()
                assert type(err.value) is NullityError
            assert _shape_grid(0.0, I1, [0.6 * big], [0.5])[0][0, 0, 0] == pytest.approx(1.2e308)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_fixed_point_keeps_its_splitting_tensor(self, a):
        # C0 = a I is the unstable fixed point of c = -a^2, C(t) = C0 for
        # every t: to an ulp (the solve multiplies by a reciprocal) at every
        # time before the first one where rounding loses J(t), which raises
        c, C0 = -a * a, a * np.eye(3)
        ts = np.linspace(-400.0 / a, 400.0 / a, 8001)
        with pytest.raises(NullityError) as err:
            _splitting_grid(c, C0, ts)
        lost = float(re.fullmatch(r"J\(t\) cannot be inverted at t=(\S+)", str(err.value))[1])
        assert 355.0 / a < lost < 356.0 / a
        C = _splitting_grid(c, C0, ts[ts < lost])
        assert np.abs(C - a * np.eye(3)).max() <= np.finfo(float).eps * a

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_near_fixed_point_matches_per_eigenvalue_closed_form(self, a):
        # C0 = diag(a (1 + d)): each eigenvalue follows the scalar solution,
        # for t >= 0 and E = e^{-2a|t|}  a (2E + d (1 + E)) / (2E - d (1 - E)),
        # which shares no grouping with the evaluator; t < 0 is the
        # eigenvalue -a (1 + d) forward, d -> -2 - d, with C negated.  a is
        # a power of two, so d = lam / a - 1 is exact
        lam = a * (1.0 + np.array([0.0, -1e-12, -1e-8, -1e-4, -0.5]))
        ts = np.linspace(-60.0 / a, 60.0 / a, 2401)[:, None]
        back = ts < 0.0
        d = np.where(back, -1.0 - lam / a, lam / a - 1.0)
        E = np.exp(-2.0 * a * np.abs(ts))
        want = np.where(back, -a, a) * (2.0 * E + d * (1.0 + E)) / (2.0 * E - d * (1.0 - E))
        C = _splitting_grid(-a * a, np.diag(lam), ts[:, 0])
        assert np.abs(np.einsum("kii->ki", C) - want).max() <= 8 * np.finfo(float).eps * a

    def test_check_raises_at_first_singular_time(self):
        # the singular times are 1/2 forward and 1/3 backward: both one-time
        # evaluators pass before them and raise at or past them
        C0, A0 = np.diag([2.0, -3.0]), [np.eye(2)]
        singular = r"^Jacobi tensor singular before t={}$"
        calls = [lambda t: splitting_tensor_at(0.0, C0, t),
                 lambda t: shape_operator_at(A0, 0.0, C0, t)]
        for call in calls:
            for t in (0.0, 0.25, -0.3):
                call(t)
            for t in (0.5, 0.8, -0.4):
                with pytest.raises(SingularJacobi, match=singular.format(t)):
                    call(t)


def textbook_trip(c, C0, times, step):
    """Assert that ``riccati_path`` gives the records, or the guard message,
    of the textbook RK4; return the step at which the guard trips, or None."""
    C0, calls = np.asarray(C0, dtype=float), []

    def f(_t, C):
        calls.append(None)
        return C @ C + c * np.eye(len(C))

    try:
        ref = rk4_path(f, C0, times, step, RICCATI_BLOWUP)
    except SingularJacobi as exc:  # after the four calls of its step
        with pytest.raises(SingularJacobi) as got:
            riccati_path(c, C0, times, step)
        assert str(got.value) == str(exc)
        return len(calls) // 4 - 1
    got = riccati_path(c, C0, times, step)
    assert len(got) == len(ref) == len(times)
    assert all(np.array_equal(bits(a), bits(b)) for a, b in zip(got, ref))
    return None


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
            assert textbook_trip(c, C0, times, 2e-2) is None

    def test_bitwise_textbook_rk4_at_larger_q_signed_zero_c_and_zero_rows(self):
        # the premises of the step: the weighted sum k1 + 2 k2 + 2 k3 + k4 in
        # one dgemv over q^2 >= 36 entries adds in order, and skipping c I at
        # c = +-0.0 keeps the bits, as no product entry is -0.0 even where C0
        # has a zero row and a -0.0 column
        rng = np.random.default_rng(2901)
        for i in range(60):
            c, q = (-1.0, 0.0, -0.0, 1.0)[i % 4], 6 + i % 11
            C0 = rng.uniform(-1.0, 1.0, size=(q, q))
            C0[rng.integers(q)] = 0.0
            C0[:, rng.integers(q)] = -0.0
            span = min(0.8 * max_invertible_time(c, C0), 1.0)
            times = [span * k / 5 for k in range(1, 6)]
            assert textbook_trip(c, C0, times, 2e-2) is None

    def test_lone_rank_one_case_is_textbook_rk4(self):
        # a q = 1 case steps on Python floats; records and guard messages
        # are those of the textbook RK4 on 1x1 arrays
        for case in rank_one_draws():
            textbook_trip(*case)


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
        grids, splitting = [], core._splitting_grid
        monkeypatch.setattr(core, "_splitting_grid",
                            lambda c, C0, ts: grids.append(ts.copy()) or splitting(c, C0, ts))
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

    def test_huge_curvature_trips_the_guard_without_a_warning(self):
        # c = 1e300 puts the singular time near 1.6e-150, so every stage
        # time is past it and the step matrices overflow: the steps are
        # formed under the steppers' errstate, as riccati_path's are
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for oracle in (lambda: shape_ode_path([[[0.0]]], 1e300, [[0.0]], [0.1, 0.2], 0.05),
                           lambda: riccati_path(1e300, [[0.0]], [0.1, 0.2], 0.05)):
                with pytest.raises(SingularJacobi, match=r"^trajectory norm .* near t=0\.05$"):
                    oracle()

    def test_blowup_guard_names_the_first_step_past_the_bound(self):
        # A(t) = 5.0001e7 / (1 - t) reaches the guard 1e8 at t = 0.49999,
        # inside the step (0.499, 0.5]; with 5e7 the crossing would sit
        # exactly on the step end, where rounding decides the step
        A0 = ShapeOperatorSet((5.0001e7 * np.eye(2),))
        with pytest.raises(SingularJacobi, match=r"near t=0\.5$"):
            shape_ode_path(A0, 0.0, np.eye(2), [0.6])


# the generators of acceptance criteria 01 (seed 101, 200 cases) and 02
# (seed 102), and of the `check` runs of seeds 0..7 (5 cases each)
DEVIATION_DRAWS = pytest.mark.parametrize(
    "ric_seed,shape_seed,count",
    [(101, 102, 200)] + [([s, 100], [s, 200], 5) for s in range(8)],
    ids=["criteria-01-02"] + [f"check-seed-{s}" for s in range(8)],
)
COARSE_STEP = 2e-2  # the arithmetic of a step does not depend on its size


class TestOracleRuns:
    """Both deviations are those of the case-by-case, time-by-time loop,
    as the closed forms give each time of a grid the bits of that time
    alone; the oracles' records and guard messages are those of the
    textbook RK4, wherever the blocks of a run begin and end."""

    @DEVIATION_DRAWS
    def test_riccati_deviation_is_the_per_time_loop(self, ric_seed, shape_seed, count):
        cases = riccati_cases(np.random.default_rng(ric_seed), count)
        worst = 0.0
        for c, C0, ts in cases:
            path = riccati_path(c, C0, ts, COARSE_STEP)
            assert len(path) == 5
            for t, Ct in zip(ts, path):
                worst = max(worst, float(np.abs(splitting_tensor_at(c, C0, t).mat - Ct).max()))
        got = riccati_deviation(np.random.default_rng(ric_seed), count, COARSE_STEP)
        assert bits(got) == bits(worst)

    @DEVIATION_DRAWS
    def test_shape_deviation_is_the_per_time_loop(self, ric_seed, shape_seed, count):
        cases = shape_cases(np.random.default_rng(shape_seed), count)
        alone = [shape_ode_path(list(A0), *case, COARSE_STEP) for A0, *case in cases]
        worst = 0.0
        for (A0, c, C0, ts), path in zip(cases, alone):
            for t, At in zip(ts, path):
                for x, y in zip(shape_operator_at(list(A0), c, C0, t).ops, At.ops):
                    worst = max(worst, float(np.abs(x - y).max()))
        got = shape_deviation(np.random.default_rng(shape_seed), count, COARSE_STEP)
        assert bits(got) == bits(worst)

    def test_rows_of_a_stack_step_independently(self, rng):
        # each operator of a stack steps its own (q, q) rows, one ndarray.dot
        # per step, so each operator of a p = 2 stack gets the bits of that
        # operator stepped alone
        for c in (-1.0, 0.0, 1.0):
            for q in range(1, 6):
                A0, C0 = random_compatible_pair(rng, q, 2)
                ts = sample_grid(c, C0.mat)
                both = shape_ode_path(A0, c, C0, ts, COARSE_STEP)
                alone = [shape_ode_path([a], c, C0, ts, COARSE_STEP) for a in A0.ops]
                for k, At in enumerate(both):
                    lone = np.concatenate([path[k].ops for path in alone])
                    assert np.array_equal(bits(At.ops), bits(lone))

    def test_empty_conullity_gives_one_empty_record_per_time(self):
        # q = 0: the blow-up guard once reduced an empty history with max
        Z, times = np.zeros((0, 0)), [0.5, 0.5, 2.0]
        for c in (-1.0, 0.0, 1.0):
            assert [C.shape for C in riccati_path(c, Z, times)] == [(0, 0)] * 3
            assert [np.shape(A.ops) for A in shape_ode_path([Z, Z], c, Z, times)] == [(2, 0, 0)] * 3

    def test_mixed_schedules_are_textbook_rk4(self, rng):
        for cs, times, step in [
            # a repeated time, a record at 0 and schedules of different lengths
            ([1.0, -1.0, 0.0], [[0.0, 0.3, 0.3, 0.9], [0.05], [0.2, 1.7]], 1e-2),
            # segments that end at different offsets inside 512-step blocks;
            # |eigenvalues of C0| < 1 = sqrt(-c) keeps J invertible
            ([-1.0, -1.0], [[0.3, 0.3, 1.25, 2.0], [0.7, 3.1]], 1e-3),
        ]:
            for c, ts in zip(cs, times):
                assert textbook_trip(c, 0.3 * rng.uniform(-1.0, 1.0, size=(3, 3)), ts, step) is None

    def test_block_edges_are_textbook_rk4(self, rng):
        # segments of 511, 512, 513, 1024 and 1025 steps of 2**-10, so every
        # time is exact: each ends before, on or past a 512-step block edge.
        # |eigenvalues of C0| < 1 = sqrt(-c) keeps J invertible; C0 with the
        # eigenvalue 0.6672 at c = 0 trips on step 1535, the 513th of the
        # third segment and the one step of its second block
        times = [k / 1024 for k in (511, 1023, 1536, 2560, 3585)]
        Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        cases = [
            (-1.0, [[0.3]]), (-1.0, 0.3 * rng.uniform(-1.0, 1.0, size=(3, 3))),
            (0.0, [[0.6672]]), (0.0, Q @ np.diag([0.6672, 0.3, -0.5]) @ Q.T),
        ]
        trips = [textbook_trip(c, C0, times, 2**-10) for c, C0 in cases]
        assert trips == [None, None, 1535, 1535]

    def test_tripping_rank_one_cases_name_their_textbook_step(self):
        # q = 1 cases step on Python floats, and a tripping one names the
        # step of the textbook RK4 with its message.  Cases 3 and 4 trip at
        # step 400 with different norms, case 2 past the first 512-step
        # block, case 5 one step later and case 0 never
        cases = [
            (1.0, 0.1, [0.3, 1.0]), (-1.0, 2.5, [0.6]), (0.0, 1.5, [0.3, 0.9]),
            (0.0, 2.5, [0.2, 0.45]), (0.0, 2.499, [0.45]), (0.0, 2.498, [0.5]),
        ]
        trips = [textbook_trip(c, [[y0]], times, 1e-3) for c, y0, times in cases]
        assert trips == [None, 424, 667, 400, 400, 401]

    def test_steps_past_a_trip_raise_no_warning(self):
        # each trip falls inside a block, which takes its later steps anyway:
        # only the guard is raised, although the Riccati state overflows to
        # inf and NaN within a few steps, on numpy arrays and on the floats
        # of q = 1.  C blows up at t = 0.5 and A = 5.0001e7 I / (1 - t)
        # reaches the bound there: step 500 of [0, 512)
        runs = [
            (lambda: riccati_path(0.0, np.diag([2.0, -3.0]), [0.6]),
             r"trajectory norm 1\.01e\+14 .* near t=0\.501$"),
            (lambda: riccati_path(0.0, [[2.0]], [0.6]),
             r"trajectory norm 1\.01e\+14 .* near t=0\.501$"),
            (lambda: shape_ode_path([5.0001e7 * np.eye(2)], 0.0, np.eye(2), [0.6]),
             r"trajectory norm 1e\+08 .* near t=0\.5$"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run, message in runs:
                with pytest.raises(SingularJacobi, match=message):
                    run()

    T_END = 0.125 * np.arange(1.0, 9.0)  # the end times of eight steps

    @staticmethod
    def _tripping_history(rng, shape):
        # the history of eight steps, every entry below the bound in
        # magnitude, and its view with one row per step
        B = 0.999 * RICCATI_BLOWUP * rng.uniform(-1.0, 1.0, size=(8, *shape))
        return B, B.reshape(8, -1)

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, RICCATI_BLOWUP, -RICCATI_BLOWUP]
    )
    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (2, 2), (2, 5, 5)])
    def test_guard_screen_never_clears_a_tripping_entry(self, rng, bad, shape):
        # max and min screen a block's history; the entry trips at the first
        # step, at the last step and entry, or at a middle step that later
        # steps bring back below the bound, and the first tripping step is
        # named
        for s, e in [(0, 0), (7, -1), (3, math.prod(shape) // 2)]:
            B, rows = self._tripping_history(rng, shape)
            rows[s, e] = bad
            if s == 0:  # the next step trips too
                rows[1, -1] = 2.0 * RICCATI_BLOWUP
            t = self.T_END[s]
            message = f"trajectory norm {abs(bad):.3g} exceeded blow-up guard near t={t:.6g}"
            with pytest.raises(SingularJacobi) as got:
                _guard(B, self.T_END)
            assert str(got.value) == message

    def test_block_check_passes_just_below_the_bound(self, rng):
        B, rows = self._tripping_history(rng, (3, 2, 2))
        rows[:] = np.nextafter(RICCATI_BLOWUP, 0.0)
        rows[:, ::2] *= -1.0
        _guard(B, self.T_END)

    @pytest.mark.parametrize("value", [math.nan, math.inf, RICCATI_BLOWUP])
    def test_oracles_trip_on_nan_inf_and_the_bound_itself(self, value):
        # C = 0 makes every step matrix I, so A keeps its entries exactly;
        # a NaN or inf A0 or C0 is a malformed argument of either oracle,
        # and NaN and inf in a history meet the guard screen in
        # test_guard_screen_never_clears_a_tripping_entry
        A0 = np.diag([value, 0.0])
        if value == RICCATI_BLOWUP:
            late = "near t=0.001$"  # the end of the first step
            with pytest.raises(SingularJacobi, match=late):
                shape_ode_path([A0], 0.0, np.zeros((2, 2)), [0.5])
        else:
            with pytest.raises(ValueError, match="^all shape operators must have finite entries$"):
                shape_ode_path([A0], 0.0, np.zeros((2, 2)), [0.5])
            with pytest.raises(ValueError, match="^splitting tensor entries must be finite$"):
                riccati_path(0.0, A0, [0.5])
        below = np.diag([np.nextafter(RICCATI_BLOWUP, 0.0), 0.0])
        (A,) = shape_ode_path([below], 0.0, np.zeros((2, 2)), [0.5])
        assert np.array_equal(bits(A.ops[0]), bits(below))

    # the closed forms' arithmetic one time at a time, with Python floats

    @staticmethod
    def _scalar_jacobi(c, C0, t):
        u, v, du, dv = jacobi_scalars(c, t)
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
        N = (sgn * a) * ((eye - (sgn / a) * C0) - eps * (eye + (sgn / a) * C0))
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
        P, Q, r = _factors(c, C0, grid)
        with np.errstate(over="ignore", invalid="ignore"):
            det = _evaluate_grid(c, C0, [], grid)[0]
            for k, t in enumerate(grid):
                p1, q1, r1 = self._scalar_factors(c, C0, t)
                assert np.array_equal(bits(P[k]), bits(p1))
                assert np.array_equal(bits(Q[k]), bits(q1))
                assert bits(r[k]) == bits(r1)
                assert bits(det[k]) == bits(self._scalar_det(c, C0, t))
                assert bits(det[k]) == bits(_evaluate_grid(c, C0, [], [t])[0][0])

    @pytest.mark.parametrize("c", [-0.64, -1.0, 0.25, 0.0])
    def test_one_factor_stack_gives_det_splitting_and_shape(self, rng, c):
        # evaluate takes det J, C and A from one stack of factors; each keeps
        # the bits of its own grid method, on the whole grid and on each
        # time alone
        C0 = 0.3 * rng.uniform(-1.0, 1.0, size=(3, 3))
        ops = [rng.uniform(-1.0, 1.0, size=(3, 3)) for _ in range(2)]
        grid = self._straddling_grid(c)
        with np.errstate(over="ignore", invalid="ignore"):
            det, C, A = _evaluate_grid(c, C0, ops, grid)
            assert np.array_equal(bits(det), bits([self._scalar_det(c, C0, t) for t in grid]))
            assert np.array_equal(bits(C), bits(_splitting_grid(c, C0, grid)))
            for got, want in zip(A, _shape_grid(c, C0, ops, grid), strict=True):
                assert np.array_equal(bits(got), bits(want))
            for k, t in enumerate(grid):
                det1, C1, A1 = _evaluate_grid(c, C0, ops, [t])
                assert bits(det1[0]) == bits(det[k])
                assert np.array_equal(bits(C1[0]), bits(C[k]))
                assert all(np.array_equal(bits(a1[0]), bits(a[k])) for a1, a in zip(A1, A))


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
            a = _asymmetry(A0)
            assert _asymmetry(s * A0) == a
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


class TestShapeOperatorInput:
    """Every function that takes ``A0`` accepts a ``ShapeOperatorSet`` or a
    sequence of square matrices of one shape with finite entries, and raises
    ``ValueError`` otherwise."""

    RAGGED = [np.eye(2), np.eye(3)]
    C0 = np.diag([-1.0, -2.0])
    TAKES_A0 = {
        "ShapeOperatorSet": ShapeOperatorSet,
        "shape_operator_at": lambda A: shape_operator_at(A, -1.0, TestShapeOperatorInput.C0, 0.5),
        "shape_ode_path": lambda A: shape_ode_path(A, -1.0, TestShapeOperatorInput.C0, [0.1]),
        "is_codazzi_compatible": lambda A: is_codazzi_compatible(A, TestShapeOperatorInput.C0),
        "decay_report": lambda A: decay_report(
            A, -1.0, TestShapeOperatorInput.C0, GeodesicDomain.ray()),
        "sign_balance_check": lambda A: sign_balance_check(A, 1.0, SKEW2),
        "theorem1_pipeline": lambda A: theorem1_pipeline(WORKED_FAMILY, A, -4.0),
        "scalar_curvature": lambda A: scalar_curvature(A, 3, -1.0),
        "mean_curvature_norm": lambda A: mean_curvature_norm(A, 3),
        "alpha_norm": alpha_norm,
        "alpha_operator_norm": alpha_operator_norm,
        "minimality_certificate": lambda A: minimality_certificate([A], 3),
    }

    @pytest.mark.parametrize("name", sorted(TAKES_A0))
    def test_ragged_operators_are_rejected(self, name):
        with pytest.raises(ValueError, match="^all shape operators must share one square shape$"):
            self.TAKES_A0[name](self.RAGGED)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", sorted(TAKES_A0))
    def test_non_finite_entries_are_rejected(self, name, bad):
        # as for C0: a NaN operator once read as an overflow of A(t), tripped
        # the oracle's blow-up guard, or made is_codazzi_compatible False
        with pytest.raises(ValueError, match="^all shape operators must have finite entries$"):
            self.TAKES_A0[name]([np.eye(2), [[1.0, 0.0], [0.0, bad]]])

    def test_every_form_gives_the_same_bits(self, rng):
        # compatible pairs, shifted left of -1 so that a ray at c = -1 keeps
        # its clause and decay_report has all its samples
        for q in (2, 3, 4):
            A0s, C0s = random_compatible_pair(rng, q, p=2)
            C0 = C0s.mat - (1.0 + np.abs(C0s.mat).sum()) * np.eye(q)
            ops = A0s.ops

            def results(A):
                rep = decay_report(A, -1.0, C0, GeodesicDomain.ray())
                return (
                    bits(shape_operator_at(A, -1.0, C0, 0.7).ops).tobytes(),
                    [bits(At.ops).tobytes() for At in shape_ode_path(A, -1.0, C0, [0.1, 0.2], 1e-2)],
                    repr(rep.per_block),
                    bits(rep.samples).tobytes(),
                    is_codazzi_compatible(A, C0),
                    bits(alpha_operator_norm(A)).tobytes(),
                )

            want = results(ShapeOperatorSet(ops))
            assert len(want[3]) == 3 * 3 * 8  # three samples
            for A in (list(ops), tuple(ops), np.stack(ops)):
                assert results(A) == want

    @pytest.mark.parametrize(
        "c,C0,times,match",
        [
            (math.nan, np.eye(2), [0.1], "^curvature must be finite, got nan$"),
            (-1.0, [[1.0, 2.0]], [0.1], r"^splitting tensor must be square, got \(1, 2\)$"),
            (-1.0, np.eye(2), [0.5, 0.1], "^record times must be sorted and nonnegative$"),
        ],
        ids=["curvature", "C0", "times"],
    )
    def test_no_operators_still_check_the_other_arguments(self, c, C0, times, match):
        # the shape oracle checks c, C0 and the record times with or
        # without operators: the empty A0 once returned empty sets unchecked
        for A0 in ([np.eye(2)], []):
            with pytest.raises(ValueError, match=match):
                shape_ode_path(A0, c, C0, times)

    def test_no_operators_give_one_empty_set_per_time(self):
        path = shape_ode_path([], -1.0, self.C0, [0.1, 0.1, 0.4])
        assert [A.ops for A in path] == [(), (), ()]


RAY = GeodesicDomain.ray()


class TestSplittingTensorInput:
    """Every function that takes ``C0`` raises ``ValueError`` for a NaN or
    infinite entry, as for a non-finite ``c``: the LAPACK calls once raised
    a bare ``LinAlgError``, and ``jacobi_tensor`` returned ``-inf``."""

    TAKES_C0 = {
        "SplittingTensor": SplittingTensor,
        "jacobi_tensor": lambda C0: jacobi_tensor(0.0, C0, 1.0),
        "jacobi_derivative": lambda C0: jacobi_derivative(0.0, C0, 1.0),
        "max_invertible_time": lambda C0: max_invertible_time(0.0, C0),
        "splitting_tensor_at": lambda C0: splitting_tensor_at(0.0, C0, 0.5),
        "shape_operator_at": lambda C0: shape_operator_at([np.eye(2)], 0.0, C0, 0.5),
        "riccati_path": lambda C0: riccati_path(0.0, C0, [0.5]),
        "shape_ode_path": lambda C0: shape_ode_path([np.eye(2)], 0.0, C0, [0.5]),
        "is_codazzi_compatible": lambda C0: is_codazzi_compatible([np.eye(2)], C0),
        "real_eigenvalues": real_eigenvalues,
        "classify_splitting_spectrum": lambda C0: classify_splitting_spectrum(0.0, C0, RAY),
        "decay_report": lambda C0: decay_report([np.eye(2)], -1.0, C0, RAY),
        "sign_balance_check": lambda C0: sign_balance_check([np.eye(2)], 1.0, C0),
    }

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", sorted(TAKES_C0))
    def test_non_finite_entries_are_rejected(self, name, bad):
        with pytest.raises(ValueError, match="^splitting tensor entries must be finite$"):
            self.TAKES_C0[name]([[bad, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: GeodesicDomain(DomainKind.RAY, 1.0), "^ray takes no endpoint$"),
        (lambda: GeodesicDomain(DomainKind.LINE, 1.0), "^line takes no endpoint$"),
        (lambda: riccati_path(0.0, [[1.0]], [0.5, 0.1]),
         "^record times must be sorted and nonnegative$"),
        (lambda: riccati_path(0.0, [[1.0]], [0.5, math.nan]),
         "^record times must be sorted and nonnegative$"),
    ],
    ids=["ray-endpoint", "line-endpoint", "unsorted-times", "nan-time"],
)
def test_documented_argument_errors(call, match):
    with pytest.raises(ValueError, match=match):
        call()


STEPPED = {
    "riccati_path-q1": lambda step: riccati_path(0.0, [[1.0]], [0.1], step),
    "riccati_path-q2": lambda step: riccati_path(0.0, np.eye(2), [0.1], step),
    "shape_ode_path": lambda step: shape_ode_path([np.eye(2)], 0.0, np.eye(2), [0.1], step),
    "shape_ode_path-p0": lambda step: shape_ode_path([], 0.0, np.eye(2), [0.1], step),
    "riccati_deviation": lambda step: riccati_deviation(np.random.default_rng(0), 2, step),
    "shape_deviation": lambda step: shape_deviation(np.random.default_rng(0), 2, step),
}


@pytest.mark.parametrize("step", [0.0, -0.0, -1e-3, -math.inf, math.nan, 1e-320, 1e-300])
@pytest.mark.parametrize("call", STEPPED.values(), ids=STEPPED)
def test_oracles_reject_a_bad_step(call, step):
    # a step that is not positive once divided by zero or took one step
    # over the whole span, 1e-320 overflowed the step count, and 1e-300
    # stepped on for 1e299 steps, all before the first step
    bad = r"^step (must be positive|.* (non-finite number of steps|more than \d+ steps))"
    with pytest.raises(ValueError, match=bad):
        call(step)
