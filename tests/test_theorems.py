import math
import warnings

import numpy as np
import pytest

from nullgeo.catalog import totally_geodesic
from nullgeo.checks import WORKED_FAMILY, radon_hurwitz_oracle
from nullgeo.classify import AlphaLimit, BlockBehavior
from nullgeo.core import NullityError, ShapeOperatorSet, _asymmetry
from nullgeo.sampling import random_splitting_tensor
from nullgeo.theorems import (
    ANGLE_TOL,
    KERNEL_SV_TOL,
    ConullityVerdict,
    InconsistentInput,
    MinimalityVerdict,
    NoDirection,
    NotConstant,
    NotIntegrable,
    SplittingFamily,
    alpha_norm,
    alpha_operator_norm,
    cylinder_split,
    find_special_nullity_direction,
    florit_bound,
    integrable_conullity_classify,
    mean_curvature_norm,
    minimality_certificate,
    nu_n,
    principal_angles,
    radon_hurwitz,
    scalar_curvature,
    sphere_rigidity_threshold,
    theorem1_applicable,
    theorem1_pipeline,
    theorem2_applicable,
)

from conftest import POWERS_OF_TWO, bits


def plane_samples(n_points: int = 5):
    """Degenerate case: all points on a 2-plane, nullity = the plane itself."""
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    samples = [(np.array([float(i), float(2 * i - 1), 0.0]), basis.copy()) for i in range(n_points)]
    return samples, [0] * n_points


class TestIntegerPredicates:
    @pytest.mark.parametrize("m,want", [(1, 1), (8, 8), (16, 9)])
    def test_radon_hurwitz_values(self, m, want):
        assert radon_hurwitz(m) == want

    def test_radon_hurwitz_table(self):
        got = tuple(radon_hurwitz(m) for m in range(1, 17))
        assert got == (1, 2, 1, 4, 1, 2, 1, 8, 1, 2, 1, 4, 1, 2, 1, 9)

    def test_radon_hurwitz_matches_oracle(self):
        for m in range(1, 257):
            assert radon_hurwitz(m) == radon_hurwitz_oracle(m)

    def test_sphere_rigidity(self):
        assert sphere_rigidity_threshold(1, 1)
        assert sphere_rigidity_threshold(8, 8)
        assert not sphere_rigidity_threshold(7, 8)
        assert sphere_rigidity_threshold(9, 16)

    @pytest.mark.parametrize("n,want", [(2, 0), (9, 1), (17, 1)])
    def test_nu_n(self, n, want):
        assert nu_n(n) == want

    def test_theorem1_threshold(self):
        assert theorem1_applicable(3, 2)
        assert not theorem1_applicable(2, 2)
        assert theorem1_applicable(6, 3)

    def test_florit_bound(self):
        assert florit_bound(14, 2) == 10
        assert florit_bound(3, 2) == 0

    @pytest.mark.parametrize("n,p,want", [(5, 1, True), (4, 1, False), (14, 2, True)])
    def test_theorem2_values(self, n, p, want):
        assert theorem2_applicable(n, p) is want

    def test_theorem2_chain_at_equality(self):
        for p in range(1, 21):
            n = 2 * p * p + 3 * p
            assert theorem2_applicable(n, p)
            assert theorem1_applicable(florit_bound(n, p), 2 * p)
            # one dimension lower the threshold fails
            assert not theorem2_applicable(n - 1, p)


class TestKernelSearch:
    def test_single_skew_member(self):
        K = np.array([[0.0, 2.0], [-2.0, 0.0]])
        fam = SplittingFamily(basis=(K,))
        d = find_special_nullity_direction(fam)
        assert d is not None
        np.testing.assert_allclose(np.abs(d.coeffs), [1.0], atol=1e-12)
        assert d.lam == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(d.coeffs[0] * K + d.skew_part, 0.0, atol=1e-12)

    def test_skew_member_near_the_float_range(self):
        # C - C^T of this member is +-2e308: its skew part once came out
        # +-inf, with a warning
        K = np.array([[0.0, 1e308], [-1e308, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = find_special_nullity_direction(SplittingFamily(basis=(K,)))
        assert d.lam == 0.0
        np.testing.assert_allclose(d.skew_part, -d.coeffs[0] * K, rtol=1e-15)

    def test_worked_family(self):
        d = find_special_nullity_direction(WORKED_FAMILY)
        assert d is not None
        np.testing.assert_allclose(np.abs(d.coeffs), [0.0, 0.0, 1.0], atol=1e-10)
        assert d.lam == pytest.approx(-1.0, abs=1e-10)
        np.testing.assert_allclose(
            d.skew_part, -np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-10
        )

    def test_independent_family_has_no_direction(self):
        fam = SplittingFamily(
            basis=(
                np.array([[1.0, 0.0], [0.0, -1.0]]),
                np.array([[0.0, 1.0], [1.0, 0.0]]),
            ),
        )
        assert find_special_nullity_direction(fam) is None

    def test_members_of_order_zero_raise(self):
        # a totally geodesic model has 0 x 0 splitting tensors, for which
        # lambda = -tr C / q is undefined
        family = totally_geodesic(3, 1, 0.0).splitting_family
        assert (family.q, family.nu0) == (0, 3)
        with pytest.raises(NullityError, match=r"^members of order q = 0 have no lambda"):
            find_special_nullity_direction(family)

    def test_decomposition_residual_and_sign(self, rng):
        for _ in range(100):
            q = int(rng.integers(2, 5))
            nu0 = q * (q + 1) // 2
            fam = SplittingFamily(
                basis=tuple(random_splitting_tensor(rng, q) for _ in range(nu0))
            )
            d = find_special_nullity_direction(fam)
            assert d is not None
            assert d.lam <= 0.0
            assert abs(np.linalg.norm(d.coeffs) - 1.0) <= 1e-12
            C = fam.evaluate(d.coeffs)
            resid = np.abs(C + d.skew_part + d.lam * np.eye(q)).max()
            assert resid <= 1e-10


def _direction_member_by_member(family):
    """``find_special_nullity_direction`` as a loop over the members: one
    sym-traceless part per member, stacked into columns, and C_T summed
    term by term.  Returns (coeffs, skew_part, lam) or None."""
    q = family.q

    def sym_traceless(M):
        S = 0.5 * (M + M.T)
        return S - (np.trace(S) / q) * np.eye(q)

    B = np.column_stack([sym_traceless(m).ravel() for m in family.basis])
    _, s, vt = np.linalg.svd(B, full_matrices=False)
    rank = int(np.sum(s > KERNEL_SV_TOL * s[0])) if s.size and s[0] > 0.0 else 0
    if rank >= family.nu0:
        return None
    coeffs = vt[rank]
    nz = np.flatnonzero(np.abs(coeffs) > 1e-12)
    if nz.size and coeffs[nz[0]] < 0.0:
        coeffs = -coeffs
    C = np.zeros((q, q))
    for a, m in zip(coeffs, family.basis):
        C += a * m
    lam = -float(np.trace(C)) / q
    if lam > 0.0:
        coeffs, C, lam = -coeffs, -C, -lam
    return coeffs, -0.5 * (C - C.T), lam


class TestStackedKernelSearch:
    def test_same_bits_as_member_by_member(self, rng):
        # at the threshold nu0 = q(q+1)/2 a direction exists; one below it
        # generically none; a planted skew - lam I member gives one at any nu0
        found = 0
        for q in range(2, 13):
            top = q * (q + 1) // 2
            for nu0 in (1, top - 1, top):
                for planted in (False, True):
                    scale = 10.0 ** rng.uniform(-5, 5)
                    basis = list(rng.uniform(-1.0, 1.0, size=(nu0, q, q)) * scale)
                    if planted:
                        K = rng.uniform(-1.0, 1.0, size=(q, q))
                        basis[0] = scale * (K - K.T - 0.5 * np.eye(q))
                    fam = SplittingFamily(basis=tuple(basis))
                    want = _direction_member_by_member(fam)
                    got = find_special_nullity_direction(fam)
                    assert (got is None) == (want is None), (q, nu0, planted)
                    if got is None:
                        continue
                    found += 1
                    for g, w in zip((got.coeffs, got.skew_part, np.float64(got.lam)), want):
                        assert np.array_equal(g.view(np.int64), np.float64(w).view(np.int64))
                    C = np.zeros((q, q))
                    for a, m in zip(got.coeffs, basis):
                        C += a * m
                    assert np.array_equal(fam.evaluate(got.coeffs).view(np.int64), C.view(np.int64))
        assert found >= 2 * 11


class TestTheorem1Pipeline:
    def test_worked_family_decays(self):
        A0 = ShapeOperatorSet((np.array([[1.0, 0.0], [0.0, -1.0]]),))
        # lambda = -1 sits exactly at -sqrt(-c): flagged but still evaluated
        with pytest.warns(UserWarning, match="boundary case"):
            rep = theorem1_pipeline(WORKED_FAMILY, A0, -1.0)
        assert rep.global_alpha_limit is AlphaLimit.ZERO
        t, total, _ = rep.samples[-1]
        assert total <= 1e-6

    def test_zero_family_flat(self):
        fam = SplittingFamily(basis=(np.zeros((2, 2)),))
        A0 = ShapeOperatorSet((np.diag([1.0, 2.0]),))
        rep = theorem1_pipeline(fam, A0, 0.0)
        assert all(
            b.behavior is BlockBehavior.PARALLEL_CONSTANT for b in rep.per_block
        )

    @pytest.mark.parametrize("s", POWERS_OF_TWO)
    def test_critical_edge_warning_does_not_depend_on_scale(self, s):
        # (s I / 2,) with c = -s^2 has lambda = -s / 2, half way to the edge
        # -sqrt(-c) = -s: no warning, though s / 2 is below 1e-12 at 2**-60;
        # the worked family times s sits on the edge and warns
        A0 = ShapeOperatorSet((np.diag([1.0, -1.0]),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = theorem1_pipeline(SplittingFamily((0.5 * s * np.eye(2),)), A0, -s * s)
        assert rep.global_alpha_limit is AlphaLimit.ZERO
        fam = SplittingFamily(tuple(s * m for m in WORKED_FAMILY.basis))
        with pytest.warns(UserWarning, match="boundary case"):
            theorem1_pipeline(fam, A0, -s * s)

    def test_full_rank_family_raises(self):
        fam = SplittingFamily(
            basis=(
                np.array([[1.0, 0.0], [0.0, -1.0]]),
                np.array([[0.0, 1.0], [1.0, 0.0]]),
            ),
        )
        A0 = ShapeOperatorSet((np.zeros((2, 2)),))
        with pytest.raises(NoDirection):
            theorem1_pipeline(fam, A0, -1.0)


class TestCurvatureBookkeeping:
    def test_totally_geodesic_scalar(self):
        A = ShapeOperatorSet((np.zeros((3, 3)),))
        for c in (-1.0, 0.0, 1.0):
            assert scalar_curvature(A, 3, c) == c

    def test_hyperbolic_cylinder_matches_gauss_oracle(self):
        for k, n, rho in [(1, 2, 1.0), (1, 3, 0.5), (2, 4, 2.0)]:
            lam_s = math.sqrt(1 + rho * rho) / rho
            lam_h = rho / math.sqrt(1 + rho * rho)
            lam = np.array([lam_s] * k + [lam_h] * (n - k))
            A = ShapeOperatorSet((np.diag(lam),))
            s = scalar_curvature(A, n, -1.0)
            pair_sum = sum(
                -1.0 + lam[i] * lam[j] for i in range(n) for j in range(i + 1, n)
            )
            oracle = 2.0 * pair_sum / (n * (n - 1))
            assert s == pytest.approx(oracle, abs=1e-12)

    def test_alpha_vs_mean_curvature_inequality(self, rng):
        # s <= -1 at c = -1 is algebraically the same as the norm inequality
        for _ in range(100):
            n = int(rng.integers(2, 6))
            p = int(rng.integers(1, 4))
            ops = []
            for _ in range(p):
                m = rng.uniform(-1, 1, size=(n, n))
                ops.append(0.5 * (m + m.T))
            A = ShapeOperatorSet(tuple(ops))
            s = scalar_curvature(A, n, -1.0)
            lhs = alpha_norm(A) ** 2
            rhs = (n * mean_curvature_norm(A, n)) ** 2
            assert (s <= -1.0) == (lhs >= rhs)

    def test_minimality_certificate(self):
        n = 2
        decayed = [
            ShapeOperatorSet((np.array([[1.0, 0.2], [0.2, -1.0]]),)),
            ShapeOperatorSet((1e-8 * np.array([[1.0, 0.2], [0.2, -1.0]]),)),
        ]
        assert minimality_certificate(decayed, n) is MinimalityVerdict.MINIMAL

        steady = ShapeOperatorSet((np.diag([0.6, 0.0]),))
        assert (
            minimality_certificate([steady, steady], n)
            is MinimalityVerdict.INCONCLUSIVE
        )

        drifting = [
            ShapeOperatorSet((np.diag([0.6, 0.0]),)),
            ShapeOperatorSet((np.diag([0.4, 0.0]),)),
        ]
        with pytest.raises(InconsistentInput):
            minimality_certificate(drifting, n)

    @pytest.mark.parametrize("s", [*POWERS_OF_TWO, 2.0**-30])
    def test_minimality_verdicts_do_not_depend_on_scale(self, s):
        # steady samples stay inconclusive however small, decayed ones and
        # zero ones are minimal, and a drift of 1e-6 of ||H|| is a drift
        steady = ShapeOperatorSet((s * np.diag([1.0, 2.0, 3.0]),))
        assert minimality_certificate([steady, steady], 3) is MinimalityVerdict.INCONCLUSIVE
        decayed = [ShapeOperatorSet((s * np.diag([1.0, -1.0]),)),
                   ShapeOperatorSet((1e-7 * s * np.diag([1.0, -1.0]),))]
        assert minimality_certificate(decayed, 2) is MinimalityVerdict.MINIMAL
        zero = ShapeOperatorSet((np.zeros((3, 3)),))
        assert minimality_certificate([zero, zero], 3) is MinimalityVerdict.MINIMAL
        drifting = [steady, ShapeOperatorSet(((1.0 + 1e-6) * steady.ops[0],))]
        with pytest.raises(InconsistentInput):
            minimality_certificate(drifting, 3)

    @pytest.mark.parametrize("s", POWERS_OF_TWO)
    def test_rounding_of_a_zero_trace_is_no_drift(self, s):
        # the trace of diag(0.1, 0.2, -0.3) rounds to 5.55e-17, not 0: ||H||
        # moves from rounding size to 0 as the samples decay, which is no
        # drift against the size of the shape operators
        D = s * np.diag([0.1, 0.2, -0.3])
        decaying = [ShapeOperatorSet((D,)), ShapeOperatorSet((1e-7 * D,))]
        assert mean_curvature_norm(decaying[0], 3) > 0.0
        assert minimality_certificate(decaying, 3) is MinimalityVerdict.MINIMAL

    def test_alpha_operator_norm(self):
        A = ShapeOperatorSet((np.diag([3.0, 1.0]), np.diag([0.0, 4.0])))
        # sum A^2 = diag(9, 17)
        assert alpha_operator_norm(A) == pytest.approx(math.sqrt(17.0), abs=1e-12)

    def test_finite_data_near_the_float_range(self):
        # the squares of -1e300 overflow the float range, the norms do not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mean_curvature_norm([[[-1e300]]], 1) == 1e300
            assert alpha_norm([[[-1e300]]]) == 1e300
            assert alpha_operator_norm([[[-1e300]]]) == 1e300
            verdict = minimality_certificate([[[[-1e300]]]] * 2, 1)
        assert verdict is MinimalityVerdict.INCONCLUSIVE

    def test_scalar_curvature_past_the_float_range(self, rng):
        # Gauss terms past the float range: a 1 x 1 operator reads 0 at
        # n = 2, 1e160 I reads +inf, and at c = 0 scaling A by 2**k scales s
        # by 4**k bit for bit (inf past the float range)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert scalar_curvature([[[-1e300]]], 2, 0.0) == 0.0
            assert scalar_curvature([[[1e160, 0.0], [0.0, 1e160]]], 2, 0.0) == math.inf
            for _ in range(200):
                n, p = int(rng.integers(2, 6)), int(rng.integers(1, 4))
                A = 10.0 ** rng.uniform(150.0, 300.0) * rng.uniform(-1.0, 1.0, size=(p, n, n))
                s, small = (scalar_curvature(B, n, 0.0) for B in (A, np.ldexp(A, -600)))
                with np.errstate(over="ignore"):
                    assert bits(s) == bits(np.ldexp(small, 1200))

    @pytest.mark.parametrize("s", POWERS_OF_TWO)
    def test_norms_scale_with_the_operators_bit_for_bit(self, rng, s):
        # entries from 1e-200 to 1e200, whose squares leave the float range
        for _ in range(60):
            q, p = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            A = 10.0 ** rng.uniform(-200.0, 200.0) * rng.uniform(-1.0, 1.0, size=(p, q, q))
            for norm in (lambda A: mean_curvature_norm(A, q), alpha_norm, alpha_operator_norm):
                assert bits(norm(s * A)) == bits(s * norm(A))


class TestCylinderSplit:
    def test_round_cylinder(self):
        from nullgeo.catalog import circle_line_samples

        samples, leaf_ids = circle_line_samples()
        split = cylinder_split(samples, k=1, leaf_ids=leaf_ids)
        angle = principal_angles(split.V, np.array([[0.0], [0.0], [1.0]])).max()
        assert angle <= 1e-8
        assert split.residual <= 1e-10
        # base points stay on the circle
        for bp in split.base_points:
            assert np.linalg.norm(bp) == pytest.approx(1.0, abs=1e-12)

    def test_plane_degenerates_to_single_base_point(self):
        samples, leaf_ids = plane_samples()
        split = cylinder_split(samples, k=2, leaf_ids=leaf_ids)
        assert split.residual == 0.0
        base = np.array(split.base_points)
        assert np.abs(base - base[0]).max() == 0.0

    def test_cone_is_not_constant(self):
        from nullgeo.catalog import cone_samples

        samples, leaf_ids = cone_samples()
        with pytest.raises(NotConstant):
            cylinder_split(samples, k=1, leaf_ids=leaf_ids)

    def test_stacked_angles_match_per_sample_calls(self, rng):
        from nullgeo.catalog import circle_line_samples, cone_samples

        cases = [[b for _, b in circle_line_samples()[0]], [b for _, b in cone_samples()[0]]]
        cases.append(list(rng.normal(size=(12, 5, 2))))
        for bases in cases:
            Q0, _ = np.linalg.qr(bases[0])
            got = principal_angles(Q0, np.array(bases[1:]))
            want = np.array([principal_angles(Q0, b) for b in bases[1:]])
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-15

    def test_not_constant_names_the_first_offending_angle(self):
        from nullgeo.catalog import cone_samples

        samples, leaf_ids = cone_samples()
        Q0, _ = np.linalg.qr(samples[0][1])
        angles = [float(principal_angles(Q0, b).max()) for _, b in samples[1:]]
        first = next(a for a in angles if a > ANGLE_TOL)
        # the first offender is not the largest angle, so the message tells them apart
        assert f"{first:.3g}" != f"{max(angles):.3g}"
        with pytest.raises(NotConstant) as err:
            cylinder_split(samples, k=1, leaf_ids=leaf_ids)
        assert str(err.value) == f"nullity image varies by principal angle {first:.3g}"

    @pytest.mark.parametrize("part", [0, 1])  # the point, the basis
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_samples_are_named(self, part, bad):
        # the first bad sample is named, before a NaN can vanish in the
        # residual's max or stall the QR
        from nullgeo.catalog import circle_line_samples

        samples, leaf_ids = circle_line_samples()
        for i in (7, 9):
            samples[i][part][0] = bad
        with pytest.raises(InconsistentInput, match=r"^sample 7 has a non-finite point or basis"):
            cylinder_split(samples, k=1, leaf_ids=leaf_ids)

    def test_criterion_12_figures(self):
        from nullgeo.catalog import circle_line_samples

        samples, leaf_ids = circle_line_samples()
        split = cylinder_split(samples, k=1, leaf_ids=leaf_ids)
        angle = float(principal_angles(split.V, np.array([[0.0], [0.0], [1.0]])).max())
        assert (angle, split.residual) == (0.0, 0.0)

    def test_stacked_split_keeps_the_per_sample_bits(self, rng):
        # one stacked product for all samples and a per-leaf column spread
        # give the bits of P @ x and Q0.T @ x per sample and of the largest
        # |a - b| over pairs of a leaf: on the catalog samples and on 200
        # random draws that pass the angle check
        from nullgeo.catalog import circle_line_samples

        cases = [circle_line_samples(radius=r) + (1,) for r in (1.0, 1.0 / 3.0, 7.0)]
        cases.append(plane_samples() + (2,))
        for i in range(600):
            m = int(rng.integers(2, 9))
            k = int(rng.integers(1, m))
            B = rng.normal(size=(m, k))
            n = int(rng.integers(1, 30))
            pts = [(rng.normal(size=m) * 10.0 ** rng.uniform(-3, 3), B) for _ in range(n)]
            cases.append((pts, list(rng.integers(0, 4, size=n)) if i % 2 else [0] * n, k))
        compared = 0
        for pts, leaf_ids, k in cases:
            try:
                split = cylinder_split(pts, k=k, leaf_ids=leaf_ids)
            except NotConstant:
                continue  # rounding in the angles of equal bases
            Q0 = split.V
            P = Q0 @ Q0.T
            base = [x - P @ x for x, _ in pts]
            assert np.array_equal(bits(split.base_points), bits(base))
            assert np.array_equal(bits(split.fiber_coords), bits([Q0.T @ x for x, _ in pts]))
            want = max(
                [0.0] + [float(np.abs(a - b).max(initial=0.0))
                         for i, a in enumerate(base) for j, b in enumerate(base)
                         if i < j and leaf_ids[i] == leaf_ids[j]]
            )
            assert bits(split.residual) == bits(want)
            compared += 1
            if compared == 204:
                break
        assert compared == 204


class TestIntegrableConullity:
    def test_sphere_totally_geodesic(self):
        fam = SplittingFamily(basis=(np.diag([0.2, -0.1]),))
        v = integrable_conullity_classify(1.0, fam)
        assert v.kind == "MustBeTotallyGeodesic"
        assert v.check_passed

    def test_flat_cylinder_requires_zero_family(self):
        fam0 = SplittingFamily(basis=(np.zeros((2, 2)),))
        v = integrable_conullity_classify(0.0, fam0)
        assert v.kind == "MustBeCylinder" and v.check_passed

        fam1 = SplittingFamily(basis=(np.diag([0.5, 0.0]),))
        v = integrable_conullity_classify(0.0, fam1)
        assert v.kind == "MustBeCylinder" and not v.check_passed

    def test_hyperbolic_leaf_bound(self):
        good = SplittingFamily(basis=(np.diag([0.5, -0.3]),))
        v = integrable_conullity_classify(-1.0, good)
        assert v.kind == "LeafBound" and v.check_passed

        bad = SplittingFamily(basis=(np.diag([1.5, 0.0]),))
        v = integrable_conullity_classify(-1.0, bad)
        assert v.kind == "LeafBound" and not v.check_passed
        assert v.offending == (0,)

    def test_leaf_bound_at_the_ends_of_the_float_range(self):
        # eigenvalues +-1e308 break the bound sqrt(-c) = 1: the symmetric
        # part once overflowed and passed the member, with a warning; the
        # skew part of [[0, 1e308], [-1e308, 0]] is taken without one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = integrable_conullity_classify(-1.0, SplittingFamily((np.diag([1e308, -1e308]),)))
            assert v == ConullityVerdict("LeafBound", False, (0,))
            v = integrable_conullity_classify(-1.0, SplittingFamily((np.diag([5e-324, -5e-324]),)))
            assert v == ConullityVerdict("LeafBound", True, ())
            assert _asymmetry(np.array([[0.0, 1e308], [-1e308, 0.0]])) == 2.0

    def test_asymmetric_family_rejected(self):
        fam = SplittingFamily(basis=(np.array([[0.0, 1.0], [0.0, 0.0]]),))
        with pytest.raises(NotIntegrable):
            integrable_conullity_classify(0.0, fam)

    def test_asymmetric_member_below_unit_scale_rejected(self):
        # self-adjointness does not depend on scale: this member once passed
        # as self-adjoint, and c = -1 gave a passed LeafBound
        shear = np.array([[0.0, 1.0], [0.0, 0.0]])
        fam = SplittingFamily(basis=(np.diag([0.5, -0.3]), 1e-9 * shear))
        with pytest.raises(NotIntegrable, match="family member 1 "):
            integrable_conullity_classify(-1.0, fam)

    @pytest.mark.parametrize("s", POWERS_OF_TWO)
    def test_verdicts_keep_under_rescaled_geometry(self, rng, s):
        # (c, C) -> (s^2 c, s C) rescales the space form: each verdict and
        # its offending members stay; 2**-60 diag(0.5, 0) once passed at
        # c = 0, and at s = 2**-60 the member just past the bound passed too
        zero, sym = np.zeros((3, 3)), rng.normal(size=(6, 3, 3))
        cases = [
            (0.0, [zero, np.diag([0.5, 0.0, 0.0]), 2.0**-60 * np.diag([0.5, 0.0, 0.0]), zero],
             (1, 2)),
            (-1.0, [np.diag([0.5, -0.3, 0.0]), np.diag([1.5, 0.0, 0.0]),
                    np.diag([0.0, -1.0 - 1e-8, 0.0]), np.diag([1.0, -1.0, 0.5])], (1, 2)),
            (-4.0, list(sym + sym.transpose(0, 2, 1)), None),
            (1.0, [np.diag([0.2, -0.1, 0.0])], ()),
        ]
        for c, basis, offending in cases:
            v = integrable_conullity_classify(c, SplittingFamily(tuple(basis)))
            scaled = SplittingFamily(tuple(s * m for m in basis))
            w = integrable_conullity_classify(s * s * c, scaled)
            assert w == v
            assert offending is None or v.offending == offending

    @pytest.mark.parametrize("s", POWERS_OF_TWO)
    def test_verdicts_do_not_depend_on_scale(self, rng, s):
        # self-adjoint members (eps = 0, 1e-10) and members that are not
        # (eps = 1e-6), and their multiples by a power of two; c > 0 has a
        # verdict that depends on self-adjointness alone
        for _ in range(20):
            m = rng.normal(size=(3, 3))
            for eps in (0.0, 1e-10, 1e-6):
                member = m + m.T + eps * (m - m.T)
                outcomes = []
                for fam in (member, s * member):
                    try:
                        outcomes.append(integrable_conullity_classify(1.0, SplittingFamily((fam,))))
                    except NotIntegrable as e:
                        outcomes.append(str(e))
                assert outcomes[0] == outcomes[1]
                assert isinstance(outcomes[0], str) == (eps == 1e-6)


def _circle():
    from nullgeo.catalog import circle_line_samples

    return circle_line_samples()[0]


@pytest.mark.parametrize(
    "call,error,match",
    [
        (lambda: radon_hurwitz(0), ValueError, "^m must be a positive integer$"),
        (lambda: nu_n(1), ValueError, "^n must be >= 2$"),
        (lambda: sphere_rigidity_threshold(3, 0), ValueError, "^q must be >= 1$"),
        (lambda: florit_bound(3, 0), ValueError, "^p must be >= 1$"),
        (lambda: theorem2_applicable(5, 0), ValueError, "^p must be >= 1$"),
        (lambda: SplittingFamily((np.eye(2), np.eye(3))), ValueError,
         "^family members must share one square shape$"),
        (lambda: SplittingFamily((np.eye(2), np.diag([math.nan, 1.0]))), ValueError,
         "^family members must have finite entries$"),
        (lambda: SplittingFamily((np.eye(2), np.diag([math.inf, 1.0]))), ValueError,
         "^family members must have finite entries$"),
        (lambda: WORKED_FAMILY.evaluate([1.0, 0.0]), ValueError,
         "^coefficient vector length must match the basis$"),
        (lambda: theorem1_pipeline(WORKED_FAMILY, [np.eye(2)], 1.0), ValueError,
         r"^pipeline requires c <= 0$"),
        (lambda: mean_curvature_norm([np.eye(2)], 0), ValueError, "^n must be >= 1$"),
        (lambda: scalar_curvature([np.eye(2)], 1, 0.0), ValueError, "^n must be >= 2$"),
        (lambda: minimality_certificate([], 3), InconsistentInput, "^no samples$"),
        (lambda: cylinder_split([], 1, []), InconsistentInput, "^no sample points$"),
        (lambda: cylinder_split([(np.zeros(3), np.zeros((3, 1))), (np.zeros(2), np.zeros((2, 1)))],
                                1, [0, 0]),
         InconsistentInput, r"^expected points in R\^3 with 3x1 basis matrices$"),
        (lambda: cylinder_split(_circle(), 1, [0]), InconsistentInput,
         "^leaf_ids length must match the samples$"),
    ],
    ids=[
        "radon-hurwitz-0", "nu-n-1", "sphere-rigidity-q0", "florit-p0", "theorem2-p0",
        "ragged-family", "nan-family", "inf-family", "evaluate-length", "pipeline-sphere", "mean-curvature-n0",
        "scalar-curvature-n1", "minimality-no-samples", "split-no-samples",
        "split-mixed-shapes", "split-leaf-ids-length",
    ],
)
def test_documented_argument_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_documented_empty_results():
    # an empty family has no direction; no operator, or operators of order
    # 0, have operator norm 0
    empty = SplittingFamily(())
    assert (empty.q, empty.nu0) == (0, 0)
    assert find_special_nullity_direction(empty) is None
    assert alpha_operator_norm([]) == alpha_operator_norm([np.zeros((0, 0))]) == 0.0
