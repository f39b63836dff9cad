import math

import numpy as np
import pytest

from nullgeo.checks import SKEW2
from nullgeo.classify import (
    AlphaLimit,
    BlockBehavior,
    Clause,
    InconsistentSpectrum,
    PreconditionViolated,
    classify_splitting_spectrum,
    decay_report,
    sign_balance_check,
    signature_counts,
)
from nullgeo.core import (
    GeodesicDomain,
    ShapeOperatorSet,
    max_invertible_time,
    shape_operator_at,
)

from conftest import POWERS_OF_TWO

TRACELESS = np.array([[1.0, 0.0], [0.0, -1.0]])


class TestClassifySpectrum:
    def test_sphere_full_segment_forbids_real_eigenvalues(self):
        v = classify_splitting_spectrum(1.0, np.zeros((2, 2)), GeodesicDomain.segment(math.pi))
        assert not v.consistent
        assert v.violated_clause is Clause.I
        assert all(z == 0 for z in v.offending_eigenvalues)

    def test_sphere_short_segment_unconstrained(self):
        v = classify_splitting_spectrum(1.0, np.zeros((2, 2)), GeodesicDomain.segment(1.0))
        assert v.consistent

    def test_sphere_skew_consistent(self):
        v = classify_splitting_spectrum(1.0, SKEW2, GeodesicDomain.line())
        assert v.consistent

    def test_flat_line_symmetric_nonzero(self):
        C0 = np.array([[0.5, 0.25], [0.25, -0.75]])
        v = classify_splitting_spectrum(0.0, C0, GeodesicDomain.line())
        assert not v.consistent
        assert v.violated_clause is Clause.II1

    def test_flat_line_zero_consistent(self):
        v = classify_splitting_spectrum(0.0, np.zeros((3, 3)), GeodesicDomain.line())
        assert v.consistent
        assert v.admissible_interval == (0.0, 0.0)

    def test_hyperbolic_ray_eigenvalue_above_bound(self):
        v = classify_splitting_spectrum(-1.0, 2.0 * np.eye(2), GeodesicDomain.ray())
        assert not v.consistent
        assert v.violated_clause is Clause.II
        assert v.offending_eigenvalues == (2 + 0j, 2 + 0j)
        # the same eigenvalue makes the geodesic stop early
        assert max_invertible_time(-1.0, 2.0 * np.eye(2)) < math.inf

    def test_hyperbolic_line_two_sided_bound(self):
        v = classify_splitting_spectrum(-1.0, np.diag([-1.5, 0.2]), GeodesicDomain.line())
        assert not v.consistent
        assert v.violated_clause is Clause.II2
        assert v.admissible_interval == (-1.0, 1.0)

    def test_verdict_soundness_against_b_max(self, rng):
        for _ in range(20):
            C0 = rng.uniform(-1.5, 1.5, size=(3, 3))
            v = classify_splitting_spectrum(-1.0, C0, GeodesicDomain.ray())
            b = max_invertible_time(-1.0, C0)
            if v.consistent:
                assert b == math.inf
            elif v.violated_clause is Clause.II:
                assert b < math.inf


class TestDecayReport:
    def test_hyperbolic_skew_all_decay(self):
        A0 = ShapeOperatorSet((TRACELESS,))
        rep = decay_report(A0, -1.0, SKEW2, GeodesicDomain.ray())
        assert all(b.behavior is BlockBehavior.DECAYS_TO_ZERO for b in rep.per_block)
        assert all(b.rate == 1.0 for b in rep.per_block)
        assert rep.global_alpha_limit is AlphaLimit.ZERO
        t, total, _ = rep.samples[-1]
        assert t == 20.0
        assert total <= 1e-6 * (1.0 + np.abs(TRACELESS).max())

    def test_flat_zero_splitting_parallel(self):
        A0 = ShapeOperatorSet((np.diag([1.0, 2.0]),))
        rep = decay_report(A0, 0.0, np.zeros((2, 2)), GeodesicDomain.ray())
        assert all(b.behavior is BlockBehavior.PARALLEL_CONSTANT for b in rep.per_block)
        assert rep.global_alpha_limit is AlphaLimit.NONZERO

    def test_hyperbolic_critical_blowup(self):
        A0 = ShapeOperatorSet((np.eye(2),))
        rep = decay_report(A0, -1.0, np.eye(2), GeodesicDomain.ray())
        assert rep.per_block[0].behavior is BlockBehavior.BLOWS_UP
        assert rep.per_block[0].rate == 1.0
        assert rep.global_alpha_limit is AlphaLimit.DIVERGENT
        t, total, crit = rep.samples[-1]
        assert total >= 1e3
        assert total == pytest.approx(math.exp(t), rel=1e-8)

    def test_hyperbolic_critical_zero_image_stays_zero(self):
        # critical eigenvector e1, shape operator vanishing on it
        C0 = np.diag([1.0, -0.5])
        A0 = ShapeOperatorSet((np.diag([0.0, 1.0]),))
        rep = decay_report(A0, -1.0, C0, GeodesicDomain.ray())
        behaviors = {complex(b.eigenvalue).real: b.behavior for b in rep.per_block}
        assert behaviors[1.0] is BlockBehavior.IDENTICALLY_ZERO
        assert behaviors[-0.5] is BlockBehavior.DECAYS_TO_ZERO
        assert rep.global_alpha_limit is AlphaLimit.ZERO

    def test_flat_mixed_limit(self):
        # zero eigenvalue carries shape, negative eigenvalue decays
        C0 = np.diag([0.0, -1.0])
        A0 = ShapeOperatorSet((np.eye(2),))
        rep = decay_report(A0, 0.0, C0, GeodesicDomain.ray())
        assert rep.global_alpha_limit is AlphaLimit.MIXED

    def test_rejects_inconsistent_spectrum(self):
        A0 = ShapeOperatorSet((np.eye(2),))
        with pytest.raises(InconsistentSpectrum):
            decay_report(A0, -1.0, 2.0 * np.eye(2), GeodesicDomain.ray())

    def test_rejects_codazzi_incompatible_data(self):
        # critical eigenvalue 1 = sqrt(-c) with a consistent spectrum, but
        # A0 C0 = [[1, 1], [0, 0]] is not symmetric
        A0 = ShapeOperatorSet((np.diag([1.0, 0.0]),))
        C0 = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert classify_splitting_spectrum(-1.0, C0, GeodesicDomain.ray()).consistent
        with pytest.raises(PreconditionViolated):
            decay_report(A0, -1.0, C0, GeodesicDomain.ray())

    def test_vanishing_image_is_relative_to_a0(self):
        # A0 = 1e-12 I on the critical eigenspace of C0 = I grows like e^t:
        # it blows up as A0 = I does, and is not identically zero
        rep = decay_report([1e-12 * np.eye(2)], -1.0, np.eye(2), GeodesicDomain.ray())
        assert rep.per_block[0].behavior is BlockBehavior.BLOWS_UP
        assert rep.global_alpha_limit is AlphaLimit.DIVERGENT
        assert rep.samples[-1][1] / 1e-12 == pytest.approx(math.exp(20.0), rel=1e-8)

    @pytest.mark.parametrize("s", POWERS_OF_TWO)
    def test_verdicts_do_not_depend_on_the_scale_of_a0(self, s):
        cases = [
            (-1.0, SKEW2, [TRACELESS], GeodesicDomain.ray()),
            (0.0, np.zeros((2, 2)), [np.diag([1.0, 2.0])], GeodesicDomain.ray()),
            (-1.0, np.eye(2), [np.eye(2)], GeodesicDomain.ray()),
            (-1.0, np.diag([1.0, -0.5]), [np.diag([0.0, 1.0])], GeodesicDomain.ray()),
            (0.0, np.diag([0.0, -1.0]), [np.eye(2)], GeodesicDomain.ray()),
            (0.0, np.diag([0.0, -1.0]), [np.diag([1.0, 0.0])], GeodesicDomain.ray()),
            (-0.25, 0.5 * SKEW2, [TRACELESS, np.fliplr(np.eye(2))], GeodesicDomain.line()),
        ]
        for c, C0, A0, domain in cases:
            want = decay_report(A0, c, C0, domain)
            got = decay_report([s * a for a in A0], c, C0, domain)
            assert [b.behavior for b in got.per_block] == [b.behavior for b in want.per_block]
            assert got.global_alpha_limit is want.global_alpha_limit

    def test_rejects_segment(self):
        A0 = ShapeOperatorSet((np.eye(2),))
        with pytest.raises(ValueError):
            decay_report(A0, -1.0, SKEW2, GeodesicDomain.segment(1.0))


class TestSignBalance:
    def test_traceless_family_balanced(self, rng):
        for _ in range(20):
            a, b = rng.uniform(-1, 1, size=2)
            A0 = ShapeOperatorSet((np.array([[a, b], [b, -a]]),))
            assert sign_balance_check(A0, 1.0, SKEW2)

    def test_zero_shape_vacuously_balanced(self):
        A0 = ShapeOperatorSet((np.zeros((2, 2)),))
        assert sign_balance_check(A0, 1.0, SKEW2)

    def test_real_eigenvalue_guard(self):
        A0 = ShapeOperatorSet((TRACELESS,))
        with pytest.raises(PreconditionViolated):
            sign_balance_check(A0, 1.0, np.diag([1.0, 2.0]))

    def test_unbalanced_detected(self):
        # a definite operator has no negative eigenvalues to balance the
        # positive ones (such data cannot be Codazzi compatible here)
        A0 = ShapeOperatorSet((np.eye(2),))
        assert not sign_balance_check(A0, 1.0, SKEW2)

    def test_counts_invariant_along_flow(self, rng):
        # rotation-plus-identity splitting with compatible traceless shape
        p, r = 0.3, 0.9
        C0 = p * np.eye(2) + r * SKEW2
        A0 = ShapeOperatorSet((np.array([[0.4, 0.7], [0.7, -0.4]]),))
        counts0 = signature_counts(A0.ops[0])
        for t in (0.5, 1.5, 3.0):
            A = shape_operator_at(A0, 1.0, C0, t)
            assert signature_counts(A.ops[0]) == counts0

    def test_signature_cutoff_is_relative(self):
        assert signature_counts(1e-10 * TRACELESS) == (1, 1)
        assert signature_counts(np.zeros((2, 2))) == (0, 0)

    @pytest.mark.parametrize("s", POWERS_OF_TWO)
    def test_signature_does_not_depend_on_scale(self, rng, s):
        for _ in range(20):
            Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            w = rng.choice([-1.0, 0.0, 1.0], size=4) * rng.uniform(0.5, 2.0, size=4)
            A = Q @ np.diag(w) @ Q.T
            want = (int(np.sum(w > 0)), int(np.sum(w < 0)))
            assert signature_counts(A) == want
            assert signature_counts(s * A) == want

    def test_sphere_continuation_negates_eigenvalues(self):
        C0 = 0.4 * np.eye(2) + 0.8 * SKEW2
        A0 = ShapeOperatorSet((np.array([[0.9, 0.2], [0.2, -0.9]]),))
        A = shape_operator_at(A0, 1.0, C0, math.pi)
        w0 = np.linalg.eigvalsh(A0.ops[0])
        w = np.linalg.eigvalsh(A.ops[0])
        np.testing.assert_allclose(np.sort(w), np.sort(-w0), atol=1e-8)
