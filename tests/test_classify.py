import math
import warnings

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
    real_eigenvalues,
    shape_operator_at,
)

from conftest import POWERS_OF_TWO, SCALES

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


    @pytest.mark.parametrize("s", SCALES)
    def test_verdicts_keep_under_rescaled_geometry(self, rng, s):
        # (c, C0) -> (s^2 c, s C0): the same verdict, with the offending
        # eigenvalues and the interval times s, exactly.  Among the cases:
        # c = -1, diag(2, 0.5) and the flat line's C0, whose clauses once
        # passed at small scales, and eigenvalues that eigvals returns next
        # to the bound sqrt(-c) = 1
        S = rng.normal(size=(3, 3))
        cases = [
            (-1.0, np.diag([2.0, 0.5])),
            (0.0, np.array([[0.5, 0.25], [0.25, -0.75]])),
            (-1.0, S @ np.diag([1.0, 0.3, -1.0]) @ np.linalg.inv(S)),
            (-1.0, SKEW2),
            *((float(rng.choice([-1.0, 0.0, -0.25])), rng.uniform(-1.5, 1.5, size=(3, 3)))
              for _ in range(50)),
        ]
        for c, C0 in cases:
            for domain in (GeodesicDomain.ray(), GeodesicDomain.line()):
                v = classify_splitting_spectrum(c, C0, domain)
                w = classify_splitting_spectrum(s * s * c, s * C0, domain)
                assert (w.consistent, w.violated_clause) == (v.consistent, v.violated_clause)
                assert w.offending_eigenvalues == tuple(s * z for z in v.offending_eigenvalues)
                assert w.admissible_interval == tuple(s * x for x in v.admissible_interval)
        v = classify_splitting_spectrum(-s * s, s * np.diag([2.0, 0.5]), GeodesicDomain.ray())
        assert (v.violated_clause, v.offending_eigenvalues) == (Clause.II, (2.0 * s,))
        v = classify_splitting_spectrum(0.0, s * cases[1][1], GeodesicDomain.line())
        assert v.violated_clause is Clause.II1

    @pytest.mark.parametrize("s", SCALES)
    def test_a_large_eigenvalue_does_not_widen_the_real_and_zero_tests(self, s):
        # beside the pair +-1e6 i, the flat line's real eigenvalue 5e-5 is no
        # zero: J = I - t C0 is singular at t = 2e4, and the clause agrees
        # with the horizon
        C0 = np.zeros((3, 3))
        C0[0, 1], C0[1, 0], C0[2, 2] = 1e6, -1e6, 5e-5
        v = classify_splitting_spectrum(0.0, s * C0, GeodesicDomain.line())
        assert (v.violated_clause, v.offending_eigenvalues) == (Clause.II1, (5e-5 * s,))
        assert max_invertible_time(0.0, s * C0) == 2e4 / s
        # beside -1e6, the pair 2 +- 1e-5 i has no real eigenvalue, so c = -1
        # on a ray has none above sqrt(-c)
        C0 = np.zeros((3, 3))
        C0[:2, :2] = [[2.0, 1e-5], [-1e-5, 2.0]]
        C0[2, 2] = -1e6
        assert real_eigenvalues(s * C0) == [-1e6 * s]
        assert classify_splitting_spectrum(-s * s, s * C0, GeodesicDomain.ray()).consistent

    def test_a_computed_zero_makes_no_flat_ray_singular(self):
        # J = I - t C0 of C0 = Q diag(0, -1, -2) Q^T is never singular for
        # t > 0, but eigvals returns its 0 as up to a few eps: the ray, the
        # horizon and the decay report judge it with the flat line's zero
        rng = np.random.default_rng(3)
        for _ in range(200):
            Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            C0 = Q @ np.diag([0.0, -1.0, -2.0]) @ Q.T
            for s in (1.0, *POWERS_OF_TWO):
                assert classify_splitting_spectrum(0.0, s * C0, GeodesicDomain.ray()).consistent
                assert max_invertible_time(0.0, s * C0) == math.inf
            report = decay_report([np.eye(3)], 0.0, C0, GeodesicDomain.ray())
            assert [b.behavior for b in report.per_block] == [
                BlockBehavior.DECAYS_TO_ZERO, BlockBehavior.DECAYS_TO_ZERO,
                BlockBehavior.PARALLEL_CONSTANT,
            ]


# (c, C0, A0, domain) of decay reports with every block behaviour
_DECAY_CASES = [
    (-1.0, SKEW2, [TRACELESS], GeodesicDomain.ray()),
    (0.0, np.zeros((2, 2)), [np.diag([1.0, 2.0])], GeodesicDomain.ray()),
    (-1.0, np.eye(2), [np.eye(2)], GeodesicDomain.ray()),
    (-1.0, np.diag([1.0, -0.5]), [np.diag([0.0, 1.0])], GeodesicDomain.ray()),
    (0.0, np.diag([0.0, -1.0]), [np.eye(2)], GeodesicDomain.ray()),
    (0.0, np.diag([0.0, -1.0]), [np.diag([1.0, 0.0])], GeodesicDomain.ray()),
    (-0.25, 0.5 * SKEW2, [TRACELESS, np.fliplr(np.eye(2))], GeodesicDomain.line()),
    (-1.0, np.diag([0.99, -1e6]), [np.eye(2)], GeodesicDomain.ray()),
    (-1.0, np.diag([0.99, 1.0, -2e6]), [np.eye(3)], GeodesicDomain.ray()),
]


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
        for c, C0, A0, domain in _DECAY_CASES:
            want = decay_report(A0, c, C0, domain)
            got = decay_report([s * a for a in A0], c, C0, domain)
            assert [b.behavior for b in got.per_block] == [b.behavior for b in want.per_block]
            assert got.global_alpha_limit is want.global_alpha_limit

    @pytest.mark.parametrize("s", [*POWERS_OF_TWO, 2.0**-30])
    def test_blocks_do_not_depend_on_the_scale_of_the_geometry(self, s):
        # (c, C0) -> (s^2 c, s C0) scales the spectrum, its spectral radius
        # and sqrt(-c) alike; the samples at fixed times do not scale
        for c, C0, A0, domain in _DECAY_CASES:
            want = decay_report(A0, c, C0, domain)
            got = decay_report(A0, s * s * c, s * C0, domain)
            assert [(b.multiplicity, b.behavior) for b in got.per_block] == [
                (b.multiplicity, b.behavior) for b in want.per_block
            ]
            assert got.global_alpha_limit is want.global_alpha_limit

    @pytest.mark.parametrize("s", SCALES)
    def test_block_values_scale_with_the_geometry(self, s):
        # the block eigenvalues, rates and the spectral radius of
        # (s^2 c, s C0) are those of (c, C0) times s, exactly
        for c, C0, A0, domain in _DECAY_CASES:
            want = decay_report(A0, c, C0, domain)
            got = decay_report(A0, s * s * c, s * C0, domain)
            assert [(b.eigenvalue, b.rate) for b in got.per_block] == [
                (s * b.eigenvalue, s * b.rate) for b in want.per_block
            ]
            assert got.spectral_radius == s * want.spectral_radius

    def test_a_large_eigenvalue_does_not_widen_the_critical_test(self):
        # the critical distance is measured against sqrt(-c), not rho(C0):
        # 0.99 is no critical eigenvalue of c = -1 beside -1e6, and stays a
        # block apart from the critical 1 beside -2e6
        rep = decay_report([np.eye(2)], -1.0, np.diag([0.99, -1e6]), GeodesicDomain.ray())
        assert [b.behavior for b in rep.per_block] == [BlockBehavior.DECAYS_TO_ZERO] * 2
        assert rep.global_alpha_limit is AlphaLimit.ZERO
        rep = decay_report([np.eye(3)], -1.0, np.diag([0.99, 1.0, -2e6]), GeodesicDomain.ray())
        assert [(b.eigenvalue, b.behavior) for b in rep.per_block] == [
            (-2e6, BlockBehavior.DECAYS_TO_ZERO),
            (0.99, BlockBehavior.DECAYS_TO_ZERO),
            (1.0, BlockBehavior.BLOWS_UP),
        ]
        assert rep.global_alpha_limit is AlphaLimit.DIVERGENT

    @pytest.mark.parametrize("s", [1.0, *POWERS_OF_TWO])
    def test_a_large_eigenvalue_does_not_make_a_flat_block_critical(self, s):
        # beside the pair +-1e6 i, the eigenvalue -5e-5 is no zero of flat
        # space: J = I - t C0 grows like 1 + 5e-5 t on its block, so the
        # shape image there decays, and no critical eigenspace is left
        C0 = np.zeros((3, 3))
        C0[0, 1], C0[1, 0], C0[2, 2] = 1e6, -1e6, -5e-5
        rep = decay_report([np.diag([0.0, 0.0, 1.0])], 0.0, s * C0, GeodesicDomain.ray())
        assert [(b.eigenvalue, b.behavior) for b in rep.per_block] == [
            (-5e-5 * s, BlockBehavior.DECAYS_TO_ZERO),
            (-1e6j * s, BlockBehavior.DECAYS_TO_ZERO),
            (1e6j * s, BlockBehavior.DECAYS_TO_ZERO),
        ]
        assert rep.global_alpha_limit is AlphaLimit.ZERO
        assert [crit for _, _, crit in rep.samples] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("s", [1.0, *POWERS_OF_TWO])
    def test_a_computed_zero_of_a_non_normal_flat_block_stays_critical(self, s):
        # C0 = Q [[0, 1], [0, -1e-3]] Q^T has the eigenvalue 0, which eigvals
        # returns as about -1.1e-14, far above 4 q eps rho(C0) = 1.8e-18, as
        # C0 is not normal; ker C0 at C0's numerical rank still finds it, and
        # the shape image keeps its part there: at s = 1 the samples grow
        Q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(2, 2)))
        C0 = Q @ np.array([[0.0, 1.0], [0.0, -1e-3]]) @ Q.T
        A0 = Q @ np.array([[1e-3, 1.0], [1.0, 2.0]]) @ Q.T
        rep = decay_report([A0], 0.0, s * C0, GeodesicDomain.ray())
        assert [b.behavior for b in rep.per_block] == [
            BlockBehavior.DECAYS_TO_ZERO,
            BlockBehavior.PARALLEL_CONSTANT,
        ]
        assert rep.per_block[0].eigenvalue == pytest.approx(-1e-3 * s)
        assert rep.global_alpha_limit is AlphaLimit.MIXED
        if s == 1.0:  # the samples are taken at fixed t, not at t / s
            assert [round(total, 2) for _, total, _ in rep.samples] == [4.33, 6.67, 11.3]

    @pytest.mark.parametrize("s", [25.0, 2.0**60])
    def test_no_sample_where_the_inverse_is_lost(self, s):
        # a = s: the scaled factor M = 2 e^{-2 a t} of J(t) on the critical
        # eigenspace underflows to 0 at t = 20 for a = 25, and at every sample
        # time for a = 2**60, where e^{a t} is past the float range too: the
        # report has no sample
        rep = decay_report([np.diag([0.0, 1.0])], -s * s, s * np.diag([1.0, -0.5]),
                           GeodesicDomain.ray())
        assert [b.behavior for b in rep.per_block] == [
            BlockBehavior.DECAYS_TO_ZERO, BlockBehavior.IDENTICALLY_ZERO
        ]
        assert rep.samples == ()

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

    def test_signature_at_both_ends_of_the_float_range(self):
        # the symmetric part of diag(+-1e308) once overflowed to (0, 0) with a
        # warning; halving first would flush diag(+-5e-324) to (0, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert signature_counts(np.diag([1e308, -1e308])) == (1, 1)
            assert signature_counts(np.array([[1e308, 1e308], [1e308, -1e308]])) == (1, 1)
            assert signature_counts(np.diag([5e-324, -5e-324])) == (1, 1)

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


@pytest.mark.parametrize(
    "call,error,match",
    [
        (lambda: decay_report([np.eye(2)], 1.0, np.zeros((2, 2)), GeodesicDomain.ray()),
         ValueError, "^decay report is defined for c <= 0 only$"),
        (lambda: sign_balance_check([TRACELESS], 0.0, SKEW2),
         PreconditionViolated, r"^sign balance requires c > 0$"),
        (lambda: sign_balance_check([TRACELESS], -1.0, SKEW2),
         PreconditionViolated, r"^sign balance requires c > 0$"),
    ],
    ids=["decay-sphere", "sign-balance-flat", "sign-balance-hyperbolic"],
)
def test_documented_argument_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()
