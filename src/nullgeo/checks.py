"""The one table of invariant checks, :data:`CHECKS`, run by the ``check``
CLI subcommand at small case counts and by the acceptance gate in
``tests/test_acceptance.py`` at its pinned seeds and counts.

Identical (seed, step) inputs produce identical reports.  A bounded entry
reports the bound when it passes and the measured worst case only when it
fails: the worst case sits at roundoff level and its digits vary between
numpy/LAPACK builds, the bound does not.  An exact entry reports a fixed
statement.  The entries evaluate the closed forms on the grid of their
times (``_splitting_grid``, ``_shape_grid``, ``_jacobi``), which gives
each time the bits of ``splitting_tensor_at``, ``shape_operator_at`` and
``jacobi_tensor`` there; every such time lies before the first singular
time (:func:`sample_grid`, or a ``C0`` that makes ``J`` singular nowhere),
so no entry checks the horizon.
"""
from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from itertools import cycle

import numpy as np

from . import catalog
from .classify import AlphaLimit, sign_balance_check, signature_counts
from .core import (
    _asymmetry,
    _jacobi,
    _shape_grid,
    _splitting_grid,
    max_invertible_time,
    riccati_path,
    shape_ode_path,
)
from .sampling import random_compatible_pair, random_splitting_tensor
from .theorems import (
    NotConstant,
    SplittingFamily,
    alpha_norm,
    cylinder_split,
    find_special_nullity_direction,
    mean_curvature_norm,
    nu_n,
    principal_angles,
    radon_hurwitz,
    scalar_curvature,
    theorem1_pipeline,
)

__all__ = [
    "Check", "CHECKS", "run_checks", "report", "CURVATURES", "WORKED_FAMILY",
    "radon_hurwitz_oracle", "riccati_deviation", "shape_deviation",
]

CURVATURES = (-1.0, 0.0, 1.0)
RH_TABLE_16 = (1, 2, 1, 4, 1, 2, 1, 8, 1, 2, 1, 4, 1, 2, 1, 9)
# (c, C0, first singular time) known in closed form
EXACT_HORIZONS = (
    (0.0, np.diag([2.0, -3.0]), 0.5),
    (1.0, np.array([[1.0]]), math.pi / 4.0),
    (-1.0, 2.0 * np.eye(2), 0.5 * math.log(3.0)),
)
# a family whose special nullity direction is the third member, with
# lambda = -1 = -sqrt(-c) for c = -1: the critical edge of Theorem 1
WORKED_FAMILY = SplittingFamily(
    basis=(
        np.array([[1.0, 0.0], [0.0, -1.0]]),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[1.0, 1.0], [-1.0, 1.0]]),
    ),
)
SKEW2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class Check:
    """One invariant.  ``run(rng, count, step)``, whose docstring names the
    statement of arXiv:1910.04050 or the identity it checks, draws ``count``
    cases from ``rng`` (only the RK4 oracles read ``step``) and returns
    ``(ok, values)``.  A bounded entry passes when ``ok`` holds and
    ``values[0]``, its worst case, is at most ``bound``.  ``detail`` is the
    report text: the measured quantity, or an exact entry's statement;
    ``count`` and ``salt`` are those of ``check``."""

    name: str
    run: Callable[[np.random.Generator, int, float], tuple[bool, tuple]]
    detail: str
    count: int
    salt: int
    bound: float | None = None

    def evaluate(self, rng: np.random.Generator, count: int, step: float) -> tuple[bool, tuple]:
        ok, values = self.run(rng, count, step)
        if self.bound is not None:
            ok = ok and values[0] <= self.bound
        return ok, values


def sample_grid(c, C0, n: int = 5, frac: float = 0.8) -> list[float]:
    """``n`` equally spaced times in (0, min(frac * b_max, 5)]."""
    span = min(frac * max_invertible_time(c, C0), 5.0)
    return [span * k / n for k in range(1, n + 1)]


def radon_hurwitz_oracle(m: int) -> int:
    """rho(m) from the 8-fold periodicity, recursively; independent of the
    closed form in :func:`nullgeo.theorems.radon_hurwitz`."""
    e = 0
    while m % 2 == 0:
        m //= 2
        e += 1
    if e < 4:
        return (1, 2, 4, 8)[e]
    return radon_hurwitz_oracle(2 ** (e - 4)) + 8


def riccati_cases(rng: np.random.Generator, count: int) -> list[tuple]:
    """``count`` random Riccati oracle cases ``(c, C0, grid)``, q in 1..5:
    with :func:`shape_cases`, the one copy of the oracle draws, which the
    tests and ``scripts/oracle_bits.py`` share."""
    C0s = [random_splitting_tensor(rng, int(rng.integers(1, 6))) for _ in range(count)]
    return [(c, C0, sample_grid(c, C0)) for c, C0 in zip(cycle(CURVATURES), C0s)]


def shape_cases(rng: np.random.Generator, count: int) -> list[tuple]:
    """``count`` random shape oracle cases ``(A0, c, C0, grid)``, ``A0`` the
    ``(p, q, q)`` stack of a Codazzi-compatible pair with ``C0``, q in 2..5."""
    pairs = [random_compatible_pair(rng, int(rng.integers(2, 6))) for _ in range(count)]
    return [(np.stack(A0.ops), c, C0.mat, sample_grid(c, C0.mat))
            for c, (A0, C0) in zip(cycle(CURVATURES), pairs)]


def riccati_deviation(rng: np.random.Generator, count: int, step: float = 1e-3) -> float:
    """Largest entry gap between the closed-form C(t) and an RK4 solution of
    C' = C^2 + c I with the given step, over ``riccati_cases(rng, count)``:
    each case is stepped alone by :func:`riccati_path`, and compared with
    the closed form on its whole grid in one call, which gives each time the
    bits of :func:`splitting_tensor_at`; :func:`sample_grid` keeps every
    time at or below 0.8 of the first singular time."""
    worst = 0.0
    for c, C0, ts in riccati_cases(rng, count):
        path = riccati_path(c, C0, ts, step)
        worst = max(worst, float(np.abs(_splitting_grid(c, C0, ts) - path).max()))
    return worst


def shape_deviation(rng: np.random.Generator, count: int, step: float = 1e-3) -> float:
    """Largest entry gap between the closed-form A(t) = A0 J(t)^{-1} and an
    RK4 solution of A' = A C(t) with the given step, over
    ``shape_cases(rng, count)``: each case is stepped alone by
    :func:`shape_ode_path`, and compared as in :func:`riccati_deviation`."""
    worst = 0.0
    for A0, c, C0, ts in shape_cases(rng, count):
        closed = np.stack(_shape_grid(c, C0, A0, ts), axis=1)
        path = np.array([r.ops for r in shape_ode_path(A0, c, C0, ts, step)])
        worst = max(worst, float(np.abs(closed - path).max()))
    return worst


def _riccati_oracle(rng, count, step):
    """Main theorem: the closed-form splitting tensor C(t) solves the
    Riccati equation C' = C^2 + cI (against RK4)."""
    return True, (riccati_deviation(rng, count, step),)


def _shape_oracle(rng, count, step):
    """Main theorem: the Codazzi equation along the nullity, A' = A C(t),
    integrates to A(t) = A0 J(t)^{-1} (against RK4)."""
    return True, (shape_deviation(rng, count, step),)


def _jacobi_residual(rng, count, step):
    """Main theorem: J solves the Jacobi equation J'' + cJ = 0; its residual
    by a second difference of step 1e-4, relative to 1 + max |J|."""
    h = 1e-4
    worst = 0.0
    for _ in range(count):
        c = float(rng.uniform(-3.0, 3.0))
        C0 = random_splitting_tensor(rng, int(rng.integers(1, 6)))
        t = float(rng.uniform(0.1, 2.0))
        Jm, J0, Jp = _jacobi(c, C0, (t - h, t, t + h), derivative=False)[0]
        resid = float(np.abs((Jp - 2.0 * J0 + Jm) / (h * h) + c * J0).max())
        worst = max(worst, resid / (1.0 + float(np.abs(J0).max())))
    return True, (worst,)


def _gauge_identity(rng, count, step):
    """Initial values of the main theorem: C(0) = C0 and A(0) = A0 exactly."""
    ok = True
    for _ in range(count):
        A0, C0 = random_compatible_pair(rng, 3)
        ok = ok and np.array_equal(_splitting_grid(-1.0, C0.mat, [0.0])[0], C0.mat)
        ok = ok and np.array_equal(np.concatenate(_shape_grid(-1.0, C0.mat, A0.ops, [0.0])), A0.ops)
    return ok, ()


def _derivative(rng, count, step):
    """The closed-form J'(t) against a central difference of J, relative."""
    h = 1e-6
    worst = 0.0
    for i in range(count):
        c = CURVATURES[i % 3]
        C0 = random_splitting_tensor(rng, 2 + i % 3)
        t = rng.uniform(0.0, 2.0)
        J, dJ = _jacobi(c, C0, (t - h, t, t + h))
        exact, fd = dJ[1], (J[2] - J[0]) / (2 * h)
        worst = max(worst, float(np.abs(exact - fd).max()) / (1.0 + float(np.abs(exact).max())))
    return True, (worst,)


def _cocycle(rng, count, step):
    """The Riccati flow is autonomous: C(t) from C0 is C(t - s) from C(s)."""
    worst = 0.0
    for i in range(count):
        c = CURVATURES[i % 3]
        C0 = random_splitting_tensor(rng, 2 + i % 3)
        s, total = sample_grid(c, C0, n=2, frac=0.6)
        mid, lhs = _splitting_grid(c, C0, [s, total])
        rhs = _splitting_grid(c, mid, [total - s])[0]
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return True, (worst,)


def _radon_hurwitz(rng, count, step):
    """The Radon-Hurwitz numbers behind the nullity thresholds: the table
    rho(1..16), and rho(1..count) against the periodicity oracle."""
    ok = tuple(radon_hurwitz(m) for m in range(1, 17)) == RH_TABLE_16
    return ok and all(radon_hurwitz(m) == radon_hurwitz_oracle(m) for m in range(1, count + 1)), ()


def _nu_n(rng, count, step):
    """The nullity threshold nu_n at n = 2, 9 and 17."""
    return [nu_n(n) for n in (2, 9, 17)] == [0, 1, 1], ()


def _kernel(rng, count, step):
    """Kernel-search theorem: a family of nu0 = q(q+1)/2 splitting tensors
    has a member C = -S - lambda I, S skew and lambda <= 0."""
    ok = True
    for i in range(count):
        q = 2 + i % 2
        basis = tuple(random_splitting_tensor(rng, q) for _ in range(q * (q + 1) // 2))
        fam = SplittingFamily(basis=basis)
        d = find_special_nullity_direction(fam)
        ok = ok and d is not None and d.lam <= 0.0
        ok = ok and np.abs(fam.evaluate(d.coeffs) + d.skew_part + d.lam * np.eye(q)).max() <= 1e-10
    return ok, ()


def _max_invertible_exact(rng, count, step):
    """The first singular time of J against the cases known in closed form."""
    return True, (max(abs(max_invertible_time(c, C0) - want) for c, C0, want in EXACT_HORIZONS),)


def _catalog(rng, count, step):
    """The exact models' expected properties, among them Cartan's identity,
    lam_s lam_h = 1 and the Gauss curvatures of the hyperbolic cylinders."""
    models = [
        catalog.totally_geodesic(3, 1, 1.0),
        catalog.hyperbolic_cylinder(1, 2, 1.0),
        *(catalog.hyperbolic_cylinder(1, 3, rho) for rho in (0.5, 1.0, 2.0)),
        catalog.cartan_veronese_polar(),
        catalog.euclidean_cylinder(3, 1.0),
    ]
    return all(all(catalog.verify_model(m).values()) for m in models), ()


def _symmetry(rng, count, step):
    """Main theorem: A(t) stays symmetric for Codazzi-compatible (A0, C0); a
    control pair that is not compatible breaks symmetry."""
    worst = 0.0
    for _ in range(count):
        A0, C0 = random_compatible_pair(rng, int(rng.integers(2, 5)))
        A = _shape_grid(-1.0, C0.mat, A0.ops, sample_grid(-1.0, C0.mat))
        worst = max(worst, *map(_asymmetry, np.concatenate(A)))
    bad_A, bad_C = np.diag([1.0, 2.0]), np.array([[0.0, 1.0], [0.0, 0.0]])
    control = max(map(_asymmetry, _shape_grid(0.0, bad_C, [bad_A], (0.25, 0.5, 1.0))[0]))
    return control > 1e-4, (worst, control)


def _rank(rng, count, step):
    """Main theorem: A(t) = A0 J(t)^{-1} keeps the rank and signature of A0."""
    ok = True
    for i in range(count):
        c = CURVATURES[i % 3]
        A0, C0 = random_compatible_pair(rng, int(rng.integers(2, 5)))
        grid = sample_grid(c, C0.mat, 20)
        for a0, a in zip(A0.ops, _shape_grid(c, C0.mat, A0.ops, grid)):
            ranks = np.linalg.matrix_rank(np.concatenate([[a0], a]), tol=1e-10)
            ok = ok and (ranks == ranks[0]).all()
            sig0 = signature_counts(a0)
            ok = ok and all(signature_counts(m) == sig0 for m in a)
    return ok, ()


def _sphere(rng, count, step):
    """Sphere continuation (c = 1): without real eigenvalues of C0, A(pi)
    has the negated eigenvalues of A0, whose signs then balance."""
    ok, worst = True, 0.0
    for _ in range(count):
        p, r = rng.uniform(-1.0, 1.0), rng.uniform(0.2, 1.5)
        C0 = p * np.eye(2) + r * SKEW2
        x, y = rng.uniform(-1.0, 1.0, size=2)
        A0 = np.array([[x, y], [y, -x]])
        A = _shape_grid(1.0, C0, [A0], [math.pi])[0][0]
        w0 = np.sort(np.linalg.eigvalsh(A0))
        w = np.sort(np.linalg.eigvalsh(A))
        worst = max(worst, float(np.abs(w - np.sort(-w0)).max()))
        ok = ok and sign_balance_check([A0], 1.0, C0)
    return ok, (worst,)


def _hyperbolic_decay(rng, count, step):
    """Hyperbolic space (c = -1): A(t) decays along a ray for C0 = rS + lambda I,
    S skew, lambda <= 0 (max |A(20)| / max |A0|), and blows up for C0 = I."""
    ratios = []
    for _ in range(count):
        lam, r = float(rng.uniform(-2.0, 0.0)), float(rng.uniform(0.2, 1.5))
        C0 = r * SKEW2 + lam * np.eye(2)
        x, y = rng.uniform(-1.0, 1.0, size=2)
        A0 = np.array([[x, y], [y, -x]])
        A = _shape_grid(-1.0, C0, [A0], [20.0])[0][0]
        ratios.append(float(np.abs(A).max()) / (1e-300 + float(np.abs(A0).max())))
    blowup = _shape_grid(-1.0, np.eye(2), [np.eye(2)], [10.0])[0][0]
    grown = float(np.linalg.norm(blowup))
    return grown >= 1e3, (float(np.max(ratios, initial=0.0)), grown)


def _theorem1(rng, count, step):
    """Theorem 1: the worked family's direction and vanishing decay limit (with
    the critical-edge warning), and a direction in every family of
    nu0 >= q(q+1)/2 members."""
    d = find_special_nullity_direction(WORKED_FAMILY)
    ok = d is not None and np.abs(np.abs(d.coeffs) - [0.0, 0.0, 1.0]).max() <= 1e-10
    ok = ok and abs(d.lam + 1.0) <= 1e-10
    A0 = [np.array([[1.0, 0.0], [0.0, -1.0]])]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = theorem1_pipeline(WORKED_FAMILY, A0, -1.0)
    ok = ok and any(issubclass(w.category, UserWarning) for w in caught)
    ok = ok and rep.global_alpha_limit is AlphaLimit.ZERO
    found = 0
    for _ in range(count):
        q = int(rng.integers(2, 5))
        nu0 = q * (q + 1) // 2 + int(rng.integers(0, 3))
        basis = tuple(rng.uniform(-1.0, 1.0, size=(q, q)) for _ in range(nu0))
        found += find_special_nullity_direction(SplittingFamily(basis=basis)) is not None
    return ok and found == count, (found, count)


def _cylinder_split(rng, count, step):
    """Integrable conullity in Euclidean space: a round cylinder splits off its
    axis (angle, residual), and a cone has no constant factor."""
    samples, leaf_ids = catalog.circle_line_samples()
    split = cylinder_split(samples, k=1, leaf_ids=leaf_ids)
    angle = float(principal_angles(split.V, np.array([[0.0], [0.0], [1.0]])).max())
    cone, cone_ids = catalog.cone_samples()
    try:
        cylinder_split(cone, k=1, leaf_ids=cone_ids)
        ok = False
    except NotConstant:
        ok = split.residual <= 1e-10
    return ok, (angle, split.residual)


def _gauss(rng, count, step):
    """Gauss equation: s = c when totally geodesic, and s <= c exactly when
    |alpha|^2 >= n^2 |H|^2."""
    zero = [np.zeros((3, 3))]
    ok = all(scalar_curvature(zero, 3, c) == c for c in CURVATURES)
    for _ in range(count):
        n = int(rng.integers(2, 6))
        ms = [rng.uniform(-1.0, 1.0, size=(n, n)) for _ in range(int(rng.integers(1, 4)))]
        A = [0.5 * (m + m.T) for m in ms]
        big_alpha = alpha_norm(A) ** 2 >= (n * mean_curvature_norm(A, n)) ** 2
        ok = ok and (scalar_curvature(A, n, -1.0) <= -1.0) == big_alpha
    return ok, ()


CHECKS = (
    # name, function, report detail, check count, rng salt (0: draws nothing), bound
    Check("riccati_oracle_equivalence", _riccati_oracle, "max deviation", 5, 100, 1e-6),
    Check("shape_oracle_equivalence", _shape_oracle, "max deviation", 5, 200, 1e-6),
    Check("jacobi_residual", _jacobi_residual, "max relative residual", 10, 300, 1e-4),
    Check("gauge_identity", _gauge_identity, "C(0) == C0 and A(0) == A0 exactly", 1, 400),
    Check("derivative_consistency", _derivative, "max relative deviation", 10, 500, 1e-6),
    Check("cocycle_property", _cocycle, "max deviation", 5, 600, 1e-8),
    Check("radon_hurwitz_table", _radon_hurwitz, "table 1..16 and oracle 1..64 agree", 64, 0),
    Check("nu_n_values", _nu_n, "nu_n {2: 0, 9: 1, 17: 1}", 0, 0),
    Check("kernel_search_soundness", _kernel, "50 trials found admissible directions", 50, 700),
    Check("max_invertible_time_exact", _max_invertible_exact, "max deviation", 0, 0, 1e-12),
    Check("catalog_identities", _catalog, "all catalog properties hold", 0, 0),
    Check("symmetry_propagation", _symmetry, "max asymmetry", 3, 800, 1e-8),
    Check("rank_signature_constancy", _rank, "ranks and signatures of A(t) constant", 3, 900),
    Check("sphere_continuation", _sphere, "max eigenvalue deviation", 5, 1000, 1e-8),
    Check("hyperbolic_decay_and_blowup", _hyperbolic_decay, "max decay ratio", 5, 1100, 1e-6),
    Check("theorem1_pipeline", _theorem1, "every family has a special direction", 10, 1200),
    Check("cylinder_split", _cylinder_split, "max principal angle", 0, 0, 1e-8),
    Check("scalar_curvature", _gauss, "s <= c exactly when |alpha|^2 >= n^2 |H|^2", 20, 1300),
)


def run_checks(seed: int = 0, step: float = 1e-3) -> list[tuple[Check, bool, tuple]]:
    """``(check, passed, values)`` of every entry of :data:`CHECKS` at its
    small count, on ``default_rng([seed, salt])``, with the oracle step."""
    return [(check, *check.evaluate(np.random.default_rng([seed, check.salt]), check.count, step))
            for check in CHECKS]


def report(results) -> tuple[str, int]:
    """Formatted summary plus exit code (0 iff nothing failed).

    A PASS line of a bounded check shows the pinned bound; a FAIL line shows
    the measured worst case next to it.  An exact check's line shows its
    statement.
    """
    lines = []
    for check, passed, values in results:
        detail, bound = check.detail, check.bound
        if bound is not None:
            detail += f" within {bound:g}" if passed else f" {values[0]:.3e}, bound {bound:g}"
        lines.append(f"{'PASS' if passed else 'FAIL'} {check.name}: {detail}")
    failed = sum(not passed for _, passed, _ in results)
    lines.append(f"{len(results)} checks, {failed} failed")
    return "\n".join(lines) + "\n", 0 if failed == 0 else 1
