"""Invariant checks shared by the ``check`` CLI subcommand and the
acceptance gate in ``tests/test_acceptance.py``.

Each measured invariant is one function of a generator and a case count
that returns the worst value it saw.  ``check`` calls it with a few cases
from a seed-derived generator, the acceptance gate with its pinned seed and
full count; each caller holds its own bound.  Identical (seed, step) inputs
produce identical reports.  A check with a pinned bound reports the bound
when it passes and the measured worst case only when it fails: the worst
case sits at roundoff level and its digits vary between numpy/LAPACK
builds, the bound does not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import catalog
from .core import (
    _riccati_stack,
    _shape_stack,
    jacobi_derivative,
    jacobi_tensor,
    max_invertible_time,
    shape_operator_at,
    splitting_tensor_at,
)
from .sampling import random_compatible_pair, random_splitting_tensor
from .theorems import SplittingFamily, find_special_nullity_direction, nu_n, radon_hurwitz

__all__ = [
    "CheckResult", "run_checks", "report", "CURVATURES", "EXACT_HORIZONS", "RH_TABLE_16",
    "sample_grid", "radon_hurwitz_oracle", "riccati_deviation", "shape_deviation", "jacobi_residual",
]

CURVATURES = (-1.0, 0.0, 1.0)
RH_TABLE_16 = (1, 2, 1, 4, 1, 2, 1, 8, 1, 2, 1, 4, 1, 2, 1, 9)
# (c, C0, first singular time) known in closed form
EXACT_HORIZONS = (
    (0.0, np.diag([2.0, -3.0]), 0.5),
    (1.0, np.array([[1.0]]), math.pi / 4.0),
    (-1.0, 2.0 * np.eye(2), 0.5 * math.log(3.0)),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    value: float | None = None  # measured worst case, for checks with a bound
    bound: float | None = None


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


def _by_size(keys) -> list[list[int]]:
    """Indices of equal keys, in order of first appearance."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def riccati_deviation(rng: np.random.Generator, count: int, step: float = 1e-3) -> float:
    """Largest entry gap between the closed-form C(t) and an RK4 solution of
    C' = C^2 + c I with the given step, on the sample grid of ``count``
    random (c, C0), q in 1..5.  The RK4 solutions of the cases of one q are
    advanced together."""
    cs, C0s = [], []
    for i in range(count):
        cs.append(CURVATURES[i % 3])
        C0s.append(random_splitting_tensor(rng, int(rng.integers(1, 6))))
    grids = [sample_grid(c, C0) for c, C0 in zip(cs, C0s)]
    worst = 0.0
    for group in _by_size(C0.shape for C0 in C0s):
        paths = _riccati_stack([cs[i] for i in group], [C0s[i] for i in group],
                               [grids[i] for i in group], step)
        for i, path in zip(group, paths):
            for t, Ct in zip(grids[i], path):
                closed = splitting_tensor_at(cs[i], C0s[i], t).mat
                worst = max(worst, float(np.abs(closed - Ct).max()))
    return worst


def shape_deviation(rng: np.random.Generator, count: int, step: float = 1e-3) -> float:
    """Largest entry gap between the closed-form A(t) = A0 J(t)^{-1} and an
    RK4 solution of A' = A C(t) with the given step, on the sample grid of
    ``count`` random Codazzi-compatible (A0, C0), q in 2..5.  The RK4
    solutions of the cases of one q are advanced together."""
    cs, A0s, C0s = [], [], []
    for i in range(count):
        A0, C0 = random_compatible_pair(rng, int(rng.integers(2, 6)))
        cs.append(CURVATURES[i % 3])
        A0s.append(A0)
        C0s.append(C0.mat)
    grids = [sample_grid(c, C0) for c, C0 in zip(cs, C0s)]
    worst = 0.0
    for group in _by_size((A0.p, A0.q) for A0 in A0s):
        paths = _shape_stack([np.stack(A0s[i].ops) for i in group], [cs[i] for i in group],
                             [C0s[i] for i in group], [grids[i] for i in group], step)
        for i, path in zip(group, paths):
            for t, At in zip(grids[i], path):
                closed = shape_operator_at(A0s[i], cs[i], C0s[i], t).ops
                worst = max(worst, max(float(np.abs(a - b).max()) for a, b in zip(closed, At)))
    return worst


def jacobi_residual(rng: np.random.Generator, count: int, step: float = 1e-4) -> float:
    """Largest residual of J'' + c J = 0, with J'' a central second
    difference of the given step, relative to 1 + max |J|, over ``count``
    random c in (-3, 3), C0 with q in 1..5 and t in (0.1, 2)."""
    worst = 0.0
    for _ in range(count):
        c = float(rng.uniform(-3.0, 3.0))
        C0 = random_splitting_tensor(rng, int(rng.integers(1, 6)))
        t = float(rng.uniform(0.1, 2.0))
        Jm, J0, Jp = (jacobi_tensor(c, C0, x) for x in (t - step, t, t + step))
        resid = float(np.abs((Jp - 2.0 * J0 + Jm) / (step * step) + c * J0).max())
        worst = max(worst, resid / (1.0 + float(np.abs(J0).max())))
    return worst


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _bounded(label: str, worst: float, bound: float):
    return worst <= bound, label, worst, bound


def _check_riccati_oracle(seed, step):
    return _bounded("max deviation", riccati_deviation(_rng(seed, 100), 5, step), 1e-6)


def _check_shape_oracle(seed, step):
    return _bounded("max deviation", shape_deviation(_rng(seed, 200), 5, step), 1e-6)


def _check_jacobi_residual(seed, step):
    return _bounded("max relative residual", jacobi_residual(_rng(seed, 300), 10), 1e-4)


def _check_gauge_identity(seed, step):
    rng = _rng(seed, 400)
    c = -1.0
    A0, C0 = random_compatible_pair(rng, 3)
    ok = np.array_equal(splitting_tensor_at(c, C0, 0.0).mat, C0.mat)
    at0 = shape_operator_at(A0, c, C0, 0.0)
    ok = ok and all(np.array_equal(a, b) for a, b in zip(at0.ops, A0.ops))
    return ok, "C(0) == C0 and A(0) == A0 exactly"


def _check_derivative_consistency(seed, step):
    h = 1e-6
    worst = 0.0
    for i in range(10):
        rng = _rng(seed, 500 + i)
        c = CURVATURES[i % 3]
        C0 = random_splitting_tensor(rng, 2 + i % 3)
        t = rng.uniform(0.0, 2.0)
        exact = jacobi_derivative(c, C0, t)
        fd = (jacobi_tensor(c, C0, t + h) - jacobi_tensor(c, C0, t - h)) / (2 * h)
        rel = float(np.abs(exact - fd).max()) / (1.0 + float(np.abs(exact).max()))
        worst = max(worst, rel)
    return _bounded("max relative deviation", worst, 1e-6)


def _check_cocycle(seed, step):
    worst = 0.0
    for i in range(5):
        rng = _rng(seed, 600 + i)
        c = CURVATURES[i % 3]
        C0 = random_splitting_tensor(rng, 2 + i % 3)
        s, total = sample_grid(c, C0, n=2, frac=0.6)
        lhs = splitting_tensor_at(c, C0, total).mat
        mid = splitting_tensor_at(c, C0, s).mat
        rhs = splitting_tensor_at(c, mid, total - s).mat
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return _bounded("max deviation", worst, 1e-8)


def _check_radon_hurwitz(seed, step):
    table = tuple(radon_hurwitz(m) for m in range(1, 17))
    if table != RH_TABLE_16:
        return False, f"table mismatch: {table}"
    for m in range(1, 65):
        if radon_hurwitz(m) != radon_hurwitz_oracle(m):
            return False, f"oracle mismatch at m={m}"
    return True, "table 1..16 and oracle 1..64 agree"


def _check_nu_n(seed, step):
    got = {n: nu_n(n) for n in (2, 9, 17)}
    want = {2: 0, 9: 1, 17: 1}
    return got == want, f"nu_n {got}"


def _check_kernel_search(seed, step):
    for i in range(50):
        rng = _rng(seed, 700 + i)
        q = 2 + i % 2
        nu0 = q * (q + 1) // 2
        fam = SplittingFamily(
            basis=tuple(random_splitting_tensor(rng, q) for _ in range(nu0)), q=q
        )
        d = find_special_nullity_direction(fam)
        if d is None:
            return False, f"no direction at trial {i}"
        C = fam.evaluate(d.coeffs)
        resid = float(np.abs(C + d.skew_part + d.lam * np.eye(q)).max())
        if resid > 1e-10 or d.lam > 0.0:
            return False, f"bad decomposition at trial {i}: resid {resid:.3e}"
    return True, "50 trials found admissible directions"


def _check_max_invertible_exact(seed, step):
    worst = max(abs(max_invertible_time(c, C0) - want) for c, C0, want in EXACT_HORIZONS)
    return _bounded("max deviation", worst, 1e-12)


def _check_catalog(seed, step):
    models = [
        catalog.totally_geodesic(3, 1, 1.0),
        catalog.hyperbolic_cylinder(1, 2, 1.0),
        catalog.cartan_veronese_polar(),
        catalog.euclidean_cylinder(3, 1.0),
    ]
    failures = []
    for m in models:
        for prop, ok in catalog.verify_model(m).items():
            if not ok:
                failures.append(f"{m.name}:{prop}")
    if failures:
        return False, "failed: " + ", ".join(failures)
    return True, "all catalog properties hold"


_CHECKS = (
    ("riccati_oracle_equivalence", _check_riccati_oracle),
    ("shape_oracle_equivalence", _check_shape_oracle),
    ("jacobi_residual", _check_jacobi_residual),
    ("gauge_identity", _check_gauge_identity),
    ("derivative_consistency", _check_derivative_consistency),
    ("cocycle_property", _check_cocycle),
    ("radon_hurwitz_table", _check_radon_hurwitz),
    ("nu_n_values", _check_nu_n),
    ("kernel_search_soundness", _check_kernel_search),
    ("max_invertible_time_exact", _check_max_invertible_exact),
    ("catalog_identities", _check_catalog),
)


def run_checks(seed: int = 0, step: float = 1e-3) -> list[CheckResult]:
    results = []
    for name, fn in _CHECKS:
        results.append(CheckResult(name, *fn(seed, step)))
    return results


def report(results) -> tuple[str, int]:
    """Formatted summary plus exit code (0 iff nothing failed).

    A PASS line of a bounded check shows the pinned bound; a FAIL line shows
    the measured worst case next to it.
    """
    lines = []
    failed = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        detail = r.detail
        if r.bound is not None:
            if r.passed:
                detail += f" within {r.bound:g}"
            else:
                detail += f" {r.value:.3e}, bound {r.bound:g}"
        lines.append(f"{tag} {r.name}: {detail}")
        if not r.passed:
            failed += 1
    lines.append(f"{len(results)} checks, {failed} failed")
    return "\n".join(lines) + "\n", 0 if failed == 0 else 1
