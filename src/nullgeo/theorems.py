"""Threshold predicates, the constructive kernel search for a well-behaved
nullity direction, scalar-curvature bookkeeping, and the cylinder /
integrable-conullity structure checks.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .classify import DecayReport, decay_report
from .core import (
    GeodesicDomain,
    NullityError,
    SYM_TOL,
    _asymmetry,
    _curv,
    _ops,
    _singular_time,
    _squares,
    _sym,
    _unit_scale,
)

__all__ = [
    "SplittingFamily",
    "SpecialDirection",
    "CylinderSplit",
    "ConullityVerdict",
    "MinimalityVerdict",
    "NoDirection",
    "InconsistentInput",
    "NotConstant",
    "NotIntegrable",
    "radon_hurwitz",
    "sphere_rigidity_threshold",
    "nu_n",
    "theorem1_applicable",
    "theorem2_applicable",
    "florit_bound",
    "find_special_nullity_direction",
    "theorem1_pipeline",
    "scalar_curvature",
    "mean_curvature_norm",
    "alpha_norm",
    "alpha_operator_norm",
    "minimality_certificate",
    "cylinder_split",
    "principal_angles",
    "integrable_conullity_classify",
]

KERNEL_SV_TOL = 1e-10     # singular-value threshold for the kernel search
ANGLE_TOL = 1e-8          # principal-angle tolerance for coinciding subspaces
RANK_TOL = 1e-6           # sine below which a basis column lies in the span before it


class NoDirection(NullityError):
    """The kernel search found no admissible nullity direction."""


class InconsistentInput(NullityError):
    pass


class NotConstant(NullityError):
    """The sampled nullity images do not span one fixed subspace."""


class NotIntegrable(NullityError):
    """A splitting tensor in the family is not self-adjoint."""


# ---------------------------------------------------------------------------
# integer predicates
# ---------------------------------------------------------------------------

def radon_hurwitz(m: int) -> int:
    """Radon-Hurwitz number: for m = 2^(4a+b) * odd with b in {0,1,2,3},
    returns 8a + 2^b."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    e = 0
    while m % 2 == 0:
        m //= 2
        e += 1
    a, b = divmod(e, 4)
    return 8 * a + 2 ** b


def sphere_rigidity_threshold(nu0: int, q: int) -> bool:
    """Whether the minimum nullity index meets the Radon-Hurwitz bound for
    the conullity dimension (forcing a totally geodesic spherical immersion)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return nu0 >= radon_hurwitz(q)


def nu_n(n: int) -> int:
    """max{k : radon_hurwitz(n - k) >= k + 1}, by exhaustive scan."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return max(k for k in range(n) if radon_hurwitz(n - k) >= k + 1)


def theorem1_applicable(nu0: int, q: int) -> bool:
    """Nullity index large enough for the kernel search to be guaranteed:
    nu0 >= q(q+1)/2."""
    return nu0 >= q * (q + 1) // 2


def florit_bound(n: int, p: int) -> int:
    """Lower bound n - 2p for the minimum nullity index of a submanifold
    with nonpositive extrinsic curvature in codimension p (clamped at 0)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return max(n - 2 * p, 0)


def theorem2_applicable(n: int, p: int) -> bool:
    """n >= 2p^2 + 3p.  Together with the nullity bound n - 2p and the
    conullity bound 2p this hands the problem to the kernel-search threshold."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return n >= 2 * p * p + 3 * p


# ---------------------------------------------------------------------------
# kernel search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplittingFamily:
    """Images C_{T_i} of an orthonormal basis of the nullity, square
    matrices of one shape; the map T -> C_T extends linearly."""

    basis: tuple

    def __post_init__(self):
        object.__setattr__(self, "basis", _squares(self.basis, "family members"))

    @property
    def q(self) -> int:
        """The conullity index: the order of the members, 0 for no member."""
        return len(self.basis[0]) if self.basis else 0

    @property
    def nu0(self) -> int:
        return len(self.basis)

    def evaluate(self, coeffs) -> np.ndarray:
        """C_T for T = sum coeffs[i] * T_i."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.nu0,):
            raise ValueError("coefficient vector length must match the basis")
        # the terms in basis order from +0.0, as a loop of out += a * m
        terms = coeffs[:, None, None] * np.array(self.basis).reshape(self.nu0, self.q, self.q)
        return np.add.reduce(terms, axis=0, initial=0.0)


@dataclass(frozen=True)
class SpecialDirection:
    """Unit nullity direction T0 with C_{T0} = -S - lambda I, S skew,
    normalized so that lambda <= 0."""

    coeffs: np.ndarray
    skew_part: np.ndarray
    lam: float


def find_special_nullity_direction(family: SplittingFamily) -> SpecialDirection | None:
    """Search the family for a direction whose splitting tensor is skew plus
    a multiple of the identity.

    The obstruction T -> sym-traceless part of C_T is linear with codomain of
    dimension q(q+1)/2 - 1, so a kernel vector exists whenever
    nu0 >= q(q+1)/2.  Returns None when the kernel is trivial.  Raises
    :class:`NullityError` when the sym-traceless parts overflow or q = 0.

    The matrix of the map has one column per member, its sym-traceless part
    S - (tr S / q) I with S = (C + C^T)/2, built for the whole family in one
    stacked pass with the bits of a loop over the members.
    """
    q = family.q
    nu0 = family.nu0
    if nu0 == 0:
        return None
    if q == 0:
        raise NullityError("members of order q = 0 have no lambda = -tr C / q")
    F = np.array(family.basis)
    with np.errstate(over="ignore", invalid="ignore"):  # sym-traceless parts
        S = 0.5 * (F + F.transpose(0, 2, 1))
        S = S - (np.trace(S, axis1=1, axis2=2) / q)[:, None, None] * np.eye(q)
    B = S.reshape(nu0, q * q).T
    if not np.isfinite(B).all():
        raise NullityError("the sym-traceless parts of the family overflow the float range")
    _, s, vt = np.linalg.svd(B, full_matrices=False)
    if s.size and s[0] > 0.0:
        rank = int(np.sum(s > KERNEL_SV_TOL * s[0]))
    else:
        rank = 0
    if rank >= nu0:
        return None
    coeffs = vt[rank]
    # deterministic sign before normalization
    nz = np.flatnonzero(np.abs(coeffs) > 1e-12)
    if nz.size and coeffs[nz[0]] < 0.0:
        coeffs = -coeffs
    C = family.evaluate(coeffs)
    lam = -float(np.trace(C)) / q
    if lam > 0.0:
        coeffs = -coeffs
        C = -C
        lam = -lam
    u, e = _unit_scale(C)  # where C - C^T cannot overflow
    return SpecialDirection(coeffs=coeffs, skew_part=np.ldexp(-0.5 * (u - u.T), e), lam=lam)


def theorem1_pipeline(family: SplittingFamily, A0, c) -> DecayReport:
    """Kernel search followed by the decay report along the found direction.

    When a direction exists and lambda <= 0, the report shows a vanishing
    global shape limit for c <= 0 (away from the lambda = -sqrt(-c) edge; one
    within 1e-12 sqrt(-c) of it is flagged with a warning but evaluated).
    """
    c = _curv(c)
    if c > 0.0:
        raise ValueError("pipeline requires c <= 0")
    direction = find_special_nullity_direction(family)
    if direction is None:
        raise NoDirection(
            f"sym-traceless parts of the family have full rank "
            f"(nu0={family.nu0}, q={family.q})"
        )
    a = math.sqrt(-c)
    if a > 0.0 and abs(direction.lam + a) <= 1e-12 * a:
        warnings.warn(
            "lambda equals -sqrt(-c); decay on the critical eigenspace is a "
            "boundary case",
            stacklevel=2,
        )
    C0 = family.evaluate(direction.coeffs)
    return decay_report(A0, c, C0, GeodesicDomain.ray())


# ---------------------------------------------------------------------------
# curvature bookkeeping
# ---------------------------------------------------------------------------

def _scale_back(x: float, e: int) -> float:
    """x 2**e, inf past the float range.  The norms below, of degree one,
    are taken on the :func:`_unit_scale` of the operators and scaled back:
    finite squares on finite data, their bits where no square leaves the
    float range, and 2**k times each of them for 2**k A, bit for bit."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(x, e))


def mean_curvature_norm(A, n: int) -> float:
    """||H|| = (1/n) sqrt(sum_xi (trace A_xi)^2) for full n x n operators."""
    A, e = _unit_scale(np.array(_ops(A)))
    if n < 1:
        raise ValueError("n must be >= 1")
    return _scale_back(math.sqrt(sum(float(np.trace(m)) ** 2 for m in A)) / n, e)


def alpha_norm(A) -> float:
    """Frobenius norm of the second fundamental form: sqrt(sum ||A_xi||_F^2)."""
    A, e = _unit_scale(np.array(_ops(A)))
    return _scale_back(math.sqrt(sum(float(np.sum(m * m)) for m in A)), e)


def alpha_operator_norm(A) -> float:
    """sup over unit X of ||alpha(X, .)||, i.e. sqrt of the largest eigenvalue
    of sum_xi A_xi^T A_xi.  Used as the bounded-away-from-zero measure."""
    A, e = _unit_scale(np.array(_ops(A)))
    if not A.size:  # no operator, or operators of order 0
        return 0.0
    w = np.linalg.eigvalsh(sum(m.T @ m for m in A))
    return _scale_back(math.sqrt(max(float(w[-1]), 0.0)), e)


def scalar_curvature(A, n: int, c) -> float:
    """Scalar curvature via the traced Gauss equation:
    s = c + n/(n-1) ||H||^2 - ||alpha||^2 / (n(n-1)).

    Where a term leaves the float range, the Gauss part n/(n-1) ||H||^2 -
    ||alpha||^2 / (n(n-1)) is taken on the :func:`_unit_scale` of the
    operators and scaled back, so finite data give a finite value or
    +-inf."""
    if n < 2:
        raise ValueError("n must be >= 2")
    c = _curv(c)

    def terms(A):
        h = mean_curvature_norm(A, n)
        return (n / (n - 1)) * h * h, alpha_norm(A) ** 2 / (n * (n - 1))

    try:
        x, y = terms(A)
    except OverflowError:  # ||alpha||^2 past the float range
        x = y = math.inf
    s = c + x - y
    if math.isfinite(s):
        return s
    A, e = _unit_scale(np.array(_ops(A)))
    x, y = terms(A)
    return c + _scale_back(x - y, 2 * e)


class MinimalityVerdict(str, Enum):
    MINIMAL = "Minimal"
    INCONCLUSIVE = "Inconclusive"


def minimality_certificate(A_samples, n: int) -> MinimalityVerdict:
    """Constant mean-curvature length plus decayed extrinsic geometry forces
    minimality.

    Raises :class:`InconsistentInput` when ||H|| drifts by more than 1e-8 of
    the largest ``alpha_operator_norm``, the samples' size; decayed means a
    smallest ``alpha_operator_norm`` of at most 1e-6 of the largest.
    """
    samples = [_ops(a) for a in A_samples]
    if not samples:
        raise InconsistentInput("no samples")
    norms = [mean_curvature_norm(a, n) for a in samples]
    alphas = [alpha_operator_norm(a) for a in samples]
    if max(norms) - min(norms) > 1e-8 * max(alphas):
        raise InconsistentInput(
            f"||H|| varies across samples: {min(norms):.3g} .. {max(norms):.3g}"
        )
    if min(alphas) <= 1e-6 * max(alphas):
        # constant ||H|| bounded by a quantity that reaches ~0
        return MinimalityVerdict.MINIMAL
    return MinimalityVerdict.INCONCLUSIVE


# ---------------------------------------------------------------------------
# cylinders and integrable conullity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CylinderSplit:
    """Decomposition of ambient sample points into a fixed factor V and its
    orthogonal complement."""

    V: np.ndarray                # m x k, orthonormal columns
    base_points: tuple           # projections onto V-perp (full ambient coords)
    fiber_coords: tuple          # V-components, length-k vectors
    residual: float


def _orthonormal(B: np.ndarray):
    """The Q of B's QR, or of each basis of a stack, taken on each basis's
    :func:`_unit_scale`: the same span, and no norm past the float range.
    Also whether each basis has full column rank: every column j lies at a
    sine above ``RANK_TOL`` from the span of the columns before it,
    |R_jj| > RANK_TOL ||R e_j||, whatever the scale of each column (a basis
    of more columns than rows has not)."""
    e = np.frexp(np.abs(B).max(axis=(-2, -1), initial=0.0))[1]
    Q, R = np.linalg.qr(np.ldexp(B, -e[..., None, None]))
    m, k = B.shape[-2:]
    d = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
    return Q, k <= m and (d > RANK_TOL * np.linalg.norm(R, axis=-2)).all(axis=-1)


def _angles(Q1: np.ndarray, Q2: np.ndarray) -> np.ndarray:
    """Principal angles between the spans of orthonormal Q1 and Q2, or of
    each Q2 of a stack, ascending: atan2(sin, cos) of each pair of principal
    vectors (Bjorck and Golub, Math. Comp. 27, 1973).  With
    U, cos, V^T = svd(Q1^T Q2), sin is the norm of Q2 v - cos Q1 u, the part
    of a principal vector off the span of Q1, so a small angle keeps its
    digits, where arccos of a cosine that rounds to 1 reads 1.5e-8."""
    U, cos, Vt = np.linalg.svd(Q1.T @ Q2, full_matrices=False)
    off = Q2 @ np.swapaxes(Vt, -1, -2) - (Q1 @ U) * cos[..., None, :]
    return np.arctan2(np.linalg.norm(off, axis=-2), cos)


def principal_angles(B1: np.ndarray, B2: np.ndarray) -> np.ndarray:
    """Principal angles between the column spans of two basis matrices, or
    one row of them per basis of a stack ``B2`` (one stacked QR and SVD),
    each to a few units of rounding at every angle.  ``ValueError`` for a
    basis that is not 2-d (a stack of them for ``B2``), not finite or not
    of full column rank (see :func:`_orthonormal`)."""
    B1, B2 = np.asarray(B1, dtype=float), np.asarray(B2, dtype=float)
    if B1.ndim != 2 or B2.ndim not in (2, 3):
        raise ValueError("bases must be 2-d arrays, or a stack of them for B2")
    if not (np.isfinite(B1).all() and np.isfinite(B2).all()):
        raise ValueError("bases must have finite entries")
    (Q1, full1), (Q2, full2) = _orthonormal(B1), _orthonormal(B2)
    if not (np.all(full1) and np.all(full2)):
        raise ValueError("bases must have full column rank")
    return _angles(Q1, Q2)


def cylinder_split(points, k: int, leaf_ids) -> CylinderSplit:
    """Split ambient samples (point, nullity-image basis) along a constant
    k-dimensional factor.

    All sampled subspaces must coincide up to principal angle ``ANGLE_TOL``;
    otherwise :class:`NotConstant` is raised (the data cannot come from a
    Euclidean cylinder).  ``leaf_ids`` groups samples lying on one leaf.
    The base point x - P x and fiber coordinates Q0^T x of a sample are one
    lone product each on its own array; :class:`InconsistentInput` names the
    first sample where they leave the float range.
    """
    pts = [(np.asarray(x, dtype=float), np.asarray(b, dtype=float)) for x, b in points]
    if not pts:
        raise InconsistentInput("no sample points")
    if any(x.ndim != 1 for x, _ in pts):
        raise InconsistentInput("points must be 1-d arrays")
    m = pts[0][0].shape[0]
    if not isinstance(k, numbers.Integral) or isinstance(k, bool) or not 1 <= k <= m:
        raise InconsistentInput(f"k must be an integer from 1 to {m}, got {k!r}")
    for x, b in pts:
        if x.shape != (m,) or b.shape != (m, k):
            raise InconsistentInput(
                f"expected points in R^{m} with {m}x{k} basis matrices"
            )
    X = np.array([x for x, _ in pts])
    B = np.array([b for _, b in pts])
    bad = np.flatnonzero(~(np.isfinite(X).all(axis=1) & np.isfinite(B).all(axis=(1, 2))))
    if bad.size:
        raise InconsistentInput(f"sample {bad[0]} has a non-finite point or basis entry")
    Q, full = _orthonormal(B)
    bad = np.flatnonzero(~full)
    if bad.size:
        raise InconsistentInput(f"sample {bad[0]} has a basis of rank below k = {k}")
    try:
        leaf_ids = list(leaf_ids)
        groups: dict = {}
        for i, lid in enumerate(leaf_ids):
            groups.setdefault(lid, []).append(i)
    except TypeError:
        raise InconsistentInput("leaf_ids must be an iterable of hashable ids") from None
    if len(leaf_ids) != len(pts):
        raise InconsistentInput("leaf_ids length must match the samples")
    Q0 = Q[0]
    worst = _angles(Q0, Q[1:]).max(axis=1, initial=0.0)
    bad = worst[worst > ANGLE_TOL]
    if bad.size:
        raise NotConstant(f"nullity image varies by principal angle {bad[0]:.3g}")
    P = Q0 @ Q0.T
    with np.errstate(over="ignore", invalid="ignore"):
        base = np.array([x - P @ x for x, _ in pts])
        fiber = np.array([Q0.T @ x for x, _ in pts])
        bad = np.flatnonzero(~(np.isfinite(base).all(axis=1) & np.isfinite(fiber).all(axis=1)))
        if bad.size:
            raise InconsistentInput(
                f"sample {bad[0]} has a base point or fiber coordinates past the float range"
            )
        # the largest |a - b| over pairs of a leaf's base points is its largest
        # column spread max - min, bit for bit: rounding a difference is
        # monotone; inf where a spread leaves the float range
        residual = 0.0
        for members in groups.values():
            b = base[members]
            residual = max(residual, float((b.max(axis=0) - b.min(axis=0)).max(initial=0.0)))
    return CylinderSplit(
        V=Q0,
        base_points=tuple(base),
        fiber_coords=tuple(fiber),
        residual=residual,
    )


@dataclass(frozen=True)
class ConullityVerdict:
    kind: str                    # MustBeTotallyGeodesic | MustBeCylinder | LeafBound
    check_passed: bool
    offending: tuple = ()


def integrable_conullity_classify(c, family: SplittingFamily) -> ConullityVerdict:
    """Trichotomy for complete submanifolds whose conullity is integrable.

    Integrability forces self-adjoint splitting tensors (checked up front,
    :class:`NotIntegrable` otherwise).  c > 0 forces a totally geodesic
    immersion; c = 0 forces a cylinder, which in turn requires the family to
    vanish; c < 0 bounds the leaf shape operators (= the C_{T_i} themselves)
    by sqrt(-c) in eigenvalue, with the slack of the ray clause: a member
    breaks it when an |eigenvalue| would give the ray a singular time.
    """
    c = _curv(c)
    for i, m in enumerate(family.basis):
        if _asymmetry(m) > SYM_TOL:
            raise NotIntegrable(f"family member {i} is not self-adjoint")
    if c > 0.0:
        return ConullityVerdict("MustBeTotallyGeodesic", True)
    if c == 0.0:
        # no reference scale: a member vanishes only when it is exactly zero
        bad = tuple(i for i, m in enumerate(family.basis) if m.any())
        return ConullityVerdict("MustBeCylinder", not bad, bad)
    bad = []
    for i, m in enumerate(family.basis):
        w = np.abs(np.linalg.eigvalsh(_sym(m)))
        if any(_singular_time(c, lam, w, w.max()) is not None for lam in w):
            bad.append(i)
    return ConullityVerdict("LeafBound", not bad, tuple(bad))
