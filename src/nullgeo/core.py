"""Closed-form evolution of the splitting tensor and shape operators along a
geodesic tangent to a totally geodesic nullity distribution, together with
fixed-step Runge-Kutta oracles for the underlying ODEs.

Everything is expressed in a parallel orthonormal frame along the geodesic, so
parallel transport is the identity in coordinates.  All quantities are plain
real matrices; the ambient space form enters only through its curvature
constant ``c``.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "NullityError",
    "SingularJacobi",
    "NullityProfile",
    "SplittingTensor",
    "ShapeOperatorSet",
    "GeodesicDomain",
    "DomainKind",
    "jacobi_tensor",
    "jacobi_derivative",
    "max_invertible_time",
    "splitting_tensor_at",
    "shape_operator_at",
    "riccati_path",
    "shape_ode_path",
    "is_codazzi_compatible",
    "real_eigenvalues",
    "SYM_TOL",
    "REAL_EIG_TOL",
    "INTERVAL_SLACK",
    "RICCATI_BLOWUP",
]

# Tolerances shared across modules (see also classify / theorems).
SYM_TOL = 1e-8           # relative asymmetry threshold
REAL_EIG_TOL = 1e-10     # |Im| <= REAL_EIG_TOL * |lam| (+ rounding) counts as real
INTERVAL_SLACK = 1e-10   # relative closed-interval membership slack
RICCATI_BLOWUP = 1e8     # abort integration once a tensor norm exceeds this
_STAGE_CHUNK = 512       # RK4 steps per block of the oracles: history, guard check, stage C
# RK4 steps one oracle run may take in all: 2000 times the 5e3 of the longest
# run in use (the last time 5 of `checks.sample_grid` at the oracle step 1e-3),
# and about a minute of q = 4 Riccati steps (5.6 us each on a Xeon core)
_RK4_MAX_STEPS = 10**7
_COSH_MAX = math.log(sys.float_info.max)  # cosh(x) < e^x is finite for x up to here


class NullityError(Exception):
    """Base class for errors raised by this package."""


class SingularJacobi(NullityError):
    """Evaluation at or beyond the first singular time of the Jacobi tensor."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NullityProfile:
    """Dimension bookkeeping for a configuration with relative nullity.

    ``n`` intrinsic dimension, ``p`` codimension, ``nu`` index of relative
    nullity, ``q`` index of relative conullity (q = n - nu).
    """

    n: int
    p: int
    nu: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.p < 0:
            raise ValueError("p must be >= 0")
        if not 0 <= self.nu <= self.n:
            raise ValueError("nu must lie in [0, n]")

    @property
    def q(self) -> int:
        return self.n - self.nu


@dataclass(frozen=True)
class SplittingTensor:
    """Endomorphism of the conullity space, generally non-symmetric."""

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", _smat(self.mat))


@dataclass(frozen=True)
class ShapeOperatorSet:
    """Shape operators restricted to the conullity, one per parallel normal
    frame vector.  Entries are expected symmetric for Codazzi data, but the
    container does not enforce it: incompatible inputs propagate asymmetric
    results on purpose (see :func:`shape_operator_at`)."""

    ops: tuple

    def __post_init__(self):
        object.__setattr__(self, "ops", _ops(self.ops))


class DomainKind(str, Enum):
    SEGMENT = "segment"
    RAY = "ray"
    LINE = "line"


@dataclass(frozen=True)
class GeodesicDomain:
    """Parameter domain of the leaf geodesic: [0, b), [0, oo) or (-oo, oo)."""

    kind: DomainKind
    b: float | None = None

    def __post_init__(self):
        if self.kind is DomainKind.SEGMENT:
            if self.b is None or not (0.0 < self.b < math.inf):
                raise ValueError("segment requires 0 < b < inf")
        elif self.b is not None:
            raise ValueError(f"{self.kind.value} takes no endpoint")

    @classmethod
    def segment(cls, b: float) -> "GeodesicDomain":
        return cls(DomainKind.SEGMENT, float(b))

    @classmethod
    def ray(cls) -> "GeodesicDomain":
        return cls(DomainKind.RAY)

    @classmethod
    def line(cls) -> "GeodesicDomain":
        return cls(DomainKind.LINE)


# ---------------------------------------------------------------------------
# coercion helpers
# ---------------------------------------------------------------------------

def _curv(c) -> float:
    try:
        c = float(c)
    except OverflowError:  # an int beyond the float range
        raise ValueError(
            "curvature must be finite, got an integer beyond the float range") from None
    except TypeError:  # None, a complex number, a list
        raise ValueError(f"curvature must be a real number, got {c!r}") from None
    if not math.isfinite(c):
        raise ValueError(f"curvature must be finite, got {c}")
    return c


def _smat(C0) -> np.ndarray:
    if isinstance(C0, SplittingTensor):
        return C0.mat
    m = np.asarray(C0, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"splitting tensor must be square, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("splitting tensor entries must be finite")
    return m


def _squares(ms, what: str) -> tuple:
    """The matrices ``ms`` as float arrays; ValueError naming ``what``
    unless they are square matrices of one shape with finite entries."""
    ms = tuple(np.asarray(m, dtype=float) for m in ms)
    shape = ms[0].shape[:1] * 2 if ms else ()
    if any(m.ndim != 2 or m.shape != shape for m in ms):
        raise ValueError(f"{what} must share one square shape")
    if not all(np.isfinite(m).all() for m in ms):
        raise ValueError(f"{what} must have finite entries")
    return ms


def _ops(A0) -> tuple:
    """The shape operators of ``A0``, a :class:`ShapeOperatorSet` or a
    sequence of square matrices of one shape (a ``(p, q, q)`` array too), as
    float arrays."""
    if isinstance(A0, ShapeOperatorSet):
        return A0.ops
    return _squares(A0, "all shape operators")


def _asymmetry(m: np.ndarray) -> float:
    """max |m - m^T| / max |m|, 0 for a symmetric m, unchanged by scaling m.
    It is taken on m's :func:`_unit_scale`, where m - m^T cannot overflow;
    m - m^T is antisymmetric to the bit, so its largest entry is its modulus."""
    m = _unit_scale(m)[0]
    d = np.maximum.reduce(m - m.T, None, initial=0.0)
    return d / np.maximum.reduce(np.abs(m), None) if d else d


def _unit_scale(m: np.ndarray) -> tuple[np.ndarray, int]:
    """m times the 2**-e that brings its largest entry into [1/2, 1), and e."""
    e = math.frexp(np.maximum.reduce(np.abs(m), None, initial=0.0))[1]
    return np.ldexp(m, -e), e


def _sym(m: np.ndarray) -> np.ndarray:
    """The symmetric part (m + m^T) / 2, taken on m's :func:`_unit_scale`
    and scaled back: it cannot overflow, and it is (m + m^T) / 2 bit for bit
    wherever that does not overflow, subnormal entries included, unless an
    entry lies below 2**-1021 times the largest."""
    u, e = _unit_scale(m)
    return np.ldexp(0.5 * (u + u.T), e)


def _spectrum(M: np.ndarray) -> tuple[np.ndarray, float]:
    """The eigenvalues of M and its spectral radius, taken on M's unit
    scaling (:func:`_unit_scale`) and scaled back: exact, so 2**k M gives
    2**k times both bit for bit, as eigvals of 2**k M does not.
    :class:`NullityError` if an eigenvalue lies past the float range."""
    M, e = _unit_scale(M)
    w = np.linalg.eigvals(M)
    r = np.abs(w).max(initial=0.0)
    try:
        rho = math.ldexp(r, e)
    except OverflowError:
        x = math.log10(r) + e * math.log10(2.0)
        raise NullityError(
            f"an eigenvalue of modulus {10.0 ** (x % 1.0):.2g}e+{int(x)} lies past the float range"
        ) from None
    return np.ldexp(w.view(float), e).view(w.dtype), rho


def _rounding(w: np.ndarray, rho: float) -> float:
    """eigvals' own rounding on a q x q matrix of spectral radius rho, 4 q eps
    rho: the one part of an eigenvalue rule measured against rho."""
    return 4.0 * w.size * np.finfo(float).eps * rho


def _real_parts(w: np.ndarray, rho: float) -> list[float]:
    """Real parts of the ``w`` with |Im| <= REAL_EIG_TOL |lam| + the rounding."""
    tol = _rounding(w, rho)
    return [float(lam.real) for lam in w if abs(lam.imag) <= REAL_EIG_TOL * abs(lam) + tol]


def real_eigenvalues(M: np.ndarray) -> list[float]:
    """Real part of the eigenvalues whose imaginary part is negligible."""
    return _real_parts(*_spectrum(_smat(M)))


# ---------------------------------------------------------------------------
# closed-form evolution
# ---------------------------------------------------------------------------

def _times(ts) -> np.ndarray:
    return np.asarray(ts, dtype=float).reshape(-1)


def _libm(fn, xs: list) -> np.ndarray:
    """``fn`` from ``math`` at each of the floats ``xs``: numpy's vectorised
    cos/sin/cosh/sinh/exp differ from libm in the last bit."""
    return np.fromiter(map(fn, xs), float, len(xs))


def _jacobi(c: float, C0: np.ndarray, ts, derivative: bool = True):
    """Stacks of J(t) = u I - v C0 and J'(t) = du I - dv C0, one per t; J'
    is None without ``derivative``.

    The coefficients take one ``math`` cos and sin (cosh and sinh for c < 0)
    per time, so each time gets the bits of a grid of that time alone, with
    or without J'.  For c < 0, ``math.cosh`` raises OverflowError where
    cosh(a|t|) is not representable.  :func:`_factors` takes J and J' from
    here where a|t| < 1, and :func:`_det` J alone where
    1 <= a|t| <= ln(DBL_MAX).
    """
    # no J' where det J reads J alone: a c < 0, q = 32 grid in 74 ms, not 77
    ts = _times(ts)
    eye = np.eye(C0.shape[0])
    if c == 0.0:
        # u = dv = 1, v = t, du = 0: 1 I and 1 C0 are exact, 0 I is +0
        J = eye - ts[:, None, None] * C0
        return J, (np.zeros((ts.size, 1, 1)) - C0 if derivative else None)
    a = math.sqrt(abs(c))
    cos, sin, k = (math.cos, math.sin, -a) if c > 0.0 else (math.cosh, math.sinh, a)
    at = (a * ts).tolist()
    co, si = (_libm(f, at)[:, None, None] for f in (cos, sin))
    return co * eye - (si / a) * C0, ((k * si) * eye - co * C0 if derivative else None)


def _jacobi_at(c, C0, t: float) -> list[np.ndarray]:
    try:
        return [x[0] for x in _jacobi(_curv(c), _smat(C0), [t])]
    except OverflowError:  # c < 0 and cosh(a|t|) past the float range
        raise NullityError(f"Jacobi tensor overflows the float range at t={t}") from None


def jacobi_tensor(c, C0, t: float) -> np.ndarray:
    """Jacobi tensor J(t) solving J'' + c J = 0, J(0) = I, J'(0) = -C0.

    For c = 1, 0, -1 this is the textbook trigonometric / affine / hyperbolic
    solution; arbitrary real c is handled by sqrt(|c|) scaling of those three
    branches.  Past the float range it raises :class:`NullityError`.
    """
    return _jacobi_at(c, C0, t)[0]


def jacobi_derivative(c, C0, t: float) -> np.ndarray:
    """Exact t-derivative of :func:`jacobi_tensor`, with the same error."""
    return _jacobi_at(c, C0, t)[1]


def _singular_time(c: float, lam: float, w: np.ndarray, rho: float) -> float | None:
    """The first t > 0 at which the factor u(t) - v(t) lam of det J vanishes,
    lam a real eigenvalue of the spectrum ``(w, rho)`` of C0, or None where
    none does.  One does for c > 0 always; for c < 0 when
    lam > a (1 + INTERVAL_SLACK), a = sqrt(|c|); for c = 0 when lam exceeds
    the rounding :func:`_rounding`, below which it is 0.  The horizon, the
    clauses and the leaf bound all ask this.  A root past the float range is
    inf, which is not None: J is singular there all the same."""
    a = math.sqrt(abs(c))
    if not (c > 0.0 or lam > (a * (1.0 + INTERVAL_SLACK) if c < 0.0 else _rounding(w, rho))):
        return None
    if c == 0.0 or 0.0 < lam and a / lam < sys.float_info.min:
        # J = 1 - t lam at c = 0; below the normal range a / lam loses its
        # digits, but atan and atanh are the identity there: 1 / lam too
        return 1.0 / lam
    if c > 0.0:
        # cot(a t) = lam / a, first root in (0, pi/a]; atan2 keeps the digits
        # of a / lam that pi/2 - atan(lam / a) cancels where lam >> a
        return math.atan2(a, lam) / a
    # coth(a t) = lam / a; atanh keeps a / lam where (lam + a) / (lam - a)
    # would round to 1
    return math.atanh(a / lam) / a


def max_invertible_time(c, C0) -> float:
    """First positive time at which det J vanishes (inf if it never does).

    Only real eigenvalues of ``C0`` can produce a singular time: the scalar
    factor attached to a complex eigenvalue has real and imaginary parts that
    cannot vanish simultaneously, and :func:`_singular_time` gives the root
    of each real one.
    """
    c = _curv(c)
    w, rho = _spectrum(_smat(C0))
    roots = (_singular_time(c, lam, w, rho) for lam in _real_parts(w, rho))
    return min((t for t in roots if t is not None), default=math.inf)


def _factors(c: float, C0: np.ndarray, ts):
    """Stacks P, Q and scales r with J = P / r and J' = Q / r on the grid
    ``ts``: (J, J') itself with r = 1, or (M, N) with r = 2 e^{-a|t|} < 1 on
    the scaled branch.

    The grid functions of one (c, C0) share this one stack of factors.
    :func:`_evaluate_grid` gives det J, C = -J' J^{-1} and A = A0 J^{-1}
    from it, with one stacked LAPACK call per quantity: a solve for C, an
    inverse for A and a det (slogdet past ln(DBL_MAX)) for det J.  The
    scalar coefficients come from ``math`` one time at a time, and every
    stacked call works matrix by matrix, so every grid gives the same bits
    for a time as the grid of that time alone.

    For c < 0 and a|t| >= 1, a = sqrt(-c), the factors come from the scaled
    form J(t) = (e^{a|t|}/2) M and J'(t) = (e^{a|t|}/2) N with

        M = (I -+ C0 / a) + eps (I +- C0 / a),
        N = +-a ((I -+ C0 / a) - eps (I +- C0 / a)),    eps = e^{-2 a |t|},

    the sign following sign(t).  cosh - sinh cancels catastrophically for
    eigenvalues near +-a at large |t|; this grouping does not, not even on
    the fixed point C0 = a I, where 1 +- eps rounds to 1.  For small a|t|
    it cancels instead (eps against the C0/a terms), so there J = u I - v C0
    is used as it stands.  On the fixed point, C(t) stays a I to an ulp (for
    a a power of two) until M = 2 eps I underflows, from about t = 355.24
    for a = 1, and C0 = a diag(1 + delta) keeps C(t) within a few ulps of a
    of its closed form however small delta is.

    Grids are not checked against the singular times, which only
    :func:`max_invertible_time` computes (see :func:`_before_horizon`);
    where J(t) cannot be inverted, :func:`_guarded` raises.
    """
    ts = _times(ts)
    far = (math.sqrt(-c) if c < 0.0 else 0.0) * np.abs(ts) >= 1.0
    n_far = np.count_nonzero(far)
    # a grid on one branch takes no mask copies: c < 0, q = 32 in 74 ms, not 86
    if n_far == 0:
        return (*_jacobi(c, C0, ts), np.ones(ts.size))
    if n_far == ts.size:
        return _scaled(c, C0, ts)
    k, q = ts.size, C0.shape[0]
    P, Q, r = np.empty((k, q, q)), np.empty((k, q, q)), np.ones(k)
    near = ~far
    P[near], Q[near] = _jacobi(c, C0, ts[near])
    P[far], Q[far], r[far] = _scaled(c, C0, ts[far])
    return P, Q, r


def _scaled(c: float, C0: np.ndarray, ts: np.ndarray):
    """:func:`_factors` on the scaled branch, c < 0 and a|t| >= 1."""
    a, at = math.sqrt(-c), np.abs(ts)
    sgn = np.copysign(1.0, ts)[:, None, None]
    eps = _libm(math.exp, (-2.0 * a * at).tolist())[:, None, None]
    sC = (sgn / a) * C0
    eye = np.eye(C0.shape[0])
    D, S = eye - sC, eye + sC
    M = D + eps * S
    N = (sgn * a) * (D - eps * S)
    return M, N, 2.0 * _libm(math.exp, (-a * at).tolist())


def _splitting(P, Q) -> np.ndarray:
    # -J' J^{-1} via a solve on the transposed systems
    return -np.linalg.solve(P.transpose(0, 2, 1), Q.transpose(0, 2, 1)).transpose(0, 2, 1)


def _inverse(P, r) -> np.ndarray:
    return r[:, None, None] * np.linalg.inv(P)


def _shape(ops, Jinv, ts) -> list[np.ndarray]:
    # (J^{-T} A0^T)^T on transposed views: BLAS rounds a C-ordered
    # operand differently at large q, and the golden outputs were made
    # with this layout
    Jinv_T = Jinv.transpose(0, 2, 1)
    with np.errstate(all="ignore"):
        A = [np.matmul(Jinv_T, a.T).transpose(0, 2, 1) for a in ops]
    finite = np.logical_and.reduce([np.isfinite(X).all(axis=(1, 2)) for X in A], initial=True)
    if not finite.all():
        raise NullityError(f"A(t) leaves the float range at t={_times(ts)[finite.argmin()]}")
    return A


def _det(c: float, C0: np.ndarray, ts: np.ndarray, P: np.ndarray, r: np.ndarray) -> np.ndarray:
    """det J(t) for each t, given the factors ``P``, ``r`` of ``ts``.

    det(u I - v C0) for a|t| up to ln(DBL_MAX), where cosh(a|t|) is
    surely representable: ``P`` itself where r = 1, J built again (without
    J') on the scaled rows.  Beyond that, sign(det M) exp(q (a|t| - ln 2)
    + log|det M|) from ``P = M``, which is inf where it exceeds the float
    range.
    """
    a = math.sqrt(-c) if c < 0.0 else 0.0
    unit = r == 1.0
    out = np.empty(ts.size)
    over = a * np.abs(ts) > _COSH_MAX
    mid = ~(unit | over)
    with np.errstate(over="ignore"):  # inf is the honest value
        if unit.any():
            out[unit] = np.linalg.det(P[unit])
        if mid.any():
            out[mid] = np.linalg.det(_jacobi(c, C0, ts[mid], derivative=False)[0])
    if over.any():
        sign, logdet = np.linalg.slogdet(P[over])
        x = C0.shape[0] * (a * np.abs(ts[over]) - math.log(2.0)) + logdet
        out[over] = sign * _libm(_exp_or_inf, x.tolist())
    return out


def _evaluate_grid(c: float, C0: np.ndarray, ops, ts):
    """det J(t), C(t) and A_xi(t) = A_xi(0) J(t)^{-1} for each t, stacked
    over the grid, from one stack of factors."""
    ts = _times(ts)
    P, Q, r = _factors(c, C0, ts)
    C = _guarded(_splitting, ts, P, Q)
    return _det(c, C0, ts, P, r), C, _shape(ops, _guarded(_inverse, ts, P, r), ts)


def _splitting_grid(c: float, C0: np.ndarray, ts) -> np.ndarray:
    """C(t) for each t, stacked."""
    P, Q, _ = _factors(c, C0, ts)
    return _guarded(_splitting, ts, P, Q)


def _shape_grid(c: float, C0: np.ndarray, ops, ts) -> list[np.ndarray]:
    """A_xi(t) = A_xi(0) J(t)^{-1} for each shape operator, each stacked
    over the grid."""
    P, _, r = _factors(c, C0, ts)
    return _shape(ops, _guarded(_inverse, ts, P, r), ts)


def _guarded(fn, ts, *stacks) -> np.ndarray:
    """``fn(*stacks)``, C or J^{-1} on the grid ``ts`` from its factors, unless
    a factor is singular or a result not finite, as at a singular time that
    the caller did not check, or where M = 2 eps I underflows on the fixed
    point C0 = a I of c = -a^2.  Then the first such t raises NullityError."""
    try:
        X = fn(*stacks)
        if np.isfinite(X).all():
            return X
    except np.linalg.LinAlgError:
        pass
    for k, t in enumerate(_times(ts).tolist()):
        try:
            if not np.isfinite(fn(*(x[k:k + 1] for x in stacks))).all():
                break
        except np.linalg.LinAlgError:
            break
    raise NullityError(f"J(t) cannot be inverted at t={t}")


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _before_horizon(c: float, C0: np.ndarray, t: float) -> None:
    """Raise :class:`SingularJacobi` if t != 0 reaches the first singular
    time of its direction, that of C0 for t > 0 and of -C0 for t < 0."""
    if t != 0.0 and abs(t) >= max_invertible_time(c, C0 if t > 0 else -C0):
        raise SingularJacobi(f"Jacobi tensor singular before t={t}")


def splitting_tensor_at(c, C0, t: float) -> SplittingTensor:
    """Splitting tensor C(t) = -J'(t) J(t)^{-1} along the geodesic.

    Raises :class:`SingularJacobi` for t at or beyond the first singular time
    of J.  At t = 0, J = I and the result is ``C0`` exactly.
    """
    c, C0 = _curv(c), _smat(C0)
    _before_horizon(c, C0, t)
    return SplittingTensor(_splitting_grid(c, C0, [t])[0])


def shape_operator_at(A0, c, C0, t: float) -> ShapeOperatorSet:
    """Shape operators A(t) = A(0) J(t)^{-1} in the parallel frame.

    Symmetry of the result is only guaranteed when ``A0`` is Codazzi
    compatible with ``C0``; the caller is responsible for checking
    :func:`is_codazzi_compatible` when that matters.  At t = 0 the result is
    ``A0`` exactly.
    """
    ops, c, C0 = _ops(A0), _curv(c), _smat(C0)
    _before_horizon(c, C0, t)
    return ShapeOperatorSet(tuple(A[0] for A in _shape_grid(c, C0, ops, [t])))


# ---------------------------------------------------------------------------
# RK4 oracles
# ---------------------------------------------------------------------------

def _rk4_segments(times, step: float):
    """For each record time: the start ``t``, number ``n`` and size ``h`` of
    the equal steps, none longer than ``step``, that reach it from the
    previous record time (from 0 for the first).  ``n`` is 0 for a repeated
    record time.  ValueError for a step that is not positive, for times that
    are not sorted and nonnegative, for a span that would take a non-finite
    number of steps, and once the steps so far exceed ``_RK4_MAX_STEPS``."""
    if not step > 0.0:  # false for nan
        raise ValueError(f"step must be positive, got {step}")
    t, total = 0.0, 0
    for tk in times:
        if not tk >= t:  # false for nan
            raise ValueError("record times must be sorted and nonnegative")
        span = tk - t
        steps = span / step
        if not math.isfinite(steps):
            raise ValueError(f"step {step} takes a non-finite number of steps to t={tk}")
        n = max(1, math.ceil(steps - 1e-12)) if span > 0.0 else 0
        total += n
        if total > _RK4_MAX_STEPS:
            raise ValueError(f"step {step} takes more than {_RK4_MAX_STEPS} steps to t={tk}")
        yield t, n, (span / n if n else 0.0)
        t = tk


def _rk4_run(times, step: float, Y: np.ndarray, advance) -> list[np.ndarray]:
    """The state at each record time of an RK4 run from ``Y``: the driver of
    all three steppers.

    The :func:`_rk4_segments` of the run are checked before any step, and
    each segment is taken in blocks of at most ``_STAGE_CHUNK`` steps of its
    size ``h``.  ``H`` is the history of a block: ``H[0]`` holds the state at
    its start, and ``advance(H, t0, h)`` takes the block's steps from the
    starts ``t0``, writing the state after the ``i``-th into ``H[i]``.  The
    starts are ``t += h`` from the start of the segment (``np.add.accumulate``
    adds in order), so ``t0 + h`` is the integrator's time at the end of a
    step bit for bit.  The blow-up guard is one :func:`_guard` per block.
    The steps past a trip are discarded, so they must not warn: the numpy
    steppers take them under ``np.errstate(all="ignore")``, and float
    arithmetic never warns.
    """
    seg = list(_rk4_segments(times, step))
    H = np.empty((min(_STAGE_CHUNK, max((n for _, n, _ in seg), default=0)) + 1, *Y.shape))
    H[0] = Y
    out = []
    for t, n, h in seg:
        while n:
            m = min(n, _STAGE_CHUNK)
            ts = np.add.accumulate([t, *[h] * m])
            advance(H, ts[:-1], h)
            _guard(H[1:m + 1], ts[1:])
            H[0] = H[m]
            t, n = ts[-1], n - m
        out.append(H[0].copy())
    return out


def _guard(B: np.ndarray, t_end: np.ndarray) -> None:
    """Raise :class:`SingularJacobi` if an entry of the history ``B`` of
    consecutive steps, which end at the times ``t_end``, reached
    ``RICCATI_BLOWUP`` in magnitude or is NaN, for the first such step: the
    guard of all three steppers.  ``max`` and ``min`` are exact, a NaN fails
    both comparisons, and the empty history of q = 0 passes."""
    if B.max(initial=0.0) < RICCATI_BLOWUP and -RICCATI_BLOWUP < B.min(initial=0.0):
        return
    m = np.abs(B.reshape(len(B), -1)).max(axis=1)
    i = np.flatnonzero(~(m < RICCATI_BLOWUP))[0]
    raise SingularJacobi(f"trajectory norm {m[i]:.3g} exceeded blow-up guard near t={t_end[i]:.6g}")


def riccati_path(c, C0, times, step: float = 1e-3) -> list[np.ndarray]:
    """RK4 integration of the Riccati equation C' = C^2 + c I, recorded at
    the given times.  Independent oracle for :func:`splitting_tensor_at`.
    Raises :class:`SingularJacobi` once an entry of C reaches
    ``RICCATI_BLOWUP``.

    The step arithmetic is the textbook

        k1 = f(y),  k2 = f(y + (h/2) k1),  k3 = f(y + (h/2) k2),
        k4 = f(y + h k3),  y <- y + (h/6) (k1 + 2 k2 + 2 k3 + k4),

    term by term in this order: the bits of ``rk4_path`` of
    ``tests/conftest.py``.  For q >= 2 the terms are written into buffers
    held across steps, with ``ndarray.dot`` and 0-d step factors, the new
    state into the next row of the history of :func:`_rk4_run`.  Two
    premises keep those bits with fewer calls:

    - k1 + 2 k2 + 2 k3 + k4 is one dgemv of the weights (1, 2, 2, 1) with
      the ``(4, q^2)`` view of the k buffer.  OpenBLAS's dgemv sums the four
      rows in order (for 4 or more columns), and products by 1 and 2 are
      exact, so each add rounds as the textbook's does.
    - At c = 0 the four adds of c I are skipped.  c I is then all +0.0 or
      all -0.0, and x + (+-0.0) == x for every x but -0.0, which no product
      gives: dgemm's accumulator starts at +0.0.

    For q = 1 the scalar ODE y' = y^2 + c steps on Python floats
    (:func:`_scalar_advance`), as a 1x1 product is the plain product.
    """
    c, Y = _curv(c), _smat(C0)
    if Y.shape[0] == 1:
        return _rk4_run(times, step, Y, _scalar_advance(c))
    ce, u = c * np.eye(len(Y)), np.empty_like(Y)
    k1, k2, k3, k4 = ks = np.empty((4, *Y.shape))
    K, w, s = ks.reshape(4, -1), np.array([1.0, 2.0, 2.0, 1.0]), np.empty(Y.size)
    S = s.reshape(Y.shape)
    add, mul, mm = np.add, np.multiply, np.ndarray.dot

    def advance(H: np.ndarray, t0: np.ndarray, h: float) -> None:
        h1, h2, h6 = np.array(h), np.array(0.5 * h), np.array(h / 6.0)
        rows = list(H[:t0.size + 1])
        with np.errstate(all="ignore"):
            for y, nxt in zip(rows, rows[1:]):
                mm(y, y, k1)
                if c:
                    add(k1, ce, k1)
                mul(k1, h2, u)
                add(y, u, u)
                mm(u, u, k2)
                if c:
                    add(k2, ce, k2)
                mul(k2, h2, u)
                add(y, u, u)
                mm(u, u, k3)
                if c:
                    add(k3, ce, k3)
                mul(k3, h1, u)
                add(y, u, u)
                mm(u, u, k4)
                if c:
                    add(k4, ce, k4)
                mm(w, K, s)
                mul(S, h6, S)
                add(y, S, nxt)

    return _rk4_run(times, step, Y, advance)


def _scalar_advance(c: float):
    """The stepper of :func:`riccati_path` for a ``(1, 1)`` case: the same
    textbook RK4 arithmetic on Python floats, every state of a block written
    into the history.  Past a trip, float arithmetic goes on to inf and NaN
    without raising or warning, and :func:`_guard` judges the history as it
    does for the numpy steppers."""

    def advance(H: np.ndarray, t0: np.ndarray, h: float) -> None:
        H = H.reshape(-1)
        y, h = float(H[0]), float(h)
        h2, h6 = 0.5 * h, h / 6.0
        ys = []
        for _ in range(t0.size):
            k1 = y * y + c
            u = y + h2 * k1
            k2 = u * u + c
            u = y + h2 * k2
            k3 = u * u + c
            u = y + h * k3
            k4 = u * u + c
            y = y + h6 * (((k1 + (k2 + k2)) + (k3 + k3)) + k4)
            ys.append(y)
        H[1:t0.size + 1] = ys

    return advance


def shape_ode_path(A0, c, C0, times, step: float = 1e-3) -> list[ShapeOperatorSet]:
    """RK4 integration of A' = A C(t), with C(t) taken from the closed form.

    Oracle for :func:`shape_operator_at`; the two sides share only the
    splitting tensor, not the shape evolution itself.  The equation is
    linear in A, so one classic RK4 step of size h from t is exactly
    A <- A R with

        K1 = C(t),  K2 = C(t + h/2) + (h/2) K1 C(t + h/2),
        K3 = C(t + h/2) + (h/2) K2 C(t + h/2),  K4 = C(t + h) + h K3 C(t + h),
        R = I + (h/6) (K1 + 2 K2 + 2 K3 + K4).

    R groups the products otherwise than the textbook RK4, so the records
    match ``tests/conftest.py::rk4_path`` to rounding only.  A block of
    steps takes its R from one :func:`_splitting_grid` call at every start,
    midpoint and end, the end of each step but the last being the start of
    the next.  Each operator then steps its own ``(q, q)`` rows, one
    ``ndarray.dot`` per step, so each operator gets the bits of its lone
    run; the blow-up guard is that of :func:`riccati_path`.
    """
    ops, c, C0 = _ops(A0), _curv(c), _smat(C0)
    if not ops:
        list(_rk4_segments(times, step))  # raises on a bad step or bad times
        return [ShapeOperatorSet(()) for _ in times]
    eye = np.eye(len(C0))

    def advance(H: np.ndarray, t0: np.ndarray, h: float) -> None:
        h2 = 0.5 * h
        with np.errstate(all="ignore"):
            grid = np.empty(2 * t0.size + 1)
            grid[:-1:2] = t0
            grid[1::2] = t0 + h2
            grid[-1] = t0[-1] + h
            C = _splitting_grid(c, C0, grid)
            C1, C2, C4 = C[:-1:2], C[1::2], C[2::2]
            K2 = C2 + h2 * (C1 @ C2)
            K3 = C2 + h2 * (K2 @ C2)
            K4 = C4 + h * (K3 @ C4)
            R = eye + (h / 6.0) * (C1 + 2.0 * K2 + 2.0 * K3 + K4)
            for i in range(len(ops)):
                rows = list(H[:t0.size + 1, i])
                for Y, Ri, nxt in zip(rows, R, rows[1:]):
                    Y.dot(Ri, nxt)

    return [ShapeOperatorSet(tuple(A)) for A in _rk4_run(times, step, np.stack(ops), advance)]


# ---------------------------------------------------------------------------
# compatibility and convenience
# ---------------------------------------------------------------------------

def is_codazzi_compatible(A0, C0) -> bool:
    """Whether every A_xi * C0^k is symmetric for k = 0, ..., q-1.

    By Cayley-Hamilton this is equivalent to symmetry of A_xi J(t)^{-1} for
    all t, i.e. the pair can arise as Codazzi data of an actual immersion.
    Neither this nor :func:`_asymmetry` changes when A0 or C0 is scaled, so
    C0, A_xi and each product multiplied again are scaled by a power of two
    to a largest entry in [1/2, 1): exact, and every product stays in range.
    """
    C0 = _unit_scale(_smat(C0))[0]
    q = C0.shape[0]
    for m in _ops(A0):
        m = _unit_scale(m)[0]
        for k in range(1, q + 1):
            if not _asymmetry(m) <= SYM_TOL:
                return False
            if k < q:
                m = m @ C0 if k + 1 == q else _unit_scale(m @ C0)[0]
    return True
