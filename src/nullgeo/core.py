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
REAL_EIG_TOL = 1e-10     # |Im| <= REAL_EIG_TOL * (1 + |lam|) counts as real
INTERVAL_SLACK = 1e-10   # closed-interval membership slack
RICCATI_BLOWUP = 1e8     # abort integration once a tensor norm exceeds this
_STAGE_CHUNK = 512       # RK4 steps per batched evaluation of C in the shape oracle
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
        m = np.asarray(self.mat, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"splitting tensor must be square, got {m.shape}")
        object.__setattr__(self, "mat", m)

    @property
    def q(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class ShapeOperatorSet:
    """Shape operators restricted to the conullity, one per parallel normal
    frame vector.  Entries are expected symmetric for Codazzi data, but the
    container does not enforce it: incompatible inputs propagate asymmetric
    results on purpose (see :func:`shape_operator_at`)."""

    ops: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(a, dtype=float) for a in self.ops)
        if ops:
            q = ops[0].shape[0]
            for a in ops:
                if a.shape != (q, q):
                    raise ValueError("all shape operators must share one square shape")
        object.__setattr__(self, "ops", ops)

    @property
    def p(self) -> int:
        return len(self.ops)

    @property
    def q(self) -> int:
        return self.ops[0].shape[0] if self.ops else 0

    def asymmetry(self) -> float:
        """Largest :func:`_asymmetry` over the operators."""
        return max((_asymmetry(a) for a in self.ops), default=0.0)


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
    c = float(c)
    if not math.isfinite(c):
        raise ValueError(f"curvature must be finite, got {c}")
    return c


def _smat(C0) -> np.ndarray:
    if isinstance(C0, SplittingTensor):
        return C0.mat
    m = np.asarray(C0, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"splitting tensor must be square, got {m.shape}")
    return m


def _sset(A0) -> ShapeOperatorSet:
    if isinstance(A0, ShapeOperatorSet):
        return A0
    return ShapeOperatorSet(tuple(A0))


def _asymmetry(m: np.ndarray) -> float:
    """max |m - m^T| relative to 1 + max |m|: 0 for a symmetric matrix."""
    return np.abs(m - m.T).max(initial=0.0) / (1.0 + np.abs(m).max(initial=0.0))


def real_eigenvalues(M: np.ndarray) -> list[float]:
    """Real part of the eigenvalues whose imaginary part is negligible."""
    out = []
    for lam in np.linalg.eigvals(np.asarray(M, dtype=float)):
        if abs(lam.imag) <= REAL_EIG_TOL * (1.0 + abs(lam)):
            out.append(float(lam.real))
    return out


# ---------------------------------------------------------------------------
# closed-form evolution
# ---------------------------------------------------------------------------

def _jacobi(c: float, C0: np.ndarray, ts) -> tuple[np.ndarray, np.ndarray]:
    """Stacks of J(t) = u I - v C0 and J'(t) = du I - dv C0, one per t.

    The coefficients come from ``math`` one time at a time, with one call of
    cos and sin (cosh and sinh for c < 0) per time: numpy's vectorised
    cosh/sinh/exp differ from libm in the last bit.  For c < 0,
    ``math.cosh`` raises OverflowError where cosh(a|t|) is not representable.
    """
    if c == 0.0:
        coef = [(1.0, t, 0.0, 1.0) for t in ts]
    else:
        a = math.sqrt(abs(c))
        cos, sin, k = (math.cos, math.sin, -a) if c > 0.0 else (math.cosh, math.sinh, a)
        coef = [(co, si / a, k * si, co) for co, si in ((cos(a * t), sin(a * t)) for t in ts)]
    u, v, du, dv = np.array(coef).reshape(-1, 4).T[:, :, None, None]
    eye = np.eye(C0.shape[0])
    return u * eye - v * C0, du * eye - dv * C0


def jacobi_tensor(c, C0, t: float) -> np.ndarray:
    """Jacobi tensor J(t) solving J'' + c J = 0, J(0) = I, J'(0) = -C0.

    For c = 1, 0, -1 this is the textbook trigonometric / affine / hyperbolic
    solution; arbitrary real c is handled by sqrt(|c|) scaling of those three
    branches.
    """
    J, _ = _jacobi(_curv(c), _smat(C0), [t])
    return J[0]


def jacobi_derivative(c, C0, t: float) -> np.ndarray:
    """Exact t-derivative of :func:`jacobi_tensor`."""
    _, dJ = _jacobi(_curv(c), _smat(C0), [t])
    return dJ[0]


def max_invertible_time(c, C0) -> float:
    """First positive time at which det J vanishes (inf if it never does).

    Only real eigenvalues of ``C0`` can produce a singular time: the scalar
    factor attached to a complex eigenvalue has real and imaginary parts that
    cannot vanish simultaneously.
    """
    c = _curv(c)
    C0 = _smat(C0)
    reals = real_eigenvalues(C0)
    roots = []
    if c > 0.0:
        a = math.sqrt(c)
        for lam in reals:
            # first positive root of cot(a t) = lam / a, always in (0, pi/a]
            roots.append((math.pi / 2.0 - math.atan(lam / a)) / a)
    elif c < 0.0:
        a = math.sqrt(-c)
        for lam in reals:
            # an eigenvalue within the slack of a is a, which never makes J
            # singular; the same cut as the ray clause in classify
            if lam > a + INTERVAL_SLACK:
                x = lam / a
                roots.append(0.5 * math.log((x + 1.0) / (x - 1.0)) / a)
    else:
        for lam in reals:
            if lam > 0.0:
                roots.append(1.0 / lam)
    return min(roots, default=math.inf)


class _Evolution:
    """J, C = -J' J^{-1}, A = A0 J^{-1} and det J of one (c, C0) on a whole
    time grid.

    Built once per (c, C0): the first singular time in each direction is
    computed on first use and kept.  A grid costs one stacked LAPACK call per
    quantity.  The scalar coefficients come from ``math`` one time at a time,
    so every grid gives the same bits for a time as the grid of that time
    alone.

    For c < 0 and a|t| >= 1 the factors come from the scaled form
    J(t) = (e^{a|t|}/2) M and J'(t) = (e^{a|t|}/2) N with

        M = (1 + eps) I -+ (1 - eps) C0 / a,
        N = +-a (1 - eps) I - (1 + eps) C0,    eps = e^{-2 a |t|},

    the sign following sign(t).  cosh - sinh cancels catastrophically for
    eigenvalues near +-a at large |t|; this grouping does not.  For small
    a|t| the grouping cancels instead (1 - eps against the C0/a terms), so
    there J = u I - v C0 is used as it stands.

    Grids are not checked against the singular times; callers that must not
    reach them call :meth:`check` first.
    """

    def __init__(self, c: float, C0: np.ndarray):
        self.c = c
        self.C0 = C0
        self.eye = np.eye(C0.shape[0])
        self.a = math.sqrt(-c) if c < 0.0 else 0.0
        self._horizon: dict[bool, float] = {}

    def horizon(self, forward: bool = True) -> float:
        """First singular time |t| for t > 0 (``forward``) or for t < 0."""
        if forward not in self._horizon:
            self._horizon[forward] = max_invertible_time(
                self.c, self.C0 if forward else -self.C0
            )
        return self._horizon[forward]

    def check(self, ts) -> None:
        """Raise :class:`SingularJacobi` for the first t at or beyond the
        singular time of its direction."""
        for t in ts:
            if t != 0.0 and abs(t) >= self.horizon(t > 0):
                raise SingularJacobi(f"Jacobi tensor singular before t={t}")

    def _factors(self, ts):
        """Stacks P, Q and scales r with J = P / r and J' = Q / r: (J, J')
        itself with r = 1, or (M, N) with r = 2 e^{-a|t|} on the scaled
        branch."""
        ts = [float(t) for t in ts]
        far = [i for i, t in enumerate(ts) if self.a * abs(t) >= 1.0]  # a = 0 for c >= 0
        if not far:
            return (*_jacobi(self.c, self.C0, ts), np.ones(len(ts)))
        if len(far) == len(ts):
            return self._scaled(ts)
        near = [i for i, t in enumerate(ts) if not self.a * abs(t) >= 1.0]
        k, q = len(ts), self.eye.shape[0]
        P, Q, r = np.empty((k, q, q)), np.empty((k, q, q)), np.ones(k)
        P[near], Q[near] = _jacobi(self.c, self.C0, [ts[i] for i in near])
        P[far], Q[far], r[far] = self._scaled([ts[i] for i in far])
        return P, Q, r

    def _scaled(self, ts: list[float]):
        """:meth:`_factors` on the scaled branch, a|t| >= 1."""
        a = self.a
        sgn = np.array([math.copysign(1.0, t) for t in ts])[:, None, None]
        eps = np.array([math.exp(-2.0 * a * abs(t)) for t in ts])[:, None, None]
        lo = self.eye - (sgn / a) * self.C0
        hi = self.eye + (sgn / a) * self.C0
        M = lo + eps * hi
        N = sgn * a * (self.eye - eps * self.eye) - (1.0 + eps) * self.C0
        return M, N, np.array([2.0 * math.exp(-a * abs(t)) for t in ts])

    @staticmethod
    def _splitting(P, Q) -> np.ndarray:
        # -J' J^{-1} via a solve on the transposed systems
        return -np.linalg.solve(P.transpose(0, 2, 1), Q.transpose(0, 2, 1)).transpose(0, 2, 1)

    @staticmethod
    def _inverse(P, r) -> np.ndarray:
        return r[:, None, None] * np.linalg.inv(P)

    @staticmethod
    def _shape(ops, Jinv) -> list[np.ndarray]:
        # (J^{-T} A0^T)^T on transposed views: BLAS rounds a C-ordered
        # operand differently at large q, and the golden outputs were made
        # with this layout
        Jinv_T = Jinv.transpose(0, 2, 1)
        return [np.matmul(Jinv_T, a.T).transpose(0, 2, 1) for a in ops]

    def splitting(self, ts) -> np.ndarray:
        """C(t) for each t, stacked."""
        P, Q, _ = self._factors(ts)
        return self._splitting(P, Q)

    def inverse(self, ts) -> np.ndarray:
        """J(t)^{-1} for each t, stacked."""
        P, _, r = self._factors(ts)
        return self._inverse(P, r)

    def shape(self, ops, ts) -> list[np.ndarray]:
        """A_xi(t) = A_xi(0) J(t)^{-1} for each shape operator, each stacked
        over the grid."""
        return self._shape(ops, self.inverse(ts))

    def splitting_and_shape(self, ops, ts) -> tuple[np.ndarray, list[np.ndarray]]:
        """:meth:`splitting` and :meth:`shape` on one grid, from one stack of
        factors."""
        P, Q, r = self._factors(ts)
        return self._splitting(P, Q), self._shape(ops, self._inverse(P, r))

    def det(self, ts) -> np.ndarray:
        """det J(t) for each t.

        det(u I - v C0) for a|t| up to ln(DBL_MAX), where cosh(a|t|) is
        surely representable.  Beyond that, sign(det M) exp(q (a|t| - ln 2) +
        log|det M|) from the scaled form, which is inf where it exceeds the
        float range.
        """
        ts = [float(t) for t in ts]
        out = np.empty(len(ts))
        over = [i for i, t in enumerate(ts) if self.a * abs(t) > _COSH_MAX]
        fits = [i for i, t in enumerate(ts) if not self.a * abs(t) > _COSH_MAX]
        if fits:
            J, _ = _jacobi(self.c, self.C0, [ts[i] for i in fits])
            with np.errstate(over="ignore"):  # inf is the honest value
                out[fits] = np.linalg.det(J)
        if over:
            M, _, _ = self._scaled([ts[i] for i in over])
            sign, logdet = np.linalg.slogdet(M)
            q = self.eye.shape[0]
            for i, s, ld in zip(over, sign, logdet):
                x = q * (self.a * abs(ts[i]) - math.log(2.0)) + ld
                try:
                    out[i] = s * math.exp(x)
                except OverflowError:
                    out[i] = s * math.inf
        return out


def splitting_tensor_at(c, C0, t: float) -> SplittingTensor:
    """Splitting tensor C(t) = -J'(t) J(t)^{-1} along the geodesic.

    Raises :class:`SingularJacobi` for t at or beyond the first singular time
    of J.  At t = 0, J = I and the result is ``C0`` exactly.
    """
    ev = _Evolution(_curv(c), _smat(C0))
    ev.check([t])
    return SplittingTensor(ev.splitting([t])[0])


def shape_operator_at(A0, c, C0, t: float) -> ShapeOperatorSet:
    """Shape operators A(t) = A(0) J(t)^{-1} in the parallel frame.

    Symmetry of the result is only guaranteed when ``A0`` is Codazzi
    compatible with ``C0``; the caller is responsible for checking
    :func:`is_codazzi_compatible` when that matters.  At t = 0 the result is
    ``A0`` exactly.
    """
    A0 = _sset(A0)
    ev = _Evolution(_curv(c), _smat(C0))
    ev.check([t])
    return ShapeOperatorSet(tuple(A[0] for A in ev.shape(A0.ops, [t])))


# ---------------------------------------------------------------------------
# RK4 oracles
# ---------------------------------------------------------------------------

def _rk4_segments(times, step: float):
    """For each record time: the start ``t``, number ``n`` and size ``h`` of
    the equal steps, none longer than ``step``, that reach it from the
    previous record time (from 0 for the first).  ``n`` is 0 for a repeated
    record time."""
    t = 0.0
    for tk in times:
        if tk < t:
            raise ValueError("record times must be sorted and nonnegative")
        span = tk - t
        n = max(1, math.ceil(span / step - 1e-12)) if span > 0.0 else 0
        yield t, n, (span / n if n else 0.0)
        t = tk


def _rk4_stage_times(t: float, n: int, h: float):
    """The times at which :func:`_rk4_path` evaluates the right-hand side in
    ``n`` steps of size ``h`` from ``t``, in batches of at most
    ``_STAGE_CHUNK`` steps: ``[t, t + h/2, t + h, t + 3h/2, ...]``, so step
    ``i`` of a batch runs from index ``2i`` to index ``2i + 2``.  They are
    generated with the integrator's own arithmetic, so they equal its times
    bit for bit."""
    for done in range(0, n, _STAGE_CHUNK):
        grid = [t]
        for _ in range(min(_STAGE_CHUNK, n - done)):
            grid += (t + 0.5 * h, t + h)
            t += h
        yield grid


_amax = np.maximum.reduce  # ndarray.max without its Python-level wrapper


def _guard(y: np.ndarray, t: float, guard_norm: float) -> None:
    """Raise :class:`SingularJacobi` once max |y| reaches ``guard_norm`` (or
    is NaN) after the step that ends at ``t``."""
    m = _amax(np.abs(y), None)
    if not m < guard_norm:
        raise SingularJacobi(
            f"trajectory norm {m:.3g} exceeded blow-up guard near t={t:.6g}"
        )


def _rk4_path(f, y0: np.ndarray, times, step: float, guard_norm: float):
    """Integrate y' = f(t, y) from t=0, recording y at each requested time.

    ``times`` must be nonnegative and sorted.  Steps are sized to land exactly
    on every record point while never exceeding ``step``.
    """
    y = y0.astype(float).copy()
    out = []
    for t, n, h in _rk4_segments(times, step):
        h2, h6 = 0.5 * h, h / 6.0
        for _ in range(n):
            k1 = f(t, y)
            k2 = f(t + h2, y + h2 * k1)
            k3 = f(t + h2, y + h2 * k2)
            k4 = f(t + h, y + h * k3)
            y = y + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
            _guard(y, t, guard_norm)
        out.append(y.copy())
    return out


def riccati_path(c, C0, times, step: float = 1e-3) -> list[np.ndarray]:
    """RK4 integration of the Riccati equation C' = C^2 + c I, recorded at
    the given times.  Independent oracle for :func:`splitting_tensor_at`."""
    c = _curv(c)
    C0 = _smat(C0)
    c_eye = c * np.eye(C0.shape[0])

    def f(_t, C):
        return C @ C + c_eye

    return _rk4_path(f, C0, list(times), step, RICCATI_BLOWUP)


def shape_ode_path(A0, c, C0, times, step: float = 1e-3) -> list[ShapeOperatorSet]:
    """RK4 integration of A' = A C(t), with C(t) taken from the closed form.

    Oracle for :func:`shape_operator_at`; the two sides share only the
    splitting tensor, not the shape evolution itself.  The equation is
    linear in A, so one classic RK4 step of size h from t is exactly
    A <- A R with

        K1 = C(t),  K2 = C(t + h/2) + (h/2) K1 C(t + h/2),
        K3 = C(t + h/2) + (h/2) K2 C(t + h/2),  K4 = C(t + h) + h K3 C(t + h),
        R = I + (h/6) (K1 + 2 K2 + 2 K3 + K4).

    The step matrices R of a batch of steps are formed together from C on
    the batch's stage times; A is then advanced one step at a time, with
    the blow-up guard after every step as in :func:`_rk4_path`.
    """
    c = _curv(c)
    C0 = _smat(C0)
    A0 = _sset(A0)
    if A0.p == 0:
        return [A0 for _ in times]
    ev = _Evolution(c, C0)
    A = np.stack(A0.ops)
    out = []
    for t, n, h in _rk4_segments(times, step):
        h2, h6 = 0.5 * h, h / 6.0
        for grid in _rk4_stage_times(t, n, h):
            C = ev.splitting(grid)
            C1, C2, C4 = C[:-1:2], C[1::2], C[2::2]
            K2 = C2 + h2 * (C1 @ C2)
            K3 = C2 + h2 * (K2 @ C2)
            K4 = C4 + h * (K3 @ C4)
            R = ev.eye + h6 * (C1 + 2.0 * K2 + 2.0 * K3 + K4)
            for R_n, t_n in zip(R, grid[2::2]):
                A = A @ R_n
                _guard(A, t_n, RICCATI_BLOWUP)
        out.append(ShapeOperatorSet(tuple(A)))
    return out


# ---------------------------------------------------------------------------
# compatibility and convenience
# ---------------------------------------------------------------------------

def is_codazzi_compatible(A0, C0) -> bool:
    """Whether every A_xi * C0^k is symmetric for k = 0, ..., q-1.

    By Cayley-Hamilton this is equivalent to symmetry of A_xi J(t)^{-1} for
    all t, i.e. the pair can arise as Codazzi data of an actual immersion.
    """
    A0 = _sset(A0)
    C0 = _smat(C0)
    q = C0.shape[0]
    for m in A0.ops:
        for _ in range(q):
            if _asymmetry(m) > SYM_TOL:
                return False
            m = m @ C0
    return True

