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
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "NullityError",
    "SingularJacobi",
    "SpaceFormCurvature",
    "NullityProfile",
    "SplittingTensor",
    "ShapeOperatorSet",
    "JacobiTensor",
    "GeodesicDomain",
    "DomainKind",
    "jacobi_tensor",
    "jacobi_derivative",
    "max_invertible_time",
    "splitting_tensor_at",
    "shape_operator_at",
    "riccati_flow",
    "riccati_path",
    "shape_ode_flow",
    "shape_ode_path",
    "is_codazzi_compatible",
    "real_eigenvalues",
    "SYM_TOL",
    "REAL_EIG_TOL",
    "RICCATI_BLOWUP",
]

# Tolerances shared across modules (see also classify / theorems).
SYM_TOL = 1e-8           # relative asymmetry threshold
REAL_EIG_TOL = 1e-10     # |Im| <= REAL_EIG_TOL * (1 + |lam|) counts as real
RICCATI_BLOWUP = 1e8     # abort integration once a tensor norm exceeds this
_STAGE_CHUNK = 512       # RK4 steps per batched evaluation of C in the shape oracle


class NullityError(Exception):
    """Base class for errors raised by this package."""


class SingularJacobi(NullityError):
    """Evaluation at or beyond the first singular time of the Jacobi tensor."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceFormCurvature:
    """Curvature constant of the ambient space form."""

    c: float

    def __post_init__(self):
        if not math.isfinite(self.c):
            raise ValueError(f"curvature must be finite, got {self.c}")


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
        """Largest relative asymmetry over the entries."""
        worst = 0.0
        for a in self.ops:
            scale = 1.0 + np.abs(a).max(initial=0.0)
            worst = max(worst, np.abs(a - a.T).max(initial=0.0) / scale)
        return worst

    def is_symmetric(self, tol: float = SYM_TOL) -> bool:
        return self.asymmetry() <= tol


@dataclass(frozen=True)
class JacobiTensor:
    """Value of the Jacobi tensor at arc length ``t`` along the geodesic."""

    mat: np.ndarray
    t: float


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
    if isinstance(c, SpaceFormCurvature):
        return c.c
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


def real_eigenvalues(M: np.ndarray, tol: float = REAL_EIG_TOL) -> list[float]:
    """Real part of the eigenvalues whose imaginary part is negligible."""
    out = []
    for lam in np.linalg.eigvals(np.asarray(M, dtype=float)):
        if abs(lam.imag) <= tol * (1.0 + abs(lam)):
            out.append(float(lam.real))
    return out


# ---------------------------------------------------------------------------
# closed-form evolution
# ---------------------------------------------------------------------------

def _jacobi_scalars(c: float, t: float) -> tuple[float, float, float, float]:
    """Coefficients (u, v, du, dv) with J = u*I - v*C0 and J' = du*I - dv*C0."""
    if c > 0.0:
        a = math.sqrt(c)
        return math.cos(a * t), math.sin(a * t) / a, -a * math.sin(a * t), math.cos(a * t)
    if c < 0.0:
        a = math.sqrt(-c)
        return math.cosh(a * t), math.sinh(a * t) / a, a * math.sinh(a * t), math.cosh(a * t)
    return 1.0, t, 0.0, 1.0


def _jacobi_mat(c: float, C0: np.ndarray, t: float) -> np.ndarray:
    u, v, _, _ = _jacobi_scalars(c, t)
    return u * np.eye(C0.shape[0]) - v * C0


def _jacobi_dmat(c: float, C0: np.ndarray, t: float) -> np.ndarray:
    _, _, du, dv = _jacobi_scalars(c, t)
    return du * np.eye(C0.shape[0]) - dv * C0


def jacobi_tensor(c, C0, t: float) -> JacobiTensor:
    """Jacobi tensor J(t) solving J'' + c J = 0, J(0) = I, J'(0) = -C0.

    For c = 1, 0, -1 this is the textbook trigonometric / affine / hyperbolic
    solution; arbitrary real c is handled by sqrt(|c|) scaling of those three
    branches.
    """
    c = _curv(c)
    C0 = _smat(C0)
    return JacobiTensor(_jacobi_mat(c, C0, t), float(t))


def jacobi_derivative(c, C0, t: float) -> np.ndarray:
    """Exact t-derivative of :func:`jacobi_tensor`."""
    c = _curv(c)
    C0 = _smat(C0)
    return _jacobi_dmat(c, C0, t)


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
            if lam > a:
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
        branches: dict[float, list[int]] = {}
        for i, t in enumerate(ts):
            scaled = self.c < 0.0 and self.a * abs(t) >= 1.0
            branches.setdefault(math.copysign(1.0, t) if scaled else 0.0, []).append(i)
        parts = [(rows, self._branch(sgn, [ts[i] for i in rows])) for sgn, rows in branches.items()]
        if len(parts) == 1:
            return parts[0][1]
        k, q = len(ts), self.eye.shape[0]
        P, Q, r = np.empty((k, q, q)), np.empty((k, q, q)), np.empty(k)
        for rows, (P_b, Q_b, r_b) in parts:
            P[rows], Q[rows], r[rows] = P_b, Q_b, r_b
        return P, Q, r

    def _branch(self, sgn: float, ts: list[float]):
        """:meth:`_factors` for times on one branch: unscaled (``sgn`` 0) or
        scaled with t of sign ``sgn``."""
        if not sgn:
            u, v, du, dv = np.array([_jacobi_scalars(self.c, t) for t in ts]).T[:, :, None, None]
            return u * self.eye - v * self.C0, du * self.eye - dv * self.C0, np.ones(len(ts))
        eps = np.array([math.exp(-2.0 * self.a * abs(t)) for t in ts])[:, None, None]
        lo = self.eye - (sgn / self.a) * self.C0
        hi = self.eye + (sgn / self.a) * self.C0
        M = lo + eps * hi
        N = sgn * self.a * (self.eye - eps * self.eye) - (1.0 + eps) * self.C0
        return M, N, np.array([2.0 * math.exp(-self.a * abs(t)) for t in ts])

    def splitting(self, ts) -> np.ndarray:
        """C(t) for each t, stacked."""
        P, Q, _ = self._factors(ts)
        # -J' J^{-1} via a solve on the transposed systems
        return -np.linalg.solve(P.transpose(0, 2, 1), Q.transpose(0, 2, 1)).transpose(0, 2, 1)

    def inverse(self, ts) -> np.ndarray:
        """J(t)^{-1} for each t, stacked."""
        P, _, r = self._factors(ts)
        return r[:, None, None] * np.linalg.inv(P)

    def shape(self, ops, ts) -> list[np.ndarray]:
        """A_xi(t) = A_xi(0) J(t)^{-1} for each shape operator, each stacked
        over the grid."""
        # (J^{-T} A0^T)^T on transposed views: BLAS rounds a C-ordered
        # operand differently at large q, and the golden outputs were made
        # with this layout
        Jinv_T = self.inverse(ts).transpose(0, 2, 1)
        return [np.matmul(Jinv_T, a.T).transpose(0, 2, 1) for a in ops]

    def det(self, ts) -> np.ndarray:
        """det J(t) for each t.

        det(u I - v C0) wherever cosh(a|t|) is representable.  Beyond that,
        sign(det M) exp(q (a|t| - ln 2) + log|det M|) from the scaled form,
        which is inf where it exceeds the float range.
        """
        ts = [float(t) for t in ts]
        out = np.empty(len(ts))
        fits, coef, over = [], [], []
        for i, t in enumerate(ts):
            try:
                u, v, _, _ = _jacobi_scalars(self.c, t)
            except OverflowError:
                over.append(i)
            else:
                fits.append(i)
                coef.append((u, v))
        if fits:
            uv = np.array(coef)
            J = uv[:, 0, None, None] * self.eye - uv[:, 1, None, None] * self.C0
            with np.errstate(over="ignore"):  # inf is the honest value
                out[fits] = np.linalg.det(J)
        if over:
            M, _, _ = self._factors([ts[i] for i in over])
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
    of J.
    """
    c = _curv(c)
    C0 = _smat(C0)
    if t == 0.0:
        return SplittingTensor(C0.copy())
    ev = _Evolution(c, C0)
    ev.check([t])
    return SplittingTensor(ev.splitting([t])[0])


def shape_operator_at(A0, c, C0, t: float) -> ShapeOperatorSet:
    """Shape operators A(t) = A(0) J(t)^{-1} in the parallel frame.

    Symmetry of the result is only guaranteed when ``A0`` is Codazzi
    compatible with ``C0``; the caller is responsible for checking
    :func:`is_codazzi_compatible` when that matters.
    """
    c = _curv(c)
    C0 = _smat(C0)
    A0 = _sset(A0)
    if t == 0.0:
        return ShapeOperatorSet(tuple(a.copy() for a in A0.ops))
    ev = _Evolution(c, C0)
    ev.check([t])
    return ShapeOperatorSet(tuple(A[0] for A in ev.shape(A0.ops, [t])))


# ---------------------------------------------------------------------------
# RK4 oracles
# ---------------------------------------------------------------------------

def _rk4_substeps(span: float, step: float) -> tuple[int, float]:
    """Number and size of the equal steps that cover ``span``, none longer
    than ``step``."""
    n = max(1, math.ceil(span / step - 1e-12))
    return n, span / n


def _rk4_stage_times(times, step: float):
    """The times at which :func:`_rk4_path` evaluates the right-hand side,
    in batches of at most ``_STAGE_CHUNK`` steps.  They are generated with
    the integrator's own arithmetic, so they equal its times bit for bit."""
    t = 0.0
    for tk in times:
        span = tk - t
        if span > 0.0:
            n, h = _rk4_substeps(span, step)
            for done in range(0, n, _STAGE_CHUNK):
                grid = [t]
                for _ in range(min(_STAGE_CHUNK, n - done)):
                    grid += (t + 0.5 * h, t + h)
                    t += h
                yield grid
        t = tk


def _rk4_path(f, y0: np.ndarray, times, step: float, guard_norm: float):
    """Integrate y' = f(t, y) from t=0, recording y at each requested time.

    ``times`` must be nonnegative and sorted.  Steps are sized to land exactly
    on every record point while never exceeding ``step``.
    """
    t = 0.0
    y = y0.astype(float).copy()
    out = []
    for tk in times:
        if tk < t:
            raise ValueError("record times must be sorted and nonnegative")
        span = tk - t
        if span > 0.0:
            n, h = _rk4_substeps(span, step)
            for _ in range(n):
                k1 = f(t, y)
                k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
                k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
                k4 = f(t + h, y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                t += h
                m = np.abs(y).max()
                if not m < guard_norm:
                    raise SingularJacobi(
                        f"trajectory norm {m:.3g} exceeded blow-up guard near t={t:.6g}"
                    )
        t = tk
        out.append(y.copy())
    return out


def riccati_path(c, C0, times, step: float = 1e-3) -> list[np.ndarray]:
    """RK4 integration of the Riccati equation C' = C^2 + c I, recorded at
    the given times.  Independent oracle for :func:`splitting_tensor_at`."""
    c = _curv(c)
    C0 = _smat(C0)
    eye = np.eye(C0.shape[0])

    def f(_t, C):
        return C @ C + c * eye

    return _rk4_path(f, C0, list(times), step, RICCATI_BLOWUP)


def riccati_flow(c, C0, t_end: float, step: float = 1e-3) -> SplittingTensor:
    """Value of the Riccati flow at ``t_end`` (fixed-step RK4)."""
    return SplittingTensor(riccati_path(c, C0, [float(t_end)], step)[-1])


def shape_ode_path(A0, c, C0, times, step: float = 1e-3) -> list[ShapeOperatorSet]:
    """RK4 integration of A' = A C(t), with C(t) taken from the closed form.

    Oracle for :func:`shape_operator_at`; the two sides share only the
    splitting tensor, not the shape evolution itself.
    """
    c = _curv(c)
    C0 = _smat(C0)
    A0 = _sset(A0)
    if A0.p == 0:
        return [A0 for _ in times]
    stack = np.stack(A0.ops)
    times = list(times)
    ev = _Evolution(c, C0)
    grids = _rk4_stage_times(times, step)
    table: dict[float, np.ndarray] = {}

    def f(t, A):
        # C on the stage times of the next batch of steps, in one solve
        C = table.get(t)
        if C is None:
            ts = next(grids)
            table.clear()
            table.update(zip(ts, ev.splitting(ts)))
            C = table[t]
        return A @ C

    path = _rk4_path(f, stack, times, step, RICCATI_BLOWUP)
    return [ShapeOperatorSet(tuple(A)) for A in path]


def shape_ode_flow(A0, c, C0, t_end: float, step: float = 1e-3) -> ShapeOperatorSet:
    """Value of the shape-operator ODE flow at ``t_end``."""
    return shape_ode_path(A0, c, C0, [float(t_end)], step)[-1]


# ---------------------------------------------------------------------------
# compatibility and convenience
# ---------------------------------------------------------------------------

def is_codazzi_compatible(A0, C0, tol: float = SYM_TOL) -> bool:
    """Whether every A_xi * C0^k is symmetric for k = 0, ..., q-1.

    By Cayley-Hamilton this is equivalent to symmetry of A_xi J(t)^{-1} for
    all t, i.e. the pair can arise as Codazzi data of an actual immersion.
    """
    A0 = _sset(A0)
    C0 = _smat(C0)
    q = C0.shape[0]
    for a in A0.ops:
        m = a.copy()
        for _ in range(q):
            scale = 1.0 + np.abs(m).max(initial=0.0)
            if np.abs(m - m.T).max(initial=0.0) > tol * scale:
                return False
            m = m @ C0
    return True

