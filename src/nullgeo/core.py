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
from functools import partial
from itertools import accumulate

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
    """max |m - m^T| / max |m|, 0 for a symmetric m, unchanged by scaling m;
    m - m^T is antisymmetric to the bit, so its largest entry is its modulus."""
    d = np.maximum.reduce(m - m.T, None, initial=0.0)
    return d / np.maximum.reduce(np.abs(m), None) if d else d


def _unit_scale(m: np.ndarray) -> np.ndarray:
    """m times the power of two that brings its largest entry into [1/2, 1)."""
    return np.ldexp(m, -math.frexp(np.maximum.reduce(np.abs(m), None, initial=0.0))[1])


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
    cosh(a|t|) is not representable.  :meth:`_Evolution.evaluate` takes J
    and J' from here where a|t| < 1, and J alone for det J where
    1 <= a|t| <= ln(DBL_MAX).
    """
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
                # coth(a t) = lam / a; atanh keeps a / lam where the
                # ratio (lam + a) / (lam - a) would round to 1
                roots.append(math.atanh(a / lam) / a)
    else:
        for lam in reals:
            if lam > 0.0:
                roots.append(1.0 / lam)
    return min(roots, default=math.inf)


class _Evolution:
    """J, C = -J' J^{-1}, A = A0 J^{-1} and det J of one (c, C0) on a whole
    time grid.

    Built once per (c, C0): the first singular time in each direction is
    computed on first use and kept.  :meth:`evaluate` gives det J, C and the
    A stacks of a grid from one stack of factors (see :meth:`_factors`),
    with one stacked LAPACK call per quantity: a solve for C, an inverse for
    A and a det (slogdet past ln(DBL_MAX)) for det J.  The scalar
    coefficients come from ``math`` one time at a time, and every stacked
    call works matrix by matrix, so every grid gives the same bits for a
    time as the grid of that time alone.

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
        itself with r = 1, or (M, N) with r = 2 e^{-a|t|} < 1 on the scaled
        branch."""
        ts = _times(ts)
        far = self.a * np.abs(ts) >= 1.0  # a = 0 for c >= 0
        n_far = np.count_nonzero(far)
        if n_far == 0:
            return (*_jacobi(self.c, self.C0, ts), np.ones(ts.size))
        if n_far == ts.size:
            return self._scaled(ts)
        k, q = ts.size, self.eye.shape[0]
        P, Q, r = np.empty((k, q, q)), np.empty((k, q, q)), np.ones(k)
        near = ~far
        P[near], Q[near] = _jacobi(self.c, self.C0, ts[near])
        P[far], Q[far], r[far] = self._scaled(ts[far])
        return P, Q, r

    def _scaled(self, ts: np.ndarray):
        """:meth:`_factors` on the scaled branch, a|t| >= 1."""
        a, at = self.a, np.abs(ts)
        sgn = np.copysign(1.0, ts)[:, None, None]
        eps = _libm(math.exp, (-2.0 * a * at).tolist())[:, None, None]
        sC = (sgn / a) * self.C0
        M = (self.eye - sC) + eps * (self.eye + sC)
        N = sgn * a * (self.eye - eps * self.eye) - (1.0 + eps) * self.C0
        return M, N, 2.0 * _libm(math.exp, (-a * at).tolist())

    @staticmethod
    def _splitting(P, Q) -> np.ndarray:
        # -J' J^{-1} via a solve on the transposed systems
        return -np.linalg.solve(P.transpose(0, 2, 1), Q.transpose(0, 2, 1)).transpose(0, 2, 1)

    @staticmethod
    def _inverse(P, r) -> np.ndarray:
        # x * 1.0 == x for every float, so a grid without scaled rows skips it
        inv = np.linalg.inv(P)
        return inv if (r == 1.0).all() else r[:, None, None] * inv

    @staticmethod
    def _shape(ops, Jinv) -> list[np.ndarray]:
        # (J^{-T} A0^T)^T on transposed views: BLAS rounds a C-ordered
        # operand differently at large q, and the golden outputs were made
        # with this layout
        Jinv_T = Jinv.transpose(0, 2, 1)
        return [np.matmul(Jinv_T, a.T).transpose(0, 2, 1) for a in ops]

    def _det(self, ts: np.ndarray, P: np.ndarray, r: np.ndarray) -> np.ndarray:
        """det J(t) for each t, given the factors ``P``, ``r`` of ``ts``.

        det(u I - v C0) for a|t| up to ln(DBL_MAX), where cosh(a|t|) is
        surely representable: ``P`` itself where r = 1, J built again (without
        J') on the scaled rows.  Beyond that, sign(det M) exp(q (a|t| - ln 2)
        + log|det M|) from ``P = M``, which is inf where it exceeds the float
        range.
        """
        unit = r == 1.0
        if unit.all():
            with np.errstate(over="ignore"):  # inf is the honest value
                return np.linalg.det(P)
        out = np.empty(ts.size)
        over = self.a * np.abs(ts) > _COSH_MAX
        mid = ~(unit | over)
        with np.errstate(over="ignore"):
            if unit.any():
                out[unit] = np.linalg.det(P[unit])
            if mid.any():
                out[mid] = np.linalg.det(_jacobi(self.c, self.C0, ts[mid], derivative=False)[0])
        if over.any():
            sign, logdet = np.linalg.slogdet(P[over])
            q = self.eye.shape[0]
            x = q * (self.a * np.abs(ts[over]) - math.log(2.0)) + logdet
            out[over] = sign * _libm(_exp_or_inf, x.tolist())
        return out

    def evaluate(self, ops, ts) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """det J(t), C(t) and A_xi(t) = A_xi(0) J(t)^{-1} for each t, stacked
        over the grid, from one stack of factors."""
        ts = _times(ts)
        P, Q, r = self._factors(ts)
        return self._det(ts, P, r), self._splitting(P, Q), self._shape(ops, self._inverse(P, r))

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


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


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


class _Stack:
    """The step schedule of cases that are stepped together, built once.

    Each case keeps its own :func:`_rk4_segments` schedule, laid out over
    the steps of the stack: ``h[k, s]`` is the size of step ``s`` of case
    ``k`` and ``t0[k, s]`` its start, ``t += h`` from the start of its
    segment (``np.add.accumulate`` adds in order), so ``t0 + h`` is the
    integrator's time at the end of the step bit for bit.  ``ends[k]`` holds
    the step count at each record of case ``k``: its segment bounds.  A
    case's step size changes only at its own records, so between two
    consecutive record counts of the stack every case takes steps of one
    size; a case with fewer steps than the longest one takes ``h = 0``
    steps after its last record (``t0 = 0`` there), which leave a finite
    state unchanged.
    """

    def __init__(self, times, step: float):
        segs = [list(_rk4_segments(list(ts), step)) for ts in times]
        self.ends = [list(accumulate(n for _, n, _ in seg)) for seg in segs]
        self.steps = max([0, *(ends[-1] for ends in self.ends if ends)])
        self.h = np.zeros((len(segs), self.steps))
        self.t0 = np.zeros((len(segs), self.steps))
        self.due: dict[int, list[tuple[int, int]]] = {}
        for k, (seg, ends) in enumerate(zip(segs, self.ends)):
            for j, ((t, n, h), s1) in enumerate(zip(seg, ends)):
                self.due.setdefault(s1, []).append((k, j))
                if n:
                    starts = np.full(n, h)
                    starts[0] = t
                    self.h[k, s1 - n:s1] = h
                    self.t0[k, s1 - n:s1] = np.add.accumulate(starts)

    def run(self, Y: np.ndarray, advance) -> list[list[np.ndarray]]:
        """Record each case of the stacked state ``Y`` at its record times.
        ``advance(s0, s1)`` takes steps ``s0 .. s1 - 1`` and returns the
        stacked state."""
        out = [[None] * len(ends) for ends in self.ends]
        done = 0
        for stop in sorted(self.due):
            if stop > done:
                Y = advance(done, stop)
                done = stop
            for k, j in self.due[stop]:
                out[k][j] = Y[k].copy()
        return out

    def guard(self, Y: np.ndarray, s: int) -> None:
        """Raise :class:`SingularJacobi` for the first case whose max |y|
        reached ``RICCATI_BLOWUP`` (or is NaN) in step ``s``."""
        m = np.abs(Y.reshape(len(Y), -1)).max(axis=1)
        bad = np.flatnonzero(~(m < RICCATI_BLOWUP))
        if bad.size:
            k = bad[0]
            t = self.t0[k, s] + self.h[k, s]
            raise SingularJacobi(
                f"trajectory norm {m[k]:.3g} exceeded blow-up guard near t={t:.6g}"
            )


def _guard_limit(size: int) -> float:
    """A bound on the sum of squares of ``size`` entries below which every
    entry is surely below ``RICCATI_BLOWUP``: the computed sum is at most
    ``size`` roundings short of the exact one, under 1e-12 of it for up to
    4096 entries.  Larger stacks skip the sum and always take the exact
    per-entry check."""
    return RICCATI_BLOWUP * RICCATI_BLOWUP * (1.0 - 1e-12) if size <= 4096 else 0.0


def _riccati_stack(cs, C0s, times, step: float) -> list[list[np.ndarray]]:
    """RK4 paths of C' = C^2 + c I for cases ``(cs[k], C0s[k])`` of one size,
    each recorded at its own ``times[k]`` and advanced together.

    The step arithmetic is the textbook

        k1 = f(y),  k2 = f(y + (h/2) k1),  k3 = f(y + (h/2) k2),
        k4 = f(y + h k3),  y <- y + (h/6) (k1 + 2 k2 + 2 k3 + k4),

    term by term in this order, with 2 k2 and 2 k3 computed in one call as
    k + k (the same bits), written into buffers held across steps.  One case
    runs on 2-D arrays with ``ndarray.dot`` and 0-d step factors, a stack
    with ``np.matmul`` and one factor per case.  After every step one
    dot product of the stack with itself screens the blow-up guard; only a
    sum of squares near the bound runs the per-case check.

    One case with q = 1 is the scalar ODE y' = y^2 + c, stepped on Python
    floats: each of a step's twenty numpy calls on 1x1 arrays costs about a
    microsecond, and a 1x1 ``dot`` is the plain product, so the float steps
    give the same bits at a small fraction of the cost.
    """
    stack = _Stack(times, step)
    Y = np.array(C0s, dtype=float)
    ce = np.array(cs, dtype=float)[:, None, None] * np.eye(Y.shape[1])
    if Y.shape == (1, 1, 1):
        return stack.run(Y, _scalar_advance(stack, Y, float(ce[0, 0, 0])))
    one = len(Y) == 1
    y, ce = (Y[0], ce[0]) if one else (Y, ce)
    ks = np.empty((4, *y.shape))
    k1, k2, k3, k4 = ks
    k23 = ks[1:3]
    u = np.empty_like(y)
    if one:
        ydot, udot = y.dot, u.dot

        def factor(h):
            return np.array(h[0])
    else:
        ydot, udot = partial(np.matmul, y), partial(np.matmul, u)

        def factor(h):
            return h[:, None, None]

    yf = Y.reshape(-1)
    limit = _guard_limit(yf.size)
    add, mul = np.add, np.multiply

    def advance(s0: int, s1: int) -> np.ndarray:
        h = stack.h[:, s0]
        h1, h2, h6 = factor(h), factor(0.5 * h), factor(h / 6.0)
        for s in range(s0, s1):
            ydot(y, k1)
            add(k1, ce, k1)
            mul(k1, h2, u)
            add(y, u, u)
            udot(u, k2)
            add(k2, ce, k2)
            mul(k2, h2, u)
            add(y, u, u)
            udot(u, k3)
            add(k3, ce, k3)
            mul(k3, h1, u)
            add(y, u, u)
            udot(u, k4)
            add(k4, ce, k4)
            add(k23, k23, k23)
            add(k1, k2, k1)
            add(k1, k3, k1)
            add(k1, k4, k1)
            mul(k1, h6, k1)
            add(y, k1, y)
            if not yf.dot(yf) < limit:
                stack.guard(Y, s)
        return Y

    return stack.run(Y, advance)


def _scalar_advance(stack: _Stack, Y: np.ndarray, c: float):
    """The stepper of :func:`_riccati_stack` for the lone case of ``Y``, of
    shape ``(1, 1, 1)``: the same textbook RK4 arithmetic on Python floats.
    The guard check |y| < ``RICCATI_BLOWUP`` is the one the sum-of-squares
    screen and :meth:`_Stack.guard` make for one entry."""

    def advance(s0: int, s1: int) -> np.ndarray:
        h = float(stack.h[0, s0])
        h2, h6 = 0.5 * h, h / 6.0
        y = float(Y[0, 0, 0])
        for s in range(s0, s1):
            k1 = y * y + c
            u = y + h2 * k1
            k2 = u * u + c
            u = y + h2 * k2
            k3 = u * u + c
            u = y + h * k3
            k4 = u * u + c
            y = y + h6 * (((k1 + (k2 + k2)) + (k3 + k3)) + k4)
            if not abs(y) < RICCATI_BLOWUP:
                Y[0, 0, 0] = y
                stack.guard(Y, s)
        Y[0, 0, 0] = y
        return Y

    return advance


def riccati_path(c, C0, times, step: float = 1e-3) -> list[np.ndarray]:
    """RK4 integration of the Riccati equation C' = C^2 + c I, recorded at
    the given times.  Independent oracle for :func:`splitting_tensor_at`.
    Raises :class:`SingularJacobi` once an entry of C reaches
    ``RICCATI_BLOWUP``."""
    return _riccati_stack([_curv(c)], [_smat(C0)], [times], step)[0]


def _step_matrices(ev: _Evolution, t0: np.ndarray, h: float) -> np.ndarray:
    """The RK4 step matrices R of steps of size ``h`` from the times ``t0``,
    consecutive steps of one segment: C is evaluated once at every start,
    midpoint and end, the end of each step but the last being the start of
    the next."""
    h2 = 0.5 * h
    grid = np.empty(2 * t0.size + 1)
    grid[:-1:2] = t0
    grid[1::2] = t0 + h2
    grid[-1] = t0[-1] + h
    C = ev.splitting(grid)
    C1, C2, C4 = C[:-1:2], C[1::2], C[2::2]
    K2 = C2 + h2 * (C1 @ C2)
    K3 = C2 + h2 * (K2 @ C2)
    K4 = C4 + h * (K3 @ C4)
    return ev.eye + (h / 6.0) * (C1 + 2.0 * K2 + 2.0 * K3 + K4)


def _shape_stack(A0s, cs, C0s, times, step: float) -> list[list[np.ndarray]]:
    """RK4 paths of A' = A C(t) for cases with ``p >= 1`` shape operators of
    one size, each recorded at its own ``times[k]`` and advanced together
    by their step matrices (see :func:`shape_ode_path`).  Each record is the
    ``(p, q, q)`` stack of that case.

    The step matrices of every case come from its own :class:`_Evolution`,
    in blocks of ``_STAGE_CHUNK`` steps of the stack (fewer when no case
    takes that many): one evaluation of C per segment of a case within a
    block, and the identity for ``h = 0`` steps.  One case with ``p = 1`` is
    stepped on 2-D arrays with ``np.dot``, anything else with ``np.matmul``.
    The blow-up guard is screened as in :func:`_riccati_stack`.
    """
    stack = _Stack(times, step)
    A = np.array(A0s, dtype=float)
    K, q = len(A), A.shape[-1]
    evs = [_Evolution(c, C0) for c, C0 in zip(cs, C0s)]
    chunk = min(_STAGE_CHUNK, max(1, stack.steps))
    R = np.empty((chunk, K, q, q))
    if K == 1 and A.shape[1] == 1:  # one case, one operator: (q, q) @ (q, q)
        view, mm, Rv = (lambda X: X[0, 0]), np.dot, R[:, 0]
    else:  # (K, p, q, q) @ (K, 1, q, q)
        view, mm, Rv = (lambda X: X), np.matmul, R[:, :, None]
    # the state and the next state: stacked, as stepped, flat
    bufs = [(X, view(X), X.reshape(-1)) for X in (A, np.empty_like(A))]
    limit = _guard_limit(A.size)

    def fill(b0: int) -> None:
        """R[i] for step ``b0 + i`` of every case, one call per segment."""
        b1 = min(b0 + chunk, stack.steps)
        for k, (ev, ends) in enumerate(zip(evs, stack.ends)):
            cuts = [b0, *sorted({e for e in ends if b0 < e < b1}), b1]
            for s0, s1 in zip(cuts, cuts[1:]):
                h = stack.h[k, s0]
                R[s0 - b0:s1 - b0, k] = _step_matrices(ev, stack.t0[k, s0:s1], h) if h else ev.eye

    def advance(s0: int, s1: int) -> np.ndarray:
        cur, nxt = bufs
        for s in range(s0, s1):
            i = s % chunk
            if i == 0:
                fill(s)
            mm(cur[1], Rv[i], nxt[1])
            if not nxt[2].dot(nxt[2]) < limit:
                stack.guard(nxt[0], s)
            cur, nxt = nxt, cur
        bufs[:] = cur, nxt
        return cur[0]

    return stack.run(A, advance)


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
    the blow-up guard after every step as in :func:`riccati_path`.
    """
    A0 = _sset(A0)
    if A0.p == 0:
        return [A0 for _ in times]
    path = _shape_stack([np.stack(A0.ops)], [_curv(c)], [_smat(C0)], [times], step)[0]
    return [ShapeOperatorSet(tuple(A)) for A in path]


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
    C0 = _unit_scale(_smat(C0))
    q = C0.shape[0]
    for m in _sset(A0).ops:
        m = _unit_scale(m)
        for k in range(1, q + 1):
            if not _asymmetry(m) <= SYM_TOL:
                return False
            if k < q:
                m = m @ C0 if k + 1 == q else _unit_scale(m @ C0)
    return True
