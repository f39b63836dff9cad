"""Eigenvalue obstructions and asymptotic behavior of the second fundamental
form along nullity geodesics.

Which constraint applies depends on the sign of the ambient curvature and on
how far the geodesic extends (segment, ray or line); the verdicts here encode
exactly those case distinctions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    DomainKind,
    GeodesicDomain,
    NullityError,
    _curv,
    _ops,
    _real_parts,
    _rounding,
    _shape_grid,
    _singular_time,
    _smat,
    _spectrum,
    _sym,
    is_codazzi_compatible,
    real_eigenvalues,
)

__all__ = [
    "Clause",
    "BlockBehavior",
    "AlphaLimit",
    "SpectrumVerdict",
    "DecayBlock",
    "DecayReport",
    "InconsistentSpectrum",
    "PreconditionViolated",
    "classify_splitting_spectrum",
    "decay_report",
    "sign_balance_check",
    "signature_counts",
]

EIG_CLUSTER_TOL = 1e-8   # eigenvalues closer than this, relative, are one block
DECAY_SAMPLE_TIMES = (5.0, 10.0, 20.0)


class InconsistentSpectrum(NullityError):
    """The splitting spectrum already violates a clause for this domain."""


class PreconditionViolated(NullityError):
    pass


class Clause(str, Enum):
    I = "I"
    II = "II"
    II1 = "II1"
    II2 = "II2"


class BlockBehavior(str, Enum):
    DECAYS_TO_ZERO = "DecaysToZero"
    PARALLEL_CONSTANT = "ParallelConstant"
    BLOWS_UP = "BlowsUp"
    IDENTICALLY_ZERO = "IdenticallyZero"


class AlphaLimit(str, Enum):
    ZERO = "Zero"
    NONZERO = "Nonzero"
    DIVERGENT = "Divergent"
    MIXED = "Mixed"


@dataclass(frozen=True)
class SpectrumVerdict:
    consistent: bool
    violated_clause: Clause | None = None
    offending_eigenvalues: tuple = ()
    admissible_interval: tuple | None = None


@dataclass(frozen=True)
class DecayBlock:
    """Behavior of the shape operators on one (generalized) eigenspace of the
    initial splitting tensor."""

    eigenvalue: complex
    multiplicity: int
    behavior: BlockBehavior
    rate: float


@dataclass(frozen=True)
class DecayReport:
    per_block: tuple
    global_alpha_limit: AlphaLimit
    # numeric confirmation: (t, max shape-operator norm, norm restricted to
    # the critical eigenspace) at a few large times; none where J(t) cannot
    # be inverted or A(t) leaves the float range at one of them
    samples: tuple = ()
    spectral_radius: float = 0.0   # of C0, the scale of the block eigenvalues


def classify_splitting_spectrum(c, C0, domain: GeodesicDomain) -> SpectrumVerdict:
    """Apply the eigenvalue clause matching (sign of c, domain kind).

    c > 0 with the geodesic reaching pi/sqrt(c): no real eigenvalues at all.
    c <= 0 on a ray: real eigenvalues at most sqrt(-c).  On a line the
    two-sided constraint pins real eigenvalues to {0} (c = 0) or to
    [-sqrt(-c), sqrt(-c)] (c < 0).  An eigenvalue fails exactly when it gives
    :func:`max_invertible_time` a root, in the ray's direction or in either
    of the line's, so the slacks are the horizon's, which scale with
    (c, C0) -> (s^2 c, s C0).
    """
    return _clause(_curv(c), *_spectrum(_smat(C0)), domain)


def _clause(c: float, w: np.ndarray, rho: float, domain: GeodesicDomain) -> SpectrumVerdict:
    """:func:`classify_splitting_spectrum` on the spectrum (w, rho) of C0."""
    a = math.sqrt(abs(c))
    if domain.kind is DomainKind.SEGMENT and not (c > 0.0 and domain.b >= math.pi / a):
        return SpectrumVerdict(True)
    if c > 0.0:
        clause, interval = Clause.I, None
    elif domain.kind is DomainKind.RAY:
        clause, interval = Clause.II, (-math.inf, a)
    elif c == 0.0:  # flat line
        clause, interval = Clause.II1, (0.0, 0.0)
    else:  # line
        clause, interval = Clause.II2, (-a, a)
    line = domain.kind is DomainKind.LINE
    bad = [x for x in _real_parts(w, rho) if _singular_time(c, x, w, rho) is not None
           or (line and _singular_time(c, -x, w, rho) is not None)]
    if bad:
        return SpectrumVerdict(False, clause, tuple(complex(x) for x in bad), interval)
    return SpectrumVerdict(True, admissible_interval=interval)


def _eig_blocks(w: np.ndarray, unit: float):
    """Cluster the eigenvalues ``w`` into distinct eigenvalues with
    multiplicities, within ``EIG_CLUSTER_TOL (unit + |lambda|)``."""
    blocks: list[list[complex]] = []
    for lam in sorted(w, key=lambda z: (z.real, z.imag)):
        if blocks and abs(lam - blocks[-1][-1]) <= EIG_CLUSTER_TOL * (unit + abs(lam)):
            blocks[-1].append(lam)
        else:
            blocks.append([lam])
    return [(sum(b) / len(b), len(b)) for b in blocks]


def _null_space(M: np.ndarray, rel: float = 1e-8) -> np.ndarray:
    """Orthonormal basis of ker M (columns): the singular values at most
    ``rel`` times the largest count as zero; may be empty."""
    u, s, vt = np.linalg.svd(M)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(M.shape[1])
    rank = int(np.sum(s > rel * s[0]))
    return vt[rank:].T


def decay_report(A0, c, C0, domain: GeodesicDomain) -> DecayReport:
    """Per-eigenspace asymptotics of A(t) = A0 J(t)^{-1} on a ray or line.

    The conullity splits into the eigenspace of the critical eigenvalue
    sqrt(-c) (0 for flat ambient space) and its complement.  Off the critical
    eigenspace the shape image decays; on it, flat space gives parallel
    constant data while negative curvature gives exponential blow-up unless
    the initial shape image already vanishes there, below 1e-10 max|A0|: the
    verdicts do not change when A0 is scaled.

    Raises :class:`PreconditionViolated` unless ``A0`` is Codazzi compatible
    with ``C0``: otherwise A0 J(t)^{-1} is no shape operator, and the
    per-block asymptotics do not describe it.
    """
    c = _curv(c)
    C0 = _smat(C0)
    A0 = _ops(A0)
    if domain.kind is DomainKind.SEGMENT:
        raise ValueError("decay report requires a ray or a line")
    if c > 0.0:
        raise ValueError("decay report is defined for c <= 0 only")
    if not is_codazzi_compatible(A0, C0):
        raise PreconditionViolated("decay report requires A0 Codazzi compatible with C0")
    w, radius = _spectrum(C0)
    verdict = _clause(c, w, radius, domain)
    if not verdict.consistent:
        raise InconsistentSpectrum(
            f"clause {verdict.violated_clause.value} violated by "
            f"{verdict.offending_eigenvalues}"
        )

    a = math.sqrt(-c)
    # the tolerances are relative to the geometry's own scale: sqrt(-c), or
    # rho(C0) in flat space, where sqrt(-c) = 0
    unit = a if c < 0.0 else radius
    if c == 0.0:
        # the critical eigenspace is ker C0 at C0's numerical rank, singular
        # values within 4 q eps of the largest (the SVD's own rounding, for
        # normal and non-normal C0 alike), and its critical eigenvalues are
        # the dim ker C0 eigenvalues nearest 0: a large eigenvalue elsewhere
        # makes no small one critical, and a computed zero of a non-normal
        # C0, off by about eps ||C0|| times its condition, stays critical
        E = _null_space(C0, _rounding(w, 1.0))
        near = np.sort(np.abs(w))[E.shape[1] - 1] if E.shape[1] else -1.0
    else:
        E = _null_space(C0 - a * np.eye(C0.shape[0]))
        near = EIG_CLUSTER_TOL * (unit + a)
    scale = max((np.abs(m).max(initial=0.0) for m in A0), default=0.0)
    crit_image = max((np.abs(m @ E).max(initial=0.0) for m in A0), default=0.0)
    crit_nonzero = crit_image > 1e-10 * scale

    blocks = []
    for lam, mult in _eig_blocks(w, unit):
        is_real = abs(lam.imag) <= 1e-8 * (unit + abs(lam))
        critical = is_real and abs(lam.real - a) <= near
        if critical:
            if c == 0.0:
                blocks.append(DecayBlock(lam, mult, BlockBehavior.PARALLEL_CONSTANT, 0.0))
            elif crit_nonzero:
                blocks.append(DecayBlock(lam, mult, BlockBehavior.BLOWS_UP, a))
            else:
                blocks.append(DecayBlock(lam, mult, BlockBehavior.IDENTICALLY_ZERO, 0.0))
        else:
            blocks.append(DecayBlock(lam, mult, BlockBehavior.DECAYS_TO_ZERO, a))

    behaviors = {b.behavior for b in blocks}
    if scale == 0.0:
        limit = AlphaLimit.ZERO
    elif BlockBehavior.BLOWS_UP in behaviors:
        limit = AlphaLimit.DIVERGENT
    elif BlockBehavior.PARALLEL_CONSTANT in behaviors and crit_nonzero:
        # nonzero constant part; mixed when the complement also carries shape
        P = np.eye(C0.shape[0]) - E @ E.T
        off = max(np.abs(m @ P).max(initial=0.0) for m in A0)
        limit = AlphaLimit.MIXED if off > 1e-10 * scale else AlphaLimit.NONZERO
    else:
        limit = AlphaLimit.ZERO

    # the scaled form of J keeps the critical eigenspace accurate at large t,
    # until its factor M underflows there
    times = DECAY_SAMPLE_TIMES
    try:
        As = _shape_grid(c, C0, A0, times)
    except NullityError:
        As, times = [], ()
    samples = []
    for k, t in enumerate(times):
        total = crit = 0.0
        for A in As:
            total = max(total, np.abs(A[k]).max(initial=0.0))
            crit = max(crit, np.abs(A[k] @ (E @ E.T)).max(initial=0.0))
        samples.append((t, total, crit))

    return DecayReport(tuple(blocks), limit, tuple(samples), radius)


def signature_counts(A: np.ndarray):
    """(positive, negative) eigenvalue counts of a symmetric operator,
    excluding eigenvalues w within 1e-8 max|w| of zero, so scale-free."""
    w = np.linalg.eigvalsh(_sym(np.asarray(A, dtype=float)))
    cutoff = 1e-8 * np.abs(w).max(initial=0.0)
    pos = int(np.sum(w > cutoff))
    neg = int(np.sum(w < -cutoff))
    return pos, neg


def sign_balance_check(A0, c, C0) -> bool:
    """For c > 0 and a splitting tensor without real eigenvalues, check that
    each shape operator has equally many positive and negative eigenvalues."""
    c = _curv(c)
    C0 = _smat(C0)
    A0 = _ops(A0)
    if c <= 0.0:
        raise PreconditionViolated("sign balance requires c > 0")
    reals = real_eigenvalues(C0)
    if reals:
        raise PreconditionViolated(
            f"splitting tensor has real eigenvalues {reals}; the geodesic "
            f"cannot reach pi/sqrt(c)"
        )
    for m in A0:
        pos, neg = signature_counts(m)
        if pos != neg:
            return False
    return True
