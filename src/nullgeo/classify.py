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
    INTERVAL_SLACK,
    DomainKind,
    GeodesicDomain,
    NullityError,
    _Evolution,
    _curv,
    _smat,
    _sset,
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

EIG_CLUSTER_TOL = 1e-8   # eigenvalues closer than this are one block
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
    # the critical eigenspace) at a few large times
    samples: tuple = ()


def classify_splitting_spectrum(c, C0, domain: GeodesicDomain) -> SpectrumVerdict:
    """Apply the eigenvalue clause matching (sign of c, domain kind).

    c > 0 with the geodesic reaching pi/sqrt(c): no real eigenvalues at all.
    c <= 0 on a ray: real eigenvalues at most sqrt(-c).  On a line the
    two-sided constraint pins real eigenvalues to {0} (c = 0) or to
    [-sqrt(-c), sqrt(-c)] (c < 0).
    """
    c = _curv(c)
    C0 = _smat(C0)
    reals = real_eigenvalues(C0)

    if c > 0.0:
        horizon = math.pi / math.sqrt(c)
        reaches = domain.kind is not DomainKind.SEGMENT or domain.b >= horizon
        if reaches and reals:
            return SpectrumVerdict(False, Clause.I, tuple(complex(x) for x in reals))
        return SpectrumVerdict(True)

    a = math.sqrt(-c)
    if domain.kind is DomainKind.SEGMENT:
        return SpectrumVerdict(True)
    if domain.kind is DomainKind.RAY:
        bad = [x for x in reals if x > a + INTERVAL_SLACK]
        if bad:
            return SpectrumVerdict(
                False, Clause.II, tuple(complex(x) for x in bad), (-math.inf, a)
            )
        return SpectrumVerdict(True, admissible_interval=(-math.inf, a))
    # line
    if c == 0.0:
        bad = [x for x in reals if abs(x) > INTERVAL_SLACK]
        if bad:
            return SpectrumVerdict(
                False, Clause.II1, tuple(complex(x) for x in bad), (0.0, 0.0)
            )
        return SpectrumVerdict(True, admissible_interval=(0.0, 0.0))
    bad = [x for x in reals if abs(x) > a + INTERVAL_SLACK]
    if bad:
        return SpectrumVerdict(
            False, Clause.II2, tuple(complex(x) for x in bad), (-a, a)
        )
    return SpectrumVerdict(True, admissible_interval=(-a, a))


def _eig_blocks(C0: np.ndarray):
    """Cluster the spectrum into distinct eigenvalues with multiplicities."""
    eigs = sorted(np.linalg.eigvals(C0), key=lambda z: (z.real, z.imag))
    blocks: list[list[complex]] = []
    for lam in eigs:
        if blocks and abs(lam - blocks[-1][-1]) <= EIG_CLUSTER_TOL * (1.0 + abs(lam)):
            blocks[-1].append(lam)
        else:
            blocks.append([lam])
    return [(sum(b) / len(b), len(b)) for b in blocks]


def _null_space(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ker M (columns); may be empty."""
    u, s, vt = np.linalg.svd(M)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(M.shape[1])
    rank = int(np.sum(s > 1e-8 * s[0]))
    return vt[rank:].T


def _critical_eigenspace(C0: np.ndarray, a: float) -> np.ndarray:
    return _null_space(C0 - a * np.eye(C0.shape[0]))


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
    A0 = _sset(A0)
    if domain.kind is DomainKind.SEGMENT:
        raise ValueError("decay report requires a ray or a line")
    if c > 0.0:
        raise ValueError("decay report is defined for c <= 0 only")
    if not is_codazzi_compatible(A0, C0):
        raise PreconditionViolated("decay report requires A0 Codazzi compatible with C0")
    verdict = classify_splitting_spectrum(c, C0, domain)
    if not verdict.consistent:
        raise InconsistentSpectrum(
            f"clause {verdict.violated_clause.value} violated by "
            f"{verdict.offending_eigenvalues}"
        )

    a = math.sqrt(-c)
    scale = max((np.abs(m).max(initial=0.0) for m in A0.ops), default=0.0)
    E = _critical_eigenspace(C0, a)
    crit_image = 0.0
    if E.shape[1] and A0.p:
        crit_image = max(np.abs(m @ E).max(initial=0.0) for m in A0.ops)
    crit_nonzero = crit_image > 1e-10 * scale

    blocks = []
    for lam, mult in _eig_blocks(C0):
        is_real = abs(lam.imag) <= 1e-8 * (1.0 + abs(lam))
        critical = is_real and abs(lam.real - a) <= EIG_CLUSTER_TOL * (1.0 + a)
        if critical:
            if c == 0.0:
                blocks.append(DecayBlock(lam, mult, BlockBehavior.PARALLEL_CONSTANT, 0.0))
            elif crit_nonzero:
                blocks.append(DecayBlock(lam, mult, BlockBehavior.BLOWS_UP, a))
            else:
                blocks.append(DecayBlock(lam, mult, BlockBehavior.IDENTICALLY_ZERO, 0.0))
        else:
            blocks.append(DecayBlock(lam, mult, BlockBehavior.DECAYS_TO_ZERO, a))

    all_zero = all(np.abs(m).max(initial=0.0) == 0.0 for m in A0.ops) or A0.p == 0
    behaviors = {b.behavior for b in blocks}
    if all_zero:
        limit = AlphaLimit.ZERO
    elif BlockBehavior.BLOWS_UP in behaviors:
        limit = AlphaLimit.DIVERGENT
    elif BlockBehavior.PARALLEL_CONSTANT in behaviors and crit_nonzero:
        # nonzero constant part; mixed when the complement also carries shape
        off = 0.0
        if E.shape[1] < C0.shape[0] and A0.p:
            P = np.eye(C0.shape[0]) - E @ E.T
            off = max(np.abs(m @ P).max(initial=0.0) for m in A0.ops)
        limit = AlphaLimit.MIXED if off > 1e-10 * scale else AlphaLimit.NONZERO
    else:
        limit = AlphaLimit.ZERO

    samples = []
    # the scaled form of J keeps the critical eigenspace accurate at large t
    for t, Jinv in zip(DECAY_SAMPLE_TIMES, _Evolution(c, C0).inverse(DECAY_SAMPLE_TIMES)):
        total = 0.0
        crit = 0.0
        for m in A0.ops:
            at = m @ Jinv
            total = max(total, np.abs(at).max(initial=0.0))
            if E.shape[1]:
                crit = max(crit, np.abs(at @ (E @ E.T)).max(initial=0.0))
        samples.append((t, total, crit))

    return DecayReport(tuple(blocks), limit, tuple(samples))


def signature_counts(A: np.ndarray):
    """(positive, negative) eigenvalue counts of a symmetric operator,
    excluding eigenvalues w within 1e-8 max|w| of zero, so scale-free."""
    A = np.asarray(A, dtype=float)
    w = np.linalg.eigvalsh(0.5 * (A + A.T))
    cutoff = 1e-8 * np.abs(w).max(initial=0.0)
    pos = int(np.sum(w > cutoff))
    neg = int(np.sum(w < -cutoff))
    return pos, neg


def sign_balance_check(A0, c, C0) -> bool:
    """For c > 0 and a splitting tensor without real eigenvalues, check that
    each shape operator has equally many positive and negative eigenvalues."""
    c = _curv(c)
    C0 = _smat(C0)
    A0 = _sset(A0)
    if c <= 0.0:
        raise PreconditionViolated("sign balance requires c > 0")
    reals = real_eigenvalues(C0)
    if reals:
        raise PreconditionViolated(
            f"splitting tensor has real eigenvalues {reals}; the geodesic "
            f"cannot reach pi/sqrt(c)"
        )
    for m in A0.ops:
        pos, neg = signature_counts(m)
        if pos != neg:
            return False
    return True
