"""Random test-data generators shared by the invariant suite and the tests.

The Codazzi-compatible pair construction C0 = S0^{-1} S1 (S0 invertible
symmetric, S1 symmetric) makes every product A S0^{-1} (S1 S0^{-1})^k
symmetric, so {S0, S1} is compatible with C0 for all powers.
"""
from __future__ import annotations

import numpy as np

from .core import ShapeOperatorSet, SplittingTensor

__all__ = [
    "random_splitting_tensor",
    "random_compatible_pair",
]


def random_splitting_tensor(rng: np.random.Generator, q: int) -> np.ndarray:
    """Dense q x q matrix with entries uniform in [-1, 1]."""
    return rng.uniform(-1.0, 1.0, size=(q, q))


def _random_symmetric(rng: np.random.Generator, q: int) -> np.ndarray:
    m = rng.uniform(-1.0, 1.0, size=(q, q))
    return 0.5 * (m + m.T)


def _random_invertible_symmetric(rng: np.random.Generator, q: int) -> np.ndarray:
    """Symmetric matrix with eigenvalues bounded away from zero (|w| in
    [0.3, 1.3], random signs)."""
    g = rng.normal(size=(q, q))
    Q, _ = np.linalg.qr(g)
    w = rng.uniform(0.3, 1.3, size=q) * rng.choice([-1.0, 1.0], size=q)
    return (Q * w) @ Q.T


def random_compatible_pair(rng: np.random.Generator, q: int, p: int = 1):
    """(A0, C0) with A0 Codazzi compatible with C0: A0 holds S0 for p = 1,
    S0 and S1 for p = 2."""
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p}")
    S0 = _random_invertible_symmetric(rng, q)
    S1 = _random_symmetric(rng, q)
    C0 = np.linalg.solve(S0, S1)
    return ShapeOperatorSet((S0, S1)[:p]), SplittingTensor(C0)
