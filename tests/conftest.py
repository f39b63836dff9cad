import math

import numpy as np
import pytest

from nullgeo.core import SingularJacobi, _rk4_segments


# scale factors that are exact in floating point: a scale-free verdict must
# not change under any of them
POWERS_OF_TWO = (2.0, 0.5, 2.0**60, 2.0**-60)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def rk4_second_order(c, C0, t_end, n_steps=2000):
    """Independent RK4 integration of J'' + c J = 0 with J(0)=I, J'(0)=-C0,
    as a first-order system.  Used as an oracle for the closed form."""
    q = C0.shape[0]
    J = np.eye(q)
    dJ = -C0.copy()
    h = t_end / n_steps

    def f(state):
        J, dJ = state
        return dJ, -c * J

    for _ in range(n_steps):
        k1 = f((J, dJ))
        k2 = f((J + 0.5 * h * k1[0], dJ + 0.5 * h * k1[1]))
        k3 = f((J + 0.5 * h * k2[0], dJ + 0.5 * h * k2[1]))
        k4 = f((J + h * k3[0], dJ + h * k3[1]))
        J = J + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        dJ = dJ + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return J, dJ


def rk4_path(f, y0, times, step, guard_norm):
    """Textbook RK4 integration of y' = f(t, y) from t = 0, recording y at
    each of the sorted ``times``: the reference for the library's stacked
    steppers, which must give its bits.  Steps never exceed ``step`` and land
    exactly on every record time; the run stops with ``SingularJacobi`` once
    max |y| reaches ``guard_norm`` (or is NaN)."""
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
            m = np.abs(y).max()
            if not m < guard_norm:
                raise SingularJacobi(
                    f"trajectory norm {m:.3g} exceeded blow-up guard near t={t:.6g}"
                )
        out.append(y.copy())
    return out


def rank_one_draws(count: int = 300, seed: int = 1111) -> list:
    """``(c, C0, times, step)`` of lone q = 1 Riccati cases: c in
    {-1, 0, 1}·(0.1..3) of either sign (so c = -0.0 too), C0 uniform in
    (-3, 3) with +0.0 and -0.0 among them, steps 1e-3, 2e-2 and 0.1, and
    four record times within 20..300 steps, one of them repeated and some
    starting at 0.  About a third of them reach the blow-up guard."""
    rng = np.random.default_rng(seed)
    draws = []
    for i in range(count):
        step = (1e-3, 2e-2, 0.1)[i % 3]
        c = (-1.0, 0.0, 1.0)[(i // 3) % 3] * float(rng.uniform(0.1, 3.0))
        c = -c if i % 2 else c
        y0 = (0.0, -0.0)[i % 10 // 5] if i % 5 == 0 else float(rng.uniform(-3.0, 3.0))
        ts = sorted(rng.uniform(0.0, step * int(rng.integers(20, 300)), size=3).tolist())
        times = [0.0 if i % 7 == 0 else ts[0], ts[1], ts[1], ts[2]]
        draws.append((c, np.array([[y0]]), times, step))
    return draws


def det_sampling_bmax(c, C0, scan_to=10.0, step=1e-3, bisect_tol=1e-12):
    """Dense det-sampling of the closed-form Jacobi matrix with bisection
    refinement.  Independent of the eigenvalue route in the library."""
    q = C0.shape[0]
    eye = np.eye(q)

    def scalars(t):
        if c > 0:
            a = math.sqrt(c)
            return math.cos(a * t), math.sin(a * t) / a
        if c < 0:
            a = math.sqrt(-c)
            return math.cosh(a * t), math.sinh(a * t) / a
        return 1.0, t

    def det(t):
        u, v = scalars(t)
        return float(np.linalg.det(u * eye - v * C0))

    ts = np.arange(0.0, scan_to + step, step)
    u = np.cos(math.sqrt(c) * ts) if c > 0 else (np.cosh(math.sqrt(-c) * ts) if c < 0 else np.ones_like(ts))
    v = (
        np.sin(math.sqrt(c) * ts) / math.sqrt(c)
        if c > 0
        else (np.sinh(math.sqrt(-c) * ts) / math.sqrt(-c) if c < 0 else ts)
    )
    J = u[:, None, None] * eye - v[:, None, None] * C0
    dets = np.linalg.det(J)
    sign_flip = np.flatnonzero(np.sign(dets[:-1]) != np.sign(dets[1:]))
    if sign_flip.size == 0:
        return math.inf
    lo = float(ts[sign_flip[0]])
    hi = float(ts[sign_flip[0] + 1])
    flo = det(lo)
    while hi - lo > bisect_tol:
        mid = 0.5 * (lo + hi)
        fm = det(mid)
        if fm == 0.0:
            return mid
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)
