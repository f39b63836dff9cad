import math

import numpy as np
import pytest

from nullgeo.core import SingularJacobi, _rk4_segments


# scale factors that are exact in floating point: a scale-free verdict must
# not change under any of them
POWERS_OF_TWO = (2.0, 0.5, 2.0**60, 2.0**-60)
# and 2**+-40, where absolute slacks of 1e-10 and 1e-12 once decided
SCALES = (*POWERS_OF_TWO, 2.0**40, 2.0**-40)


def bits(x) -> np.ndarray:
    """The int64 view of ``x`` as floats: equal views are equal bits, and
    tell -0.0 from 0.0, which array_equal does not."""
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def rk4_second_order(c, C0, t_end, n_steps=2000):
    """Independent RK4 integration of J'' + c J = 0 with J(0)=I, J'(0)=-C0,
    as the first-order system (J, J')' = (J', -cJ) in ``n_steps`` equal
    steps.  Used as an oracle for the closed form."""
    def f(t, y):
        return np.stack((y[1], -c * y[0]))

    y0 = np.stack((np.eye(C0.shape[0]), -C0))
    J, dJ = rk4_path(f, y0, [t_end], t_end / n_steps, math.inf)[0]
    return J, dJ


def rk4_path(f, y0, times, step, guard_norm):
    """Textbook RK4 integration of y' = f(t, y) from t = 0, recording y at
    each of the sorted ``times``: the reference for the library's
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


def jacobi_scalars(c, t):
    """The coefficients u, v, u', v' of J(t) = u I - v C0, with ``math``
    arithmetic one time at a time."""
    a = math.sqrt(abs(c))
    if c == 0.0:
        return 1.0, t, 0.0, 1.0
    if c > 0.0:
        co, si = math.cos(a * t), math.sin(a * t)
        return co, si / a, -a * si, co
    co, si = math.cosh(a * t), math.sinh(a * t)
    return co, si / a, a * si, co


def det_sampling_bmax(c, C0, scan_to=10.0, step=1e-3, bisect_tol=1e-12):
    """Dense det-sampling of the closed-form Jacobi matrix with bisection
    refinement.  Independent of the eigenvalue route in the library."""
    q = C0.shape[0]
    eye = np.eye(q)

    def det(t):
        u, v, _, _ = jacobi_scalars(c, t)
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
