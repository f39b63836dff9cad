"""Exact model configurations used as ground truth for the evolution and
classification machinery.  Entries store tensor-level data only (no ambient
embeddings); the cylinder sample generators emit exact analytic points."""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from . import classify, theorems
from .core import GeodesicDomain, NullityProfile, _curv, is_codazzi_compatible
from .theorems import SplittingFamily

__all__ = [
    "MODELS",
    "ModelSubmanifold",
    "totally_geodesic",
    "hyperbolic_cylinder",
    "cartan_veronese_polar",
    "euclidean_cylinder",
    "circle_line_samples",
    "cone_samples",
    "verify_model",
]


@dataclass(frozen=True)
class ModelSubmanifold:
    name: str
    profile: NullityProfile
    c: float                             # curvature of the ambient space form
    shape: np.ndarray                    # (p, n, n) shape operators, zero on the nullity
    splitting_family: SplittingFamily    # on the conullity (q x q members)
    conullity_indices: tuple             # coordinates spanning the conullity
    expected_properties: tuple           # names understood by verify_model
    params: dict = field(default_factory=dict)  # what ``shape`` does not hold

    def conullity_shape(self) -> np.ndarray:
        """The (p, q, q) shape operators restricted to the conullity block."""
        idx = np.asarray(self.conullity_indices, dtype=int)
        return self.shape[:, idx[:, None], idx]


# kernel_dim counts a singular value at most this share of the largest as zero
_KERNEL_REL = 1e-10
# the hyperbolic cylinder radii rho whose models verify: from the floor,
# where lam_h / lam_s = rho^2 / (1 + rho^2) is 1e-8, 100 times _KERNEL_REL,
# to the largest rho whose rho^2 is finite
_RHO_RANGE = (1e-4, math.sqrt(sys.float_info.max))
# the largest dimension n of a model; totally_geodesic also holds at most
# _DIM_MAX**2 = 65536 shape entries n*n*p, one operator of the largest n
_DIM_MAX = 256


def _dim(name: str, x, top: float = math.inf) -> int:
    """``x`` as an int; ValueError unless it is an integer (a bool is not)
    of at most ``top``."""
    if not isinstance(x, numbers.Integral) or isinstance(x, bool):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    if x > top:
        raise ValueError(f"{name} must be at most {top}, got {x}")
    return int(x)


def _finite_real(name: str, x) -> float:
    """``x`` as a float; ValueError unless it is a finite real number."""
    try:
        ok = isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a finite real number, got {x!r}")
    return float(x)


def totally_geodesic(n: int, p: int, c: float) -> ModelSubmanifold:
    """Zero second fundamental form; the nullity is everything.  ValueError
    for n < 2, where the scalar curvature it is checked for is undefined."""
    n, p = _dim("n", n, _DIM_MAX), _dim("p", p)
    if n < 2:
        raise ValueError("n must be >= 2")
    if n * n * p > _DIM_MAX**2:
        raise ValueError(f"n*n*p must be at most {_DIM_MAX**2} shape entries, got n = {n}, p = {p}")
    zero = np.zeros((n, n))
    return ModelSubmanifold(
        name="totally_geodesic",
        profile=NullityProfile(n=n, p=p, nu=n),
        c=_curv(c),
        shape=np.tile(zero, (p, 1, 1)),
        splitting_family=SplittingFamily(basis=tuple(np.zeros((0, 0)) for _ in range(n))),
        conullity_indices=(),
        expected_properties=("kernel_dim", "scalar_curvature_is_c", "codazzi_compatible"),
    )


def hyperbolic_cylinder(k: int, n: int, rho: float) -> ModelSubmanifold:
    """Isoparametric hypersurface S^k(rho) x H^(n-k)(sqrt(1+rho^2)) of
    hyperbolic space, with two distinct principal curvatures
    lam_s = sqrt(1+rho^2)/rho (multiplicity k) and lam_h = rho/sqrt(1+rho^2).

    Umbilic-free, shape operator bounded away from zero, strictly positive
    extrinsic curvature, and no relative nullity at all (nu = 0).  ValueError
    for rho outside [1e-4, sqrt(DBL_MAX)], where ``verify_model`` would fail.
    """
    k, n = _dim("k", k), _dim("n", n, _DIM_MAX)
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    rho = _finite_real("rho", rho)
    lo, hi = _RHO_RANGE
    if not lo <= rho <= hi:
        raise ValueError(f"rho must lie in [{lo:g}, {hi:.6g}], got {rho!r}")
    lam_s = math.sqrt(1.0 + rho * rho) / rho
    lam_h = rho / math.sqrt(1.0 + rho * rho)
    diag = [lam_s] * k + [lam_h] * (n - k)
    return ModelSubmanifold(
        name="hyperbolic_cylinder",
        profile=NullityProfile(n=n, p=1, nu=0),
        c=-1.0,
        shape=np.diag(diag)[None],
        splitting_family=SplittingFamily(basis=()),
        conullity_indices=tuple(range(n)),
        expected_properties=(
            "kernel_dim",
            "codazzi_compatible",
            "lambda_product_one",
            "gauss_factor_curvatures",
            "positive_extrinsic",
            "shape_bounded_away",
            "scalar_curvature_matches_gauss",
        ),
        params={"rho": rho},
    )


def cartan_veronese_polar() -> ModelSubmanifold:
    """Polar map of the Veronese surface: minimal isoparametric hypersurface
    of the 4-sphere with principal curvatures (sqrt(3), 0, -sqrt(3)) and
    nullity index 1.

    The splitting tensor along the nullity is not written down explicitly in
    the source geometry; the stored rotation generator is the unique choice
    (up to sign) without real eigenvalues that keeps the conullity principal
    curvatures constant at +-sqrt(3) and is Codazzi compatible, consistent
    with the nullity leaves being full circles.
    """
    r3 = math.sqrt(3.0)
    C = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return ModelSubmanifold(
        name="cartan_veronese_polar",
        profile=NullityProfile(n=3, p=1, nu=1),
        c=1.0,
        shape=np.diag([r3, 0.0, -r3])[None],
        splitting_family=SplittingFamily(basis=(C,)),
        conullity_indices=(0, 2),
        expected_properties=(
            "kernel_dim",
            "trace_zero",
            "codazzi_compatible",
            "cartan_identity",
            "classify_full_circle",
            "sign_balance",
        ),
    )


def euclidean_cylinder(n: int, kappa: float) -> ModelSubmanifold:
    """Cylinder over a plane curve of curvature kappa in Euclidean space:
    one nonzero principal curvature, nullity index n - 1, vanishing
    splitting family."""
    n = _dim("n", n, _DIM_MAX)
    kappa = _finite_real("kappa", kappa)
    if kappa == 0.0:
        raise ValueError("kappa must be nonzero")
    if not 1.0 / abs(kappa) < math.inf:
        raise ValueError(f"kappa = {kappa!r} is out of range: the radius 1/|kappa| is not finite")
    diag = [kappa] + [0.0] * (n - 1)
    return ModelSubmanifold(
        name="euclidean_cylinder",
        profile=NullityProfile(n=n, p=1, nu=n - 1),
        c=0.0,
        shape=np.diag(diag)[None],
        splitting_family=SplittingFamily(basis=tuple(np.zeros((1, 1)) for _ in range(n - 1))),
        conullity_indices=(0,),
        expected_properties=(
            "kernel_dim",
            "codazzi_compatible",
            "conullity_cylinder_verdict",
            "cylinder_split_ok",
        ),
    )


# the constructors by entry name, in name order
MODELS = {f.__name__: f for f in (cartan_veronese_polar, euclidean_cylinder,
                                  hyperbolic_cylinder, totally_geodesic)}


# ---------------------------------------------------------------------------
# synthetic ambient samples for cylinder_split
# ---------------------------------------------------------------------------

def circle_line_samples(radius: float = 1.0):
    """Exact samples from a round cylinder (circle x line) in 3-space: 6
    leaves, each a fixed angle on the circle, of 4 points along the axis.

    Returns (samples, leaf_ids); each sample is (point, axis basis).
    """
    samples = []
    leaf_ids = []
    axis = np.array([[0.0], [0.0], [1.0]])
    for i in range(6):
        theta = 2.0 * math.pi * i / 6
        for j in range(4):
            z = -1.0 + 2.0 * j / 3
            pt = np.array([radius * math.cos(theta), radius * math.sin(theta), z])
            samples.append((pt, axis.copy()))
            leaf_ids.append(i)
    return samples, leaf_ids


def cone_samples():
    """8 samples from a cone: the ruling direction rotates, so no constant
    factor exists."""
    samples = []
    for i in range(8):
        theta = 2.0 * math.pi * i / 8
        ruling = np.array([[math.cos(theta)], [math.sin(theta)], [1.0]]) / math.sqrt(2.0)
        pt = np.array([math.cos(theta), math.sin(theta), 1.0])
        samples.append((pt, ruling))
    return samples, list(range(8))


# ---------------------------------------------------------------------------
# machine checks for the expected properties
# ---------------------------------------------------------------------------

def verify_model(model: ModelSubmanifold) -> dict[str, bool]:
    """Evaluate every expected property of a catalog entry; returns a map
    property name -> pass.  The identities read the principal curvatures
    from the diagonal of the first shape operator, and ``params`` only for
    the radius ``rho`` of a hyperbolic cylinder.  An identity holds to
    1e-12 times its largest term, or 1e-12 where no term exceeds 1."""

    def tol(*terms: float) -> float:
        return 1e-12 * max(1.0, *map(abs, terms))

    out: dict[str, bool] = {}
    c = model.c
    cshape = model.conullity_shape()
    lam = np.diag(model.shape[0]).tolist() if len(model.shape) else []
    for prop in model.expected_properties:
        if prop == "kernel_dim":
            dims = {classify._null_space(a, _KERNEL_REL).shape[1] for a in model.shape}
            out[prop] = dims <= {model.profile.nu}
        elif prop == "codazzi_compatible":
            out[prop] = all(
                is_codazzi_compatible(cshape, C) for C in model.splitting_family.basis
            )
        elif prop == "trace_zero":
            out[prop] = all(abs(np.trace(a)) <= 1e-12 for a in model.shape)
        elif prop == "scalar_curvature_is_c":
            s = theorems.scalar_curvature(model.shape, model.profile.n, c)
            out[prop] = abs(s - c) <= 1e-12
        elif prop == "lambda_product_one":
            out[prop] = abs(lam[0] * lam[-1] - 1.0) <= 1e-15
        elif prop == "gauss_factor_curvatures":
            rho = model.params["rho"]
            ks = c + lam[0] ** 2
            kh = c + lam[-1] ** 2
            out[prop] = (
                abs(ks - 1.0 / rho**2) <= tol(c, lam[0] ** 2)
                and abs(kh + 1.0 / (1.0 + rho**2)) <= tol(c, lam[-1] ** 2)
            )
        elif prop == "positive_extrinsic":
            n = len(lam)
            out[prop] = all(
                lam[i] * lam[j] > 0.0 for i in range(n) for j in range(i + 1, n)
            )
        elif prop == "shape_bounded_away":
            out[prop] = np.abs(lam).min() > 0.0
        elif prop == "scalar_curvature_matches_gauss":
            n = len(lam)
            pair_sum = sum(
                c + lam[i] * lam[j] for i in range(n) for j in range(i + 1, n)
            )
            oracle = 2.0 * pair_sum / (n * (n - 1))
            s = theorems.scalar_curvature(model.shape, n, c)
            out[prop] = abs(s - oracle) <= tol(c, *(x * x for x in lam))
        elif prop == "cartan_identity":
            worst = 0.0
            for i in range(len(lam)):
                total = sum(
                    (1.0 + lam[i] * lam[j]) / (lam[i] - lam[j])
                    for j in range(len(lam))
                    if j != i
                )
                worst = max(worst, abs(total))
            out[prop] = worst <= 1e-12
        elif prop == "classify_full_circle":
            ok = True
            for C in model.splitting_family.basis:
                v = classify.classify_splitting_spectrum(
                    c, C, GeodesicDomain.segment(math.pi)
                )
                ok = ok and v.consistent
            out[prop] = ok
        elif prop == "sign_balance":
            ok = True
            for C in model.splitting_family.basis:
                ok = ok and classify.sign_balance_check(cshape, c, C)
            out[prop] = ok
        elif prop == "conullity_cylinder_verdict":
            v = theorems.integrable_conullity_classify(c, model.splitting_family)
            out[prop] = v.kind == "MustBeCylinder" and v.check_passed
        elif prop == "cylinder_split_ok":
            samples, leaf_ids = circle_line_samples(radius=1.0 / abs(lam[0]))
            split = theorems.cylinder_split(samples, k=1, leaf_ids=leaf_ids)
            out[prop] = split.residual <= 1e-10
        else:
            raise ValueError(f"unknown expected property {prop!r}")
    return {k: bool(v) for k, v in out.items()}
