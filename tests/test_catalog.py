import dataclasses
import inspect
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nullgeo import catalog
from nullgeo.catalog import (
    cartan_veronese_polar,
    euclidean_cylinder,
    hyperbolic_cylinder,
    totally_geodesic,
    verify_model,
)
from nullgeo.classify import AlphaLimit, decay_report
from nullgeo.core import GeodesicDomain, max_invertible_time


ALL_MODELS = [
    totally_geodesic(5, 2, -1.0),
    totally_geodesic(3, 1, 1.0),
    hyperbolic_cylinder(1, 2, 1.0),
    hyperbolic_cylinder(2, 5, 0.7),
    cartan_veronese_polar(),
    euclidean_cylinder(3, 0.5),
    # at the size limits: n = 256, and 65536 shape entries n*n*p
    totally_geodesic(256, 1, 0.0),
    totally_geodesic(16, 256, 0.0),
    hyperbolic_cylinder(255, 256, 1.0),
    euclidean_cylinder(256, 1.0),
]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_all_expected_properties_hold(model):
    results = verify_model(model)
    assert set(results) == set(model.expected_properties)
    failed = [k for k, ok in results.items() if not ok]
    assert not failed, f"{model.name}: {failed}"


class TestHyperbolicCylinder:
    def test_principal_curvatures(self):
        m = hyperbolic_cylinder(1, 3, 2.0)
        lam = np.diag(m.shape[0])
        assert lam[0] == pytest.approx(math.sqrt(5.0) / 2.0, abs=1e-15)
        assert lam[1] == pytest.approx(2.0 / math.sqrt(5.0), abs=1e-15)
        assert lam[0] * lam[1] == pytest.approx(1.0, abs=1e-15)

    def test_no_nullity(self):
        m = hyperbolic_cylinder(1, 2, 1.0)
        assert m.profile.nu == 0
        w = np.linalg.eigvalsh(m.shape[0])
        assert np.abs(w).min() > 0.5

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            hyperbolic_cylinder(0, 2, 1.0)
        with pytest.raises(ValueError):
            hyperbolic_cylinder(1, 2, -1.0)


class TestCartanVeronese:
    def test_shape_spectrum(self):
        m = cartan_veronese_polar()
        w = np.sort(np.linalg.eigvalsh(m.shape[0]))
        np.testing.assert_allclose(w, [-math.sqrt(3.0), 0.0, math.sqrt(3.0)], atol=1e-15)

    def test_splitting_never_singular(self):
        m = cartan_veronese_polar()
        (C,) = m.splitting_family.basis
        assert max_invertible_time(1.0, C) == math.inf

    def test_conullity_curvatures_constant_along_leaf(self):
        from nullgeo.core import shape_operator_at

        m = cartan_veronese_polar()
        A0 = m.conullity_shape()
        (C,) = m.splitting_family.basis
        for t in np.linspace(0.0, 2.0 * math.pi, 9):
            A = shape_operator_at(A0, 1.0, C, float(t))
            w = np.sort(np.linalg.eigvalsh(A.ops[0]))
            np.testing.assert_allclose(
                w, [-math.sqrt(3.0), math.sqrt(3.0)], atol=1e-8
            )


class TestEuclideanCylinder:
    def test_decay_along_vanishing_splitting(self):
        m = euclidean_cylinder(4, 1.5)
        A0 = m.conullity_shape()
        (C0, *_) = m.splitting_family.basis
        rep = decay_report(A0, 0.0, C0, GeodesicDomain.line())
        assert rep.global_alpha_limit is AlphaLimit.NONZERO

    def test_kernel_dimension(self):
        m = euclidean_cylinder(5, 2.0)
        s = np.linalg.svd(m.shape[0], compute_uv=False)
        assert int(np.sum(s <= 1e-10 * s[0])) == 4

    def test_rejects_flat_curve(self):
        with pytest.raises(ValueError):
            euclidean_cylinder(3, 0.0)


def test_totally_geodesic_scalar_curvature_is_ambient():
    from nullgeo.theorems import scalar_curvature

    for c in (-1.0, 0.0, 1.0):
        m = totally_geodesic(4, 1, c)
        assert scalar_curvature(m.shape, 4, c) == c


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: hyperbolic_cylinder(1, 2, 10**400),
         r"^rho must be a finite real number, got 1000+$"),
        (lambda: hyperbolic_cylinder(1, 3, 1e-5),
         r"^rho must lie in \[0\.0001, 1\.34078e\+154\], got 1e-05$"),
        (lambda: hyperbolic_cylinder(1, 3, math.nextafter(math.sqrt(sys.float_info.max), math.inf)),
         r"^rho must lie in \[0\.0001, 1\.34078e\+154\], got 1\.3407807929942597e\+154$"),
        (lambda: totally_geodesic(3, 1.5, 1.0), r"^p must be an integer, got 1\.5$"),
        (lambda: totally_geodesic(3.5, 1, 1.0), r"^n must be an integer, got 3\.5$"),
        (lambda: totally_geodesic(3, True, 1.0), r"^p must be an integer, got True$"),
        (lambda: totally_geodesic(3, 1, 10**400),
         r"^curvature must be finite, got an integer beyond the float range$"),
        (lambda: totally_geodesic(3, 1, [1.0]), r"^curvature must be a real number, got \[1\.0\]$"),
        (lambda: hyperbolic_cylinder(1, 3.5, 1.0), r"^n must be an integer, got 3\.5$"),
        (lambda: hyperbolic_cylinder(1.0, 3, 1.0), r"^k must be an integer, got 1\.0$"),
        (lambda: euclidean_cylinder(2.5, 1.0), r"^n must be an integer, got 2\.5$"),
        (lambda: euclidean_cylinder(False, 1.0), r"^n must be an integer, got False$"),
        (lambda: verify_model(dataclasses.replace(cartan_veronese_polar(),
                                                  expected_properties=("flat",))),
         r"^unknown expected property 'flat'$"),
    ],
    ids=["rho-int-huge", "rho-below-floor", "rho-square-overflows", "tg-p-float", "tg-n-float",
         "tg-p-bool", "tg-c-int-huge", "tg-c-list", "hc-n-float", "hc-k-float", "ec-n-float", "ec-n-bool",
         "unknown-property"],
)
def test_documented_argument_errors(call, match):
    with pytest.raises(ValueError, match=match):
        call()


SIZES_PAST_THE_LIMITS = {
    "tg-n-257": (lambda: totally_geodesic(257, 1, 0.0), r"^n must be at most 256, got 257$"),
    "tg-n-1e6": (lambda: totally_geodesic(10**6, 1, 0.0), r"^n must be at most 256, got 1000000$"),
    "tg-npp-65792": (lambda: totally_geodesic(16, 257, 0.0),
                     r"^n\*n\*p must be at most 65536 shape entries, got n = 16, p = 257$"),
    "hc-n-257": (lambda: hyperbolic_cylinder(1, 257, 1.0), r"^n must be at most 256, got 257$"),
    "hc-n-1e6": (lambda: hyperbolic_cylinder(1, 10**6, 1.0),
                 r"^n must be at most 256, got 1000000$"),
    "ec-n-257": (lambda: euclidean_cylinder(257, 1.0), r"^n must be at most 256, got 257$"),
    "ec-n-1e6": (lambda: euclidean_cylinder(10**6, 1.0), r"^n must be at most 256, got 1000000$"),
}


@pytest.mark.parametrize("call,match", SIZES_PAST_THE_LIMITS.values(), ids=SIZES_PAST_THE_LIMITS)
def test_sizes_past_the_limits_are_refused_before_any_array(call, match):
    # n = 10**6 once asked numpy for 7.28 TiB, and the cylinders built a
    # list of n floats first; the limits are checked before either
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=match):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("rho", [1e-4, 1e-3, 0.01, 1e50, math.sqrt(sys.float_info.max)])
def test_hyperbolic_cylinder_verifies_across_its_range(rho):
    # the Gauss identities hold relative to their terms, of size 1/rho^2
    # for small rho, where an absolute 1e-12 failed from rho = 0.01 down
    for k, n in ((1, 2), (1, 3), (2, 5)):
        assert all(verify_model(hyperbolic_cylinder(k, n, rho)).values())


def _mostly(valid, other):
    """Draws of ``valid`` three times in four, of ``other`` otherwise."""
    return st.sampled_from((valid, valid, valid, other)).flatmap(lambda s: s)


def _magnitudes(lo: int, hi: int):
    """A mantissa in [1, 10) times 10**e, e in [lo, hi], capped at the
    largest float: every magnitude, from 0 and the subnormals up."""
    return st.tuples(st.floats(1.0, 10.0, exclude_max=True), st.integers(lo, hi)).map(
        lambda m_e: min(m_e[0] * 10.0**m_e[1], sys.float_info.max))


# dimensions stay small: a model holds n x n arrays, and the catalog caps n at 256
dims = _mostly(st.integers(1, 8), st.integers(-2, 0) | st.sampled_from((1.5, 3.0, True, False)))
reals = _mostly(_magnitudes(-324, 308) | _magnitudes(-324, 308).map(lambda x: -x),
                st.floats() | st.booleans() | st.integers(-(10**400), 10**400))
# radii mostly about the accepted range [1e-4, 1.3e154], often near its floor
radii = _mostly(_magnitudes(-6, 2) | _magnitudes(-6, 155), reals)
PARAMS = {
    "totally_geodesic": (dims, dims, reals),
    "hyperbolic_cylinder": (dims, dims, radii),
    "euclidean_cylinder": (dims, reals),
}


def test_params_cover_every_entry_that_takes_parameters():
    # a new catalog entry with parameters is drawn here, or this fails
    arity = {name: len(inspect.signature(f).parameters) for name, f in catalog.MODELS.items()}
    assert {name: len(s) for name, s in PARAMS.items()} == {n: a for n, a in arity.items() if a}


@given(name=st.sampled_from(sorted(PARAMS)), data=st.data())
@settings(derandomize=True, max_examples=400, deadline=500)
def test_every_accepted_model_verifies(name, data):
    # each draw builds a model that verifies, or raises ValueError
    args = [data.draw(s) for s in PARAMS[name]]
    try:
        model = getattr(catalog, name)(*args)
    except ValueError:
        return
    assert all(verify_model(model).values()), (name, args)
