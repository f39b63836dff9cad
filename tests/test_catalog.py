import dataclasses
import math

import numpy as np
import pytest

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
        (lambda: verify_model(dataclasses.replace(cartan_veronese_polar(),
                                                  expected_properties=("flat",))),
         r"^unknown expected property 'flat'$"),
    ],
    ids=["rho-int-huge", "unknown-property"],
)
def test_documented_argument_errors(call, match):
    with pytest.raises(ValueError, match=match):
        call()
