"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here on purpose; do not loosen them to make a
failing criterion pass.
"""
import math
from pathlib import Path

import numpy as np
import pytest

from nullgeo.catalog import (
    cartan_veronese_polar,
    circle_line_samples,
    cone_samples,
    hyperbolic_cylinder,
    verify_model,
)
from nullgeo.classify import AlphaLimit, sign_balance_check, signature_counts
from nullgeo.checks import (
    CURVATURES,
    EXACT_HORIZONS,
    RH_TABLE_16,
    jacobi_residual,
    radon_hurwitz_oracle,
    riccati_deviation,
    sample_grid,
    shape_deviation,
)
from nullgeo.cli import main as cli_main
from nullgeo.core import ShapeOperatorSet, max_invertible_time, shape_operator_at
from nullgeo.sampling import random_compatible_pair
from nullgeo.theorems import (
    NotConstant,
    SplittingFamily,
    alpha_norm,
    cylinder_split,
    find_special_nullity_direction,
    mean_curvature_norm,
    nu_n,
    principal_angles,
    radon_hurwitz,
    scalar_curvature,
    theorem1_pipeline,
)

from conftest import det_sampling_bmax
from test_theorems import WORKED_FAMILY

ROOT = Path(__file__).resolve().parents[1]
SKEW2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

ORACLE_STEP = 1e-3


def _verdict(n: int, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{tag} criterion {n}{suffix}")
    assert ok, f"criterion {n}{suffix}"


def test_criterion_01_riccati_oracle_equivalence():
    worst = riccati_deviation(np.random.default_rng(101), 200, ORACLE_STEP)
    _verdict(1, worst <= 1e-6, f"max deviation {worst:.3e}")


def test_criterion_02_shape_oracle_equivalence():
    worst = shape_deviation(np.random.default_rng(102), 200, ORACLE_STEP)
    _verdict(2, worst <= 1e-6, f"max deviation {worst:.3e}")


def test_criterion_03_jacobi_residual():
    # residual of J'' + cJ relative to 1 + max |J|, second difference step 1e-4
    worst = jacobi_residual(np.random.default_rng(103), 100, 1e-4)
    _verdict(3, worst <= 1e-4, f"worst residual at {worst / 1e-4:.3f} of the bound")


def test_criterion_04_symmetry_propagation():
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(50):
        q = int(rng.integers(2, 5))
        A0, C0 = random_compatible_pair(rng, q)
        for t in sample_grid(-1.0, C0.mat):
            ok = ok and shape_operator_at(A0, -1.0, C0, t).asymmetry() <= 1e-8
    # negative control: nilpotent splitting with a diagonal shape operator
    bad_A = ShapeOperatorSet((np.diag([1.0, 2.0]),))
    bad_C = np.array([[0.0, 1.0], [0.0, 0.0]])
    bad_seen = max(
        shape_operator_at(bad_A, 0.0, bad_C, t).asymmetry() for t in (0.25, 0.5, 1.0)
    )
    _verdict(4, ok and bad_seen > 1e-4, f"control asymmetry {bad_seen:.3e}")


def test_criterion_05_rank_signature_constancy():
    rng = np.random.default_rng(105)
    ok = True
    for i in range(100):
        c = CURVATURES[i % 3]
        q = int(rng.integers(2, 5))
        A0, C0 = random_compatible_pair(rng, q)
        ranks0 = [int(np.linalg.matrix_rank(a, tol=1e-10)) for a in A0.ops]
        sigs0 = [signature_counts(a) for a in A0.ops]
        for t in sample_grid(c, C0.mat, 20):
            A = shape_operator_at(A0, c, C0, t)
            ranks = [int(np.linalg.matrix_rank(a, tol=1e-10)) for a in A.ops]
            sigs = [signature_counts(a) for a in A.ops]
            ok = ok and ranks == ranks0 and sigs == sigs0
    _verdict(5, ok)


def test_criterion_06_sphere_continuation():
    rng = np.random.default_rng(106)
    ok = True
    worst = 0.0
    for _ in range(50):
        p, r = rng.uniform(-1.0, 1.0), rng.uniform(0.2, 1.5)
        C0 = p * np.eye(2) + r * SKEW2
        x, y = rng.uniform(-1.0, 1.0, size=2)
        A0 = ShapeOperatorSet((np.array([[x, y], [y, -x]]),))
        A = shape_operator_at(A0, 1.0, C0, math.pi)
        w0 = np.sort(np.linalg.eigvalsh(A0.ops[0]))
        w = np.sort(np.linalg.eigvalsh(A.ops[0]))
        worst = max(worst, float(np.abs(w - np.sort(-w0)).max()))
        ok = ok and worst <= 1e-8
        ok = ok and sign_balance_check(A0, 1.0, C0)
    _verdict(6, ok, f"max eigenvalue deviation {worst:.3e}")


def test_criterion_07_hyperbolic_decay_and_blowup():
    rng = np.random.default_rng(107)
    ok = True
    worst = 0.0
    for _ in range(50):
        lam = float(rng.uniform(-2.0, 0.0))
        r = float(rng.uniform(0.2, 1.5))
        C0 = r * SKEW2 + lam * np.eye(2)
        x, y = rng.uniform(-1.0, 1.0, size=2)
        A0 = ShapeOperatorSet((np.array([[x, y], [y, -x]]),))
        A = shape_operator_at(A0, -1.0, C0, 20.0)
        ratio = float(np.abs(A.ops[0]).max()) / (1e-300 + float(np.abs(A0.ops[0]).max()))
        worst = max(worst, ratio)
        ok = ok and ratio <= 1e-6
    blowup = shape_operator_at(ShapeOperatorSet((np.eye(2),)), -1.0, np.eye(2), 10.0)
    grown = float(np.linalg.norm(blowup.ops[0]))
    _verdict(7, ok and grown >= 1e3, f"decay ratio {worst:.3e}, blow-up {grown:.3e}")


def test_criterion_08_theorem1_pipeline():
    d = find_special_nullity_direction(WORKED_FAMILY)
    ok = d is not None
    if ok:
        ok = ok and np.abs(np.abs(d.coeffs) - [0.0, 0.0, 1.0]).max() <= 1e-10
        ok = ok and abs(d.lam + 1.0) <= 1e-10
    A0 = ShapeOperatorSet((np.array([[1.0, 0.0], [0.0, -1.0]]),))
    with pytest.warns(UserWarning):
        rep = theorem1_pipeline(WORKED_FAMILY, A0, -1.0)
    ok = ok and rep.global_alpha_limit is AlphaLimit.ZERO

    rng = np.random.default_rng(108)
    found = 0
    trials = 1000
    for _ in range(trials):
        q = int(rng.integers(2, 5))
        nu0 = q * (q + 1) // 2 + int(rng.integers(0, 3))
        fam = SplittingFamily(
            basis=tuple(rng.uniform(-1.0, 1.0, size=(q, q)) for _ in range(nu0)), q=q
        )
        if find_special_nullity_direction(fam) is not None:
            found += 1
    _verdict(8, ok and found == trials, f"{found}/{trials} directions found")


def test_criterion_09_max_invertible_time():
    ok = all(
        abs(max_invertible_time(c, C0) - want) <= 1e-12 for c, C0, want in EXACT_HORIZONS
    )
    rng = np.random.default_rng(109)
    worst = 0.0
    for i in range(100):
        c = CURVATURES[i % 3]
        q = int(rng.integers(1, 6))
        C0 = rng.uniform(-1.5, 1.5, size=(q, q))
        b = max_invertible_time(c, C0)
        oracle = det_sampling_bmax(c, C0)
        if math.isinf(oracle):
            ok = ok and (math.isinf(b) or b > 10.0)
        else:
            worst = max(worst, abs(b - oracle))
            ok = ok and abs(b - oracle) <= 1e-6
    _verdict(9, ok, f"max deviation {worst:.3e}")


def test_criterion_10_radon_hurwitz():
    ok = all(radon_hurwitz(m) == radon_hurwitz_oracle(m) for m in range(1, 1025))
    table = tuple(radon_hurwitz(m) for m in range(1, 17))
    ok = ok and table == RH_TABLE_16
    ok = ok and [nu_n(n) for n in (2, 9, 17)] == [0, 1, 1]
    _verdict(10, ok)


def test_criterion_11_catalog_identities():
    ok = True
    for rho in (0.5, 1.0, 2.0):
        m = hyperbolic_cylinder(1, 3, rho)
        lam_s, lam_h = m.params["lam_s"], m.params["lam_h"]
        ok = ok and abs(lam_s * lam_h - 1.0) <= 1e-15
        ok = ok and abs((-1.0 + lam_s**2) - 1.0 / rho**2) <= 1e-12
        ok = ok and abs((-1.0 + lam_h**2) + 1.0 / (1.0 + rho**2)) <= 1e-12
    cv = cartan_veronese_polar()
    lam = cv.params["principal_curvatures"]
    for i in range(3):
        total = sum(
            (1.0 + lam[i] * lam[j]) / (lam[i] - lam[j]) for j in range(3) if j != i
        )
        ok = ok and abs(total) <= 1e-12
    ok = ok and abs(np.trace(cv.shape.ops[0])) <= 1e-12
    ok = ok and all(verify_model(cv).values())
    _verdict(11, ok)


def test_criterion_12_cylinder_split():
    samples, leaf_ids = circle_line_samples()
    split = cylinder_split(samples, k=1, leaf_ids=leaf_ids)
    angle = float(principal_angles(split.V, np.array([[0.0], [0.0], [1.0]])).max())
    ok = angle <= 1e-8 and split.residual <= 1e-10
    cone, cone_ids = cone_samples()
    try:
        cylinder_split(cone, k=1, leaf_ids=cone_ids)
        ok = False
    except NotConstant:
        pass
    _verdict(12, ok, f"angle {angle:.3e}, residual {split.residual:.3e}")


def test_criterion_13_scalar_curvature():
    ok = all(
        scalar_curvature(ShapeOperatorSet((np.zeros((3, 3)),)), 3, c) == c
        for c in CURVATURES
    )
    rng = np.random.default_rng(113)
    for _ in range(500):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, 4))
        ops = []
        for _ in range(p):
            m = rng.uniform(-1.0, 1.0, size=(n, n))
            ops.append(0.5 * (m + m.T))
        A = ShapeOperatorSet(tuple(ops))
        s = scalar_curvature(A, n, -1.0)
        big_alpha = alpha_norm(A) ** 2 >= (n * mean_curvature_norm(A, n)) ** 2
        # the equivalence, checked in both directions
        ok = ok and ((s <= -1.0) == big_alpha)
    _verdict(13, ok)


def test_criterion_14_cli_determinism(tmp_path, capsys):
    scenarios = {
        "evolve": "evolve_skew_hyperbolic.json",
        "classify": "classify_flat_line.json",
        "search": "search_worked_family.json",
        "catalog": "catalog_hyperbolic_cylinder.json",
        "check": "check_default.json",
    }
    ok = True
    mismatched = []
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        for command, name in scenarios.items():
            code = cli_main(
                [command, "--scenario", str(ROOT / "scenarios" / name), "--out", str(d)]
            )
            ok = ok and code == 0
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    ok = ok and files_a == files_b and files_a
    for name in files_a:
        ok = ok and (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        golden = ROOT / "tests" / "golden" / name
        if not golden.exists() or golden.read_bytes() != (tmp_path / "a" / name).read_bytes():
            ok = False
            mismatched.append(name)
    capsys.readouterr()  # swallow the check subcommand's stdout
    detail = "golden mismatch: " + ", ".join(mismatched) if mismatched else ""
    _verdict(14, ok, detail or f"{len(files_a)} outputs byte-identical and golden")
