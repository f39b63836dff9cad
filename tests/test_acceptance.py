"""Acceptance gate: one PASS/FAIL line per criterion of the paper.

Each row of ``CRITERIA`` runs entries of ``nullgeo.checks.CHECKS`` in order
on ``default_rng(seed)`` at the pinned count, after asserting that each
entry's bound, and the oracle entries' RK4 step, are the pinned ones; the
last values fill in the PASS line.
Criterion 09 adds the det-sampling oracle of ``conftest``, and criterion 14
(CLI determinism) is a test of its own.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines.  Seeds, counts
and tolerances are pinned here on purpose; do not loosen them to make a
failing criterion pass.
"""
import math
from pathlib import Path

import numpy as np

from nullgeo.checks import CHECKS, CURVATURES, ORACLE_STEP
from nullgeo.cli import main as cli_main
from nullgeo.core import max_invertible_time

from conftest import det_sampling_bmax

ROOT = Path(__file__).resolve().parents[1]
PINNED_STEP = 1e-3
ENTRIES = {check.name: check for check in CHECKS}


def _verdict(n: int, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{tag} criterion {n}{suffix}")
    assert ok, f"criterion {n}{suffix}"


def _det_sampling(rng, count):
    """``max_invertible_time`` against dense det-sampling of the closed-form
    J with bisection, over ``count`` random C0 with q in 1..5."""
    ok, worst = True, 0.0
    for i in range(count):
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
    return ok, (worst,)


# number, name, entries, seed, count, bound, PASS-line detail of the values
CRITERIA = (
    (1, "riccati_oracle_equivalence", ("riccati_oracle_equivalence",), 101, 200, 1e-6,
     lambda worst: f"max deviation {worst:.3e}"),
    (2, "shape_oracle_equivalence", ("shape_oracle_equivalence",), 102, 200, 1e-6,
     lambda worst: f"max deviation {worst:.3e}"),
    (3, "jacobi_residual", ("jacobi_residual",), 103, 100, 1e-4,
     lambda worst: f"worst residual at {worst / 1e-4:.3f} of the bound"),
    (4, "symmetry_propagation", ("symmetry_propagation",), 104, 50, 1e-8,
     lambda worst, control: f"control asymmetry {control:.3e}"),
    (5, "rank_signature_constancy", ("rank_signature_constancy",), 105, 100, None, None),
    (6, "sphere_continuation", ("sphere_continuation",), 106, 50, 1e-8,
     lambda worst: f"max eigenvalue deviation {worst:.3e}"),
    (7, "hyperbolic_decay_and_blowup", ("hyperbolic_decay_and_blowup",), 107, 50, 1e-6,
     lambda worst, grown: f"decay ratio {worst:.3e}, blow-up {grown:.3e}"),
    (8, "theorem1_pipeline", ("theorem1_pipeline",), 108, 1000, None,
     lambda found, trials: f"{found}/{trials} directions found"),
    (9, "max_invertible_time", ("max_invertible_time_exact", _det_sampling), 109, 100, 1e-12,
     lambda worst: f"max deviation {worst:.3e}"),
    (10, "radon_hurwitz", ("radon_hurwitz_table", "nu_n_values"), 110, 1024, None, None),
    (11, "catalog_identities", ("catalog_identities",), 111, 0, None, None),
    (12, "cylinder_split", ("cylinder_split",), 112, 0, 1e-8,
     lambda angle, residual: f"angle {angle:.3e}, residual {residual:.3e}"),
    (13, "scalar_curvature", ("scalar_curvature",), 113, 500, None, None),
)


def _criterion(number, entries, seed, count, bound, detail):
    def test():
        assert ORACLE_STEP == PINNED_STEP, f"oracle step is not the pinned {PINNED_STEP}"
        rng = np.random.default_rng(seed)
        ok = True
        for entry in entries:
            if isinstance(entry, str):
                assert ENTRIES[entry].bound == bound, f"{entry}: bound is not the pinned {bound}"
                entry = ENTRIES[entry].evaluate
            passed, values = entry(rng, count)
            ok = ok and passed
        _verdict(number, ok, detail(*values) if detail else "")

    return test


# one test per row, under the criterion's own name
for _number, _name, *_row in CRITERIA:
    globals()[f"test_criterion_{_number:02d}_{_name}"] = _criterion(_number, *_row)


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
