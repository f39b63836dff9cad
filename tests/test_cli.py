import json
import math
from pathlib import Path

import numpy as np
import pytest

from nullgeo.cli import (
    DimensionMismatch,
    Scenario,
    ScenarioParseError,
    load_scenario,
    main,
    parse_scenario,
    serialize_scenario,
)

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
GOLDEN = ROOT / "tests" / "golden"

_SKEW_RAY = {
    "c": -1.0,
    "C0": [[0.0, 1.0], [-1.0, 0.0]],
    "A0": [[[1.0, 0.0], [0.0, -1.0]]],
    "domain": {"kind": "ray"},
}
_EVOLVE = {"mode": "evolve", **_SKEW_RAY, "t_grid": {"t_end": 2.0, "samples": 5}}
_CLASSIFY = {"mode": "classify", **_SKEW_RAY}
_SEARCH = {"mode": "search", "family": [[[1.0, 0.0], [0.0, -1.0]]]}


def _catalog(entry, **params):
    return {"mode": "catalog", "catalog": {"entry": entry, "params": params}}


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


class TestParsing:
    def test_bad_json_exit_code(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["classify", "--scenario", str(p), "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_mode_is_parse_error(self, tmp_path):
        path = write(tmp_path, "s.json", {"mode": "simulate"})
        assert main(["classify", "--scenario", path, "--out", str(tmp_path)]) == 2

    def test_mode_mismatch_is_parse_error(self, tmp_path):
        path = write(tmp_path, "s.json", {"mode": "search", "family": [[[0.0]]]})
        assert main(["classify", "--scenario", path, "--out", str(tmp_path)]) == 2

    def test_dimension_mismatch_exit_code(self, tmp_path):
        payload = {
            "mode": "evolve",
            "c": 0.0,
            "C0": [[0.0, 0.0], [0.0, 0.0]],
            "A0": [[[1.0]]],
            "t_grid": {"t_end": 1.0, "samples": 3},
        }
        path = write(tmp_path, "s.json", payload)
        assert main(["evolve", "--scenario", path, "--out", str(tmp_path)]) == 3

    def test_nonsquare_matrix_is_dimension_error(self, tmp_path):
        with pytest.raises(DimensionMismatch):
            parse_scenario({"mode": "classify", "C0": [[1.0, 0.0]]})

    def test_missing_fields_is_parse_error(self, tmp_path):
        path = write(tmp_path, "s.json", {"mode": "evolve"})
        assert main(["evolve", "--scenario", path, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "command,payload",
        [
            ("classify", {**_CLASSIFY, "c": math.nan}),
            ("evolve", {**_EVOLVE, "c": -math.inf}),
            ("classify", {**_CLASSIFY, "C0": [[math.nan, 1.0], [-1.0, 0.0]]}),
            ("evolve", {**_EVOLVE, "C0": [[0.0, math.inf], [-1.0, 0.0]]}),
            ("evolve", {**_EVOLVE, "A0": [[[math.nan, 0.0], [0.0, 1.0]]]}),
            ("search", {**_SEARCH, "family": [[[math.inf, 0.0], [0.0, 1.0]]]}),
            ("evolve", {**_EVOLVE, "t_grid": {"t_end": math.inf, "samples": 5}}),
            ("evolve", {**_EVOLVE, "t_grid": {"t_end": math.nan, "samples": 5}}),
            ("classify", {**_CLASSIFY, "domain": {"kind": "segment", "b": math.nan}}),
            ("evolve", {**_EVOLVE, "seed": "1.5"}),
            ("evolve", {**_EVOLVE, "seed": math.inf}),
            ("catalog", _catalog("hyperbolic_cylinder", k=1, n=3, rho=-0.5)),
            ("catalog", _catalog("euclidean_cylinder", n=3, kappa=0.0)),
            ("catalog", _catalog("totally_geodesic", n=0, p=1, c=1.0)),
        ],
        ids=[
            "nan-c", "inf-c", "nan-C0", "inf-C0", "nan-A0", "inf-family",
            "inf-t_end", "nan-t_end", "nan-b", "seed-str", "inf-seed",
            "rho-nonpos", "kappa-zero", "n-zero",
        ],
    )
    def test_rejected_input_is_one_error_line(self, tmp_path, capsys, command, payload):
        path = write(tmp_path, "s.json", payload)  # json writes NaN, Infinity
        assert main([command, "--scenario", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_round_trip_is_idempotent(self):
        scn = load_scenario(SCENARIOS / "evolve_skew_hyperbolic.json")
        text = serialize_scenario(scn)
        again = serialize_scenario(parse_scenario(json.loads(text)))
        assert text == again


class TestEvolve:
    def test_writes_trajectory(self, tmp_path):
        code = main(
            [
                "evolve",
                "--scenario",
                str(SCENARIOS / "evolve_skew_hyperbolic.json"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        csv_path = tmp_path / "evolve_skew_hyperbolic.trajectory.csv"
        lines = csv_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["t", "det_J", "C_norm"]
        assert "A0_norm" in header
        first = lines[1].split(",")
        # t = 0 row: det J = 1, C matches the input tensor (norm sqrt(2)),
        # printed at the CLI's output precision of 14 significant digits
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0
        assert first[2] == format(math.sqrt(2.0), ".14g")

    def test_branch_q8_golden(self, tmp_path):
        # q = 8, complex spectrum, c < 0, on a grid across a|t| = 1
        code = main(
            [
                "evolve",
                "--scenario",
                str(SCENARIOS / "evolve_branch_q8.json"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        name = "evolve_branch_q8.trajectory.csv"
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()

    def test_long_hyperbolic_horizon(self, tmp_path, capsys):
        # cosh(a t) is not representable at t = 800: det J is reported as
        # inf, while C and A come from the scaled form and stay finite
        payload = {**_EVOLVE, "t_grid": {"t_end": 800.0, "samples": 41}}
        path = write(tmp_path, "s.json", payload)
        assert main(["evolve", "--scenario", path, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        lines = (tmp_path / "s.trajectory.csv").read_text().strip().splitlines()
        last = lines[-1].split(",")
        assert last[:3] == ["800", "inf", format(math.sqrt(2.0), ".14g")]
        assert all(math.isfinite(float(x)) for x in last[3:])

    def test_critical_eigenvalue_is_not_a_singular_time(self, tmp_path, capsys):
        # eigenvalue sqrt(-c) = 1, returned by eigvals as 1 + 2e-16; a cut
        # without slack put a singular time at ~18.4 and exited 4
        S = np.random.default_rng(0).normal(size=(3, 3))
        C0 = S @ np.diag([1.0, 0.3, -0.5]) @ np.linalg.inv(S)
        payload = {
            "mode": "evolve",
            "c": -1.0,
            "C0": C0.tolist(),
            "A0": [np.eye(3).tolist()],
            "t_grid": {"t_end": 20.0, "samples": 5},
        }
        path = write(tmp_path, "s.json", payload)
        assert main(["evolve", "--scenario", path, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_singular_horizon_exit_code(self, tmp_path, capsys):
        payload = {
            "mode": "evolve",
            "c": 0.0,
            "C0": [[2.0, 0.0], [0.0, -3.0]],
            "A0": [[[1.0, 0.0], [0.0, 1.0]]],
            "t_grid": {"t_end": 1.0, "samples": 5},
        }
        path = write(tmp_path, "s.json", payload)
        assert main(["evolve", "--scenario", path, "--out", str(tmp_path)]) == 4
        assert "b_max" in capsys.readouterr().err


class TestClassify:
    def test_flat_line_verdict(self, tmp_path):
        code = main(
            [
                "classify",
                "--scenario",
                str(SCENARIOS / "classify_flat_line.json"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        rec = json.loads((tmp_path / "classify_flat_line.verdict.json").read_text())
        assert rec["verdict"]["consistent"] is False
        assert rec["verdict"]["violated_clause"] == "II1"
        txt = (tmp_path / "classify_flat_line.verdict.txt").read_text()
        assert "violates (ii.1)" in txt

    def test_consistent_ray_embeds_decay(self, tmp_path):
        payload = {
            "mode": "classify",
            "c": -1.0,
            "C0": [[0.0, 1.0], [-1.0, 0.0]],
            "A0": [[[1.0, 0.0], [0.0, -1.0]]],
            "domain": {"kind": "ray"},
        }
        path = write(tmp_path, "s.json", payload)
        assert main(["classify", "--scenario", path, "--out", str(tmp_path)]) == 0
        rec = json.loads((tmp_path / "s.verdict.json").read_text())
        assert rec["verdict"]["consistent"] is True
        assert rec["decay"]["global_alpha_limit"] == "Zero"


class TestSearch:
    def test_worked_family_found(self, tmp_path):
        code = main(
            [
                "search",
                "--scenario",
                str(SCENARIOS / "search_worked_family.json"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        rec = json.loads((tmp_path / "search_worked_family.direction.json").read_text())
        assert rec["result"] == "found"
        np.testing.assert_allclose(np.abs(rec["coeffs"]), [0.0, 0.0, 1.0], atol=1e-10)
        assert rec["lambda"] == pytest.approx(-1.0, abs=1e-10)

    def test_absent(self, tmp_path):
        payload = {
            "mode": "search",
            "family": [
                [[1.0, 0.0], [0.0, -1.0]],
                [[0.0, 1.0], [1.0, 0.0]],
            ],
        }
        path = write(tmp_path, "s.json", payload)
        assert main(["search", "--scenario", path, "--out", str(tmp_path)]) == 0
        rec = json.loads((tmp_path / "s.direction.json").read_text())
        assert rec == {"result": "absent"}


class TestCatalogAndCheck:
    def test_catalog_entry_verified(self, tmp_path):
        code = main(
            [
                "catalog",
                "--scenario",
                str(SCENARIOS / "catalog_hyperbolic_cylinder.json"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        rec = json.loads(
            (tmp_path / "catalog_hyperbolic_cylinder.model.json").read_text()
        )
        assert rec["name"] == "hyperbolic_cylinder"
        assert all(rec["verified"].values())

    def test_unknown_catalog_entry(self, tmp_path):
        payload = {"mode": "catalog", "catalog": {"entry": "nope"}}
        path = write(tmp_path, "s.json", payload)
        assert main(["catalog", "--scenario", path, "--out", str(tmp_path)]) == 2

    def test_check_without_scenario(self, tmp_path, capsys):
        assert main(["check", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert (tmp_path / "check.report.txt").exists()


class TestDeterminism:
    def test_two_runs_byte_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            main(
                [
                    "evolve",
                    "--scenario",
                    str(SCENARIOS / "evolve_skew_hyperbolic.json"),
                    "--out",
                    str(d),
                ]
            )
            outs.append((d / "evolve_skew_hyperbolic.trajectory.csv").read_bytes())
        assert outs[0] == outs[1]
