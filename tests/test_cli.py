import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nullgeo import cli
from nullgeo.classify import classify_splitting_spectrum, decay_report
from nullgeo.cli import DimensionMismatch, _fmt, _fmt_rows, main, parse_scenario
from nullgeo.core import (
    NullityError,
    jacobi_tensor,
    max_invertible_time,
    shape_operator_at,
    splitting_tensor_at,
)
from nullgeo.sampling import random_compatible_pair

from conftest import POWERS_OF_TWO, SCALES, bits

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


def run_scenario(command, payload, out):
    """``main`` on ``payload`` written to ``out/s.json``, writing under ``out``."""
    path = out / "s.json"
    path.write_text(json.dumps(payload))  # json writes NaN, Infinity
    return main([command, "--scenario", str(path), "--out", str(out)])


def _src_env():
    """The environment with this tree's ``src`` first on PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def run_shipped(command, scenario, out):
    """``main`` on a scenario from ``scenarios/``, writing under ``out``."""
    return main([command, "--scenario", str(SCENARIOS / scenario), "--out", str(out)])


_I2 = [[1.0, 0.0], [0.0, 1.0]]


def _member_by_member_error(key, members):
    """The ``error:`` line and exit code of the matrices ``members`` of
    ``key`` converted one member at a time by ``_as_matrix``, then checked
    as a search family: for one shared shape, and to be nonempty."""
    try:
        mats = [cli._as_matrix(m, f"{key}[{i}]") for i, m in enumerate(members)]
        if len({m.shape for m in mats}) > 1:
            raise DimensionMismatch("family members must share one shape")
        if not mats:
            raise DimensionMismatch("family must contain at least one matrix")
    except NullityError as e:
        return f"error: {e}", 3 if isinstance(e, DimensionMismatch) else 2
    raise AssertionError("the family is valid")


# (members, the error after "error: <key>", id) of a bad member of a list
# of matrices
_MEMBER_ERRORS = [
    ([_I2, _I2, _I2, [[1.0, 2.0], [3.0]]], "[3]: not a numeric matrix (", "ragged-3"),
    ([_I2, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]], "[1]: must be square, got (2, 3)", "non-square"),
    ([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]] * 2, "[0]: must be square, got (2, 3)",
     "non-square-stack"),
    ([np.zeros((129, 129)).tolist()], "[0]: at most 128 rows, got 129", "rows-129"),
    ([_I2, _I2, [[math.nan, 0.0], [0.0, 1.0]]], "[2]: entries must be finite", "nan-2"),
    ([_I2, "abc"], "[1]: not a numeric matrix (could not convert string", "string"),
]


class TestParsing:
    def test_bad_json_exit_code(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["classify", "--scenario", str(p), "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_mode_is_parse_error(self, tmp_path):
        assert run_scenario("classify", {"mode": "simulate"}, tmp_path) == 2

    def test_mode_mismatch_is_parse_error(self, tmp_path):
        assert run_scenario("classify", {"mode": "search", "family": [[[0.0]]]}, tmp_path) == 2

    def test_dimension_mismatch_exit_code(self, tmp_path):
        payload = {"mode": "evolve", "c": 0.0, "C0": [[0.0, 0.0], [0.0, 0.0]], "A0": [[[1.0]]],
                   "t_grid": {"t_end": 1.0, "samples": 3}}
        assert run_scenario("evolve", payload, tmp_path) == 3

    def test_nonsquare_matrix_is_dimension_error(self, tmp_path):
        with pytest.raises(DimensionMismatch):
            parse_scenario({"mode": "classify", "C0": [[1.0, 0.0]]})

    def test_missing_fields_is_parse_error(self, tmp_path):
        assert run_scenario("evolve", {"mode": "evolve"}, tmp_path) == 2

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
            # a seed is a JSON integer: no float, string or bool is read as one
            ("check", {"mode": "check", "seed": 1.5}),
            ("check", {"mode": "check", "seed": "3"}),
            ("check", {"mode": "check", "seed": True}),
            ("check", {"mode": "check", "seed": 1e3}),
            ("catalog", _catalog("hyperbolic_cylinder", k=1, n=3, rho=-0.5)),
            ("catalog", _catalog("euclidean_cylinder", n=3, kappa=0.0)),
            ("catalog", _catalog("totally_geodesic", n=0, p=1, c=1.0)),
            # n = 1 builds, but its scalar curvature is undefined
            ("catalog", _catalog("totally_geodesic", n=1, p=1, c=0)),
            ("catalog", {"mode": "catalog", "catalog": {"entry": "totally_geodesic", "params": [1, 2]}}),
            ("catalog", {"mode": "catalog", "catalog": {"entry": "totally_geodesic", "params": "ab"}}),
            ("catalog", {"mode": "catalog", "catalog": {"entry": ["x"]}}),
            ("check", {"mode": "check", "seed": -1}),
            ("catalog", _catalog("totally_geodesic", n=2, p=1, c=math.nan)),
            # sizes past the limits: parsing rejects them before any allocation
            ("evolve", {**_EVOLVE, "t_grid": {"t_end": 2.0, "samples": 11.5}}),
            ("evolve", {**_EVOLVE, "t_grid": {"t_end": 2.0, "samples": 1e9}}),
            ("evolve", {**_EVOLVE, "t_grid": {"t_end": 2.0, "samples": 10**9}}),
            ("evolve", {**_EVOLVE, "t_grid": {"t_end": 2.0, "samples": 100_001}}),
            ("evolve", {**_EVOLVE, "t_grid": {"t_end": 2.0, "samples": True}}),
            ("catalog", _catalog("totally_geodesic", n=10**9, p=1, c=1.0)),
            ("catalog", _catalog("totally_geodesic", n=2, p=10**9, c=1.0)),
            ("catalog", _catalog("euclidean_cylinder", n=10**9, kappa=1.0)),
            ("catalog", _catalog("hyperbolic_cylinder", k=10**9, n=3, rho=1.0)),
            ("evolve", {**_EVOLVE, "C0": np.zeros((129, 129)).tolist()}),
            # n and p within the limit, but n*n*p shape entries beyond it
            ("catalog", _catalog("totally_geodesic", n=128, p=128, c=1.0)),
            # A0 C0 is not symmetric: A0 J(t)^{-1} is no shape operator
            ("classify", {**_CLASSIFY, "C0": [[1.0, 1.0], [0.0, 1.0]], "A0": [[[1.0, 0.0], [0.0, 0.0]]]}),
            # parameters that are no finite real number, or whose derived
            # values (the radius 1/|kappa|, lam_s^2, 1/rho^2) are not finite
            ("catalog", _catalog("euclidean_cylinder", n=3, kappa=math.nan)),
            ("catalog", _catalog("euclidean_cylinder", n=3, kappa="1")),
            ("catalog", _catalog("euclidean_cylinder", n=3, kappa=1e-310)),
            ("catalog", _catalog("hyperbolic_cylinder", k=1, n=3, rho=math.inf)),
            ("catalog", _catalog("hyperbolic_cylinder", k=1, n=3, rho=1e-300)),
            ("catalog", _catalog("hyperbolic_cylinder", k=1, n=3, rho=1e200)),
            # finite input whose sym-traceless parts overflow
            ("search", {**_SEARCH, "family": [[[1e308, 0.0], [0.0, -1e308]], [[1e308, 1e308], [0.0, 1e308]],
                                              [[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [1.0, 0.0]]]}),
            # t_end * k overflows before the division by samples - 1
            ("evolve", {"mode": "evolve", "c": 0.0, "C0": [[-1.0]], "A0": [[[1.0]]],
                        "t_grid": {"t_end": 1e308, "samples": 3}}),
            # finite data whose A(t) = A0 / (1 - t) leaves the float range at t = 0.5
            ("evolve", {"mode": "evolve", "c": 0.0, "C0": [[1.0]], "A0": [[[1e308]]],
                        "t_grid": {"t_end": 0.5, "samples": 3}}),
            # finite C0 with the eigenvalue 3.4e308, past the float range
            ("classify", {**_CLASSIFY, "C0": np.full((2, 2), 1.7e308).tolist()}),
            ("evolve", {**_EVOLVE, "C0": np.full((2, 2), 1.7e308).tolist()}),
            # JSON integers beyond the float range
            ("classify", {**_CLASSIFY, "c": -(10**400)}),
            ("classify", {**_CLASSIFY, "C0": [[10**400, 1.0], [-1.0, 0.0]]}),
            ("search", {**_SEARCH, "family": [[[10**400, 0.0], [0.0, 1.0]]]}),
            ("classify", {**_CLASSIFY, "domain": {"kind": "segment", "b": 10**400}}),
            ("evolve", {**_EVOLVE, "t_grid": {"t_end": 10**400, "samples": 5}}),
        ],
        ids=[
            "nan-c", "inf-c", "nan-C0", "inf-C0", "nan-A0", "inf-family",
            "inf-t_end", "nan-t_end", "nan-b", "seed-str", "inf-seed",
            "check-seed-float", "check-seed-digits", "check-seed-bool", "check-seed-1e3",
            "rho-nonpos", "kappa-zero", "n-zero", "n-one", "params-list", "params-str",
            "entry-list", "check-seed-negative", "catalog-nan-c",
            "samples-float", "samples-1e9", "samples-int-1e9", "samples-over", "samples-bool",
            "catalog-n-huge", "catalog-p-huge", "cylinder-n-huge", "catalog-k-huge",
            "C0-q-over", "catalog-npp-over", "decay-incompatible",
            "kappa-nan", "kappa-str", "kappa-tiny", "rho-inf", "rho-tiny", "rho-huge",
            "search-overflow", "t_end-grid-overflow", "A-overflow",
            "classify-eigenvalue-overflow", "evolve-eigenvalue-overflow",
            "c-int-huge", "C0-int-huge", "family-int-huge", "b-int-huge", "t_end-int-huge",
        ],
    )
    def test_rejected_input_is_one_error_line(self, tmp_path, capsys, command, payload):
        assert run_scenario(command, payload, tmp_path) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize(
        "key,members,line",
        [pytest.param("family", m, "error: family" + tail, id=i) for m, tail, i in _MEMBER_ERRORS]
        + [pytest.param("A0", m, "error: A0" + tail, id="A0-" + i) for m, tail, i in _MEMBER_ERRORS]
        + [
            pytest.param("family", [_I2, np.eye(3).tolist()],
                         "error: family members must share one shape", id="two-sizes"),
            pytest.param("family", [], "error: family must contain at least one matrix", id="empty"),
        ],
    )
    def test_stacked_family_keeps_the_member_errors(self, tmp_path, capsys, key, members, line):
        # a list of matrices (a search family, A0) is converted in one stacked
        # pass, and member by member only when that fails: the error is the
        # member-by-member one
        want_line, want_code = _member_by_member_error(key, members)
        assert want_line.startswith(line)
        command = "search" if key == "family" else "evolve"
        assert run_scenario(command, {"mode": command, key: members}, tmp_path) == want_code
        assert capsys.readouterr().err == want_line + "\n"

    def test_sizes_at_the_limits_parse(self):
        lo, hi = cli.SAMPLES_RANGE
        for samples in (lo, hi):
            scn = parse_scenario({**_EVOLVE, "t_grid": {"t_end": 1.0, "samples": samples}})
            assert scn.samples == samples
        top = cli.CATALOG_DIM_MAX
        scn = parse_scenario(_catalog("totally_geodesic", n=top, p=1, c=0.0))
        assert scn.catalog_params == {"n": top, "p": 1, "c": 0.0}
        most = cli.CATALOG_ENTRIES_MAX
        scn = parse_scenario(_catalog("totally_geodesic", n=1, p=most, c=0.0))
        assert scn.catalog_params == {"n": 1, "p": most, "c": 0.0}

    def test_catalog_of_many_entries_within_the_limit_runs(self, tmp_path):
        payload = _catalog("totally_geodesic", n=32, p=32, c=1.0)
        assert run_scenario("catalog", payload, tmp_path) == 0
        model = json.loads((tmp_path / "s.model.json").read_text())
        assert len(model["shape"]) == 32 and len(model["shape"][0]) == 32

    @pytest.mark.parametrize(
        "text",
        [b"\xff\xfe{", b'{"mode": "classify", "c": ' + b"1" * 5000 + b"}"],
        ids=["not-utf8", "int-too-long"],
    )
    def test_unreadable_scenario_text_is_one_error_line(self, tmp_path, capsys, text):
        path = tmp_path / "s.json"
        path.write_bytes(text)
        assert main(["classify", "--scenario", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_negative_check_seed_option_is_one_error_line(self, tmp_path, capsys):
        assert main(["check", "--seed", "-1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize(
        "command,payload,line",
        [
            ("classify", [], "error: scenario must be a JSON object"),
            ("classify", {**_CLASSIFY, "domain": "ray"},
             "error: domain must be an object with a 'kind'"),
            ("catalog", {"mode": "catalog"}, "error: mode 'catalog' requires a catalog entry"),
        ],
        ids=["scenario-list", "domain-str", "catalog-missing"],
    )
    def test_documented_parse_errors(self, tmp_path, capsys, command, payload, line):
        assert run_scenario(command, payload, tmp_path) == 2
        assert capsys.readouterr().err == line + "\n"


class TestCommandLine:
    def test_parser_is_built_once_per_process(self, tmp_path, monkeypatch, capsys):
        built, build = [], cli.build_parser

        def counting_build():
            built.append(None)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        assert run_shipped("classify", "classify_flat_line.json", tmp_path) == 0
        assert run_shipped("search", "search_worked_family.json", tmp_path) == 0
        assert run_shipped("catalog", "catalog_hyperbolic_cylinder.json", tmp_path) == 0
        assert run_shipped("evolve", "evolve_skew_hyperbolic.json", tmp_path) == 0
        assert main(["check", "--seed", "-1", "--out", str(tmp_path)]) == 2
        assert len(built) == 1

    def test_no_option_carries_to_the_next_call(self, tmp_path, capsys):
        # a coarse step fails the Riccati oracle's bound: exit 1
        assert main(["check", "--seed", "3", "--step", "0.05", "--out", str(tmp_path)]) == 1
        assert run_shipped("check", "check_default.json", tmp_path) == 0
        name = "check_default.report.txt"
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--scenario", str(SCENARIOS / "evolve_skew_hyperbolic.json"), "--step", "0.1"],
            ["evolve", "--scenario", str(SCENARIOS / "evolve_skew_hyperbolic.json"), "--step", "nan"],
            ["classify", "--scenario", str(SCENARIOS / "classify_flat_line.json"), "--seed", "1"],
            ["check", "--seed", "abc"],
            ["evolve"],
            ["simulate"],
        ],
        ids=["evolve-step", "evolve-step-nan", "classify-seed", "check-seed-str",
             "no-scenario", "unknown-command"],
    )
    def test_rejected_command_line_is_one_error_line(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as stop:
            main([*argv, "--out", str(tmp_path)])
        assert stop.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not any(tmp_path.iterdir())

    def test_module_entry_point(self, tmp_path):
        # ``python -m nullgeo.cli`` reaches ``sys.exit(main())``
        env = _src_env()
        scenario = str(SCENARIOS / "evolve_skew_hyperbolic.json")

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "nullgeo.cli", *argv],
                                  capture_output=True, text=True, env=env, cwd=tmp_path)

        done = run("evolve", "--scenario", scenario, "--out", str(tmp_path))
        assert (done.returncode, done.stderr) == (0, "")
        name = "evolve_skew_hyperbolic.trajectory.csv"
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
        done = run("evolve", "--scenario", scenario, "--step", "1")
        assert done.returncode == 2
        err = done.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_each_subcommand_loads_the_modules_it_runs(self, tmp_path):
        # a fresh process: ``import nullgeo`` loads no submodule, evolve
        # runs on core alone, and each later subcommand adds the modules it
        # runs; the last stdout line lists the loaded modules after each step
        code = (
            "import json, sys\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith('nullgeo.'))\n"
            "import nullgeo\n"
            "seen = [loaded()]\n"
            "from nullgeo.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    seen.append([main(argv), loaded()])\n"
            "print(json.dumps(seen))\n"
        )
        runs = [
            [command, "--scenario", str(SCENARIOS / name), "--out", str(tmp_path)]
            for command, name in [
                ("evolve", "evolve_skew_hyperbolic.json"),
                ("classify", "classify_flat_line.json"),
                ("search", "search_worked_family.json"),
                ("catalog", "catalog_hyperbolic_cylinder.json"),
                ("check", "check_default.json"),
            ]
        ]
        done = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                              capture_output=True, text=True, env=_src_env())
        assert (done.returncode, done.stderr) == (0, "")
        base = ["nullgeo.cli", "nullgeo.core"]
        assert json.loads(done.stdout.splitlines()[-1]) == [
            [],
            [0, base],
            [0, sorted([*base, "nullgeo.classify"])],
            [0, sorted([*base, "nullgeo.classify", "nullgeo.theorems"])],
            [0, sorted([*base, "nullgeo.catalog", "nullgeo.classify", "nullgeo.theorems"])],
            [0, sorted([*base, "nullgeo.catalog", "nullgeo.checks", "nullgeo.classify",
                        "nullgeo.sampling", "nullgeo.theorems"])],
        ]

    def test_help_is_not_an_error(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["check", "--help"])
        assert stop.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: nullgeo check") and "--step STEP" in out and err == ""


class TestEvolve:
    def test_writes_trajectory(self, tmp_path):
        assert run_shipped("evolve", "evolve_skew_hyperbolic.json", tmp_path) == 0
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
        assert run_shipped("evolve", "evolve_branch_q8.json", tmp_path) == 0
        name = "evolve_branch_q8.trajectory.csv"
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()

    @pytest.mark.parametrize("entries", [64, 3 * 64])
    def test_blocks_by_entry_count_keep_the_goldens(self, tmp_path, monkeypatch, entries):
        # q = 8 takes blocks of 1 and 3 samples, q = 2 of 16 and 48
        monkeypatch.setattr(cli, "_EVOLVE_BLOCK_ENTRIES", entries)
        for stem in ("evolve_branch_q8", "evolve_skew_hyperbolic"):
            assert run_shipped("evolve", f"{stem}.json", tmp_path) == 0
            name = f"{stem}.trajectory.csv"
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()

    @pytest.mark.parametrize("case", ["codazzi-q32", "nearly-compatible-q16"])
    def test_blocks_keep_the_bytes(self, tmp_path, monkeypatch, case):
        # the grid is evaluated in blocks of _EVOLVE_BLOCK_ENTRIES entries per
        # stack (q = 32: 1, 64 and 1024 samples; q = 16: 4, 256 and 4096),
        # and each row takes its own eigen-solver
        if case == "codazzi-q32":
            # no singular time for a above every |eigenvalue|; the grid
            # crosses a|t| = 1
            A0s, C0s = random_compatible_pair(np.random.default_rng(16), 32, 2)
            a = 1.5 * np.abs(np.linalg.eigvals(C0s.mat)).max()
            c, C0, A0, t_end, samples = -a * a, C0s.mat, A0s.ops, 3.0 / a, 300
        else:
            c, C0, A0, t_end, samples = _nearly_compatible_q16()
        csvs = []
        for entries in (2**10, 2**16, 2**20):
            monkeypatch.setattr(cli, "_EVOLVE_BLOCK_ENTRIES", entries)
            _evolve_table(tmp_path, c, C0, A0, t_end, samples)
            csvs.append((tmp_path / "s.trajectory.csv").read_bytes())
        assert csvs[0] == csvs[1] == csvs[2]
        if case == "nearly-compatible-q16":
            # the skew part of A(t) passes the Bendixson bound up to row
            # 762 and fails from 763, inside the block of rows 512-767 at
            # 2**16 entries: the symmetric solver renders the rows up to
            # 762, the general one the rows from 763, whose cells differ;
            # rows 255/256 and 767/768 straddle block boundaries
            rows = [row.split(",")[4:] for row in csvs[0].decode().splitlines()[1:]]
            for k in (255, 256, 759, 760, 763, 764, 767, 768):
                symmetric, general = _eig_cells(A0, c, C0, t_end * k / (samples - 1))
                assert symmetric != general
                assert rows[k] == (symmetric if k <= 762 else general)

    def test_a_row_does_not_depend_on_its_grid(self, tmp_path):
        # row 1024 of the 1500-sample grid and the last row of a
        # 1025-sample grid that ends there (end * 1024 / 1024 is end) share
        # one t, and one rendering
        c, C0, A0, t_end, samples = _nearly_compatible_q16()
        rows = _evolve_table(tmp_path, c, C0, A0, t_end, samples)
        last = _evolve_table(tmp_path, c, C0, A0, t_end * 1024 / (samples - 1), 1025)[-1]
        assert rows[1024] == last

    def test_long_hyperbolic_horizon(self, tmp_path, capsys):
        # cosh(a t) is not representable at t = 800: det J is reported as
        # inf, while C and A come from the scaled form and stay finite
        payload = {**_EVOLVE, "t_grid": {"t_end": 800.0, "samples": 41}}
        assert run_scenario("evolve", payload, tmp_path) == 0
        assert capsys.readouterr().err == ""
        lines = (tmp_path / "s.trajectory.csv").read_text().strip().splitlines()
        last = lines[-1].split(",")
        assert last[:3] == ["800", "inf", format(math.sqrt(2.0), ".14g")]
        assert all(math.isfinite(float(x)) for x in last[3:])

    def test_unstable_fixed_point_is_a_documented_exit(self, tmp_path, capsys):
        # C0 = I is a fixed point of c = -1, C(t) = C0, but the scaled factor
        # M = 2 e^{-2t} I of J underflows to 0 by t = 400: exit 2 with one
        # line naming that t, and no trajectory
        payload = {**_EVOLVE, "C0": _I2, "t_grid": {"t_end": 400.0, "samples": 5}}
        assert run_scenario("evolve", payload, tmp_path) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: J(t) cannot be inverted at t=400.0"
        ]
        assert not (tmp_path / "s.trajectory.csv").exists()

    def test_critical_eigenvalue_is_not_a_singular_time(self, tmp_path, capsys):
        # eigenvalue sqrt(-c) = 1, returned by eigvals as 1 + 2e-16; a cut
        # without slack put a singular time at ~18.4 and exited 4
        S = np.random.default_rng(0).normal(size=(3, 3))
        C0 = S @ np.diag([1.0, 0.3, -0.5]) @ np.linalg.inv(S)
        payload = {"mode": "evolve", "c": -1.0, "C0": C0.tolist(), "A0": [np.eye(3).tolist()],
                   "t_grid": {"t_end": 20.0, "samples": 5}}
        assert run_scenario("evolve", payload, tmp_path) == 0
        assert capsys.readouterr().err == ""

    def test_huge_entries_have_finite_norms(self, tmp_path, capsys):
        # squares of entries past ~1.3e154 overflow; such norms are taken
        # again as m ||X / m||, m = max |x|, with nothing on stderr
        rows = _evolve_table(tmp_path, 0.0, [[0.0]], [[[1e200]]], 1.0, 3)
        assert capsys.readouterr().err == ""
        assert [row[3:] for row in rows] == [["1e+200", "1e+200"]] * 3
        rows = _evolve_table(tmp_path, 0.0, [[-1e200]], [[[1.0]]], 1.0, 3)
        assert capsys.readouterr().err == ""
        assert rows[0][:4] == ["0", "1", "1e+200", "1"]
        # A = 1 / (1 + 1e200 t): squares below 2**-486 flush to 0, so these
        # norms are taken as m ||X / m|| too
        assert [row[3:] for row in rows[1:]] == [["2e-200", "2e-200"], ["1e-200", "1e-200"]]
        A0 = np.array([[1e200, 3e199], [3e199, -2e200]])
        rows = _evolve_table(tmp_path, 0.0, np.zeros((2, 2)), [A0, np.eye(2)], 1.0, 3)
        assert capsys.readouterr().err == ""
        want = 1e200 * np.linalg.norm(A0 / 1e200)
        for row in rows:
            assert float(row[3]) == pytest.approx(want, rel=1e-13)
            assert row[6] == _fmt(math.sqrt(2.0))

    @pytest.mark.filterwarnings("error")
    def test_entries_near_the_float_maximum(self, tmp_path, capsys):
        # A + A^T would overflow here; the symmetric part is taken as A/2 + A^T/2,
        # the norm 2e308 lies past the float range and is written as inf
        rows = _evolve_table(tmp_path, 0.0, np.zeros((2, 2)), [np.full((2, 2), 1e308)], 1.0, 2)
        assert capsys.readouterr().err == ""
        assert rows == [["0", "1", "0", "inf", "0", "inf"], ["1", "1", "0", "inf", "0", "inf"]]

    def test_norms_keep_their_bits_next_to_a_rescaled_one(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(4, 3, 3))
        X[1] *= 1e200
        got = cli._frobenius(X.transpose(0, 2, 1))
        for k in (0, 2, 3):
            assert got[k] == np.linalg.norm(X[k])
        assert got[1] == pytest.approx(1e200 * np.linalg.norm(X[1] / 1e200), rel=1e-15)
        assert cli._frobenius(X[1].T[None])[0] == got[1]

    def test_tiny_negative_curvature_keeps_its_horizon(self, tmp_path, capsys):
        # a = 1e-150 << lam = 0.5: b_max = atanh(2a) / a = 2, where the
        # ratio (lam + a) / (lam - a) rounds to 1 and once gave b_max = 0
        rows = _evolve_table(tmp_path, -1e-300, [[0.5]], [[[1.0]]], 1.0, 3)
        assert capsys.readouterr().err == ""
        assert [row[:2] for row in rows] == [["0", "1"], ["0.5", "0.75"], ["1", "0.5"]]

    def test_singular_horizon_exit_code(self, tmp_path, capsys):
        payload = {"mode": "evolve", "c": 0.0, "C0": [[2.0, 0.0], [0.0, -3.0]],
                   "A0": [[[1.0, 0.0], [0.0, 1.0]]], "t_grid": {"t_end": 1.0, "samples": 5}}
        assert run_scenario("evolve", payload, tmp_path) == 4
        assert "b_max" in capsys.readouterr().err


def _eig_cells(A0, c, C0, t):
    """The eigenvalue cells of A0[0] J(t)^{-1} as the symmetric and as the
    general eigen-solver render them in ``evolve``."""
    a = shape_operator_at(A0, c, C0, t).ops[0]
    h = 0.5 * a
    w = np.linalg.eigvals(a)
    w = w[np.lexsort((np.round(w.imag, 12), np.round(w.real, 12)))]
    radius = np.abs(w).max()
    return [_fmt(x) for x in np.linalg.eigvalsh(h + h.T)], [cli._fmt_eig(z, radius) for z in w]


def _nearly_compatible_q16():
    """c, C0, A0, t_end and samples of an evolve scenario whose A0 C0 is off
    symmetric by ~7e-9."""
    rng = np.random.default_rng(16)
    A0s, C0s = random_compatible_pair(rng, 16, 1)
    K = rng.normal(size=(16, 16))
    C0 = C0s.mat + np.linalg.solve(A0s.ops[0], 1e-9 * (K - K.T))
    return -1.0, C0, A0s.ops, 1.25e-4, 1500


def _evolve_table(tmp_path, c, C0, A0, t_end, samples):
    payload = {"mode": "evolve", "c": c, "C0": np.asarray(C0).tolist(),
               "A0": [np.asarray(a).tolist() for a in A0], "t_grid": {"t_end": t_end, "samples": samples}}
    assert run_scenario("evolve", payload, tmp_path) == 0
    lines = (tmp_path / "s.trajectory.csv").read_text().strip().splitlines()
    return [line.split(",") for line in lines[1:]]


class TestEvolveSpectrum:
    @pytest.mark.parametrize("q", [2, 8, 32])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("c", [-1.0, 0.0, 1.0])
    def test_codazzi_data_take_the_symmetric_path(self, tmp_path, q, p, c):
        # real, ascending eigenvalues; every other cell as a per-sample
        # evaluation renders it
        rng = np.random.default_rng([q, p, int(c) + 1])
        A0s, C0s = random_compatible_pair(rng, q, p)
        A0, C0 = A0s.ops, C0s.mat
        t_end = 0.6 * min(max_invertible_time(c, C0), 5.0)
        samples = 201
        rows = _evolve_table(tmp_path, c, C0, A0, t_end, samples)
        assert len(rows) == samples
        for k, row in enumerate(rows):
            assert not any("j" in cell for cell in row)
            t = t_end * k / (samples - 1)
            A = shape_operator_at(A0s, c, C0, t).ops
            want = [
                _fmt(t),
                _fmt(np.linalg.det(jacobi_tensor(c, C0, t))),
                _fmt(np.linalg.norm(splitting_tensor_at(c, C0, t).mat)),
            ]
            assert row[:3] == want
            for i, a in enumerate(A):
                cells = row[3 + i * (q + 1):3 + (i + 1) * (q + 1)]
                assert cells[0] == _fmt(np.linalg.norm(a))
                w = np.linalg.eigvals(a)
                w = w[np.argsort(w.real)]
                got = np.array([float(x) for x in cells[1:]])
                assert np.abs(got - w).max() <= 2e-13 * np.abs(w).max()

    def test_nearly_compatible_data_keep_imaginary_parts(self, tmp_path):
        # A0 C0 is within the Codazzi tolerance of symmetric but not
        # symmetric: the eigenvalues 2 -+ 1e-9 i of C0 give A(t) complex
        # eigenvalues, which the symmetric solver would drop
        C0 = [[2.0, 1e-9], [-1e-9, 2.0]]
        rows = _evolve_table(tmp_path, -1.0, C0, [np.eye(2)], 1.0, 11)
        assert rows[5][:1] + rows[5][4:] == [
            "0.5", "11.704756293723-7.1390744643971e-08j", "11.704756293723+7.1390744643971e-08j"
        ]

    @pytest.mark.parametrize("s", [*POWERS_OF_TWO, 1e-9])
    def test_complex_cells_do_not_depend_on_the_scale_of_a0(self, tmp_path, s):
        # A(t) = A0 J(t)^{-1} scales with A0, and |Im| is measured against
        # the spectral radius of A(t): the same cells render complex
        C0 = [[2.0, 1e-9], [-1e-9, 2.0]]
        want, got = (
            [["j" in cell for cell in row]
             for row in _evolve_table(tmp_path, -1.0, C0, [a * np.eye(2)], 1.0, 11)]
            for a in (1.0, s)
        )
        assert got == want and any(map(any, want))

    def test_conjugate_order_does_not_depend_on_the_scale_of_a0(self, tmp_path):
        # a row's eigenvalues are ordered by keys relative to its spectral
        # radius, so A0 = 1e-9 I writes the pair in the order A0 = I does
        C0 = [[2.0, 1e-9], [-1e-9, 2.0]]
        rows = _evolve_table(tmp_path, -1.0, C0, [1e-9 * np.eye(2)], 1.0, 11)
        assert rows[5][4:] == [
            "1.1704756293723e-08-7.1390744643971e-17j", "1.1704756293723e-08+7.1390744643971e-17j"
        ]

    def test_incompatible_data_keep_complex_cells(self, tmp_path):
        # A0 C0 is skew: A0 J(t)^{-1} = J(t)^{-1} has eigenvalues 1/(1 -+ i t)
        rows = _evolve_table(tmp_path, 0.0, [[0.0, 1.0], [-1.0, 0.0]], [np.eye(2)], 1.0, 3)
        assert rows[1][4:] == ["0.8-0.4j", "0.8+0.4j"]
        assert rows[2][4:] == ["0.5-0.5j", "0.5+0.5j"]

    def test_incompatible_data_below_unit_scale_keep_their_spectrum(self, tmp_path):
        # A0 J(t)^{-1} = 1e-9 [[1 + t, -t], [0, 1 + t]] / (1 + t)^2 has the
        # double eigenvalue 1e-9 / (1 + t), not the two of its symmetric part
        C0 = [[-1.0, -1.0], [0.0, -1.0]]
        rows = _evolve_table(tmp_path, 0.0, C0, [1e-9 * np.eye(2)], 1e-3, 3)
        assert rows[1][4:] == ["9.9950024987506e-10"] * 2
        assert rows[2][4:] == ["9.99000999001e-10"] * 2


def _old_fmt(x):
    s = format(float(x), ".14g")
    return "0" if s == "-0" else s


_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0, 0.1, 1 / 3, 1e14, 1e15,
    123456789012345.6, 9.99999999999995e-5, 0.5e-4,
    *np.random.default_rng(7).standard_normal(200) * np.logspace(-320, 307, 200),
]


class TestFloatRendering:
    def test_fmt_is_14_digits_without_negative_zero(self):
        for x in _FLOATS:
            assert _fmt(x) == _fmt(np.float64(x)) == _old_fmt(x), x

    def test_row_renderer_is_fmt_per_cell(self):
        table = np.array(_FLOATS[:len(_FLOATS) // 8 * 8]).reshape(-1, 8)
        assert _fmt_rows(table) == "".join(",".join(_fmt(x) for x in row) + "\r\n" for row in table)


class TestClassify:
    def test_flat_line_verdict(self, tmp_path):
        assert run_shipped("classify", "classify_flat_line.json", tmp_path) == 0
        rec = json.loads((tmp_path / "classify_flat_line.verdict.json").read_text())
        assert rec["verdict"]["consistent"] is False
        assert rec["verdict"]["violated_clause"] == "II1"
        txt = (tmp_path / "classify_flat_line.verdict.txt").read_text()
        assert "violates (ii.1)" in txt

    def test_consistent_ray_embeds_decay(self, tmp_path):
        assert run_scenario("classify", _CLASSIFY, tmp_path) == 0
        rec = json.loads((tmp_path / "s.verdict.json").read_text())
        assert rec["verdict"]["consistent"] is True
        assert rec["decay"]["global_alpha_limit"] == "Zero"

    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_incompatible_data_have_no_decay_at_any_scale(self, tmp_path, capsys, scale):
        # A0 C0 = -scale^2 [[1, 1], [0, 1]] overflows at 1e200; the decay
        # report requires Codazzi data all the same
        payload = {"mode": "classify", "c": 0.0, "domain": {"kind": "ray"},
                   "C0": [[-scale, -scale], [0.0, -scale]], "A0": [[[scale, 0.0], [0.0, scale]]]}
        assert run_scenario("classify", payload, tmp_path) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "Codazzi" in err[0]

    def test_incompatible_data_have_no_decay_below_unit_scale(self, tmp_path, capsys):
        # the pair above at scale 1 with A0 = 1e-9 I: A0 C0 is as far from
        # symmetric, relative to its size
        payload = {"mode": "classify", "c": 0.0, "domain": {"kind": "ray"},
                   "C0": [[-1.0, -1.0], [0.0, -1.0]], "A0": [[[1e-9, 0.0], [0.0, 1e-9]]]}
        assert run_scenario("classify", payload, tmp_path) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "Codazzi" in err[0]


class TestSearch:
    def test_worked_family_found(self, tmp_path):
        assert run_shipped("search", "search_worked_family.json", tmp_path) == 0
        rec = json.loads((tmp_path / "search_worked_family.direction.json").read_text())
        assert rec["result"] == "found"
        np.testing.assert_allclose(np.abs(rec["coeffs"]), [0.0, 0.0, 1.0], atol=1e-10)
        assert rec["lambda"] == pytest.approx(-1.0, abs=1e-10)

    def test_absent(self, tmp_path):
        payload = {"mode": "search", "family": [[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]]}
        assert run_scenario("search", payload, tmp_path) == 0
        rec = json.loads((tmp_path / "s.direction.json").read_text())
        assert rec == {"result": "absent"}


class TestCatalogAndCheck:
    def test_catalog_entry_verified(self, tmp_path):
        assert run_shipped("catalog", "catalog_hyperbolic_cylinder.json", tmp_path) == 0
        rec = json.loads((tmp_path / "catalog_hyperbolic_cylinder.model.json").read_text())
        assert rec["name"] == "hyperbolic_cylinder"
        assert all(rec["verified"].values())

    def test_unknown_catalog_entry(self, tmp_path):
        payload = {"mode": "catalog", "catalog": {"entry": "nope"}}
        assert run_scenario("catalog", payload, tmp_path) == 2

    def test_check_without_scenario(self, tmp_path, capsys):
        assert main(["check", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert (tmp_path / "check.report.txt").exists()

    def test_coarse_step_fails_the_oracle_checks_alone(self, tmp_path, capsys):
        # the RK4 oracles, the first two entries, miss their bound at step
        # 0.1; no other entry reads the step, so every other line is golden
        assert main(["check", "--step", "0.1", "--seed", "0", "--out", str(tmp_path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        golden = (GOLDEN / "check_default.report.txt").read_text().splitlines()
        assert lines[2:] == golden[2:-1] + ["18 checks, 2 failed"]
        for line, name in zip(lines, ("riccati_oracle_equivalence", "shape_oracle_equivalence")):
            assert re.fullmatch(rf"FAIL {name}: max deviation \d\.\d{{3}}e[+-]\d{{2}}, bound 1e-06", line)


# c = -1, C0 = diag(2, 1/2) at the scale 2**-40, whose J(t) is singular at
# 0.549 * 2**40 ~ 6.04e11: an absolute slack of 1e-10 once took both
# eigenvalues for at most sqrt(-c) = 2**-40
_REPRO = {"c": -(2.0**-80), "C0": [[2.0**-39, 0.0], [0.0, 2.0**-41]],
          "A0": [[[1.0, 0.0], [0.0, 1.0]]]}
_RESCALED_EVOLVE = {
    "evolve_branch_q8": json.loads((SCENARIOS / "evolve_branch_q8.json").read_text()),
    "evolve_skew_hyperbolic": json.loads((SCENARIOS / "evolve_skew_hyperbolic.json").read_text()),
    "repro": {"mode": "evolve", **_REPRO, "t_grid": {"t_end": 1.2e12, "samples": 5}},
}
_RESCALED_CLASSIFY = {
    "classify_flat_line": json.loads((SCENARIOS / "classify_flat_line.json").read_text()),
    "skew_ray": _CLASSIFY,
    "critical_ray": {"mode": "classify", "c": -1.0, "C0": [[1.0, 0.0], [0.0, -0.5]],
                     "A0": [[[0.0, 0.0], [0.0, 1.0]]], "domain": {"kind": "ray"}},
    "repro": {"mode": "classify", **_REPRO, "domain": {"kind": "ray"}},
}


def _rescaled(payload, s):
    """``payload`` on the geometry (s^2 c, s C0), with t_end / s and A0 kept:
    the same J at the times t / s."""
    out = {**payload, "c": s * s * payload["c"], "C0": (s * np.array(payload["C0"])).tolist()}
    if "t_grid" in payload:
        out["t_grid"] = {**payload["t_grid"], "t_end": payload["t_grid"]["t_end"] / s}
    return out


class TestRescaledGeometry:
    """(c, C0, t) -> (s^2 c, s C0, t / s) keeps J, so it keeps every answer
    of the main theorem: exit codes, verdicts and the det J and shape cells
    to the byte, with t, C and the eigenvalues of C0 scaled exactly."""

    @pytest.mark.parametrize("s", SCALES)
    @pytest.mark.parametrize("name", sorted(_RESCALED_EVOLVE))
    def test_evolve(self, tmp_path, name, s):
        base = _RESCALED_EVOLVE[name]
        codes, tables = [], []
        for k, payload in enumerate((base, _rescaled(base, s))):
            out = tmp_path / str(k)
            out.mkdir()
            codes.append(run_scenario("evolve", payload, out))
            csv = out / "s.trajectory.csv"
            tables.append([line.split(",") for line in csv.read_text().splitlines()]
                          if csv.exists() else None)
        assert codes[0] == codes[1] == (4 if name == "repro" else 0)
        if codes[0]:
            assert tables == [None, None]
            return
        # the evaluator's arrays: t / s, det J and A to the bit, s C
        scns = [parse_scenario(p) for p in (base, _rescaled(base, s))]
        grids = [[x.t_end * k / (x.samples - 1) for k in range(x.samples)] for x in scns]
        (head, A, norms), (head_s, A_s, norms_s) = (
            cli._evolve_block(x, g) for x, g in zip(scns, grids)
        )
        assert np.array_equal(bits(head_s[0]), bits(head[0] / s))
        assert np.array_equal(bits(head_s[1]), bits(head[1]))
        assert np.array_equal(bits(head_s[2]), bits(s * head[2]))
        for a, a_s, n, n_s in zip(A, A_s, norms, norms_s, strict=True):
            assert np.array_equal(bits(a_s), bits(a)) and np.array_equal(bits(n_s), bits(n))
        # the files: t and C_norm rendered from those, every other cell kept
        rows, rows_s = tables
        assert rows_s[0] == rows[0] and len(rows_s) == len(rows)
        for k, (row, row_s) in enumerate(zip(rows[1:], rows_s[1:])):
            assert row_s[0] == _fmt(head[0][k] / s) and row_s[2] == _fmt(s * head[2][k])
            assert row_s[1] == row[1] and row_s[3:] == row[3:]

    @pytest.mark.parametrize("s", SCALES)
    @pytest.mark.parametrize("name", sorted(_RESCALED_CLASSIFY))
    def test_classify(self, tmp_path, name, s):
        base = _RESCALED_CLASSIFY[name]
        recs = []
        for k, payload in enumerate((base, _rescaled(base, s))):
            out = tmp_path / str(k)
            out.mkdir()
            assert run_scenario("classify", payload, out) == 0
            recs.append(json.loads((out / "s.verdict.json").read_text()))
        # the evaluator's values: the verdict, and x -> s x exactly
        scn = parse_scenario(base)
        v = classify_splitting_spectrum(scn.c, scn.C0, scn.domain)
        v_s = classify_splitting_spectrum(s * s * scn.c, s * scn.C0, scn.domain)
        assert (v_s.consistent, v_s.violated_clause) == (v.consistent, v.violated_clause)
        assert v_s.offending_eigenvalues == tuple(s * z for z in v.offending_eigenvalues)
        interval = tuple(s * x for x in v.admissible_interval)
        assert v_s.admissible_interval == interval
        rec, rec_s = recs
        assert rec_s["verdict"] == {
            **rec["verdict"],
            "offending_eigenvalues": [_fmt(s * z.real) for z in v.offending_eigenvalues],
            "admissible_interval": [float(_fmt(x)) for x in interval],
        }
        if name == "repro":
            assert rec_s["verdict"]["violated_clause"] == "II"
            assert v.offending_eigenvalues == (2.0**-39,)
        assert ("decay" in rec_s) == ("decay" in rec) == v.consistent
        if not v.consistent:
            return
        rep = decay_report(scn.A0, scn.c, scn.C0, scn.domain)
        rep_s = decay_report(scn.A0, s * s * scn.c, s * scn.C0, scn.domain)
        assert rep_s.spectral_radius == s * rep.spectral_radius
        assert [(b.eigenvalue, b.multiplicity, b.behavior, b.rate) for b in rep_s.per_block] == [
            (s * b.eigenvalue, b.multiplicity, b.behavior, s * b.rate) for b in rep.per_block
        ]
        # the decay samples sit at fixed times, which do not scale
        assert rec_s["decay"]["global_alpha_limit"] == rec["decay"]["global_alpha_limit"]
        assert rec_s["decay"]["blocks"] == [
            {**b, "eigenvalue": cli._fmt_eig(s * blk.eigenvalue, s * rep.spectral_radius),
             "rate": float(_fmt(s * blk.rate))}
            for b, blk in zip(rec["decay"]["blocks"], rep.per_block, strict=True)
        ]


class TestDeterminism:
    def test_two_runs_byte_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            run_shipped("evolve", "evolve_skew_hyperbolic.json", d)
            outs.append((d / "evolve_skew_hyperbolic.trajectory.csv").read_bytes())
        assert outs[0] == outs[1]
