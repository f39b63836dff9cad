"""Scenario fuzzer for the CLI's input boundary.

Every scenario ends in a documented exit code (0 success, 2 parse error, 3
dimension mismatch, 4 singular Jacobi tensor) with nothing on stderr beyond
one ``error:`` line: no traceback and no exit 1, which means "invariant check
failed".  A scenario is well formed except for at most one field, or one
member of an object field, which holds an arbitrary JSON value.  Sizes stay
small (q <= 4, samples <= 64), which keeps the run to about two seconds.

``check`` takes its ``--seed`` and ``--step`` options instead.  A step outside
[1e-4, 0.1] or a negative seed is exit 2; accepted steps are drawn from
[1e-2, 0.1] only, so no draw starts a long RK4 run.  A run that passes writes
the golden report byte for byte: no line shows digits that depend on the
seed or the step.

The command line itself is fuzzed too: one option (``--seed``, ``--step`` or
an unknown ``--x``) with an arbitrary text value, added to a shipped
scenario's command.  A command line the parser rejects is one ``error:`` line
and exit 2; ``check`` command lines that would run the suite are not drawn.
"""
import contextlib
import io
import json
import math
import warnings

import pytest
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from nullgeo.cli import CHECK_STEP_RANGE, main

ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = ROOT / "scenarios"
GOLDEN_REPORT = ROOT / "tests" / "golden" / "check_default.report.txt"
MODES = ("evolve", "classify", "search", "catalog")
CATALOG = {
    "totally_geodesic": ("n", "p", "c"),
    "hyperbolic_cylinder": ("k", "n", "rho"),
    "cartan_veronese_polar": (),
    "euclidean_cylinder": ("n", "kappa"),
}
# the fields each mode reads; a dotted name is a member of an object field
FIELDS = {
    "evolve": ("seed", "c", "C0", "A0", "t_grid", "t_grid.t_end", "t_grid.samples"),
    "classify": ("seed", "c", "C0", "A0", "domain", "domain.kind", "domain.b"),
    "search": ("seed", "family"),
    "catalog": ("seed", "catalog", "catalog.entry", "catalog.params"),
}

numbers = st.integers(-64, 64) | st.floats(-64.0, 64.0) | st.sampled_from(
    (math.nan, math.inf, -math.inf)
)
leaves = st.none() | st.booleans() | numbers | st.text(max_size=4)
junk = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
reals = st.floats(-4.0, 4.0)
positive = st.floats(0.01, 4.0)


def _matrix(q):
    return st.lists(st.lists(reals, min_size=q, max_size=q), min_size=q, max_size=q)


@st.composite
def scenarios(draw):
    """A scenario for a random mode: every field it reads well formed,
    except at most one, which holds an arbitrary JSON value."""
    mode = draw(st.sampled_from(MODES))
    q = draw(st.integers(1, 4))
    wild = draw(st.sampled_from((None, *FIELDS[mode])))

    def field(name, strategy):
        return draw(junk if name == wild else strategy)

    def record(name, **members):
        """An object field whose members are the fields ``name.member``."""
        if name == wild:
            return draw(junk)
        return {k: field(f"{name}.{k}", v) for k, v in members.items()}

    scn = {"mode": mode, "seed": field("seed", st.integers(0, 64))}
    if mode in ("evolve", "classify"):
        scn["c"] = field("c", reals)
        scn["C0"] = field("C0", _matrix(q))
        scn["A0"] = field("A0", st.lists(_matrix(q), max_size=2))
    if mode == "evolve":
        scn["t_grid"] = record("t_grid", t_end=positive, samples=st.integers(2, 64))
    if mode == "classify":
        kinds = st.sampled_from(("segment", "ray", "line"))
        scn["domain"] = record("domain", kind=kinds, b=positive)
    if mode == "search":
        scn["family"] = field("family", st.lists(_matrix(q), min_size=1, max_size=4))
    if mode == "catalog":
        entry = draw(st.sampled_from(sorted(CATALOG)))
        params = st.fixed_dictionaries({n: st.integers(-1, 4) | numbers for n in CATALOG[entry]})
        scn["catalog"] = record("catalog", entry=st.just(entry), params=params)
    return mode, scn


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(case=scenarios())
@settings(derandomize=True, max_examples=200, deadline=None)
def test_any_scenario_ends_in_a_documented_exit(out_dir, case):
    mode, scenario = case
    path = out_dir / "s.json"
    path.write_text(json.dumps(scenario))  # json writes NaN, Infinity
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([mode, "--scenario", str(path), "--out", str(out_dir)])
    assert code in (0, 2, 3, 4)
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: "))
    assert [str(w.message) for w in caught] == []


rejected_steps = (
    st.sampled_from((math.nan, math.inf, -math.inf, 0.0, -0.0))
    | st.floats(-1e300, 1e-4, exclude_max=True)
    | st.floats(0.1, 1e300, exclude_min=True)
)
# half the draws rejected, half accepted
steps = st.sampled_from((rejected_steps, st.floats(1e-2, 0.1))).flatmap(lambda s: s)


@given(step=steps, seed=st.integers(-2, 7))
@settings(derandomize=True, max_examples=40, deadline=None)
def test_check_options_end_in_a_documented_exit(out_dir, step, seed):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", f"--step={step!r}", f"--seed={seed}", "--out", str(out_dir)])
    lines = err.getvalue().splitlines()
    if 1e-4 <= step <= 0.1 and seed >= 0:
        # a coarse step may miss the pinned oracle bounds: exit 1, a FAIL line
        assert code in (0, 1) and lines == []
        if code == 0:
            # a passing report shows bounds and fixed text, whatever the seed
            assert (out_dir / "check.report.txt").read_bytes() == GOLDEN_REPORT.read_bytes()
    else:
        assert code == 2 and out.getvalue() == ""
        assert len(lines) == 1 and lines[0].startswith("error: ")


SHIPPED = {
    "evolve": "evolve_skew_hyperbolic.json",
    "classify": "classify_flat_line.json",
    "search": "search_worked_family.json",
    "catalog": "catalog_hyperbolic_cylinder.json",
    "check": "check_default.json",
}
option_values = st.text(max_size=8) | st.floats().map(repr) | st.integers(-99, 99).map(str)


def _runs_the_suite(command, option, value):
    """Whether ``check`` would accept ``option value`` and run the whole
    suite; its scenario's seed takes the place of any integer ``--seed``."""
    if command != "check" or option == "--x":
        return False
    try:
        number = (int if option == "--seed" else float)(value)
    except ValueError:
        return False
    lo, hi = CHECK_STEP_RANGE
    return option == "--seed" or lo <= number <= hi


@given(
    command=st.sampled_from(sorted(SHIPPED)),
    option=st.sampled_from(("--seed", "--step", "--x")),
    value=option_values,
)
@settings(derandomize=True, max_examples=40, deadline=None)
def test_any_command_line_ends_in_a_documented_exit(out_dir, command, option, value):
    assume(not _runs_the_suite(command, option, value))
    scenario = str(SCENARIO_DIR / SHIPPED[command])
    argv = [command, "--scenario", scenario, "--out", str(out_dir), option, value]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as stop:  # how argparse ends a rejected command line
            code = stop.code
    assert code in (0, 1, 2, 3, 4) and (code != 1 or command == "check")
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: "))
    assert [str(w.message) for w in caught] == []
