"""Workloads of the nullgeo benchmark.

Each workload is an endless, seed-determined stream of operations.  An
operation holds the inputs it was generated with (scenario files are written
before it is timed), the timed call into a public nullgeo entry point, and an
untimed check of what the call returned or wrote.  Every check compares
against values the benchmark computes itself; none of them calls nullgeo.

Checks return one of three outcomes:

- ``ok``: the documented result;
- ``error``: the call raised out of the entry point (a traceback with exit 1
  for the console script) or returned an undocumented exit code;
- ``wrong``: the call completed but its output is wrong.

``error`` and ``wrong`` both count as failed operations; only ``wrong`` makes a
run incorrect.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from nullgeo import cli, core
from nullgeo.sampling import random_compatible_pair

EVOLVE_Q = (2, 8, 32)
# "-long": complex spectrum on a long hyperbolic horizon, so the a|t| >= 1
# branch of the closed forms runs for most of the grid.
EVOLVE_SIGNS = ("-", "-long", "0", "+")
ORACLE_STEP = 1e-3
ORACLE_TOL = 1e-6
# Horizon ladder of the oracle cases, as a fraction of the longest one.  The
# RK4 work of a case is proportional to its horizon; drawn freely, horizons
# make the work of a whole run differ by a quarter between seeds.
HORIZON_LADDER = (0.2, 0.4, 0.6, 0.8, 1.0)
# One `check` run after every CHECK_AFTER cases keeps checks at 1/16 of the
# operations, so the 90th latency percentile falls among the oracle cases and
# not on the boundary between the two kinds.
CHECK_AFTER = 15
# `check` runs cycle through this many check seeds, in an order set by the
# benchmark seed; their cost differs by a third from one check seed to the next.
CHECK_SEEDS = 8
# 20 requests per block: 18 valid, one malformed input of a documented class,
# one of the inputs that escape as tracebacks (ROADMAP item 4).
CLI_BLOCK = (
    "classify", "search", "catalog", "classify", "search",
    "evolve", "classify", "search", "catalog", "bad-doc",
    "classify", "search", "catalog", "classify", "search",
    "evolve", "classify", "search", "catalog", "bad-item4",
)
DOCUMENTED_BAD = ("ragged", "a0-mismatch", "past-singular")
ITEM4_BAD = (
    "nan-C0", "inf-C0", "nan-c", "inf-c", "seed-str",
    "rho-nonpos", "kappa-zero", "n-zero", "overflow-t800",
)
CATALOG_ENTRIES = (
    "totally_geodesic", "hyperbolic_cylinder", "cartan_veronese_polar", "euclidean_cylinder",
)


@dataclass
class CallResult:
    """What one timed call produced."""

    code: int | None = None
    stdout: str = ""
    stderr: str = ""
    raised: BaseException | None = None
    value: object = None


@dataclass
class Op:
    kind: str
    q: int
    call: Callable[[], CallResult]
    check: Callable[[CallResult], tuple[str, str]]
    samples: int = 0
    block_end: bool = True


class Workspace:
    """Scratch directories for scenario files and CLI outputs."""

    def __init__(self, root: Path):
        self.root = root
        self.inputs = root / "in"
        self.out = root / "out"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.out.mkdir(parents=True, exist_ok=True)

    def write_scenario(self, payload: dict) -> str:
        path = self.inputs / "r.json"
        # allow_nan: NaN / Infinity tokens are part of the malformed inputs
        path.write_text(json.dumps(payload, allow_nan=True))
        return str(path)

    def clear_out(self) -> None:
        for entry in os.scandir(self.out):
            os.unlink(entry.path)

    def out_bytes(self) -> int:
        return sum(entry.stat().st_size for entry in os.scandir(self.out))


def call_cli(argv: list[str]) -> CallResult:
    """In-process ``nullgeo`` invocation: the exit code main() returns, or
    the exception that would have ended the console script."""
    out, err = io.StringIO(), io.StringIO()
    res = CallResult()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            res.code = cli.main(argv)
        except SystemExit as e:
            res.code = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # the process would print a traceback, exit 1
            res.raised = e
            res.code = 1
    res.stdout, res.stderr = out.getvalue(), err.getvalue()
    return res


# ---------------------------------------------------------------------------
# input generators
# ---------------------------------------------------------------------------

def complex_spectrum_pair(rng: np.random.Generator, q: int, p: int):
    """Codazzi-compatible (A0, C0) whose spectrum is alpha_j +- i beta_j.

    Built blockwise as C0 = S0^{-1} S1 with S0 = diag(1, -1) and
    S1 = [[alpha, beta], [beta, -alpha]], then rotated by a random orthogonal
    matrix.  An odd q gets one real eigenvalue as well.
    """
    S0 = np.zeros((q, q))
    S1 = np.zeros((q, q))
    for j in range(q // 2):
        i = 2 * j
        alpha = rng.uniform(-0.5, 0.5)
        beta = rng.uniform(0.3, 1.0)
        S0[i, i], S0[i + 1, i + 1] = 1.0, -1.0
        S1[i, i], S1[i, i + 1], S1[i + 1, i], S1[i + 1, i + 1] = alpha, beta, beta, -alpha
    if q % 2:
        S0[-1, -1] = 1.0
        S1[-1, -1] = rng.uniform(-0.5, 0.5)
    Q, _ = np.linalg.qr(rng.normal(size=(q, q)))
    S0, S1 = Q.T @ S0 @ Q, Q.T @ S1 @ Q
    C0 = np.linalg.solve(S0, S1)
    return [S0, S1][:p], C0


def first_singular_time(c: float, C0: np.ndarray) -> float:
    """First positive zero of det(u I - v C0), from the eigenvalues of C0."""
    lam = np.linalg.eigvals(C0)
    reals = [z.real for z in lam if abs(z.imag) <= 1e-10 * (1.0 + abs(z))]
    if c > 0.0:
        a = math.sqrt(c)
        return min(((math.pi / 2.0 - math.atan(x / a)) / a for x in reals), default=math.inf)
    if c < 0.0:
        a = math.sqrt(-c)
        return min((math.atanh(a / x) / a for x in reals if x > a), default=math.inf)
    return min((1.0 / x for x in reals if x > 0.0), default=math.inf)


def _scalars(c: float, t: float):
    if c > 0.0:
        a = math.sqrt(c)
        return math.cos(a * t), math.sin(a * t) / a, -a * math.sin(a * t), math.cos(a * t)
    if c < 0.0:
        a = math.sqrt(-c)
        return math.cosh(a * t), math.sinh(a * t) / a, a * math.sinh(a * t), math.cosh(a * t)
    return 1.0, t, 0.0, 1.0


class ReferenceEvolution:
    """det J(t) and |C(t)|_F from the eigen-decomposition of C0.

    J = u I - v C0 and J' = du I - dv C0 are polynomials in C0, so on each
    eigenvector J has eigenvalue u - v lam and C = -J' J^{-1} has eigenvalue
    -(du - dv lam) / (u - v lam).
    """

    def __init__(self, c: float, C0: np.ndarray):
        self.c = c
        self.lam, self.V = np.linalg.eig(C0)
        self.Vinv = np.linalg.inv(self.V)

    def at(self, t: float) -> tuple[float, float]:
        u, v, du, dv = _scalars(self.c, t)
        jl = u - v * self.lam
        det = float(np.prod(jl).real)
        C = (self.V * (-(du - dv * self.lam) / jl)) @ self.Vinv
        return det, float(np.linalg.norm(C.real))


def _close(got: float, want: float, rtol: float = 1e-6) -> bool:
    return math.isfinite(got) and abs(got - want) <= rtol * max(abs(want), 1e-300) + 1e-12


def _check_evolve_csv(path: Path, c: float, C0: np.ndarray, p: int, t_end: float,
                      samples: int, rows_to_check: list[int]) -> tuple[str, str]:
    q = C0.shape[0]
    try:
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
    except OSError as e:
        return "wrong", f"no trajectory: {e}"
    width = 3 + p * (1 + q)
    if table[0][:3] != ["t", "det_J", "C_norm"] or len(table[0]) != width:
        return "wrong", f"header {table[0][:4]}... has {len(table[0])} columns, want {width}"
    if len(table) != samples + 1 or any(len(r) != width for r in table[1:]):
        return "wrong", "trajectory rows have the wrong count or width"
    ref = ReferenceEvolution(c, C0)
    for k in rows_to_check:
        t, det, cnorm = (float(x) for x in table[1 + k][:3])
        want_t = t_end * k / (samples - 1)
        want_det, want_cnorm = ref.at(want_t)
        if not (_close(t, want_t, 1e-12) and _close(det, want_det) and _close(cnorm, want_cnorm)):
            return "wrong", (
                f"row {k}: (t, det_J, C_norm) = ({t}, {det}, {cnorm}), "
                f"reference ({want_t}, {want_det}, {want_cnorm})"
            )
    return "ok", ""


def _clean_exit(res: CallResult) -> tuple[str, str] | None:
    if res.raised is not None:
        return "error", f"uncaught {type(res.raised).__name__}: {res.raised}"
    if res.code != 0:
        return "error", f"exit {res.code}: {res.stderr.strip()}"
    return None


def evolve_op(ws: Workspace, rng: np.random.Generator, q: int, p: int, sign: str,
              samples: int, block_end: bool = True) -> Op:
    if sign == "-long":
        c = -rng.uniform(0.5, 1.0)
        A0, C0 = complex_spectrum_pair(rng, q, p)
        t_end = rng.uniform(18.0, 20.0)
    else:
        c = {"-": -1.0, "0": 0.0, "+": 1.0}[sign] * rng.uniform(0.25, 4.0)
        A0s, C0s = random_compatible_pair(rng, q, p)
        A0, C0 = list(A0s.ops), C0s.mat
        t_end = rng.uniform(0.3, 0.9) * min(first_singular_time(c, C0), 5.0)
    scenario = {
        "mode": "evolve", "c": c, "C0": C0.tolist(), "A0": [a.tolist() for a in A0],
        "domain": {"kind": "ray"}, "t_grid": {"t_end": t_end, "samples": samples},
    }
    path = ws.write_scenario(scenario)
    argv = ["evolve", "--scenario", path, "--out", str(ws.out)]
    middle = sorted(int(k) for k in rng.integers(1, samples - 1, size=2))
    rows = [0, *middle, samples - 1]

    def check(res: CallResult) -> tuple[str, str]:
        bad = _clean_exit(res)
        if bad:
            return bad
        return _check_evolve_csv(ws.out / "r.trajectory.csv", c, C0, p, t_end, samples, rows)

    return Op("evolve", q, lambda: call_cli(argv), check, samples=samples,
              block_end=block_end)


# ---------------------------------------------------------------------------
# evolve-grid
# ---------------------------------------------------------------------------

def evolve_grid_ops(seed: int, ws: Workspace, samples: int = 1001) -> Iterator[Op]:
    """Closed-form evolution on 1001-sample grids.  Every block of six holds
    each (q, p) pair once, q in 2, 8, 32 and p in 1, 2, so all blocks cost
    about the same; the sign of c changes from one block to the next."""
    k = 0
    while True:
        block, pos = divmod(k, 2 * len(EVOLVE_Q))
        sign = EVOLVE_SIGNS[block % len(EVOLVE_SIGNS)]
        rng = np.random.default_rng([seed, 1, k])
        yield evolve_op(ws, rng, EVOLVE_Q[pos // 2], 1 + pos % 2, sign, samples,
                        block_end=pos == 2 * len(EVOLVE_Q) - 1)
        k += 1


def evolve_grid_warmup(ws: Workspace) -> list[Op]:
    rng = np.random.default_rng([0, 101])
    return [evolve_op(ws, rng, q, 1, sign, 41) for q in EVOLVE_Q for sign in ("-", "-long")]


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------

def horizon_root(c: float, b: float) -> float:
    """The real eigenvalue whose factor u - v lam first vanishes at t = b."""
    if c > 0.0:
        a = math.sqrt(c)
        return a / math.tan(a * b)
    if c < 0.0:
        a = math.sqrt(-c)
        return a / math.tanh(a * b)
    return 1.0 / b


def oracle_case_op(rng: np.random.Generator, c: float, q: int, u: float,
                   step: float = ORACLE_STEP) -> Op:
    """A compatible pair as acceptance criteria 01/02 draw it, shifted by a
    multiple of I (which keeps it compatible) so that its first singular time
    is b = u * 6.25 for c <= 0, giving the grid min(0.8 b, 5) = 5 u, and
    b = 0.95 u pi / sqrt(c) for c > 0."""
    b = 0.95 * u * math.pi / math.sqrt(c) if c > 0.0 else 6.25 * u
    while True:
        A0, C0 = random_compatible_pair(rng, q)
        # the rightmost eigenvalue must be real: a complex one right of the
        # shifted root would bring C(t) near a pole before the horizon
        top = max(np.linalg.eigvals(C0.mat), key=lambda z: z.real)
        if abs(top.imag) <= 1e-10 * (1.0 + abs(top)):
            break
    C0 = C0.mat - (top.real - horizon_root(c, b)) * np.eye(q)
    span = min(0.8 * first_singular_time(c, C0), 5.0)
    times = [span * k / 5 for k in range(1, 6)]

    def call() -> CallResult:
        ric = core.riccati_path(c, C0, times, step)
        shp = core.shape_ode_path(A0, c, C0, times, step)
        dev = 0.0
        for t, Ct, At in zip(times, ric, shp):
            closed = core.splitting_tensor_at(c, C0, t).mat
            dev = max(dev, float(np.abs(closed - Ct).max()))
            for a, b in zip(core.shape_operator_at(A0, c, C0, t).ops, At.ops):
                dev = max(dev, float(np.abs(a - b).max()))
        return CallResult(value=dev)

    def check(res: CallResult) -> tuple[str, str]:
        if res.raised is not None:
            return "error", f"uncaught {type(res.raised).__name__}: {res.raised}"
        if not res.value <= ORACLE_TOL:
            return "wrong", f"closed form vs RK4 deviation {res.value:.3e} > {ORACLE_TOL}"
        return "ok", ""

    return Op("case", q, call, check)


def check_run_op(ws: Workspace, check_seed: int) -> Op:
    argv = ["check", "--seed", str(check_seed), "--out", str(ws.out)]

    def check(res: CallResult) -> tuple[str, str]:
        bad = _clean_exit(res)
        if bad:
            return bad
        last = res.stdout.strip().splitlines()[-1] if res.stdout.strip() else ""
        if not last.endswith(" 0 failed"):
            return "wrong", f"check report ends with {last!r}"
        return "ok", ""

    return Op("check", 0, lambda: call_cli(argv), check)


def oracle_check_ops(seed: int, ws: Workspace, step: float = ORACLE_STEP,
                     check_after: int = CHECK_AFTER) -> Iterator[Op]:
    """Oracle cases drawn like acceptance criteria 01/02: c cycles -1, 0, 1
    and q runs 1..5; every 15 cases hold each horizon of the ladder three
    times.  A `check` run follows every ``check_after`` cases."""
    case = run = 0
    while True:
        rng = np.random.default_rng([seed, 2, case])
        u = HORIZON_LADDER[(case // 15 + case % 15) % len(HORIZON_LADDER)]
        op = oracle_case_op(rng, (-1.0, 0.0, 1.0)[case % 3], 1 + (case // 3) % 5, u, step)
        case += 1
        op.block_end = False
        yield op
        if case % check_after == 0:
            op = check_run_op(ws, (seed + run) % CHECK_SEEDS)
            run += 1
            yield op


def oracle_check_warmup(ws: Workspace) -> list[Op]:
    rng = np.random.default_rng([0, 102])
    return [oracle_case_op(rng, c, 2, 0.2, step=1e-2) for c in (-1.0, 0.0, 1.0)]


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------

def expected_consistent(c: float, C0: np.ndarray, kind: str, b: float | None):
    """Whether the spectrum satisfies the eigenvalue clause for (c, domain),
    or None when an eigenvalue sits too close to a clause boundary to tell."""
    reals = []
    for z in np.linalg.eigvals(C0):
        rel = abs(z.imag) / (1.0 + abs(z))
        if 1e-12 < rel < 1e-6:
            return None
        if rel <= 1e-12:
            reals.append(z.real)
    if c > 0.0:
        reaches = kind != "segment" or b >= math.pi / math.sqrt(c)
        return not (reaches and reals)
    if kind == "segment":
        return True
    a = math.sqrt(-c)
    edge = [x - a for x in reals] if kind == "ray" else [abs(x) - a for x in reals]
    if any(abs(e) < 1e-6 for e in edge):
        return None
    return all(e < 0.0 for e in edge)


def classify_op(ws: Workspace, rng: np.random.Generator, j: int) -> Op:
    kind = ("segment", "ray", "line")[j % 3]
    sign = (-1.0, 0.0, 1.0)[(j // 3) % 3]
    while True:
        c = sign * rng.uniform(0.25, 4.0)
        q = int(rng.integers(2, 7))
        if (j // 9) % 2:
            A0, C0 = complex_spectrum_pair(rng, q, 1)
        else:
            A0s, C0s = random_compatible_pair(rng, q)
            A0, C0 = list(A0s.ops), C0s.mat
        b = float(rng.uniform(0.5, 5.0)) if kind == "segment" else None
        want = expected_consistent(c, C0, kind, b)
        if want is not None:
            break
    domain = {"kind": kind} if b is None else {"kind": kind, "b": b}
    scenario = {"mode": "classify", "c": c, "C0": C0.tolist(),
                "A0": [a.tolist() for a in A0], "domain": domain}
    path = ws.write_scenario(scenario)
    argv = ["classify", "--scenario", path, "--out", str(ws.out)]
    want_decay = want and c <= 0.0 and kind != "segment"

    def check(res: CallResult) -> tuple[str, str]:
        bad = _clean_exit(res)
        if bad:
            return bad
        try:
            payload = json.loads((ws.out / "r.verdict.json").read_text())
            (ws.out / "r.verdict.txt").read_text()
        except (OSError, ValueError) as e:
            return "wrong", f"verdict files: {e}"
        if payload["verdict"]["consistent"] != want:
            return "wrong", f"consistent={payload['verdict']['consistent']}, expected {want}"
        if ("decay" in payload) != want_decay:
            return "wrong", f"decay report present={'decay' in payload}, expected {want_decay}"
        return "ok", ""

    return Op("classify", q, lambda: call_cli(argv), check)


def search_op(ws: Workspace, rng: np.random.Generator, j: int) -> Op:
    q = int(rng.integers(2, 13))
    found = j % 2 == 0
    nu0 = q * (q + 1) // 2 - (0 if found else 1)
    family = rng.uniform(-1.0, 1.0, size=(nu0, q, q))
    path = ws.write_scenario({"mode": "search", "family": family.tolist()})
    argv = ["search", "--scenario", path, "--out", str(ws.out)]

    def check(res: CallResult) -> tuple[str, str]:
        bad = _clean_exit(res)
        if bad:
            return bad
        try:
            d = json.loads((ws.out / "r.direction.json").read_text())
        except (OSError, ValueError) as e:
            return "wrong", f"direction file: {e}"
        if d["result"] != ("found" if found else "absent"):
            return "wrong", f"result {d['result']!r} for nu0={nu0}, q={q}"
        if not found:
            return "ok", ""
        coeffs = np.asarray(d["coeffs"])
        S = np.asarray(d["skew_part"])
        lam = float(d["lambda"])
        C = np.tensordot(coeffs, family, axes=1)
        resid = float(np.abs(C + S + lam * np.eye(q)).max())
        if resid > 1e-9 or lam > 0.0 or float(np.abs(S + S.T).max()) > 1e-12 \
                or abs(float(np.linalg.norm(coeffs)) - 1.0) > 1e-9:
            return "wrong", f"C + S + lam I residual {resid:.3e}, lam {lam}"
        return "ok", ""

    return Op("search", q, lambda: call_cli(argv), check)


def _catalog_params(rng: np.random.Generator, entry: str) -> dict:
    if entry == "totally_geodesic":
        return {"n": int(rng.integers(2, 7)), "p": int(rng.integers(1, 4)), "c": float(rng.uniform(-2, 2))}
    if entry == "hyperbolic_cylinder":
        n = int(rng.integers(2, 7))
        return {"k": int(rng.integers(1, n)), "n": n, "rho": float(rng.uniform(0.2, 3.0))}
    if entry == "euclidean_cylinder":
        kappa = float(rng.uniform(0.2, 3.0)) * float(rng.choice([-1.0, 1.0]))
        return {"n": int(rng.integers(2, 7)), "kappa": kappa}
    return {}


def catalog_op(ws: Workspace, rng: np.random.Generator, j: int) -> Op:
    entry = CATALOG_ENTRIES[j % 4]
    params = _catalog_params(rng, entry)
    path = ws.write_scenario({"mode": "catalog", "catalog": {"entry": entry, "params": params}})
    argv = ["catalog", "--scenario", path, "--out", str(ws.out)]

    def check(res: CallResult) -> tuple[str, str]:
        bad = _clean_exit(res)
        if bad:
            return bad
        try:
            verified = json.loads((ws.out / "r.model.json").read_text())["verified"]
        except (OSError, ValueError, KeyError) as e:
            return "wrong", f"model file: {e}"
        if not verified or not all(v is True for v in verified.values()):
            return "wrong", f"unverified properties in {verified}"
        return "ok", ""

    return Op("catalog", 0, lambda: call_cli(argv), check)


def _bad_scenario(rng: np.random.Generator, case: str) -> tuple[str, dict, set]:
    """(subcommand, scenario, acceptable exit codes) for a malformed input."""
    A0, C0 = complex_spectrum_pair(rng, 2, 1)
    base = {"c": -1.0, "C0": C0.tolist(), "A0": [a.tolist() for a in A0]}
    evolve = {"mode": "evolve", **base, "t_grid": {"t_end": 2.0, "samples": 41}}
    classify = {"mode": "classify", **base, "domain": {"kind": "ray"}}
    if case == "ragged":
        return "classify", {**classify, "C0": [[1.0, 2.0], [3.0]]}, {2}
    if case == "a0-mismatch":
        return "classify", {**classify, "A0": [np.eye(3).tolist()]}, {3}
    if case == "past-singular":
        lam = rng.uniform(0.5, 2.0)
        t_end = rng.uniform(1.2, 3.0) / lam
        return "evolve", {**evolve, "c": 0.0, "C0": np.diag([lam, -lam]).tolist(),
                          "A0": [np.eye(2).tolist()],
                          "t_grid": {"t_end": t_end, "samples": 41}}, {4}
    if case == "nan-C0":
        return "classify", {**classify, "C0": [[math.nan, 1.0], [-1.0, 0.0]]}, {2}
    if case == "inf-C0":
        return "evolve", {**evolve, "C0": [[0.0, math.inf], [-1.0, 0.0]]}, {2}
    if case == "nan-c":
        return "classify", {**classify, "c": math.nan}, {2}
    if case == "inf-c":
        return "evolve", {**evolve, "c": -math.inf}, {2}
    if case == "seed-str":
        return "evolve", {**evolve, "seed": "1.5"}, {2}
    if case == "rho-nonpos":
        params = {"k": 1, "n": 3, "rho": -float(rng.uniform(0.0, 2.0))}
        return "catalog", {"mode": "catalog", "catalog": {"entry": "hyperbolic_cylinder", "params": params}}, {2}
    if case == "kappa-zero":
        params = {"n": 3, "kappa": 0.0}
        return "catalog", {"mode": "catalog", "catalog": {"entry": "euclidean_cylinder", "params": params}}, {2}
    if case == "n-zero":
        params = {"n": 0, "p": 1, "c": 1.0}
        return "catalog", {"mode": "catalog", "catalog": {"entry": "totally_geodesic", "params": params}}, {2}
    if case == "overflow-t800":
        # exit 0 is right too, once det_J no longer overflows
        return "evolve", {**evolve, "t_grid": {"t_end": 800.0, "samples": 41}}, {0, 2}
    raise ValueError(case)


def bad_op(ws: Workspace, rng: np.random.Generator, case: str, group: str) -> Op:
    mode, scenario, codes = _bad_scenario(rng, case)
    path = ws.write_scenario(scenario)
    argv = [mode, "--scenario", path, "--out", str(ws.out)]

    def check(res: CallResult) -> tuple[str, str]:
        if res.raised is not None:
            return "error", f"{case}: uncaught {type(res.raised).__name__}: {res.raised}"
        if res.code not in codes:
            outcome = "wrong" if res.code == 0 else "error"
            return outcome, f"{case}: exit {res.code}, expected {sorted(codes)}"
        errors = [ln for ln in res.stderr.splitlines() if ln.startswith("error:")]
        if res.code != 0 and (len(errors) != 1 or len(res.stderr.splitlines()) != 1):
            return "wrong", f"{case}: stderr {res.stderr!r} is not one error: line"
        if res.code == 0 and not any(ws.out.iterdir()):
            return "wrong", f"{case}: exit 0 without output"
        return "ok", ""

    return Op(group, 0, lambda: call_cli(argv), check)


def cli_mix_ops(seed: int, ws: Workspace, evolve_samples: int = 41) -> Iterator[Op]:
    """Small requests through cli.main in blocks of len(CLI_BLOCK); the counter
    of each request kind picks its variant, so every block has the same mix."""
    counts = dict.fromkeys(set(CLI_BLOCK), 0)
    block = 0
    while True:
        for pos, kind in enumerate(CLI_BLOCK):
            j = counts[kind]
            counts[kind] += 1
            rng = np.random.default_rng([seed, 4, block, pos])
            if kind == "classify":
                op = classify_op(ws, rng, j)
            elif kind == "search":
                op = search_op(ws, rng, j)
            elif kind == "catalog":
                op = catalog_op(ws, rng, j)
            elif kind == "evolve":
                q, p = int(rng.integers(2, 5)), int(rng.integers(1, 3))
                op = evolve_op(ws, rng, q, p, ("-", "0", "+")[j % 3], evolve_samples)
            elif kind == "bad-doc":
                op = bad_op(ws, rng, DOCUMENTED_BAD[j % len(DOCUMENTED_BAD)], kind)
            else:
                op = bad_op(ws, rng, ITEM4_BAD[j % len(ITEM4_BAD)], kind)
            op.block_end = pos == len(CLI_BLOCK) - 1
            yield op
        block += 1


def cli_mix_warmup(ws: Workspace) -> list[Op]:
    ops = cli_mix_ops(10**6, ws)
    return [next(ops) for _ in CLI_BLOCK]


WORKLOADS = {
    "evolve-grid": (evolve_grid_ops, evolve_grid_warmup),
    "oracle-check": (oracle_check_ops, oracle_check_warmup),
    "cli-mix": (cli_mix_ops, cli_mix_warmup),
}
