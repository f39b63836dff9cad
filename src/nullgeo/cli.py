"""Scenario ingestion and batch execution.

Scenarios are JSON documents (key/value with nested arrays, matrices
row-major).  Subcommands: evolve, classify, search, catalog, check.  Exit
codes: 0 success, 1 failing invariant checks, 2 a bad command line, parse
error or input the computation rejects, 3 dimension mismatch, 4 singular
Jacobi tensor.  Exit codes 2-4 come with one ``error:`` line on stderr.
Each subcommand imports the modules it runs, when it runs.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    DomainKind,
    GeodesicDomain,
    NullityError,
    SingularJacobi,
    _evaluate_grid,
    is_codazzi_compatible,
    max_invertible_time,
)

__all__ = ["main", "Scenario", "ScenarioParseError", "DimensionMismatch"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_SINGULAR = 4

MODES = ("evolve", "classify", "search", "catalog", "check")

# evolve evaluates its grid in blocks of at most _EVOLVE_BLOCK_ENTRIES matrix
# entries per stack, 512 KiB, so that the stacks of one block stay in a
# core's cache from one call to the next
_EVOLVE_BLOCK_ENTRIES = 2**16
# the evolve grid samples a scenario may request
SAMPLES_RANGE = (2, 100_000)
# rows of a scenario matrix (C0, A0, family): q, the conullity index
MATRIX_DIM_MAX = 128


class ScenarioParseError(NullityError):
    pass


class DimensionMismatch(NullityError):
    pass


@dataclass
class Scenario:
    mode: str
    c: float | None = None
    C0: np.ndarray | None = None
    A0: tuple | None = None
    family: tuple | None = None
    domain: GeodesicDomain | None = None
    t_end: float | None = None
    samples: int | None = None
    seed: int = 0
    catalog_entry: str | None = None
    catalog_params: dict | None = None


def _as_matrix(raw, what: str) -> np.ndarray:
    try:
        m = np.array(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as e:
        raise ScenarioParseError(f"{what}: not a numeric matrix ({e})")
    if m.ndim != 2:
        raise ScenarioParseError(f"{what}: expected a matrix, got ndim={m.ndim}")
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{what}: must be square, got {m.shape}")
    if m.shape[0] > MATRIX_DIM_MAX:
        raise ScenarioParseError(f"{what}: at most {MATRIX_DIM_MAX} rows, got {m.shape[0]}")
    if not np.isfinite(m).all():
        raise ScenarioParseError(f"{what}: entries must be finite")
    return m


def _as_matrices(raw, what: str) -> tuple:
    """A list of matrices under the rules of :func:`_as_matrix`, converted
    in one stacked pass, and member by member only when that fails: the
    error then names the first bad member."""
    if not isinstance(raw, list):
        raise ScenarioParseError(f"{what} must be a list of matrices")
    try:
        F = np.array(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        F = np.zeros(0)
    if F.ndim == 3 and F.shape[1] == F.shape[2] <= MATRIX_DIM_MAX and np.isfinite(F).all():
        return tuple(F)
    return tuple(_as_matrix(m, f"{what}[{i}]") for i, m in enumerate(raw))


def parse_scenario(raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioParseError("scenario must be a JSON object")
    mode = raw.get("mode")
    if mode not in MODES:
        raise ScenarioParseError(f"mode must be one of {MODES}, got {mode!r}")
    seed = raw.get("seed", 0)
    # bool is an int subclass, and int() would truncate a float or read a string
    if type(seed) is not int:
        raise ScenarioParseError(f"seed must be an integer, got {seed!r}")
    scn = Scenario(mode=mode, seed=seed)

    if "c" in raw:
        try:
            scn.c = float(raw["c"])
        except (TypeError, ValueError, OverflowError):
            raise ScenarioParseError("c must be a real number")
        if not math.isfinite(scn.c):
            raise ScenarioParseError(f"c must be finite, got {scn.c}")
    if "C0" in raw:
        scn.C0 = _as_matrix(raw["C0"], "C0")
    if "A0" in raw:
        scn.A0 = _as_matrices(raw["A0"], "A0")
    if "family" in raw:
        scn.family = _as_matrices(raw["family"], "family")
    if "domain" in raw:
        d = raw["domain"]
        if not isinstance(d, dict) or "kind" not in d:
            raise ScenarioParseError("domain must be an object with a 'kind'")
        kind = d["kind"]
        try:
            if kind == "segment":
                scn.domain = GeodesicDomain.segment(float(d["b"]))
            elif kind == "ray":
                scn.domain = GeodesicDomain.ray()
            elif kind == "line":
                scn.domain = GeodesicDomain.line()
            else:
                raise ScenarioParseError(f"unknown domain kind {kind!r}")
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise ScenarioParseError(f"bad domain: {e}")
    if "t_grid" in raw:
        g = raw["t_grid"]
        try:
            scn.t_end = float(g["t_end"])
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ScenarioParseError("t_grid needs a numeric t_end")
        if not 0.0 < scn.t_end < math.inf:
            raise ScenarioParseError("t_grid needs finite t_end > 0")
        scn.samples = g.get("samples", 11)
        lo, hi = SAMPLES_RANGE
        # bool is an int subclass, and int() would truncate a float
        if type(scn.samples) is not int or not lo <= scn.samples <= hi:
            raise ScenarioParseError(f"t_grid samples must be an integer in [{lo}, {hi}]")
        if not math.isfinite(scn.t_end * (scn.samples - 1)):
            # the grid is t_end * k / (samples - 1)
            raise ScenarioParseError(
                f"t_grid t_end = {scn.t_end} times samples - 1 = {scn.samples - 1} overflows"
            )
    if "catalog" in raw:
        cat = raw["catalog"]
        if not isinstance(cat, dict) or not isinstance(cat.get("entry"), str):
            raise ScenarioParseError("catalog must be an object with a string 'entry'")
        if not isinstance(cat.get("params", {}), dict):
            raise ScenarioParseError("catalog params must be an object")
        scn.catalog_entry = cat["entry"]
        scn.catalog_params = dict(cat.get("params", {}))

    # cross-field dimension consistency
    if scn.C0 is not None and scn.A0 is not None:
        q = scn.C0.shape[0]
        for i, a in enumerate(scn.A0):
            if a.shape != (q, q):
                raise DimensionMismatch(
                    f"A0[{i}] has shape {a.shape}, expected ({q}, {q})"
                )
    if scn.family is not None and len({m.shape for m in scn.family}) > 1:
        raise DimensionMismatch("family members must share one shape")
    return scn


def load_scenario(path: str | Path) -> Scenario:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as e:  # ValueError: bad JSON, UTF-8 or an over-long int
        raise ScenarioParseError(f"{path}: {e}")
    return parse_scenario(raw)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

_FLOAT = "%.14g"


def _fmt(x: float) -> str:
    """The CLI's one rendering of a float: 14 significant digits, no ``-0``.

    Every float the CLI writes goes through here or through
    :func:`_fmt_rows`, which renders the same way.  Results from different
    numpy/LAPACK builds or BLAS kernels differ in the last one or two of 17
    digits; 14 digits hide that except where a value lies near a rounding
    boundary, so the golden outputs are the bytes of one BLAS kernel (see
    the README's output contract).  Adding 0.0 turns -0.0 into 0.0.
    """
    return _FLOAT % (float(x) + 0.0)


def _fmt_rows(table: np.ndarray) -> str:
    """The rows of a real 2-D table as CSV lines, each ended by CRLF and each
    cell as :func:`_fmt` renders it, with one ``%`` over the row template
    repeated once per row."""
    rows, cols = table.shape
    template = (",".join([_FLOAT] * cols) + "\r\n") * rows
    return template % tuple((table + 0.0).ravel().tolist())


def _num(x: float) -> float:
    """``x`` as written to JSON: the float that ``_fmt`` renders."""
    return float(_fmt(x))


def _nums(a) -> list:
    """A vector or matrix as nested lists of ``_num`` values."""
    return [_nums(row) if np.ndim(row) else _num(row) for row in a]


def _fmt_eig(z: complex, radius: float) -> str:
    """An eigenvalue of a matrix of spectral radius ``radius``, real when
    |Im z| <= 1e-12 radius: scale-free."""
    if abs(z.imag) <= 1e-12 * radius:
        return _fmt(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}j"


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------

def _require(scn: Scenario, *fields: str) -> None:
    missing = [f for f in fields if getattr(scn, f) is None]
    if missing:
        raise ScenarioParseError(f"mode {scn.mode!r} requires fields {missing}")


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each matrix of a stack from
    :func:`_evaluate_grid`, bit for bit, with one stacked inner product.

    The stacks are transposed views of C-ordered arrays, and ``norm`` sums
    each matrix in memory order, so the flattening follows memory order too.
    ``_frobenius(X.T[None])[0]`` is thus ``norm(X)`` of a C-ordered ``X``.
    The squares lose range at both ends, so two kinds of matrix have the
    norm taken again as m ||X / m||, m = max |x|, as LAPACK's dnrm2 scales:
    a finite matrix whose norm comes out inf (squares past ~1.3e154
    overflow), and a nonzero one whose entries all lie below 2**-486
    (~1.6e-146, where squares near the subnormal range and flush to 0).
    The norm of such a matrix is below 2**-400, which screens the stack.
    """
    f = stack.transpose(0, 2, 1).reshape(len(stack), -1)
    with np.errstate(over="ignore"):
        norms = np.sqrt(f[:, None, :] @ f[:, :, None]).reshape(-1)
    idx = np.flatnonzero(np.isinf(norms) | (norms < 2.0**-400))
    if idx.size:
        g = f[idx]
        m = np.abs(g).max(axis=1)
        redo = np.where(np.isinf(norms[idx]), np.isfinite(m), (0.0 < m) & (m < 2.0**-486))
        idx, m = idx[redo], m[redo, None]
        g = g[redo] / m
        with np.errstate(over="ignore"):  # inf is the true norm past the float range
            norms[idx] = m[:, 0] * np.sqrt(g[:, None, :] @ g[:, :, None]).reshape(-1)
    return norms


def _real_spectrum(stack: np.ndarray, eigs: np.ndarray) -> np.ndarray:
    """For each matrix A of ``stack``, whether every eigenvalue renders real in
    :func:`_fmt_eig`, given the eigenvalues ``eigs`` of the symmetric parts.

    By Bendixson's theorem |Im lambda| <= ||(A - A^T)/2||_2, which the
    Frobenius norm bounds, and the spectral radius of A is that of its
    symmetric part up to that norm.  Data that pass the Codazzi tolerance
    without being exactly compatible fail here and keep their imaginary parts.
    """
    k = stack - stack.transpose(0, 2, 1)
    skew = 0.5 * np.sqrt(np.einsum("kij,kij->k", k, k))  # one pass, unlike norm
    return skew <= 1e-12 * np.abs(eigs).max(axis=1)


def _evolve_block(scn: Scenario, grid: list[float]):
    """The columns t, det J, |C| and the stacks A of one block of ``evolve``
    samples, with the norms of the A."""
    det, C, A = _evaluate_grid(scn.c, scn.C0, scn.A0, grid)
    head = [np.array(grid), det, _frobenius(C)]
    norms = [_frobenius(a) for a in A]
    if grid[0] == 0.0:
        # t = 0 shows the initial data as given; the norms sum in memory
        # order, so they are taken of C0 and A0 themselves
        head[2][0] = _frobenius(scn.C0.T[None])[0]
        for a, n, a0 in zip(A, norms, scn.A0):
            a[0], n[0] = a0, _frobenius(a0.T[None])[0]
    return head, A, norms


def _general_rows(head: list, A: list, norms: list) -> str:
    """CSV lines of a run of rows with the eigenvalues of the general solver,
    ordered by real and then imaginary part, to 12 digits of the row's
    spectral radius, complex ones as ``a±bj``."""
    eigs = []
    for a in A:
        w = np.linalg.eigvals(a)
        radius = np.abs(w).max(axis=-1)
        u = w / np.where(radius > 0.0, radius, 1.0)[:, None]
        order = np.lexsort((np.round(u.imag, 12), np.round(u.real, 12)), axis=-1)
        eigs.append((np.take_along_axis(w, order, axis=-1).tolist(), radius))
    lines = []
    for k in range(len(head[0])):
        row = [_fmt(x[k]) for x in head]
        for n, (w, radius) in zip(norms, eigs):
            row.append(_fmt(n[k]))
            row.extend(_fmt_eig(z, radius[k]) for z in w[k])
        lines.append(",".join(row) + "\r\n")
    return "".join(lines)


def run_evolve(scn: Scenario, out_dir: Path, stem: str) -> int:
    """Write the trajectory CSV of an ``evolve`` scenario.

    The grid is evaluated in blocks of at most ``_EVOLVE_BLOCK_ENTRIES``
    matrix entries per stack (64 samples at q = 32), so memory stays bounded
    for every allowed q: one operator on 3000 samples peaks at about 45 MB
    at q = 64 and 50 MB at q = 96, and 100000 samples at q = 1 at about
    70 MB (``ru_maxrss`` of the process).
    """
    _require(scn, "c", "C0", "A0", "t_end")
    b_max = max_invertible_time(scn.c, scn.C0)
    if not scn.t_end < b_max:
        raise SingularJacobi(
            f"t_end={scn.t_end} reaches the singular time b_max={b_max:.6g}"
        )
    # for Codazzi data A(t) = A0 J(t)^{-1} is self-adjoint at every t, so its
    # spectrum comes from the symmetric solver, real and ascending, in each
    # row whose skew part is too small to show (see _real_spectrum)
    symmetric = is_codazzi_compatible(scn.A0, scn.C0)
    q, p = scn.C0.shape[0], len(scn.A0)
    header = ["t", "det_J", "C_norm"]
    for i in range(p):
        header.append(f"A{i}_norm")
        header.extend(f"A{i}_eig{j}" for j in range(q))
    ts = [scn.t_end * k / (scn.samples - 1) for k in range(scn.samples)]
    text = [",".join(header) + "\r\n"]  # csv's line ends; no cell holds a comma or a quote
    block = max(1, _EVOLVE_BLOCK_ENTRIES // (q * q))
    for lo in range(0, len(ts), block):
        head, A, norms = _evolve_block(scn, ts[lo:lo + block])
        real = np.full(len(head[0]), symmetric)
        if symmetric:
            # halves first: A/2 + A^T/2 cannot overflow, and it is
            # (A + A^T)/2 bit for bit unless an entry is below 2**-1021
            eigs = [np.linalg.eigvalsh(h + h.transpose(0, 2, 1)) for h in (0.5 * a for a in A)]
            for a, w in zip(A, eigs):
                real &= _real_spectrum(a, w)
            table = np.column_stack(head + [x for pair in zip(norms, eigs) for x in pair])
        # runs of rows that render real, and of rows that do not
        cuts = [0, *(np.flatnonzero(np.diff(real)) + 1), len(real)]
        for i, j in zip(cuts, cuts[1:]):
            if real[i]:
                text.append(_fmt_rows(table[i:j]))
            else:
                text.append(_general_rows(*([x[i:j] for x in part] for part in (head, A, norms))))
    (out_dir / f"{stem}.trajectory.csv").write_text("".join(text), newline="")
    return EXIT_OK


def _verdict_record(scn: Scenario):
    from .classify import classify_splitting_spectrum, decay_report
    verdict = classify_splitting_spectrum(scn.c, scn.C0, scn.domain)
    rec = {
        "consistent": verdict.consistent,
        "violated_clause": verdict.violated_clause.value if verdict.violated_clause else None,
        "offending_eigenvalues": [_fmt(z.real) for z in verdict.offending_eigenvalues],
        "admissible_interval": (
            _nums(verdict.admissible_interval) if verdict.admissible_interval else None
        ),
    }
    decay = None
    if (
        verdict.consistent
        and scn.A0 is not None
        and scn.c <= 0.0
        and scn.domain.kind in (DomainKind.RAY, DomainKind.LINE)
    ):
        rep = decay_report(scn.A0, scn.c, scn.C0, scn.domain)
        decay = {
            "global_alpha_limit": rep.global_alpha_limit.value,
            "blocks": [
                {
                    "eigenvalue": _fmt_eig(b.eigenvalue, rep.spectral_radius),
                    "multiplicity": b.multiplicity,
                    "behavior": b.behavior.value,
                    "rate": _num(b.rate),
                }
                for b in rep.per_block
            ],
            "samples": [
                {"t": _num(t), "norm": _num(total), "critical_norm": _num(crit)}
                for t, total, crit in rep.samples
            ],
        }
    return verdict, rec, decay


def run_classify(scn: Scenario, out_dir: Path, stem: str) -> int:
    _require(scn, "c", "C0", "domain")
    verdict, rec, decay = _verdict_record(scn)
    payload = {"verdict": rec}
    if decay is not None:
        payload["decay"] = decay
    _json_dump(payload, out_dir / f"{stem}.verdict.json")

    lines = []
    if verdict.consistent:
        lines.append("consistent: no eigenvalue clause violated")
    else:
        lines.append(
            f"violates ({_human_clause(verdict.violated_clause.value)}): "
            f"offending eigenvalues " + ", ".join(rec["offending_eigenvalues"])
        )
    if verdict.admissible_interval:
        lo, hi = verdict.admissible_interval
        lines.append(f"admissible real eigenvalues: [{_fmt(lo)}, {_fmt(hi)}]")
    if decay is not None:
        lines.append(f"global alpha limit: {decay['global_alpha_limit']}")
        for b in decay["blocks"]:
            lines.append(
                f"  eigenvalue {b['eigenvalue']} (x{b['multiplicity']}): "
                f"{b['behavior']} rate {_fmt(b['rate'])}"
            )
    (out_dir / f"{stem}.verdict.txt").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def _human_clause(clause: str) -> str:
    return {"I": "i", "II": "ii", "II1": "ii.1", "II2": "ii.2"}[clause]


def run_search(scn: Scenario, out_dir: Path, stem: str) -> int:
    _require(scn, "family")
    if not scn.family:
        raise DimensionMismatch("family must contain at least one matrix")
    from .theorems import SplittingFamily, find_special_nullity_direction
    d = find_special_nullity_direction(SplittingFamily(basis=scn.family))
    if d is None:
        _json_dump({"result": "absent"}, out_dir / f"{stem}.direction.json")
    else:
        _json_dump(
            {
                "result": "found",
                "coeffs": _nums(d.coeffs),
                "skew_part": _nums(d.skew_part),
                "lambda": _num(d.lam),
            },
            out_dir / f"{stem}.direction.json",
        )
    return EXIT_OK


def run_catalog(scn: Scenario, out_dir: Path, stem: str) -> int:
    if scn.catalog_entry is None:
        raise ScenarioParseError("mode 'catalog' requires a catalog entry")
    from . import catalog
    build = catalog.MODELS.get(scn.catalog_entry)
    if build is None:
        raise ScenarioParseError(
            f"unknown catalog entry {scn.catalog_entry!r}; known: {list(catalog.MODELS)}"
        )
    try:
        model = build(**(scn.catalog_params or {}))
    except (TypeError, ValueError) as e:
        raise ScenarioParseError(f"bad catalog params: {e}")
    checks = catalog.verify_model(model)
    _json_dump(
        {
            "name": model.name,
            "profile": {
                "n": model.profile.n,
                "p": model.profile.p,
                "nu": model.profile.nu,
                "q": model.profile.q,
            },
            "c": _num(model.c),
            "shape": [_nums(a) for a in model.shape],
            "splitting_family": [_nums(m) for m in model.splitting_family.basis],
            "conullity_indices": list(model.conullity_indices),
            "expected_properties": list(model.expected_properties),
            "verified": checks,
        },
        out_dir / f"{stem}.model.json",
    )
    return EXIT_OK


def run_check(scn: Scenario | None, out_dir: Path, stem: str, seed: int) -> int:
    """Run the check suite on the seed of ``scn``, or on ``seed`` without a
    scenario (the parser takes one or the other)."""
    if scn is not None:
        seed = scn.seed
    if seed < 0:
        raise ScenarioParseError(f"seed must be a non-negative integer, got {seed}")
    from .checks import report, run_checks
    text, code = report(run_checks(seed=seed))
    (out_dir / f"{stem}.report.txt").write_text(text)
    sys.stdout.write(text)
    return EXIT_OK if code == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A parser whose errors are one ``error:`` line on stderr and exit 2;
    ``add_subparsers`` gives every subcommand this class too."""

    def error(self, message):
        # an unrecognized argument is quoted raw and may hold line breaks
        self.exit(EXIT_PARSE, "error: %s\n" % " ".join(message.splitlines()))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nullgeo",
        description="Evaluate and classify tensor data along nullity geodesics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in MODES:
        p = sub.add_parser(name)
        # check takes its seed from a scenario or from --seed, not both
        source = p.add_mutually_exclusive_group() if name == "check" else p
        source.add_argument(
            "--scenario",
            required=(name != "check"),
            help="path to a scenario JSON file",
        )
        if name == "check":
            # no default: argparse lets a default value through the group,
            # and an explicit --seed 0 must conflict too
            source.add_argument("--seed", type=int, help="default 0")
        p.add_argument("--out", default=".", help="output directory")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser.  ``parse_args`` fills a fresh namespace on
    every call, so no state carries from one call to the next."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        scn = None
        if args.scenario is not None:
            scn = load_scenario(args.scenario)
            if scn.mode != args.command:
                raise ScenarioParseError(
                    f"scenario mode {scn.mode!r} does not match subcommand "
                    f"{args.command!r}"
                )
            stem = Path(args.scenario).stem
        else:
            stem = "check"
        if args.command == "evolve":
            return run_evolve(scn, out_dir, stem)
        if args.command == "classify":
            return run_classify(scn, out_dir, stem)
        if args.command == "search":
            return run_search(scn, out_dir, stem)
        if args.command == "catalog":
            return run_catalog(scn, out_dir, stem)
        return run_check(scn, out_dir, stem, args.seed or 0)
    except NullityError as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, DimensionMismatch):
            return EXIT_DIMENSION
        # anything else is a parse error or input the computation rejects
        return EXIT_SINGULAR if isinstance(e, SingularJacobi) else EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
