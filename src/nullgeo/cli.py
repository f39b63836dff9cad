"""Scenario ingestion and batch execution.

Scenarios are JSON documents (key/value with nested arrays, matrices
row-major).  Subcommands: evolve, classify, search, catalog, check.  Exit
codes: 0 success, 1 failing invariant checks, 2 parse error, 3 dimension
mismatch, 4 singular Jacobi tensor.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import catalog as catalog_mod
from .checks import report, run_checks
from .classify import classify_splitting_spectrum, decay_report
from .core import (
    DomainKind,
    GeodesicDomain,
    NullityError,
    ShapeOperatorSet,
    SingularJacobi,
    _Evolution,
)
from .theorems import SplittingFamily, find_special_nullity_direction

__all__ = ["main", "Scenario", "ScenarioParseError", "DimensionMismatch"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_SINGULAR = 4

MODES = ("evolve", "classify", "search", "catalog", "check")

_EVOLVE_CHUNK = 1024     # evolve samples per batched evaluation


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

    def to_dict(self) -> dict:
        out: dict = {"mode": self.mode, "seed": self.seed}
        if self.c is not None:
            out["c"] = self.c
        if self.C0 is not None:
            out["C0"] = self.C0.tolist()
        if self.A0 is not None:
            out["A0"] = [a.tolist() for a in self.A0]
        if self.family is not None:
            out["family"] = [m.tolist() for m in self.family]
        if self.domain is not None:
            d = {"kind": self.domain.kind.value}
            if self.domain.b is not None:
                d["b"] = self.domain.b
            out["domain"] = d
        if self.t_end is not None:
            out["t_grid"] = {"t_end": self.t_end, "samples": self.samples}
        if self.catalog_entry is not None:
            out["catalog"] = {
                "entry": self.catalog_entry,
                "params": self.catalog_params or {},
            }
        return out


def _as_matrix(raw, what: str) -> np.ndarray:
    try:
        m = np.array(raw, dtype=float)
    except (TypeError, ValueError) as e:
        raise ScenarioParseError(f"{what}: not a numeric matrix ({e})")
    if m.ndim != 2:
        raise ScenarioParseError(f"{what}: expected a matrix, got ndim={m.ndim}")
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{what}: must be square, got {m.shape}")
    if not np.isfinite(m).all():
        raise ScenarioParseError(f"{what}: entries must be finite")
    return m


def parse_scenario(raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioParseError("scenario must be a JSON object")
    mode = raw.get("mode")
    if mode not in MODES:
        raise ScenarioParseError(f"mode must be one of {MODES}, got {mode!r}")
    try:
        seed = int(raw.get("seed", 0))
    except (TypeError, ValueError, OverflowError):
        raise ScenarioParseError(f"seed must be an integer, got {raw['seed']!r}")
    scn = Scenario(mode=mode, seed=seed)

    if "c" in raw:
        try:
            scn.c = float(raw["c"])
        except (TypeError, ValueError):
            raise ScenarioParseError("c must be a real number")
        if not math.isfinite(scn.c):
            raise ScenarioParseError(f"c must be finite, got {scn.c}")
    if "C0" in raw:
        scn.C0 = _as_matrix(raw["C0"], "C0")
    if "A0" in raw:
        if not isinstance(raw["A0"], list):
            raise ScenarioParseError("A0 must be a list of matrices")
        scn.A0 = tuple(_as_matrix(a, f"A0[{i}]") for i, a in enumerate(raw["A0"]))
    if "family" in raw:
        if not isinstance(raw["family"], list):
            raise ScenarioParseError("family must be a list of matrices")
        scn.family = tuple(
            _as_matrix(m, f"family[{i}]") for i, m in enumerate(raw["family"])
        )
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
        except (KeyError, TypeError, ValueError) as e:
            raise ScenarioParseError(f"bad domain: {e}")
    if "t_grid" in raw:
        g = raw["t_grid"]
        try:
            scn.t_end = float(g["t_end"])
            scn.samples = int(g.get("samples", 11))
        except (KeyError, TypeError, ValueError):
            raise ScenarioParseError("t_grid needs numeric t_end (and samples)")
        if not (0.0 < scn.t_end < math.inf) or scn.samples < 2:
            raise ScenarioParseError("t_grid needs finite t_end > 0 and samples >= 2")
    if "catalog" in raw:
        cat = raw["catalog"]
        if not isinstance(cat, dict) or "entry" not in cat:
            raise ScenarioParseError("catalog must be an object with an 'entry'")
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
    except (OSError, json.JSONDecodeError) as e:
        raise ScenarioParseError(f"{path}: {e}")
    return parse_scenario(raw)


def serialize_scenario(scn: Scenario) -> str:
    """Canonical form used for the round-trip guarantee."""
    return json.dumps(scn.to_dict(), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    """The CLI's one rendering of a float: 14 significant digits, no ``-0``.

    Every float the CLI writes goes through here.  Results from different
    numpy/LAPACK builds differ in the last one or two of 17 digits; at 14
    digits they agree, which keeps the golden outputs comparable across
    platforms.
    """
    s = format(float(x), ".14g")
    return "0" if s == "-0" else s


def _num(x: float) -> float:
    """``x`` as written to JSON: the float that ``_fmt`` renders."""
    return float(_fmt(x))


def _nums(a) -> list:
    """A vector or matrix as nested lists of ``_num`` values."""
    return [_nums(row) if np.ndim(row) else _num(row) for row in a]


def _fmt_eig(z: complex) -> str:
    if abs(z.imag) <= 1e-12 * (1.0 + abs(z)):
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


def run_evolve(scn: Scenario, out_dir: Path, stem: str) -> int:
    _require(scn, "c", "C0", "A0", "t_end")
    ev = _Evolution(scn.c, scn.C0)
    b_max = ev.horizon()
    if not scn.t_end < b_max:
        raise SingularJacobi(
            f"t_end={scn.t_end} reaches the singular time b_max={b_max:.6g}"
        )
    A0 = ShapeOperatorSet(scn.A0)
    q = scn.C0.shape[0]
    header = ["t", "det_J", "C_norm"]
    for i in range(A0.p):
        header.append(f"A{i}_norm")
        header.extend(f"A{i}_eig{j}" for j in range(q))
    ts = [scn.t_end * k / (scn.samples - 1) for k in range(scn.samples)]
    rows = []
    for lo in range(0, len(ts), _EVOLVE_CHUNK):
        grid = ts[lo:lo + _EVOLVE_CHUNK]
        det_J = ev.det(grid)
        C, A = ev.splitting_and_shape(A0.ops, grid)
        eigs = []
        for a, a0 in zip(A, A0.ops):
            if grid[0] == 0.0:
                a[0] = a0
            w = np.linalg.eigvals(a)
            order = np.lexsort((np.round(w.imag, 12), np.round(w.real, 12)), axis=-1)
            eigs.append(np.take_along_axis(w, order, axis=-1).tolist())
        for k, t in enumerate(grid):
            # t = 0 shows the initial data as given; the norms sum in memory
            # order, so they are taken of C0 and A0 themselves
            C_k = scn.C0 if t == 0.0 else C[k]
            row = [_fmt(t), _fmt(det_J[k]), _fmt(np.linalg.norm(C_k))]
            for a, a0, w in zip(A, A0.ops, eigs):
                row.append(_fmt(np.linalg.norm(a0 if t == 0.0 else a[k])))
                row.extend(_fmt_eig(z) for z in w[k])
            rows.append(row)
    with open(out_dir / f"{stem}.trajectory.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return EXIT_OK


def _verdict_record(scn: Scenario):
    verdict = classify_splitting_spectrum(scn.c, scn.C0, scn.domain)
    rec = {
        "consistent": verdict.consistent,
        "violated_clause": verdict.violated_clause.value if verdict.violated_clause else None,
        "offending_eigenvalues": [_fmt_eig(z) for z in verdict.offending_eigenvalues],
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
        rep = decay_report(ShapeOperatorSet(scn.A0), scn.c, scn.C0, scn.domain)
        decay = {
            "global_alpha_limit": rep.global_alpha_limit.value,
            "blocks": [
                {
                    "eigenvalue": _fmt_eig(b.eigenvalue),
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
            f"offending eigenvalues "
            + ", ".join(_fmt_eig(z) for z in verdict.offending_eigenvalues)
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
    q = scn.family[0].shape[0]
    fam = SplittingFamily(basis=scn.family, q=q)
    d = find_special_nullity_direction(fam)
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


_CATALOG_ENTRIES = {
    "totally_geodesic": catalog_mod.totally_geodesic,
    "hyperbolic_cylinder": catalog_mod.hyperbolic_cylinder,
    "cartan_veronese_polar": catalog_mod.cartan_veronese_polar,
    "euclidean_cylinder": catalog_mod.euclidean_cylinder,
}


def run_catalog(scn: Scenario, out_dir: Path, stem: str) -> int:
    if scn.catalog_entry is None:
        raise ScenarioParseError("mode 'catalog' requires a catalog entry")
    ctor = _CATALOG_ENTRIES.get(scn.catalog_entry)
    if ctor is None:
        raise ScenarioParseError(
            f"unknown catalog entry {scn.catalog_entry!r}; "
            f"known: {sorted(_CATALOG_ENTRIES)}"
        )
    try:
        model = ctor(**(scn.catalog_params or {}))
    except (TypeError, ValueError) as e:
        raise ScenarioParseError(f"bad catalog params: {e}")
    checks = catalog_mod.verify_model(model)
    _json_dump(
        {
            "name": model.name,
            "profile": {
                "n": model.profile.n,
                "p": model.profile.p,
                "nu": model.profile.nu,
                "q": model.profile.q,
            },
            "c": _num(model.c.c),
            "shape": [_nums(a) for a in model.shape.ops],
            "splitting_family": [_nums(m) for m in model.splitting_family.basis],
            "conullity_indices": list(model.conullity_indices),
            "expected_properties": list(model.expected_properties),
            "verified": checks,
        },
        out_dir / f"{stem}.model.json",
    )
    return EXIT_OK


def run_check(scn: Scenario | None, out_dir: Path, stem: str, step: float, seed: int) -> int:
    if scn is not None:
        seed = scn.seed
    results = run_checks(seed=seed, step=step)
    text, code = report(results)
    (out_dir / f"{stem}.report.txt").write_text(text)
    sys.stdout.write(text)
    return EXIT_OK if code == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nullgeo",
        description="Evaluate and classify tensor data along nullity geodesics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in MODES:
        p = sub.add_parser(name)
        p.add_argument(
            "--scenario",
            required=(name != "check"),
            help="path to a scenario JSON file",
        )
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--step", type=float, default=1e-3, help="oracle integrator step"
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
        return run_check(scn, out_dir, stem, args.step, args.seed)
    except ScenarioParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except DimensionMismatch as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIMENSION
    except SingularJacobi as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SINGULAR


if __name__ == "__main__":
    sys.exit(main())
