#!/usr/bin/env python3
"""Fingerprint ``nullgeo evolve`` on fixed scenarios.

Prints one line per scenario: its name, the exit code and a sha256 over the
exit code, the text written to stderr, each warning raised (its category and
message, not the source line that raised it) and the bytes of the trajectory
CSV (empty when none is written).  Each scenario runs through ``cli.main`` in
this process.  The set:

- random Codazzi-compatible pairs (``sampling.random_compatible_pair``)
  with q in 1, 2, 3, 8, 16, 32, p in 1, 2 and c of each sign, on 1001
  samples (2500 at q = 32, more than one evaluation block); for c < 0,
  a = sqrt(-c) exceeds every |eigenvalue| of C0, so the grid runs to 3 and
  crosses a|t| = 1;
- the README's nearly compatible data, whose eigenvalues keep their
  imaginary parts;
- nearly compatible data at q = 16 on 1500 samples, where one block holds
  rows that take the symmetric solver and rows that take the general one;
- Codazzi-incompatible data, once at the scale of 1e-9;
- a long hyperbolic horizon, t_end = 800, where det J is inf;
- entries of 1e200 and of 1e-200, whose norms are rescaled;
- the README's nearly compatible data with A0 = 1e-9 I, whose cells are
  complex where those of A0 = I are;
- the unstable fixed point C0 = I of c = -1 up to t_end = 400, where
  rounding loses J(t) and evolve exits 2;
- c = -1, C0 = diag(2, 1/2) at the scale 2**-40 (c = -2**-80), whose grid
  reaches the singular time 0.549 * 2**40, so evolve exits 4 as at unit
  scale.

The grid ends are fixed here, from the eigenvalues of C0, so they do not
depend on the library's horizon.  Two source trees write the same bytes
when the outputs diff clean:

    PYTHONPATH=src python3 scripts/evolve_bytes.py > new.txt
    PYTHONPATH=../other/src python3 scripts/evolve_bytes.py > old.txt
    diff old.txt new.txt
"""
import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from nullgeo import cli
from nullgeo.sampling import random_compatible_pair


def t_end(c: float, C0: np.ndarray) -> float:
    """A grid end short of the first singular time and of 5, rounded to 8
    digits: 0.6 times the smaller one, from the real eigenvalues of C0."""
    reals = [z.real for z in np.linalg.eigvals(C0) if abs(z.imag) <= 1e-10 * (1.0 + abs(z))]
    a = math.sqrt(abs(c))
    if c > 0.0:
        roots = [(math.pi / 2.0 - math.atan(x / a)) / a for x in reals]
    elif c < 0.0:
        roots = [math.atanh(a / x) / a for x in reals if x > a]
    else:
        roots = [1.0 / x for x in reals if x > 0.0]
    return float(f"{0.6 * min([5.0, *roots]):.8g}")


def scenarios():
    for q in (1, 2, 3, 8, 16, 32):
        for p in (1, 2):
            for sign in (-1.0, 0.0, 1.0):
                rng = np.random.default_rng([q, p, int(sign) + 1, 14])
                A0, C0 = random_compatible_pair(rng, q, p)
                c = sign * float(rng.uniform(0.25, 4.0))
                if c < 0.0:
                    # a = sqrt(-c) above every |eigenvalue|: no singular time,
                    # so the grid runs to 3 and crosses a|t| = 1
                    a = 1.5 * max(0.5, np.abs(np.linalg.eigvals(C0.mat)).max())
                    c = -a * a
                samples = 2500 if q == 32 else 1001
                yield f"compatible q={q} p={p} c={sign:+.0f}", {
                    "c": c, "C0": C0.mat.tolist(), "A0": [m.tolist() for m in A0.ops],
                    "t_grid": {"t_end": t_end(c, C0.mat), "samples": samples},
                }
    yield "nearly compatible (README)", {
        "c": -1.0, "C0": [[2.0, 1e-9], [-1e-9, 2.0]], "A0": [np.eye(2).tolist()],
        "t_grid": {"t_end": 1.0, "samples": 11},
    }
    rng = np.random.default_rng(16)
    A0, C0 = random_compatible_pair(rng, 16, 1)
    K = rng.normal(size=(16, 16))
    # A0 C0 is off symmetric by ~7e-9: the rows pass the Bendixson bound up
    # to 762 and fail from 763, inside the block of rows 512-767
    yield "nearly compatible q=16", {
        "c": -1.0, "C0": (C0.mat + np.linalg.solve(A0.ops[0], 1e-9 * (K - K.T))).tolist(),
        "A0": [m.tolist() for m in A0.ops], "t_grid": {"t_end": 1.25e-4, "samples": 1500},
    }
    yield "incompatible", {
        "c": 0.0, "C0": [[0.0, 1.0], [-1.0, 0.0]], "A0": [np.eye(2).tolist()],
        "t_grid": {"t_end": 1.0, "samples": 3},
    }
    # as incompatible as A0 = I, since symmetry of A0 C0 does not depend on
    # the scale of A0; up to t = 1e-3 the skew part of A(t) is below 1e-12
    yield "incompatible A0=1e-9 I", {
        "c": 0.0, "C0": [[-1.0, -1.0], [0.0, -1.0]], "A0": [(1e-9 * np.eye(2)).tolist()],
        "t_grid": {"t_end": 1e-3, "samples": 3},
    }
    yield "t_end=800", {
        "c": -1.0, "C0": [[0.0, 1.0], [-1.0, 0.0]], "A0": [[[1.0, 0.0], [0.0, -1.0]]],
        "t_grid": {"t_end": 800.0, "samples": 41},
    }
    yield "entries 1e200", {
        "c": 0.0, "C0": [[-1e200]], "A0": [[[1e200]]], "t_grid": {"t_end": 1.0, "samples": 3},
    }
    yield "entries 1e-200", {
        "c": -1.0, "C0": [[1e-200, 0.0], [0.0, 0.5]], "A0": [[[1e-200, 0.0], [0.0, 1e-200]]],
        "t_grid": {"t_end": 1.0, "samples": 5},
    }
    yield "nearly compatible (README) A0=1e-9 I", {
        "c": -1.0, "C0": [[2.0, 1e-9], [-1e-9, 2.0]], "A0": [(1e-9 * np.eye(2)).tolist()],
        "t_grid": {"t_end": 1.0, "samples": 11},
    }
    yield "fixed point C0=I t_end=400", {
        "c": -1.0, "C0": np.eye(2).tolist(), "A0": [[[1.0, 0.0], [0.0, -1.0]]],
        "t_grid": {"t_end": 400.0, "samples": 5},
    }
    yield "singular at scale 2**-40", {
        "c": -(2.0**-80), "C0": [[2.0**-39, 0.0], [0.0, 2.0**-41]], "A0": [np.eye(2).tolist()],
        "t_grid": {"t_end": 1.2e12, "samples": 5},
    }


def fingerprint(payload: dict, work: Path) -> tuple[int, str]:
    path = work / "s.json"
    path.write_text(json.dumps({"mode": "evolve", **payload}))
    csv = work / "s.trajectory.csv"
    csv.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["evolve", "--scenario", str(path), "--out", str(work)])
    # a warning as its category and text, without the file and line it names
    for w in caught:
        err.write(f"{w.category.__name__}: {w.message}\n")
    sha = hashlib.sha256(f"{code}\n{err.getvalue()}\n".encode())
    if csv.exists():
        sha.update(csv.read_bytes())
    return code, sha.hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, payload in scenarios():
            code, digest = fingerprint(payload, Path(tmp))
            print(f"{name}: exit={code} sha256={digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
