#!/usr/bin/env python3
"""Fingerprint ``nullgeo evolve`` on fixed scenarios.

Prints one line per scenario: its name, the exit code and a sha256 over the
exit code, the text written to stderr, each warning raised (its category and
message, not the source line that raised it) and the bytes of the trajectory
CSV (empty when none is written).  Each scenario runs through ``cli.main`` in
this process.  The set:

- random Codazzi-compatible pairs (``sampling.random_compatible_pair``)
  with q in 1, 2, 3, 8, 16, 32, p in 1, 2 and c of each sign, on 1001
  samples (2500 at q = 32, more than one evaluation chunk); for c < 0,
  a = sqrt(-c) exceeds every |eigenvalue| of C0, so the grid runs to 3 and
  crosses a|t| = 1;
- the README's nearly compatible data, whose eigenvalues keep their
  imaginary parts;
- Codazzi-incompatible data;
- a long hyperbolic horizon, t_end = 800, where det J is inf;
- entries of 1e200 and of 1e-200, whose norms are rescaled.

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
    yield "incompatible", {
        "c": 0.0, "C0": [[0.0, 1.0], [-1.0, 0.0]], "A0": [np.eye(2).tolist()],
        "t_grid": {"t_end": 1.0, "samples": 3},
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
