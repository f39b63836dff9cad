#!/usr/bin/env python3
"""Fingerprint the RK4 oracles' records on fixed draw sets.

Prints one line per draw set: the case count, the count of raised blow-up
guards and a sha256 over the bytes of every record (its int64 view) and the
text of every guard message.  Each case of ``checks.riccati_cases`` and
``checks.shape_cases`` runs through the public oracle, ``riccati_path`` or
``shape_ode_path``, in case order.  The next line gives the int64 view, in
hex, of ``riccati_deviation`` and ``shape_deviation`` on the same set, so a
change to the closed-form side of the comparison shows there.  The sets are
the draws of acceptance criteria 01 and 02 at step 2e-2, the ``check`` runs
of seeds 0-7 at their default step 1e-3, a tripping set of q = 2..5 draws
of both oracles at step 1e-3 whose every other case is scaled up (``C0``
doubled, ``A0`` to a largest entry of ``2**26``), so that about a third of
them reach the blow-up guard, the q = 1 draws of
``tests/conftest.py::rank_one_draws``, and p = 2 shape draws of
``random_compatible_pair(rng, q, 2)``, q = 2..5, at step 2e-2, whose two
operators share one run; these three sets have no deviation line.

Two source trees give the same oracle bits when the outputs diff clean:

    PYTHONPATH=src python3 scripts/oracle_bits.py > new.txt
    PYTHONPATH=../other/src python3 scripts/oracle_bits.py > old.txt
    diff old.txt new.txt
"""
import hashlib
import sys
from itertools import cycle
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from conftest import rank_one_draws  # noqa: E402
from nullgeo import checks, core  # noqa: E402
from nullgeo.sampling import random_compatible_pair  # noqa: E402


class Fingerprint:
    def __init__(self):
        self.sha = hashlib.sha256()
        self.guards = 0

    def run(self, oracle, *args) -> None:
        """Hash the records of ``oracle(*args)``, a list of arrays, or the
        message of the guard it raises."""
        try:
            out = oracle(*args)
        except core.SingularJacobi as exc:
            self.guards += 1
            self.sha.update(str(exc).encode())
            return
        for rec in out:
            self.sha.update(np.ascontiguousarray(rec, dtype=float).view(np.int64).tobytes())


def shape_path(A0, *case) -> list[np.ndarray]:
    return [np.stack(r.ops) for r in core.shape_ode_path(list(A0), *case)]


# (draws, the oracle of one case, the deviation) per oracle
ORACLES = (
    (checks.riccati_cases, core.riccati_path, checks.riccati_deviation),
    (checks.shape_cases, shape_path, checks.shape_deviation),
)
# (name, Riccati seed, shape seed, cases per oracle, step); None skips an oracle
SETS = [
    ("criterion-01 riccati step=2e-2", 101, None, 200, 2e-2),
    ("criterion-02 shape step=2e-2", None, 102, 200, 2e-2),
    *((f"check-seed-{s} riccati+shape step=1e-3", [s, 100], [s, 200], 5, 1e-3) for s in range(8)),
]


def tripping_cases() -> tuple[list, list]:
    """q = 2..5 Riccati and shape cases, every other one scaled up."""
    ric = checks.riccati_cases(np.random.default_rng(1919), 40)
    ric = [case for case in ric if len(case[1]) >= 2]
    shp = checks.shape_cases(np.random.default_rng(1920), 32)
    return (
        [(c, C0 * (2.0 if i % 2 else 1.0), ts) for i, (c, C0, ts) in enumerate(ric)],
        [(A0 * (2.0**26 / np.abs(A0).max() if i % 2 else 1.0), *case)
         for i, (A0, *case) in enumerate(shp)],
    )


def pair_cases(count: int) -> list:
    """``count`` p = 2 shape cases ``(A0, c, C0, grid)``, as
    ``checks.shape_cases`` draws its p = 1 cases."""
    rng = np.random.default_rng(2802)
    pairs = [random_compatible_pair(rng, int(rng.integers(2, 6)), 2) for _ in range(count)]
    return [(np.stack(A0.ops), c, C0.mat, checks.sample_grid(c, C0.mat))
            for c, (A0, C0) in zip(cycle(checks.CURVATURES), pairs)]


def line(name: str, cases: int, fp: Fingerprint) -> str:
    return f"{name}: cases={cases} guards={fp.guards} sha256={fp.sha.hexdigest()}"


def main() -> int:
    for name, *seeds, count, step in SETS:
        fp, devs = Fingerprint(), []
        for seed, (draw, oracle, deviation) in zip(seeds, ORACLES):
            if seed is not None:
                for case in draw(np.random.default_rng(seed), count):
                    fp.run(oracle, *case, step)
                worst = np.float64(deviation(np.random.default_rng(seed), count, step))
                devs.append(f"{deviation.__name__}={int(worst.view(np.int64)):#018x}")
        print(line(name, count * len(devs), fp))
        print("  " + " ".join(devs))
    fp, total = Fingerprint(), 0
    for cases, (_, oracle, _) in zip(tripping_cases(), ORACLES):
        total += len(cases)
        for case in cases:
            fp.run(oracle, *case, 1e-3)
    print(line("tripping riccati+shape step=1e-3", total, fp))
    draws = rank_one_draws()
    fp = Fingerprint()
    for case in draws:
        fp.run(core.riccati_path, *case)
    print(line("rank-one riccati", len(draws), fp))
    cases, fp = pair_cases(60), Fingerprint()
    for case in cases:
        fp.run(shape_path, *case, 2e-2)
    print(line("p=2 shape step=2e-2", len(cases), fp))
    return 0


if __name__ == "__main__":
    sys.exit(main())
