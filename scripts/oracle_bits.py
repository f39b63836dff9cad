#!/usr/bin/env python3
"""Fingerprint the RK4 oracles' records on fixed draw sets.

Prints one line per draw set: the case count, the count of raised blow-up
guards and a sha256 over the bytes of every record (its int64 view) and the
text of every guard message.  Each case of ``checks.riccati_cases`` and
``checks.shape_cases`` runs alone (``riccati_path``, ``shape_ode_path``)
and in the stacks that ``checks._batch`` builds for the ``check`` runs,
recorded in case order.  The next line gives the int64 view, in hex, of
``riccati_deviation`` and ``shape_deviation`` on the same set, so a change
to the closed-form side of the comparison shows there.  The sets are the
draws of acceptance criteria 01 and 02 at step 2e-2, the ``check`` runs of
seeds 0-7 at their default step 1e-3, and the lone q = 1 draws of
``tests/conftest.py::rank_one_draws``, which run alone only and have no
deviation line.

Two source trees give the same oracle bits when the outputs diff clean:

    PYTHONPATH=src python3 scripts/oracle_bits.py > new.txt
    PYTHONPATH=../other/src python3 scripts/oracle_bits.py > old.txt
    diff old.txt new.txt
"""
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from conftest import rank_one_draws  # noqa: E402
from nullgeo import checks, core  # noqa: E402


class Fingerprint:
    def __init__(self):
        self.sha = hashlib.sha256()
        self.guards = 0

    def run(self, oracle, *args) -> None:
        """Hash the records of ``oracle(*args)``, a list of arrays or of
        lists of arrays, or the message of the guard it raises."""
        try:
            out = oracle(*args)
        except core.SingularJacobi as exc:
            self.guards += 1
            self.sha.update(str(exc).encode())
            return
        for rec in out:
            for a in rec if isinstance(rec, list) else [rec]:
                self.sha.update(np.ascontiguousarray(a, dtype=float).view(np.int64).tobytes())


def shape_alone(A0, *case) -> list[np.ndarray]:
    return [np.stack(r.ops) for r in core.shape_ode_path(list(A0), *case)]


# (draws, one case alone, the stacked stepper, the deviation) per oracle
ORACLES = (
    (checks.riccati_cases, core.riccati_path, core._riccati_stack, checks.riccati_deviation),
    (checks.shape_cases, shape_alone, core._shape_stack, checks.shape_deviation),
)
# (name, Riccati seed, shape seed, cases per oracle, step); None skips an oracle
SETS = [
    ("criterion-01 riccati step=2e-2", 101, None, 200, 2e-2),
    ("criterion-02 shape step=2e-2", None, 102, 200, 2e-2),
    *((f"check-seed-{s} riccati+shape step=1e-3", [s, 100], [s, 200], 5, 1e-3) for s in range(8)),
]


def line(name: str, cases: int, fp: Fingerprint) -> str:
    return f"{name}: cases={cases} guards={fp.guards} sha256={fp.sha.hexdigest()}"


def main() -> int:
    for name, *seeds, count, step in SETS:
        fp, devs = Fingerprint(), []
        for seed, (draw, alone, stack, deviation) in zip(seeds, ORACLES):
            if seed is not None:
                cases = draw(np.random.default_rng(seed), count)
                for case in cases:
                    fp.run(alone, *case, step)
                fp.run(checks._batch, stack, cases, step)
                worst = np.float64(deviation(np.random.default_rng(seed), count, step))
                devs.append(f"{deviation.__name__}={int(worst.view(np.int64)):#018x}")
        print(line(name, count * len(devs), fp))
        print("  " + " ".join(devs))
    draws = rank_one_draws()
    fp = Fingerprint()
    for case in draws:
        fp.run(core.riccati_path, *case)
    print(line("rank-one riccati alone", len(draws), fp))
    return 0


if __name__ == "__main__":
    sys.exit(main())
