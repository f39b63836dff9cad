#!/usr/bin/env python3
"""Fingerprint the RK4 oracles' records on fixed draw sets.

Prints one line per draw set: the case count, the count of raised blow-up
guards and a sha256 over the bytes of every record (its int64 view) and the
text of every guard message.  Each case runs alone (``riccati_path``,
``shape_ode_path``) and in the stacks of one size that the ``check`` runs
build (``_riccati_stack``, ``_shape_stack``).  The sets are the draws of
acceptance criteria 01 and 02 at step 2e-2, the ``check`` runs of seeds 0-7
at their default step 1e-3, and the lone q = 1 draws of
``tests/conftest.py::rank_one_draws``, which run alone only.

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
from nullgeo.checks import CURVATURES, _by_size, sample_grid  # noqa: E402
from nullgeo.core import (  # noqa: E402
    SingularJacobi,
    _riccati_stack,
    _shape_stack,
    riccati_path,
    shape_ode_path,
)
from nullgeo.sampling import random_compatible_pair, random_splitting_tensor  # noqa: E402


class Fingerprint:
    def __init__(self):
        self.sha = hashlib.sha256()
        self.guards = 0

    def run(self, oracle, *args) -> None:
        """Hash the records of ``oracle(*args)``, a list of arrays or of
        lists of arrays, or the message of the guard it raises."""
        try:
            out = oracle(*args)
        except SingularJacobi as exc:
            self.guards += 1
            self.sha.update(str(exc).encode())
            return
        for rec in out:
            for a in rec if isinstance(rec, list) else [rec]:
                self.sha.update(np.ascontiguousarray(a, dtype=float).view(np.int64).tobytes())


def riccati_cases(rng, count):
    cs = [CURVATURES[i % 3] for i in range(count)]
    C0s = [random_splitting_tensor(rng, int(rng.integers(1, 6))) for _ in range(count)]
    return cs, C0s, [sample_grid(c, C0) for c, C0 in zip(cs, C0s)]


def shape_cases(rng, count):
    cs, A0s, C0s = [], [], []
    for i in range(count):
        A0, C0 = random_compatible_pair(rng, int(rng.integers(2, 6)))
        cs.append(CURVATURES[i % 3])
        A0s.append(np.stack(A0.ops))
        C0s.append(C0.mat)
    return A0s, cs, C0s, [sample_grid(c, C0) for c, C0 in zip(cs, C0s)]


def riccati(fp, cs, C0s, grids, step) -> None:
    for case in zip(cs, C0s, grids):
        fp.run(riccati_path, *case, step)
    for group in _by_size(C0.shape for C0 in C0s):
        fp.run(_riccati_stack, *([x[i] for i in group] for x in (cs, C0s, grids)), step)


def shape(fp, A0s, cs, C0s, grids, step) -> None:
    for A0, *case in zip(A0s, cs, C0s, grids):
        fp.run(lambda *a: [np.stack(r.ops) for r in shape_ode_path(*a)], list(A0), *case, step)
    for group in _by_size(A0.shape for A0 in A0s):
        fp.run(_shape_stack, *([x[i] for i in group] for x in (A0s, cs, C0s, grids)), step)


def line(name: str, cases: int, fp: Fingerprint) -> str:
    return f"{name}: cases={cases} guards={fp.guards} sha256={fp.sha.hexdigest()}"


def main() -> int:
    fp = Fingerprint()
    riccati(fp, *riccati_cases(np.random.default_rng(101), 200), 2e-2)
    print(line("criterion-01 riccati step=2e-2", 200, fp))
    fp = Fingerprint()
    shape(fp, *shape_cases(np.random.default_rng(102), 200), 2e-2)
    print(line("criterion-02 shape step=2e-2", 200, fp))
    for seed in range(8):
        fp = Fingerprint()
        riccati(fp, *riccati_cases(np.random.default_rng([seed, 100]), 5), 1e-3)
        shape(fp, *shape_cases(np.random.default_rng([seed, 200]), 5), 1e-3)
        print(line(f"check-seed-{seed} riccati+shape step=1e-3", 10, fp))
    draws = rank_one_draws()
    fp = Fingerprint()
    for case in draws:
        fp.run(riccati_path, *case)
    print(line("rank-one riccati alone", len(draws), fp))
    return 0


if __name__ == "__main__":
    sys.exit(main())
