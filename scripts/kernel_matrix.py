#!/usr/bin/env python3
"""Run Tier-1 once under each OpenBLAS kernel that numpy's bundled library
offers on an x86-64 host, and print per kernel the running kernel's name,
the pytest summary line and the ids of the failing tests.

    python3 scripts/kernel_matrix.py [ROOT]

``ROOT`` is the checkout to test, this one by default.  The library picks
its kernel when it loads, so each run is a new process with
``OPENBLAS_CORETYPE`` set in its own environment only; nothing else
changes.  A kernel that the CPU cannot run falls back to another one, and
the running name (see ``bench_record.blas_kernel``) says which: Prescott
loads Katmai.  The goldens and the bitwise tests hold on the kernel that
made them (see the README's output contract), so a failure under another
kernel names a result that differs in its last bits there.
"""
from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from bench_record import TIER1, blas_kernel, tree_env

KERNELS = ("SkylakeX", "Haswell", "Sandybridge", "Nehalem", "Prescott")


def run(root: Path, kernel: str) -> tuple[str | None, str, list[str]]:
    """The running kernel, the summary line and the failing test ids of one
    Tier-1 run of ``root`` under ``OPENBLAS_CORETYPE=kernel``."""
    env = tree_env(root, OPENBLAS_CORETYPE=kernel)
    proc = subprocess.run([sys.executable, *TIER1, "-rf"], cwd=root, env=env,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    failed = [line.split()[1] for line in lines if line.startswith("FAILED ")]
    return blas_kernel(env), lines[-1] if lines else f"exit {proc.returncode}", failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parents[1],
                        help="root of the checkout to test")
    args = parser.parse_args(argv)
    for kernel in KERNELS:
        running, summary, failed = run(args.root.resolve(), kernel)
        print(f"{kernel} (running {running}): {summary}", flush=True)
        for test in failed:
            print(f"  {test}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
