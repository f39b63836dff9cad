#!/usr/bin/env python3
"""Regenerate the golden CLI outputs in tests/golden from the shipped
scenarios.  Run from the repository root after a verified change."""
import shutil
import sys
from pathlib import Path

from nullgeo.cli import main

ROOT = Path(__file__).resolve().parents[1]
# every golden file comes from one (command, scenario) pair listed here
SCENARIOS = [
    ("evolve", "evolve_skew_hyperbolic.json"),
    ("evolve", "evolve_branch_q8.json"),
    ("classify", "classify_flat_line.json"),
    ("search", "search_worked_family.json"),
    ("catalog", "catalog_hyperbolic_cylinder.json"),
    ("check", "check_default.json"),
]


def run() -> int:
    golden = ROOT / "tests" / "golden"
    if golden.exists():
        shutil.rmtree(golden)
    golden.mkdir(parents=True)
    for command, name in SCENARIOS:
        code = main(
            [
                command,
                "--scenario",
                str(ROOT / "scenarios" / name),
                "--out",
                str(golden),
            ]
        )
        if code != 0:
            print(f"{command} exited with {code}", file=sys.stderr)
            return code
    print(f"golden files written to {golden}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
