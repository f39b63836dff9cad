#!/usr/bin/env python3
"""Record the benchmark and the Tier-1 wall time of a source tree, and of a
baseline tree beside it, in one ``BENCH_<n>.json`` at the repository root.

    python3 scripts/bench_record.py 21 --baseline ../parent

For every workload that ``BENCHMARK.json`` lists and every seed of
``SEEDS``, each tree runs ``python3 benchmark/run.py --workload W --seed S
--seconds SECONDS`` from its own root, as it is, and for the first three
seeds also with ``--trace 1``, for the per-layer metrics; then each tree runs
Tier-1 (see ``ROADMAP.md``) with ``--durations=5``, ``TIER1_RUNS`` times.
The settings are fixed, so that two ``BENCH_<n>.json`` files compare.  With
``--baseline`` (a checkout of another commit, e.g. the parent), the two
trees take turns on every (workload, seed), traced or not, and every Tier-1
run, the first tree alternating, so a drift of the host's speed falls on
both.  The file holds,
per tree:

- ``commit``: ``git rev-parse HEAD``, whether the tree has uncommitted
  changes, and ``tree``, the git tree sha of the tracked files as measured
  (see :func:`commit`)
- ``environment``: the environment that ``run.py`` prints, from its first run
- ``blas_kernel``: the OpenBLAS kernel a new process runs (see
  :func:`blas_kernel`), which ``environment`` does not name: its BLAS build
  string lists every kernel of the library
- ``runs``: every run's workload, seed, correctness, operation counts and
  end-to-end metrics
- ``trace``: per workload, the records of the traced runs (``runs``, their
  ``metrics`` the per-layer ones) and the median of each metric over them
  (``metrics``), so that one run's drift does not set a layer's timing
- ``tier1``: the wall time of every Tier-1 run, their median, the pytest
  summary line and the ``--durations=5`` lines of each run

Runs that fail are recorded with their exit code and stderr tail, and the
recording goes on.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1, 2, 3, 4)
SECONDS = 30.0
TIER1_RUNS = 3
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
         "--durations=5"]
# prints the kernel that numpy's bundled OpenBLAS chose when it loaded, by
# the CPU or by OPENBLAS_CORETYPE, and nothing where the library or the
# symbol is missing
KERNEL_PROBE = """
import ctypes, pathlib, numpy
libs = pathlib.Path(numpy.__file__).parents[1] / "numpy.libs"
lib = next(libs.glob("libscipy_openblas*"), None)
name = lib and getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
if name:
    name.argtypes, name.restype = [], ctypes.c_char_p
    print(name().decode())
"""


def blas_kernel(env: dict | None = None) -> str | None:
    """The OpenBLAS kernel of a new process under ``env`` (the current
    environment by default), as ``KERNEL_PROBE`` prints it, or None."""
    proc = subprocess.run([sys.executable, "-c", KERNEL_PROBE], env=env, capture_output=True,
                          text=True)
    return proc.stdout.strip() or None


def commit(tree: Path) -> dict:
    """``HEAD``, whether the checkout differs from it, and the tree sha of
    its tracked files as they are: that of the commit ``git stash create``
    writes for uncommitted changes (touching neither the files nor the
    stash list), else that of ``HEAD``.  A commit of exactly the measured
    files has this tree, so a record made before the commit still names
    what it measured."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                              text=True).stdout.strip()
    state = git("stash", "create") or "HEAD"
    return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain")),
            "tree": git("rev-parse", f"{state}^{{tree}}")}


def bench(tree: Path, workload: str, seed: int, trace: int = 0) -> tuple[dict, dict | None]:
    """One ``run.py`` run: its record, and the environment it printed."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    rec = {"workload": workload, "seed": seed}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {**rec, "exit": proc.returncode, "stderr": proc.stderr[-2000:]}, None
    extra, result = json.loads(lines[-2]), json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return {**rec, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics,
            "load_avg": extra["environment"]["load_avg"]}, extra["environment"]


def medians(recs: list[dict]) -> dict:
    """The median of each metric over the runs that report it."""
    values: dict[str, list] = {}
    for rec in recs:
        for name, value in rec.get("metrics", {}).items():
            values.setdefault(name, []).append(value)
    return {name: statistics.median(v) for name, v in values.items()}


def tree_env(tree: Path, **extra: str) -> dict:
    """The current environment and ``extra``, with ``tree``'s ``src`` first
    on ``PYTHONPATH``."""
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))}


def tier1(tree: Path) -> dict:
    """One Tier-1 run: wall time, summary line and the slowest durations."""
    env = tree_env(tree)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True,
                          text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    i = next((k for k, line in enumerate(lines) if "slowest" in line), len(lines))
    slow = [line for line in lines[i + 1:i + 6] if not line.startswith("=")]
    return {"exit": proc.returncode, "wall_s": wall, "summary": lines[-1] if lines else "",
            "durations": slow[:5]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int, help="the number in BENCH_<n>.json")
    parser.add_argument("--baseline", type=Path, help="root of a checkout to record beside")
    args = parser.parse_args(argv)

    trees = {"change": ROOT}
    if args.baseline is not None:
        trees["baseline"] = args.baseline.resolve()
    out = {name: {"commit": commit(tree), "environment": None, "blas_kernel": blas_kernel(),
                  "runs": [], "trace": {}, "tier1": {"runs": []}} for name, tree in trees.items()}
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    turn = 0
    for workload in workloads:
        for seed in SEEDS:
            for name in sorted(trees, reverse=turn % 2 == 1):
                rec, environment = bench(trees[name], workload, seed)
                out[name]["runs"].append(rec)
                out[name]["environment"] = out[name]["environment"] or environment
                print(name, json.dumps(rec), flush=True)
            turn += 1
        traced: dict[str, list] = {name: [] for name in trees}
        for seed in SEEDS[:3]:
            for name in sorted(trees, reverse=turn % 2 == 1):
                rec, _ = bench(trees[name], workload, seed, trace=1)
                traced[name].append(rec)
                print(name, "trace", json.dumps(rec), flush=True)
            turn += 1
        for name, recs in traced.items():
            out[name]["trace"][workload] = {"runs": recs, "metrics": medians(recs)}
    for _ in range(TIER1_RUNS):
        for name in sorted(trees, reverse=turn % 2 == 1):
            run = tier1(trees[name])
            out[name]["tier1"]["runs"].append(run)
            print(name, "tier1", json.dumps(run), flush=True)
        turn += 1
    for side in out.values():
        walls = [r["wall_s"] for r in side["tier1"]["runs"]]
        side["tier1"]["median_wall_s"] = statistics.median(walls) if walls else None
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
