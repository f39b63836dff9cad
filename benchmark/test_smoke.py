"""Smoke test of the benchmark harness at tiny sizes, so it cannot rot.

    python -m pytest benchmark/test_smoke.py -q
"""
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from nullgeo import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "evolve-grid": {"samples": 11},
    "oracle-check": {"step": 1e-2, "check_after": 2},
    "cli-mix": {"evolve_samples": 5},
}


def tiny_records(name, tmp_path, tracer=None):
    ws = workloads.Workspace(tmp_path / name)
    make_ops, warmup = workloads.WORKLOADS[name]
    run.run_ops(iter(warmup(ws)), ws, 0.0)
    return run.run_ops(make_ops(7, ws, **TINY[name]), ws, 0.0, tracer)


def test_spec_names_the_harness_workloads():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(name, tmp_path):
    records = tiny_records(name, tmp_path)
    assert records and not [r for r in records if r.outcome == "wrong"]
    failed = {r.kind for r in records if r.outcome != "ok"}
    assert failed == ({"bad-item4"} if name == "cli-mix" else set())
    metrics = run.end_to_end(records, setup_s=1.0, speed=1.0)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        [(k, u) for k, (_, u) in metrics.items()]
    assert all(v > 0 for v, _ in metrics.values())


def test_median_block_rate_takes_each_position_median():
    def rec(cpu, block_end):
        return run.OpRecord(0, "x", 0, 0, cpu, cpu, "ok", "", None, False, 0, None, block_end)

    blocks = [(1.0, 3.0), (1.2, 2.0), (9.0, 2.5)]
    records = [rec(c, i == 1) for block in blocks for i, c in enumerate(block)]
    assert run.median_block_rate(records, "cpu") == pytest.approx(2 / (1.2 + 2.5))
    with pytest.raises(ValueError):
        run.median_block_rate(records + [rec(1.0, True)], "cpu")


def test_reference_loop_reports_a_speed():
    ref = run.Reference()
    assert ref.due()
    ref.slice()
    assert len(ref.core_rates) == len(ref.memory_rates) == 1
    assert ref.speed() > 0 and not ref.due()


def test_same_seed_gives_same_inputs(tmp_path):
    def scenarios(ws):
        out = []
        for _ in itertools.islice(workloads.cli_mix_ops(3, ws), 20):
            out.append((ws.inputs / "r.json").read_text())
        return out

    ws = workloads.Workspace(tmp_path)
    assert scenarios(ws) == scenarios(ws)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_reports_every_layer_metric_and_restores(name, tmp_path):
    main, solve = cli.main, np.linalg.solve
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main is not main
        records = tiny_records(name, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert cli.main is main and np.linalg.solve is solve
    metrics = run.per_layer(records, tracer, overhead_ratio=1.0)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        [(k, u) for k, (_, u) in metrics.items()]
    table = spans.SpanTable(tracer)
    assert table.calls("op") == len(records)
    assert (table.self_time >= -1e-9).all()


def test_main_prints_the_result_last(capsys):
    assert run.main(["--workload", "cli-mix", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == len(workloads.CLI_BLOCK)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cli-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
