"""nullgeo benchmark: one closed-loop client driving public entry points.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload evolve-grid --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py):

- ``evolve-grid``: ``nullgeo evolve`` on 1001-sample grids, q in {2, 8, 32};
  closed-form evaluation and CSV output, no RK4.
- ``oracle-check``: RK4 oracle cases like acceptance criteria 01/02, and a
  ``nullgeo check`` run after every 15 cases.
- ``cli-mix``: small classify / search / catalog / evolve requests through
  ``cli.main``, one in ten of them malformed.

The program is imported from ``src/`` of the checkout; nothing is installed.
Inputs come from ``--seed``.  Each operation's output is checked after its
timed region.  With ``--trace 0`` the last line of stdout is the end-to-end
result: set-up time, requests per second and the share of operations that
succeeded.  Both times are CPU times, scaled by the speed fixed reference
loops ran at in the same run (see ``Reference``), because the CPUs of a
shared host drift in speed by a fifth or more over minutes.  With
``--trace 1`` the run first times the operations untraced for a third of
``--seconds``, then again traced, and the last line holds per-layer figures
from the spans.  The line before the result holds the environment and
further figures (unscaled times, latency percentiles and each workload's
own rates), and is also written to ``.bench_out/``.  Scratch files go to
``.bench_work/`` and are removed at exit.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

# numpy and nullgeo are imported only inside functions: main() must first
# check that src/ exists, put it on the path and set the BLAS thread count.
ROOT = Path(__file__).resolve().parents[1]
SETUP_PROBES = 9
# Reference loops (see Reference): CPU seconds between slices, RK4 steps and
# array passes per slice, and the rates per CPU second that count as the
# nominal speed.
REF_EVERY_S = 0.5
REF_CORE_STEPS = 1000
REF_MEMORY_PASSES = 30
REF_CORE_NOMINAL = 40000.0
REF_MEMORY_NOMINAL = 1500.0
WORKLOAD_NAMES = ("evolve-grid", "oracle-check", "cli-mix")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class OpRecord:
    index: int
    kind: str
    q: int
    samples: int
    latency: float
    cpu: float
    outcome: str
    reason: str
    code: int | None
    raised: bool
    bytes_out: int
    value: object
    block_end: bool


class Reference:
    """Two fixed loops of the benchmark's own, timed in slices between
    operations: RK4 on a 3x3 matrix Riccati equation (Python over numpy, as
    in the program's own work), which follows the speed of the core, and a
    pass over a 4 MiB array, which follows the memory the host's other
    tenants share.  On a shared host both drift by a fifth or more over
    minutes; dividing by their geometric mean in the same run takes most of
    that drift out, while a change to nullgeo leaves the loops as they are."""

    def __init__(self):
        import numpy as np

        self.C0 = np.random.default_rng(0).normal(size=(3, 3)) * 0.1
        self.I = np.eye(3)
        self.big = np.random.default_rng(1).normal(size=1 << 19)
        self.core_rates = []  # RK4 steps per CPU second of each slice
        self.memory_rates = []  # array passes per CPU second of each slice
        self.last = -math.inf

    def due(self) -> bool:
        return time.process_time() - self.last >= REF_EVERY_S

    def slice(self) -> None:
        C, h, I = self.C0.copy(), 1e-3, self.I
        c0 = time.process_time()
        for _ in range(REF_CORE_STEPS):
            k1 = C @ C - I
            k2 = (C + 0.5 * h * k1) @ (C + 0.5 * h * k1) - I
            k3 = (C + 0.5 * h * k2) @ (C + 0.5 * h * k2) - I
            k4 = (C + h * k3) @ (C + h * k3) - I
            C = C + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        c1 = time.process_time()
        for _ in range(REF_MEMORY_PASSES):
            (self.big * 1.0001).sum()
        self.last = time.process_time()
        self.core_rates.append(REF_CORE_STEPS / (c1 - c0))
        self.memory_rates.append(REF_MEMORY_PASSES / (self.last - c1))

    def speeds(self) -> tuple[float, float]:
        """Core and memory speed as shares of the nominal ones."""
        return (statistics.median(self.core_rates) / REF_CORE_NOMINAL,
                statistics.median(self.memory_rates) / REF_MEMORY_NOMINAL)

    def speed(self) -> float:
        """The machine's speed as a share of the nominal one."""
        core, memory = self.speeds()
        return math.sqrt(core * memory)


def run_ops(ops, ws, seconds: float, tracer=None, ref=None) -> list[OpRecord]:
    """Closed loop: the next operation starts when the previous one returned.
    Stops at the first block end after ``seconds`` of wall time.  With a
    ``ref``, a reference slice runs first and after each operation that ends
    ``REF_EVERY_S`` of CPU time or more after the last slice."""
    from workloads import CallResult

    records = []
    if ref is not None:
        ref.slice()
    t_begin = time.perf_counter()
    for index, op in enumerate(ops):
        ws.clear_out()
        if tracer is not None:
            tracer.begin_op(index)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            res = op.call()
        except Exception as e:  # recorded and checked like any other outcome
            res = CallResult(raised=e)
        t1 = time.perf_counter()
        c1 = time.process_time()
        if tracer is not None:
            tracer.end_op(t0, t1)
        outcome, reason = op.check(res)
        records.append(OpRecord(
            index, op.kind, op.q, op.samples, t1 - t0, c1 - c0, outcome, reason, res.code,
            res.raised is not None, ws.out_bytes() + len(res.stdout) + len(res.stderr), res.value,
            op.block_end,
        ))
        if ref is not None and ref.due():
            ref.slice()
        if op.block_end and time.perf_counter() - t_begin >= seconds:
            return records
    return records


def percentile(values, p: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), p))


def median_block_rate(records: list[OpRecord], clock: str) -> float:
    """Operations per second of the median block.  Each workload repeats a
    block of operations with the same mix; the median time of each position
    over the run's blocks, summed over the positions, is the time of a
    typical block, whatever mix of cheap and dear variants a run happened to
    draw."""
    blocks, current = [], []
    for r in records:
        current.append(getattr(r, clock))
        if r.block_end:
            blocks.append(current)
            current = []
    blocks = blocks or [current]
    width = len(blocks[0])
    if any(len(b) != width for b in blocks):
        raise ValueError("blocks of the operation stream differ in length")
    return width / sum(statistics.median(b[i] for b in blocks) for i in range(width))


def end_to_end(records: list[OpRecord], setup_s: float, speed: float) -> dict:
    """Times are CPU seconds of the client process: it is the only process
    and runs one BLAS thread, so they equal wall time on an idle machine, but
    leave out the time a shared host gives its CPUs to others.  Both are
    scaled to the nominal machine by ``speed``, the share of the nominal
    speed the reference loops ran at during set-up and the run."""
    failed = sum(r.outcome != "ok" for r in records)
    return {
        "setup_s": (setup_s * speed, "s"),
        "requests_per_s": (median_block_rate(records, "cpu") / speed, "1/s"),
        "ok_ratio": (1.0 - failed / len(records), "ratio"),
    }


def workload_figures(workload: str, records: list[OpRecord], setup_s: float) -> dict:
    """The figures each workload is built to show, under their own names,
    in wall time."""
    lat = [r.latency for r in records]
    out = {"setup_s": setup_s,
           "failed_ratio": sum(r.outcome != "ok" for r in records) / len(records),
           "ops": len(records),
           "request_ms_p50": 1e3 * percentile(lat, 50),
           "request_ms_p90": 1e3 * percentile(lat, 90)}
    if workload == "evolve-grid":
        for q in (2, 8, 32):
            sel = [r for r in records if r.kind == "evolve" and r.q == q]
            if sel:
                out[f"evolve_q{q}_samples_per_s"] = sum(r.samples for r in sel) / sum(r.latency for r in sel)
    elif workload == "oracle-check":
        cases = [r for r in records if r.kind == "case"]
        checks = [r for r in records if r.kind == "check"]
        if cases:
            out["oracle_cases_per_s"] = len(cases) / sum(r.latency for r in cases)
            devs = [r.value for r in cases if isinstance(r.value, float)]
            out["oracle_max_dev"] = max(devs) if devs else None
        if checks:
            out["check_run_s"] = statistics.median(r.latency for r in checks)
    else:
        out["cli_requests_per_s"] = len(lat) / sum(lat)
        out["cli_request_ms_p50"] = out["request_ms_p50"]
        out["cli_request_ms_p90"] = out["request_ms_p90"]
    out["failures"] = sorted({f"{r.kind}: {r.reason}" for r in records if r.outcome != "ok"})[:20]
    return out


def per_layer(records: list[OpRecord], tracer, overhead_ratio: float) -> dict:
    from spans import SpanTable

    st = SpanTable(tracer)
    n_ops = len(records)
    cases = {r.index for r in records if r.kind == "case"}
    us, ms = 1e6, 1e3
    m = {}
    m["core.max_invertible_time.calls_per_op"] = (st.calls("core.max_invertible_time") / n_ops, "count")
    m["core.max_invertible_time.us_per_call"] = (us * st.per_call("core.max_invertible_time"), "us")
    for name in ("splitting_tensor_at", "shape_operator_at"):
        m[f"core.{name}.self_us_per_call"] = (us * st.per_call(f"core.{name}", self_only=True), "us")
    for q in (2, 8, 32):
        for name in ("max_invertible_time", "splitting_tensor_at"):
            m[f"core.{name}.q{q}.us_per_call"] = (us * st.per_call(f"core.{name}", sizes=[q]), "us")
        sel = [r for r in records if r.kind == "evolve" and r.q == q]
        per_sample = st.total("cli.run_evolve", ops={r.index for r in sel}) / max(sum(r.samples for r in sel), 1)
        m[f"cli.run_evolve.q{q}.us_per_sample"] = (us * per_sample, "us")
    evolve_samples = sum(r.samples for r in records if r.kind == "evolve")
    m["cli.run_evolve.self_us_per_sample"] = (
        us * st.total("cli.run_evolve", self_only=True) / max(evolve_samples, 1), "us")
    n_cases = max(len(cases), 1)
    m["core.riccati_path.ms_per_case"] = (ms * st.total("core.riccati_path", ops=cases) / n_cases, "ms")
    m["core.shape_ode_path.ms_per_case"] = (ms * st.total("core.shape_ode_path", ops=cases) / n_cases, "ms")
    m["core.rk4_steps_per_case"] = (st.count("core.rk4_evaluations", cases) / 4 / n_cases, "count")
    m["checks.run_checks.ms"] = (ms * st.per_call("checks.run_checks"), "ms")
    m["checks.run_checks.self_ms"] = (ms * st.per_call("checks.run_checks", self_only=True), "ms")
    m["cli.load_scenario.ms"] = (ms * st.per_call("cli.load_scenario"), "ms")
    for name in ("run_classify", "run_search", "run_catalog"):
        m[f"cli.{name}.self_ms"] = (ms * st.per_call(f"cli.{name}", self_only=True), "ms")
    m["classify.classify_splitting_spectrum.us_per_call"] = (
        us * st.per_call("classify.classify_splitting_spectrum"), "us")
    m["classify.decay_report.ms_per_call"] = (ms * st.per_call("classify.decay_report"), "ms")
    search = "theorems.find_special_nullity_direction"
    m[f"{search}.q2-6.ms_per_call"] = (ms * st.per_call(search, sizes=range(0, 7)), "ms")
    m[f"{search}.q7-12.ms_per_call"] = (ms * st.per_call(search, sizes=range(7, 13)), "ms")
    m[f"{search}.q12.ms_per_call"] = (ms * st.per_call(search, sizes=[12]), "ms")
    m["catalog.verify_model.ms_per_call"] = (ms * st.per_call("catalog.verify_model"), "ms")
    for kernel in ("solve", "inv", "eigvals", "svd", "det"):
        m[f"linalg.{kernel}.calls_per_op"] = (st.calls(f"linalg.{kernel}") / n_ops, "count")
    root_total = st.total("op")
    m["linalg.time_share"] = (st.prefix_total("linalg.") / root_total, "ratio")
    cli_ops = [r for r in records if r.code is not None]
    m["cli.bytes_written_per_op"] = (sum(r.bytes_out for r in cli_ops) / max(len(cli_ops), 1), "B")
    m["cli.uncaught_exceptions"] = (sum(r.raised for r in cli_ops), "count")
    for code in range(5):
        m[f"cli.exit_code_counts.{code}"] = (sum(r.code == code for r in cli_ops), "count")
    m["unattributed_share"] = (st.total("op", self_only=True) / root_total, "ratio")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m


def environment() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no mode argument
        config = None
    return {
        "python": sys.version,
        "numpy": np.__version__,
        "numpy_config": config,
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "load_avg": os.getloadavg(),
    }


def measure_setup(args, ref: Reference) -> tuple[float, float]:
    """Medians of the CPU time and of the wall time from starting a fresh
    interpreter to the end of the workload's set-up (import, input
    generation, warm-up).  A reference slice follows each probe."""
    cpu, wall = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            wall.append(time.perf_counter() - t0)
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        word, _, spent = line.partition(" ")
        if proc.returncode != 0 or word != "ready":
            raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
        cpu.append(float(spent))
        ref.slice()
    return statistics.median(cpu), statistics.median(wall)


def setup(workload: str, ws):
    """Run the workload's warm-up operations untimed; return its operation
    generator.  The caller has already imported nullgeo."""
    from workloads import WORKLOADS

    make_ops, warmup = WORKLOADS[workload]
    run_ops(iter(warmup(ws)), ws, 0.0)
    return make_ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "nullgeo" / "__init__.py").is_file():
        print(f"error: no nullgeo sources under {src}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    import nullgeo

    if Path(nullgeo.__file__).resolve().parent != (src / "nullgeo").resolve():
        print(f"error: imported nullgeo from {nullgeo.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import Workspace

    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    ws = Workspace(Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work)))
    try:
        make_ops = setup(args.workload, ws)
        if args.setup_probe:
            print("ready", time.process_time(), flush=True)
            return 0
        result, extra = run_workload(args, ws, make_ops)
    finally:
        shutil.rmtree(ws.root, ignore_errors=True)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    extra["environment"] = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "result": result, **extra}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(extra, default=str))
    print(json.dumps(result))
    return 0


def run_workload(args, ws, make_ops):
    if args.trace == 0:
        ref = Reference()
        setup_s, setup_wall_s = measure_setup(args, ref)
        records = run_ops(make_ops(args.seed, ws), ws, args.seconds, ref=ref)
        metrics = end_to_end(records, setup_s, ref.speed())
        figures = workload_figures(args.workload, records, metrics["setup_s"][0])
        figures.update({
            "setup_cpu_s": setup_s,
            "setup_wall_s": setup_wall_s,
            "requests_per_cpu_s": median_block_rate(records, "cpu"),
            "reference_speed": ref.speed(),
            "reference_core_memory_speeds": ref.speeds(),
            "reference_slices": len(ref.core_rates),
        })
        extra = {"figures": figures}
    else:
        from spans import Tracer

        plain = run_ops(make_ops(args.seed, ws), ws, args.seconds / 3)
        tracer = Tracer()
        tracer.install()
        try:
            records = run_ops(make_ops(args.seed, ws), ws, 2 * args.seconds / 3, tracer)
        finally:
            tracer.uninstall()
        n = min(len(plain), len(records))
        overhead = sum(r.latency for r in records[:n]) / sum(r.latency for r in plain[:n])
        metrics = per_layer(records, tracer, overhead)
        spans_path = ROOT / ".bench_out" / f"spans-{args.workload}.npz"
        tracer.save(spans_path)
        extra = {"spans": str(spans_path.relative_to(ROOT)), "spans_recorded": len(tracer.start)}
        records = plain + records
    result = {
        "correct": not any(r.outcome == "wrong" for r in records),
        "attempted": len(records),
        "failed": sum(r.outcome != "ok" for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, extra


if __name__ == "__main__":
    sys.exit(main())
