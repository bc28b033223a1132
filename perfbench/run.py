"""Benchmark harness: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload states8 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` with nothing installed.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
times scaled to a reference machine speed (see speed.py); with ``--trace 1``
they are the per-layer ones, from spans around every package call of the
traced half of the ops.  The line before it is a ``summary`` object with the
run's details, all six end-to-end metrics both scaled and as measured, and the
tail sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("states8", "device_signal", "cli_cold")
SETUP_PROBES = 9
TAIL_PERCENTILE = 90
MIN_TAIL_SAMPLES = 10
# An untraced run goes on past --seconds, for at most as long again, until it
# has enough samples that MIN_TAIL_SAMPLES lie beyond the tail percentile.
MIN_SAMPLES = MIN_TAIL_SAMPLES * 100 // (100 - TAIL_PERCENTILE)
MAX_REPORTED_ERRORS = 5

SUBCOMMANDS = ("decompose", "ladder", "transform", "analyze", "gate",
               "pulse", "jsweep", "haar", "estimates", "constants")

# Per-layer metrics from spans: self time per op, except cli.<subcommand>,
# which is per call of that subcommand.
SPAN_METRICS = (
    "hierarchy.hierarchic_transform",
    "hierarchy.multiplet_basis_states",
    "hierarchy.transform_apply",
    "hierarchy.analyze_state",
    "hierarchy.reduce_to_level.l0",
    "hierarchy.reduce_to_level.l1",
    "hierarchy.reduce_to_level.l2",
    "hierarchy.reduce_to_level.l3",
    "quantum_dot.sweep_exchange",
    "wavelet.pyramid_forward",
    "wavelet.pyramid_inverse",
    "dynamics.evolve_pulse",
    "gates.xor_sequence",
    "gates.to_multiplet",
) + tuple(f"cli.{sub}" for sub in SUBCOMMANDS)

PER_LAYER = (
    [(f"{name}.ms", "ms") for name in SPAN_METRICS]
    + [("hierarchy.transform_cold.ms", "ms"),
       ("angular_momentum.cg.us", "us"),
       ("angular_momentum.couple_pair_matrix.us", "us"),
       ("cli.interpreter.ms", "ms"),
       ("cli.import.ms", "ms"),
       ("trace.overhead.ms", "ms")]
)

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "error_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# The result line carries the metrics BENCHMARK.json gates; the summary line
# prints all six.  error_rate is 0 on a correct program, and a metric that is
# 0 has no relative spread, so the result line leaves it to "attempted" and
# "failed".
REPORTED_END_TO_END = ("ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def configure_environment() -> None:
    """Import the package from src/ and run BLAS on one thread, for this
    process and every child it starts.

    One thread is within the cap of the usable CPUs: the package's matrices
    are at most 256 x 256, too small to gain from a second thread, and on
    shared CPUs a second thread makes each op wait for the slower of two.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))


def wall_ms(argv) -> float:
    start = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return (time.perf_counter() - start) * 1e3


def run_probe(workload: str) -> dict:
    """Fresh-process set-up timings of ``workload`` (see probe.py)."""
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload],
                          check=True, capture_output=True, text=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


@dataclass
class Loop:
    """What one closed loop measured."""

    traced_ns: list[int] = field(default_factory=list)
    untraced_ns: list[int] = field(default_factory=list)
    reference_ns: list[int] = field(default_factory=list)  # one per untraced_ns
    traced_reference_ns: list[int] = field(default_factory=list)  # one per traced_ns
    probes: list[dict] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def measure(workload, pool, seconds: float, tracer, probe_workload) -> Loop:
    """Closed loop over the input pool for ``seconds`` of wall time (see MIN_SAMPLES).

    With a ``tracer``, whole passes over the pool alternate between traced and
    untraced, so both halves see every input.  The speed reference runs
    after every successful op.  Outputs are checked between
    ops, outside the timed span; an op that raises or fails a check counts as
    failed and adds no latency sample.  Machine speed drifts over seconds on
    shared CPUs, so the set-up probes of ``probe_workload`` (if not None) run
    between ops spread evenly over the window, which is extended by their time.
    """
    loop = Loop()
    untraced = spans.NullTracer()
    probe_every = seconds / SETUP_PROBES
    start_loop = time.perf_counter()

    def more() -> bool:
        elapsed = time.perf_counter() - start_loop
        if loop.attempted == 0 or elapsed < seconds:
            return True
        return (tracer is None and 0 < len(loop.untraced_ns) < MIN_SAMPLES
                and elapsed < 2 * seconds)

    while more():
        if probe_workload and len(loop.probes) < SETUP_PROBES \
                and time.perf_counter() - start_loop >= len(loop.probes) * probe_every:
            probe_start = time.perf_counter()
            loop.probes.append(run_probe(probe_workload))
            start_loop += time.perf_counter() - probe_start
            continue
        traced = tracer is not None and (loop.attempted // len(pool)) % 2 == 0
        active = tracer if traced else untraced
        inp = pool[loop.attempted % len(pool)]
        loop.attempted += 1
        start = time.perf_counter_ns()
        try:
            out = active.call("op", workload.op, active, inp)
        except Exception as exc:  # a failing op is a result, not a harness fault
            loop.failed += 1
            loop.errors.append(f"op raised {type(exc).__name__}: {exc}")
            continue
        elapsed_ns = time.perf_counter_ns() - start
        problems = workload.check(inp, out)
        del out
        if problems:
            loop.failed += 1
            loop.errors.extend(problems)
            continue
        if traced:
            loop.traced_ns.append(elapsed_ns)
            loop.traced_reference_ns.append(speed.reference_ns())
        else:
            loop.untraced_ns.append(elapsed_ns)
            loop.reference_ns.append(speed.reference_ns())
    while probe_workload and len(loop.probes) < SETUP_PROBES:  # run too short to spread them
        loop.probes.append(run_probe(probe_workload))
    return loop


def tail_ms(samples_ns) -> tuple[float, int]:
    """The TAIL_PERCENTILE latency in ms and the number of samples beyond it."""
    if len(samples_ns) < 2:
        value = max(samples_ns) / 1e6
    else:
        value = statistics.quantiles(samples_ns, n=100)[TAIL_PERCENTILE - 1] / 1e6
    return value, sum(1 for s in samples_ns if s / 1e6 > value)


def latency_metrics(samples_ns) -> dict:
    """Throughput, median and tail latency of the successful ops."""
    if not samples_ns:  # every op failed
        return {"ops_per_s": 0.0, "op_p50_ms": 0.0, "op_p90_ms": 0.0}
    return {"ops_per_s": len(samples_ns) / (sum(samples_ns) / 1e9),
            "op_p50_ms": statistics.median(samples_ns) / 1e6,
            "op_p90_ms": tail_ms(samples_ns)[0]}


def end_to_end(name: str, loop: Loop) -> tuple[dict, dict, dict]:
    """All six end-to-end values scaled to the reference speed, the same
    as measured, and the tail sample counts."""
    rusage = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    scaled_ns = speed.scale(loop.untraced_ns, loop.reference_ns)
    common = {"error_rate": loop.failed / loop.attempted,
              "peak_rss_mb": resource.getrusage(rusage).ru_maxrss / 1024}
    scaled = {**latency_metrics(scaled_ns), **common, "setup_s": statistics.median(
        p["setup_s"] * speed.REFERENCE_MS / p["reference_ms"] for p in loop.probes)}
    measured = {**latency_metrics(loop.untraced_ns), **common,
                "setup_s": statistics.median(p["setup_s"] for p in loop.probes)}
    beyond = tail_ms(scaled_ns)[1] if scaled_ns else 0
    return ({k: scaled[k] for k in END_TO_END_UNITS}, {k: measured[k] for k in END_TO_END_UNITS},
            {"samples": len(scaled_ns), f"beyond_p{TAIL_PERCENTILE}": beyond})


def per_layer(name: str, tracer: spans.Tracer, loop: Loop) -> dict:
    """Every per-layer value; layers this workload does not call read 0."""
    import workloads

    totals = tracer.self_times_ns()
    calls: dict[str, int] = {}
    for _, span_name, _, _, _ in tracer.spans:
        calls[span_name] = calls.get(span_name, 0) + 1
    ops = max(calls.get("op", 0), 1)
    values = {}
    for span_name in SPAN_METRICS:
        per = calls.get(span_name, 0) if span_name.startswith("cli.") else ops
        values[f"{span_name}.ms"] = totals.get(span_name, 0) / max(per, 1) / 1e6
    values["hierarchy.transform_cold.ms"] = (
        statistics.median(p["transform_cold_ms"] for p in loop.probes) if loop.probes else 0.0)
    if name in ("states8", "cli_cold"):
        values.update(workloads.angular_momentum_probes())
    else:
        values["angular_momentum.cg.us"] = values["angular_momentum.couple_pair_matrix.us"] = 0.0
    if name == "cli_cold":
        interpreter = statistics.median(
            wall_ms([sys.executable, "-c", "pass"]) for _ in range(SETUP_PROBES))
        imported = statistics.median(
            wall_ms([sys.executable, "-c", "import spinhier.cli"]) for _ in range(SETUP_PROBES))
        values["cli.interpreter.ms"] = interpreter
        values["cli.import.ms"] = imported - interpreter
    else:
        values["cli.interpreter.ms"] = values["cli.import.ms"] = 0.0
    if loop.traced_ns and loop.untraced_ns:
        values["trace.overhead.ms"] = (
            statistics.median(speed.scale(loop.traced_ns, loop.traced_reference_ns))
            - statistics.median(speed.scale(loop.untraced_ns, loop.reference_ns))) / 1e6
    else:
        values["trace.overhead.ms"] = 0.0
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinhier" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    configure_environment()
    import numpy as np

    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    needs_probes = not args.trace or args.workload in ("states8", "cli_cold")
    tracer = spans.Tracer() if args.trace else None
    workload.setup()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as workdir:
        pool = workload.inputs(np.random.default_rng(args.seed), Path(workdir))
        loop = measure(workload, pool, args.seconds, tracer,
                       args.workload if needs_probes else None)

    for line in loop.errors[:MAX_REPORTED_ERRORS]:
        print(f"check failed: {line}", file=sys.stderr)
    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "attempted": loop.attempted, "failed": loop.failed}
    if tracer is not None:
        metrics = per_layer(args.workload, tracer, loop)
        units = dict(PER_LAYER)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        summary.update(traced_ops=len(loop.traced_ns), untraced_ops=len(loop.untraced_ns),
                       spans=str(spans_path.relative_to(ROOT)))
        if loop.untraced_ns:
            untraced_ms = statistics.median(speed.scale(loop.untraced_ns, loop.reference_ns)) / 1e6
            summary["trace_overhead_pct"] = 100 * metrics["trace.overhead.ms"] / untraced_ms
    else:
        values, measured, tail = end_to_end(args.workload, loop)
        summary.update(tail)
        if loop.reference_ns:
            summary["reference_ms"] = statistics.median(loop.reference_ns) / 1e6
        if tail[f"beyond_p{TAIL_PERCENTILE}"] < MIN_TAIL_SAMPLES:
            print(f"warning: only {tail[f'beyond_p{TAIL_PERCENTILE}']} samples beyond "
                  f"p{TAIL_PERCENTILE}; run longer", file=sys.stderr)
        summary["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                              for k, v in values.items()}
        summary["measured"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                               for k, v in measured.items()}
        metrics = {k: values[k] for k in REPORTED_END_TO_END}
        units = END_TO_END_UNITS
    print(json.dumps({"summary": summary}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
