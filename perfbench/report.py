"""Run every workload and print the end-to-end metrics with their spread.

    python3 perfbench/report.py                    # seed 1, run length of BENCHMARK.json
    python3 perfbench/report.py --seeds 1 2 3 4 5  # spread over seeds

For each workload and metric it prints the median over the seeds, scaled to
the reference machine speed (see speed.py) with the measured median beside
it, and the quartile spread (Q3 - Q1) / median of the scaled values, with the
bound from BENCHMARK.json.  All six end-to-end metrics are shown, error_rate
included.  Exits 1 if any run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    summary = json.loads(lines[-2])["summary"]
    return {"correct": result["correct"], "summary": summary}


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    all_correct = True
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds) for seed in args.seeds]
        all_correct &= all(r["correct"] for r in runs)
        tails = [r["summary"][k] for r in runs for k in r["summary"] if k.startswith("beyond_p")]
        print(f"{workload}: {len(runs)} runs of {args.seconds:g} s, seeds {args.seeds}, "
              f"correct={all(r['correct'] for r in runs)}, "
              f"samples beyond p90 >= {min(tails)}")
        for name in runs[0]["summary"]["metrics"]:
            values = [r["summary"]["metrics"][name]["value"] for r in runs]
            measured = [r["summary"]["measured"][name]["value"] for r in runs]
            unit = runs[0]["summary"]["metrics"][name]["unit"]
            line = (f"  {name:<12} {statistics.median(values):>12.6g} {unit:<6}"
                    f" (measured {statistics.median(measured):.6g})")
            if len(values) >= 2:
                line += f" spread {spread(values):7.2%}"
                line += f" (bound {bounds[name]:.0%})" if name in bounds else " (not gated)"
                line += "  runs: " + " ".join(f"{v:.4g}" for v in values)
            print(line, flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
