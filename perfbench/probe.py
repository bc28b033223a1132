"""Set-up probe: times a workload's set-up in a fresh interpreter.

    python3 perfbench/probe.py <workload>

The clock starts before the first import, so the time covers importing numpy
and the package plus the workload's own set-up; interpreter start-up is
excluded.  Prints one JSON object with ``setup_s``, ``reference_ms``, the
speed reference timed right after set-up (see speed.py), and
``transform_cold_ms``, the first 8-qubit transform build in this process.
"""

from time import perf_counter

START = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    workload = workloads.WORKLOADS[sys.argv[1]]()
    workload.setup()
    setup_s = perf_counter() - START
    import speed

    reference_ms = speed.settled_reference_ns() / 1e6
    cold_ms = getattr(workload, "transform_cold_ms", None)
    if cold_ms is None:
        cold_ms = workloads.time_cold_transform()
    print(json.dumps({"setup_s": setup_s, "reference_ms": reference_ms,
                      "transform_cold_ms": cold_ms}))


if __name__ == "__main__":
    main()
