"""One round of one workload, in a fresh interpreter.

    python3 benchmarks/worker.py --workload NAME --seed N --size full|tiny
                                 [--trace] [--setup-only]

Sets the workload up, runs its job once (traced with --trace), checks the
outputs and prints one JSON line: the monotonic time at which set-up ended,
and, unless --setup-only, the job's wall and CPU time, the peak resident
memory, the operations attempted and failed, the check failures and, with
--trace, the per-layer metrics.  run.py starts it; it is not the benchmark
command.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def run_round(workload, seed, size, trace=False, setup_only=False):
    """The report of one round in this process (see the module docstring)."""
    import tracing
    import workloads
    wl = workloads.WORKLOADS[workload]
    workdir = os.path.join(HERE, "out", "work", str(os.getpid()))
    try:
        inputs = wl.setup(seed, size, workdir)
        report = {"ready": time.monotonic()}
        _check_source()
        if setup_only:
            return report
        tracer = tracing.Tracer().install() if trace else None
        try:
            cpu0, wall0 = time.process_time(), time.perf_counter()
            outputs, failed = wl.job(inputs)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            layers = tracer.metrics() if tracer else None
        finally:
            if tracer:
                tracer.restore()
        report.update({"run_s": wall, "cpu_s": cpu, "peak_rss_mib": rss,
                       "attempted": wl.ops(inputs), "failed": failed,
                       "failures": wl.check(inputs, outputs),
                       "layers": layers})
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _check_source():
    import qsu2
    if not os.path.abspath(qsu2.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"qsu2 was imported from {qsu2.__file__}, "
                         f"not from {SRC}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    report = run_round(args.workload, args.seed, args.size, args.trace,
                       args.setup_only)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
