"""Benchmark of the qsu2 library: four workloads, end-to-end and per layer.

    python3 benchmarks/run.py --workload leibniz|growth|scan|inequality
                              --seed N --seconds S --trace 0|1

Run from the root of a source checkout; qsu2 is imported from ./src.  Each
round is a fresh interpreter (worker.py) that sets the workload up, runs
its fixed job once and checks the outputs; rounds run one at a time.

--trace 0 repeats rounds until S seconds have passed (at least one), adds
set-up-only rounds until there are SETUP_SAMPLES set-up times, and reports
the medians of setup_s, run_s, cpu_s and peak_rss_mib.  --trace 1 runs
pairs of one untraced and one traced round of the same seed and reports
the per-layer metrics of the traced rounds, with trace.overhead_s, the
median difference of run_s within a pair (see measure_traced).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A record of the run, with its environment,
is written to benchmarks/out/records/.  The exit code is 0 when every round
ran; 2 when there is no source tree to benchmark, 1 when a round crashed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RECORDS = os.path.join(HERE, "out", "records")
WORKLOADS = ("leibniz", "growth", "scan", "inequality")
SETUP_SAMPLES = 5
ROUND_TIMEOUT = 170         # seconds; a round that takes longer is killed
BUDGET = 120                # no new round once this much has passed
TRACE_BUDGET = 60           # --trace 1: no new pair of rounds after this
TRACE_PAIRS = 5
# one thread per process for numpy's native libraries
_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RoundError(RuntimeError):
    pass


def run_worker(workload, seed, size, trace=False, setup_only=False):
    """One round in a fresh interpreter; its report, with setup_s added."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed",
           str(seed), "--size", size]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **_ENV)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=ROUND_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"{workload} round exceeded {ROUND_TIMEOUT} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"{workload} round exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - spawned
    return report


def measure(workload, seed, seconds, size):
    """End-to-end metrics: medians over the rounds of S seconds."""
    rounds, start = [], time.monotonic()
    while True:
        began = time.monotonic()
        rounds.append(run_worker(workload, seed, size))
        now = time.monotonic()
        if now - start >= seconds or now - start + (now - began) > BUDGET:
            break
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(workload, seed, size,
                                 setup_only=True)["setup_s"])
    metrics = {"setup_s": (statistics.median(setups), "s")}
    for name, unit in (("run_s", "s"), ("cpu_s", "s"),
                       ("peak_rss_mib", "MiB")):
        metrics[name] = (statistics.median(r[name] for r in rounds), unit)
    return rounds, metrics, {"setup_s": setups}


def measure_traced(workload, seed, size):
    """Per-layer metrics of traced rounds, and the tracing overhead.

    Untraced and traced rounds of the seed run in pairs, in alternating
    order, for as long as another pair fits in TRACE_BUDGET (at least one
    pair, at most TRACE_PAIRS).  Each metric is the median_low over the
    traced rounds, so a count is one that a round measured.
    trace.overhead_s is the median_low of the pairs' differences of run_s.
    """
    import tracing
    rounds, diffs, start = [], [], time.monotonic()
    while True:
        began = time.monotonic()
        order = (False, True) if len(diffs) % 2 == 0 else (True, False)
        pair = {t: run_worker(workload, seed, size, trace=t) for t in order}
        rounds += [pair[t] for t in order]
        diffs.append(pair[True]["run_s"] - pair[False]["run_s"])
        now = time.monotonic()
        if (len(diffs) == TRACE_PAIRS
                or now - start + (now - began) > TRACE_BUDGET):
            break
    traced = [r["layers"] for r in rounds if r["layers"]]
    layers = {m: statistics.median_low(t[m] for t in traced)
              for m in traced[0]}
    layers["trace.overhead_s"] = statistics.median_low(diffs)
    metrics = {name: (layers[name], unit) for name, unit in tracing.METRICS}
    return rounds, metrics, {"trace.overhead_s": diffs}


def git_sha():
    """The checked-out commit, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def write_record(args, result, rounds, samples):
    env = {"python": platform.python_version(),
           "implementation": platform.python_implementation(),
           "nproc": os.cpu_count(),
           "usable_cpus": len(os.sched_getaffinity(0)),
           "machine": platform.machine(), "git_sha": git_sha()}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "size": args.size, "environment": env, **result,
              "rounds": [{k: v for k, v in r.items() if k != "layers"}
                         for r in rounds],
              "samples": samples}
    os.makedirs(RECORDS, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = os.path.join(RECORDS, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}-{stamp}-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: the self-test size")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qsu2", "__init__.py")):
        print(f"no qsu2 source tree under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.trace:
            rounds, metrics, samples = measure_traced(args.workload,
                                                      args.seed, args.size)
        else:
            rounds, metrics, samples = measure(args.workload, args.seed,
                                               args.seconds, args.size)
    except RoundError as exc:
        print(exc, file=sys.stderr)
        return 1
    failures = [f for r in rounds for f in r["failures"]]
    for line in failures[:20]:
        print("CHECK FAILED:", line, file=sys.stderr)
    result = {"correct": not failures,
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    path = write_record(args, result, rounds, samples)
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
