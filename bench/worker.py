"""One benchmark process: import srhtlab, then run one workload.

Started by ``bench/run.py``, one process per workload run, so that set-up
time and peak memory belong to that workload alone.  ``--probe`` only
imports srhtlab.  The last line of standard output is one JSON object; its
``imported_at`` is CLOCK_MONOTONIC when ``import srhtlab`` returned, which
the parent subtracts from its launch time, and its ``slowness`` is the
host's slowness just after the import (``clock.slowness``), by which the
parent divides that set-up time.
"""

import sys
import time

# Everything else is imported after srhtlab, so that a probe times only the
# interpreter's start-up and ``import srhtlab``.


def _import_srhtlab(root):
    sys.path.insert(0, f"{root}/src")
    import srhtlab  # noqa: F401

    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _blas(numpy):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '')} {blas.get('version', '')}".strip()


def _median(values):
    import statistics

    return statistics.median(values)


def _run_verdict(workload, seed, checker, clock, tracer=None):
    """Run every call of the workload once; return the summed call time."""
    from workloads import run_call

    total = 0.0
    for index, call in enumerate(workload.calls):
        outcome = run_call(call, seed, clock, tracer)
        total += outcome.seconds
        checker.check(index, outcome)
    return total


def _timed(run, seconds, at_least):
    """Repeat ``run`` until ``seconds`` have passed and ``at_least`` ran."""
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < at_least or time.perf_counter() < deadline:
        samples.append(run())
    return samples


def _traced_metrics(workload, seed, checker, clock, seconds, untraced, out_path):
    """Per-layer metrics from traced verdicts, averaged per verdict."""
    import metrics
    from spans import Tracer, eigen_counts, fwht_counts

    tracer = Tracer(
        metrics.TRACED,
        counters={"wht.fwht_inplace": fwht_counts, "linalg.symmetric_eigenvalues": eigen_counts},
    )
    totals = {}
    traced = []
    deadline = time.perf_counter() + seconds
    with tracer:
        while not traced or time.perf_counter() < deadline:
            tracer.reset()
            traced.append(_run_verdict(workload, seed, checker, clock, tracer))
            for name, row in tracer.summary().items():
                for stat, value in row.items():
                    key = f"{name}.{stat}"
                    totals[key] = totals.get(key, 0) + value
            for key, value in tracer.counts.items():
                totals[key] = totals.get(key, 0) + value
    if out_path:
        tracer.save(out_path)

    reps = len(traced)
    values = {name: totals.get(name, 0) / reps for name, _ in metrics.per_layer()}
    # failure counts are over every call of the run, not per verdict
    values.update({f"experiments.{key}": n for key, n in checker.counts.items()})
    self_s = sum(value for key, value in totals.items() if key.endswith(".self_s"))
    values["traced_verdict_s"] = _median(traced)
    values["trace_overhead_s"] = _median(traced) - _median(untraced)
    values["trace_unaccounted_s"] = (sum(traced) - self_s) / reps
    return values, traced


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)
    if not args.probe and (args.workload is None or args.seconds is None):
        parser.error("--workload and --seconds are required unless --probe is given")
    imported_at = _import_srhtlab(args.root)

    import json

    from clock import INTERPRETER, Clock, slowness

    result = {"imported_at": imported_at, "slowness": slowness(INTERPRETER)}
    if args.probe:
        print(json.dumps(result))
        return 0

    import resource

    import numpy
    from workloads import WORKLOADS, Checker

    workload = WORKLOADS[args.workload]
    checker = Checker(args.workload, args.seed)
    # Traced runs compare traced with untraced wall time, so they calibrate
    # nothing; untraced runs read the clock at the reference speed.
    clock = Clock(() if args.trace else workload.calibration)

    wall = []

    def run():
        start = clock.wall
        seconds = _run_verdict(workload, args.seed, checker, clock)
        wall.append(clock.wall - start)
        return seconds

    run()  # warm-up, untimed
    wall.clear()
    result["environment"] = {"numpy": numpy.__version__, "blas": _blas(numpy)}
    if args.trace:
        untraced = _timed(run, args.seconds / 2, at_least=2)
        values, traced = _traced_metrics(
            workload, args.seed, checker, clock, args.seconds / 2, untraced, args.trace_out
        )
        result.update(per_layer=values, untraced_samples=untraced, traced_samples=traced)
    else:
        samples = _timed(run, args.seconds, at_least=3)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.update(samples=samples, wall_samples=wall, peak_rss_mb=rss_kib / 1024.0)
    result.update(
        attempted=checker.attempted,
        failed=checker.failed,
        failure_counts=checker.counts,
        problems=checker.problems[:20],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
