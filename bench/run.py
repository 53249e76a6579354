#!/usr/bin/env python3
"""srhtlab benchmark: time-to-verdict on four workloads, plus a traced run.

    python3 bench/run.py                     # every workload, untraced and traced
    python3 bench/run.py --workload coupon_small --seed 3 --seconds 12 --trace 0
    python3 bench/run.py --regenerate-references [--force]
    python3 bench/run.py --write-spec        # rewrite BENCHMARK.json from bench/metrics.py

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each workload runs in its own ``bench/worker.py`` process with
the BLAS thread count fixed.  Metrics are printed one per line with their
units, and the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
untraced (``--trace 0``), the per-layer metrics traced (``--trace 1``).
Full results and the spans of the last traced verdict are written under
``.bench_out/``.
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

# The measuring time of one run.  BENCHMARK.json's run_seconds; a harness
# passes it back as ``--seconds``, so both commits of a comparison measure
# for the same time.
RUN_SECONDS = 12
# Launches timed for setup_s besides the workload's own process.  A launch
# takes about 0.15 s here and single launches swing by +-10 % even when
# calibrated, so setup_s is a median over many.
SETUP_PROBES = 30
# One BLAS thread keeps runs steady on a shared 2-core machine; it is at
# most nproc everywhere.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20


def spec():
    """The content of BENCHMARK.json."""
    from workloads import WORKLOADS

    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": list(metrics.END_TO_END),
        "per_layer": [
            {"name": name, "unit": unit, "better": "lower"} for name, unit in metrics.per_layer()
        ],
    }


def child_env():
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})
    return env


def _read_first(path, prefix=""):
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line[len(prefix):].strip().lstrip(":").strip()
    except OSError:
        pass
    return "unknown"


def environment(workload):
    """Where and how the run happened; numpy and BLAS come from the worker."""
    cache = "/sys/devices/system/cpu/cpu0/cache/index2"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "l2_cache": _read_first(f"{cache}/size") if _read_first(f"{cache}/level") == "2" else "unknown",
        "workload_shape": workload.shape,
        "working_set_bytes": workload.working_set_bytes,
    }


def _launch(args, timeout):
    """Run a worker; return (launch time, its JSON result)."""
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), *args],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return launched, json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_seconds(launched, started):
    """Seconds from launching a process until its ``import srhtlab`` returned,
    at the clock's reference speed (see ``bench/clock.py``)."""
    return (started["imported_at"] - launched) / started["slowness"]


def _setup_probe():
    return _setup_seconds(*_launch(["--probe"], PROBE_TIMEOUT_S))


def run_workload(name, seed, seconds, trace):
    """One run of one workload; returns the result object printed last."""
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}.seed{seed}"
    # probes before and after the workload, so the median spans the run
    setup = [] if trace else [_setup_probe() for _ in range(SETUP_PROBES // 2)]
    launched, result = _launch(
        ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace)), "--trace-out", str(OUT_DIR / f"{name}.spans.npz")],
        WORKER_TIMEOUT_S,
    )
    if trace:
        values = result["per_layer"]
        units = dict(metrics.per_layer())
        samples = len(result["traced_samples"])
    else:
        setup.append(_setup_seconds(launched, result))
        setup += [_setup_probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        values = {
            "verdict_s": statistics.median(result["samples"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = {m["name"]: m["unit"] for m in metrics.END_TO_END}
        samples = len(result["samples"])
    env = environment(WORKLOADS[name])
    env.update(result["environment"])
    report = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }
    detail = dict(result, workload=name, seed=seed, trace=int(trace), environment=env,
                  setup_samples=setup, report=report)
    (OUT_DIR / f"{stem}.trace{int(trace)}.json").write_text(json.dumps(detail, indent=2))

    print(f"# {name} seed={seed} trace={int(trace)}: {samples} timed verdicts "
          f"(median reported), error_rate {result['failed']}/{result['attempted']}")
    if not trace:
        print(f"# median wall time of a verdict {statistics.median(result['wall_samples']):.6g} s, "
              f"calibrated by {', '.join(WORKLOADS[name].calibration)}")
    for problem in result["problems"]:
        print(f"#   failed: {problem}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    for key, metric in report["metrics"].items():
        print(f"{name} {key} = {metric['value']:.6g} {metric['unit']}")
    return report


def regenerate_references(force):
    """Rewrite the committed reference summaries; refuse to change one
    silently unless ``force`` is given."""
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import REFERENCE_DIR, REFERENCE_SEEDS, WORKLOADS, reference_document, reference_path

    REFERENCE_DIR.mkdir(exist_ok=True)
    refused = []
    for name in WORKLOADS:
        for seed in REFERENCE_SEEDS:
            path = reference_path(name, seed)
            text = reference_document(name, seed)
            if path.exists() and path.read_text(encoding="utf-8") == text:
                print(f"unchanged {path.name}")
            elif path.exists() and not force:
                refused.append(path.name)
                print(f"REFUSED   {path.name}: differs from the program's output (use --force)")
            else:
                path.write_text(text, encoding="utf-8")
                print(f"wrote     {path.name}")
    return 1 if refused else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help=f"measuring time of a run (default and run_seconds: {RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--regenerate-references", action="store_true")
    parser.add_argument("--force", action="store_true", help="let --regenerate-references overwrite")
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "srhtlab" / "__init__.py").is_file():
        print(f"error: srhtlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.regenerate_references:
        return regenerate_references(args.force)

    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be 'all' or one of {', '.join(WORKLOADS)}")
    modes = (0, 1) if args.trace is None else (args.trace,)
    try:
        reports = {
            (name, trace): run_workload(name, args.seed, args.seconds, trace)
            for name in names for trace in modes
        }
    except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(reports) == 1:
        final = next(iter(reports.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {
                f"{name}.{key}": metric
                for (name, _), r in reports.items() for key, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
