"""The benchmark's workloads, how one call of each runs, and how its output
is checked against the committed reference summaries.

Every experiment runs in-process through ``srhtlab.cli.main`` with the
acceptance shapes and a trial count sized so that one verdict takes about a
second on a 2-core Xeon; the criterion-8 sweep calls
``srhtlab.bounds.row_sampling_failure_bound`` directly, in chunks that a
``clock.Clock`` times one by one.  Both names are looked up at call time,
so a traced run sees the wrappers the tracer installs.
"""

import contextlib
import io
import json
import pathlib
from dataclasses import dataclass

from clock import INTERPRETER, NUMPY
from metrics import FAILURE_COUNTS

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "references"
DEFAULT_SEED = 0
HELD_OUT_SEED = 12345
REFERENCE_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

# linalg's docstring budget for singular values computed through the Gram
# matrix; a kernel swap (SVD for Gram + Jacobi) stays inside it, a change to
# the random stream does not.
FLOAT_TOLERANCE = 1e-7
FLOAT_FIELDS = frozenset({"bound", "extreme_sigma_min", "extreme_sigma_max", "worst_ratio"})
# Runners whose ``empirical`` field is a ratio of means, not a frequency.
RATIO_RUNNERS = ("mgf_domination",)
# Fields that do not depend on the seed, checked when no reference exists.
SEED_FREE_FIELDS = ("name", "n", "k", "ell", "trials", "mode", "k_max", "calls")

SWEEP = "criterion8_sweep"
SWEEP_K_MAX = 10**6
# k values per timed piece of the sweep: about half a second each.
SWEEP_CHUNK = 100_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple
    working_set_bytes: int
    shape: str
    calibration: tuple  # the clock.KERNELS that resemble its hot path


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "embed_large",
            "FWHT- and spectrum-bound on an 8 MB input, larger than L2; where the radix-16 "
            "transform and the SVD swap show",
            (("experiment", "embedding", "--n", "65536", "--k", "16", "--l", "2342",
              "--trials", "10"),),
            65536 * 16 * 8,
            "embedding n=65536 k=16 l=2342, 10 trials",
            NUMPY,
        ),
        Workload(
            "coupon_small",
            "thousands of n=64 trials: operator draw, per-trial overhead and the stacked "
            "eigensolver dominate; catches a change that slows small n",
            (("experiment", "coupon", "--k", "8", "--ells", "8", "12", "17", "24",
              "--trials", "1000"),),
            64 * 8 * 8,
            "coupon k=8 (n=64) l in {8,12,17,24}, 1000 trials each",
            # the draw and the stacked eigensolver; a 4 KiB working set
            # never streams, and the stream kernel made this spread more
            ("rng", "stack"),
        ),
        Workload(
            "rownorm_qr",
            "linalg through QR and not the spectrum, mid-size FWHT with no sampling; "
            "a spectrum swap should leave it unchanged",
            (("experiment", "rownorm", "--n", "4096", "--k", "16", "--beta", "16",
              "--trials", "200"),),
            4096 * 16 * 8,
            "rownorm n=4096 k=16 beta=16, 200 trials",
            NUMPY,
        ),
        Workload(
            "exact_bounds",
            "exhaustive Chernoff and mgf plus the criterion-8 sweep: bounds and the "
            "unstacked small eigen path carry the time, no FWHT",
            (
                ("experiment", "chernoff", "--exhaustive", "--n", "16", "--k", "2", "--l", "6"),
                ("experiment", "mgf", "--exhaustive", "--n", "8", "--k", "2", "--l", "3"),
                SWEEP,
            ),
            16 * 2 * 8,
            "chernoff n=16 l=6 (8008 subsets), mgf n=8 l=3, "
            "row_sampling_failure_bound for k=2..1e6",
            INTERPRETER,
        ),
    )
}


def call_label(call):
    return call if call == SWEEP else " ".join(call[:2])


def _sweep_chunk(lo, hi):
    from srhtlab import bounds

    violations = 0
    worst = 0.0
    for k in range(lo, hi):
        value = bounds.row_sampling_failure_bound(k, 4.0, 5.0 / 6.0, 7.0 / 6.0)
        if value > 2.0 / k:
            violations += 1
        worst = max(worst, value * k / 2.0)
    return violations, worst


def criterion8_sweep(clock, k_max=SWEEP_K_MAX):
    """Criterion 8 of the acceptance suite: the bound is at most 2/k."""
    violations = 0
    worst = 0.0
    for lo in range(2, k_max + 1, SWEEP_CHUNK):
        hi = min(lo + SWEEP_CHUNK, k_max + 1)
        chunk_violations, chunk_worst = clock.time(_sweep_chunk, lo, hi)
        violations += chunk_violations
        worst = max(worst, chunk_worst)
    return {
        "name": SWEEP,
        "k_max": k_max,
        "calls": k_max - 1,
        "violations": violations,
        "worst_ratio": worst,
        "passed": violations == 0,
    }


@dataclass
class Outcome:
    """What one call produced; ``seconds`` is the clock's reading around the
    call only."""

    seconds: float
    raised: str = ""
    exit_code: int = 0
    records: list = None


def run_call(call, seed, clock, tracer=None):
    """Run one call of a workload, timed from outside by ``clock``.

    CLI output is captured as text and parsed after the clock stops.
    """
    import srhtlab.cli

    start = clock.elapsed
    try:
        if call == SWEEP:
            if tracer is None:
                sweep = criterion8_sweep(clock)
            else:
                with tracer.span(f"bench.{SWEEP}"):
                    sweep = criterion8_sweep(clock)
            return Outcome(clock.elapsed - start, records=[sweep])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = clock.time(srhtlab.cli.main, [*call, "--seed", str(seed)])
        seconds = clock.elapsed - start
    except Exception as exc:  # a failed call is counted, not fatal
        return Outcome(clock.elapsed - start, raised=repr(exc))
    if code == 2:
        return Outcome(seconds, raised="exit code 2", exit_code=code)
    records = json.loads(out.getvalue())["summaries"]
    for record in records:
        # the timing-free record, as summaries_to_json(include_timing=False)
        record.pop("elapsed_seconds")
    return Outcome(seconds, exit_code=code, records=records)


def compare(records, reference, fields=None):
    """Differences between summary records and their reference.

    Counts, frequencies, trial totals and verdicts must be equal; the float
    fields (bounds, sigma extremes, mgf ratios) may differ by at most
    ``FLOAT_TOLERANCE``.  ``fields`` limits the check to those keys.
    """
    if len(records) != len(reference):
        return [f"{len(records)} summaries, reference has {len(reference)}"]
    problems = []
    for got, want in zip(records, reference):
        keys = sorted(set(got) | set(want)) if fields is None else fields
        for key in keys:
            if fields is not None and key not in want:
                continue
            a, b = got.get(key), want.get(key)
            is_float = key in FLOAT_FIELDS or (
                key == "empirical" and str(want.get("name", "")).startswith(RATIO_RUNNERS)
            )
            if is_float and isinstance(a, (int, float)) and isinstance(b, (int, float)):
                same = abs(a - b) <= FLOAT_TOLERANCE
            else:
                same = type(a) is type(b) and a == b
            if not same:
                problems.append(f"{want.get('name')}.{key}: {a!r} != reference {b!r}")
    return problems


def reference_path(workload, seed):
    return REFERENCE_DIR / f"{workload}.seed{seed}.json"


def load_reference(workload, seed):
    """Reference summaries per call, or None when the seed has none."""
    path = reference_path(workload, seed)
    if not path.exists():
        return None
    doc = json.loads(path.read_text(encoding="utf-8"))
    return [entry["summaries"] for entry in doc["calls"]]


def reference_document(workload, seed):
    """Run each call of a workload once and build its reference document."""
    from clock import Clock

    calls = []
    clock = Clock()
    for call in WORKLOADS[workload].calls:
        outcome = run_call(call, seed, clock)
        if outcome.raised or outcome.exit_code != 0:
            raise RuntimeError(f"{call_label(call)} failed at seed {seed}: {outcome}")
        calls.append({"call": list(call) if call != SWEEP else call,
                      "summaries": outcome.records})
    doc = {"workload": workload, "seed": seed, "calls": calls}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class Checker:
    """Counts failed calls of one workload at one seed.

    A call fails if it raised, if any verdict is ``passed=False``, or if its
    summaries differ from the committed reference.  At a seed without a
    reference the seed-independent fields are checked against the default
    seed's reference.  Every call must also repeat its first result exactly.
    """

    def __init__(self, workload, seed):
        self.workload = WORKLOADS[workload]
        self.reference = load_reference(workload, seed)
        self.fields = None
        if self.reference is None:
            self.reference = load_reference(workload, DEFAULT_SEED)
            self.fields = SEED_FREE_FIELDS
        if self.reference is None:
            raise FileNotFoundError(f"no reference summaries for {workload}")
        self.first = {}
        self.attempted = 0
        self.counts = dict.fromkeys(FAILURE_COUNTS, 0)
        self.problems = []

    @property
    def failed(self):
        return sum(self.counts.values())

    def check(self, index, outcome):
        self.attempted += 1
        label = call_label(self.workload.calls[index])
        if outcome.raised:
            self.counts["raised"] += 1
            self.problems.append(f"{label}: raised {outcome.raised}")
            return
        if outcome.exit_code != 0 or not all(r["passed"] for r in outcome.records):
            self.counts["criterion_failed"] += 1
            self.problems.append(f"{label}: criterion failed")
            return
        problems = compare(outcome.records, self.reference[index], self.fields)
        if self.first.setdefault(index, outcome.records) != outcome.records:
            problems.append("summaries differ from the same call's first run")
        if problems:
            self.counts["reference_mismatch"] += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:5])
