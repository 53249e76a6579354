"""Names, units and bounds of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root is generated from these tables
(``python3 bench/run.py --write-spec``).
"""

# Public functions wrapped in a traced run, as "module.function" under
# srhtlab.  Each reports ``.calls`` and ``.self_s`` per verdict.
TRACED = (
    "wht.fwht_inplace",
    "srht.draw_srht",
    "srht.sample_without_replacement",
    "srht.derived_rng",
    "srht.apply_to_matrix",
    "linalg.symmetric_eigenvalues",
    "linalg.singular_values",
    "linalg.gram",
    "linalg.random_orthonormal",
    "linalg.orthonormality_defect",
    "bounds.row_sampling_failure_bound",
    "bounds.chernoff_lower_tail",
    "bounds.chernoff_upper_tail",
    "bounds.coupon_coverage_probability",
    "experiments.run_embedding_trials",
    "experiments.run_row_norm_trials",
    "experiments.run_coupon_trials",
    "experiments.run_chernoff_validation",
    "experiments.run_mgf_domination",
    "cli.main",
)

# Spans the benchmark opens around its own code.
BENCH_SPANS = ("bench.criterion8_sweep",)

# Work computed from argument shapes, per verdict.
SHAPE_COUNTS = {
    "wht.fwht_inplace.butterfly_ops": "ops",
    "wht.fwht_inplace.bytes_computed": "bytes",
    "linalg.symmetric_eigenvalues.matrices": "count",
}

FAILURE_COUNTS = ("raised", "criterion_failed", "reference_mismatch")

END_TO_END = (
    {"name": "verdict_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
)


def per_layer():
    """``(name, unit)`` of every metric a traced run reports."""
    rows = []
    for name in TRACED + BENCH_SPANS:
        rows += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    rows += list(SHAPE_COUNTS.items())
    rows += [(f"experiments.{name}", "count") for name in FAILURE_COUNTS]
    rows += [
        ("traced_verdict_s", "s"),
        ("trace_overhead_s", "s"),
        ("trace_unaccounted_s", "s"),
    ]
    return rows
