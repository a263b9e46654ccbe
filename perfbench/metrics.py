"""Metric names, units, and the per-layer metrics computed from a trace.

End-to-end metrics come only from untraced runs; every workload reports
every one of them:

* ``setup_s`` -- ``import pseudoheat`` plus the first kernel values at
  each D the workload uses (s = 0.05 on the l-series route, which builds
  the exact Fraction series, and s = 0.5 on the term route), in a fresh
  interpreter, scaled to a reference host speed.  Twelve samples are
  spread over the run, and each also times the import of mpmath and
  numpy alone in another fresh interpreter.  With medians over the
  samples, setup_s = run.IMPORT_REF_S + (import - mpmath/numpy import +
  first calls) * run.CAL_REF_S / (calibration loop in the set-up
  interpreters): the third-party imports count at a fixed reference cost,
  and everything the program adds to them is scaled by the loop.  On the
  host this was built on, raw set-up moved by up to 35% between sets of
  runs minutes apart, and import and compute speed moved apart (see
  BASELINE.md).  The raw parts are stored with each result under ``raw``.
* ``round_cost`` -- median over rounds of the round's wall time in
  calibration units ("cal"): each job's wall time is divided by the mean
  of two runs of a fixed calibration loop (calibration.calibrate) timed
  just before and just after the job, and a round's cost is the sum over
  its jobs.  The host this was built on, a 2-vCPU virtual machine,
  switches between fast and slow spells lasting seconds to minutes,
  20-40% apart, and one interpreter process can run Python code up to 30%
  faster than the next; together these moved the raw per-run medians by
  up to 50% between runs of one seed.  Interpreter-bound code slowed
  together, so the ratio to an interleaved calibration stayed within a
  few percent (see BASELINE.md).  The oracle jobs are numpy-bound and do
  not follow that loop (run.NUMPY_BOUND), so there the calibration is a
  numpy loop shaped like their Monte Carlo blocks
  (calibration.calibrate_numpy, a median of five runs).  Lower is better; a
  change that makes the program faster lowers it in proportion.
* ``peak_rss_mb`` -- peak resident set of the benchmark process, which
  runs the jobs in-process, so caches and precomputed tables show.

What a round and its work are, per workload (the raw wall-clock figures
the issue names -- points/s, certification seconds, Monte Carlo samples/s
-- are printed and stored with each result as ``raw``):

=============  ==============================  ==========================
workload       round                           raw work per second
=============  ==============================  ==========================
table_odd      4 table jobs, 96 cells          table cells (points/s)
table_even     12 table jobs, 360 cells        table cells (points/s)
certify        8 verify jobs, 22 reports       reports; the raw round
                                               time is the certification
                                               wall time
oracle         2 oracle jobs, 4 slice counts   Monte Carlo samples
=============  ==============================  ==========================

Failures are not a metric (a ratio that is 0 at every healthy commit has
no median to bound); they are the ``attempted``/``failed`` fields of the
result line, and ``correct`` is false when any item failed.

Per-layer metrics and the end-to-end metric each should move (the
prediction a performance change cites):

* ``cli.self_s`` -- time in ``cli.main`` outside kernel, verify, lattice and
  geometry spans (parsing, thread-pool hand-off, CSV/JSON formatting).
  Moves ``round_cost`` on table_even first, then table_odd.
* ``cli.serial_points_per_s``, ``cli.pool_points_per_s`` -- the same table
  jobs at ``--threads 1`` and at the CLI's default thread count, untraced.
  Show whether the pool earns its keep; the serial rate moves
  ``round_cost`` on both tables, which run serially (see workloads.py,
  "Threads").  0 on workloads without tables.
* ``cli.pool_mismatched_cells`` -- table cells that the pass at the CLI's
  default thread count prints differently from the serial traced pass.
  Not a failed item, because the workload's jobs run serially; it counts
  the program's two-thread defect (BASELINE.md, "Defects and surprises
  found") and should be 0 once worker threads no longer share mpmath's
  working precision.  0 on workloads without tables.
* ``kernels.calls`` -- calls to ``kernel()``; base of the ratios below and
  the sample count of the latency percentiles.
* ``kernels.self_s`` -- ``kernel()`` time minus its quadrature and gfunc
  children.  Moves ``round_cost`` on table_even.
* ``kernels.call_p50_us``, ``kernels.call_p99_us`` -- per-call latency.
  Move ``round_cost`` on both tables.
* ``kernels.ref_max_rel_err`` -- largest relative error of the sampled
  table cells against the mpmath reference.  A faster kernel must not
  raise it past the tolerance in workloads.REF_REL_TOL.
* ``quadrature.calls`` -- calls to integrate_finite, integrate_semi_infinite
  and integrate_endpoint_singular (nested calls count too).
* ``quadrature.integrand_evals`` -- evaluations of integrands handed to
  integrate_finite.  Moves ``round_cost`` on table_odd and on certify;
  zero on table_even and almost zero on oracle (one D = 3 kernel value
  per job).  The Gauss-Kronrod 21 switch of ROADMAP item 3 should cut it
  by about a third.
* ``quadrature.evals_per_kernel_call`` -- integrand_evals / kernels.calls.
  Moves ``round_cost`` on table_odd.
* ``quadrature.self_s`` -- quadrature time outside integrands (heap, rule
  sums).  Moves ``round_cost`` on table_odd and on certify.
* ``quadrature.nonconverged`` -- NonConvergenceError raised by
  integrate_finite.  Shows up as failed items.
* ``gfunc.route_series``, ``gfunc.route_terms_f64``, ``gfunc.route_terms_mp``
  -- evaluations per route.  route_terms_f64 drives table_odd;
  route_terms_mp drives the slow cells of table_even.  -1 when the route
  function no longer exists (ROADMAP item 2 collapses the routes).
* ``gfunc.self_s``, ``gfunc.mp_s`` -- time in gfunc evaluation, and in its
  mpmath part.  Move ``round_cost`` on both tables and on certify.
* ``gfunc.algebra_builds``, ``gfunc.algebra_s`` -- calls to, and time in,
  expression, sigma_derivative, derivative_terms and _h_series.
  sigma_derivative is rebuilt in Fraction on every odd-D call.  Move
  ``setup_s`` on all workloads and ``round_cost`` on table_odd.
* ``gfunc.series_cache_hit_ratio`` with base ``gfunc.series_cache_lookups``
  -- _h_series cache hits / lookups.  Contrasts the tables (few taus) with
  certify (many taus).
* ``verify.<check>.s``, ``verify.<check>.kernel_calls`` -- per check;
  _RadialTable's kernel calls count under ck.  Move ``round_cost`` on
  certify only.
* ``lattice.calls``, ``lattice.samples_per_s``,
  ``lattice.serial_samples_per_s`` -- lattice_kernel at the CLI's default
  thread count, and at ``--threads 1``.  The serial rate moves
  ``round_cost`` on oracle only, which runs serially.
* ``geometry.calls``, ``geometry.self_s`` -- geodesic_distance,
  laplace_beltrami_apply and the other geometry helpers.  Move ``round_cost``
  on certify (pde-horicyclic).
* ``trace.overhead_s`` -- traced minus untraced wall time of the same jobs.
  Moves nothing; it bounds what the trace can resolve.  The untraced pass
  runs second, so it also gains any cache the traced pass filled.
"""

from __future__ import annotations

from perfbench.tracer import self_times

END_TO_END = {
    "setup_s": "s",
    "round_cost": "cal",
    "peak_rss_mb": "MiB",
}

VERIFY_CHECKS = {
    "abel_residual": "abel",
    "radial_pde_residual": "pde_radial",
    "horicyclic_pde_residual": "pde_horicyclic",
    "chapman_kolmogorov_many": "ck",
    "mass_multiplicativity": "mass",
    "gfunc_reports": "gfunc",
}

QUADRATURE_NAMES = ("integrate_finite", "integrate_semi_infinite", "integrate_endpoint_singular")
GEOMETRY_NAMES = (
    "geodesic_distance", "distance_excess", "laplace_beltrami_apply", "sphere_surface_area",
    "to_hyperboloid", "from_hyperboloid", "normalize_pair", "log_height", "minkowski_dot",
)
ALGEBRA_NAMES = ("expression", "sigma_derivative", "derivative_terms", "_h_series")

# name -> (unit, better)
PER_LAYER = {
    "cli.self_s": ("s", "lower"),
    "cli.serial_points_per_s": ("1/s", "higher"),
    "cli.pool_points_per_s": ("1/s", "higher"),
    "cli.pool_mismatched_cells": ("count", "lower"),
    "kernels.calls": ("count", "lower"),
    "kernels.self_s": ("s", "lower"),
    "kernels.call_p50_us": ("us", "lower"),
    "kernels.call_p99_us": ("us", "lower"),
    "kernels.ref_max_rel_err": ("ratio", "lower"),
    "quadrature.calls": ("count", "lower"),
    "quadrature.integrand_evals": ("count", "lower"),
    "quadrature.evals_per_kernel_call": ("ratio", "lower"),
    "quadrature.self_s": ("s", "lower"),
    "quadrature.nonconverged": ("count", "lower"),
    "gfunc.route_series": ("count", "lower"),
    "gfunc.route_terms_f64": ("count", "lower"),
    "gfunc.route_terms_mp": ("count", "lower"),
    "gfunc.self_s": ("s", "lower"),
    "gfunc.mp_s": ("s", "lower"),
    "gfunc.algebra_builds": ("count", "lower"),
    "gfunc.algebra_s": ("s", "lower"),
    "gfunc.series_cache_hit_ratio": ("ratio", "higher"),
    "gfunc.series_cache_lookups": ("count", "lower"),
    **{f"verify.{c}.s": ("s", "lower") for c in VERIFY_CHECKS.values()},
    **{f"verify.{c}.kernel_calls": ("count", "lower") for c in VERIFY_CHECKS.values()},
    "lattice.calls": ("count", "lower"),
    "lattice.samples_per_s": ("1/s", "higher"),
    "lattice.serial_samples_per_s": ("1/s", "higher"),
    "geometry.calls": ("count", "lower"),
    "geometry.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

ABSENT = -1  # value of a metric whose traced function no longer exists


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer metrics from one traced pass (without the cli/lattice rates,
    the cache ratio and trace overhead, which the caller measures)."""
    spans = tracer.spans
    own = self_times(spans)
    counts = tracer.counts()
    name_time = tracer.name_time()
    group_time = tracer.group_time()
    absent = {a.rsplit(".", 1)[1] for a in tracer.absent}

    kernel_idx = [i for i, sp in enumerate(spans) if sp.name == "kernel"]
    quad_idx = [i for i, sp in enumerate(spans) if sp.name in QUADRATURE_NAMES]
    geo_idx = [i for i, sp in enumerate(spans) if sp.name in GEOMETRY_NAMES]
    evals = sum(spans[i].evals for i in quad_idx)
    durations_us = [(spans[i].end - spans[i].start) * 1e6 for i in kernel_idx]

    # nearest verify ancestor of each span, resolved parent-first
    check_of: list[str | None] = []
    for sp in spans:
        if sp.name in VERIFY_CHECKS:
            check_of.append(VERIFY_CHECKS[sp.name])
        elif sp.parent is not None:
            check_of.append(check_of[sp.parent])
        else:
            check_of.append(None)

    out = {
        "cli.self_s": sum(own[i] for i, sp in enumerate(spans) if sp.name == "cli.main"),
        "kernels.calls": len(kernel_idx),
        "kernels.self_s": sum(own[i] for i in kernel_idx),
        "kernels.call_p50_us": percentile(durations_us, 50),
        "kernels.call_p99_us": percentile(durations_us, 99),
        "quadrature.calls": len(quad_idx),
        "quadrature.integrand_evals": evals,
        "quadrature.evals_per_kernel_call": evals / len(kernel_idx) if kernel_idx else 0.0,
        "quadrature.self_s": sum(own[i] for i in quad_idx),
        "quadrature.nonconverged": sum(
            1 for i in quad_idx if spans[i].failed and spans[i].name == "integrate_finite"
        ),
        "gfunc.self_s": group_time.get("eval", 0.0),
        "gfunc.mp_s": name_time.get("_evaluate_terms_mp", 0.0),
        "gfunc.algebra_builds": sum(counts.get(n, 0) for n in ALGEBRA_NAMES),
        "gfunc.algebra_s": group_time.get("algebra", 0.0),
        "lattice.calls": sum(1 for sp in spans if sp.name == "lattice_kernel"),
        "geometry.calls": len(geo_idx),
        "geometry.self_s": sum(own[i] for i in geo_idx),
    }
    mp = counts.get("_evaluate_terms_mp", 0)
    out["gfunc.route_series"] = ABSENT if "_series_value" in absent else counts.get("_series_value", 0)
    out["gfunc.route_terms_mp"] = ABSENT if "_evaluate_terms_mp" in absent else mp
    out["gfunc.route_terms_f64"] = (
        ABSENT if "_evaluate_terms" in absent else counts.get("_evaluate_terms", 0) - mp
    )
    for fn, check in VERIFY_CHECKS.items():
        out[f"verify.{check}.s"] = sum(sp.end - sp.start for sp in spans if sp.name == fn)
        out[f"verify.{check}.kernel_calls"] = sum(1 for i in kernel_idx if check_of[i] == check)
    for fn, check in VERIFY_CHECKS.items():
        if fn in absent:
            out[f"verify.{check}.s"] = out[f"verify.{check}.kernel_calls"] = ABSENT
    return out
