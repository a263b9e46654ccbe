"""Certification harness for the kernel family.

Each check returns a :class:`VerificationReport` whose ``passed`` flag is
exactly ``residual <= tolerance``.  The checks are independent routes to
the same objects: the defining integral equation in l = cosh s, the radial
and coordinate-space heat equations (with the generator shift fitted, not
assumed, by one fit that names the points where the kernel underflows),
the semigroup convolution, total-mass multiplicativity, the x-marginal
against the horicyclic z-line Gaussian, and the derivative algebra against
mpmath's own finite differences in l: one difference table (mpmath.diffs)
per (a, s) gives every order at once, at (prec+20)(n+2) bits, with each
order read from a stencil centred at most n 2^-(prec+10) below cosh s.
:data:`SUITES` is the battery that ``pseudoheat verify`` runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import gfunc
from .geometry import (
    HoricyclicPoint,
    _arccosh_from_excess,
    geodesic_distance,
    laplace_beltrami_combine,
    laplace_beltrami_stencil,
    sphere_surface_area,
)
from .kernels import EvalParams, kernel_row
from .quadrature import (
    TRUNCATION_SIGMA,
    QuadratureSpec,
    gaussian_cutoff,
    integrate_periodic,
    integrate_tanh_sinh,
)

__all__ = [
    "VerificationReport",
    "abel_residual",
    "radial_pde_residual",
    "horicyclic_pde_residual",
    "chapman_kolmogorov_many",
    "mass_multiplicativity",
    "x_marginal_check",
    "gfunc_reports",
    "richardson_dl_derivative",
    "SUITES",
    "suite_reports",
]

# kernel samples run at the rel_tol of the integral that consumes them over
# 100.  This is the spec of the samples of the 1e-9 integrals (abel, mass,
# x-marginal), of the pde stencils and of ck's targets and K2(0); ck's
# integrands derive theirs from the convolution's spec (_convolve_kernels)
SAMPLED_SPEC = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-18)
# the integrals of the abel, mass and x-marginal checks, whose abs_tol
# _kernel_integrals scales by each integral's target: abel and x-marginal
# pass their rhs, which exp(E) takes far below 1e-7 at high D or large
# tau, and mass passes 1, an absolute abs_tol.  x-marginal's floor sits 1e4
# below its 1e-5 tolerance: its odd-D kernel values carry SAMPLED_SPEC's
# absolute 1e-18, which a tighter floor cannot resolve where they are tiny
# (D = 5, tau 30)
_ABEL_SPEC = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-16)
_MASS_SPEC = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-20)
_X_MARGINAL_SPEC = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-9)


@dataclass(frozen=True)
class VerificationReport:
    check: str
    D: int
    residual: float
    tolerance: float
    passed: bool
    details: dict

    @classmethod
    def make(cls, check: str, D: int, residual: float, tolerance: float, details: dict):
        residual = float(residual)
        ok = bool(math.isfinite(residual) and residual <= tolerance)
        return cls(check, D, residual, float(tolerance), ok, details)

    def to_json_dict(self) -> dict:
        # shallow: json.dumps reads details as they are, and a deep copy
        # (dataclasses.asdict) of every point's record would print the same
        return dict(vars(self))


_L_GRID = (1.0, math.cosh(0.5), math.cosh(1.0), math.cosh(2.0), math.cosh(3.0))


# --- kernel-weighted integrals ----------------------------------------------

def _log_sinh(x: np.ndarray) -> np.ndarray:
    """log sinh x for x >= 0, finite where sinh x overflows binary64."""
    return x - math.log(2.0) + np.log(-np.expm1(-2.0 * x))


def _kernel_integrals(
    params: EvalParams,
    nodes: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    hi: Sequence[float],
    targets: Sequence[float],
    keys: Sequence,
    spec: QuadratureSpec,
    taus: np.ndarray | None = None,
) -> tuple[list, list, set[int], dict]:
    """Integral i over [0, hi[i]] of exp(log K(s) + log w), every i in one
    tanh-sinh call: nodes(t, at) gives s and log w at the nodes t of the
    integrals numbered at, and K is at params.tau, or at taus[i].  Where K
    is 0.0 the integrand is 0, also where the weight alone overflows.

    Integral i stops at max(spec.rel_tol |I_i|, spec.abs_tol |targets[i]|),
    and is not run where that abs_tol is 0.0.  A failed kernel sample is
    nan (``kernel_row``): it fails the integrals it enters, each with
    value nan and err_est inf, and no other.  An integral whose cutoff
    hi[i] is not finite fails the same way, unrun.
    Returns the values and err_est (None where not run), the integrals
    that failed or were not run, and a report's notes: the keys not run
    under ``underflowed``, and the err_est of each integral that failed
    under ``nonconverged``, keyed by ``f"{x:g}"`` of its key's entries.
    """
    hi = np.asarray(hi, dtype=float)
    abs_tol = spec.abs_tol * np.abs(np.asarray(targets, dtype=float))
    tried = np.flatnonzero(abs_tol)
    run = tried[np.isfinite(hi[tried])]
    value, err = [None] * len(keys), [None] * len(keys)
    for i in tried.tolist():  # the failed value, unless the integral runs
        value[i], err[i] = math.nan, math.inf

    def f(ts: np.ndarray, at: np.ndarray) -> np.ndarray:
        at = run[at]
        s, log_w = nodes(ts, at)
        k, _, _ = kernel_row(params, s, SAMPLED_SPEC, None if taus is None else taus[at])
        with np.errstate(divide="ignore", over="ignore"):  # log 0.0 is -inf, and exp of it 0
            return np.exp(np.log(k) + log_w)

    v, e, failed = integrate_tanh_sinh(f, 0.0, hi[run], spec, abs_tol[run])
    e[~np.isfinite(v)] = math.inf  # an overflowed sum, or a failed sample, has no estimate
    for i, x, y in zip(run.tolist(), v.tolist(), e.tolist()):
        value[i], err[i] = x, y
    failed = set(tried.tolist()).difference(run[~failed].tolist())
    notes = {}
    if tried.size < len(keys):
        notes["underflowed"] = [key for key, tol in zip(keys, abs_tol) if tol == 0.0]
    if failed:
        label = lambda key: ",".join(f"{x:g}" for x in (key if isinstance(key, tuple) else (key,)))
        notes["nonconverged"] = {label(keys[i]): err[i] for i in sorted(failed)}
    return value, err, failed.union(np.flatnonzero(abs_tol == 0.0).tolist()), notes


# --- integral equation ---------------------------------------------------

def _abel_rhs(params: EvalParams, l: float) -> float:
    a = params.a
    sl = math.acosh(l) if l > 1.0 else 0.0
    return (
        math.gamma((params.D - 2) / 2.0)
        * (0.5 / math.pi) ** ((params.D - 2) / 2.0)
        * math.sqrt(a / math.pi)
        * math.exp(-a * sl * sl + params.E)
    )


def abel_residual(
    params: EvalParams,
    l_grid: Sequence[float] = _L_GRID,
    tolerance: float | None = None,
) -> VerificationReport:
    """Residual of the defining integral equation on a grid of l >= 1.

    The lhs int_l^inf K(k) (k - l)^((D-4)/2) dk runs through k = cosh sigma,
    sigma = s_l + v^2: the half-power of k - l = 2 sinh((sigma+s_l)/2)
    sinh((sigma-s_l)/2) combines with the Jacobian 2 v dv into an even,
    regular integrand for every parity of D, including the
    inverse-square-root case D = 3.  Every l's integral is on one
    :func:`_kernel_integrals` call, its abs_tol scaled by its rhs."""
    if tolerance is None:
        tolerance = 1e-6 if params.D % 2 == 0 else 1e-5
    if any(l < 1.0 for l in l_grid):
        raise ValueError("l grid entries must be >= 1")
    nu = (params.D - 4) / 2.0
    sl = np.array([math.acosh(l) if l > 1.0 else 0.0 for l in l_grid])
    s_max = gaussian_cutoff(sl, params.a, linear_growth=0.5 * params.D)

    def nodes(vs: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v2, s_l = vs * vs, sl[at]  # v^2 = sigma - s_l, exactly: nodes crowd v = 0
        sigma = s_l + v2
        half_power = nu * (math.log(2.0) + _log_sinh(0.5 * (sigma + s_l)) + _log_sinh(0.5 * v2))
        return sigma, half_power + _log_sinh(sigma) + np.log(2.0 * vs)

    rhs = [_abel_rhs(params, l) for l in l_grid]
    lhs, err, failed, notes = _kernel_integrals(params, nodes, np.sqrt(s_max - sl), rhs, l_grid, _ABEL_SPEC)
    points = []
    for i, l in enumerate(l_grid):
        rel = math.inf if i in failed else abs(lhs[i] - rhs[i]) / abs(rhs[i])
        points.append(
            {"l": l, "s": math.acosh(l), "lhs": lhs[i], "rhs": rhs[i], "rel_residual": rel, "quad_err": err[i]}
        )
    details = {"tau": params.tau, "grid": f"l in {list(l_grid)}", "points": points, **notes}
    worst = max((p["rel_residual"] for p in points), default=0.0)
    return VerificationReport.make("abel", params.D, worst, tolerance, details)


# --- heat equation -------------------------------------------------------

def _d1(fp2: float, fp1: float, fm1: float, fm2: float, h: float) -> float:
    """First derivative from the values at x + 2h, x + h, x - h, x - 2h."""
    return (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * h)


def _d2(fp2: float, fp1: float, f0: float, fm1: float, fm2: float, h: float) -> float:
    """Second derivative from the values at x + 2h, x + h, x, x - h, x - 2h."""
    return (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h * h)


def _pde_steps(params: EvalParams, s: float, tau: float) -> tuple[float, float]:
    """The steps h_s and h_tau of the 4th-order stencils at (s, tau).

    Steps balance the h^4 truncation against the kernel's own noise floor
    (roundoff for the closed forms, the quadrature tolerance for the
    integral-backed odd dimensions): the optimum of h^4 r^6 / 90 + 5 n/h^2
    sits at r h = (480 n)^(1/6) with r the local log-derivative rate.
    """
    # realized kernel accuracy: roundoff for the closed forms, ~1e-13 for
    # the odd dimensions' Abel quadrature (requested 1e-11; its halving
    # estimate |I_h - I_2h| is conservative by a few orders)
    noise = 2.2e-16 if params.D % 2 == 0 else 1e-13
    rh = (480.0 * noise) ** (1.0 / 6.0)
    a = params.with_tau(tau).a
    # 6th-derivative scale in s: (2as)^6 far out, 15 (2a)^3 near the origin,
    # its sixth root formed so that no power of a overflows binary64
    rate_s = max(2.0 * a * s, 15.0 ** (1.0 / 6.0) * math.sqrt(2.0 * a)) + (params.D - 2)
    h_s = min(rh / rate_s, 0.2 * s)
    # 5th-derivative scale in tau: fifth power of the log-derivative plus
    # the factorial growth of the Gaussian argument and the tau-power prefactor
    big_a = a * s * s
    pref = 0.5 * (params.D - 1)
    shift = abs(params.with_tau(tau).E)
    # (|f5 / f|)^(1/5) = (x^5 + c)^(1/5) / tau, formed so that no power of x
    # or tau overflows or underflows binary64
    x, c = big_a + pref + shift, 120.0 * big_a + 24.0 * pref
    rate_t = x / tau * (1.0 + (c**0.2 / x) ** 5) ** 0.2
    h_t = min(rh / rate_t, 0.2 * tau)
    return h_s, h_t


def _stencil_rows(
    params: EvalParams, s: np.ndarray, tau: np.ndarray, h_t: np.ndarray, space: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[ArithmeticError]]:
    """The heat-equation stencils of every point (s, tau, h_tau, space row)
    in one kernel row: the kernel at each geodesic distance of space (an
    array of shape (points, m)) at tau, and at s on the 4th-order stencil
    in tau of step h_tau.  Returns the (points, m) values on space, the
    dK/dtau array and the row's failures (``kernel_row``).  A step of 0.0
    gives dK/dtau inf or nan, which fails the report it enters."""
    at_s = np.broadcast_to(s[:, None], (len(s), 4))
    at_tau = np.stack([tau + 2 * h_t, tau + h_t, tau - h_t, tau - 2 * h_t], axis=1)
    values, _, failures = kernel_row(
        params,
        np.concatenate([space, at_s], axis=1),
        SAMPLED_SPEC,
        np.concatenate([np.broadcast_to(tau[:, None], space.shape), at_tau], axis=1),
    )
    m = space.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        k_t = _d1(*values[:, m:].T, h_t)
    return values[:, :m], k_t, failures


def _fit_heat_equation(
    kappa: float, records: Sequence[dict], val: np.ndarray, k_t: np.ndarray, lap: np.ndarray, scale: np.ndarray
) -> tuple[float | None, float, list[dict]]:
    """Fit c in dK/dtau = kappa Lap K + c K at the first point whose K is not
    0.0, from the arrays K, dK/dtau, Lap K and scale over the points, and
    give each record its ``residual`` |dK/dtau - kappa Lap K - c K| / scale
    and its ``c_pointwise``.  Where K underflowed there is no scale to
    measure the equation against: residual inf, c None.  A residual that is
    not finite (a step of 0.0 gives one) is the worst.  Returns c (None if
    every K underflowed), the worst residual and the underflowed records.
    The caller runs it under its stencils' ``np.errstate``."""
    kept = val != 0.0
    c_point = (k_t - kappa * lap) / val
    c_fit = next((c for c, ok in zip(c_point.tolist(), kept.tolist()) if ok), None)
    # c_fit is None only where every residual is inf
    residual = abs(k_t - kappa * lap - (c_fit or 0.0) * val) / scale
    residual[~kept] = math.inf
    underflowed = [r for r, ok in zip(records, kept.tolist()) if not ok]
    for record, r, c, ok in zip(records, residual.tolist(), c_point.tolist(), kept.tolist()):
        record["residual"], record["c_pointwise"] = r, c if ok else None
    return c_fit, np.max(residual, initial=0.0).item(), underflowed


def radial_pde_residual(
    params: EvalParams,
    s_grid: Sequence[float] = (0.1, 0.5, 1.0, 2.0, 3.5, 5.0),
    tau_grid: Sequence[float] = (0.1, 0.5, 1.0, 2.0),
) -> VerificationReport:
    """dK/dtau = kappa [K_ss + (D-2) coth(s) K_s] + c K with c fitted once.

    K, dK/dtau and the radial Laplacian come from 4th-order stencils in s
    and in tau (steps from ``_pde_steps``) on one ``_stencil_rows`` row.
    c is fitted at the first grid point where K does not underflow and then
    held fixed; the report carries the fit and its spread, which double as
    a check that the generator shift is a constant.  The (s, tau) where K
    underflowed are listed under ``underflowed``.  A failed stencil sample
    fails the report, its located error under ``error``.
    """
    # the D = 4 closed form is the high-accuracy anchor; the higher even
    # orders accumulate a little more term cancellation at the corners
    tolerance = 1e-7 if params.D == 4 else (1e-6 if params.D % 2 == 0 else 1e-5)
    grid = [(s, tau) for tau in tau_grid for s in s_grid]
    points = [{"s": s, "tau": tau} for s, tau in grid]
    s, tau = np.array(grid).T
    h_s, h_t = np.array([_pde_steps(params, *p) for p in grid]).T
    space = np.stack([s + 2 * h_s, s + h_s, s, s - h_s, s - 2 * h_s], axis=1)
    values, k_t, failures = _stencil_rows(params, s, tau, h_t, space)
    if failures:
        details = {"grid": f"s in {list(s_grid)}, tau in {list(tau_grid)}", "error": str(failures[0])}
        return VerificationReport.make("pde-radial", params.D, math.inf, tolerance, details)
    kp2, kp1, val, km1, km2 = values.T
    kappa = params.kappa
    # coth by math.tanh, whose bits numpy's tanh does not always share
    tanh = np.array([math.tanh(x) for x, _ in grid])
    with np.errstate(divide="ignore", invalid="ignore"):
        k_s = _d1(kp2, kp1, km1, km2, h_s)
        k_ss = _d2(kp2, kp1, val, km1, km2, h_s)
        lap = k_ss + (params.D - 2) / tanh * k_s
        scale = np.maximum.reduce([
            abs(k_t), kappa * abs(k_ss), kappa * (params.D - 2) * abs(k_s / tanh), abs(val)
        ])
        c_fit, worst, underflowed = _fit_heat_equation(kappa, points, val, k_t, lap, scale)
    c_values = [p["c_pointwise"] for p in points if p["c_pointwise"] is not None]
    details = {
        "grid": f"s in {list(s_grid)}, tau in {list(tau_grid)}",
        "fitted_c": c_fit,
        "c_spread": max(c_values) - min(c_values) if c_values else None,
        "kappa": kappa,
        "points": points,
    }
    if underflowed:
        details["underflowed"] = [[p["s"], p["tau"]] for p in underflowed]
    return VerificationReport.make("pde-radial", params.D, worst, tolerance, details)


def horicyclic_pde_residual(
    params: EvalParams,
    pairs: Sequence[tuple[HoricyclicPoint, HoricyclicPoint]],
) -> VerificationReport:
    """Same heat equation, but with the Laplacian applied through the
    explicit half-space coordinate stencil instead of the radial reduction.

    Every pair's stencils, the Laplacian's around q2 at tau and the time
    derivative's at q2 (its step from ``_pde_steps``), are one
    ``_stencil_rows`` row; where a sample of it fails the report fails,
    the row's first failure under ``error``, as pde-radial's does."""
    tau = params.tau
    points = [{"s": geodesic_distance(q1, q2)} for q1, q2 in pairs]
    s = np.array([p["s"] for p in points])
    h_t = np.array([_pde_steps(params, p["s"], tau)[1] for p in points])
    # the Laplacian's step around q2, wider where the kernel is quadrature-backed (D = 3)
    hs = [(2e-3 if params.D == 3 else 1e-4) * max(1.0, q2.y) for _, q2 in pairs]
    space = np.array([
        [geodesic_distance(q1, q) for q in laplace_beltrami_stencil(q2, h)] for (q1, q2), h in zip(pairs, hs)
    ])
    values, k_t, failures = _stencil_rows(params, s, np.full(len(pairs), tau), h_t, space)
    if failures:
        details = {"tau": params.tau, "n_pairs": len(pairs), "error": str(failures[0])}
        return VerificationReport.make("pde-horicyclic", params.D, math.inf, 1e-4, details)
    val = values[:, 0]  # the kernel at q2
    with np.errstate(divide="ignore", invalid="ignore"):
        lap = np.array([laplace_beltrami_combine(row, q2, h) for row, (_, q2), h in zip(values, pairs, hs)])
        scale = np.maximum.reduce([abs(k_t), params.kappa * abs(lap), abs(val)])
        c_fit, worst, underflowed = _fit_heat_equation(params.kappa, points, val, k_t, lap, scale)
    details = {"tau": params.tau, "fitted_c": c_fit, "n_pairs": len(pairs), "points": points}
    if underflowed:
        details["underflowed"] = [p["s"] for p in underflowed]
    return VerificationReport.make("pde-horicyclic", params.D, worst, 1e-4, details)


# --- semigroup -----------------------------------------------------------

def _convolve_kernels(
    params1: EvalParams, params2: EvalParams, d: float, spec: QuadratureSpec, target: float, k2_peak: float
) -> tuple[float, float, bool]:
    """Geodesic polar convolution int K1(r) K2(rho(r, theta)) dV: value,
    err_est and failed.

    r runs on the tanh-sinh rule.  For each level of r nodes, theta runs on
    the plain trapezoid at odd D, where the integrand sin^(D-3) theta K2 is
    even and 2 pi periodic in theta, and on tanh-sinh at even D, every K2
    of a theta level in one ``kernel_row`` call.  Each theta integral
    stops at max(rel_tol |I|, rel_tol |target| / r_max), and the estimate
    adds r_max times the largest theta estimate to the r rule's own.  K2 is
    at most k2_peak, its value at 0, so a theta integral is at most pi
    k2_peak times the radial weight: where that is within the theta
    tolerance, the integral is 0 and the bound enters the estimate.
    Elsewhere K2 peaks at theta = 0 with a rate of at most a2 sinh r sinh d
    in theta^2, and the periodic rule starts from a step of at most twice
    that peak's width, so that its first |I_h - I_2h| cannot step over it.
    An r node where K1 is 0.0 adds nothing; the radial weight K1 sinh^(D-2)
    r is formed in logs.  An r node is nan where its K1 sample or its theta
    integral failed (a failed sample is nan), or where binary64 cannot hold
    the radial weight times cosh r cosh d: it fails the r rule, and the
    convolution fails with value nan and err_est inf.  So it does, unrun,
    where the cutoff r_max is not finite.
    """
    D = params1.D
    cd, sd = math.cosh(d), math.sinh(d)
    # K1(r) K2(rho) is below exp(-a1 r^2 - a2 (r - d)^2) (rho >= |r - d|)
    # times sinh^(D-2) r: past K1's own cutoff, cover that product's peak,
    # near r = d tau1 / (tau1 + tau2), where it is sharp (small tau)
    r_max = float(np.maximum(  # nan if either cutoff is
        gaussian_cutoff(0.0, params1.a, linear_growth=float(D - 2)),
        gaussian_cutoff(0.0, params1.a + params2.a, linear_growth=2.0 * params2.a * d + (D - 2)),
    ))
    if not math.isfinite(r_max):
        return math.nan, math.inf, True
    ang_front = 2.0 if D == 3 else sphere_surface_area(D - 3)
    theta_tol = spec.rel_tol * abs(target) / r_max or spec.abs_tol
    # the integrands' kernel samples, at the convolution's rel_tol / 100
    sample_spec = QuadratureSpec(spec.rel_tol * 1e-2, SAMPLED_SPEC.abs_tol)
    theta_err = 0.0  # the largest theta estimate so far

    def outer(rs: np.ndarray, at: np.ndarray) -> np.ndarray:
        nonlocal theta_err
        k1, _, _ = kernel_row(params1, rs, sample_spec)
        kept = np.flatnonzero(k1)  # a failed K1 is nan, and kept
        r = rs[kept]
        # the weight overflows, and sinh r times sinh 0 is inf * 0 past r ~ 710
        with np.errstate(over="ignore", invalid="ignore"):
            radial = ang_front * np.exp(np.log(k1[kept]) + (D - 2) * _log_sinh(r))
            cc, ss = np.cosh(r) * cd, np.sinh(r) * sd
            bound = math.pi * k2_peak * radial
            small = bound <= theta_tol  # False where K1 failed
            bad = ~small & ~np.isfinite(radial * cc)
        theta_err = max(theta_err, np.max(bound, initial=0.0, where=small))
        out = np.zeros(len(rs))
        out[kept[bad]] = math.nan
        kept, radial, cc, ss = (x[~(small | bad)] for x in (kept, radial, cc, ss))

        def theta_integrand(ths: np.ndarray, cols: np.ndarray) -> np.ndarray:
            # cosh rho at each (theta, r) node, by the hyperbolic law of cosines
            u = cc[cols] - np.cos(ths) * ss[cols]
            k2, _, _ = kernel_row(params2, np.arccosh(np.maximum(u, 1.0)), sample_spec)
            return k2 * np.sin(ths) ** (D - 3) * radial[cols]

        tol = np.full(len(kept), theta_tol)
        if D % 2:
            # a step pi / n of at most 2 / sqrt(a2 sinh r sinh d), n in 16 .. 1024
            intervals = 2.0 * np.clip(np.ceil(0.25 * math.pi * np.sqrt(params2.a * ss)), 8.0, 512.0)
            theta, err, failed = integrate_periodic(theta_integrand, 0.0, math.pi, spec, tol, intervals)
        else:
            theta, err, failed = integrate_tanh_sinh(theta_integrand, 0.0, math.pi, spec, tol)
        theta_err = max(theta_err, np.max(err, initial=0.0, where=~failed))
        theta[failed] = math.nan
        out[kept] = theta
        return out

    (value,), (err,), (failed,) = integrate_tanh_sinh(outer, 0.0, r_max, spec)
    value = float(value)
    err_est = float(err) + r_max * theta_err if math.isfinite(value) else math.inf
    return value, err_est, bool(failed)


def chapman_kolmogorov_many(
    params1: EvalParams,
    params2: EvalParams,
    d_values: Sequence[float],
    spec: QuadratureSpec | None = None,
    tolerance: float | None = None,
) -> list[VerificationReport]:
    """Semigroup check K_tau1 * K_tau2 = K_(tau1+tau2) at several separations.

    The convolution's abs_tol is relative to the target: at small tau the
    values (1e-107 at tau 1e-3, d = 1) sit far below any fixed one.  The
    targets and K2 at 0 are one kernel row, whose failure fails every report
    (``error``); a failed convolution fails its own (``nonconverged``)."""
    if (params1.D, params1.m, params1.hbar) != (params2.D, params2.m, params2.hbar):
        raise ValueError("factors must share dimension and units")
    D = params1.D
    if tolerance is None:
        tolerance = 1e-3 if D == 3 else 1e-4
    spec = spec or QuadratureSpec(rel_tol=1e-7, abs_tol=1e-30)
    taus = np.array([params1.tau + params2.tau] * len(d_values) + [params2.tau])
    values, _, failures = kernel_row(params1, [*d_values, 0.0], SAMPLED_SPEC, taus)
    if failures:  # no target or K2 to convolve: every d fails
        details = lambda d: {"tau1": params1.tau, "tau2": params2.tau, "d": d, "error": str(failures[0])}
        return [VerificationReport.make("ck", D, math.inf, tolerance, details(d)) for d in d_values]
    *targets, k2_peak = values.tolist()
    out = []
    for d, target in zip(d_values, targets):
        scaled = QuadratureSpec(spec.rel_tol, spec.abs_tol * abs(target) or spec.abs_tol)
        conv, err, failed = _convolve_kernels(params1, params2, d, scaled, target, k2_peak)
        rel = abs(conv - target) / abs(target) if target != 0.0 and not failed else math.inf
        notes = {"nonconverged": {f"{d:g}": err}} if failed else {}
        details = {
            "tau1": params1.tau,
            "tau2": params2.tau,
            "d": d,
            "convolution": conv,
            "target": target,
            "quad_err": err,
            **notes,
        }
        if target == 0.0:  # nothing to compare the convolution with
            details["underflowed"] = [d]
        out.append(VerificationReport.make("ck", D, rel, tolerance, details))
    return out


# --- normalization --------------------------------------------------------

def _masses(params: EvalParams, taus: Sequence[float]) -> tuple[list, list, set[int], dict]:
    """Omega_(D-2) int_0^inf K(s) sinh(s)^(D-2) ds at each tau of taus, on
    :func:`_kernel_integrals` at the absolute abs_tol of _MASS_SPEC.  Its
    weight in logs is 0 where K has underflowed to 0.0 and sinh^(D-2) s
    overflows binary64 (D >= 13)."""
    taus = np.array(taus, dtype=float)
    rates = np.array([params.with_tau(t).a for t in taus.tolist()])
    s_max = gaussian_cutoff(0.0, rates, linear_growth=float(params.D - 2))
    log_om = math.log(sphere_surface_area(params.D - 2))
    nodes = lambda ss, at: (ss, log_om + (params.D - 2) * _log_sinh(ss))
    return _kernel_integrals(params, nodes, s_max, [1.0] * len(taus), taus.tolist(), _MASS_SPEC, taus)


def mass_multiplicativity(
    params: EvalParams,
    tau_list: Sequence[float] = (0.25, 0.5, 1.0),
    tolerance: float = 1e-4,
) -> VerificationReport:
    """M(tau1 + tau2) = M(tau1) M(tau2) for all pairs from tau_list.

    Every distinct tau's mass runs in one quadrature call.  The report also
    carries every computed mass, its error estimate and the largest
    deviation of M(tau) from 1; the masses come out as exp(c tau) with c
    the same constant the heat-equation fit produces, so they equal 1 only
    when that constant vanishes.  The mass is manifestly independent of
    the fixed endpoint because the integrand depends on the distance alone.
    A mass whose quadrature does not converge keeps its last estimate, is
    listed with its error estimate under ``nonconverged``, and gives every
    pair it enters the residual inf.  So does a mass that underflows to
    0.0, listed under ``underflowed``; where the first tau's mass is 0.0,
    ``fitted_mass_rate`` is None.
    """
    pairs = [(t1, t2) for i, t1 in enumerate(tau_list) for t2 in tau_list[i:]]
    taus = sorted({*tau_list, *(t1 + t2 for t1, t2 in pairs)})
    value, err, failed, notes = _masses(params, taus)
    masses = dict(zip(taus, value))
    underflowed = [t for t in taus if masses[t] == 0.0]
    failed = {taus[i] for i in failed}.union(underflowed)

    worst = 0.0
    pair_records = []
    for t1, t2 in pairs:
        lhs = masses[t1 + t2]
        rhs = masses[t1] * masses[t2]
        rel = math.inf if failed & {t1, t2, t1 + t2} else abs(lhs - rhs) / abs(lhs)
        worst = max(worst, rel)
        pair_records.append({"tau1": t1, "tau2": t2, "rel_residual": rel})
    unit_dev = max(abs(masses[t] - 1.0) for t in tau_list)
    growth = math.log(masses[tau_list[0]]) / tau_list[0] if masses[tau_list[0]] != 0.0 else None
    details = {
        "masses": {f"{t:g}": m for t, m in masses.items()},
        "quad_err": {f"{t:g}": e for t, e in zip(taus, err)},
        "pairs": pair_records,
        "unit_mass_max_dev": unit_dev,
        "fitted_mass_rate": growth,
        **notes,
    }
    if underflowed:
        details["underflowed"] = underflowed
    return VerificationReport.make("mass", params.D, worst, tolerance, details)


# --- flat-offset marginal ---------------------------------------------------

def x_marginal_check(params: EvalParams, y1: float, y2: float) -> VerificationReport:
    """Marginal of the kernel over the flat offset against the z-line form.

    Integrating the closed-form kernel over the x-offset (radially, through
    k(R) = (R^2 + (y2-y1)^2)/(2 y1 y2) + 1) must reproduce
    (y1 y2)^((D-2)/2) times the free one-dimensional Gaussian in z = ln y
    with the constant shift E.  The integral runs on
    :func:`_kernel_integrals`, its abs_tol scaled by that reference, or
    fails where the cutoff's cosh overflows (tau ~ 6000 at D = 3).
    """
    a = params.a
    y1y2 = y1 * y2
    u0 = (y2 - y1) ** 2 / (2.0 * y1y2)
    s_max = gaussian_cutoff(_arccosh_from_excess(u0), a, TRUNCATION_SIGMA + 1.0)
    # R = sqrt(2 y1 y2) sinh v, so that k(R) - 1 = u0 + sinh^2 v: the arc
    # s grows like 2 v, and the kernel's support is not a sliver of the
    # range, which R would stretch exponentially.  The weight is R^(D-3)
    # dR/dv, and the solid angle Omega_(D-3) (2 at D = 3) multiplies the
    # integral
    power = params.D - 3
    front = 2.0 if params.D == 3 else sphere_surface_area(power)
    log_r = 0.5 * math.log(2.0 * y1y2)
    try:
        v_max = math.asinh(math.sqrt(2.0) * math.sinh(0.5 * s_max))  # sinh^2 v = cosh s_max - 1
    except OverflowError:  # the cutoff and the nodes would need logs
        error = f"binary64 overflow (cosh of the cutoff s={float(s_max)!r}) at D={params.D}, tau={params.tau!r}"
        return VerificationReport.make("x-marginal", params.D, math.inf, 1e-5, {"tau": params.tau, "error": error})

    def nodes(vs: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sh = np.sinh(vs)
        return _arccosh_from_excess(u0 + sh * sh), power * (log_r + np.log(sh)) + log_r + np.log(np.cosh(vs))

    rhs = (
        y1y2 ** ((params.D - 2) / 2.0)
        * math.sqrt(a / math.pi)
        * math.exp(-a * math.log(y2 / y1) ** 2 + params.E)
    )
    (value,), (err,), failed, notes = _kernel_integrals(params, nodes, [v_max], [rhs], [(y1, y2)], _X_MARGINAL_SPEC)
    lhs = None if value is None else front * value
    rel = math.inf if failed else abs(lhs - rhs) / abs(rhs)
    details = {"tau": params.tau, "y1": y1, "y2": y2, "lhs": lhs, "rhs": rhs, "quad_err": err, **notes}
    return VerificationReport.make("x-marginal", params.D, rel, 1e-5, details)


# --- derivative oracle ----------------------------------------------------

def _fd_derivatives(a: float, E: float, n: int, s: float) -> list[float]:
    """Orders 0..n in l of the base Gaussian G(l) = sqrt(a/pi)
    exp(-a arccosh(l)^2 + E) at l = cosh s, from one mpmath difference
    table (mpmath.diffs) on the closed form in l, independently of the
    term algebra and of the l-series.  arccosh(l)^2 is -acos(l)^2 below
    l = 1, where the stencil at s = 0 reaches.

    The table is G(cosh s), then one central stencil of n + 2 points with
    step h = 2^-(prec+10), taken at (prec+20)(n+2) bits, which leaves no
    truncation error.  Order k >= 1 reads its first k + 1 points, a
    stencil centred (n + 1 - k) h below cosh s: at the suite's n <= 5 an
    offset under 2^-(prec+7) in l, which moves G^(k) by that offset times
    |G^(k+1) / G^(k)|, far below binary64.  The step is absolute, so the
    difference at l = cosh s cancels n log10(cosh s) more digits than at
    l = 1, which are added to the 30.  Thirty digits are enough: with the
    (prec+20)(n+2) working bits and the 2^-(prec+10) step, each order
    keeps about prec bits, 30 digits against binary64's 17, so about 13
    guard digits remain before the rounding to a float.
    """
    # imported here, not at module level: only this oracle uses mpmath, and
    # the CLI's other jobs should not pay for loading it
    import mpmath

    with mpmath.workdps(30 + math.ceil(n * math.log10(math.cosh(s)))):
        am, Em = mpmath.mpf(a), mpmath.mpf(E)

        def G(l):
            sq = mpmath.acosh(l) ** 2 if l >= 1 else -mpmath.acos(l) ** 2
            return mpmath.sqrt(am / mpmath.pi) * mpmath.exp(-am * sq + Em)

        return [float(d) for d in mpmath.diffs(G, mpmath.cosh(mpmath.mpf(s)), n)]


def richardson_dl_derivative(a: float, E: float, n: int, s: float) -> float:
    """n-th derivative in l of the base Gaussian at l = cosh s: the last
    order of :func:`_fd_derivatives`' table, so the suite and its callers
    share one oracle.  The name is kept from the Richardson extrapolation
    this replaced, because the tests import it.
    """
    return _fd_derivatives(a, E, n, s)[n]


# s where gfunc_reports compares the term route with the l-series (their
# overlap) and with the finite-difference oracle
_S_OVERLAP = (0.25, 0.4, 0.6, 0.8)
_S_ORACLE = (0.1, 0.5, 1.0, 2.5, 5.0)


def gfunc_reports(
    a_values: Sequence[float] = (0.125, 0.25, 1.0), n_max: int = 5
) -> list[VerificationReport]:
    """Two self-consistency reports for the derivative algebra.

    The first compares the term route against the l-series route on their
    overlap; the second compares the term route against the
    finite-difference oracle in l.
    """
    overlap_pts, oracle_pts = [], []
    overlap, oracle = np.array(_S_OVERLAP), np.array(_S_ORACLE)
    # every entry at the expression's one rate
    at_overlap, at_oracle = np.zeros(len(overlap), dtype=np.intp), np.zeros(len(oracle), dtype=np.intp)
    for a in a_values:
        # one difference table per s serves every order n <= n_max
        tables = [_fd_derivatives(a, 0.0, n_max, s) for s in _S_ORACLE]
        for n in range(n_max + 1):
            g = gfunc.expression(n, a, 0.0)
            terms, series = gfunc._terms(g, overlap, at_overlap), gfunc._series_many(g, overlap, at_overlap)
            for s, t, srs in zip(_S_OVERLAP, terms.tolist(), series.tolist()):
                overlap_pts.append({"a": a, "n": n, "s": s, "rel": abs(t - srs) / abs(t)})
            for s, t, table in zip(_S_ORACLE, gfunc._terms(g, oracle, at_oracle).tolist(), tables):
                ref = table[n]
                oracle_pts.append({"a": a, "n": n, "s": s, "rel": abs(t - ref) / abs(ref)})
    return [
        VerificationReport.make(
            "gfunc-overlap", 0, max(p["rel"] for p in overlap_pts), 1e-9, {"points": overlap_pts}
        ),
        VerificationReport.make(
            "gfunc-fd-oracle", 0, max(p["rel"] for p in oracle_pts), 1e-6, {"points": oracle_pts}
        ),
    ]


# --- the battery ----------------------------------------------------------

# the point pairs of pde-horicyclic, the separations of ck (each factor at
# tau/2) and the heights of x-marginal (offset at D = 3, equal above)
def _horicyclic_pairs(D: int) -> list[tuple[HoricyclicPoint, HoricyclicPoint]]:
    flat = D - 2
    return [
        (HoricyclicPoint(1.0, (0.0,) * flat), HoricyclicPoint(2.0, (1.0,) * flat)),
        (HoricyclicPoint(0.8, (0.5,) * flat), HoricyclicPoint(1.4, (-0.3,) * flat)),
    ]


_CK_SEPARATIONS = (0.0, 1.0, 2.0)


def _ck_reports(params: EvalParams) -> list[VerificationReport]:
    half = params.with_tau(params.tau / 2.0)
    return chapman_kolmogorov_many(half, half, _CK_SEPARATIONS)


# suite name -> its reports at one EvalParams, in the order ``all`` runs
# them.  gfunc does not depend on D: it runs once, with no argument.  Each
# build looks its check up when it runs, so a wrapper set on this module's
# attribute sees the call.
SUITES: dict[str, Callable[..., list[VerificationReport]]] = {
    "abel": lambda p: [abel_residual(p)],
    "pde-radial": lambda p: [radial_pde_residual(p)],
    "pde-horicyclic": lambda p: [horicyclic_pde_residual(p, _horicyclic_pairs(p.D))],
    "ck": _ck_reports,
    "mass": lambda p: [mass_multiplicativity(p)],
    "x-marginal": lambda p: [x_marginal_check(p, 1.0, math.e if p.D == 3 else 1.0)],
    "gfunc": lambda: gfunc_reports(),
}


def suite_reports(
    suite: str, dims: Sequence[int], tau: float, m: float = 0.5, hbar: float = 1.0
) -> list[VerificationReport]:
    """Reports of one suite of :data:`SUITES`, or of every suite for
    ``"all"``, suite by suite and, within a suite, in the order of ``dims``.
    An unknown suite, or a D or unit that ``EvalParams`` rejects (gfunc's
    too, which reads neither), raises ``ValueError`` before any suite runs."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join((*SUITES, 'all'))}")
    params = [EvalParams(d, tau, m, hbar) for d in dims]
    reports = []
    for name, build in SUITES.items():
        if suite not in (name, "all"):
            continue
        if name == "gfunc":
            reports.extend(build())
        else:
            for p in params:
                reports.extend(build(p))
    return reports
