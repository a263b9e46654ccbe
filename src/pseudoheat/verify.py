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
import sys
from dataclasses import dataclass
from itertools import islice
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
from .kernels import EvalParams, kernel_array
from .quadrature import (
    TRUNCATION_SIGMA,
    NonConvergenceError,
    QuadratureSpec,
    gaussian_cutoff,
    integrate_one,
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

# dimensions each check covers: the desk-scale checks' guards and SUITES read them
EVERY_D = range(3, sys.maxsize)
HORICYCLIC_DIMS = range(3, 5)
CK_DIMS = range(3, 6)
MASS_DIMS = range(3, 7)
X_MARGINAL_DIMS = range(3, 7)

# the integrals of the abel, mass and x-marginal checks; the abel and
# x-marginal checks scale abs_tol by their rhs, which exp(E) takes far below
# 1e-7 at high D or large tau.  x-marginal's floor sits 1e4 below its 1e-5
# tolerance: its odd-D kernel values carry SAMPLED_SPEC's absolute 1e-18,
# which a tighter floor cannot resolve where they are tiny (D = 5, tau 30)
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


def _require_dim(D: int, dims: range, what: str) -> None:
    if D not in dims:
        raise ValueError(f"{what} are kept desk-scale: D in {dims.start}..{dims[-1]}")


_L_GRID = (1.0, math.cosh(0.5), math.cosh(1.0), math.cosh(2.0), math.cosh(3.0))


# --- integral equation ---------------------------------------------------

def _abel_lhs(params: EvalParams, ls: Sequence[float], abs_tol: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """int_l^inf K(k) (k - l)^((D-4)/2) dk through k = cosh sigma, sigma =
    s_l + v^2, for every l of ls (each with its abs_tol) in one call.

    The half-power of k - l = 2 sinh((sigma+s_l)/2) sinh((sigma-s_l)/2)
    combines with the Jacobian 2 v dv into an even, regular integrand for
    every parity of D, including the inverse-square-root case D = 3.
    """
    a = params.a
    nu = (params.D - 4) / 2.0
    sl = np.array([math.acosh(l) if l > 1.0 else 0.0 for l in ls])
    s_max = gaussian_cutoff(sl, a, linear_growth=0.5 * params.D)
    v_max = np.sqrt(s_max - sl)

    def integrand(vs: np.ndarray, at: np.ndarray) -> np.ndarray:
        v2 = vs * vs  # sigma - s_l, exactly: nodes crowd v = 0
        sl_node = sl[at]
        sigs = sl_node + v2
        kvs = kernel_array(params, sigs)
        dropped = (kvs == 0.0) | (v2 == 0.0)  # the integrand is 0 there
        # v = 0 gives 0 ** nu; far out, where K is 0, the power overflows
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            wfac = (2.0 * np.sinh(0.5 * (sigs + sl_node)) * np.sinh(0.5 * v2)) ** nu
        overflowed = np.isinf(wfac) & ~dropped
        if np.count_nonzero(overflowed):
            i = np.flatnonzero(overflowed)[np.argmin(sigs[overflowed])]
            at_point = f"D={params.D}, tau={params.tau!r}, l={ls[at[i]]!r}, sigma={float(sigs[i])!r}"
            raise OverflowError(f"binary64 overflow ((k - l)^{nu!r} at {at_point})")
        with np.errstate(invalid="ignore"):  # inf weights where K is 0
            out = kvs * wfac * np.sinh(sigs) * 2.0 * vs
        return np.where(dropped, 0.0, out)

    return integrate_tanh_sinh(integrand, 0.0, v_max, _ABEL_SPEC, abs_tol)


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

    Every l's integral runs in one quadrature call, with its abs_tol scaled
    by its rhs.  A kernel failure inside the call fails every point."""
    if tolerance is None:
        tolerance = 1e-6 if params.D % 2 == 0 else 1e-5
    if any(l < 1.0 for l in l_grid):
        raise ValueError("l grid entries must be >= 1")
    rhs = [_abel_rhs(params, l) for l in l_grid]
    abs_tol = np.array([_ABEL_SPEC.abs_tol * abs(r) for r in rhs])
    # an rhs of 0.0, or too small to scale the tolerance by, is not integrated
    run = np.flatnonzero(abs_tol).tolist()
    lhs, err, failed = {}, {}, set()
    if run:
        try:
            value, est, failures = _abel_lhs(params, [l_grid[i] for i in run], abs_tol[run])
            value, est, failed = value.tolist(), est.tolist(), {run[k] for k in failures}
        except NonConvergenceError as exc:
            value, est, failed = [exc.value] * len(run), [exc.err_est] * len(run), set(run)
        lhs, err = dict(zip(run, value)), dict(zip(run, est))
    points = []
    worst = 0.0
    for i, l in enumerate(l_grid):
        rel = abs(lhs[i] - rhs[i]) / abs(rhs[i]) if i in lhs and i not in failed else math.inf
        worst = max(worst, rel)
        points.append(
            {"l": l, "s": math.acosh(l), "lhs": lhs.get(i), "rhs": rhs[i], "rel_residual": rel, "quad_err": err.get(i)}
        )
    details = {"tau": params.tau, "grid": f"l in {list(l_grid)}", "points": points}
    underflowed = [l for l, tol in zip(l_grid, abs_tol) if tol == 0.0]
    if underflowed:
        details["underflowed"] = underflowed
    return VerificationReport.make("abel", params.D, worst, tolerance, details)


# --- heat equation -------------------------------------------------------

def _d1(fp2: float, fp1: float, fm1: float, fm2: float, h: float) -> float:
    """First derivative from the values at x + 2h, x + h, x - h, x - 2h."""
    return (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * h)


def _d2(fp2: float, fp1: float, f0: float, fm1: float, fm2: float, h: float) -> float:
    """Second derivative from the values at x + 2h, x + h, x, x - h, x - 2h."""
    return (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h * h)


def _tau_stencil(tau: float, h: float) -> list[float]:
    """The tau at which _d1 takes its values: tau + 2h, tau + h, tau - h, tau - 2h."""
    return [tau + 2 * h, tau + h, tau - h, tau - 2 * h]


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
    # 6th-derivative scale in s: (2as)^6 far out, 15 (2a)^3 near the origin
    rate_s = max(2.0 * a * s, (15.0 * (2.0 * a) ** 3) ** (1.0 / 6.0)) + (params.D - 2)
    h_s = min(rh / rate_s, 0.2 * s)
    # 5th-derivative scale in tau: fifth power of the log-derivative plus
    # the factorial growth of the Gaussian argument and the tau-power prefactor
    big_a = a * s * s
    pref = 0.5 * (params.D - 1)
    shift = abs(params.with_tau(tau).E)
    f5_over_f = ((big_a + pref + shift) ** 5 + 120.0 * big_a + 24.0 * pref) / tau**5
    h_t = min(rh / f5_over_f**0.2, 0.2 * tau)
    return h_s, h_t


def _pde_pieces(
    params: EvalParams, points: Sequence[tuple[float, float]]
) -> list[tuple[float, float, float, float]]:
    """(K, dK/dtau, radial Laplacian of K, scale) at each (s, tau) of points,
    by 4th-order stencils in s and in tau (steps from ``_pde_steps``), every
    stencil point of every point in one kernel row."""
    steps = [_pde_steps(params, s, tau) for s, tau in points]
    ss, taus = [], []
    for (s, tau), (h_s, h_t) in zip(points, steps):
        ss += [s + 2 * h_s, s + h_s, s, s - h_s, s - 2 * h_s] + [s] * 4
        taus += [tau] * 5 + _tau_stencil(tau, h_t)
    values = kernel_array(params, np.array(ss), np.array(taus)).reshape(-1, 9).tolist()
    kappa = params.kappa
    out = []
    for (s, tau), (h_s, h_t), (kp2, kp1, val, km1, km2, *at_taus) in zip(points, steps, values):
        k_t = _d1(*at_taus, h_t)
        k_s = _d1(kp2, kp1, km1, km2, h_s)
        k_ss = _d2(kp2, kp1, val, km1, km2, h_s)
        lap = k_ss + (params.D - 2) / math.tanh(s) * k_s
        scale = max(abs(k_t), kappa * abs(k_ss), kappa * (params.D - 2) * abs(k_s / math.tanh(s)), abs(val))
        out.append((val, k_t, lap, scale))
    return out


def _fit_heat_equation(
    kappa: float, records: Sequence[dict], pieces: Sequence[tuple[float, float, float, float]]
) -> tuple[float | None, float, list[dict]]:
    """Fit c in dK/dtau = kappa Lap K + c K at the first point whose K is not
    0.0, from each point's pieces (K, dK/dtau, Lap K, scale), and give each
    record its ``residual`` |dK/dtau - kappa Lap K - c K| / scale and its
    ``c_pointwise``.  Where K underflowed there is no scale to measure the
    equation against: residual inf, c None.  Returns c (None if every K
    underflowed), the worst residual and the underflowed records."""
    c_fit = next(((k_t - kappa * lap) / val for val, k_t, lap, _ in pieces if val != 0.0), None)
    underflowed = []
    for record, (val, k_t, lap, scale) in zip(records, pieces):
        if val == 0.0:
            record["residual"], record["c_pointwise"] = math.inf, None
            underflowed.append(record)
        else:
            record["residual"] = abs(k_t - kappa * lap - c_fit * val) / scale
            record["c_pointwise"] = (k_t - kappa * lap) / val
    return c_fit, max((r["residual"] for r in records), default=0.0), underflowed


def radial_pde_residual(
    params: EvalParams,
    s_grid: Sequence[float] = (0.1, 0.5, 1.0, 2.0, 3.5, 5.0),
    tau_grid: Sequence[float] = (0.1, 0.5, 1.0, 2.0),
) -> VerificationReport:
    """dK/dtau = kappa [K_ss + (D-2) coth(s) K_s] + c K with c fitted once.

    c is fitted at the first grid point where K does not underflow and then
    held fixed; the report carries the fit and its spread, which double as
    a check that the generator shift is a constant.  The (s, tau) where K
    underflowed are listed under ``underflowed``.
    """
    # the D = 4 closed form is the high-accuracy anchor; the higher even
    # orders accumulate a little more term cancellation at the corners
    tolerance = 1e-7 if params.D == 4 else (1e-6 if params.D % 2 == 0 else 1e-5)
    grid = [(s, tau) for tau in tau_grid for s in s_grid]
    points = [{"s": s, "tau": tau} for s, tau in grid]
    c_fit, worst, underflowed = _fit_heat_equation(params.kappa, points, _pde_pieces(params, grid))
    c_values = [p["c_pointwise"] for p in points if p["c_pointwise"] is not None]
    details = {
        "grid": f"s in {list(s_grid)}, tau in {list(tau_grid)}",
        "fitted_c": c_fit,
        "c_spread": max(c_values) - min(c_values) if c_values else None,
        "kappa": params.kappa,
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

    The kernel at every point of every pair's stencils, the Laplacian's
    around q2 at tau and the time derivative's at q2 (its step from
    ``_pde_steps``), is one kernel row."""
    _require_dim(params.D, HORICYCLIC_DIMS, "coordinate-space stencils")
    quad_backed = params.D == 3
    tau = params.tau
    steps, points = [], []  # steps per pair: the Laplacian's stencil size and step, h_tau
    ss, taus = [], []
    for q1, q2 in pairs:
        h = (2e-3 if quad_backed else 1e-4) * max(1.0, q2.y)
        space = laplace_beltrami_stencil(q2, h)
        s12 = geodesic_distance(q1, q2)
        h_t = _pde_steps(params, s12, tau)[1]
        steps.append((len(space), h, h_t))
        points.append({"s": s12})
        ss += [geodesic_distance(q1, q) for q in space] + [s12] * 4
        taus += [tau] * len(space) + _tau_stencil(tau, h_t)
    values = iter(kernel_array(params, np.array(ss), np.array(taus)).tolist())
    pieces = []
    for (_, q2), (size, h, h_t) in zip(pairs, steps):
        at_space, at_taus = list(islice(values, size)), list(islice(values, 4))
        val = at_space[0]  # the kernel at q2
        lap = laplace_beltrami_combine(at_space, q2, h)
        k_t = _d1(*at_taus, h_t)
        pieces.append((val, k_t, lap, max(abs(k_t), params.kappa * abs(lap), abs(val))))
    c_fit, worst, underflowed = _fit_heat_equation(params.kappa, points, pieces)
    details = {"tau": params.tau, "fitted_c": c_fit, "n_pairs": len(pairs), "points": points}
    if underflowed:
        details["underflowed"] = [p["s"] for p in underflowed]
    return VerificationReport.make("pde-horicyclic", params.D, worst, 1e-4, details)


# --- semigroup -----------------------------------------------------------

def _convolve_kernels(
    params1: EvalParams, params2: EvalParams, d: float, spec: QuadratureSpec, target: float, k2_peak: float
) -> tuple[float, float]:
    """Geodesic polar convolution int K1(r) K2(rho(r, theta)) dV: (value, err_est).

    r runs on the tanh-sinh rule.  For each level of r nodes, theta runs on
    the plain trapezoid at odd D, where the integrand sin^(D-3) theta K2 is
    even and 2 pi periodic in theta, and on tanh-sinh at even D, every K2
    of a theta level in one ``kernel_array`` call.  Each theta integral
    stops at max(rel_tol |I|, rel_tol |target| / r_max), and the estimate
    adds r_max times the largest theta estimate to the r rule's own.  K2 is
    at most k2_peak, its value at 0, so a theta integral is at most pi
    k2_peak times the radial weight: where that is within the theta
    tolerance, the integral is 0 and the bound enters the estimate.
    Elsewhere K2 peaks at theta = 0 with a rate of at most a2 sinh r sinh d
    in theta^2, and the periodic rule starts from a step of at most twice
    that peak's width, so that its first |I_h - I_2h| cannot step over it.
    An r node where K1 is 0.0 adds nothing; the radial weight K1 sinh^(D-2)
    r is formed in logs, and an OverflowError names the first r where
    binary64 cannot hold it.  A theta integral that fails fails the
    convolution, with no value.
    """
    D = params1.D
    cd, sd = math.cosh(d), math.sinh(d)
    # K1(r) K2(rho) is below exp(-a1 r^2 - a2 (r - d)^2) (rho >= |r - d|)
    # times sinh^(D-2) r: past K1's own cutoff, cover that product's peak,
    # near r = d tau1 / (tau1 + tau2), where it is sharp (small tau)
    r_max = max(
        gaussian_cutoff(0.0, params1.a, linear_growth=float(D - 2)),
        gaussian_cutoff(0.0, params1.a + params2.a, linear_growth=2.0 * params2.a * d + (D - 2)),
    )
    ang_front = 2.0 if D == 3 else sphere_surface_area(D - 3)
    theta_tol = spec.rel_tol * abs(target) / r_max or spec.abs_tol
    theta_err = 0.0  # the largest theta estimate so far

    def outer(rs: np.ndarray, at: np.ndarray) -> np.ndarray:
        nonlocal theta_err
        k1 = kernel_array(params1, rs)
        kept = np.flatnonzero(k1)
        r = rs[kept]
        log_sinh = r - math.log(2.0) + np.log(-np.expm1(-2.0 * r))  # finite where sinh r overflows
        with np.errstate(over="ignore"):
            radial = ang_front * np.exp(np.log(k1[kept]) + (D - 2) * log_sinh)
        bound = math.pi * k2_peak * radial
        theta_err = max(theta_err, np.max(bound, initial=0.0, where=bound <= theta_tol))
        kept, r, radial = (x[bound > theta_tol] for x in (kept, r, radial))
        with np.errstate(over="ignore"):
            cc, ss = np.cosh(r) * cd, np.sinh(r) * sd
        bad = ~np.isfinite(radial * cc)
        if np.count_nonzero(bad):
            where = f"D={D}, tau={params1.tau!r}, r={float(r[bad].min())!r}"
            raise OverflowError(f"binary64 overflow (radial weight of the convolution at {where})")

        def theta_integrand(ths: np.ndarray, cols: np.ndarray) -> np.ndarray:
            # cosh rho at each (theta, r) node, by the hyperbolic law of cosines
            u = cc[cols] - np.cos(ths) * ss[cols]
            k2 = kernel_array(params2, np.arccosh(np.maximum(u, 1.0)))
            return k2 * np.sin(ths) ** (D - 3) * radial[cols]

        tol = np.full(len(r), theta_tol)
        if D % 2:
            # a step pi / n of at most 2 / sqrt(a2 sinh r sinh d), n in 16 .. 1024
            intervals = 2.0 * np.clip(np.ceil(0.25 * math.pi * np.sqrt(params2.a * ss)), 8.0, 512.0)
            theta, err, failures = integrate_periodic(theta_integrand, 0.0, math.pi, spec, tol, intervals)
        else:
            theta, err, failures = integrate_tanh_sinh(theta_integrand, 0.0, math.pi, spec, tol)
        if failures:  # the convolution fails, with no value
            raise NonConvergenceError(math.nan, math.inf) from failures[min(failures)]
        theta_err = max(theta_err, np.max(err, initial=0.0))
        out = np.zeros(len(rs))
        out[kept] = theta
        return out

    (value,), (err,), failures = integrate_tanh_sinh(outer, 0.0, r_max, spec)
    value, err_est = float(value), float(err) + r_max * theta_err
    if failures:
        raise NonConvergenceError(value, err_est) from failures[0]
    return value, err_est


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
    targets and K2 at 0 are one kernel row."""
    if (params1.D, params1.m, params1.hbar) != (params2.D, params2.m, params2.hbar):
        raise ValueError("factors must share dimension and units")
    _require_dim(params1.D, CK_DIMS, "convolution checks")
    D = params1.D
    if tolerance is None:
        tolerance = 1e-3 if D == 3 else 1e-4
    spec = spec or QuadratureSpec(rel_tol=1e-7, abs_tol=1e-30)
    taus = np.array([params1.tau + params2.tau] * len(d_values) + [params2.tau])
    *targets, k2_peak = kernel_array(params1, np.array([*d_values, 0.0], dtype=float), taus).tolist()
    out = []
    for d, target in zip(d_values, targets):
        try:
            scaled = QuadratureSpec(spec.rel_tol, spec.abs_tol * abs(target) or spec.abs_tol)
            conv, err = _convolve_kernels(params1, params2, d, scaled, target, k2_peak)
            rel = abs(conv - target) / abs(target) if target != 0.0 else math.inf
        except NonConvergenceError as exc:
            conv, err, rel = exc.value, exc.err_est, math.inf
        details = {
            "tau1": params1.tau,
            "tau2": params2.tau,
            "d": d,
            "convolution": conv,
            "target": target,
            "quad_err": err,
        }
        if target == 0.0:  # nothing to compare the convolution with
            details["underflowed"] = [d]
        out.append(VerificationReport.make("ck", D, rel, tolerance, details))
    return out


# --- normalization --------------------------------------------------------

def _masses(params: EvalParams, taus: Sequence[float]) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """Omega_(D-2) int_0^inf K(s) sinh(s)^(D-2) ds at each tau of taus, in
    one quadrature call: value and err_est arrays and the failures by index."""
    om = sphere_surface_area(params.D - 2)
    taus = np.array(taus, dtype=float)
    rates = np.array([params.with_tau(t).a for t in taus.tolist()])
    s_max = gaussian_cutoff(0.0, rates, linear_growth=float(params.D - 2))
    f = lambda ss, at: om * kernel_array(params, ss, taus[at]) * np.sinh(ss) ** (params.D - 2)
    return integrate_tanh_sinh(f, 0.0, s_max, _MASS_SPEC)


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
    pair it enters the residual inf.
    """
    _require_dim(params.D, MASS_DIMS, "mass checks")
    pairs = [(t1, t2) for i, t1 in enumerate(tau_list) for t2 in tau_list[i:]]
    taus = sorted({*tau_list, *(t1 + t2 for t1, t2 in pairs)})
    value, err, failures = _masses(params, taus)
    for failure in failures.values():
        if not isinstance(failure, NonConvergenceError):
            raise failure
    masses = dict(zip(taus, value.tolist()))
    nonconverged = {taus[i]: float(err[i]) for i in sorted(failures)}

    worst = 0.0
    pair_records = []
    for t1, t2 in pairs:
        lhs = masses[t1 + t2]
        rhs = masses[t1] * masses[t2]
        rel = abs(lhs - rhs) / abs(lhs)
        if nonconverged.keys() & {t1, t2, t1 + t2}:
            rel = math.inf
        worst = max(worst, rel)
        pair_records.append({"tau1": t1, "tau2": t2, "rel_residual": rel})
    unit_dev = max(abs(masses[t] - 1.0) for t in tau_list)
    growth = math.log(masses[tau_list[0]]) / tau_list[0]
    details = {
        "masses": {f"{t:g}": m for t, m in masses.items()},
        "quad_err": {f"{t:g}": e for t, e in zip(taus, err.tolist())},
        "pairs": pair_records,
        "unit_mass_max_dev": unit_dev,
        "fitted_mass_rate": growth,
    }
    if nonconverged:
        details["nonconverged"] = {f"{t:g}": e for t, e in nonconverged.items()}
    return VerificationReport.make("mass", params.D, worst, tolerance, details)


# --- flat-offset marginal ---------------------------------------------------

def x_marginal_check(params: EvalParams, y1: float, y2: float) -> VerificationReport:
    """Marginal of the kernel over the flat offset against the z-line form.

    Integrating the closed-form kernel over the x-offset (radially, through
    k(R) = (R^2 + (y2-y1)^2)/(2 y1 y2) + 1) must reproduce
    (y1 y2)^((D-2)/2) times the free one-dimensional Gaussian in z = ln y
    with the constant shift E.
    """
    _require_dim(params.D, X_MARGINAL_DIMS, "x-marginal checks")
    a = params.a
    y1y2 = y1 * y2
    u0 = (y2 - y1) ** 2 / (2.0 * y1y2)
    s0 = _arccosh_from_excess(u0)
    s_max = gaussian_cutoff(s0, a, TRUNCATION_SIGMA + 1.0)

    if params.D == 3:
        front, power = 2.0, 0
    else:
        front, power = sphere_surface_area(params.D - 3), params.D - 3

    # R = sqrt(2 y1 y2) sinh v, so that k(R) - 1 = u0 + sinh^2 v: the arc
    # s grows like 2 v, and the kernel's support is not a sliver of the
    # range, which R would stretch exponentially
    r_scale = math.sqrt(2.0 * y1y2)
    v_max = math.asinh(math.sqrt(2.0) * math.sinh(0.5 * s_max))  # sinh^2 v = cosh s_max - 1

    rhs = (
        y1y2 ** ((params.D - 2) / 2.0)
        * math.sqrt(a / math.pi)
        * math.exp(-a * math.log(y2 / y1) ** 2 + params.E)
    )
    details = {"tau": params.tau, "y1": y1, "y2": y2, "lhs": None, "rhs": rhs, "quad_err": None}
    if rhs == 0.0:  # nothing to compare the marginal with
        details["underflowed"] = [[y1, y2]]
        return VerificationReport.make("x-marginal", params.D, math.inf, 1e-5, details)

    def f(vs: np.ndarray) -> np.ndarray:
        sh = np.sinh(vs)
        w = u0 + sh * sh
        # two square roots: w (w + 2) overflows where cosh s_max is ~1e233
        kvs = kernel_array(params, np.log1p(w + np.sqrt(w) * np.sqrt(w + 2.0)))
        return kvs * (r_scale * sh) ** power * (r_scale * np.cosh(vs))

    # abs_tol relative to the rhs, at least the smallest positive double
    spec = QuadratureSpec(_X_MARGINAL_SPEC.rel_tol, max(_X_MARGINAL_SPEC.abs_tol * abs(rhs), 5e-324))
    try:
        val, err = integrate_one(integrate_tanh_sinh, f, 0.0, v_max, spec)
    except NonConvergenceError as exc:
        where = f"D={params.D}, tau={params.tau!r}, y1={y1!r}, y2={y2!r}"
        raise NonConvergenceError(exc.value, exc.err_est, f"{exc} at {where} in x_marginal_check",
                                  exc.halvings) from None
    details["lhs"], details["quad_err"] = front * val, err
    rel = abs(details["lhs"] - rhs) / abs(rhs)
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
    l = 1, which are added to the 40.
    """
    # imported here, not at module level: only this oracle uses mpmath, and
    # the CLI's other jobs should not pay for loading it
    import mpmath

    with mpmath.workdps(40 + math.ceil(n * math.log10(math.cosh(s)))):
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


# suite name -> (dimensions it covers, its reports at one EvalParams), in the
# order ``all`` runs them.  gfunc does not depend on D (None): it runs once,
# with no argument.  Each build looks its check up when it runs, so a wrapper
# set on this module's attribute sees the call.
SUITES: dict[str, tuple[range | None, Callable[..., list[VerificationReport]]]] = {
    "abel": (EVERY_D, lambda p: [abel_residual(p)]),
    "pde-radial": (EVERY_D, lambda p: [radial_pde_residual(p)]),
    "pde-horicyclic": (HORICYCLIC_DIMS, lambda p: [horicyclic_pde_residual(p, _horicyclic_pairs(p.D))]),
    "ck": (CK_DIMS, _ck_reports),
    "mass": (MASS_DIMS, lambda p: [mass_multiplicativity(p)]),
    "x-marginal": (X_MARGINAL_DIMS, lambda p: [x_marginal_check(p, 1.0, math.e if p.D == 3 else 1.0)]),
    "gfunc": (None, lambda: gfunc_reports()),
}


def suite_reports(
    suite: str, dims: Sequence[int], tau: float, m: float = 0.5, hbar: float = 1.0
) -> list[VerificationReport]:
    """Reports of one suite of :data:`SUITES`, or of every suite for
    ``"all"``, suite by suite and, within a suite, in the order of ``dims``;
    a D the suite does not cover is skipped."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join((*SUITES, 'all'))}")
    if any(d < 3 for d in dims):
        raise ValueError("D must be >= 3")
    reports = []
    for name, (covered, build) in SUITES.items():
        if suite not in (name, "all"):
            continue
        if covered is None:
            reports.extend(build())
        else:
            for d in dims:
                if d in covered:
                    reports.extend(build(EvalParams(d, tau, m, hbar)))
    return reports
