"""Certification harness for the kernel family.

Each check returns a :class:`VerificationReport` whose ``passed`` flag is
exactly ``residual <= tolerance``.  The checks are independent routes to
the same objects: the defining integral equation in l = cosh s, the radial
and coordinate-space heat equations (with the generator shift fitted, not
assumed), the semigroup convolution, total-mass multiplicativity, and the
x-marginal against the horicyclic z-line Gaussian.  :data:`SUITES` is the
battery that ``pseudoheat verify`` runs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, asdict
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
    integrate_periodic,
    integrate_tanh_sinh,
)

__all__ = [
    "VerificationReport",
    "abel_residual",
    "radial_pde_residual",
    "horicyclic_pde_residual",
    "chapman_kolmogorov",
    "chapman_kolmogorov_many",
    "mass_multiplicativity",
    "x_marginal_check",
    "gfunc_reports",
    "richardson_dl_derivative",
    "DEFAULT_L_GRID",
    "SUITES",
    "suite_reports",
]

# dimensions each check covers: the desk-scale checks' guards and SUITES read them
EVERY_D = range(3, sys.maxsize)
HORICYCLIC_DIMS = range(3, 5)
CK_DIMS = range(3, 6)
MASS_DIMS = range(3, 7)
X_MARGINAL_DIMS = range(3, 7)

# the integrals of the abel, mass and x-marginal checks; the abel check scales
# abs_tol by its rhs, which exp(E) takes far below 1e-7 at high D
_ABEL_SPEC = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-16)
_MASS_SPEC = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-20)
_X_MARGINAL_SPEC = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-20)


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
        return asdict(self)


def _require_dim(D: int, dims: range, what: str) -> None:
    if D not in dims:
        raise ValueError(f"{what} are kept desk-scale: D in {dims.start}..{dims[-1]}")


DEFAULT_L_GRID = (1.0, math.cosh(0.5), math.cosh(1.0), math.cosh(2.0), math.cosh(3.0))


# --- integral equation ---------------------------------------------------

def _abel_lhs(params: EvalParams, l: float, spec: QuadratureSpec) -> tuple[float, float]:
    """int_l^inf K(k) (k - l)^((D-4)/2) dk through k = cosh sigma, sigma = s_l + v^2.

    The half-power of k - l = 2 sinh((sigma+s_l)/2) sinh((sigma-s_l)/2)
    combines with the Jacobian 2 v dv into an even, regular integrand for
    every parity of D, including the inverse-square-root case D = 3.
    """
    a = params.a
    nu = (params.D - 4) / 2.0
    sl = math.acosh(l) if l > 1.0 else 0.0
    s_max = gaussian_cutoff(sl, a, linear_growth=0.5 * params.D)
    v_max = math.sqrt(s_max - sl)

    def integrand(vs: np.ndarray) -> np.ndarray:
        v2 = vs * vs  # sigma - s_l, exactly: nodes crowd v = 0
        sigs = sl + v2
        kvs = kernel_array(params, sigs)
        dropped = (kvs == 0.0) | (v2 == 0.0)  # the integrand is 0 there
        # v = 0 gives 0 ** nu; far out, where K is 0, the power overflows
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            wfac = (2.0 * np.sinh(0.5 * (sigs + sl)) * np.sinh(0.5 * v2)) ** nu
        overflowed = np.isinf(wfac) & ~dropped
        if np.count_nonzero(overflowed):
            at = f"D={params.D}, tau={params.tau!r}, l={l!r}, sigma={float(sigs[overflowed].min())!r}"
            raise OverflowError(f"binary64 overflow ((k - l)^{nu!r} at {at})")
        with np.errstate(invalid="ignore"):  # inf weights where K is 0
            out = kvs * wfac * np.sinh(sigs) * 2.0 * vs
        return np.where(dropped, 0.0, out)

    return integrate_tanh_sinh(integrand, 0.0, v_max, spec)


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
    l_grid: Sequence[float] = DEFAULT_L_GRID,
    tolerance: float | None = None,
) -> VerificationReport:
    """Residual of the defining integral equation on a grid of l >= 1."""
    if tolerance is None:
        tolerance = 1e-6 if params.D % 2 == 0 else 1e-5
    points = []
    underflowed = []
    worst = 0.0
    for l in l_grid:
        if l < 1.0:
            raise ValueError("l grid entries must be >= 1")
        rhs = _abel_rhs(params, l)
        abs_tol = _ABEL_SPEC.abs_tol * abs(rhs)
        if abs_tol == 0.0:  # rhs is 0.0, or too small to scale the tolerance by
            underflowed.append(l)
            lhs, err, rel = None, None, math.inf
        else:
            try:
                spec = QuadratureSpec(_ABEL_SPEC.rel_tol, abs_tol)
                lhs, err = _abel_lhs(params, l, spec)
                rel = abs(lhs - rhs) / abs(rhs)
            except NonConvergenceError as exc:
                lhs, err, rel = exc.value, exc.err_est, math.inf
        worst = max(worst, rel)
        points.append(
            {"l": l, "s": math.acosh(l), "lhs": lhs, "rhs": rhs, "rel_residual": rel, "quad_err": err}
        )
    details = {"tau": params.tau, "grid": f"l in {list(l_grid)}", "points": points}
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


def radial_pde_residual(
    params: EvalParams,
    s_grid: Sequence[float] = (0.1, 0.5, 1.0, 2.0, 3.5, 5.0),
    tau_grid: Sequence[float] = (0.1, 0.5, 1.0, 2.0),
) -> VerificationReport:
    """dK/dtau = kappa [K_ss + (D-2) coth(s) K_s] + c K with c fitted once.

    c is fitted at the first grid point and then held fixed; the report
    carries the fit and its spread, which double as a check that the
    generator shift is a constant.
    """
    # the D = 4 closed form is the high-accuracy anchor; the higher even
    # orders accumulate a little more term cancellation at the corners
    tolerance = 1e-7 if params.D == 4 else (1e-6 if params.D % 2 == 0 else 1e-5)
    kappa = params.kappa
    points = []
    c_fit = None
    worst = 0.0
    c_lo = math.inf
    c_hi = -math.inf
    grid = [(s, tau) for tau in tau_grid for s in s_grid]
    for (s, tau), (val, k_t, lap, scale) in zip(grid, _pde_pieces(params, grid)):
        c_here = (k_t - kappa * lap) / val
        if c_fit is None:
            c_fit = c_here
        res = abs(k_t - kappa * lap - c_fit * val) / scale
        worst = max(worst, res)
        c_lo = min(c_lo, c_here)
        c_hi = max(c_hi, c_here)
        points.append({"s": s, "tau": tau, "residual": res, "c_pointwise": c_here})
    details = {
        "grid": f"s in {list(s_grid)}, tau in {list(tau_grid)}",
        "fitted_c": c_fit,
        "c_spread": c_hi - c_lo,
        "kappa": kappa,
        "points": points,
    }
    return VerificationReport.make("pde-radial", params.D, worst, tolerance, details)


def horicyclic_pde_residual(
    params: EvalParams,
    pairs: Sequence[tuple[HoricyclicPoint, HoricyclicPoint]],
) -> VerificationReport:
    """Same heat equation, but with the Laplacian applied through the
    explicit half-space coordinate stencil instead of the radial reduction.

    The kernel at every point of every pair's stencils, the Laplacian's
    around q2 at tau and the time derivative's at q2, is one kernel row."""
    _require_dim(params.D, HORICYCLIC_DIMS, "coordinate-space stencils")
    quad_backed = params.D == 3
    tau = params.tau
    steps = []  # per pair: the Laplacian's stencil size and step, h_tau
    ss, taus = [], []
    for q1, q2 in pairs:
        h = (2e-3 if quad_backed else 1e-4) * max(1.0, q2.y)
        space = laplace_beltrami_stencil(q2, h)
        s12 = geodesic_distance(q1, q2)
        rate_t = params.a * s12**2 / tau + 1.0 / tau
        h_t = min(1.4e-3 / rate_t, 0.2 * tau)
        steps.append((len(space), h, h_t))
        ss += [geodesic_distance(q1, q) for q in space] + [s12] * 4
        taus += [tau] * len(space) + _tau_stencil(tau, h_t)
    values = iter(kernel_array(params, np.array(ss), np.array(taus)).tolist())
    points = []
    underflowed = []
    worst = 0.0
    c_fit = None
    for (q1, q2), (size, h, h_t) in zip(pairs, steps):
        at_space, at_taus = list(islice(values, size)), list(islice(values, 4))
        val = at_space[0]  # the kernel at q2
        if val == 0.0:  # no scale to measure the equation against
            underflowed.append(geodesic_distance(q1, q2))
            worst = math.inf
            points.append({"s": underflowed[-1], "residual": math.inf, "c_pointwise": None})
            continue
        lap = laplace_beltrami_combine(at_space, q2, h)
        k_t = _d1(*at_taus, h_t)
        c_here = (k_t - params.kappa * lap) / val
        if c_fit is None:
            c_fit = c_here
        scale = max(abs(k_t), params.kappa * abs(lap), abs(val))
        res = abs(k_t - params.kappa * lap - c_fit * val) / scale
        worst = max(worst, res)
        points.append(
            {"s": geodesic_distance(q1, q2), "residual": res, "c_pointwise": c_here}
        )
    details = {"tau": params.tau, "fitted_c": c_fit, "n_pairs": len(pairs), "points": points}
    if underflowed:
        details["underflowed"] = underflowed
    return VerificationReport.make("pde-horicyclic", params.D, worst, 1e-4, details)


# --- semigroup -----------------------------------------------------------

def _convolve_kernels(
    params1: EvalParams, params2: EvalParams, d: float, spec: QuadratureSpec
) -> tuple[float, float]:
    """Geodesic polar convolution int K1(r) K2(rho(r, theta)) dV: (value, err_est).

    r runs on the tanh-sinh rule.  For each batch of r nodes, theta runs on
    the plain trapezoid at odd D, where the integrand sin^(D-3) theta K2 is
    even and 2 pi periodic in theta, and on tanh-sinh at even D; each r
    stops on its own test, scaled by the batch's largest integral.  K1 is
    one ``kernel_array`` call per batch, K2 one per theta pass over the r
    not yet converged.  r integrates the theta integrals less and plus
    their estimates, so that half the spread of the two carries the theta
    rule's error into the estimate, next to the r rule's own.
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
    theta_rule = integrate_periodic if D % 2 else integrate_tanh_sinh

    def outer(rs: np.ndarray, live: np.ndarray) -> np.ndarray:
        radial = ang_front * kernel_array(params1, rs) * np.sinh(rs) ** (D - 2)
        cc, ss = np.cosh(rs) * cd, np.sinh(rs) * sd

        def theta_integrand(ths: np.ndarray, cols: np.ndarray) -> np.ndarray:
            # (theta, r) grid of cosh rho, by the hyperbolic law of cosines
            u = cc[cols] - np.outer(np.cos(ths), ss[cols])
            k2 = kernel_array(params2, np.arccosh(np.maximum(u, 1.0)))
            return k2 * np.outer(np.sin(ths) ** (D - 3), radial[cols])

        try:
            theta, theta_err = theta_rule(theta_integrand, 0.0, math.pi, spec, count=len(rs))
        except NonConvergenceError as exc:  # the convolution fails, with no bounds
            raise NonConvergenceError(np.array([-math.inf, math.inf]), np.full(2, math.inf)) from exc
        return np.stack((theta - theta_err, theta + theta_err), axis=1)[:, live]

    failure = None
    try:
        (lower, upper), err = integrate_tanh_sinh(outer, 0.0, r_max, spec, count=2)
    except NonConvergenceError as exc:
        (lower, upper), err, failure = exc.value, exc.err_est, exc
    lower, upper = float(lower), float(upper)
    value, err_est = 0.5 * (lower + upper), 0.5 * (upper - lower) + float(max(err))
    if failure is not None:
        raise NonConvergenceError(value, err_est) from failure
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
    values (1e-107 at tau 1e-3, d = 1) sit far below any fixed one."""
    if (params1.D, params1.m, params1.hbar) != (params2.D, params2.m, params2.hbar):
        raise ValueError("factors must share dimension and units")
    _require_dim(params1.D, CK_DIMS, "convolution checks")
    D = params1.D
    if tolerance is None:
        tolerance = 1e-3 if D == 3 else 1e-4
    spec = spec or QuadratureSpec(rel_tol=1e-7, abs_tol=1e-30)
    target_params = params1.with_tau(params1.tau + params2.tau)
    targets = kernel_array(target_params, np.array(d_values, dtype=float)).tolist()
    out = []
    for d, target in zip(d_values, targets):
        try:
            scaled = QuadratureSpec(spec.rel_tol, spec.abs_tol * abs(target) or spec.abs_tol)
            conv, err = _convolve_kernels(params1, params2, d, scaled)
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


def chapman_kolmogorov(params1: EvalParams, params2: EvalParams, d: float) -> VerificationReport:
    return chapman_kolmogorov_many(params1, params2, [d])[0]


# --- normalization --------------------------------------------------------

def total_mass(params: EvalParams) -> float:
    """Omega_(D-2) int_0^inf K(s) sinh(s)^(D-2) ds."""
    om = sphere_surface_area(params.D - 2)
    s_max = gaussian_cutoff(0.0, params.a, linear_growth=float(params.D - 2))
    f = lambda ss: kernel_array(params, ss) * np.sinh(ss) ** (params.D - 2)
    try:
        val, _ = integrate_tanh_sinh(f, 0.0, s_max, _MASS_SPEC)
    except NonConvergenceError as exc:
        raise NonConvergenceError(om * exc.value, om * exc.err_est) from exc
    return om * val


def mass_multiplicativity(
    params: EvalParams,
    tau_list: Sequence[float] = (0.25, 0.5, 1.0),
    tolerance: float = 1e-4,
) -> VerificationReport:
    """M(tau1 + tau2) = M(tau1) M(tau2) for all pairs from tau_list.

    The report also carries every computed mass and the largest deviation
    of M(tau) from 1; the masses come out as exp(c tau) with c the same
    constant the heat-equation fit produces, so they equal 1 only when
    that constant vanishes.  The mass is manifestly independent of the
    fixed endpoint because the integrand depends on the distance alone.
    A mass whose quadrature does not converge keeps its last estimate, is
    listed with its error estimate under ``nonconverged``, and gives every
    pair it enters the residual inf.
    """
    _require_dim(params.D, MASS_DIMS, "mass checks")
    masses: dict[float, float] = {}
    nonconverged: dict[float, float] = {}

    def mass_at(tau: float) -> float:
        if tau not in masses:
            try:
                masses[tau] = total_mass(params.with_tau(tau))
            except NonConvergenceError as exc:
                masses[tau], nonconverged[tau] = exc.value, exc.err_est
        return masses[tau]

    worst = 0.0
    pair_records = []
    for i, t1 in enumerate(tau_list):
        for t2 in tau_list[i:]:
            lhs = mass_at(t1 + t2)
            rhs = mass_at(t1) * mass_at(t2)
            rel = abs(lhs - rhs) / abs(lhs)
            if nonconverged.keys() & {t1, t2, t1 + t2}:
                rel = math.inf
            worst = max(worst, rel)
            pair_records.append({"tau1": t1, "tau2": t2, "rel_residual": rel})
    unit_dev = max(abs(mass_at(t) - 1.0) for t in tau_list)
    growth = math.log(mass_at(tau_list[0])) / tau_list[0]
    details = {
        "masses": {f"{t:g}": m for t, m in sorted(masses.items())},
        "pairs": pair_records,
        "unit_mass_max_dev": unit_dev,
        "fitted_mass_rate": growth,
    }
    if nonconverged:
        details["nonconverged"] = {f"{t:g}": err for t, err in sorted(nonconverged.items())}
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

    def f(vs: np.ndarray) -> np.ndarray:
        sh = np.sinh(vs)
        w = u0 + sh * sh
        kvs = kernel_array(params, np.log1p(w + np.sqrt(w * (w + 2.0))))
        return kvs * (r_scale * sh) ** power * (r_scale * np.cosh(vs))

    val, err = integrate_tanh_sinh(f, 0.0, v_max, _X_MARGINAL_SPEC)
    lhs = front * val
    rhs = (
        y1y2 ** ((params.D - 2) / 2.0)
        * math.sqrt(a / math.pi)
        * math.exp(-a * math.log(y2 / y1) ** 2 + params.E)
    )
    rel = abs(lhs - rhs) / abs(rhs)
    details = {"tau": params.tau, "y1": y1, "y2": y2, "lhs": lhs, "rhs": rhs, "quad_err": err}
    return VerificationReport.make("x-marginal", params.D, rel, 1e-5, details)


# --- derivative oracle ----------------------------------------------------

# Richardson levels and working digits of richardson_dl_derivative
_RICHARDSON_LEVELS = 4
_RICHARDSON_DPS = 40


def richardson_dl_derivative(a: float, E: float, n: int, s: float) -> float:
    """n-th derivative of the base Gaussian in l = cosh s by central
    finite differences in l with Richardson extrapolation.

    Runs in extended precision so the stencil can sit arbitrarily close to
    l = 1 without rounding loss; the integrand is evaluated from the closed
    form in l, independently of the term algebra and of the l-series.
    """
    # imported here, not at module level: only this oracle uses mpmath, and
    # the CLI's other jobs should not pay for loading it
    import mpmath

    with mpmath.workdps(_RICHARDSON_DPS):
        am = mpmath.mpf(a)
        Em = mpmath.mpf(E)

        def G(l):
            sig = mpmath.acosh(l)
            return mpmath.sqrt(am / mpmath.pi) * mpmath.exp(-am * sig * sig + Em)

        l0 = mpmath.cosh(mpmath.mpf(s))
        h0 = mpmath.mpf(min(1e-4, float(l0 - 1) / (2 * max(n, 1))))
        binom = [math.comb(n, i) for i in range(n + 1)]

        def diff_at(h):
            acc = mpmath.mpf(0)
            for i in range(n + 1):
                off = (mpmath.mpf(i) - mpmath.mpf(n) / 2) * h
                acc += (-1) ** (n - i) * binom[i] * G(l0 + off)
            return acc / h**n

        tableau = [diff_at(h0 / 2**k) for k in range(_RICHARDSON_LEVELS)]
        for m in range(1, _RICHARDSON_LEVELS):
            fac = mpmath.mpf(4) ** m
            tableau = [
                (fac * tableau[k + 1] - tableau[k]) / (fac - 1)
                for k in range(len(tableau) - 1)
            ]
        return float(tableau[0])


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
    overlap_worst = 0.0
    overlap_pts = []
    oracle_worst = 0.0
    oracle_pts = []
    overlap, oracle = np.array(_S_OVERLAP), np.array(_S_ORACLE)
    # every entry at the expression's one rate
    at_overlap, at_oracle = np.zeros(len(overlap), dtype=np.intp), np.zeros(len(oracle), dtype=np.intp)
    for a in a_values:
        for n in range(n_max + 1):
            g = gfunc.expression(n, a, 0.0)
            terms, series = gfunc._terms(g, overlap, at_overlap), gfunc._series_many(g, overlap, at_overlap)
            for s, t, srs in zip(_S_OVERLAP, terms.tolist(), series.tolist()):
                rel = abs(t - srs) / abs(t)
                overlap_worst = max(overlap_worst, rel)
                overlap_pts.append({"a": a, "n": n, "s": s, "rel": rel})
            for s, t in zip(_S_ORACLE, gfunc._terms(g, oracle, at_oracle).tolist()):
                ref = richardson_dl_derivative(a, 0.0, n, s)
                rel = abs(t - ref) / abs(ref)
                oracle_worst = max(oracle_worst, rel)
                oracle_pts.append({"a": a, "n": n, "s": s, "rel": rel})
    return [
        VerificationReport.make(
            "gfunc-overlap", 0, overlap_worst, 1e-9, {"points": overlap_pts}
        ),
        VerificationReport.make(
            "gfunc-fd-oracle", 0, oracle_worst, 1e-6, {"points": oracle_pts}
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
