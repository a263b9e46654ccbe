"""Certification harness for the kernel family.

Each check returns a :class:`VerificationReport` whose ``passed`` flag is
exactly ``residual <= tolerance``.  The checks are independent routes to
the same objects: the defining integral equation in l = cosh s, the radial
and coordinate-space heat equations (with the generator shift fitted, not
assumed), the semigroup convolution, and total-mass multiplicativity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Callable, Sequence

import mpmath
import numpy as np

from . import gfunc
from .geometry import (
    HoricyclicPoint,
    RadialArgs,
    geodesic_distance,
    laplace_beltrami_apply,
    sphere_surface_area,
)
from .kernels import EvalParams, kernel, kernel_row
from .quadrature import (
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
    "gfunc_reports",
    "richardson_dl_derivative",
    "DEFAULT_L_GRID",
]

# tight spec for kernels sampled inside finite-difference stencils
_KERNEL_SPEC = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-18)
# the integrals of the abel and mass checks
_ABEL_SPEC = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-16)
_MASS_SPEC = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-20)


def _kernel_array(params: EvalParams, ss: np.ndarray) -> np.ndarray:
    """``kernel(params, s, _KERNEL_SPEC).value`` for each s of an array, as an
    array of the same shape, from one ``kernel_row`` call.

    Each distinct s is evaluated once (a value does not depend on its
    row), so a failure is raised at the smallest failing s.
    """
    distinct, inverse = np.unique(ss, return_inverse=True)
    values = []
    for kv in kernel_row(params, distinct.tolist(), _KERNEL_SPEC):
        if isinstance(kv, Exception):
            raise kv
        values.append(kv.value)
    return np.array(values)[inverse].reshape(ss.shape)


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
        kvs = _kernel_array(params, sigs)
        with np.errstate(divide="ignore", invalid="ignore"):  # v = 0 gives 0 ** nu
            wfac = (2.0 * np.sinh(0.5 * (sigs + sl)) * np.sinh(0.5 * v2)) ** nu
            out = kvs * wfac * np.sinh(sigs) * 2.0 * vs
        return np.where((kvs == 0.0) | (v2 == 0.0), 0.0, out)

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
    worst = 0.0
    for l in l_grid:
        if l < 1.0:
            raise ValueError("l grid entries must be >= 1")
        args = RadialArgs(s=math.acosh(l) if l > 1.0 else 0.0, l=l)
        rhs = _abel_rhs(params, l)
        try:
            lhs, err = _abel_lhs(params, l, _ABEL_SPEC)
            rel = abs(lhs - rhs) / abs(rhs)
        except NonConvergenceError as exc:
            lhs, err, rel = exc.value, exc.err_est, math.inf
        worst = max(worst, rel)
        points.append(
            {"l": args.l, "s": args.s, "lhs": lhs, "rhs": rhs, "rel_residual": rel, "quad_err": err}
        )
    details = {"tau": params.tau, "grid": f"l in {list(l_grid)}", "points": points}
    return VerificationReport.make("abel", params.D, worst, tolerance, details)


# --- heat equation -------------------------------------------------------

def _d1(fp2: float, fp1: float, fm1: float, fm2: float, h: float) -> float:
    """First derivative from the values at x + 2h, x + h, x - h, x - 2h."""
    return (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * h)


def _d2(fp2: float, fp1: float, f0: float, fm1: float, fm2: float, h: float) -> float:
    """Second derivative from the values at x + 2h, x + h, x, x - h, x - 2h."""
    return (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h * h)


def _fd1(g: Callable[[float], float], x: float, h: float) -> float:
    return _d1(g(x + 2 * h), g(x + h), g(x - h), g(x - 2 * h), h)


def _pde_pieces(params: EvalParams, s: float, tau: float) -> tuple[float, float, float, float]:
    """(K, dK/dtau, radial Laplacian of K, scale) by 4th-order stencils.

    Steps balance the h^4 truncation against the kernel's own noise floor
    (roundoff for the closed forms, the quadrature tolerance for the
    integral-backed odd dimensions): the optimum of h^4 r^6 / 90 + 5 n/h^2
    sits at r h = (480 n)^(1/6) with r the local log-derivative rate.
    """
    a_of = lambda t: params.m / (2.0 * params.hbar * t)

    # realized kernel accuracy: roundoff for the closed forms, ~1e-13 for
    # the odd dimensions' Abel quadrature (requested 1e-11; its halving
    # estimate |I_h - I_2h| is conservative by a few orders)
    noise = 2.2e-16 if params.D % 2 == 0 else 1e-13
    rh = (480.0 * noise) ** (1.0 / 6.0)
    a = a_of(tau)
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

    # the five s-stencil points at tau in one row; the tau stencil changes tau per point
    kp2, kp1, val, km1, km2 = _kernel_array(
        params.with_tau(tau), np.array([s + 2 * h_s, s + h_s, s, s - h_s, s - 2 * h_s])
    ).tolist()
    k_t = _fd1(lambda t: kernel(params.with_tau(t), s, _KERNEL_SPEC).value, tau, h_t)
    k_s = _d1(kp2, kp1, km1, km2, h_s)
    k_ss = _d2(kp2, kp1, val, km1, km2, h_s)
    lap = k_ss + (params.D - 2) / math.tanh(s) * k_s
    kappa = params.kappa
    scale = max(abs(k_t), kappa * abs(k_ss), kappa * (params.D - 2) * abs(k_s / math.tanh(s)), abs(val))
    return val, k_t, lap, scale


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
    for tau in tau_grid:
        for s in s_grid:
            val, k_t, lap, scale = _pde_pieces(params, s, tau)
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
    explicit half-space coordinate stencil instead of the radial reduction."""
    if params.D not in (3, 4):
        raise ValueError("coordinate-space stencils are kept desk-scale: D in {3, 4}")
    quad_backed = params.D == 3
    points = []
    worst = 0.0
    c_fit = None
    for q1, q2 in pairs:
        def field(q: HoricyclicPoint, tau: float = params.tau) -> float:
            return kernel(params.with_tau(tau), geodesic_distance(q1, q), _KERNEL_SPEC).value

        h = (2e-3 if quad_backed else 1e-4) * max(1.0, q2.y)
        lap = laplace_beltrami_apply(field, q2, h)
        rate_t = params.a * geodesic_distance(q1, q2) ** 2 / params.tau + 1.0 / params.tau
        h_t = min(1.4e-3 / rate_t, 0.2 * params.tau)
        k_t = _fd1(lambda t: field(q2, t), params.tau, h_t)
        val = field(q2)
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
    one ``kernel_row`` call per batch, K2 one per theta pass over the r
    not yet converged.  r integrates the theta integrals less and plus
    their estimates, so that half the spread of the two carries the theta
    rule's error into the estimate, next to the r rule's own.
    """
    D = params1.D
    cd, sd = math.cosh(d), math.sinh(d)
    r_max = gaussian_cutoff(0.0, params1.a, linear_growth=float(D - 2))
    ang_front = 2.0 if D == 3 else sphere_surface_area(D - 3)
    theta_rule = integrate_periodic if D % 2 else integrate_tanh_sinh

    def outer(rs: np.ndarray, live: np.ndarray) -> np.ndarray:
        radial = ang_front * _kernel_array(params1, rs) * np.sinh(rs) ** (D - 2)
        cc, ss = np.cosh(rs) * cd, np.sinh(rs) * sd

        def theta_integrand(ths: np.ndarray, cols: np.ndarray) -> np.ndarray:
            # (theta, r) grid of cosh rho, by the hyperbolic law of cosines
            u = cc[cols] - np.outer(np.cos(ths), ss[cols])
            k2 = _kernel_array(params2, np.arccosh(np.maximum(u, 1.0)))
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
    """Semigroup check K_tau1 * K_tau2 = K_(tau1+tau2) at several separations."""
    if (params1.D, params1.m, params1.hbar) != (params2.D, params2.m, params2.hbar):
        raise ValueError("factors must share dimension and units")
    if params1.D not in (3, 4, 5):
        raise ValueError("convolution checks are kept desk-scale: D in {3, 4, 5}")
    D = params1.D
    if tolerance is None:
        tolerance = 1e-3 if D == 3 else 1e-4
    spec = spec or QuadratureSpec(rel_tol=1e-7, abs_tol=1e-30)
    target_params = params1.with_tau(params1.tau + params2.tau)
    out = []
    for d in d_values:
        target = kernel(target_params, d, _KERNEL_SPEC).value
        try:
            conv, err = _convolve_kernels(params1, params2, d, spec)
            rel = abs(conv - target) / abs(target)
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
        out.append(VerificationReport.make("ck", D, rel, tolerance, details))
    return out


def chapman_kolmogorov(params1: EvalParams, params2: EvalParams, d: float) -> VerificationReport:
    return chapman_kolmogorov_many(params1, params2, [d])[0]


# --- normalization --------------------------------------------------------

def total_mass(params: EvalParams) -> float:
    """Omega_(D-2) int_0^inf K(s) sinh(s)^(D-2) ds."""
    om = sphere_surface_area(params.D - 2)
    s_max = gaussian_cutoff(0.0, params.a, linear_growth=float(params.D - 2))
    f = lambda ss: _kernel_array(params, ss) * np.sinh(ss) ** (params.D - 2)
    val, _ = integrate_tanh_sinh(f, 0.0, s_max, _MASS_SPEC)
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
    """
    masses: dict[float, float] = {}

    def mass_at(tau: float) -> float:
        if tau not in masses:
            masses[tau] = total_mass(params.with_tau(tau))
        return masses[tau]

    worst = 0.0
    pair_records = []
    for i, t1 in enumerate(tau_list):
        for t2 in tau_list[i:]:
            lhs = mass_at(t1 + t2)
            rhs = mass_at(t1) * mass_at(t2)
            rel = abs(lhs - rhs) / abs(lhs)
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
    return VerificationReport.make("mass", params.D, worst, tolerance, details)


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
    for a in a_values:
        for n in range(n_max + 1):
            g = gfunc.expression(n, a, 0.0)
            pairs = zip(gfunc._terms(g, overlap).tolist(), gfunc._series_many(g, overlap).tolist())
            for s, (t, srs) in zip(_S_OVERLAP, pairs):
                rel = abs(t - srs) / abs(t)
                overlap_worst = max(overlap_worst, rel)
                overlap_pts.append({"a": a, "n": n, "s": s, "rel": rel})
            for s, t in zip(_S_ORACLE, gfunc._terms(g, oracle).tolist()):
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
