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
from .kernels import EvalParams, KernelValue, kernel, kernel_row
from .quadrature import (
    NonConvergenceError,
    QuadratureSpec,
    _geometric_breakpoints,
    gaussian_cutoff,
    integrate_finite,
    integrate_semi_infinite,
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
_KERNEL_SPEC = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-18, max_subdivisions=200)


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
    s_max = gaussian_cutoff(sl, a, spec.truncation_sigma, linear_growth=0.5 * params.D)
    v_max = math.sqrt(s_max - sl)

    def integrand(v: float) -> float:
        sig = sl + v * v
        kv = kernel(params, sig, _KERNEL_SPEC).value
        if kv == 0.0 or sig <= sl:
            return 0.0
        wfac = (2.0 * math.sinh(0.5 * (sig + sl)) * math.sinh(0.5 * (sig - sl))) ** nu
        return kv * wfac * math.sinh(sig) * 2.0 * v

    value, err = integrate_finite(integrand, _geometric_breakpoints(0.0, v_max), spec)
    return value, err + abs(integrand(v_max))


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
    spec: QuadratureSpec | None = None,
    tolerance: float | None = None,
) -> VerificationReport:
    """Residual of the defining integral equation on a grid of l >= 1."""
    if tolerance is None:
        tolerance = 1e-6 if params.D % 2 == 0 else 1e-5
    spec = spec or QuadratureSpec(rel_tol=1e-9, abs_tol=1e-16, max_subdivisions=120)
    points = []
    worst = 0.0
    for l in l_grid:
        if l < 1.0:
            raise ValueError("l grid entries must be >= 1")
        args = RadialArgs(s=math.acosh(l) if l > 1.0 else 0.0, l=l)
        rhs = _abel_rhs(params, l)
        try:
            lhs, err = _abel_lhs(params, l, spec)
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

def _fd1(g: Callable[[float], float], x: float, h: float) -> float:
    return (-g(x + 2 * h) + 8 * g(x + h) - 8 * g(x - h) + g(x - 2 * h)) / (12 * h)


def _fd2(g: Callable[[float], float], x: float, h: float) -> float:
    return (-g(x + 2 * h) + 16 * g(x + h) - 30 * g(x) + 16 * g(x - h) - g(x - 2 * h)) / (
        12 * h * h
    )


def _pde_pieces(params: EvalParams, s: float, tau: float) -> tuple[float, float, float, float]:
    """(K, dK/dtau, radial Laplacian of K, scale) by 4th-order stencils.

    Steps balance the h^4 truncation against the kernel's own noise floor
    (roundoff for the closed forms, the quadrature tolerance for the
    integral-backed odd dimensions): the optimum of h^4 r^6 / 90 + 5 n/h^2
    sits at r h = (480 n)^(1/6) with r the local log-derivative rate.
    """
    a_of = lambda t: params.m / (2.0 * params.hbar * t)

    def K(ss: float, tt: float) -> float:
        return kernel(params.with_tau(tt), ss, _KERNEL_SPEC).value

    # realized kernel accuracy: roundoff for the closed forms, ~1e-13 for
    # the adaptive-quadrature-backed odd dimensions (requested 1e-11; the
    # embedded-pair estimate is conservative by a few orders)
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

    val = K(s, tau)
    k_t = _fd1(lambda t: K(s, t), tau, h_t)
    k_s = _fd1(lambda ss: K(ss, tau), s, h_s)
    k_ss = _fd2(lambda ss: K(ss, tau), s, h_s)
    lap = k_ss + (params.D - 2) / math.tanh(s) * k_s
    kappa = params.kappa
    scale = max(abs(k_t), kappa * abs(k_ss), kappa * (params.D - 2) * abs(k_s / math.tanh(s)), abs(val))
    return val, k_t, lap, scale


def radial_pde_residual(
    params: EvalParams,
    s_grid: Sequence[float] = (0.1, 0.5, 1.0, 2.0, 3.5, 5.0),
    tau_grid: Sequence[float] = (0.1, 0.5, 1.0, 2.0),
    tolerance: float | None = None,
) -> VerificationReport:
    """dK/dtau = kappa [K_ss + (D-2) coth(s) K_s] + c K with c fitted once.

    c is fitted at the first grid point and then held fixed; the report
    carries the fit and its spread, which double as a check that the
    generator shift is a constant.
    """
    if tolerance is None:
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
    tolerance: float = 1e-4,
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
    return VerificationReport.make("pde-horicyclic", params.D, worst, tolerance, details)


# --- semigroup -----------------------------------------------------------

class _RadialTable:
    """Clamped cubic spline through kernel values on a uniform radial grid.

    Used for the quadrature-backed odd dimensions, where direct kernel
    evaluation inside a double integral would be needlessly slow; even-D
    kernels are cheap enough to evaluate directly.  The grid is one
    ``kernel_row`` call.
    """

    def __init__(self, params: EvalParams, rho_max: float, step: float = 0.01):
        n = max(64, int(math.ceil(rho_max / step)) + 1)
        self.xs = np.linspace(0.0, rho_max, n)
        values = kernel_row(params, self.xs.tolist(), _KERNEL_SPEC)
        for kv in values:
            if not isinstance(kv, KernelValue):
                raise kv
        ys = np.array([kv.value for kv in values])
        self.h = float(self.xs[1] - self.xs[0])
        self.ys = ys
        self.m = self._second_derivatives(ys, self.h)
        self.rho_max = rho_max

    @staticmethod
    def _second_derivatives(y: np.ndarray, h: float) -> np.ndarray:
        n = len(y)
        diag = np.full(n, 4.0)
        rhs = np.zeros(n)
        rhs[1:-1] = 6.0 * (y[2:] - 2.0 * y[1:-1] + y[:-2]) / (h * h)
        # clamped left end (radial kernels are even: K'(0) = 0)
        diag[0] = 2.0
        rhs[0] = 6.0 * ((y[1] - y[0]) / h) / h
        # natural right end (deep in the Gaussian tail)
        diag[-1] = 1.0
        rhs[-1] = 0.0
        sub = np.ones(n)
        sub[-1] = 0.0  # natural row: M[n-1] = 0
        sup = np.ones(n)
        # Thomas algorithm
        cp = np.zeros(n)
        dp = np.zeros(n)
        cp[0] = sup[0] / diag[0]
        dp[0] = rhs[0] / diag[0]
        for i in range(1, n):
            denom = diag[i] - sub[i] * cp[i - 1]
            cp[i] = sup[i] / denom if i < n - 1 else 0.0
            dp[i] = (rhs[i] - sub[i] * dp[i - 1]) / denom
        m = np.zeros(n)
        m[-1] = dp[-1]
        for i in range(n - 2, -1, -1):
            m[i] = dp[i] - cp[i] * m[i + 1]
        return m

    def __call__(self, rho: float) -> float:
        if rho >= self.rho_max:
            return 0.0
        rho = abs(rho)
        i = min(int(rho / self.h), len(self.xs) - 2)
        x0 = self.xs[i]
        t1 = self.xs[i + 1] - rho
        t0 = rho - x0
        h = self.h
        return float(
            self.m[i] * t1**3 / (6 * h)
            + self.m[i + 1] * t0**3 / (6 * h)
            + (self.ys[i] / h - self.m[i] * h / 6) * t1
            + (self.ys[i + 1] / h - self.m[i + 1] * h / 6) * t0
        )


def _radial_evaluator(params: EvalParams, rho_max: float) -> Callable[[float], float]:
    if params.D % 2 == 0:
        return lambda rho: kernel(params, rho).value
    return _RadialTable(params, rho_max)


def _convolve_kernels(
    params1: EvalParams,
    params2: EvalParams,
    d: float,
    spec: QuadratureSpec,
    k1: Callable[[float], float],
    k2: Callable[[float], float],
) -> tuple[float, float]:
    """Geodesic polar convolution int K1(r) K2(rho(r, theta)) dV."""
    D = params1.D
    cd, sd = math.cosh(d), math.sinh(d)
    inner_spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-30, max_subdivisions=80)
    if D == 3:
        ang_weight = lambda th: 1.0
        ang_front = 2.0
    else:
        ang_weight = lambda th: math.sin(th) ** (D - 3)
        ang_front = sphere_surface_area(D - 3)

    def theta_integral(r: float) -> float:
        cr, sr = math.cosh(r), math.sinh(r)

        def f(th: float) -> float:
            u = cr * cd - sr * sd * math.cos(th)
            rho = math.acosh(u) if u > 1.0 else 0.0
            return ang_weight(th) * k2(rho)

        val, _ = integrate_finite(f, (0.0, 0.5 * math.pi, math.pi), inner_spec)
        return ang_front * val

    def outer(r: float) -> float:
        if r == 0.0:
            return 0.0
        k1v = k1(r)
        if k1v == 0.0:
            return 0.0
        return k1v * math.sinh(r) ** (D - 2) * theta_integral(r)

    return integrate_semi_infinite(outer, 0.0, params1.a, spec, linear_growth=float(D - 2))


def chapman_kolmogorov_many(
    params1: EvalParams,
    params2: EvalParams,
    d_values: Sequence[float],
    spec: QuadratureSpec | None = None,
    tolerance: float | None = None,
) -> list[VerificationReport]:
    """Semigroup check K_tau1 * K_tau2 = K_(tau1+tau2) at several separations.

    The radial tables for the two factors are built once and shared by all
    separations.
    """
    if (params1.D, params1.m, params1.hbar) != (params2.D, params2.m, params2.hbar):
        raise ValueError("factors must share dimension and units")
    if params1.D not in (3, 4, 5):
        raise ValueError("convolution checks are kept desk-scale: D in {3, 4, 5}")
    D = params1.D
    if tolerance is None:
        tolerance = 1e-3 if D == 3 else 1e-4
    spec = spec or QuadratureSpec(rel_tol=1e-7, abs_tol=1e-30, max_subdivisions=120)
    d_max = max(d_values)
    r_max = gaussian_cutoff(0.0, params1.a, spec.truncation_sigma, linear_growth=float(D - 2))
    k1 = _radial_evaluator(params1, r_max + 1.0)
    k2 = _radial_evaluator(params2, r_max + d_max + 1.0)
    target_params = params1.with_tau(params1.tau + params2.tau)
    out = []
    for d in d_values:
        target = kernel(target_params, d, _KERNEL_SPEC).value
        try:
            conv, err = _convolve_kernels(params1, params2, d, spec, k1, k2)
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


def chapman_kolmogorov(
    params1: EvalParams,
    params2: EvalParams,
    d: float,
    spec: QuadratureSpec | None = None,
    tolerance: float | None = None,
) -> VerificationReport:
    return chapman_kolmogorov_many(params1, params2, [d], spec, tolerance)[0]


# --- normalization --------------------------------------------------------

def total_mass(params: EvalParams, spec: QuadratureSpec | None = None) -> float:
    """Omega_(D-2) int_0^inf K(s) sinh(s)^(D-2) ds."""
    spec = spec or QuadratureSpec(rel_tol=1e-9, abs_tol=1e-20, max_subdivisions=120)
    om = sphere_surface_area(params.D - 2)

    def f(s: float) -> float:
        if s == 0.0:
            return 0.0
        kv = kernel(params, s, _KERNEL_SPEC).value
        return kv * math.sinh(s) ** (params.D - 2) if kv else 0.0

    val, _ = integrate_semi_infinite(f, 0.0, params.a, spec, linear_growth=float(params.D - 2))
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

def richardson_dl_derivative(
    a: float, E: float, n: int, s: float, h0: float | None = None, levels: int = 4, dps: int = 40
) -> float:
    """n-th derivative of the base Gaussian in l = cosh s by central
    finite differences in l with Richardson extrapolation.

    Runs in extended precision so the stencil can sit arbitrarily close to
    l = 1 without rounding loss; the integrand is evaluated from the closed
    form in l, independently of the term algebra and of the l-series.
    """
    with mpmath.workdps(dps):
        am = mpmath.mpf(a)
        Em = mpmath.mpf(E)

        def G(l):
            sig = mpmath.acosh(l)
            return mpmath.sqrt(am / mpmath.pi) * mpmath.exp(-am * sig * sig + Em)

        l0 = mpmath.cosh(mpmath.mpf(s))
        if h0 is None:
            h0 = min(1e-4, float(l0 - 1) / (2 * max(n, 1)))
        h0 = mpmath.mpf(h0)
        binom = [math.comb(n, i) for i in range(n + 1)]

        def diff_at(h):
            acc = mpmath.mpf(0)
            for i in range(n + 1):
                off = (mpmath.mpf(i) - mpmath.mpf(n) / 2) * h
                acc += (-1) ** (n - i) * binom[i] * G(l0 + off)
            return acc / h**n

        tableau = [diff_at(h0 / 2**k) for k in range(levels)]
        for m in range(1, levels):
            fac = mpmath.mpf(4) ** m
            tableau = [
                (fac * tableau[k + 1] - tableau[k]) / (fac - 1)
                for k in range(len(tableau) - 1)
            ]
        return float(tableau[0])


def gfunc_reports(
    a_values: Sequence[float] = (0.125, 0.25, 1.0),
    n_max: int = 5,
    s_overlap: Sequence[float] = (0.25, 0.4, 0.6, 0.8),
    s_oracle: Sequence[float] = (0.1, 0.5, 1.0, 2.5, 5.0),
) -> list[VerificationReport]:
    """Two self-consistency reports for the derivative algebra.

    The first compares the term route against the l-series route on their
    overlap; the second compares both against the finite-difference oracle
    in l.
    """
    overlap_worst = 0.0
    overlap_pts = []
    oracle_worst = 0.0
    oracle_pts = []
    for a in a_values:
        for n in range(n_max + 1):
            g = gfunc.expression(n, a, 0.0)
            for s in s_overlap:
                t = gfunc.evaluate(g, s)
                srs = gfunc._series_value(g, s)
                rel = abs(t - srs) / abs(t)
                overlap_worst = max(overlap_worst, rel)
                overlap_pts.append({"a": a, "n": n, "s": s, "rel": rel})
            for s in s_oracle:
                t = gfunc.evaluate(g, s)
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
