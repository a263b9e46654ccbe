"""Time-sliced path-integral oracle for the closed-form kernels.

The N-slice kernel uses the short-time factor

    P_eps(q_b, q_a) = (a_eps/pi)^((D-1)/2)
                      exp(-a_eps [ln^2(y_b/y_a) + |x_b-x_a|^2 / (y_b y_a)])
                      exp(E_eps)

with a_eps = m/(2 hbar eps), eps = tau/N, and the per-slice constant shift
E_eps = E/N, integrated over interior points against the invariant measure
dy d^(D-2)x / y^(D-1).  The x-coordinates appear exactly in the printed
symmetric lattice form; the height coordinate is discretized in z = ln y,
where the slice chain composes to the exact free one-dimensional kernel.
(The seemingly natural alternative (y_b - y_a)^2 / (y_b y_a) equals
4 sinh^2(dz/2); its dz^4 excess picks up a finite factor exp(-1/(16 a))
in the continuum limit under the path measure, i.e. it converges to the
wrong kernel, which the convergence study here detects.)

Conditionally on the heights the x-sector composes in closed form, so the
Monte Carlo estimator samples only the height path (a Brownian bridge in
z, which matches the z-sector exactly) and averages the composed
x-factor.  A bridge read at every k-th point of a finer grid is exactly
the bridge on the coarser grid, so ``lattice_rows`` groups the slice
counts into chains that divide a finest count L and runs one serial pass
per chain, every count reading the same paths.  The paths come in
sign-flip groups: the bridge is its linear mean plus a deviation d = d_A +
d_B, split by the parity of the step whose normal enters it, and the four
paths mean +- d_A +- d_B are all exact samples, so one normal vector serves
four paths (two, mean +- d, for a bridge of one step), and the se is taken
over the group means.  A chain draws from SFC64 seeded by (seed, L) alone,
and samples in the first point's frame, where y1 = 1 and x1 = 0.  The
N = 1 value coincides with the bare short-time factor, and the N = 2
nested-quadrature route keeps the x integral explicit so the Gaussian
reduction itself is cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import HoricyclicPoint, in_first_frame
from .kernels import EvalParams
from .quadrature import QuadratureSpec, _pointwise, integrate_one, integrate_tanh_sinh

__all__ = ["LatticeSpec", "lattice_kernel", "lattice_rows", "convergence_order"]

# paths per block of the bridge pass
_MC_PATHS = 1 << 14


@dataclass(frozen=True)
class LatticeSpec:
    """Slice count, integration method and sampling budget.

    ``samples`` counts Monte Carlo paths; they are drawn as
    ceil(samples / g) sign-flip groups of g = 4 paths (g = 2 at N = 2
    alone), so no budget is undershot.
    """

    n_slices: int
    method: str = "monte_carlo"
    samples: int = 200_000
    seed: int = 0

    def __post_init__(self):
        if self.n_slices < 1:
            raise ValueError("need at least one slice")
        if self.method not in ("monte_carlo", "nested_quadrature"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "monte_carlo" and self.samples < 10_000:
            raise ValueError("Monte Carlo runs need at least 1e4 samples")
        if self.method == "nested_quadrature" and self.n_slices > 3:
            raise ValueError("nested quadrature is limited to N <= 3")
        if self.method == "monte_carlo" and self.n_slices > 64:
            raise ValueError("Monte Carlo runs are limited to N <= 64")


def _slice_factor(params: EvalParams, eps: float, qa: HoricyclicPoint, qb: HoricyclicPoint) -> float:
    p_eps = params.with_tau(eps)
    a_eps = p_eps.a
    dz = math.log(qb.y / qa.y)
    r2 = sum((u - v) ** 2 for u, v in zip(qa.x, qb.x))
    expo = -a_eps * (dz * dz + r2 / (qa.y * qb.y)) + p_eps.E
    return (a_eps / math.pi) ** ((params.D - 1) / 2.0) * math.exp(expo)


def _chains(n_list: Sequence[int]) -> list[list[int]]:
    """The distinct slice counts N >= 2 of n_list in descending order, each
    in the first chain whose finest count it divides, else in a new one."""
    chains: list[list[int]] = []
    for n in sorted({n for n in n_list if n > 1}, reverse=True):
        home = next((c for c in chains if c[0] % n == 0), None)
        if home is None:
            chains.append([n])
        else:
            home.append(n)
    return chains


def _chain_rows(params: EvalParams, q1: HoricyclicPoint, q2: HoricyclicPoint, chain: list[int],
                samples: int, seed: int) -> dict[int, tuple[float, float]]:
    """(value, se) of each slice count of one chain, from ceil(samples / g)
    sign-flip groups of g paths each.

    One Brownian bridge in z at the chain's finest count L (staging, with
    per-step variance 1/(2 a L)) samples the z-sector slice Gaussians
    exactly, so the weight is just the composed x-factor
    (A/pi)^((D-2)/2) exp(-A R^2) with A = a_N / sum_n y_n y_(n+1), where
    a count N reads the heights at every (L/N)-th point.  The bridge is its
    linear mean plus a deviation d = d_A + d_B, where d_A takes only the
    odd steps' normals and d_B only the even steps'.  Flipping the sign of
    either part flips a block of independent normals, so a group is the
    g = 4 paths mean +- d_A +- d_B, all exact samples drawn from one normal
    vector (g = 2, the pair mean +- d, when L = 2 leaves d_B empty).  A
    group contributes the mean of its weights, and the se is the spread of
    the group means.
    """
    big_l, p = chain[0], (params.D - 2) / 2.0
    z0, z1 = math.log(q1.y), math.log(q2.y)
    r2 = sum((u - v) ** 2 for u, v in zip(q1.x, q2.x))
    var_step = 1.0 / (2.0 * params.a * big_l)
    g = 2 ** min(2, big_l - 1)
    width = _MC_PATHS // g  # groups per block
    groups = -(-samples // g)
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed & 0xFFFFFFFFFFFFFFFF, big_l))))
    normal = np.empty(width)
    # d_A + d_B, and d_A - d_B when g = 4: the parts follow the same
    # recurrence, and an even step's normal enters the second with a minus
    dev = np.empty((g // 2, width))
    y = np.empty((g, width))  # heights of the paths mean + dev, then mean - dev
    # per count: the heights at its last point read, its sums of
    # y_n y_(n+1), and the sums of the group mean and of its square so far
    last, sumyy = ({n: np.empty((g, width)) for n in chain} for _ in range(2))
    sums = {n: np.zeros(2) for n in chain}
    for start in range(0, groups, width):
        m = min(width, groups - start)
        db, nb, yb = dev[:, :m], normal[:m], y[:, :m]
        ep, em = yb[: g // 2], yb[g // 2:]  # y = exp(mean) exp(+-dev)
        db.fill(0.0)
        for n in chain:
            last[n][:, :m], sumyy[n][:, :m] = q1.y, 0.0
        for i in range(1, big_l + 1):
            if i < big_l:  # d = d (remaining - 1) / remaining + std * normal
                remaining = big_l - i + 1
                rng.standard_normal(out=nb)
                nb *= math.sqrt(var_step * (remaining - 1) / remaining)
                db *= (remaining - 1) / remaining
                if i % 2:
                    db += nb
                else:
                    db[0] += nb
                    db[1] -= nb
                np.exp(db, out=ep)
                mean_y = math.exp(z0 + (z1 - z0) * i / big_l)
                np.divide(mean_y, ep, out=em)
                ep *= mean_y
            else:
                yb.fill(q2.y)
            for n in (n for n in chain if i % (big_l // n) == 0):
                lb, sb = last[n][:, :m], sumyy[n][:, :m]
                lb *= yb
                sb += lb
                lb[:] = yb
        for n in chain:
            big_a, w = sumyy[n][:, :m], last[n][:, :m]
            np.divide(params.a * n, big_a, out=big_a)
            np.multiply(big_a, -r2, out=w)
            np.exp(w, out=w)
            w *= np.power(big_a * (1.0 / math.pi), p, out=big_a)
            group = np.sum(w, axis=0, out=big_a[0])
            group *= 1.0 / g
            sums[n] += (group.sum(), np.square(group, out=w[0]).sum())
    const = math.sqrt(params.a / math.pi) * math.exp(-params.a * (z1 - z0) ** 2 + params.E) * (q1.y * q2.y) ** p
    rows = {}
    for n, total in sums.items():
        mean, mean_sq = (total / groups).tolist()
        rows[n] = (const * mean, const * math.sqrt(max(mean_sq - mean * mean, 0.0) / groups))
    return rows


def _framed_points(params: EvalParams, q1: HoricyclicPoint,
                   q2: HoricyclicPoint) -> tuple[HoricyclicPoint, HoricyclicPoint]:
    """The pair in q1's frame (``in_first_frame``), an isometry that keeps
    every bit at y1 = 1, x1 = 0, once both points are checked to lie in D."""
    if q1.dim != params.D or q2.dim != params.D:
        raise ValueError("point dimension does not match params.D")
    return in_first_frame(q1, q2)


def lattice_rows(params: EvalParams, q1: HoricyclicPoint, q2: HoricyclicPoint, n_list: Sequence[int],
                 samples: int, seed: int) -> list[tuple[float, float]]:
    """Monte Carlo N-slice estimates (value, se) of the kernel between two
    points, one per entry of n_list, in order: one serial bridge pass of
    ceil(samples / g) sign-flip groups of g paths per chain (``_chains``),
    with the se over the groups; g is 4, or 2 for a chain whose finest
    count is 2.  The chains sample in q1's frame (``in_first_frame``).
    N = 1 is the bare short-time factor, exactly."""
    for n in n_list:
        LatticeSpec(n, samples=samples, seed=seed)  # validates each count and the budget
    q1, q2 = _framed_points(params, q1, q2)
    rows = {1: (_slice_factor(params, params.tau, q1, q2), 0.0)}
    for chain in _chains(n_list):
        rows.update(_chain_rows(params, q1, q2, chain, samples, seed))
    return [rows[n] for n in n_list]


def _lattice_nested(
    params: EvalParams,
    q1: HoricyclicPoint,
    q2: HoricyclicPoint,
    spec: LatticeSpec,
) -> tuple[float, float]:
    """N = 2: full (z, x) interior integral; N = 3: heights only, with the
    x-sector composed in closed form (its exactness is itself tested
    against the N = 2 route)."""
    if params.D != 3:
        raise ValueError("nested quadrature is implemented for D = 3")
    n = spec.n_slices
    eps = params.tau / n
    a_eps = params.a * n
    qspec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-30)
    z0, z1 = math.log(q1.y), math.log(q2.y)
    half_z = 0.5 * abs(z1 - z0) + 9.0 * math.sqrt(n / (2.0 * a_eps))
    zc = 0.5 * (z0 + z1)
    z_lo, z_hi = zc - half_z, zc + half_z

    if n == 2:
        x0, x1 = q1.x[0], q2.x[0]

        def inner(z: float) -> float:
            y = math.exp(z)
            # the two slice Gaussians in x have rates a_eps/(y y') and
            # a_eps/(y y''): window around their product's mean
            rate0 = a_eps / (y * q1.y)
            rate1 = a_eps / (y * q2.y)
            xc = (rate0 * x0 + rate1 * x1) / (rate0 + rate1)
            half_x = abs(x1 - x0) + 10.0 / math.sqrt(rate0 + rate1)

            def f(x: float) -> float:
                mid = HoricyclicPoint(y, (x,))
                return _slice_factor(params, eps, q1, mid) * _slice_factor(params, eps, mid, q2)

            val, _ = integrate_one(integrate_tanh_sinh, _pointwise(f), xc - half_x, xc + half_x, qspec)
            return math.exp(-z) * val

        return integrate_one(integrate_tanh_sinh, _pointwise(inner), z_lo, z_hi, qspec)

    # n == 3, heights only
    front = (a_eps / math.pi) ** 1.5 * math.sqrt(q1.y * q2.y) * math.exp(params.E)
    r2 = (q2.x[0] - q1.x[0]) ** 2

    def z_weight(za: float, zb: float) -> float:
        return (zb - za) ** 2

    def inner(za: float, zb: float) -> float:
        s = z_weight(z0, za) + z_weight(za, zb) + z_weight(zb, z1)
        sumyy = math.exp(z0 + za) + math.exp(za + zb) + math.exp(zb + z1)
        big_a = a_eps / sumyy
        return math.sqrt(big_a / math.pi) * math.exp(-a_eps * s - big_a * r2)

    def outer(za: float) -> float:
        val, _ = integrate_one(integrate_tanh_sinh, _pointwise(lambda zb: inner(za, zb)), z_lo, z_hi, qspec)
        return val

    value, err = integrate_one(integrate_tanh_sinh, _pointwise(outer), z_lo, z_hi, qspec)
    return front * value, front * err


def lattice_kernel(
    params: EvalParams,
    q1: HoricyclicPoint,
    q2: HoricyclicPoint,
    spec: LatticeSpec,
) -> tuple[float, float]:
    """N-slice lattice estimate of the kernel between two points: the
    one-count view of ``lattice_rows``, or the nested-quadrature route."""
    if spec.method == "monte_carlo":
        return lattice_rows(params, q1, q2, [spec.n_slices], spec.samples, spec.seed)[0]
    q1, q2 = _framed_points(params, q1, q2)
    if spec.n_slices == 1:
        return _slice_factor(params, params.tau, q1, q2), 0.0
    return _lattice_nested(params, q1, q2, spec)


def convergence_order(devs: Sequence[tuple[int, float]]) -> float:
    """Least-squares slope of log|deviation| against log(1/N), over at least
    two distinct N."""
    if len({n for n, _ in devs}) < 2:
        raise ValueError("a convergence order needs deviations at two or more distinct slice counts")
    xs = np.log([1.0 / n for n, _ in devs])
    ys = np.log([abs(d) for _, d in devs])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)
