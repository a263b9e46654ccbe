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
x-factor.  The N = 1 value coincides with the bare short-time factor, and
the N = 2 nested-quadrature route keeps the x integral explicit so the
Gaussian reduction itself is cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from .geometry import HoricyclicPoint
from .kernels import EvalParams
from .quadrature import QuadratureSpec, _pointwise, integrate_tanh_sinh

__all__ = ["LatticeSpec", "lattice_kernel", "convergence_order"]

_MC_BLOCK = 1 << 16


@dataclass(frozen=True)
class LatticeSpec:
    """Slice count, integration method and sampling budget."""

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


def _mc_blocks(samples: int) -> list[tuple[int, int]]:
    out = []
    start = 0
    while start < samples:
        n = min(_MC_BLOCK, samples - start)
        out.append((start // _MC_BLOCK, n))
        start += n
    return out


def _mc_block_sums(
    params: EvalParams,
    z0: float,
    z1: float,
    r2: float,
    n_slices: int,
    seed: int,
    block_index: int,
    block_samples: int,
) -> tuple[float, float]:
    """Sum and sum of squares of the height-path weight over one block.

    The z-sector slice Gaussians are sampled exactly by the Brownian
    bridge (staging), so the weight is just the composed x-factor
    (A/pi)^((D-2)/2) exp(-A R^2) with A = a_eps / sum_n y_n y_(n+1).
    """
    n = n_slices
    a_eps = params.a * n
    var_step = 1.0 / (2.0 * a_eps)
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed & 0xFFFFFFFFFFFFFFFF, block_index], dtype=np.uint64))
    )
    z = np.full(block_samples, z0)
    y_prev = np.exp(z)
    sumyy = np.zeros(block_samples)
    for i in range(1, n):
        remaining = n - i + 1
        mean = z + (z1 - z) / remaining
        std = math.sqrt(var_step * (remaining - 1) / remaining)
        z = mean + std * rng.standard_normal(block_samples)
        y_next = np.exp(z)
        sumyy += y_prev * y_next
        y_prev = y_next
    sumyy += y_prev * math.exp(z1)
    big_a = a_eps / sumyy
    p = (params.D - 2) / 2.0
    w = (big_a / math.pi) ** p * np.exp(-big_a * r2)
    return float(np.sum(w)), float(np.sum(w * w))


def _lattice_monte_carlo(
    params: EvalParams,
    q1: HoricyclicPoint,
    q2: HoricyclicPoint,
    spec: LatticeSpec,
    threads: int,
) -> tuple[float, float]:
    z0, z1 = math.log(q1.y), math.log(q2.y)
    r2 = sum((u - v) ** 2 for u, v in zip(q1.x, q2.x))
    p = (params.D - 2) / 2.0
    const = (
        math.sqrt(params.a / math.pi)
        * math.exp(-params.a * (z1 - z0) ** 2 + params.E)
        * (q1.y * q2.y) ** p
    )
    blocks = _mc_blocks(spec.samples)

    def run(block: tuple[int, int]) -> tuple[float, float]:
        idx, n = block
        return _mc_block_sums(params, z0, z1, r2, spec.n_slices, spec.seed, idx, n)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            sums = list(pool.map(run, blocks))
    else:
        sums = [run(b) for b in blocks]
    total = 0.0
    total_sq = 0.0
    for s, s2 in sums:  # fixed reduction order: independent of thread count
        total += s
        total_sq += s2
    n = spec.samples
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return const * mean, const * math.sqrt(var / n)


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

            val, _ = integrate_tanh_sinh(_pointwise(f), xc - half_x, xc + half_x, qspec)
            return math.exp(-z) * val

        return integrate_tanh_sinh(_pointwise(inner), z_lo, z_hi, qspec)

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
        val, _ = integrate_tanh_sinh(_pointwise(lambda zb: inner(za, zb)), z_lo, z_hi, qspec)
        return val

    value, err = integrate_tanh_sinh(_pointwise(outer), z_lo, z_hi, qspec)
    return front * value, front * err


def lattice_kernel(
    params: EvalParams,
    q1: HoricyclicPoint,
    q2: HoricyclicPoint,
    spec: LatticeSpec,
    threads: int = 1,
) -> tuple[float, float]:
    """N-slice lattice estimate of the kernel between two points."""
    if params.D not in (3, 4):
        raise ValueError("lattice runs are kept desk-scale: D in {3, 4}")
    if q1.dim != params.D or q2.dim != params.D:
        raise ValueError("point dimension does not match params.D")
    if spec.n_slices == 1:
        return _slice_factor(params, params.tau, q1, q2), 0.0
    if spec.method == "nested_quadrature":
        return _lattice_nested(params, q1, q2, spec)
    return _lattice_monte_carlo(params, q1, q2, spec, threads)


def convergence_order(devs: Sequence[tuple[int, float]]) -> float:
    """Least-squares slope of log|deviation| against log(1/N), over at least
    two distinct N."""
    if len({n for n, _ in devs}) < 2:
        raise ValueError("a convergence order needs deviations at two or more distinct slice counts")
    xs = np.log([1.0 / n for n, _ in devs])
    ys = np.log([abs(d) for _, d in devs])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)
