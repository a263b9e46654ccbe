"""Half-space model of hyperbolic space in D-1 dimensions.

Points carry a height y > 0 and a flat coordinate vector x of length D-2,
so the ambient dimension D is len(x) + 2.  The metric is
(dy^2 + sum dx^2) / y^2.  Everything here is a pure function of its
inputs; points are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "HoricyclicPoint",
    "HyperboloidPoint",
    "IsometryRecord",
    "Translation",
    "Dilation",
    "Inversion",
    "to_hyperboloid",
    "from_hyperboloid",
    "geodesic_distance",
    "normalize_pair",
    "laplace_beltrami_apply",
    "laplace_beltrami_stencil",
    "laplace_beltrami_combine",
    "log_height",
    "minkowski_dot",
    "sphere_surface_area",
]

_EPS = 2.220446049250313e-16


def _arccosh_from_excess(u):
    """arccosh(1 + u) for u >= 0, a float or an array, accurate also for
    tiny u.  Two square roots: u (u + 2) overflows binary64 from u ~ 1e154
    (a distance of about 355), sqrt(u) sqrt(u + 2) only with u itself."""
    return np.log1p(u + np.sqrt(u) * np.sqrt(u + 2.0))


@dataclass(frozen=True)
class HoricyclicPoint:
    """Point (y, x^1..x^{D-2}) in the upper half-space, y > 0."""

    y: float
    x: tuple[float, ...]

    def __init__(self, y: float, x: Sequence[float]):
        y = float(y)
        if not (y > 0.0) or not math.isfinite(y):
            raise ValueError(f"half-space height must be positive and finite, got {y}")
        xt = tuple(float(v) for v in x)
        if len(xt) < 1:
            raise ValueError("need at least one flat coordinate (ambient dimension >= 3)")
        if not all(math.isfinite(v) for v in xt):
            raise ValueError("flat coordinates must be finite")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", xt)

    @property
    def dim(self) -> int:
        """Ambient dimension D."""
        return len(self.x) + 2


@dataclass(frozen=True)
class HyperboloidPoint:
    """Point Z^0..Z^{D-1} on the upper sheet of the unit hyperboloid."""

    z: tuple[float, ...]

    def __init__(self, z: Sequence[float]):
        zt = tuple(float(v) for v in z)
        if len(zt) < 3:
            raise ValueError("hyperboloid points need at least 3 components")
        if zt[0] <= 0.0:
            raise ValueError("not on the upper sheet (Z^0 <= 0)")
        sq = sum(v * v for v in zt)
        defect = zt[0] * zt[0] - sum(v * v for v in zt[1:]) - 1.0
        # 1e-12 for moderate points; scale with the squared magnitudes so that
        # legitimate far-out points are not rejected for pure rounding.
        tol = max(1e-12, 64.0 * _EPS * sq)
        if abs(defect) > tol:
            raise ValueError(f"hyperboloid constraint violated by {defect:g}")
        object.__setattr__(self, "z", zt)

    @property
    def dim(self) -> int:
        return len(self.z)


def minkowski_dot(p1: HyperboloidPoint, p2: HyperboloidPoint) -> float:
    """Z1^0 Z2^0 - sum_i Z1^i Z2^i."""
    a, b = p1.z, p2.z
    return a[0] * b[0] - sum(u * v for u, v in zip(a[1:], b[1:]))


def to_hyperboloid(q: HoricyclicPoint) -> HyperboloidPoint:
    """Embed a half-space point into the ambient hyperboloid."""
    y = q.y
    w = y * y + sum(v * v for v in q.x)
    z0 = (1.0 + w) / (2.0 * y)
    z1 = (1.0 - w) / (2.0 * y)
    rest = tuple(v / y for v in q.x)
    return HyperboloidPoint((z0, z1) + rest)


def from_hyperboloid(p: HyperboloidPoint) -> HoricyclicPoint:
    """Inverse of :func:`to_hyperboloid`; requires Z^0 + Z^1 > 0."""
    den = p.z[0] + p.z[1]
    if den <= 0.0:
        raise ValueError("point not representable with y > 0 (Z^0 + Z^1 <= 0)")
    y = 1.0 / den
    return HoricyclicPoint(y, tuple(y * v for v in p.z[2:]))


def _check_same_dim(q1: HoricyclicPoint, q2: HoricyclicPoint) -> None:
    if len(q1.x) != len(q2.x):
        raise ValueError("points have different ambient dimensions")


def distance_excess(q1: HoricyclicPoint, q2: HoricyclicPoint) -> float:
    """cosh(d) - 1, computed without cancellation."""
    _check_same_dim(q1, q2)
    r2 = sum((a - b) ** 2 for a, b in zip(q1.x, q2.x))
    dy = q2.y - q1.y
    return (r2 + dy * dy) / (2.0 * q1.y * q2.y)


def geodesic_distance(q1: HoricyclicPoint, q2: HoricyclicPoint) -> float:
    """Hyperbolic distance between two half-space points.

    Uses cosh(d) - 1 = (|x2-x1|^2 + (y2-y1)^2) / (2 y1 y2), which is a sum
    of squares, so the arccosh argument never falls below 1 and nearby
    points keep full relative accuracy.
    """
    return float(_arccosh_from_excess(distance_excess(q1, q2)))


def log_height(q: HoricyclicPoint) -> float:
    """z = ln y."""
    return math.log(q.y)


# --- isometries -------------------------------------------------------------

@dataclass(frozen=True)
class Translation:
    """x -> x + offset at fixed height."""

    offset: tuple[float, ...]

    def apply(self, q: HoricyclicPoint) -> HoricyclicPoint:
        return HoricyclicPoint(q.y, tuple(a + b for a, b in zip(q.x, self.offset)))


@dataclass(frozen=True)
class Dilation:
    """(y, x) -> lam * (y, x), lam > 0."""

    lam: float

    def apply(self, q: HoricyclicPoint) -> HoricyclicPoint:
        return HoricyclicPoint(self.lam * q.y, tuple(self.lam * v for v in q.x))


@dataclass(frozen=True)
class Inversion:
    """Euclidean inversion in the unit sphere centred at the boundary origin."""

    def apply(self, q: HoricyclicPoint) -> HoricyclicPoint:
        m = q.y * q.y + sum(v * v for v in q.x)
        return HoricyclicPoint(q.y / m, tuple(v / m for v in q.x))


@dataclass(frozen=True)
class IsometryRecord:
    """Ordered composition of half-space isometry generators."""

    ops: tuple[object, ...]

    def apply(self, q: HoricyclicPoint) -> HoricyclicPoint:
        for op in self.ops:
            q = op.apply(q)
        return q


def normalize_pair(
    q1: HoricyclicPoint, q2: HoricyclicPoint
) -> tuple[HoricyclicPoint, HoricyclicPoint, IsometryRecord]:
    """Move a pair of points onto the y-axis by a recorded isometry.

    The geodesic through the pair meets the boundary plane at two points
    b1, b2 (b2 = infinity for a vertical pair).  Sending b2 -> 0 by a
    translation, 0 -> infinity by the unit inversion, and the image of b1
    to 0 by a second translation maps the geodesic onto the vertical axis,
    hence both points acquire vanishing flat coordinates while every step
    is an isometry of the half-space metric.
    """
    _check_same_dim(q1, q2)
    n = len(q1.x)
    diff = tuple(b - a for a, b in zip(q1.x, q2.x))
    delta = math.sqrt(sum(v * v for v in diff))
    if delta == 0.0:
        if all(v == 0.0 for v in q1.x):
            rec = IsometryRecord(())
        else:
            rec = IsometryRecord((Translation(tuple(-v for v in q1.x)),))
        return rec.apply(q1), rec.apply(q2), rec

    e = tuple(v / delta for v in diff)
    t = (delta * delta + q2.y * q2.y - q1.y * q1.y) / (2.0 * delta)
    rho = math.hypot(t, q1.y)
    # boundary endpoints of the geodesic half-circle
    b1 = tuple(a + (t - rho) * u for a, u in zip(q1.x, e))
    b2 = tuple(a + (t + rho) * u for a, u in zip(q1.x, e))
    back = tuple(u / (2.0 * rho) for u in e)  # image of b1 after the inversion, negated
    rec = IsometryRecord(
        (
            Translation(tuple(-v for v in b2)),
            Inversion(),
            Translation(back),
        )
    )
    return rec.apply(q1), rec.apply(q2), rec


# --- differential operator --------------------------------------------------

def laplace_beltrami_stencil(q: HoricyclicPoint, h: float) -> list[HoricyclicPoint]:
    """The 2(D-1)+1 points of the Laplace-Beltrami stencil at q with step h:
    q, then y + h and y - h, then x_mu + h and x_mu - h for each mu."""
    if h <= 0.0:
        raise ValueError("step size must be positive")
    if q.y - h <= 0.0:
        raise ValueError("stencil leaves the half-space (y - h <= 0)")
    points = [q, HoricyclicPoint(q.y + h, q.x), HoricyclicPoint(q.y - h, q.x)]
    for mu in range(q.dim - 2):
        xp = list(q.x)
        xp[mu] += h
        xm = list(q.x)
        xm[mu] -= h
        points += [HoricyclicPoint(q.y, xp), HoricyclicPoint(q.y, xm)]
    return points


def laplace_beltrami_combine(values: Sequence[float], q: HoricyclicPoint, h: float) -> float:
    """The operator at q from a field's values at the points of
    ``laplace_beltrami_stencil(q, h)``, in that order.

    Approximates y^2 (d^2/dy^2 + sum_mu d^2/dx_mu^2) f - (D-3) y df/dy;
    truncation error O(h^2).
    """
    c, up, dn, *flat = values
    lap = (up - 2.0 * c + dn) / (h * h)
    dy = (up - dn) / (2.0 * h)
    for fp, fm in zip(flat[::2], flat[1::2]):
        lap += (fp - 2.0 * c + fm) / (h * h)
    return q.y * q.y * lap - (q.dim - 3) * q.y * dy


def laplace_beltrami_apply(
    f: Callable[[HoricyclicPoint], float], q: HoricyclicPoint, h: float
) -> float:
    """Second-order central-difference Laplace-Beltrami operator at q: the
    scalar field f at the points of ``laplace_beltrami_stencil``, combined
    by ``laplace_beltrami_combine``."""
    return laplace_beltrami_combine([f(p) for p in laplace_beltrami_stencil(q, h)], q, h)


def sphere_surface_area(n: int) -> float:
    """Surface area of the unit n-sphere, 2 pi^((n+1)/2) / Gamma((n+1)/2)."""
    if n < 0:
        raise ValueError("sphere dimension must be nonnegative")
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)
