import pytest

from pseudoheat.geometry import HoricyclicPoint, geodesic_distance
from pseudoheat.kernels import EvalParams, kernel
from pseudoheat.lattice import (
    LatticeSpec,
    _slice_factor,
    convergence_order,
    lattice_kernel,
)

Q1 = HoricyclicPoint(1.0, (0.0,))
Q2 = HoricyclicPoint(1.2, (0.3,))
P3 = EvalParams(3, 0.25)


def test_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(0)
    with pytest.raises(ValueError):
        LatticeSpec(4, method="montecarlo")
    with pytest.raises(ValueError):
        LatticeSpec(4, samples=100)
    with pytest.raises(ValueError):
        LatticeSpec(4, method="nested_quadrature")
    with pytest.raises(ValueError):
        LatticeSpec(128)


def test_dimension_guards():
    with pytest.raises(ValueError):
        lattice_kernel(EvalParams(6, 0.25), Q1, Q2, LatticeSpec(2))
    with pytest.raises(ValueError):
        lattice_kernel(EvalParams(4, 0.25), Q1, Q2, LatticeSpec(2))  # 3d points


def test_single_slice_is_the_short_time_factor():
    value, err = lattice_kernel(P3, Q1, Q2, LatticeSpec(1))
    assert err == 0.0
    assert value == _slice_factor(P3, 0.25, Q1, Q2)


def test_nested_matches_monte_carlo_n2():
    # the nested route keeps the x integral explicit, so agreement checks the
    # exact Gaussian composition used by the Monte Carlo estimator
    vn, en = lattice_kernel(P3, Q1, Q2, LatticeSpec(2, method="nested_quadrature"))
    vm, em = lattice_kernel(P3, Q1, Q2, LatticeSpec(2, samples=200_000, seed=11))
    assert abs(vm - vn) <= 4.0 * em + en


def test_nested_matches_monte_carlo_n3():
    vn, en = lattice_kernel(P3, Q1, Q2, LatticeSpec(3, method="nested_quadrature"))
    vm, em = lattice_kernel(P3, Q1, Q2, LatticeSpec(3, samples=200_000, seed=12))
    assert abs(vm - vn) <= 4.0 * em + en


def test_monte_carlo_reproducible_and_seed_sensitive():
    spec = LatticeSpec(8, samples=50_000, seed=5)
    v1, e1 = lattice_kernel(P3, Q1, Q2, spec)
    v2, e2 = lattice_kernel(P3, Q1, Q2, spec)
    assert (v1, e1) == (v2, e2)
    v3, _ = lattice_kernel(P3, Q1, Q2, LatticeSpec(8, samples=50_000, seed=6))
    assert v3 != v1


def test_monte_carlo_thread_count_invariant():
    spec = LatticeSpec(8, samples=150_000, seed=5)
    v1, e1 = lattice_kernel(P3, Q1, Q2, spec, threads=1)
    v2, e2 = lattice_kernel(P3, Q1, Q2, spec, threads=2)
    assert (v1, e1) == (v2, e2)


def test_deviation_shrinks_with_slices():
    closed = kernel(P3, geodesic_distance(Q1, Q2)).value
    v4, _ = lattice_kernel(P3, Q1, Q2, LatticeSpec(4, samples=200_000, seed=3))
    v16, _ = lattice_kernel(P3, Q1, Q2, LatticeSpec(16, samples=200_000, seed=3))
    assert abs(v16 / closed - 1.0) < abs(v4 / closed - 1.0)


def test_convergence_order_fit_on_synthetic_data():
    devs = [(n, 0.5 / n) for n in (2, 4, 8, 16)]
    assert convergence_order(devs) == pytest.approx(1.0, abs=1e-12)
    for too_few in ([], [(4, 0.1)], [(4, 0.1), (4, 0.2)]):
        with pytest.raises(ValueError):
            convergence_order(too_few)
