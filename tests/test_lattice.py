import math
import statistics

import pytest

from pseudoheat.geometry import HoricyclicPoint, geodesic_distance
from pseudoheat.kernels import EvalParams, kernel
from pseudoheat.lattice import (
    LatticeSpec,
    _chains,
    _slice_factor,
    convergence_order,
    lattice_kernel,
    lattice_rows,
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
    # the oracle runs at any D, at points of that D's own space
    with pytest.raises(ValueError):
        lattice_kernel(EvalParams(6, 0.25), Q1, Q2, LatticeSpec(2))  # 3d points
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


def test_chain_head_row_is_bit_equal_to_the_one_count_view():
    # a chain's stream depends only on (seed, L), and its finest count reads
    # every point of the bridge, as the one-count view does
    rows = lattice_rows(P3, Q1, Q2, [8, 4, 2], samples=50_000, seed=5)
    assert rows[0] == lattice_kernel(P3, Q1, Q2, LatticeSpec(8, samples=50_000, seed=5))


def test_chain_rows_agree_with_their_one_count_views():
    rows = lattice_rows(P3, Q1, Q2, [2, 4, 8, 16], samples=100_000, seed=7)
    for n, (value, err) in zip([2, 4, 8, 16], rows):
        alone, alone_err = lattice_kernel(P3, Q1, Q2, LatticeSpec(n, samples=100_000, seed=7))
        assert abs(value - alone) <= 5.0 * math.hypot(err, alone_err), n


def test_duplicate_counts_give_identical_rows():
    rows = lattice_rows(P3, Q1, Q2, [4, 8, 4, 1, 1], samples=20_000, seed=3)
    assert rows[0] == rows[2] and rows[3] == rows[4]
    assert rows[3] == (_slice_factor(P3, 0.25, Q1, Q2), 0.0)


def test_counts_that_do_not_divide_form_separate_chains():
    assert _chains([3, 4]) == [[4], [3]]
    assert _chains([2, 4, 3, 6, 12, 4, 1]) == [[12, 6, 4, 3, 2]]
    assert _chains([8, 6, 4, 3]) == [[8, 4], [6, 3]]
    rows = lattice_rows(P3, Q1, Q2, [3, 4], samples=20_000, seed=2)
    assert rows[0] == lattice_kernel(P3, Q1, Q2, LatticeSpec(3, samples=20_000, seed=2))
    assert rows[1] == lattice_kernel(P3, Q1, Q2, LatticeSpec(4, samples=20_000, seed=2))


def test_pair_se_is_honest_and_smaller_than_plain_monte_carlo():
    # the spread of the values over seeds matches the reported se, which is
    # taken over antithetic pairs, not over their correlated halves
    rows = [lattice_rows(P3, Q1, Q2, [8], samples=20_000, seed=seed)[0] for seed in range(30)]
    ratio = statistics.stdev(v for v, _ in rows) / statistics.median(e for _, e in rows)
    assert 0.6 <= ratio <= 1.6, ratio
    # plain Monte Carlo over single paths gave a relative se of about 3.8e-4 here
    (value, err), = lattice_rows(P3, Q1, Q2, [32], samples=200_000, seed=0)
    assert err / value < 3.8e-4 / 3.0, err / value


def test_one_step_chain_keeps_honest_pairs():
    # N = 2 alone is a bridge of one step, one normal per path: its groups
    # are the pairs mean +- d, and their se matches the spread over seeds
    rows = [lattice_rows(P3, Q1, Q2, [2], samples=20_000, seed=seed)[0] for seed in range(30)]
    ratio = statistics.stdev(v for v, _ in rows) / statistics.median(e for _, e in rows)
    assert 0.6 <= ratio <= 1.6, ratio


# Median relative se at N = 32 over seeds 0-4 at 200_000 samples, default
# points, tau 0.25, counts [4, 8, 16, 32], as measured with antithetic pairs
# (one normal vector per two paths) before the sign-flip groups of four.
PAIR_SCHEME_REL_SE_AT_32 = {3: 5.858978e-05, 4: 2.398672e-04}


@pytest.mark.parametrize("dim", [3, 4])
def test_groups_keep_the_pair_scheme_se_at_the_workload_points(dim):
    # four paths per normal vector cost no accuracy at the benchmark's points
    params = EvalParams(dim, 0.25)
    q1, q2 = HoricyclicPoint(1.0, (0.0,) * (dim - 2)), HoricyclicPoint(1.2, (0.3,) + (0.0,) * (dim - 3))
    rel = []
    for seed in range(5):
        value, err = lattice_rows(params, q1, q2, [4, 8, 16, 32], samples=200_000, seed=seed)[-1]
        rel.append(err / value)
    assert statistics.median(rel) <= 1.02 * PAIR_SCHEME_REL_SE_AT_32[dim], rel


@pytest.mark.parametrize("dim", [3, 6])
@pytest.mark.parametrize("scale", [1e100, 1e-100])
def test_rows_are_invariant_under_dilation(dim, scale):
    # the kernel is invariant under (y, x) -> (y, x - x1) / y1; the rows are
    # sampled in q1's frame, so heights far from 1 overflow no product
    params = EvalParams(dim, 0.25)
    x2 = (0.3,) + (0.0,) * (dim - 3)
    unscaled = lattice_rows(params, HoricyclicPoint(1.0, (0.0,) * (dim - 2)), HoricyclicPoint(1.2, x2),
                            [1, 2, 4], samples=10_000, seed=9)
    scaled = lattice_rows(params, HoricyclicPoint(scale, (0.0,) * (dim - 2)),
                          HoricyclicPoint(1.2 * scale, tuple(scale * v for v in x2)),
                          [1, 2, 4], samples=10_000, seed=9)
    for (v, e), (vs, es) in zip(unscaled, scaled):
        assert vs == pytest.approx(v, rel=1e-12, abs=0.0) and es == pytest.approx(e, rel=1e-12, abs=0.0)


def test_odd_budget_runs_the_groups_that_cover_it():
    # 10_001 paths are 2_501 groups of four, as are 10_002; 10_000 are one
    # group fewer
    rows = lattice_rows(P3, Q1, Q2, [4, 8], samples=10_001, seed=4)
    assert rows == lattice_rows(P3, Q1, Q2, [4, 8], samples=10_001, seed=4)
    assert all(math.isfinite(v) and math.isfinite(e) and e > 0.0 for v, e in rows), rows
    assert rows == lattice_rows(P3, Q1, Q2, [4, 8], samples=10_002, seed=4)
    assert rows != lattice_rows(P3, Q1, Q2, [4, 8], samples=10_000, seed=4)


def test_fitted_order_on_shared_paths_at_d4():
    params = EvalParams(4, 0.25)
    q1, q2 = HoricyclicPoint(1.0, (0.0, 0.0)), HoricyclicPoint(1.2, (0.3, -0.2))
    closed = kernel(params, geodesic_distance(q1, q2)).value
    slices = [4, 8, 16, 32]
    for seed in range(5):
        rows = lattice_rows(params, q1, q2, slices, samples=1_000_000, seed=seed)
        order = convergence_order([(n, value / closed - 1.0) for n, (value, _) in zip(slices, rows)])
        assert order >= 0.8, (seed, order)


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
