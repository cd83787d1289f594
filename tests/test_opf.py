"""Dispatch problem assembly, solution, duals, partitions."""

import numpy as np
import pytest

from lmpspike import (GridCase, Generator, InfeasibleError, Line,
                      SingularActiveSetError, assemble_mpqp, compute_lmp,
                      licq_check, locate_region, lp, optimal_partition, qp,
                      solve_opf)
from lmpspike.grid import injections
from lmpspike.opf import (GEN_LOWER, GEN_UPPER, LINE_LOWER, LINE_UPPER,
                          OptimalPartition, parametric_kkt)

from oracles import brute_opf, phase1_point


def one_bus_two_units():
    case = GridCase(buses=(1,), lines=(),
                    generators=(Generator(1, 0.0, 10.0, 1.0, 0.0),
                                Generator(1, 0.0, 10.0, 1.0, 0.0)),
                    loads=np.array([10.0]), renewable_buses=(),
                    reference_bus=1)
    return assemble_mpqp(case)


# -- assembly -----------------------------------------------------------------

def test_row_count_formula(toy_hand):
    # 2 balance + 2m line + 2n_g bound rows
    assert toy_hand.n_rows == 2 + 2 * 1 + 2 * 2
    case = GridCase(buses=(1, 2), lines=(Line(1, 2, 1.0, f_min=-4.0, f_max=4.0),),
                    generators=(Generator(1, 0.0, 20.0, 1.0, 0.0),),
                    loads=np.array([0.0, 10.0]), renewable_buses=(2,),
                    reference_bus=1)
    problem = assemble_mpqp(case)
    assert problem.A.shape == (6, 1)
    assert problem.E.shape == (6, 1)


def test_balance_rows_are_opposed(toy_hand):
    assert np.array_equal(toy_hand.A[0], -toy_hand.A[1])
    assert np.array_equal(toy_hand.E[0], -toy_hand.E[1])
    assert toy_hand.b[0] == -toy_hand.b[1]


def test_generator_bound_rows_have_zero_parameter_block(toy2r):
    problem, _, _ = toy2r
    m = problem.m
    assert np.abs(problem.E[2 + 2 * m:]).max() == 0.0


def test_row_labels_layout(toy_hand):
    kinds = [lab.kind for lab in toy_hand.row_labels]
    assert kinds == ["balance+", "balance-", LINE_UPPER, LINE_LOWER,
                     GEN_UPPER, GEN_UPPER, GEN_LOWER, GEN_LOWER]


def test_case14_dimensions():
    from lmpspike import case14_path, derive_line_limits, load_case
    case = load_case(case14_path(), renewable_buses=[4, 5])
    problem = assemble_mpqp(derive_line_limits(case, 2.0, 0.6))
    assert problem.A.shape == (2 + 40 + 2 * case.n_g, case.n_g)
    assert problem.E.shape == (problem.A.shape[0], 2)


def test_missing_limits_rejected():
    from lmpspike.errors import CaseError
    case = GridCase(buses=(1, 2), lines=(Line(1, 2, 1.0),),
                    generators=(Generator(1, 0.0, 20.0, 1.0, 0.0),),
                    loads=np.array([0.0, 10.0]), renewable_buses=(),
                    reference_bus=1)
    with pytest.raises(CaseError, match="limits"):
        assemble_mpqp(case)


# -- solutions ----------------------------------------------------------------

def test_symmetric_units_split_evenly():
    problem = one_bus_two_units()
    sol = solve_opf(problem)
    assert np.allclose(sol.g_star, [5.0, 5.0], atol=1e-9)
    assert sol.lambda_energy == pytest.approx(5.0, abs=1e-9)
    lmp = compute_lmp(sol, problem.ptdf)
    assert np.allclose(lmp.values, [5.0], atol=1e-9)


def test_hand_solved_congested_dispatch(toy_hand):
    sol = solve_opf(toy_hand)
    flows = toy_hand.ptdf @ injections(toy_hand.case, sol.g_star, sol.theta)
    assert np.allclose(sol.g_star, [4.0, 6.0], atol=1e-9)
    assert sol.lambda_energy == pytest.approx(4.0, abs=1e-9)
    assert flows[0] == pytest.approx(4.0, abs=1e-9)
    assert sol.mu[0] == pytest.approx(-12.0, abs=1e-9)
    assert sol.objective == pytest.approx(0.5 * 16 + 0.5 * 36 + 60, abs=1e-9)
    lmp = compute_lmp(sol, toy_hand.ptdf)
    assert np.allclose(lmp.values, [4.0, 16.0], atol=1e-9)
    assert lmp.energy_component == pytest.approx(4.0)
    assert np.allclose(lmp.congestion_component, [0.0, 12.0], atol=1e-9)
    assert sol.kkt_residual < 1e-7


def test_uncongested_prices_are_uniform(toy2r):
    problem, _, _ = toy2r
    sol = solve_opf(problem, [8.0])  # line slack, unit 2 at its floor
    lmp = compute_lmp(sol, problem.ptdf)
    assert np.abs(lmp.values - lmp.values[0]).max() < 1e-9
    assert np.abs(sol.mu).max() < 1e-9


def test_infeasible_theta_raises(toy2r):
    problem, _, _ = toy2r
    with pytest.raises(InfeasibleError):
        solve_opf(problem, [15.0])  # renewable exceeds demand plus headroom


def _phase1_feasible(problem, theta):
    """The elastic phase-1 LP's verdict on the dispatch rows at theta."""
    try:
        phase1_point(np.ones((1, problem.n_g)), np.array([problem.net_demand(theta)]),
                     problem.A[2:], problem.b[2:] + problem.E[2:] @ theta)
    except InfeasibleError:
        return False
    return True


def _facet_offsets(theta_space, offset):
    """Points `offset` (relative) inside and outside each facet of the set."""
    poly = theta_space.normalized()
    for i in range(poly.n_rows):
        point = poly.facet_point(i)
        if point is not None:
            step = offset * (1.0 + np.abs(point).max()) * poly.G[i]
            yield point - step, point + step


def test_verdict_just_inside_and_outside_theta_space_facets(toy_ring):
    """Near a facet of the parameter set, solve_opf agrees with phase 1."""
    problem, theta_space, _ = toy_ring
    cut_off = 0
    for offset in (1e-6, 1e-3):
        for inside, outside in _facet_offsets(theta_space, offset):
            solve_opf(problem, inside)
            try:
                solve_opf(problem, outside)
                feasible = True
            except InfeasibleError:
                feasible = False
            assert feasible == _phase1_feasible(problem, outside)
            cut_off += not feasible
    assert cut_off >= 4  # two facets cut by the dispatch rows, not by the box


def test_qp_verdict_within_phase1_tolerance_of_theta_space_facets(toy_ring):
    """1e-8 outside a facet the dispatch rows are violated beyond the QP's
    stopping tolerance but within the phase-1 tolerance, so the QP sets the
    row aside and accepts the point, as phase 1 does."""
    problem, theta_space, _ = toy_ring
    for inside, outside in _facet_offsets(theta_space, 1e-8):
        for theta in (inside, outside):
            qp.solve_qp(problem.H, problem.h, A_eq=np.ones((1, problem.n_g)),
                        b_eq=[problem.net_demand(theta)], A_in=problem.A[2:],
                        b_in=problem.b[2:] + problem.E[2:] @ theta)
            assert _phase1_feasible(problem, theta)


class _LPCalled(Exception):
    pass


def test_dispatch_runs_no_lp(monkeypatch, toy_hand, toy2r, toy_ring):
    """No dispatch solve calls an LP, at degenerate points included."""
    from lmpspike import case14_path, derive_line_limits, load_case

    def no_lp(*args, **kwargs):
        raise _LPCalled

    monkeypatch.setattr(lp, "solve_lp", no_lp)
    case = derive_line_limits(load_case(case14_path(), renewable_buses=[4, 5]),
                              2.0, 0.6)
    case14 = assemble_mpqp(case)
    for theta in ([0.0, 0.0], [20.0, 30.0], [60.0, 20.0], [100.0, 100.0]):
        assert not solve_opf(case14, theta).degenerate
    assert not solve_opf(toy_hand).degenerate
    problem, _, _ = toy2r
    assert not solve_opf(problem, [8.0]).degenerate
    assert solve_opf(problem, [6.0]).degenerate
    ring, _, _ = toy_ring
    assert solve_opf(ring, [7.0, 7.0]).degenerate  # both units at their floor


def test_matches_bruteforce_on_random_feasible_points(toy_ring):
    problem, theta_space, _ = toy_ring
    rng = np.random.Generator(np.random.Philox(key=8))
    lo, hi = theta_space.bounding_box()
    checked = 0
    while checked < 200:
        theta = rng.uniform(lo, hi)
        if not theta_space.contains(theta, tol=-1e-9):
            continue
        sol = solve_opf(problem, theta)
        ref = brute_opf(problem, theta)
        assert ref is not None
        assert sol.objective == pytest.approx(ref[1], abs=1e-7)
        assert np.abs(sol.g_star - ref[0]).max() < 1e-6
        checked += 1


def test_kkt_quality_random_points(toy_ring):
    problem, theta_space, _ = toy_ring
    rng = np.random.Generator(np.random.Philox(key=9))
    lo, hi = theta_space.bounding_box()
    checked = 0
    while checked < 1000:
        theta = rng.uniform(lo, hi)
        if not theta_space.contains(theta, tol=-1e-9):
            continue
        sol = solve_opf(problem, theta)
        assert sol.kkt_residual < 1e-7 * (1.0 + np.abs(problem.b).max())
        flows = problem.ptdf @ injections(problem.case, sol.g_star, theta)
        # complementary slackness: nonzero congestion dual iff at a limit
        for k, ln in enumerate(problem.case.lines):
            at_limit = (abs(flows[k] - ln.f_max) < 1e-6
                        or abs(flows[k] - ln.f_min) < 1e-6)
            if abs(sol.mu[k]) > 1e-7:
                assert at_limit
            if min(flows[k] - ln.f_min, ln.f_max - flows[k]) > 1e-6:
                assert abs(sol.mu[k]) <= 1e-7
        checked += 1


def test_objective_convex_along_segments(toy_ring):
    problem, theta_space, _ = toy_ring
    rng = np.random.Generator(np.random.Philox(key=10))
    lo, hi = theta_space.bounding_box()
    pairs = 0
    while pairs < 50:
        a, b = rng.uniform(lo, hi, size=(2, 2))
        if not (theta_space.contains(a, tol=-1e-9)
                and theta_space.contains(b, tol=-1e-9)):
            continue
        ja = solve_opf(problem, a).objective
        jb = solve_opf(problem, b).objective
        jm = solve_opf(problem, 0.5 * (a + b)).objective
        assert jm <= 0.5 * (ja + jb) + 1e-9 * (1.0 + abs(ja) + abs(jb))
        pairs += 1


def test_price_equals_marginal_cost_of_demand(toy_ring):
    """Finite-difference check of the price definition, 20 interior points."""
    problem, theta_space, decomp = toy_ring
    from dataclasses import replace
    rng = np.random.Generator(np.random.Philox(key=12))
    case = problem.case
    delta = 1e-4
    checked = 0
    while checked < 20:
        theta = rng.uniform(*theta_space.bounding_box())
        region = next((r for r in decomp.regions
                       if r.polytope.contains(theta, tol=-1e-6)), None)
        if region is None:
            continue
        node = int(rng.integers(case.n))
        sol = solve_opf(problem, theta)
        lmp = compute_lmp(sol, problem.ptdf).values[node]
        bumped_loads = case.loads.copy()
        bumped_loads[node] += delta
        bumped = assemble_mpqp(replace(case, loads=bumped_loads))
        fd = (solve_opf(bumped, theta).objective - sol.objective) / delta
        assert fd == pytest.approx(lmp, rel=1e-3, abs=1e-6)
        checked += 1


def test_warm_start_is_bitwise_path_independent(toy_ring):
    problem, theta_space, _ = toy_ring
    theta = theta_space.chebyshev()[0]
    cold = solve_opf(problem, theta)
    nearby = solve_opf(problem, theta + 1e-3)
    warm = solve_opf(problem, theta)
    assert np.array_equal(cold.g_star, warm.g_star)
    assert cold.lambda_energy == warm.lambda_energy
    assert np.array_equal(cold.row_duals, warm.row_duals)


# -- partitions and rank condition ---------------------------------------------

def test_partition_uncongested(toy2r):
    problem, _, _ = toy2r
    sol = solve_opf(problem, [8.0])
    part = optimal_partition(sol, problem)
    # balance plus the bus-2 unit pinned at zero output
    assert part.binding == (0, 7)
    assert part.b_cong == ()
    assert part.b_sat == (7,)


def test_partition_congested(toy_hand):
    sol = solve_opf(toy_hand)
    part = optimal_partition(sol, toy_hand)
    assert part.binding == (0, 2)
    assert part.b_cong == (2,)


def test_partition_on_facet_sees_both_sides(toy2r):
    problem, _, _ = toy2r
    sol = solve_opf(problem, [6.0])  # the split point of the two pieces
    part = optimal_partition(sol, problem)
    assert set(part.binding) >= {0, 2, 7}


def test_jump_face_takes_adjacent_region_price(toy2r):
    """Just below the jump at theta = 6 the degenerate solve follows the
    region map; at 6 itself it takes the congested side {0,2}, a valid
    price there although `locate` picks the other side by its tie rule."""
    problem, _, decomp = toy2r
    for theta in (6.0 - 1e-9, 6.0 - 1e-8):
        sol = solve_opf(problem, [theta])
        assert sol.degenerate
        np.testing.assert_allclose(compute_lmp(sol, problem.ptdf).values,
                                   locate_region(decomp, [theta])[1],
                                   rtol=0.0, atol=1e-9)
    sol = solve_opf(problem, [6.0])
    assert sol.degenerate
    price = compute_lmp(sol, problem.ptdf).values
    np.testing.assert_allclose(price, decomp.by_key()[(0, 2)].lmp_at([6.0]),
                               rtol=0.0, atol=1e-9)
    again = solve_opf(problem, [6.0])
    assert np.array_equal(sol.row_duals, again.row_duals)
    assert np.array_equal(sol.g_star, again.g_star)
    assert np.array_equal(price, compute_lmp(again, problem.ptdf).values)


def test_points_at_the_all_floor_facet_get_the_region_price(toy_ring):
    """On theta1 + theta2 = 14 both units sit at their floor, so the energy
    dual alone is not pinned down; seeded points on that facet of the
    parameter set, up to 1e-8 inside, still get `locate_region`'s price."""
    problem, theta_space, decomp = toy_ring
    poly = theta_space.normalized()
    row = int(np.argmax(poly.G @ np.array([1.0, 1.0])))
    verts = theta_space.vertices()
    ends = verts[np.abs(verts @ poly.G[row] - poly.w[row]) <= 1e-9]
    assert ends.shape[0] == 2 and np.allclose(ends.sum(axis=1), 14.0)
    rng = np.random.Generator(np.random.Philox(key=14))
    for t, jitter in zip(rng.uniform(size=40), rng.uniform(0.0, 1e-8, 40)):
        point = ends[0] + t * (ends[1] - ends[0])
        for step in (0.0, 1e-10, 1e-9, 1e-8, jitter):
            theta = point - step * poly.G[row]
            sol = solve_opf(problem, theta)
            assert sol.degenerate
            np.testing.assert_allclose(compute_lmp(sol, problem.ptdf).values,
                                       locate_region(decomp, theta)[1],
                                       rtol=0.0, atol=1e-9)


def test_degenerate_facet_points_price_an_adjacent_region(study14):
    """Each region facet point of the bundled study, stepped 0, 1e-9 and
    1e-8 into its region, solves; a degenerate solve's price is the map of
    some region whose closure holds the point."""
    problem, decomp = study14.problem, study14.decomposition
    degenerate = 0
    for region in decomp.regions:
        poly = region.polytope.normalized()
        for i in range(poly.n_rows):
            point = poly.facet_point(i)
            if point is None:
                continue
            for step in (0.0, 1e-9, 1e-8):
                theta = point - step * poly.G[i]
                sol = solve_opf(problem, theta)
                if not sol.degenerate:
                    continue
                degenerate += 1
                price = compute_lmp(sol, problem.ptdf).values
                gap = min((np.abs(r.lmp_at(theta) - price).max()
                           for r in decomp.regions
                           if r.polytope.contains(theta, tol=1e-7)),
                          default=np.inf)
                assert gap <= 1e-6, (region.id, i, step)
    assert degenerate


def test_licq_counting():
    part = OptimalPartition((0,), (), ())
    assert licq_check(part, 2)
    part = OptimalPartition((0, 2, 7), (2,), (7,))
    assert not licq_check(part, 2)  # 1 + 2 > 2
    assert licq_check(part, 3)


def test_parametric_kkt_rejects_dependent_rows(toy_hand):
    # upper and lower rows of one line are negatives: rank deficient
    with pytest.raises(SingularActiveSetError):
        parametric_kkt(toy_hand, (2, 3))
