"""Critical-region enumeration, maps, location and persistence."""

import numpy as np
import pytest

from lmpspike import (GridCase, Generator, InfeasibleError, Line,
                      SingularActiveSetError, assemble_mpqp, compute_lmp,
                      enumerate_regions, feasible_set, load_decomposition,
                      locate, locate_region, optimal_partition,
                      region_lmp_map, save_decomposition, solve_opf)
from lmpspike.opf import OptimalPartition

from oracles import (distinct_interior_partitions, grid_partition_map,
                     locate_brute, toy2r_lmp)


# -- feasible parameter set ----------------------------------------------------

def test_single_unit_interval():
    # one unit in [0, 10] against demand 5: injections feasible on [0, 5]
    # within the box (balance pins g = 5 - theta >= 0)
    case = GridCase(buses=(1,), lines=(),
                    generators=(Generator(1, 0.0, 10.0, 1.0, 0.0),),
                    loads=np.array([5.0]), renewable_buses=(1,),
                    reference_bus=1)
    problem = assemble_mpqp(case)
    theta = feasible_set(problem, [0.0], [50.0])
    lo, hi = theta.bounding_box()
    assert lo[0] == pytest.approx(0.0, abs=1e-9)
    assert hi[0] == pytest.approx(5.0, abs=1e-9)


def test_infeasible_box_raises():
    case = GridCase(buses=(1,), lines=(),
                    generators=(Generator(1, 0.0, 10.0, 1.0, 0.0),),
                    loads=np.array([5.0]), renewable_buses=(1,),
                    reference_bus=1)
    problem = assemble_mpqp(case)
    with pytest.raises(InfeasibleError):
        feasible_set(problem, [20.0], [50.0])


def test_toy2r_parameter_interval(toy2r):
    _, theta_space, _ = toy2r
    lo, hi = theta_space.bounding_box()
    assert lo[0] == pytest.approx(0.0, abs=1e-9)
    assert hi[0] == pytest.approx(10.0, abs=1e-9)


def test_projection_matches_direct_feasibility(toy_ring):
    """Membership in the projection agrees with solving the dispatch problem."""
    problem, theta_space, _ = toy_ring
    rng = np.random.Generator(np.random.Philox(key=21))
    lo, hi = theta_space.bounding_box()
    margin = 0.2 * (hi - lo)
    in_box = lambda th: bool(np.all(th >= 0.0) and np.all(th <= 30.0))
    for _ in range(100):
        theta = rng.uniform(lo - margin, hi + margin)
        member = theta_space.contains(theta, tol=-1e-7)
        outside = not theta_space.contains(theta, tol=1e-7)
        try:
            solve_opf(problem, theta)
            feasible = True
        except InfeasibleError:
            feasible = False
        if member:
            assert feasible
        if outside and in_box(theta):
            # the box is part of the parameter set, not of the dispatch problem
            assert not feasible


# -- enumeration ---------------------------------------------------------------

def test_single_region_when_nothing_can_bind():
    # huge line limit and wide bounds: balance-only region covers everything
    case = GridCase(buses=(1, 2),
                    lines=(Line(1, 2, 1.0, f_min=-100.0, f_max=100.0),),
                    generators=(Generator(1, -50.0, 50.0, 1.0, 0.0),
                                Generator(2, -50.0, 50.0, 1.0, 1.0)),
                    loads=np.array([0.0, 10.0]), renewable_buses=(2,),
                    reference_bus=1)
    problem = assemble_mpqp(case)
    theta_space = feasible_set(problem, [1.0], [9.0])
    decomp = enumerate_regions(problem, theta_space, coverage_samples=500)
    assert decomp.n_regions == 1
    r = decomp.regions[0]
    assert r.partition.binding == (0,)
    # prices are uniform and affine in the injection
    assert np.abs(r.lmp_C - r.lmp_C[0]).max() < 1e-12


def test_toy2r_two_regions_with_hand_maps(toy2r):
    _, _, decomp = toy2r
    assert decomp.n_regions == 2
    by_key = decomp.by_key()
    congested = by_key[(0, 2)]
    slack = by_key[(0, 7)]
    assert np.allclose(congested.lmp_C.ravel(), [0.0, -1.0], atol=1e-9)
    assert np.allclose(congested.lmp_c, [4.0, 16.0], atol=1e-9)
    assert np.allclose(slack.lmp_C.ravel(), [-1.0, -1.0], atol=1e-9)
    assert np.allclose(slack.lmp_c, [10.0, 10.0], atol=1e-9)
    assert np.allclose(congested.dispatch_G.ravel(), [0.0, -1.0], atol=1e-9)
    assert np.allclose(congested.dispatch_g0, [4.0, 6.0], atol=1e-9)
    assert decomp.coverage_volume_ratio > 0.999


def test_region_count_matches_grid_oracle(toy2r):
    problem, theta_space, decomp = toy2r
    grid = np.linspace(0.01, 9.99, 200).reshape(-1, 1)
    _, _, keys, feas = grid_partition_map(problem, grid)
    assert len(distinct_interior_partitions(problem, keys, feas)) \
        == decomp.n_regions


def test_ring_region_count_matches_grid_oracle(toy_ring):
    problem, theta_space, decomp = toy_ring
    lo, hi = theta_space.bounding_box()
    xs = np.linspace(lo[0], hi[0], 301)
    ys = np.linspace(lo[1], hi[1], 307)
    grid = np.array([(x, y) for x in xs for y in ys])
    grid = grid[np.all(grid @ theta_space.G.T <= theta_space.w - 1e-9, axis=1)]
    _, _, keys, feas = grid_partition_map(problem, grid)
    assert len(distinct_interior_partitions(problem, keys, feas)) \
        == decomp.n_regions
    assert decomp.n_regions == 3


def test_interiors_pairwise_disjoint(toy_ring):
    _, _, decomp = toy_ring
    for i, a in enumerate(decomp.regions):
        for b in decomp.regions[i + 1:]:
            shrunk = a.polytope.intersect(b.polytope)
            shrunk = type(shrunk)(shrunk.G, shrunk.w - 1e-7)
            assert shrunk.is_empty(tol=1e-12)


def test_region_interior_samples_reproduce_partition_and_map(toy_ring):
    problem, _, decomp = toy_ring
    rng = np.random.Generator(np.random.Philox(key=22))
    for region in decomp.regions:
        c, r = region.polytope.chebyshev()
        d = region.polytope.dim
        for _ in range(100):
            z = rng.normal(size=d)
            z *= rng.uniform() ** (1 / d) / np.linalg.norm(z)
            theta = c + 0.95 * r * z
            sol = solve_opf(problem, theta)
            part = optimal_partition(sol, problem)
            assert part.key == region.partition.key
            direct = compute_lmp(sol, problem.ptdf).values
            assert np.abs(region.lmp_at(theta) - direct).max() < 1e-6


def test_expansion_cap_raises(toy_ring):
    from lmpspike.errors import NumericalError
    problem, theta_space, _ = toy_ring
    with pytest.raises(NumericalError, match="cap"):
        enumerate_regions(problem, theta_space, max_expansions=1,
                          coverage_samples=0)


def test_enumeration_independent_of_step_size(toy_ring):
    problem, theta_space, decomp = toy_ring
    bigger = enumerate_regions(problem, theta_space, eps_step=3e-5,
                               coverage_samples=0)
    assert {r.partition.key for r in bigger.regions} \
        == {r.partition.key for r in decomp.regions}


def test_continuity_on_shared_facets_under_rank_condition(toy_ring):
    """Neighboring maps agree on a shared facet when the merged binding set
    still satisfies the counting condition."""
    problem, _, decomp = toy_ring
    rng = np.random.Generator(np.random.Philox(key=23))
    pairs_checked = 0
    for i, a in enumerate(decomp.regions):
        for b in decomp.regions[i + 1:]:
            merged = set(a.partition.binding_ineq) | set(b.partition.binding_ineq)
            if 1 + len(merged) > problem.n_g:
                continue  # qualification fails on the facet: jumps allowed
            # find the shared facet: a row of a whose negation-slack vanishes
            for k in range(a.polytope.n_rows):
                fp = a.polytope.facet_point(k)
                if fp is None or not b.polytope.contains(fp, tol=1e-7):
                    continue
                for _ in range(10):
                    jitter = rng.normal(size=fp.size) * 1e-3
                    point = fp + jitter - (a.polytope.G[k] @ jitter) \
                        * a.polytope.G[k]
                    if not (a.polytope.contains(point, tol=1e-6)
                            and b.polytope.contains(point, tol=1e-6)):
                        continue
                    gap = np.abs(a.lmp_at(point) - b.lmp_at(point)).max()
                    assert gap < 1e-6
                    pairs_checked += 1
    assert pairs_checked > 0


# -- point location -------------------------------------------------------------

def test_locate_center_finds_owner(toy_ring):
    _, _, decomp = toy_ring
    for region in decomp.regions:
        found, vals = locate_region(decomp, region.chebyshev_center)
        assert found.id == region.id
        assert np.allclose(vals, region.lmp_at(region.chebyshev_center))


def test_locate_matches_brute_force_oracle(toy_ring):
    """Random interior points and every region's facet points, where
    several closures meet, against the one-region-at-a-time rule."""
    _, theta_space, decomp = toy_ring
    rng = np.random.Generator(np.random.Philox(key=25))
    lo, hi = theta_space.bounding_box()
    pts = rng.uniform(lo, hi, size=(3000, 2))
    pts = pts[[theta_space.contains(p, tol=-1e-9) for p in pts]]
    facets = [r.polytope.facet_point(i) for r in decomp.regions
              for i in range(r.polytope.n_rows)]
    facets = np.array([f for f in facets if f is not None])
    pts = np.vstack([pts, facets])
    expected = np.array([locate_brute(decomp, p) for p in pts])
    got = locate(decomp, pts)
    assert np.array_equal(got, expected)
    assert (got >= 0).all()
    # facet points shared by two closures exercise the tie rule
    shared = sum(sum(r.polytope.contains(f) for r in decomp.regions) > 1
                 for f in facets)
    assert shared > 0


def test_locate_on_jump_face_takes_lexicographic_smallest(toy2r):
    _, _, decomp = toy2r
    region, vals = locate_region(decomp, [6.0])
    # candidates price the point at (4, 10) and (4, 4); the smaller wins
    assert np.allclose(vals, [4.0, 4.0], atol=1e-9)
    assert region.partition.binding == (0, 7)


def test_locate_outside_raises(toy2r):
    _, _, decomp = toy2r
    with pytest.raises(InfeasibleError):
        locate_region(decomp, [11.0])


def test_located_map_matches_direct_solve(toy_ring):
    problem, theta_space, decomp = toy_ring
    rng = np.random.Generator(np.random.Philox(key=24))
    lo, hi = theta_space.bounding_box()
    agree = total = 0
    while total < 2000:
        theta = rng.uniform(lo, hi)
        if not theta_space.contains(theta, tol=-1e-9):
            continue
        total += 1
        _, vals = locate_region(decomp, theta)
        direct = compute_lmp(solve_opf(problem, theta), problem.ptdf).values
        agree += int(np.abs(vals - direct).max() < 1e-6)
    assert agree / total >= 0.999


def test_toy2r_map_matches_hand_formula(toy2r):
    _, _, decomp = toy2r
    for theta in np.linspace(0.05, 9.95, 67):
        _, vals = locate_region(decomp, [theta])
        assert np.allclose(vals, toy2r_lmp(theta), atol=1e-9)


# -- maps from partitions --------------------------------------------------------

def test_region_lmp_map_uncongested_rows_equal(toy2r):
    problem, _, _ = toy2r
    C, c = region_lmp_map(OptimalPartition((0, 7), (), (7,)), problem)
    assert np.abs(C - C[0]).max() < 1e-12
    assert np.abs(c - c[0]).max() < 1e-12


def test_region_lmp_map_rejects_redundant_row(toy2r):
    problem, _, _ = toy2r
    # adding the opposite side of an already-binding line row is dependent
    with pytest.raises(SingularActiveSetError):
        region_lmp_map(OptimalPartition((0, 2, 3), (2, 3), ()), problem)


# -- persistence -----------------------------------------------------------------

def test_save_load_roundtrip(tmp_path, toy_ring):
    _, _, decomp = toy_ring
    path = tmp_path / "decomp.json"
    save_decomposition(decomp, path)
    loaded = load_decomposition(path)
    assert loaded.n_regions == decomp.n_regions
    for a, b in zip(decomp.regions, loaded.regions):
        assert a.partition.binding == b.partition.binding
        assert np.array_equal(a.lmp_C, b.lmp_C)
        assert np.array_equal(a.lmp_c, b.lmp_c)
        assert np.array_equal(a.polytope.G, b.polytope.G)
        assert np.array_equal(a.polytope.w, b.polytope.w)
    theta = decomp.regions[0].chebyshev_center
    r1, v1 = locate_region(decomp, theta)
    r2, v2 = locate_region(loaded, theta)
    assert r1.id == r2.id and np.array_equal(v1, v2)
