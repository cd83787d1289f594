"""Critical-region enumeration, maps, location and persistence."""

from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmpspike import (CriticalRegion, GridCase, Generator, InfeasibleError,
                      Line, NumericalError, Polytope, RegionDecomposition,
                      SingularActiveSetError, assemble_mpqp, build_thresholds,
                      compute_lmp, enumerate_regions, load_decomposition,
                      locate, locate_region, lp, mc_spike_probabilities,
                      optimal_partition, regions, save_decomposition,
                      solve_opf)
from lmpspike.opf import (OptimalPartition, _split_binding,
                         certified_partition, kkt_point, lmp_map,
                         parametric_kkt, proves_infeasible)
from lmpspike.polytope import box_polytope
from lmpspike.regions import LOCATE_CHUNK, _build_region, _partition_at
from lmpspike.stochastic import sample

from oracles import (brute_vertices, distinct_interior_partitions,
                     grid_partition_map, locate_brute, locate_scan,
                     phase1_point, projected_parameter_set, same_vertex_sets,
                     solve_every_step_regions, toy2r_lmp)


# -- feasible parameter set ----------------------------------------------------

def test_single_unit_interval():
    # one unit in [0, 10] against demand 5: injections feasible on [0, 5]
    # within the box (balance pins g = 5 - theta >= 0)
    case = GridCase(buses=(1,), lines=(),
                    generators=(Generator(1, 0.0, 10.0, 1.0, 0.0),),
                    loads=np.array([5.0]), renewable_buses=(1,),
                    reference_bus=1)
    problem = assemble_mpqp(case)
    theta = enumerate_regions(problem, [0.0], [50.0]).theta_space
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
        enumerate_regions(problem, [20.0], [50.0])


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
    decomp = enumerate_regions(problem, [1.0], [9.0])
    assert decomp.n_regions == 1
    r = decomp.regions[0]
    assert r.partition.binding == (0,)
    # prices are uniform and affine in the injection
    assert np.abs(r.lmp_C - r.lmp_C[0]).max() < 1e-12


def test_toy2r_two_regions_with_hand_maps(toy2r):
    _, _, decomp = toy2r
    assert decomp.n_regions == 2
    by_key = {r.partition.key: r for r in decomp.regions}
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
            shrunk = Polytope(np.vstack([a.polytope.G, b.polytope.G]),
                              np.concatenate([a.polytope.w, b.polytope.w])
                              - 1e-7)
            assert shrunk.is_empty()


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


def test_expansion_cap_raises(toy_ring, monkeypatch):
    problem, _, _ = toy_ring
    monkeypatch.setattr(regions, "MAX_EXPANSIONS", 1)
    with pytest.raises(NumericalError, match="cap"):
        enumerate_regions(problem, [0.0, 0.0], [30.0, 30.0])


def test_enumeration_independent_of_step_size(toy_ring, monkeypatch):
    problem, _, decomp = toy_ring
    monkeypatch.setattr(regions, "STEP_REL", 30 * regions.STEP_REL)
    bigger = enumerate_regions(problem, [0.0, 0.0], [30.0, 30.0])
    assert {r.partition.key for r in bigger.regions} \
        == {r.partition.key for r in decomp.regions}


@pytest.fixture(scope="module", params=["toy_ring", "toy2r", "study14"])
def any_system(request):
    """(problem, parameter set, decomposition, box) of each enumerated system."""
    system = request.getfixturevalue(request.param)
    if request.param == "study14":
        return (system.problem, system.decomposition.theta_space,
                system.decomposition, _study_box(system))
    box = {"toy_ring": ([0.0, 0.0], [30.0, 30.0]), "toy2r": ([0.0], [25.0])}
    return (*system, box[request.param])


def _study_box(study):
    """The box `build_study` enumerates the study's regions in."""
    case = study.case
    hi = case.total_demand() + sum(abs(min(g.g_min, 0.0))
                                   for g in case.generators) + 1.0
    return np.zeros(case.n_theta), np.full(case.n_theta, hi)


@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_certified_crossing_equals_a_solve(any_system, seed):
    """At facet points stepped 1e-6, 1e-5 and 1e-4 of the scale past every
    facet of every region, and jittered, a certified binding set is what a
    dispatch solve there returns, nondegenerate."""
    problem, theta_space, decomp, _ = any_system
    rng = np.random.Generator(np.random.Philox(key=seed))
    scale = max(1.0, theta_space.chebyshev()[1])
    certified = 0
    for region in decomp.regions:
        poly, binding = region.polytope, region.partition.binding_ineq
        for i in range(poly.n_rows):
            fp = poly.facet_point(i)
            for step in (1e-6, 1e-5, 1e-4):
                jitter = rng.uniform(-1.0, 1.0, poly.dim) * step * scale
                for cand in (fp + step * scale * poly.G[i],
                             fp + step * scale * poly.G[i] + jitter):
                    if not theta_space.contains(cand, tol=1e-12):
                        continue
                    part = certified_partition(problem, binding, cand)
                    if part is None:
                        continue
                    certified += 1
                    assert _partition_at(problem, cand) == (part, False)
    assert certified > 0


def test_enumeration_equals_the_solve_every_step_reference(any_system):
    """Same regions, rows, maps, Chebyshev centers and diagnostics, bit for
    bit, as the reference that solves at every step inside the projected
    parameter set; every such step is a certified crossing or a fallback,
    and the steps past it are proved, so the parameter sets agree."""
    problem, _, decomp, box = any_system
    ref, steps = solve_every_step_regions(problem, *box)
    ours = enumerate_regions(problem, *box)
    assert ours.degenerate_diagnostics == ref.degenerate_diagnostics
    assert [r.partition for r in ours.regions] \
        == [r.partition for r in ref.regions]
    for a, b in zip(ours.regions, ref.regions):
        for name in ("lmp_C", "lmp_c", "dispatch_G", "dispatch_g0"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert np.array_equal(a.polytope.G, b.polytope.G)
        assert np.array_equal(a.polytope.w, b.polytope.w)
        assert np.array_equal(a.polytope.chebyshev()[0],
                              b.polytope.chebyshev()[0])
        assert a.polytope.chebyshev()[1] == b.polytope.chebyshev()[1]
    assert ours.certified_crossings + ours.fallback_solves == steps
    assert ours.certified_crossings > 0
    assert same_vertex_sets(ours.theta_space, ref.theta_space)


@pytest.mark.parametrize("system", ["toy2r", "study14", "r4_study"])
def test_dispatch_solve_at_every_step_gives_the_same_decomposition(
        system, request, monkeypatch):
    """With no step certified or proved, every facet step takes the
    dispatch-solve fallback, its InfeasibleError boundary edge included,
    and the regions, maps, rows, parameter set and diagnostics are bit for
    bit those of the normal enumeration; each step is counted."""
    study = request.getfixturevalue(system)
    if system == "toy2r":
        problem, _, ref = study
        box = ([0.0], [25.0])
    else:
        problem, ref, case = study.problem, study.decomposition, study.case
        hi = case.total_demand() + sum(abs(min(g.g_min, 0.0))
                                       for g in case.generators) + 1.0
        box = (np.zeros(case.n_theta), np.full(case.n_theta, hi))
    steps = []

    def uncertified(*args):
        steps.append(args)

    monkeypatch.setattr(regions, "certified_partition", uncertified)
    monkeypatch.setattr(regions, "proves_infeasible", lambda *args: False)
    ours = enumerate_regions(problem, *box)
    assert (ours.certified_crossings, ours.boundary_steps) == (0, 0)
    assert ours.fallback_solves == len(steps) > ref.fallback_solves
    assert ours.degenerate_diagnostics == ref.degenerate_diagnostics
    assert [r.partition for r in ours.regions] \
        == [r.partition for r in ref.regions]
    for a, b in zip(ours.regions, ref.regions):
        for name in ("lmp_C", "lmp_c", "dispatch_G", "dispatch_g0"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert np.array_equal(a.polytope.G, b.polytope.G)
        assert np.array_equal(a.polytope.w, b.polytope.w)
    assert np.array_equal(ours.theta_space.G, ref.theta_space.G)
    assert np.array_equal(ours.theta_space.w, ref.theta_space.w)


def _assert_same_regions(ours, ref):
    """Same binding sets, maps and rows, bit for bit."""
    assert [r.partition for r in ours.regions] \
        == [r.partition for r in ref.regions]
    for a, b in zip(ours.regions, ref.regions):
        for name in ("lmp_C", "lmp_c", "dispatch_G", "dispatch_g0"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert np.array_equal(a.polytope.G, b.polytope.G)
        assert np.array_equal(a.polytope.w, b.polytope.w)


@pytest.mark.parametrize("verdict", ["infeasible", "degenerate"])
@pytest.mark.parametrize("system", ["toy2r", "toy_ring"])
def test_seed_falls_back_to_a_seeded_draw(system, verdict, request,
                                          monkeypatch):
    """When the dispatch problem at the joint-LP center is infeasible or
    degenerate, the seed is the first Philox(key=1) draw below the axis
    maxima that solves nondegenerately, and the regions do not change."""
    problem, _, ref = request.getfixturevalue(system)
    box = ([0.0], [25.0]) if system == "toy2r" else ([0.0, 0.0], [30.0, 30.0])
    center, top = regions._joint_lps(problem, box_polytope(*box))
    first_draw = np.random.Generator(np.random.Philox(key=1)).uniform(box[0],
                                                                      top)
    thetas = []

    def center_fails(problem, theta, solve=_partition_at):
        thetas.append(np.array(theta))
        if len(thetas) > 1:
            return solve(problem, theta)
        if verdict == "infeasible":
            raise InfeasibleError("no dispatch")
        return solve(problem, theta)[0], True

    monkeypatch.setattr(regions, "_partition_at", center_fails)
    ours = enumerate_regions(problem, *box)
    assert np.array_equal(thetas[0], center)
    assert np.array_equal(thetas[1], first_draw)
    _assert_same_regions(ours, ref)


def test_no_seed_among_the_draws_raises(toy_ring, monkeypatch):
    """The center and all 500 draws infeasible or degenerate: the
    enumeration stops with a typed error instead of an empty result."""
    problem, _, _ = toy_ring
    calls = []

    def never(problem, theta):
        calls.append(theta)
        if len(calls) % 2:
            raise InfeasibleError("no dispatch")
        return None, True

    monkeypatch.setattr(regions, "_partition_at", never)
    with pytest.raises(NumericalError,
                       match="could not find a nondegenerate seed point"):
        enumerate_regions(problem, [0.0, 0.0], [30.0, 30.0])
    assert len(calls) == 501


@pytest.mark.parametrize("fault", ["error", "same_key"])
@pytest.mark.parametrize("system", ["toy2r", "toy_ring"])
def test_failed_or_returning_fallback_step_goes_ten_times_farther(
        system, fault, request, monkeypatch):
    """All steps take the dispatch-solve fallback, as in
    `test_dispatch_solve_at_every_step_gives_the_same_decomposition`.  The
    first step that lands in a neighbour instead raises NumericalError,
    which is recorded in `degenerate_diagnostics`, or reports the current
    region's binding set, which is skipped; either way the 10x step finds
    that neighbour and the regions do not change."""
    problem, _, ref = request.getfixturevalue(system)
    box = ([0.0], [25.0]) if system == "toy2r" else ([0.0, 0.0], [30.0, 30.0])
    monkeypatch.setattr(regions, "certified_partition", lambda *args: None)
    monkeypatch.setattr(regions, "proves_infeasible", lambda *args: False)
    calls = []
    seed = []  # the seed's binding set; its region is expanded first
    steps = []  # binding-set key of each facet step with a dispatch
    injected = []  # index in `steps` of the faulted step

    def faulty(problem, theta, solve=_partition_at):
        calls.append(theta)
        part, degen = solve(problem, theta)
        if not seed:
            seed.append(part)
            return part, degen
        steps.append(part.key)
        if injected or degen or part.key == seed[0].key:
            return part, degen
        injected.append(len(steps) - 1)
        if fault == "error":
            raise NumericalError("injected")
        return seed[0], False

    monkeypatch.setattr(regions, "_partition_at", faulty)
    ours = enumerate_regions(problem, *box)
    k = injected[0]
    assert steps[k + 1] == steps[k] != seed[0].key
    assert ours.fallback_solves == len(calls) - 1
    text = "step from facet failed: injected"
    assert ours.degenerate_diagnostics.count(text) == (fault == "error")
    assert [d for d in ours.degenerate_diagnostics if d != text] \
        == ref.degenerate_diagnostics
    _assert_same_regions(ours, ref)
    assert np.array_equal(ours.theta_space.G, ref.theta_space.G)
    assert np.array_equal(ours.theta_space.w, ref.theta_space.w)


def test_build_region_rejection_reasons(toy2r):
    """The three reasons a partition yields no region, as they appear in
    `degenerate_diagnostics`."""
    problem, _, _ = toy2r
    box = box_polytope([0.0], [25.0])

    def reason(rows, min_radius=1e-9):
        region, why = _build_region(problem, _split_binding(problem, rows),
                                    box, min_radius)
        assert region is None
        return why

    # no unit at a bound: the free dispatch overloads the line everywhere
    assert reason(()) == "partition {0}: empty region"
    # both limits of the one line: dependent rows
    assert reason((2, 3)) == "partition {0,2,3}: singular KKT (rank deficient)"
    # the congested region [0, 6] has Chebyshev radius 3
    assert reason((2,), min_radius=4.0) == ("partition {0,2}: "
                                            "lower-dimensional region "
                                            "(radius 3.00e+00)")
    region, why = _build_region(problem, _split_binding(problem, (2,)), box,
                                1e-9)
    assert why is None and region.partition.key == (0, 2)


def test_a_rejected_partition_is_built_once(study14, monkeypatch):
    """A binding set that `_build_region` rejects is marked dead: proposed
    again from the facets of other regions, it is not built again nor
    reported twice, and no other binding set is built twice either."""
    rejected = (0, 27, 28, 50, 51)  # five facets propose it when it is built
    proposals, builds = Counter(), Counter()

    class CountingQueue(deque):
        def append(self, part):
            proposals[part.key] += 1
            super().append(part)

    def rejecting(problem, part, box, min_radius):
        builds[part.key] += 1
        if part.key == rejected:
            return None, "rejected in the test"
        return _build_region(problem, part, box, min_radius)

    monkeypatch.setattr(regions, "deque", CountingQueue)
    monkeypatch.setattr(regions, "_build_region", rejecting)
    ours = enumerate_regions(study14.problem, *_study_box(study14))
    assert proposals[rejected] >= 2
    assert builds[rejected] == 1
    assert max(builds.values()) == 1
    assert ours.degenerate_diagnostics.count("rejected in the test") == 1
    assert rejected not in {r.partition.key for r in ours.regions}


def test_parameter_set_equals_the_projection(any_system):
    """The set read off the region facets is the Fourier-Motzkin projection
    of the joint system, compared by vertex sets."""
    problem, theta_space, _, box = any_system
    assert same_vertex_sets(theta_space,
                            projected_parameter_set(problem, *box))


def test_r4_parameter_set_and_capacities_equal_the_projection(r4_study):
    case = r4_study.case
    hi = case.total_demand() + sum(abs(min(g.g_min, 0.0))
                                   for g in case.generators) + 1.0
    ref = projected_parameter_set(r4_study.problem, np.zeros(case.n_theta),
                                  np.full(case.n_theta, hi))
    assert same_vertex_sets(r4_study.decomposition.theta_space, ref)
    expected = [ref.support(e) for e in np.eye(case.n_theta)]
    assert np.allclose(r4_study.installed, expected, rtol=1e-9, atol=0.0)


def test_proved_boundary_steps_are_infeasible_for_the_phase1_oracle(
        any_system, monkeypatch):
    """Every step `proves_infeasible` settles has no dispatch by the
    elastic phase-1 LP, to a tolerance of 1e-10 (1 + max|b|)."""
    problem, _, _, box = any_system
    proved = []

    def recording(problem, kkt, theta, proves=regions.proves_infeasible):
        if proves(problem, kkt, theta):
            proved.append(theta)
            return True
        return False

    monkeypatch.setattr(regions, "proves_infeasible", recording)
    decomp = enumerate_regions(problem, *box)
    assert len(proved) == decomp.boundary_steps > 0
    for theta in proved:
        with pytest.raises(InfeasibleError):
            phase1_point(problem.A[:1], problem.b[:1] + problem.E[0] @ theta,
                         problem.A[2:], problem.b[2:] + problem.E[2:] @ theta,
                         tol=1e-10)


def test_farkas_test_proves_nothing_at_feasible_points(any_system):
    """At points 1e-6 inside the parameter set no region's binding rows
    prove infeasibility, though most regions' dispatches violate rows there
    (a violated row with a positive coefficient proves nothing)."""
    problem, theta_space, decomp, _ = any_system
    rng = np.random.Generator(np.random.Philox(key=31))
    pts = [p for p in _uniform_inside(decomp, rng, 300)
           if theta_space.contains(p, tol=-1e-6)]
    violated = 0
    for region in decomp.regions:
        kkt = parametric_kkt(problem, region.partition.binding_ineq)
        for theta in pts:
            violated += int(kkt_point(problem, kkt, theta)[1].max() > 0.0)
            assert not proves_infeasible(problem, kkt, theta)
    assert violated > len(pts)


def test_parameter_set_rejects_a_facet_that_cuts_a_region(toy_ring):
    _, _, decomp = toy_ring
    box = box_polytope([0.0, 0.0], [30.0, 30.0])
    center = decomp.regions[0].polytope.chebyshev()[0]
    with pytest.raises(NumericalError, match="outside the parameter set"):
        regions._parameter_set([np.array([1.0, 0.0, center[0]])], box,
                               decomp.regions)


def test_facet_step_counts_are_pinned(study14, r4_study):
    """(certified crossings, proved boundary steps, fallback solves)."""
    def counts(d):
        return d.certified_crossings, d.boundary_steps, d.fallback_solves

    assert counts(study14.decomposition) == (45, 5, 0)
    assert counts(r4_study.decomposition) == (223, 44, 3)


def test_fallback_solves_are_counted_and_rare(tmp_path, r4_study):
    """On case14 with renewables at 4, 5, 9 and 10 at most 5% of facet steps
    solve the dispatch problem; the counts stay out of the saved file."""
    decomp = r4_study.decomposition
    steps = decomp.certified_crossings + decomp.fallback_solves
    assert decomp.n_regions == 50 and steps > 0
    assert decomp.fallback_solves <= 0.05 * steps
    save_decomposition(decomp, tmp_path / "d.json")
    text = (tmp_path / "d.json").read_text()
    assert "certified" not in text and "fallback" not in text
    assert "boundary" not in text


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
        center = region.polytope.chebyshev()[0]
        found, vals = locate_region(decomp, center)
        assert found.id == region.id
        assert np.allclose(vals, region.lmp_at(center))


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


@pytest.fixture(scope="module")
def any_decomp(any_system):
    return any_system[2]


def _uniform_inside(decomp, rng, n):
    space = decomp.theta_space
    lo, hi = space.bounding_box()
    pts = np.empty((0, space.dim))
    while pts.shape[0] < n:
        cand = rng.uniform(lo, hi, size=(4 * n, space.dim))
        pts = np.vstack([pts, cand[np.all(cand @ space.G.T <= space.w,
                                          axis=1)]])
    return pts[:n]


def _boundary_probes(decomp, rng, n):
    """Points jittered off facet points (along the facet normal) and
    vertices (in a random direction) by 1e-12 to 1e-3 relative, both sides."""
    bases, directions = [], []
    for r in decomp.regions:
        for i in range(r.polytope.n_rows):
            fp = r.polytope.facet_point(i)
            if fp is not None:
                bases.append(fp)
                directions.append(r.polytope.G[i])
        for v in r.polytope.vertices():
            bases.append(v)
            directions.append(None)
    d = decomp.theta_space.dim
    probes = np.empty((n, d))
    for j in range(n):
        k = rng.integers(len(bases))
        step = directions[k]
        if step is None:
            step = rng.standard_normal(d)
            step /= np.linalg.norm(step)
        scale = 1.0 + np.abs(bases[k]).max()
        offset = 10.0 ** rng.uniform(-12.0, -3.0) * scale
        probes[j] = bases[k] + rng.choice([-1.0, 1.0]) * offset * step
    return probes


def _locate_counting_scans(decomp, pts):
    """`locate` indices and the number of points that got the full scan."""
    loc = decomp.locator()
    scanned = []

    def scan(thetas, full_scan=loc.scan):
        scanned.append(thetas.shape[0])
        return full_scan(thetas)

    loc.scan = scan
    try:
        return locate(decomp, pts), sum(scanned)
    finally:
        del loc.scan


@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_locate_past_the_pilot_matches_brute_force_oracle(any_decomp, seed):
    """Thousands of points past the pilot chunk, jittered across the margin
    band around facets and vertices, against the one-region-at-a-time rule,
    also in orders whose pilot does not represent the rest."""
    decomp = any_decomp
    rng = np.random.Generator(np.random.Philox(key=seed))
    pilot = _uniform_inside(decomp, rng, LOCATE_CHUNK)
    probes = _boundary_probes(decomp, rng, 3000)
    pts = np.vstack([pilot, probes])
    got, scanned = _locate_counting_scans(decomp, pts)
    expected = np.array([locate_brute(decomp, p) for p in probes])
    assert np.array_equal(got[LOCATE_CHUNK:], expected)
    assert np.array_equal(got, locate_scan(decomp, pts))
    # the margin test settled some probes and left others to the full scan
    assert LOCATE_CHUNK < scanned < pts.shape[0]
    assert np.array_equal(locate(decomp, pts[::-1]), got[::-1])
    by_region = np.argsort(got, kind="stable")
    assert np.array_equal(locate(decomp, pts[by_region]), got[by_region])


def test_locate_matches_stacked_scan_on_study_samples(study14):
    decomp = study14.decomposition
    thetas = sample(study14.model, 100_000, seed=20240)
    got, scanned = _locate_counting_scans(decomp, thetas)
    assert np.array_equal(got, locate_scan(decomp, thetas))
    assert scanned < 2 * LOCATE_CHUNK


def test_margin_bounds_every_closure_vertex_distance(any_decomp):
    """Each vertex of a region's closure G x <= w + 1e-9 (1 + |w|) lies
    closer to a vertex of the region than the margin."""
    margin = any_decomp.locator().margin
    for r in any_decomp.regions:
        G, w = r.polytope.G, r.polytope.w
        outer = brute_vertices(G, w + 1e-9 * (1.0 + np.abs(w)))
        inner = brute_vertices(G, w)
        gaps = np.linalg.norm(outer[:, None] - inner[None], axis=2)
        assert gaps.min(axis=1).max() < margin


def _wedge_region(rid, G, w, price):
    poly = Polytope.from_rows(G, w).normalized()
    return CriticalRegion(id=rid, partition=OptimalPartition((0, rid + 2), (),
                                                             ()),
                          polytope=poly, lmp_C=np.zeros((1, 2)),
                          lmp_c=np.array([price]),
                          dispatch_G=np.zeros((1, 2)),
                          dispatch_g0=np.zeros(1), licq_ok=True)


def test_closure_of_an_acute_wedge_goes_through_the_tie_rule():
    """The 1e-9 inflation moves the tip of a thin wedge (half-angle ~1e-3)
    about 1e-6 into the box below it, far beyond the box's own tolerance; a
    point there lies in both closures and takes the wedge's lower price."""
    s = 1e-3
    wedge = _wedge_region(0, [[1.0, -s], [-1.0, -s], [0.0, 1.0]],
                          [0.0, 0.0, 1.0], price=1.0)
    below = box_polytope([-1.0, -1.0], [1.0, 0.0])
    box = _wedge_region(1, below.G, below.w, price=2.0)
    decomp = RegionDecomposition(regions=[wedge, box],
                                 theta_space=box_polytope([-1.0, -1.0],
                                                          [1.0, 1.0]))
    tip = np.array([0.0, -0.5e-6])
    assert box.polytope.contains(tip, tol=-1e-7)  # deep inside the box
    assert wedge.polytope.contains(tip)
    rng = np.random.Generator(np.random.Philox(key=7))
    pilot = rng.uniform([-0.9, -0.9], [0.9, -0.1], size=(LOCATE_CHUNK, 2))
    pts = np.vstack([pilot, tip])
    got = locate(decomp, pts)
    assert locate_brute(decomp, tip) == 0
    assert got[-1] == 0
    assert (got[:-1] == 1).all()


def test_unbounded_region_turns_the_margin_test_off():
    """Without a vertex set there is no margin; every point gets the scan."""
    half_line = Polytope.from_rows([[1.0]], [1.0])
    region = CriticalRegion(id=0, partition=OptimalPartition((0,), (), ()),
                            polytope=half_line, lmp_C=np.zeros((1, 1)),
                            lmp_c=np.zeros(1), dispatch_G=np.zeros((1, 1)),
                            dispatch_g0=np.zeros(1), licq_ok=True)
    decomp = RegionDecomposition(regions=[region], theta_space=half_line)
    pts = np.linspace(-3.0, 3.0, 2 * LOCATE_CHUNK)[:, None]
    got, scanned = _locate_counting_scans(decomp, pts)
    assert decomp.locator().margin == np.inf
    assert scanned == pts.shape[0]
    assert np.array_equal(got, np.where(pts[:, 0] <= 1.0 + 2e-9, 0, -1))


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


def test_locate_in_a_gap_of_the_decomposition_raises(toy2r):
    """A point of the parameter set that no region's closure holds is an
    error, not the price of the least-violated region."""
    _, theta_space, decomp = toy2r
    kept = [r for r in decomp.regions if r.partition.key != (0, 7)]
    gap = RegionDecomposition(regions=kept, theta_space=theta_space)
    with pytest.raises(NumericalError, match="in no region"):
        locate_region(gap, [8.0])
    assert locate_region(gap, [3.0])[0].partition.key == (0, 2)
    # Monte Carlo prices such samples by a direct solve and counts them
    problem = toy2r[0]
    spec = build_thresholds(np.array(toy2r_lmp(5.0)), 0.25)
    [mc] = mc_spike_probabilities(np.full((5, 1), 8.0), gap, [spec],
                                  problem=problem, bins=2)
    direct = compute_lmp(solve_opf(problem, [8.0]), problem.ptdf).values
    assert mc.fallback_count == 5 and mc.infeasible_count == 0
    assert [mc.histograms[i].edges[1] for i in (0, 1)] == list(direct)


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

def test_lmp_map_uncongested_rows_equal(toy2r):
    problem, _, _ = toy2r
    C, c = lmp_map(problem, parametric_kkt(problem, (7,)))
    assert np.abs(C - C[0]).max() < 1e-12
    assert np.abs(c - c[0]).max() < 1e-12


def test_lmp_map_rejects_redundant_row(toy2r):
    problem, _, _ = toy2r
    # adding the opposite side of an already-binding line row is dependent
    with pytest.raises(SingularActiveSetError):
        lmp_map(problem, parametric_kkt(problem, (2, 3)))


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
    theta = decomp.regions[0].polytope.chebyshev()[0]
    r1, v1 = locate_region(decomp, theta)
    r2, v2 = locate_region(loaded, theta)
    assert r1.id == r2.id and np.array_equal(v1, v2)


def test_loaded_decomposition_locates_without_lps(tmp_path, toy_ring,
                                                  monkeypatch):
    """The stored Chebyshev centers seed the loaded polytopes, so building
    the locator of a loaded decomposition runs no LP."""
    _, _, decomp = toy_ring
    save_decomposition(decomp, tmp_path / "decomp.json")
    loaded = load_decomposition(tmp_path / "decomp.json")
    pts = _uniform_inside(decomp, np.random.Generator(np.random.Philox(key=7)),
                          500)
    expected = locate(decomp, pts)
    calls = []

    def counting(*args, solve=lp.solve_lp, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lp, "solve_lp", counting)
    assert np.array_equal(locate(loaded, pts), expected)
    assert calls == []
    for a, b in zip(decomp.regions, loaded.regions):
        assert np.array_equal(b.polytope.chebyshev()[0],
                              a.polytope.chebyshev()[0])
