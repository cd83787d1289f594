"""Acceptance gate for the full analysis pipeline.

Each criterion prints one PASS/FAIL line.  The study under test is the
bundled IEEE 14-bus system with uncontrollable injections at buses 4 and 5,
planning-rule line limits (gamma 2, safety 0.6), high forecast at half the
installed capacities, Laplacian-kernel covariance (kappa 2, tau^2 1) scaled
to q = 0.018, and a symmetric 25% price band unless stated otherwise.

 1. Reference ranking: decay rates order the buses
    (9,8,7,10,11,6,12,13,14,4,5,1,2,3); buses 7 and 8 are an exact
    mathematical tie (bus 8 hangs radially off bus 7 and the connecting line
    never congests), so collation inside tied groups is not significant.
    Decay-rate magnitudes for bus 9 agree with the reference value 8.1e-04
    within a factor of two; end-to-end build under 120 s.
 2. Monte Carlo cross-check, 1e6 samples, fixed seed: spike frequency at
    bus 9 in [0.81, 0.91], exactly zero at buses 1, 2, 3, 5, and the
    frequency ordering over resolvable buses reproduces the decay-rate
    ranking; region-lookup fast path keeps this under 300 s.
 3. Region-map/solver equivalence: at 1e4 random feasible injections the
    located region's affine price map agrees with a direct dispatch solve to
    1e-6 per component for at least 99.9% of samples.
 4. Boundary attainment: across the band sweep {0.25, 0.5, 1, 10}, every
    finite decay-rate minimizer either sits on its price-band boundary
    (gap <= 1e-6) or on the parameter-set boundary.
 5. Desk-scale oracle equivalence on the 2-bus and 3-bus toys:
    (a) region counts match dense-grid distinct-partition counts;
    (b) every decay rate matches a 1e6-point grid minimization within 1e-3
        relative (two-stage refinement in 2-D);
    (c) the halfspace toy's Monte Carlo tail is within 3 standard errors of
        the closed-form normal tail.
 6. Analytic spot checks: uncongested points price uniformly (1e-9); the
    nodal price equals the finite-difference marginal cost of demand at 20
    random interior points (1e-3 relative); the rate vanishes at the mean
    and equals a^2/(2 sigma^2) for an axis-aligned halfspace (1e-12).
 7. Price-density structure: the low-forecast scenario (0.1 x installed)
    makes the bus-10 price density multimodal (>= 2 modes separated by >= 3
    bins with a >= 20% valley); the high-forecast scenario's mode structure
    differs.
"""

import math
import time

import numpy as np
import pytest

from lmpspike import GaussianModel, compute_lmp, locate_region, solve_opf
from lmpspike.spikes import build_thresholds, decay_rates, rank_nodes
from lmpspike.stochastic import (compare_ranking, empirical_density,
                                 find_modes, mc_spike_probabilities, sample)

from oracles import (distinct_interior_partitions, grid_partition_map,
                     grid_rate_minimum, normal_tail, toy2r_lmp)

EXPECTED_ORDER = (9, 8, 7, 10, 11, 6, 12, 13, 14, 4, 5, 1, 2, 3)
REFERENCE_RATE_BUS9 = 8.1e-04
REFERENCE_RATE_BUS3 = 2.7e+03
MC_SEED = 20240


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def analysis14(study14):
    spec = study14.spike_spec(0.25)
    return decay_rates(study14.decomposition, study14.model, spec), spec


def canonical(order, value_of, rel_tol=1e-9):
    """Sort stretches of (near-)equal values by node id; ties are unordered."""
    out, group = [], [order[0]]
    for n in order[1:]:
        v0, v1 = value_of(group[-1]), value_of(n)
        same = (v0 == v1) or (
            math.isfinite(v0) and math.isfinite(v1)
            and abs(v1 - v0) <= rel_tol * max(abs(v0), abs(v1)))
        if same:
            group.append(n)
        else:
            out.extend(sorted(group))
            group = [n]
    out.extend(sorted(group))
    return tuple(out)


def test_criterion_1_reference_ranking(study14, analysis14):
    analysis, _ = analysis14
    ranking = rank_nodes(analysis)
    buses = study14.case.buses
    got = tuple(buses[n] for n in ranking.nodes)
    rate_of_bus = {buses[n]: r for n, r in analysis.node_rates.items()}
    got_canon = canonical(got, rate_of_bus.get)
    want_canon = canonical(EXPECTED_ORDER, rate_of_bus.get)
    rate9 = rate_of_bus[9]
    rate3 = rate_of_bus[3]
    in_band9 = REFERENCE_RATE_BUS9 / 2 <= rate9 <= REFERENCE_RATE_BUS9 * 2
    # bus 3's event needs negative injections; inside the nonnegative
    # parameter box it is unreachable, which still ranks the bus last
    rate3_ok = (REFERENCE_RATE_BUS3 / 2 <= rate3 <= REFERENCE_RATE_BUS3 * 2) \
        or (math.isinf(rate3) and got[-1] == 3)
    ok = (got_canon == want_canon and in_band9 and rate3_ok
          and study14.build_seconds < 120.0)
    report("criterion 1: reference ranking", ok,
           f"order={got} rate9={rate9:.4e} rate3={rate3!r} "
           f"build={study14.build_seconds:.1f}s "
           f"(ties collated by bus id; reference prints the {{7,8}} tie as 8,7)")


def test_rank_condition_holds_at_high_forecast(study14):
    from lmpspike import licq_check, optimal_partition
    sol = solve_opf(study14.problem, study14.model.mu_theta)
    part = optimal_partition(sol, study14.problem)
    assert licq_check(part, study14.problem.n_g)


def test_region_interior_checks(study14):
    """Every region: interior samples reproduce the binding set and the map
    prices agree with direct solves to 1e-6; sampled coverage >= 0.999."""
    from lmpspike import optimal_partition
    decomp = study14.decomposition
    assert decomp.coverage_volume_ratio >= 0.999
    rng = np.random.Generator(np.random.Philox(key=102))
    for region in decomp.regions:
        c, r = region.polytope.chebyshev()
        d = region.polytope.dim
        for _ in range(100):
            z = rng.normal(size=d)
            z *= rng.uniform() ** (1 / d) / np.linalg.norm(z)
            theta = c + 0.95 * r * z
            sol = solve_opf(study14.problem, theta)
            assert optimal_partition(sol, study14.problem).key \
                == region.partition.key
            direct = compute_lmp(sol, study14.problem.ptdf).values
            assert np.abs(region.lmp_at(theta) - direct).max() <= 1e-6


def test_criterion_2_monte_carlo_cross_check(study14, analysis14,
                                             samples_high):
    analysis, spec = analysis14
    buses = study14.case.buses
    t0 = time.perf_counter()
    [mc] = mc_spike_probabilities(samples_high, study14.decomposition,
                                  [spec], problem=study14.problem)
    elapsed = time.perf_counter() - t0
    p9 = mc.node_spike_probs[buses.index(9)]
    zeros = {b: mc.node_spike_probs[buses.index(b)] for b in (1, 2, 3, 5)}
    comparison = compare_ranking(mc, rank_nodes(analysis))
    ok = (0.81 <= p9 <= 0.91
          and all(v == 0.0 for v in zeros.values())
          and comparison.exact_match
          and elapsed < 300.0)
    report("criterion 2: Monte Carlo cross-check", ok,
           f"P(bus9)={p9:.5f} zeros={sorted(zeros.values())} "
           f"match={comparison.exact_match} tau={comparison.kendall_tau:.3f} "
           f"mc_time={elapsed:.1f}s")


def test_criterion_3_region_solver_equivalence(study14):
    decomp = study14.decomposition
    theta_space = decomp.theta_space
    rng = np.random.Generator(np.random.Philox(key=101))
    lo, hi = theta_space.bounding_box()
    agree = total = 0
    while total < 10_000:
        theta = rng.uniform(lo, hi)
        if not theta_space.contains(theta, tol=-1e-12):
            continue
        total += 1
        _, mapped = locate_region(decomp, theta)
        direct = compute_lmp(solve_opf(study14.problem, theta),
                             study14.problem.ptdf).values
        agree += int(np.abs(mapped - direct).max() <= 1e-6)
    frac = agree / total
    report("criterion 3: region/solver equivalence", frac >= 0.999,
           f"{agree}/{total} samples agree to 1e-6 per component")


def test_criterion_4_boundary_attainment(study14):
    failures = []
    checked = 0
    for err in (0.25, 0.5, 1.0, 10.0):
        spec = study14.spike_spec(err)
        analysis = decay_rates(study14.decomposition, study14.model, spec)
        for (node, sign), res in analysis.per_side.items():
            if not res.reachable:
                continue
            checked += 1
            if res.boundary_gap > 1e-6 and not res.on_theta_boundary:
                failures.append((err, study14.case.buses[node], sign,
                                 res.boundary_gap))
    report("criterion 4: boundary attainment", not failures,
           f"{checked} finite minimizers on band or parameter boundary; "
           f"violations={failures}")


def test_criterion_5_desk_scale_oracles(toy2r, toy_ring):
    problem2, _, decomp2 = toy2r
    problem3, space3, decomp3 = toy_ring

    # (a) region counts against dense-grid partition collection
    grid2 = np.linspace(0.01, 9.99, 200).reshape(-1, 1)
    _, _, keys2, feas2 = grid_partition_map(problem2, grid2)
    count2 = len(distinct_interior_partitions(problem2, keys2, feas2))
    lo, hi = space3.bounding_box()
    xs, ys = np.linspace(lo[0], hi[0], 301), np.linspace(lo[1], hi[1], 307)
    grid3 = np.array([(x, y) for x in xs for y in ys])
    grid3 = grid3[np.all(grid3 @ space3.G.T <= space3.w - 1e-9, axis=1)]
    _, _, keys3, feas3 = grid_partition_map(problem3, grid3)
    count3 = len(distinct_interior_partitions(problem3, keys3, feas3))
    counts_ok = (count2 == decomp2.n_regions and count3 == decomp3.n_regions)

    # (b) decay rates against 1e6-point grid minimization
    mu2, sig2 = np.array([5.0]), np.array([[1.0]])
    spec2 = build_thresholds(np.array(toy2r_lmp(5.0)), 0.25)
    a2 = decay_rates(decomp2, GaussianModel(mu2, sig2), spec2)
    grid = np.linspace(0.0, 10.0, 1_000_001).reshape(-1, 1)
    _, lmp, _, feas = grid_partition_map(problem2, grid)
    rates_ok = True
    worst = 0.0
    for node in range(2):
        oracle = grid_rate_minimum(grid, lmp, feas, node, mu2, sig2,
                                   spec2.alpha_minus[node],
                                   spec2.alpha_plus[node])
        rel = abs(a2.node_rates[node] - oracle) / oracle
        worst = max(worst, rel)
        rates_ok &= rel <= 1e-3

    mu3 = np.array([3.0, 4.0])
    sig3 = np.array([[1.0, 0.3], [0.3, 2.0]])
    spec3 = build_thresholds(np.array([4.5, 4.5, 4.5]), 0.25)
    a3 = decay_rates(decomp3, GaussianModel(mu3, sig3), spec3)
    xs = np.linspace(lo[0], hi[0], 1000)
    ys = np.linspace(lo[1], hi[1], 1001)
    coarse = np.array([(x, y) for x in xs for y in ys])
    coarse = coarse[np.all(coarse @ space3.G.T <= space3.w + 1e-12, axis=1)]
    _, lmp3, _, feas3b = grid_partition_map(problem3, coarse)
    step = np.array([xs[1] - xs[0], ys[1] - ys[0]])
    for node in range(3):
        spike = feas3b & ((lmp3[:, node] < spec3.alpha_minus[node])
                          | (lmp3[:, node] > spec3.alpha_plus[node]))
        d = coarse[spike] - mu3
        sol = np.linalg.solve(sig3, d.T).T
        argmin = coarse[spike][np.einsum("ij,ij->i", d, sol).argmin()]
        fx = np.linspace(argmin[0] - 2 * step[0], argmin[0] + 2 * step[0], 1000)
        fy = np.linspace(argmin[1] - 2 * step[1], argmin[1] + 2 * step[1], 1001)
        fine = np.array([(x, y) for x in fx for y in fy])
        fine = fine[np.all(fine @ space3.G.T <= space3.w + 1e-12, axis=1)]
        _, lmpf, _, feasf = grid_partition_map(problem3, fine)
        oracle = min(
            grid_rate_minimum(coarse, lmp3, feas3b, node, mu3, sig3,
                              spec3.alpha_minus[node], spec3.alpha_plus[node]),
            grid_rate_minimum(fine, lmpf, feasf, node, mu3, sig3,
                              spec3.alpha_minus[node], spec3.alpha_plus[node]))
        rel = abs(a3.node_rates[node] - oracle) / oracle
        worst = max(worst, rel)
        rates_ok &= rel <= 1e-3

    # (c) halfspace tail against the closed form
    model = GaussianModel(mu2, sig2)
    n = 100_000
    draws = sample(model, n, seed=11)
    [mc] = mc_spike_probabilities(draws, decomp2, [spec2], problem=problem2)
    exact = normal_tail(2.0)
    se = math.sqrt(exact * (1 - exact) / n)
    tail_err = abs(mc.node_spike_probs[0] - exact)
    tail_ok = tail_err <= 3 * se

    report("criterion 5: desk-scale oracle equivalence",
           counts_ok and rates_ok and tail_ok,
           f"region counts ({count2},{count3}) vs ({decomp2.n_regions},"
           f"{decomp3.n_regions}); worst rate rel err {worst:.2e}; "
           f"tail |err|={tail_err:.2e} vs 3SE={3 * se:.2e}")


def test_criterion_6_analytic_spot_checks(study14, toy2r):
    problem2, _, decomp2 = toy2r

    # uncongested points price uniformly
    sol = solve_opf(problem2, [8.0])
    lmp = compute_lmp(sol, problem2.ptdf).values
    uniform_ok = np.abs(lmp - lmp[0]).max() <= 1e-9

    # finite-difference marginal cost of demand on the 14-bus system
    from dataclasses import replace
    from lmpspike import assemble_mpqp
    rng = np.random.Generator(np.random.Philox(key=103))
    case = study14.case
    decomp = study14.decomposition
    delta, fd_ok, checked = 1e-4, True, 0
    lo, hi = decomp.theta_space.bounding_box()
    while checked < 20:
        theta = rng.uniform(lo, hi)
        if not any(r.polytope.contains(theta, tol=-1e-5)
                   for r in decomp.regions):
            continue
        node = int(rng.integers(case.n))
        sol = solve_opf(study14.problem, theta)
        price = compute_lmp(sol, study14.problem.ptdf).values[node]
        bumped_loads = case.loads.copy()
        bumped_loads[node] += delta
        bumped = assemble_mpqp(replace(case, loads=bumped_loads))
        fd = (solve_opf(bumped, theta).objective - sol.objective) / delta
        fd_ok &= abs(fd - price) <= 1e-3 * max(abs(price), 1e-3)
        checked += 1

    # rate-function identities
    rf = study14.model
    zero_ok = rf.rate(rf.mu_theta) == 0.0
    sig1, a = 1.7, 2.3
    rf2 = GaussianModel([0.0, 0.0], np.diag([sig1 ** 2, 0.81]))
    direction = np.array([a, 0.0])
    half_ok = abs(rf2.rate(direction) - a ** 2 / (2 * sig1 ** 2)) \
        <= 1e-12 * (a ** 2 / (2 * sig1 ** 2))

    report("criterion 6: analytic spot checks",
           uniform_ok and fd_ok and zero_ok and half_ok,
           f"uniform={uniform_ok} marginal_cost_fd={fd_ok} "
           f"rate_at_mean_zero={zero_ok} halfspace_exact={half_ok}")


def test_criterion_7_density_mode_structure(study14, samples_high):
    node10 = study14.case.buses.index(10)
    low_model = GaussianModel(0.1 * study14.installed,
                              study14.model.sigma_theta)
    low_samples = sample(low_model, 1_000_000, seed=MC_SEED)
    low_hist = empirical_density(low_samples, study14.decomposition, node10,
                                 bins=200, problem=study14.problem)
    high_hist = empirical_density(samples_high, study14.decomposition, node10,
                                  bins=200, problem=study14.problem)
    low_modes = find_modes(low_hist)
    high_modes = find_modes(high_hist)

    def centers(hist, modes):
        mid = 0.5 * (hist.edges[:-1] + hist.edges[1:])
        return [float(mid[i]) for i in modes]

    low_pos, high_pos = centers(low_hist, low_modes), centers(high_hist,
                                                              high_modes)
    bin_w = max(low_hist.edges[1] - low_hist.edges[0],
                high_hist.edges[1] - high_hist.edges[0])
    structure_differs = len(low_modes) != len(high_modes) or any(
        min(abs(lp - hp) for hp in high_pos) > 3 * bin_w for lp in low_pos)
    ok = len(low_modes) >= 2 and structure_differs
    report("criterion 7: price-density mode structure", ok,
           f"low modes at {np.round(low_pos, 2)}, "
           f"high modes at {np.round(high_pos, 2)}")
