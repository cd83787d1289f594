"""Spike bands, rate function, piece minimization, decay rates, ranking."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lmpspike import (ConfigError, GaussianModel, SpikeSpec,
                      build_thresholds, decay_rates, minimize_rate_piece,
                      rank_nodes, spikes)
from lmpspike.regions import CriticalRegion, RegionDecomposition, locate
from lmpspike.opf import OptimalPartition
from lmpspike.polytope import box_polytope
from lmpspike.spikes import (PieceMinimum, halfspace_rate, piece_rate_bounds,
                             write_decay_csv)

from oracles import (exhaustive_decay_rates, grid_partition_map,
                     grid_rate_minimum, toy2r_lmp)


def synthetic_region(C, c, lo, hi, rid=0):
    poly = box_polytope(lo, hi).normalized()
    C = np.atleast_2d(np.asarray(C, dtype=float))
    return CriticalRegion(id=rid, partition=OptimalPartition((0,), (), ()),
                          polytope=poly, lmp_C=C,
                          lmp_c=np.atleast_1d(np.asarray(c, dtype=float)),
                          dispatch_G=np.zeros((1, C.shape[1])),
                          dispatch_g0=np.zeros(1), licq_ok=True)


# -- bands ----------------------------------------------------------------------

def test_symmetric_relative_band():
    spec = build_thresholds(np.array([20.0]), 0.25)
    assert spec.alpha_minus[0] == pytest.approx(15.0)
    assert spec.alpha_plus[0] == pytest.approx(25.0)


def test_band_sweep_levels_all_valid():
    ref = np.array([20.0, -8.0, 3.5])
    for err in (0.25, 0.5, 1.0, 10.0):
        spec = build_thresholds(ref, err)
        assert np.all(spec.alpha_minus < ref)
        assert np.all(ref < spec.alpha_plus)


def test_zero_price_is_degenerate():
    with pytest.raises(ConfigError, match="zero"):
        build_thresholds(np.array([20.0, 0.0]), 0.25)


def test_mean_must_sit_inside_band():
    with pytest.raises(ConfigError, match="inside"):
        SpikeSpec(alpha_minus=np.array([5.0]), alpha_plus=np.array([6.0]),
                  lmp_at_mean=np.array([7.0]))


def test_nonpositive_err_rejected():
    with pytest.raises(ConfigError):
        build_thresholds(np.array([20.0]), 0.0)


# -- rate function ----------------------------------------------------------------

def test_rate_zero_at_mean():
    rf = GaussianModel([1.0, 2.0], np.eye(2))
    assert rf.rate([1.0, 2.0]) == 0.0


def test_rate_identity_covariance():
    rf = GaussianModel([0.0, 0.0], np.eye(2))
    assert rf.rate([3.0, 4.0]) == pytest.approx(12.5, abs=1e-12)


def test_rate_matches_dense_solve():
    rng = np.random.Generator(np.random.Philox(key=31))
    L = rng.normal(size=(3, 3))
    sigma = L @ L.T + 3 * np.eye(3)
    mu = rng.normal(size=3)
    rf = GaussianModel(mu, sigma)
    for _ in range(20):
        theta = rng.normal(size=3) * 5
        expected = 0.5 * (theta - mu) @ np.linalg.solve(sigma, theta - mu)
        assert rf.rate(theta) == pytest.approx(expected, rel=1e-12)
    block = rng.normal(size=(7, 3))
    assert np.allclose(rf.rate(block),
                       [rf.rate(row) for row in block], rtol=1e-12)


def test_indefinite_covariance_rejected():
    with pytest.raises(ConfigError):
        GaussianModel([0.0, 0.0], np.array([[1.0, 2.0], [2.0, 1.0]]))


# -- piece minimization -------------------------------------------------------------

def test_axis_aligned_halfspace_exact():
    # price = theta_1 over a big box; band upper edge mu_1 + a
    sig1, sig2, a = 1.7, 0.9, 2.3
    mu = np.array([1.0, -2.0])
    rf = GaussianModel(mu, np.diag([sig1 ** 2, sig2 ** 2]))
    region = synthetic_region([[1.0, 0.0]], [0.0], mu - 50.0, mu + 50.0)
    spec = SpikeSpec(alpha_minus=np.array([mu[0] - a]),
                     alpha_plus=np.array([mu[0] + a]),
                     lmp_at_mean=np.array([mu[0]]))
    piece = minimize_rate_piece(rf, region, 0, "+", spec)
    assert piece is not None
    assert piece.rate == pytest.approx(a ** 2 / (2 * sig1 ** 2), rel=1e-12)
    assert np.allclose(piece.theta, mu + np.array([a, 0.0]), atol=1e-7)


def test_empty_piece_returns_none():
    rf = GaussianModel([0.0], np.eye(1))
    region = synthetic_region([[1.0]], [0.0], [-1.0], [1.0])
    spec = SpikeSpec(alpha_minus=np.array([-5.0]), alpha_plus=np.array([5.0]),
                     lmp_at_mean=np.array([0.0]))
    assert minimize_rate_piece(rf, region, 0, "+", spec) is None
    assert minimize_rate_piece(rf, region, 0, "-", spec) is None


def test_constant_price_region():
    rf = GaussianModel([0.0], np.eye(1))
    inside = synthetic_region([[0.0]], [7.0], [-1.0], [1.0])
    spec = SpikeSpec(alpha_minus=np.array([1.0]), alpha_plus=np.array([5.0]),
                     lmp_at_mean=np.array([3.0]))
    piece = minimize_rate_piece(rf, inside, 0, "+", spec)
    assert piece is not None and piece.rate == pytest.approx(0.0, abs=1e-12)
    assert minimize_rate_piece(rf, inside, 0, "-", spec) is None


# -- decay rates over real decompositions -----------------------------------------

def test_toy2r_decay_rates_hand_values(toy2r):
    problem, _, decomp = toy2r
    mu, sig = 5.0, 1.0
    rf = GaussianModel([mu], [[sig ** 2]])
    lmp_mu = np.array(toy2r_lmp(mu))
    spec = build_thresholds(lmp_mu, 0.25)
    analysis = decay_rates(decomp, rf, spec)
    # bus 1: flat price 4 in the congested piece; spikes only via theta > 7
    assert analysis.node_rates[0] == pytest.approx(2.0, rel=1e-9)
    # bus 2: the map jumps at theta = 6 from 10 to 4, straight past the band
    assert analysis.node_rates[1] == pytest.approx(0.5, rel=1e-9)
    assert analysis.overall_rate == pytest.approx(0.5, rel=1e-9)
    res1 = analysis.result(0, "-")
    assert res1.theta_star[0] == pytest.approx(7.0, abs=1e-7)
    assert res1.boundary_gap < 1e-6
    res2 = analysis.result(1, "-")
    assert res2.theta_star[0] == pytest.approx(6.0, abs=1e-7)
    # attained on the jump face: the map lands far from the band edge
    assert res2.boundary_gap == pytest.approx(4.25, abs=1e-6)
    assert not res2.on_theta_boundary


def test_toy2r_matches_dense_grid_oracle(toy2r):
    problem, theta_space, decomp = toy2r
    mu = np.array([5.0])
    sigma = np.array([[1.0]])
    spec = build_thresholds(np.array(toy2r_lmp(5.0)), 0.25)
    analysis = decay_rates(decomp, GaussianModel(mu, sigma), spec)
    grid = np.linspace(0.0, 10.0, 1_000_001).reshape(-1, 1)
    _, lmp, _, feas = grid_partition_map(problem, grid)
    for node in range(2):
        oracle = grid_rate_minimum(grid, lmp, feas, node, mu, sigma,
                                   spec.alpha_minus[node],
                                   spec.alpha_plus[node])
        assert analysis.node_rates[node] == pytest.approx(oracle, rel=1e-3)


def test_ring_decay_rate_analytic(toy_ring):
    """Uniform prices in the main region: the spike is a band on the total
    injection, so the rate has the closed form t^2 / (2 1'Sigma 1)."""
    _, _, decomp = toy_ring
    mu = np.array([3.0, 4.0])
    sigma = np.array([[1.0, 0.3], [0.3, 2.0]])
    spec = build_thresholds(np.array([4.5, 4.5, 4.5]), 0.25)
    analysis = decay_rates(decomp, GaussianModel(mu, sigma), spec)
    expected = 1.125 ** 2 / (2 * 3.6) * 4  # t = 2.25, 1'Sigma 1 = 3.6
    for node in range(3):
        assert analysis.node_rates[node] == pytest.approx(0.703125, rel=1e-9)
    assert expected == pytest.approx(0.703125)


def test_unreachable_event_is_infinite():
    region = synthetic_region([[0.0]], [3.0], [-1.0], [1.0])
    decomp = RegionDecomposition(regions=[region],
                                 theta_space=region.polytope)
    rf = GaussianModel([0.0], np.eye(1))
    spec = SpikeSpec(alpha_minus=np.array([1.0]), alpha_plus=np.array([5.0]),
                     lmp_at_mean=np.array([3.0]))
    analysis = decay_rates(decomp, rf, spec)
    assert math.isinf(analysis.node_rates[0])
    assert not analysis.result(0, "+").reachable


def test_piece_minimum_beats_random_feasible_points(toy_ring):
    """No sampled point of any nonempty piece has a smaller rate."""
    problem, _, decomp = toy_ring
    mu = np.array([3.0, 4.0])
    rf = GaussianModel(mu, np.array([[1.0, 0.3], [0.3, 2.0]]))
    spec = build_thresholds(np.array([4.5, 4.5, 4.5]), 0.25)
    rng = np.random.Generator(np.random.Philox(key=33))
    pieces = 0
    for region in decomp.regions:
        lo, hi = region.polytope.bounding_box()
        for node in range(3):
            for sign in ("-", "+"):
                piece = minimize_rate_piece(rf, region, node, sign, spec)
                if piece is None:
                    continue
                pieces += 1
                alpha = (spec.alpha_plus[node] if sign == "+"
                         else spec.alpha_minus[node])
                found = 0
                for _ in range(3000):
                    theta = rng.uniform(lo, hi)
                    if not region.polytope.contains(theta):
                        continue
                    price = float(region.lmp_at(theta)[node])
                    in_piece = price >= alpha if sign == "+" else price <= alpha
                    if not in_piece:
                        continue
                    assert piece.rate <= rf.rate(theta) + 1e-9
                    found += 1
                    if found >= 100:
                        break
    assert pieces > 0


def test_node_filter_restricts_nodes(toy2r):
    _, _, decomp = toy2r
    rf = GaussianModel([5.0], [[1.0]])
    spec = build_thresholds(np.array(toy2r_lmp(5.0)), 0.25, node_filter=(1,))
    analysis = decay_rates(decomp, rf, spec)
    assert sorted(analysis.node_rates) == [1]


def test_monotone_in_band_width(toy2r):
    _, _, decomp = toy2r
    rf = GaussianModel([5.0], [[1.0]])
    rates = []
    for err in (0.25, 0.5, 1.0, 10.0):
        spec = build_thresholds(np.array(toy2r_lmp(5.0)), err)
        analysis = decay_rates(decomp, rf, spec)
        rates.append([analysis.node_rates[0], analysis.node_rates[1]])
    for prev, nxt in zip(rates[:-1], rates[1:]):
        for a, b in zip(prev, nxt):
            assert b >= a - 1e-12  # holds through the unreachable (inf) tail


def test_ranking_scale_invariance(toy2r):
    _, _, decomp = toy2r
    spec = build_thresholds(np.array(toy2r_lmp(5.0)), 0.25)
    base = decay_rates(decomp, GaussianModel([5.0], [[1.0]]), spec)
    scaled = decay_rates(decomp, GaussianModel([5.0], [[4.0]]), spec)
    for node in (0, 1):
        assert scaled.node_rates[node] * 4.0 \
            == pytest.approx(base.node_rates[node], rel=1e-9)
    assert rank_nodes(base).nodes == rank_nodes(scaled).nodes


# -- ranking ---------------------------------------------------------------------

def _analysis_with(rates):
    from lmpspike.spikes import SpikeAnalysis, SpikeDecayResult
    per = {}
    for node, r in rates.items():
        per[(node, "-")] = SpikeDecayResult(node, "-", r, None, None, None,
                                            False)
        per[(node, "+")] = SpikeDecayResult(node, "+", math.inf, None, None,
                                            None, False)
    return SpikeAnalysis(per_side=per, node_rates=dict(rates),
                         overall_rate=min(rates.values()))


def test_rank_ascending_with_scores():
    ranking = rank_nodes(_analysis_with({0: 2.0, 1: 1.0}))
    assert ranking.nodes == (1, 0)
    assert ranking.normalized_scores == (-1.0, -0.5)


def test_rank_ties_fall_back_to_node_index():
    ranking = rank_nodes(_analysis_with({2: 1.0, 0: 1.0, 1: 1.0}))
    assert ranking.nodes == (0, 1, 2)


def test_rank_ulp_ties_fall_back_to_node_index():
    rate = 0.5414222645922684
    ranking = rank_nodes(_analysis_with({
        7: rate, 8: math.nextafter(rate, -math.inf), 9: 0.3}))
    assert ranking.nodes == (9, 7, 8)


def test_rank_unreachable_sorts_last():
    ranking = rank_nodes(_analysis_with({0: math.inf, 1: 3.0}))
    assert ranking.nodes == (1, 0)
    assert ranking.normalized_scores[1] == 0.0


# -- bound-pruned evaluation -------------------------------------------------------

@pytest.fixture(scope="module", params=["toy2r", "toy_ring", "study14"])
def any_decomp(request):
    system = request.getfixturevalue(request.param)
    return system.decomposition if request.param == "study14" else system[2]


def random_model(decomp, rng):
    """Mean at a random interior point of the parameter set and a random SPD
    covariance with deviations up to 30% of the set's widths; returns the
    model and the price at the mean (None outside every region)."""
    space = decomp.theta_space
    verts = space.vertices()
    mu = rng.dirichlet(np.ones(len(verts))) @ verts
    lo, hi = space.bounding_box()
    d = mu.size
    A = rng.normal(size=(d, d))
    S = A @ A.T + 0.5 * np.eye(d)
    corr = S / np.sqrt(np.outer(np.diag(S), np.diag(S)))
    stds = (hi - lo) * rng.uniform(0.01, 0.3, d)
    model = GaussianModel(mu, corr * np.outer(stds, stds))
    k = int(locate(decomp, mu[None, :])[0])
    return model, decomp.regions[k].lmp_at(mu) if k >= 0 else None


def assert_same_analysis(ours, ref):
    assert ours.node_rates == ref.node_rates
    assert ours.overall_rate == ref.overall_rate
    assert ours.per_side.keys() == ref.per_side.keys()
    for key, r in ref.per_side.items():
        o = ours.per_side[key]
        assert o.rate == r.rate
        assert (o.theta_star is None) == (r.theta_star is None)
        if r.theta_star is not None:
            assert np.array_equal(o.theta_star, r.theta_star)
        assert o.region_id == r.region_id
        assert o.boundary_gap == r.boundary_gap
        assert o.on_theta_boundary == r.on_theta_boundary


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), err_rel=st.floats(0.05, 0.5))
def test_pruned_decay_rates_equal_the_exhaustive_oracle(any_decomp, seed,
                                                        err_rel):
    """Per side: rate, minimizer, region, gap and boundary flag, bit for
    bit, as solving every piece and comparing in region-id order."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    model, lmp = random_model(any_decomp, rng)
    assume(lmp is not None and np.all(lmp != 0.0))
    spec = build_thresholds(lmp, err_rel)
    ours = decay_rates(any_decomp, model, spec)
    assert_same_analysis(ours, exhaustive_decay_rates(any_decomp, model, spec))
    assert ours.pieces_solved + ours.pieces_pruned \
        == 2 * spec.n * any_decomp.n_regions


@pytest.mark.parametrize("seed", [3, 17])
def test_piece_bound_is_below_every_piece_rate(any_decomp, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    model, lmp = random_model(any_decomp, rng)
    spec = build_thresholds(lmp, 0.1)
    bounds = piece_rate_bounds(any_decomp, model, spec)
    nonempty = 0
    for side, sign in enumerate(("-", "+")):
        for region in any_decomp.regions:
            for node in range(spec.n):
                piece = minimize_rate_piece(model, region, node, sign, spec)
                if piece is None:
                    continue
                nonempty += 1
                assert bounds[side, region.id, node] \
                    <= piece.rate * (1.0 + 1e-9) + 1e-12
    assert nonempty > 0


def test_halfspace_rate_closed_form():
    model = GaussianModel([1.0, -1.0], [[4.0, 1.0], [1.0, 2.0]])
    A = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    b = np.array([-2.0, -5.0, 1.0, 3.0])
    # a'mu - b: 3, 3, -1, -3; a' Sigma a: 4, 4, 0, 8
    assert np.array_equal(halfspace_rate(model, A, b),
                          [9.0 / 8.0, 9.0 / 8.0, 0.0, 0.0])


def test_case14_prunes_pieces(study14):
    spec = study14.spike_spec(0.25)
    analysis = decay_rates(study14.decomposition, study14.model, spec)
    total = 2 * spec.n * study14.decomposition.n_regions
    assert analysis.pieces_solved + analysis.pieces_pruned == total
    assert analysis.pieces_solved < total


RATE = 0.7


@pytest.mark.parametrize("rates, winner", [
    # one-ulp ties between regions 0 and 1: the lower id wins
    ({0: RATE, 1: math.nextafter(RATE, -math.inf), 2: 0.8}, 0),
    ({0: RATE, 1: math.nextafter(RATE, math.inf), 2: 0.8}, 0),
    # a tie chain: 1 ties 0 and 2, but 2 sits below 0 past the tolerance, so
    # the region-id scan ends at 2 while a scan in bound order would end at 0
    ({0: RATE, 1: RATE * (1 - 0.9e-12), 2: RATE * (1 - 1.8e-12)}, 2),
])
def test_ties_resolve_in_region_id_order_not_bound_order(monkeypatch, rates,
                                                         winner):
    """Region 2 holds mu, so it has the lowest bound and is solved first,
    then regions 1 and 0; region 3's bound lies past every rate and it is
    never solved.  The solved minima are compared in region-id order, as the
    exhaustive oracle compares every piece."""
    boxes = [([1.0], [2.0]), ([0.5], [1.0]), ([-1.0], [0.5]), ([2.0], [3.0])]
    regions = [synthetic_region([[1.0]], [0.0], lo, hi, rid=k)
               for k, (lo, hi) in enumerate(boxes)]
    decomp = RegionDecomposition(regions=regions,
                                 theta_space=box_polytope([-1.0], [3.0]))
    model = GaussianModel([0.0], np.eye(1))
    spec = SpikeSpec(alpha_minus=np.array([-0.25]), alpha_plus=np.array([0.25]),
                     lmp_at_mean=np.array([0.0]))
    bounds = piece_rate_bounds(decomp, model, spec)[:, :, 0]
    assert np.all(bounds[:, 2] < bounds[:, 1])
    assert np.all(bounds[:, 1] < bounds[:, 0])
    assert np.all(bounds[:, 0] <= min(rates.values()))
    assert np.all(bounds[:, 3] > 1.0)
    calls = []

    def piece(rf, region, node, sign, spec):
        calls.append((region.id, sign))
        return PieceMinimum(rate={**rates, 3: 2.5}[region.id],
                            theta=np.array([0.5 + region.id]),
                            region_id=region.id)

    monkeypatch.setattr(spikes, "minimize_rate_piece", piece)
    analysis = decay_rates(decomp, model, spec)
    assert calls == [(2, "-"), (1, "-"), (0, "-"), (2, "+"), (1, "+"), (0, "+")]
    assert analysis.pieces_solved == 6 and analysis.pieces_pruned == 2
    for sign in ("-", "+"):
        assert analysis.result(0, sign).region_id == winner
    assert_same_analysis(analysis, exhaustive_decay_rates(decomp, model, spec))


# -- export ---------------------------------------------------------------------

def test_decay_csv_layout(tmp_path, toy2r):
    _, _, decomp = toy2r
    rf = GaussianModel([5.0], [[1.0]])
    spec = build_thresholds(np.array(toy2r_lmp(5.0)), 0.25)
    analysis = decay_rates(decomp, rf, spec)
    ranking = rank_nodes(analysis)
    path = tmp_path / "decay.csv"
    write_decay_csv(analysis, ranking, path, node_ids=[1, 2])
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == ["node", "I_star_minus", "I_star_plus",
                                   "I_star", "theta_star_1", "region_id",
                                   "normalized_score", "rank"]
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
    assert float(rows["2"][3]) == pytest.approx(0.5)
    assert rows["2"][-1] == "1"


@pytest.mark.parametrize("toward", [-math.inf, math.inf])
def test_ulp_ties_go_to_minus_side_then_lower_region(monkeypatch, tmp_path,
                                                     toward):
    """Rates one ulp apart tie: '-' beats '+', region 0 beats region 1."""
    rate = 0.7
    nudged = math.nextafter(rate, toward)
    regions = [synthetic_region([[1.0]], [0.0], [-1.0], [1.0], rid=k)
               for k in range(2)]
    decomp = RegionDecomposition(regions=regions,
                                 theta_space=regions[0].polytope)

    def piece(rf, region, node, sign, spec):
        value = nudged if region.id == 1 or sign == "+" else rate
        theta = np.array([0.5 if sign == "+" else -0.5])
        return PieceMinimum(rate=value, theta=theta, region_id=region.id)

    monkeypatch.setattr(spikes, "minimize_rate_piece", piece)
    spec = SpikeSpec(alpha_minus=np.array([-0.25]), alpha_plus=np.array([0.25]),
                     lmp_at_mean=np.array([0.0]))
    analysis = decay_rates(decomp, GaussianModel([0.0], np.eye(1)), spec)
    assert analysis.result(0, "-").region_id == 0
    assert analysis.result(0, "+").region_id == 0
    path = tmp_path / "decay.csv"
    write_decay_csv(analysis, rank_nodes(analysis), path, node_ids=[1])
    row = path.read_text().strip().splitlines()[1].split(",")
    assert row[4:6] == [repr(-0.5), "0"]  # theta_star_1 and region of '-'
