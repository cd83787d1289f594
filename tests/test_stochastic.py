"""Covariance model, seeded sampling, Monte Carlo machinery."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lmpspike import (ConfigError, CovarianceSpec, GaussianModel, GridCase,
                      Generator, InfeasibleError, Line, NumericalError,
                      SpikeSpec,
                      build_covariance, compare_ranking, compute_lmp,
                      empirical_density, locate, locate_region,
                      mc_spike_probabilities, sample, solve_opf, stochastic)
from lmpspike.spikes import NodeRanking, build_thresholds
from lmpspike.stochastic import MCResult, NodeHistogram, find_modes

from oracles import (dense_mc_statistics, evaluate_lmp_samples,
                     normal_tail, toy2r_lmp)


def two_node_case():
    return GridCase(buses=(1, 2), lines=(Line(1, 2, 0.37),),
                    generators=(Generator(1, 0.0, 20.0, 1.0, 0.0),),
                    loads=np.array([0.0, 10.0]), renewable_buses=(1, 2),
                    reference_bus=1)


# -- covariance ----------------------------------------------------------------

def test_two_node_kernel_hand_value():
    """Normalized Laplacian of one edge gives the kernel (1/9)[[5,4],[4,5]];
    installed capacities are chosen so the rescaling is the identity."""
    inst = np.full(2, np.sqrt(5.0) / 3.0)
    sigma = build_covariance(two_node_case(),
                             CovarianceSpec(q=1.0, installed=inst))
    assert np.allclose(sigma, np.array([[5.0, 4.0], [4.0, 5.0]]) / 9.0,
                       atol=1e-12)


def test_correlation_is_scale_free():
    sigma = build_covariance(two_node_case(), CovarianceSpec(
        q=0.018, installed=np.array([123.0, 57.0])))
    rho = sigma[0, 1] / np.sqrt(sigma[0, 0] * sigma[1, 1])
    assert rho == pytest.approx(0.8, abs=1e-12)


def test_stddevs_match_fraction_of_installed(toy_ring):
    problem, theta_space, _ = toy_ring
    inst = np.array([theta_space.support(e) for e in np.eye(2)])
    sigma = build_covariance(problem.case,
                             CovarianceSpec(q=0.018, installed=inst))
    assert np.allclose(np.sqrt(np.diag(sigma)), 0.018 * inst, atol=1e-12)
    np.linalg.cholesky(sigma)  # positive definite


def test_kappa_one_closed_form():
    # (L_sym + I)^-1 for one edge: inverse of [[2,-1],[-1,2]] = (1/3)[[2,1],[1,2]]
    inst = np.full(2, np.sqrt(2.0 / 3.0))
    sigma = build_covariance(two_node_case(), CovarianceSpec(
        q=1.0, installed=inst, kappa=1.0))
    assert np.allclose(sigma, np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0,
                       atol=1e-12)


# -- sampling -------------------------------------------------------------------

def model2():
    return GaussianModel(np.array([3.0, 4.0]),
                         np.array([[2.0, 0.6], [0.6, 1.0]]))


def test_same_seed_same_samples():
    a = sample(model2(), 10_000, seed=42)
    b = sample(model2(), 10_000, seed=42)
    assert np.array_equal(a, b)
    c = sample(model2(), 10_000, seed=43)
    assert not np.array_equal(a, c)


def test_sample_moments():
    model = model2()
    draws = sample(model, 1_000_000, seed=7)
    stds = model.stddevs
    assert np.all(np.abs(draws.mean(axis=0) - model.mu_theta)
                  <= 4.0 * stds / 1000.0)
    emp = np.cov(draws.T)
    rel = np.linalg.norm(emp - model.sigma_theta) \
        / np.linalg.norm(model.sigma_theta)
    assert rel < 0.05


def test_unit_epsilon_keeps_the_sample_stream(monkeypatch):
    """At eps = 1 the draws are mu + L z bit for bit, chunk by chunk."""
    model = model2()
    assert model.epsilon == 1.0
    monkeypatch.setattr(stochastic, "SAMPLE_CHUNK", 1000)
    draws = sample(model, 2500, seed=11)
    expected = []
    for k, n in enumerate((1000, 1000, 500)):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([11, k], dtype=np.uint64)))
        z = rng.standard_normal((n, 2))
        expected.append(model.mu_theta + z @ model.cholesky_lower.T)
    assert np.array_equal(draws, np.vstack(expected))


@pytest.mark.parametrize("epsilon", [1.0, 0.25])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_samples_are_the_offset_product_of_each_chunk(d, epsilon):
    """Each chunk is mu + sqrt(eps) L z for its Philox key bit for bit,
    over one full chunk and a partial one."""
    rng = np.random.default_rng(d)
    factor = rng.normal(size=(d, d))
    model = GaussianModel(rng.uniform(5.0, 90.0, d),
                          factor @ factor.T + 0.1 * np.eye(d),
                          epsilon=epsilon)
    L = np.sqrt(epsilon) * model.cholesky_lower
    n = stochastic.SAMPLE_CHUNK + 777
    draws = sample(model, n, seed=5)
    expected = []
    for k, m in enumerate((stochastic.SAMPLE_CHUNK, 777)):
        z = np.random.Generator(np.random.Philox(
            key=np.array([5, k], dtype=np.uint64))).standard_normal((m, d))
        expected.append(model.mu_theta + z @ L.T)
    assert np.array_equal(draws, np.vstack(expected))


def test_epsilon_scales_the_sample_covariance():
    base = model2()
    model = GaussianModel(base.mu_theta, base.sigma_theta, epsilon=0.25)
    draws = sample(model, 400_000, seed=7)
    emp = np.cov(draws.T)
    target = base.sigma_theta / 4.0
    assert np.linalg.norm(emp - target) / np.linalg.norm(target) < 0.02
    assert np.all(np.abs(draws.mean(axis=0) - base.mu_theta)
                  <= 4.0 * 0.5 * base.stddevs / np.sqrt(400_000))


def test_sample_count_validation():
    with pytest.raises(Exception):
        sample(model2(), 0, seed=1)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_the_philox_key_range_is_a_config_error(seed):
    with pytest.raises(ConfigError, match="seed"):
        sample(model2(), 10, seed)


# -- Monte Carlo over a decomposition --------------------------------------------

def test_halfspace_tail_matches_closed_form(toy2r):
    """Bus-1 spike reduces to {theta > 7}: compare against the normal tail."""
    problem, _, decomp = toy2r
    model = GaussianModel(np.array([5.0]), np.array([[1.0]]))
    spec = build_thresholds(np.array(toy2r_lmp(5.0)), 0.25)
    n = 100_000
    draws = sample(model, n, seed=11)
    [mc] = mc_spike_probabilities(draws, decomp, [spec], problem=problem)
    exact = normal_tail(2.0)
    se = np.sqrt(exact * (1 - exact) / n)
    assert abs(mc.node_spike_probs[0] - exact) <= 3.0 * se


def test_fast_path_matches_direct_solves(toy_ring):
    problem, _, decomp = toy_ring
    model = GaussianModel(np.array([3.0, 4.0]),
                          np.array([[1.0, 0.3], [0.3, 2.0]]))
    draws = sample(model, 10_000, seed=13)
    spec = build_thresholds(np.array([4.5, 4.5, 4.5]), 0.25)
    [fast] = mc_spike_probabilities(draws, decomp, [spec], problem=problem)
    direct_counts = np.zeros(3, dtype=int)
    infeasible = 0
    for theta in draws:
        try:
            sol = solve_opf(problem, theta)
        except Exception:
            infeasible += 1
            continue
        vals = compute_lmp(sol, problem.ptdf).values
        direct_counts += ((vals < spec.alpha_minus)
                          | (vals > spec.alpha_plus)).astype(int)
    assert infeasible == fast.infeasible_count
    assert np.array_equal(direct_counts, fast.node_spike_counts)


def test_union_probability_dominates_each_node(toy_ring):
    problem, _, decomp = toy_ring
    model = GaussianModel(np.array([3.0, 4.0]),
                          np.array([[1.0, 0.3], [0.3, 2.0]]))
    draws = sample(model, 20_000, seed=14)
    spec = build_thresholds(np.array([4.5, 4.5, 4.5]), 0.25)
    [mc] = mc_spike_probabilities(draws, decomp, [spec], problem=problem)
    assert mc.overall_spike_prob >= mc.node_spike_probs.max() - 1e-12
    assert np.all(mc.node_spike_probs >= 0.0)
    assert np.all(mc.node_spike_probs <= 1.0)


def test_infinite_band_never_spikes(toy2r):
    problem, _, decomp = toy2r
    spec = SpikeSpec(alpha_minus=np.array([-np.inf, -np.inf]),
                     alpha_plus=np.array([np.inf, np.inf]),
                     lmp_at_mean=np.array(toy2r_lmp(5.0)))
    model = GaussianModel(np.array([5.0]), np.array([[1.0]]))
    draws = sample(model, 5_000, seed=15)
    [mc] = mc_spike_probabilities(draws, decomp, [spec], problem=problem)
    assert mc.node_spike_probs.max() == 0.0
    assert mc.overall_spike_prob == 0.0


def test_out_of_range_samples_are_counted_not_crashed(toy2r):
    problem, _, decomp = toy2r
    spec = build_thresholds(np.array(toy2r_lmp(5.0)), 0.25)
    draws = np.array([[5.0], [9.0], [14.0], [-3.0]])
    [mc] = mc_spike_probabilities(draws, decomp, [spec], problem=problem)
    # 14 exceeds demand plus export headroom: infeasible, excluded; -3 is
    # outside the parameter box but the dispatch problem still solves there
    assert mc.infeasible_count == 1
    assert mc.fallback_count == 2
    assert mc.valid_samples == 3


def test_histogram_mass(toy_ring):
    problem, _, decomp = toy_ring
    model = GaussianModel(np.array([3.0, 4.0]),
                          np.array([[1.0, 0.3], [0.3, 2.0]]))
    draws = sample(model, 5_000, seed=16)
    spec = build_thresholds(np.array([4.5, 4.5, 4.5]), 0.25)
    [mc] = mc_spike_probabilities(draws, decomp, [spec], problem=problem,
                                  bins=50)
    for hist in mc.histograms.values():
        assert hist.counts.sum() == mc.valid_samples
        assert hist.edges.size == 51


def test_empirical_density_records_band(toy_ring):
    problem, _, decomp = toy_ring
    model = GaussianModel(np.array([3.0, 4.0]),
                          np.array([[1.0, 0.3], [0.3, 2.0]]))
    draws = sample(model, 2_000, seed=17)
    spec = build_thresholds(np.array([4.5, 4.5, 4.5]), 0.25)
    hist = empirical_density(draws, decomp, node=1, bins=40, spec=spec,
                             problem=problem)
    assert hist.alpha_minus == pytest.approx(4.5 * 0.75)
    assert hist.alpha_plus == pytest.approx(4.5 * 1.25)
    assert hist.counts.sum() == 2000


def test_mc_fast_path_applies_the_tie_rule(toy2r):
    """At the jump theta = 6 both closures hold the point; the MC pricing
    takes the lexicographically smaller price vector, as locate_region does.
    One sample makes each node's price range a single value p, which the
    two-bin histogram widens to [p - 0.5, p + 0.5] with p as its middle edge."""
    problem, _, decomp = toy2r
    spec = build_thresholds(np.array(toy2r_lmp(5.0)), 0.25)
    [mc] = mc_spike_probabilities(np.array([[6.0]]), decomp, [spec],
                                  problem=problem, bins=2)
    _, located = locate_region(decomp, [6.0])
    assert mc.valid_samples == 1 and mc.fallback_count == 0
    assert np.allclose(located, [4.0, 4.0], atol=1e-9)
    assert [mc.histograms[i].edges[1] for i in (0, 1)] == list(located)


def test_zero_variance_limit_concentrates(toy_ring):
    problem, _, decomp = toy_ring
    mu = np.array([3.0, 4.0])
    model = GaussianModel(mu, 1e-12 * np.eye(2))
    draws = sample(model, 2_000, seed=18)
    at_mean = compute_lmp(solve_opf(problem, mu), problem.ptdf).values
    for node in range(3):
        hist = empirical_density(draws, decomp, node, problem=problem)
        assert hist.counts.sum() == 2_000
        assert np.abs(hist.edges[[0, -1]] - at_mean[node]).max() < 1e-3


@pytest.mark.parametrize("bins", [0, 1])
def test_fewer_than_two_bins_is_a_config_error(toy2r, bins):
    problem, _, decomp = toy2r
    spec = build_thresholds(np.array(toy2r_lmp(5.0)), 0.25)
    draws = np.array([[5.0], [7.0]])
    with pytest.raises(ConfigError, match="bins"):
        mc_spike_probabilities(draws, decomp, [spec], problem=problem,
                               bins=bins)
    with pytest.raises(ConfigError, match="bins"):
        empirical_density(draws, decomp, 0, bins=bins, problem=problem)


def test_a_price_range_too_narrow_to_bin_is_a_numerical_error(toy2r):
    """Injections a few ulps apart give bus 2 prices that span fewer doubles
    than 200 bins: a typed error naming the node, not numpy's ValueError.
    Bus 1's price is constant there, so its range is widened by 0.5."""
    problem, _, decomp = toy2r
    draws = np.array([[5.0], [np.nextafter(5.0, 6.0)],
                      [5.0 + 4 * np.spacing(5.0)]])
    hist = empirical_density(draws, decomp, 0, problem=problem)
    assert list(hist.edges[[0, -1]]) == [3.5, 4.5]
    with pytest.raises(NumericalError,
                       match=r"node index 1: .* too narrow for 200 bins"):
        empirical_density(draws, decomp, 1, problem=problem)


# rows outside the parameter set: (dispatch still solves, no dispatch exists)
OUTSIDE_ROWS = {"toy_ring": ([[-2.0, 3.0], [3.0, -2.0]],
                             [[40.0, 40.0], [20.0, 1.0]]),
                "toy2r": ([[-3.0]], [[14.0]])}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_streamed_statistics_match_the_dense_reference(toy_ring, toy2r, data):
    """Counts, probabilities and histograms equal those of the dense price
    matrix with whole-column `np.histogram`, bit for bit, with samples split
    across price blocks of a few rows, fallback and infeasible rows, and a
    zero-variance model whose price range is a single value."""
    name = data.draw(st.sampled_from(sorted(OUTSIDE_ROWS)))
    problem, _, decomp = toy_ring if name == "toy_ring" else toy2r
    d = decomp.theta_space.dim
    region = decomp.regions[data.draw(st.integers(0, decomp.n_regions - 1))]
    offset = np.array(data.draw(st.lists(st.floats(-0.7, 0.7), min_size=d,
                                         max_size=d)))
    center, radius = region.polytope.chebyshev()
    mu = center + radius * offset
    n = data.draw(st.integers(1, 60))
    if data.draw(st.booleans()):  # zero variance
        draws = np.tile(mu, (n, 1))
    else:
        factor = np.array(data.draw(st.lists(
            st.floats(-2.0, 2.0), min_size=d * d, max_size=d * d))).reshape(d, d)
        sigma = factor @ factor.T + 1e-2 * np.eye(d)
        draws = sample(GaussianModel(mu, sigma), n,
                       seed=data.draw(st.integers(0, 2 ** 32)))
    solvable, infeasible = OUTSIDE_ROWS[name]
    extra = data.draw(st.lists(st.sampled_from(solvable + infeasible),
                               max_size=4))
    if extra:
        draws = np.vstack([draws, extra])
        draws = draws[data.draw(st.permutations(range(len(draws))))]

    ref = region.lmp_at(mu)
    widths = st.lists(st.floats(0.01, 3.0), min_size=ref.size,
                      max_size=ref.size)
    node_filter = data.draw(st.none() | st.lists(
        st.integers(0, ref.size - 1), min_size=1, unique=True).map(tuple))
    spec = SpikeSpec(ref - np.array(data.draw(widths)),
                     ref + np.array(data.draw(widths)), ref,
                     node_filter=node_filter)
    bins = data.draw(st.integers(2, 12))
    block = data.draw(st.integers(2, 5))

    counts, overall, valid, fallback, hists = dense_mc_statistics(
        draws, decomp, spec, problem, bins)
    with mock.patch.object(stochastic, "PRICE_BLOCK", block):
        if valid == 0:
            with pytest.raises(InfeasibleError):
                mc_spike_probabilities(draws, decomp, [spec],
                                       problem=problem, bins=bins)
            return
        [mc] = mc_spike_probabilities(draws, decomp, [spec], problem=problem,
                                      bins=bins)
        node = spec.nodes()[0]
        density = empirical_density(draws, decomp, node, bins=bins,
                                    problem=problem)
    assert np.array_equal(mc.node_spike_counts, counts)
    assert np.array_equal(mc.node_spike_probs, counts / valid)
    assert mc.overall_spike_count == overall
    assert mc.overall_spike_prob == overall / valid
    assert mc.infeasible_count == len(draws) - valid
    assert mc.fallback_count == fallback
    assert sorted(mc.histograms) == sorted(hists)
    for i, (want_counts, want_edges) in hists.items():
        hist = mc.histograms[i]
        assert np.array_equal(hist.edges, want_edges)
        assert np.array_equal(hist.counts, want_counts)
        assert hist.counts.dtype == want_counts.dtype
    assert np.array_equal(density.edges, hists[node][1])
    assert np.array_equal(density.counts, hists[node][0])


def test_one_stream_serves_every_band(toy_ring):
    """Two bands in one call give, field by field, what one call per band
    gives, with direct-solve and infeasible samples among the draws; the
    bands share the histograms and keep their own markers."""
    problem, _, decomp = toy_ring
    model = GaussianModel(np.array([3.0, 4.0]),
                          np.array([[1.0, 0.3], [0.3, 2.0]]))
    solvable, infeasible = OUTSIDE_ROWS["toy_ring"]
    draws = np.vstack([sample(model, 5_000, seed=19), solvable, infeasible])
    specs = [build_thresholds(np.array([4.5, 4.5, 4.5]), e)
             for e in (0.1, 0.25)]
    shared = mc_spike_probabilities(draws, decomp, specs, problem=problem,
                                    bins=50)
    assert len(shared) == 2
    assert shared.fallback_count == shared[0].fallback_count >= 2
    assert shared.infeasible_count == shared[0].infeasible_count >= 2
    for spec, mc in zip(specs, shared):
        [alone] = mc_spike_probabilities(draws, decomp, [spec],
                                         problem=problem, bins=50)
        for name in ("n_samples", "overall_spike_count", "overall_spike_prob",
                     "infeasible_count", "fallback_count"):
            assert getattr(mc, name) == getattr(alone, name), name
        assert type(mc.overall_spike_count) is int
        assert np.array_equal(mc.node_spike_counts, alone.node_spike_counts)
        assert np.array_equal(mc.node_spike_probs, alone.node_spike_probs)
        assert sorted(mc.histograms) == sorted(alone.histograms) == [0, 1, 2]
        for i, hist in mc.histograms.items():
            other = alone.histograms[i]
            assert np.array_equal(hist.edges, other.edges)
            assert np.array_equal(hist.counts, other.counts)
            assert (hist.alpha_minus, hist.alpha_plus) \
                == (other.alpha_minus, other.alpha_plus) \
                == (spec.alpha_minus[i], spec.alpha_plus[i])
    # the narrower band spikes more often
    assert shared[0].overall_spike_count > shared[1].overall_spike_count


def test_specs_must_select_the_same_nodes(toy_ring):
    problem, _, decomp = toy_ring
    ref = np.array([4.5, 4.5, 4.5])
    draws = np.array([[3.0, 4.0]])
    for specs in ([build_thresholds(ref, 0.25),
                   build_thresholds(ref, 0.25, node_filter=(0, 2))], []):
        with pytest.raises(ValueError, match="same nodes"):
            mc_spike_probabilities(draws, decomp, specs, problem=problem)


@pytest.mark.parametrize("block", [2, 3, 5])
def test_price_blocks_reproduce_the_dense_prices(study14, samples_high,
                                                 block):
    """Every streamed price equals its row of the dense matrix bit for bit,
    in stable region order then the fallback rows.  case14's price maps have
    inexact coefficients, so a one-row block, which takes BLAS's
    matrix-vector kernel, would round differently; the toys' maps do not."""
    decomp, problem = study14.decomposition, study14.problem
    draws = samples_high[:3000]
    lmp, feasible, _ = evaluate_lmp_samples(draws, decomp, problem)
    idx = locate(decomp, draws)
    order = np.argsort(idx, kind="stable")
    want = np.vstack([lmp[order[idx[order] >= 0]], lmp[feasible & (idx < 0)]])
    with mock.patch.object(stochastic, "PRICE_BLOCK", block):
        blocks, _ = stochastic._price_blocks(draws, decomp, problem)
        streamed = np.vstack(list(blocks()))
    assert np.array_equal(streamed, want)


def test_region_prices_are_the_product_plus_the_offset(study14,
                                                       samples_high):
    """The 2-D `lmp_at` is `theta @ C.T + c` bit for bit on every region of
    the acceptance study, for one, two and 3000 rows."""
    draws = samples_high[:3000]
    for region in study14.decomposition.regions:
        for theta in (draws[:1], draws[:2], draws):
            assert np.array_equal(region.lmp_at(theta),
                                  theta @ region.lmp_C.T + region.lmp_c)


# -- the histogram kernel --------------------------------------------------------

def assert_bin_counts_equal_np_histogram(col, lo, hi, bins, cuts=()):
    """`_bin_counts` equals `np.histogram` over (lo, hi) in values and
    dtype, on the whole column and summed over the blocks `cuts` makes."""
    edges = np.histogram_bin_edges(np.empty(0), bins, range=(lo, hi))
    want = np.histogram(col, bins, range=(lo, hi))[0]
    got = stochastic._bin_counts(col, edges)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    summed = np.zeros(bins, dtype=np.intp)
    for block in np.split(col, cuts):
        summed += stochastic._bin_counts(block, edges)
    assert np.array_equal(summed, want)


def on_and_beside_edges(lo, hi, bins):
    """Every edge numpy derives for (lo, hi), its neighbouring doubles on
    both sides, and lo and hi, all inside the edges' range."""
    edges = np.histogram_bin_edges(np.empty(0), bins, range=(lo, hi))
    values = np.concatenate([edges, np.nextafter(edges, -np.inf),
                             np.nextafter(edges, np.inf), [lo, hi]])
    return values[(values >= edges[0]) & (values <= edges[-1])]


@pytest.mark.parametrize("lo, hi, bins", [
    (0.0, 1.0, 2), (0.1, 0.7, 299), (-7.25, -1.5, 200), (30.0, 30.0, 200),
    (-4.0, -4.0, 3), (30.0, 30.0 + 200 * np.spacing(30.0), 200),
    (1e6, 1e6 + 1e-9, 8), (1e6, 1e6 + 300 * np.spacing(1e6), 300),
    (1.0 - 60 * np.spacing(0.9), 1.0 + 60 * np.spacing(1.0), 60),
    (1e12, 1e12 + 3.0, 300), (-1e15, 1e15, 7), (-2e-300, 5e-300, 13)])
def test_bin_counts_equal_np_histogram_on_and_beside_every_edge(lo, hi,
                                                                bins):
    """Constant columns (widened by 0.5), negative ranges, ranges one ulp
    per bin wide (numpy refuses narrower ones), one across a binade, and
    large-magnitude ranges, 2 to 300 bins."""
    col = on_and_beside_edges(lo, hi, bins)
    assert_bin_counts_equal_np_histogram(col, lo, hi, bins,
                                         cuts=[1, col.size // 2])
    assert_bin_counts_equal_np_histogram(np.full(9, lo), lo, lo, bins)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_bin_counts_equal_np_histogram(data):
    """Random ranges of every width kind, values drawn on, beside and
    between the edges, and any split into blocks."""
    lo = data.draw(st.floats(-1e12, 1e12))
    width = data.draw(st.sampled_from(["constant", "ulps", "scaled"]))
    if width == "constant":
        hi = lo
    elif width == "ulps":
        hi = lo + data.draw(st.integers(1, 4000)) * np.spacing(abs(lo))
    else:
        hi = lo + data.draw(st.floats(1e-9, 1e9)) * max(1.0, abs(lo))
    bins = data.draw(st.integers(2, 300))
    try:
        edges = np.histogram_bin_edges(np.empty(0), bins, range=(lo, hi))
    except ValueError:  # fewer than one double per bin: numpy refuses
        assume(False)
    at = data.draw(st.lists(st.tuples(st.integers(0, bins),
                                      st.sampled_from([-1, 0, 1])),
                            max_size=40))
    near = [np.nextafter(edges[i], side * np.inf) if side else edges[i]
            for i, side in at]
    inner = [edges[0] + f * (edges[-1] - edges[0])
             for f in data.draw(st.lists(st.floats(0.0, 1.0), max_size=40))]
    col = np.clip(np.array(near + inner + [lo, hi]), edges[0], edges[-1])
    cuts = sorted(data.draw(st.lists(st.integers(1, col.size - 1),
                                     max_size=4, unique=True)))
    assert_bin_counts_equal_np_histogram(col, lo, hi, bins, cuts)


def test_streamed_mc_memory_stays_below_the_price_matrix(study14,
                                                         samples_high):
    """10^6 acceptance-study samples are priced without their 10^6 x 14
    price matrix (112 MiB): the traced peak stays under 40 MiB."""
    spec = study14.spike_spec(0.25)
    tracemalloc.start()
    try:
        [mc] = mc_spike_probabilities(samples_high, study14.decomposition,
                                      [spec], problem=study14.problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mc.valid_samples == 1_000_000 and len(mc.histograms) == 14
    assert peak < 40 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"


# -- mode detection ----------------------------------------------------------------

def hist_from(counts):
    counts = np.asarray(counts)
    return NodeHistogram(node=0, edges=np.arange(counts.size + 1.0),
                         counts=counts)


def test_two_well_separated_modes():
    counts = [0, 10, 80, 10, 2, 1, 2, 12, 60, 12, 0]
    assert len(find_modes(hist_from(counts))) == 2


def test_single_mode():
    counts = [1, 5, 20, 60, 90, 60, 20, 5, 1]
    assert len(find_modes(hist_from(counts))) == 1


def test_shallow_valley_is_one_mode():
    counts = [0, 50, 90, 85, 88, 90, 50, 0]  # dip less than 20% of the peak
    assert len(find_modes(hist_from(counts))) == 1


def test_close_peaks_not_separate_modes():
    counts = [0, 80, 0, 90, 0]  # two bins apart: below the separation floor
    assert len(find_modes(hist_from(counts))) == 1


# -- ranking comparison ----------------------------------------------------------

def _mc_with_probs(probs):
    probs = np.asarray(probs, dtype=float)
    n = 1_000_000
    counts = (probs * n).astype(np.int64)
    return MCResult(n_samples=n, node_spike_counts=counts,
                    node_spike_probs=counts / n, overall_spike_count=0,
                    overall_spike_prob=0.0, infeasible_count=0,
                    fallback_count=0)


def _ranking(nodes, rates):
    best = min(r for r in rates if np.isfinite(r))
    scores = tuple(-best / r if np.isfinite(r) and r > 0 else 0.0
                   for r in rates)
    return NodeRanking(nodes=tuple(nodes), rates=tuple(rates),
                       normalized_scores=scores)


def test_identical_rankings_match():
    mc = _mc_with_probs([0.5, 0.3, 0.1])
    ldp = _ranking([0, 1, 2], [1.0, 2.0, 3.0])
    cmp = compare_ranking(mc, ldp)
    assert cmp.exact_match
    assert cmp.kendall_tau == pytest.approx(1.0)
    assert cmp.resolvable_nodes == (0, 1, 2)


def test_reversed_ranking_tau_minus_one():
    mc = _mc_with_probs([0.1, 0.3, 0.5])
    ldp = _ranking([0, 1, 2], [1.0, 2.0, 3.0])
    cmp = compare_ranking(mc, ldp)
    assert not cmp.exact_match
    assert cmp.kendall_tau == pytest.approx(-1.0)


def test_resolution_floor_drops_unresolved_nodes():
    mc = _mc_with_probs([0.5, 0.3, 0.0])
    ldp = _ranking([0, 1, 2], [1.0, 2.0, 3.0])
    cmp = compare_ranking(mc, ldp)
    assert cmp.resolvable_nodes == (0, 1)
    assert cmp.exact_match


def test_exact_ties_compare_as_groups():
    mc = _mc_with_probs([0.5, 0.2, 0.2])
    # the decay ranking lists the tied pair in the opposite order
    ldp = _ranking([0, 2, 1], [1.0, 2.0, 2.0 * (1 + 1e-12)])
    cmp = compare_ranking(mc, ldp)
    assert cmp.exact_match
