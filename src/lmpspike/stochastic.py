"""Injection covariance, sampling and Monte Carlo validation.

The covariance of the renewable injections comes from a normalized
graph-Laplacian kernel: C = tau^(2 kappa) (L_sym + tau^2 I)^(-kappa) over all
buses, restricted to the renewable buses and rescaled so each standard
deviation matches a forecast-error fraction of installed capacity; the model
built from it is `spikes.GaussianModel`.  Sampling uses a counter-based
Philox generator keyed by (seed, chunk), so runs are reproducible and chunk
order cannot change the stream.  Samples are priced through
`regions.locate`, the same lookup and tie rule as `locate_region`.

Monte Carlo statistics are streamed, once for all bands: `regions.locate`
runs once over all samples, a stable counting sort groups the sample
indices by region, and each region's samples are priced by its affine map
in blocks of at most `PRICE_BLOCK` rows, so memory grows with the samples,
not with samples x buses.  A first pass over the blocks counts each band's
spikes and finds each node's price range; a second re-prices the blocks
and bins them over that range with `_bin_counts`, numpy's uniform-bin rule
without `np.histogram`'s per-call overhead, for histograms every band
shares.  numpy bins each value on its own against edges fixed by the
range, so the summed block counts, like every other figure, equal those
of each node's whole price column (see `mc_spike_probabilities`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CaseError, ConfigError, InfeasibleError, NumericalError
from .grid import GridCase, weighted_laplacian
from .opf import MPQPProblem, compute_lmp, solve_opf
from .regions import RegionDecomposition, locate
from .spikes import (GaussianModel, NodeRanking, SpikeSpec,
                     canonical_groups)

# draws per keyed Philox substream: changing it changes every seed's stream
SAMPLE_CHUNK = 1 << 16
# samples priced per block: 16384 x 14 float64 prices are 1.8 MB on case14
PRICE_BLOCK = 16384


@dataclass(frozen=True)
class CovarianceSpec:
    q: float                      # forecast-error fraction of installed capacity
    installed: np.ndarray         # MW per renewable bus
    kappa: float = 2.0
    tau_squared: float = 1.0

    def __post_init__(self):
        installed = np.atleast_1d(np.asarray(self.installed, dtype=float))
        object.__setattr__(self, "installed", installed)
        if not self.q > 0.0:
            raise ConfigError("q must be positive")
        if not self.tau_squared > 0.0:
            raise ConfigError("tau_squared must be positive")
        if np.any(installed <= 0.0):
            raise ConfigError("installed capacities must be positive")


def build_covariance(case: GridCase, spec: CovarianceSpec) -> np.ndarray:
    """Renewable-bus covariance from the normalized Laplacian kernel.

    The all-bus kernel is computed through the eigendecomposition of the
    symmetric normalized Laplacian (exact for any positive exponent), its
    renewable-bus submatrix extracted, then symmetrically scaled so that
    std_i = q * installed_i.
    """
    if case.n_theta == 0:
        raise CaseError("case has no renewable buses")
    if spec.installed.shape != (case.n_theta,):
        raise ConfigError("installed capacity vector length mismatch")
    L = weighted_laplacian(case)
    degrees = np.diag(L).copy()
    if np.any(degrees <= 0.0):
        raise CaseError("isolated bus: zero degree in the weighted graph")
    d_inv_sqrt = 1.0 / np.sqrt(degrees)
    L_sym = d_inv_sqrt[:, None] * L * d_inv_sqrt[None, :]
    evals, evecs = np.linalg.eigh(L_sym)
    evals = np.clip(evals, 0.0, None)
    kernel_eigs = spec.tau_squared ** spec.kappa \
        / (evals + spec.tau_squared) ** spec.kappa
    C = (evecs * kernel_eigs) @ evecs.T
    idx = case.renewable_bus_indices
    sub = C[np.ix_(idx, idx)]
    delta = spec.q * spec.installed / np.sqrt(np.diag(sub))
    sigma = sub * np.outer(delta, delta)
    return 0.5 * (sigma + sigma.T)


def sample(model: GaussianModel, n: int, seed: int) -> np.ndarray:
    """n draws of theta = mu + sqrt(eps) L z, chunked into keyed substreams.

    L is the Cholesky factor of Sigma and eps the model's noise scale, so
    the draws have covariance eps * Sigma; at eps = 1 the factor is exactly
    1 and the stream is that of N(mu, Sigma).  Chunk k uses Philox key
    (seed, k); the result is identical however the chunks would be
    scheduled, and bit-identical across runs for a fixed numpy version.
    Each chunk's product is written in place and mu added to it a column
    at a time; that is the bits of `mu + z @ L.T`, since the product fills
    a C-contiguous row slice as it fills a new array and each element gets
    the same one addition.
    """
    if n < 1:
        raise ConfigError("sample count must be >= 1")
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"seed must be in [0, 2^64), got {seed}")
    mu = model.mu_theta
    L = math.sqrt(model.epsilon) * model.cholesky_lower
    out = np.empty((n, mu.size))
    for k, start in enumerate(range(0, n, SAMPLE_CHUNK)):
        stop = min(start + SAMPLE_CHUNK, n)
        bitgen = np.random.Philox(key=np.array([seed, k], dtype=np.uint64))
        rng = np.random.Generator(bitgen)
        z = rng.standard_normal((stop - start, mu.size))
        np.matmul(z, L.T, out=out[start:stop])
        for j, m in enumerate(mu):
            out[start:stop, j] += m
    return out


@dataclass
class NodeHistogram:
    node: int
    edges: np.ndarray
    counts: np.ndarray
    alpha_minus: float | None = None
    alpha_plus: float | None = None

    def to_dict(self) -> dict:
        return {"node": self.node, "edges": self.edges.tolist(),
                "counts": self.counts.tolist(),
                "alpha_minus": self.alpha_minus, "alpha_plus": self.alpha_plus}


@dataclass
class MCResult:
    n_samples: int
    node_spike_counts: np.ndarray
    node_spike_probs: np.ndarray
    overall_spike_count: int
    overall_spike_prob: float
    infeasible_count: int
    fallback_count: int
    histograms: dict[int, NodeHistogram] = field(default_factory=dict)

    @property
    def valid_samples(self) -> int:
        return self.n_samples - self.infeasible_count


class MCResults(list):
    """One `MCResult` per spec; perfbench's tracer reads the shared counts."""
    fallback_count = property(lambda self: self[0].fallback_count)
    infeasible_count = property(lambda self: self[0].infeasible_count)


def mc_spike_probabilities(samples: np.ndarray,
                           decomposition: RegionDecomposition,
                           specs: list[SpikeSpec],
                           problem: MPQPProblem,
                           bins: int = 200) -> MCResults:
    """Empirical spike frequencies per node and overall, one result per spec.

    The per-node event is the price leaving [alpha-, alpha+]; the overall
    event is any filtered node spiking; infeasible samples are excluded.
    The specs select the same nodes, and one `_stream` locates, prices and
    bins the samples for all of them; the results share the histograms'
    edges and counts, each with its own band markers.  Every figure is bit
    for bit that of `np.histogram` on the dense price matrix's columns:
    counts are integer sums, extremes ignore sample order, each price is
    the same product of its region's map, and numpy bins each value alone
    against edges that an explicit range derives as the automatic one does.
    """
    selected = {spec.nodes() for spec in specs}
    if len(selected) != 1:
        raise ValueError("the spike specs must select the same nodes, "
                         f"not {sorted(selected)}")
    nodes = list(selected.pop())
    valid, fallback, spike_counts, overall, hists = _stream(
        samples, decomposition, problem, nodes, bins, specs)
    node_counts = np.zeros((len(specs), specs[0].n), dtype=np.int64)
    node_counts[:, nodes] = spike_counts
    return MCResults(MCResult(
        n_samples=len(samples), node_spike_counts=counts,
        node_spike_probs=counts / valid, overall_spike_count=spiked,
        overall_spike_prob=spiked / valid,
        infeasible_count=len(samples) - valid, fallback_count=fallback,
        histograms={i: _node_histogram(i, *h, spec)
                    for i, h in zip(nodes, hists)})
        for spec, counts, spiked in zip(specs, node_counts, overall))


def empirical_density(samples: np.ndarray, decomposition: RegionDecomposition,
                      node: int, bins: int = 200,
                      spec: SpikeSpec | None = None, *,
                      problem: MPQPProblem) -> NodeHistogram:
    """Histogram of one node's price over the samples, with band markers."""
    hists = _stream(samples, decomposition, problem, [node], bins)[-1]
    return _node_histogram(node, *hists[0], spec)


def _stream(samples: np.ndarray, decomposition: RegionDecomposition,
            problem: MPQPProblem, nodes: list[int], bins: int,
            specs: list[SpikeSpec] = ()):
    """The two passes over the price blocks, for the `nodes` columns.

    Returns (valid, fallback, spike_counts, overall, hists): the feasible
    and fallback sample counts, each spec's per-node and any-node spike
    counts, both from one read of each block, and per-node (edges, counts).
    """
    if bins < 2:
        raise ConfigError("need at least 2 bins")
    blocks, fallback = _price_blocks(samples, decomposition, problem)
    valid, overall = 0, [0] * len(specs)
    spike_counts = np.zeros((len(specs), len(nodes)), dtype=np.int64)
    bands = [(spec.alpha_minus[nodes][:, None], spec.alpha_plus[nodes][:, None])
             for spec in specs]
    lo = np.full(len(nodes), np.inf)
    hi = np.full(len(nodes), -np.inf)
    for block in blocks():
        vals = block.T[nodes]  # node-major copy: one row per node
        valid += vals.shape[1]
        for k, (below, above) in enumerate(bands):
            spikes = (vals < below) | (vals > above)
            spike_counts[k] += spikes.sum(axis=1)
            overall[k] += int(np.count_nonzero(spikes.any(axis=0)))
        np.minimum(lo, vals.min(axis=1), out=lo)
        np.maximum(hi, vals.max(axis=1), out=hi)
    if valid == 0:
        raise InfeasibleError("no feasible Monte Carlo samples")
    hists = []
    for node, r in zip(nodes, zip(lo.tolist(), hi.tolist())):
        try:
            edges = np.histogram_bin_edges(np.empty(0), bins, range=r)
        except ValueError:  # fewer doubles in the range than bins
            raise NumericalError(f"node index {node}: sampled prices span "
                                 f"{list(r)}, too narrow for {bins} bins"
                                 ) from None
        hists.append((edges, np.zeros(bins, dtype=np.intp)))
    for block in blocks():
        for col, (edges, counts) in zip(block.T[nodes], hists):
            counts += _bin_counts(col, edges)
    return valid, fallback, spike_counts, overall, hists


def _bin_counts(col: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """`np.histogram(col, bins, range=(edges[0], edges[-1]))[0]` for the
    edges numpy derives from that range, when every value lies in it.

    numpy's uniform-bin rule without its range filter and per-call edge
    rebuild: numpy's own estimate, same operations in the same order,
    clipped to the last bin and counted by one `np.bincount`; then, as
    numpy does, a value below its bin's lower edge moves one bin down,
    else one at or above its upper edge (+inf for the last bin, which
    holds its right edge) one bin up.  Only rows that move are touched; a
    row moved down never moves up, its new upper edge being the edge it
    fell below.
    """
    bins = edges.size - 1
    est = col - edges[0]
    est /= edges[-1] - edges[0]
    est *= bins
    k = est.astype(np.intp)
    np.minimum(k, bins - 1, out=k)
    counts = np.bincount(k, minlength=bins)
    upper = np.append(edges[1:-1], np.inf)
    for table, moves, step in ((edges, np.less, -1),
                               (upper, np.greater_equal, 1)):
        rows = np.flatnonzero(moves(col, table[k]))
        if rows.size:
            np.subtract.at(counts, k[rows], 1)
            k[rows] += step
            np.add.at(counts, k[rows], 1)
    return counts


def _price_blocks(samples: np.ndarray, decomposition: RegionDecomposition,
                  problem: MPQPProblem):
    """The feasible samples' price blocks, re-iterable, and the fallback count.

    `regions.locate` assigns each sample its region once, so the tie rule of
    `locate_region` holds here too.  Samples in no region closure fall back
    to a direct dispatch solve; those that are infeasible outright are left
    out.  A stable counting sort of the region indices groups the samples by
    region, and each call of the returned function yields every region's
    samples priced by its map, at most `PRICE_BLOCK` + 1 rows at a time, then
    the fallback prices as one block.
    A one-row block would go through BLAS's matrix-vector kernel, whose
    rounding may differ from the matrix-matrix one, so a region's block has
    one row only when the region holds a single sample.
    """
    samples = np.asarray(samples, dtype=float)
    regions = decomposition.regions
    idx = locate(decomposition, samples)
    outside = np.flatnonzero(idx < 0)
    extra = []
    for i in outside:
        try:
            sol = solve_opf(problem, samples[i])
        except InfeasibleError:
            continue
        extra.append(compute_lmp(sol, problem.ptdf).values)
    extra = np.array(extra)
    # counting sort: a stable argsort of a <= 16-bit key is a radix sort;
    # idx goes first, so only one 8-byte index per sample is held at a time
    label = (idx + 1).astype(np.min_scalar_type(len(regions)))
    del idx
    order = np.argsort(label, kind="stable")
    ends = np.cumsum(np.bincount(label, minlength=len(regions) + 1))

    def blocks():
        for region, start, stop in zip(regions, ends[:-1], ends[1:]):
            while start < stop:
                end = stop if stop - start <= PRICE_BLOCK + 1 \
                    else start + PRICE_BLOCK
                yield region.lmp_at(samples[order[start:end]])
                start = end
        if len(extra):
            yield extra

    return blocks, outside.size


def _node_histogram(node: int, edges: np.ndarray, counts: np.ndarray,
                    spec: SpikeSpec | None) -> NodeHistogram:
    """A node's histogram with its band markers."""
    if spec is None:
        return NodeHistogram(node, edges, counts)
    return NodeHistogram(node, edges, counts, float(spec.alpha_minus[node]),
                         float(spec.alpha_plus[node]))


def find_modes(hist: NodeHistogram) -> list[int]:
    """Bin indices of distinct histogram modes.

    A candidate is a strict-or-plateau local maximum at least 5% of the
    global peak (sampling noise in sparse tails is not a mode); candidates
    are accepted greedily by height if they sit at least 3 bins from every
    accepted mode and the valley between them drops at least 20% below the
    smaller of the two peaks.
    """
    c = hist.counts.astype(float)
    n = c.size
    floor = 0.05 * c.max() if c.size else 0.0
    candidates = []
    for i in range(n):
        left = c[i - 1] if i > 0 else -1.0
        right = c[i + 1] if i < n - 1 else -1.0
        if c[i] >= max(floor, 1.0) and c[i] >= left and c[i] >= right \
                and (c[i] > left or c[i] > right):
            candidates.append(i)
    candidates.sort(key=lambda i: (-c[i], i))
    accepted: list[int] = []
    for i in candidates:
        ok = True
        for j in accepted:
            if abs(i - j) < 3:
                ok = False
                break
            lo, hi = min(i, j), max(i, j)
            valley = c[lo:hi + 1].min()
            if valley > 0.8 * min(c[i], c[j]):
                ok = False
                break
        if ok:
            accepted.append(i)
    return sorted(accepted)


@dataclass(frozen=True)
class RankingComparison:
    exact_match: bool
    kendall_tau: float
    resolvable_nodes: tuple[int, ...]
    mc_order: tuple[int, ...]
    ldp_order: tuple[int, ...]


def compare_ranking(mc: MCResult, ldp: NodeRanking) -> RankingComparison:
    """Order agreement between empirical frequencies and decay rates.

    Only nodes with at least 10 observed spikes enter the comparison.  Tied
    values on either side (rates within a relative 1e-9, exactly equal
    frequencies) have no canonical order, so both orders are canonicalized
    by sorting tied groups by node index before comparing; the rank
    correlation uses the raw values.
    """
    resolution_floor = 10.0 / max(mc.valid_samples, 1)
    probs = mc.node_spike_probs
    resolvable = [n for n in ldp.nodes if probs[n] >= resolution_floor]
    rate_of = dict(zip(ldp.nodes, ldp.rates))

    mc_order = sorted(resolvable, key=lambda n: (-probs[n], n))
    ldp_order = canonical_groups(
        sorted(resolvable, key=lambda n: (rate_of[n], n)), rate_of.__getitem__,
        1e-9)
    mc_canon = canonical_groups(mc_order, lambda n: -probs[n], 0.0)
    exact = mc_canon == ldp_order

    tau = _kendall_tau([-probs[n] for n in resolvable],
                       [rate_of[n] for n in resolvable]) \
        if len(resolvable) > 1 else 1.0
    return RankingComparison(exact_match=exact, kendall_tau=tau,
                             resolvable_nodes=tuple(resolvable),
                             mc_order=tuple(mc_order),
                             ldp_order=tuple(ldp_order))


def _kendall_tau(a, b) -> float:
    n = len(a)
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            s = (a[i] - a[j]) * (b[i] - b[j])
            if s > 0:
                concordant += 1
            elif s < 0:
                discordant += 1
    total = n * (n - 1) / 2
    return (concordant - discordant) / total if total else 1.0


def write_mc_csv(mc: MCResult, path, node_ids) -> None:
    import csv
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "spike_count", "spike_prob"])
        for i in range(mc.node_spike_probs.size):
            writer.writerow([node_ids[i], int(mc.node_spike_counts[i]),
                             repr(float(mc.node_spike_probs[i]))])


def write_histograms(mc: MCResult, directory, node_ids) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, hist in sorted(mc.histograms.items()):
        doc = hist.to_dict()
        doc["node"] = node_ids[i]
        (directory / f"lmp_hist_node{doc['node']}.json").write_text(
            json.dumps(doc, sort_keys=True))
