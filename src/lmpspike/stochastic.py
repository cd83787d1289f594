"""Injection covariance, sampling and Monte Carlo validation.

The covariance of the renewable injections comes from a normalized
graph-Laplacian kernel: C = tau^(2 kappa) (L_sym + tau^2 I)^(-kappa) over all
buses, restricted to the renewable buses and rescaled so each standard
deviation matches a forecast-error fraction of installed capacity; the model
built from it is `spikes.GaussianModel`.  Sampling uses a counter-based
Philox generator keyed by (seed, chunk), so runs are reproducible and chunk
order cannot change the stream.  Samples are priced through
`regions.locate`, the same lookup and tie rule as `locate_region`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CaseError, ConfigError, InfeasibleError
from .grid import GridCase, weighted_laplacian
from .opf import MPQPProblem, compute_lmp, solve_opf
from .regions import RegionDecomposition, locate
from .spikes import (GaussianModel, NodeRanking, SpikeSpec,
                     canonical_groups)

SAMPLE_CHUNK = 1 << 16


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


def sample(model: GaussianModel, n: int, seed: int,
           chunk: int = SAMPLE_CHUNK) -> np.ndarray:
    """n draws from the model, chunked into independent keyed substreams.

    Chunk k uses Philox key (seed, k); the result is identical however the
    chunks would be scheduled, and bit-identical across runs for a fixed
    numpy version.
    """
    if n < 1:
        raise ConfigError("sample count must be >= 1")
    d = model.mu_theta.size
    L = model.cholesky_lower
    out = np.empty((n, d))
    for k, start in enumerate(range(0, n, chunk)):
        stop = min(start + chunk, n)
        bitgen = np.random.Philox(key=np.array([seed, k], dtype=np.uint64))
        rng = np.random.Generator(bitgen)
        z = rng.standard_normal((stop - start, d))
        out[start:stop] = model.mu_theta + z @ L.T
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
    seed: int
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


def evaluate_lmp_samples(samples: np.ndarray, decomposition: RegionDecomposition,
                         problem: MPQPProblem | None = None):
    """Price matrix for every sample via `regions.locate`.

    Each sample is priced by the map of the region `locate` assigns, so the
    lexicographic tie rule of `locate_region` holds here too.  Samples in no
    region closure fall back to a direct dispatch solve when a problem is
    supplied; samples that are infeasible outright are excluded (their price
    rows are NaN).  Returns (lmp_matrix, feasible_mask, fallback_count).
    """
    samples = np.asarray(samples, dtype=float)
    idx = locate(decomposition, samples)
    n_nodes = decomposition.regions[0].lmp_c.size
    lmp = np.full((samples.shape[0], n_nodes), np.nan)
    hits = np.bincount(idx + 1, minlength=len(decomposition.regions) + 1)
    for k in np.flatnonzero(hits[1:]):
        sel = np.flatnonzero(idx == k)
        lmp[sel] = decomposition.regions[k].lmp_at(samples[sel])
    feasible = idx >= 0
    fallback = 0
    if problem is not None:
        for i in np.flatnonzero(~feasible):
            fallback += 1
            try:
                sol = solve_opf(problem, samples[i])
            except InfeasibleError:
                continue
            lmp[i] = compute_lmp(sol, problem.ptdf).values
            feasible[i] = True
    return lmp, feasible, fallback


def mc_spike_probabilities(samples: np.ndarray,
                           decomposition: RegionDecomposition,
                           spec: SpikeSpec,
                           problem: MPQPProblem | None = None,
                           seed: int = 0,
                           bins: int = 200,
                           with_histograms: bool = True) -> MCResult:
    """Empirical spike frequencies per node and overall.

    The per-node event is the price leaving [alpha-, alpha+]; the overall
    event is any filtered node spiking.  Infeasible samples are counted and
    excluded from the statistics.
    """
    lmp, feasible, fallback = evaluate_lmp_samples(samples, decomposition,
                                                   problem)
    n_s = samples.shape[0]
    valid = int(feasible.sum())
    if valid == 0:
        raise InfeasibleError("no feasible Monte Carlo samples")
    vals = lmp[feasible]
    spikes = (vals < spec.alpha_minus) | (vals > spec.alpha_plus)
    nodes = list(spec.nodes())
    node_counts = np.zeros(spec.n, dtype=np.int64)
    node_counts[nodes] = spikes[:, nodes].sum(axis=0)
    overall = int(np.any(spikes[:, nodes], axis=1).sum())
    hists = {i: _histogram(vals, i, bins, spec) for i in nodes} \
        if with_histograms else {}
    return MCResult(n_samples=n_s, seed=seed,
                    node_spike_counts=node_counts,
                    node_spike_probs=node_counts / valid,
                    overall_spike_count=overall,
                    overall_spike_prob=overall / valid,
                    infeasible_count=n_s - valid,
                    fallback_count=fallback,
                    histograms=hists)


def empirical_density(samples: np.ndarray, decomposition: RegionDecomposition,
                      node: int, bins: int = 200,
                      spec: SpikeSpec | None = None,
                      problem: MPQPProblem | None = None) -> NodeHistogram:
    """Histogram of one node's price over the samples, with band markers."""
    if bins < 2:
        raise ConfigError("need at least 2 bins")
    lmp, feasible, _ = evaluate_lmp_samples(samples, decomposition, problem)
    return _histogram(lmp[feasible], node, bins, spec)


def _histogram(vals: np.ndarray, node: int, bins: int,
               spec: SpikeSpec | None) -> NodeHistogram:
    """Histogram of column `node` of a price matrix, with its band markers."""
    counts, edges = np.histogram(vals[:, node], bins=bins)
    hist = NodeHistogram(node=node, edges=edges, counts=counts)
    if spec is not None:
        hist.alpha_minus = float(spec.alpha_minus[node])
        hist.alpha_plus = float(spec.alpha_plus[node])
    return hist


def find_modes(hist: NodeHistogram, min_separation: int = 3,
               valley_depth: float = 0.2,
               min_count_frac: float = 0.05) -> list[int]:
    """Bin indices of distinct histogram modes.

    A candidate is a strict-or-plateau local maximum at least min_count_frac
    of the global peak (sampling noise in sparse tails is not a mode);
    candidates are accepted greedily by height if they sit at least
    `min_separation` bins from every accepted mode and the valley between
    them drops at least `valley_depth` below the smaller of the two peaks.
    """
    c = hist.counts.astype(float)
    n = c.size
    floor = min_count_frac * c.max() if c.size else 0.0
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
            if abs(i - j) < min_separation:
                ok = False
                break
            lo, hi = min(i, j), max(i, j)
            valley = c[lo:hi + 1].min()
            if valley > (1.0 - valley_depth) * min(c[i], c[j]):
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


def compare_ranking(mc: MCResult, ldp: NodeRanking,
                    resolution_floor: float | None = None,
                    tie_rel_tol: float = 1e-9) -> RankingComparison:
    """Order agreement between empirical frequencies and decay rates.

    Only nodes whose spike frequency clears a resolution floor (default: 10
    observed events) enter the comparison.  Exactly tied values on either
    side have no canonical order, so both orders are canonicalized by sorting
    tied groups by node index before comparing; the rank correlation uses the
    raw values.
    """
    if resolution_floor is None:
        resolution_floor = 10.0 / max(mc.valid_samples, 1)
    probs = mc.node_spike_probs
    resolvable = [n for n in ldp.nodes if probs[n] >= resolution_floor]
    rate_of = dict(zip(ldp.nodes, ldp.rates))

    mc_order = sorted(resolvable, key=lambda n: (-probs[n], n))
    ldp_order = canonical_groups(
        sorted(resolvable, key=lambda n: (rate_of[n], n)), rate_of.__getitem__,
        tie_rel_tol)
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


def write_mc_csv(mc: MCResult, path, node_ids=None) -> None:
    import csv
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "spike_count", "spike_prob"])
        for i in range(mc.node_spike_probs.size):
            writer.writerow([node_ids[i] if node_ids else i + 1,
                             int(mc.node_spike_counts[i]),
                             repr(float(mc.node_spike_probs[i]))])


def write_histograms(mc: MCResult, directory, node_ids=None) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, hist in sorted(mc.histograms.items()):
        doc = hist.to_dict()
        doc["node"] = node_ids[i] if node_ids else i + 1
        (directory / f"lmp_hist_node{doc['node']}.json").write_text(
            json.dumps(doc, sort_keys=True))
