"""Price-spike events and their exponential decay rates.

A spike at node i means the nodal price leaves its band [alpha_i-, alpha_i+].
Under a Gaussian injection model with rate function
I(theta) = 1/2 (theta - mu)' Sigma^{-1} (theta - mu), the probability of a
spike decays like exp(-I*/eps) where I* minimizes I over the spike event.
Because prices are affine on each critical region, the event decomposes into
per-node, per-region, per-side polytope pieces, and each piece minimum is a
small convex QP; strict inequalities are handled by minimizing over closures,
which leaves the infimum unchanged since the pieces are open within each
region interior.

Most pieces cannot hold a node's minimum.  Each piece lies in every half-space
of its region's rows and in the half-space of its own price row, and the rate
over one half-space has a closed form, so the largest of those minima is a
lower bound on the piece's rate (`piece_rate_bounds`).  `decay_rates` solves
a node's pieces in ascending bound order and stops once the bound clears the
best rate found by `PRUNE_RTOL`; only the pieces solved by then can win.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from . import qp
from .errors import ConfigError, InfeasibleError
from .regions import CriticalRegion, RegionDecomposition

UNREACHABLE = float("inf")
# Minima whose rates agree to this relative tolerance tie, so rounding noise
# never picks the winner: between the sides of a node '-' wins a tie, between
# the regions of one side the lower region id, in the ranking the lower node.
RATE_TIE_RTOL = 1e-12
# A piece whose rate bound exceeds m (1 + PRUNE_RTOL) + PRUNE_ATOL, with m the
# smallest rate solved so far, is not solved.  The margin is wide enough that
# skipping it never changes a result: a chain of ties drifts at most
# n_regions * RATE_TIE_RTOL above m, and a QP minimum sits below its piece's
# true minimum only by the solver's rounding and feasibility error (rows met
# to 1e-9 of the right-hand-side scale), both far inside 1e-6 relative; the
# absolute term keeps every piece with bound 0 in play when m is 0.
PRUNE_RTOL = 1e-6
PRUNE_ATOL = 1e-9
# price rows at most this long are constant over the region
FLAT_PRICE_TOL = 1e-12
# the sides of the band in analysis order, each with its sign s: a spike on
# side s is s * price > s * edge
SIDES = {"-": -1.0, "+": 1.0}


@dataclass(frozen=True)
class SpikeSpec:
    """Per-node price bands whose violation constitutes a spike."""
    alpha_minus: np.ndarray
    alpha_plus: np.ndarray
    lmp_at_mean: np.ndarray
    node_filter: tuple[int, ...] | None = None  # node indices, 0-based

    def __post_init__(self):
        am = np.asarray(self.alpha_minus, dtype=float)
        ap = np.asarray(self.alpha_plus, dtype=float)
        ref = np.asarray(self.lmp_at_mean, dtype=float)
        object.__setattr__(self, "alpha_minus", am)
        object.__setattr__(self, "alpha_plus", ap)
        object.__setattr__(self, "lmp_at_mean", ref)
        if not (am.shape == ap.shape == ref.shape):
            raise ConfigError("threshold vectors must share the price vector shape")
        bad = np.where(~((am < ref) & (ref < ap)))[0]
        if bad.size:
            raise ConfigError(
                "price at the mean must lie strictly inside the band; "
                f"violated at node indices {bad.tolist()}")

    @property
    def n(self) -> int:
        return self.alpha_minus.size

    def nodes(self) -> tuple[int, ...]:
        if self.node_filter is None:
            return tuple(range(self.n))
        return tuple(self.node_filter)

    def edge(self, sign: str) -> np.ndarray:
        """The band edge that a spike on side `sign` crosses."""
        return self.alpha_plus if sign == "+" else self.alpha_minus


def build_thresholds(lmp_at_mean, err_rel: float,
                     node_filter=None) -> SpikeSpec:
    """Symmetric relative bands around the price at the mean injection."""
    ref = np.asarray(lmp_at_mean, dtype=float)
    if not err_rel > 0.0:
        raise ConfigError("err_rel must be positive")
    zero = np.where(ref == 0.0)[0]
    if zero.size:
        raise ConfigError("price at the mean is zero at node indices "
                          f"{zero.tolist()}: relative band is degenerate")
    half = err_rel * np.abs(ref)
    return SpikeSpec(alpha_minus=ref - half, alpha_plus=ref + half,
                     lmp_at_mean=ref,
                     node_filter=tuple(node_filter) if node_filter is not None
                     else None)


class GaussianModel:
    """Injection model theta ~ N(mu, Sigma) and its large-fluctuation rate.

    One lower Cholesky factor of Sigma serves sampling, the rate and the
    precision matrix; `epsilon` is the noise scale of the decay asymptotics:
    `stochastic.sample` draws with covariance epsilon * Sigma.
    """

    def __init__(self, mu_theta, sigma_theta, epsilon: float = 1.0):
        self.mu_theta = np.atleast_1d(np.asarray(mu_theta, dtype=float))
        self.sigma_theta = np.atleast_2d(np.asarray(sigma_theta, dtype=float))
        if not epsilon > 0.0:
            raise ConfigError("noise scale epsilon must be positive")
        self.epsilon = float(epsilon)
        n = self.mu_theta.size
        if self.sigma_theta.shape != (n, n):
            raise ConfigError("covariance shape does not match the mean")
        try:
            self.cholesky_lower = np.linalg.cholesky(self.sigma_theta)
        except np.linalg.LinAlgError:
            raise ConfigError("covariance must be positive definite") from None
        precision = cho_solve((self.cholesky_lower, True), np.eye(n))
        self.precision = 0.5 * (precision + precision.T)

    @property
    def stddevs(self) -> np.ndarray:
        return np.sqrt(np.diag(self.sigma_theta))

    def rate(self, theta) -> float | np.ndarray:
        """1/2 (theta-mu)' Sigma^{-1} (theta-mu); vectorized over rows."""
        theta = np.asarray(theta, dtype=float)
        d = theta - self.mu_theta
        if d.ndim == 1:
            return 0.5 * float(d @ cho_solve((self.cholesky_lower, True), d))
        sol = cho_solve((self.cholesky_lower, True), d.T).T
        return 0.5 * np.einsum("ij,ij->i", d, sol)


@dataclass(frozen=True)
class PieceMinimum:
    rate: float
    theta: np.ndarray
    region_id: int


def minimize_rate_piece(model: GaussianModel, region: CriticalRegion, node: int,
                        sign: str, spec: SpikeSpec) -> PieceMinimum | None:
    """Minimum of the rate over one spike piece, or None when the piece is empty.

    The piece is the closure of {theta in the region interior : s * price
    at `node` > s * edge}, with s the `SIDES` sign of `sign`; emptiness of
    the open piece is decided by the price extreme over the region's
    vertices before any minimization.
    """
    if sign not in SIDES:
        raise ValueError("sign must be '+' or '-'")
    s = SIDES[sign]
    direction = s * region.lmp_C[node]
    offset = s * float(region.lmp_c[node])
    edge = s * float(spec.edge(sign)[node])
    poly = region.polytope
    strict_tol = 1e-9 * (1.0 + abs(edge))

    G, w = poly.G, poly.w
    if np.linalg.norm(direction) <= FLAT_PRICE_TOL:
        # constant price over the region: the piece is all of it or nothing
        if not offset > edge + strict_tol:
            return None
    elif (poly.vertices() @ direction).max() + offset <= edge + strict_tol:
        return None  # price never exits the band inside this region
    else:
        G = np.vstack([G, -direction.reshape(1, -1)])
        w = np.concatenate([w, [offset - edge]])

    H = model.precision
    h = -H @ model.mu_theta
    try:
        res = qp.solve_qp(H, h, A_in=G, b_in=w)
    except InfeasibleError:
        return None
    theta_star = res.x
    return PieceMinimum(rate=float(model.rate(theta_star)), theta=theta_star,
                        region_id=region.id)


def halfspace_rate(model: GaussianModel, A, b) -> np.ndarray:
    """Minimum of the rate over each half-space {theta : a' theta <= b}.

    The closed form ((a' mu - b)_+)^2 / (2 a' Sigma a), vectorized over the
    rows of A; a row with a' Sigma a = 0 bounds nothing and gives 0.
    """
    excess = np.maximum(A @ model.mu_theta - b, 0.0)
    spread = 2.0 * np.einsum("ij,jk,ik->i", A, model.sigma_theta, A)
    return np.divide(excess ** 2, spread, out=np.zeros_like(excess),
                     where=spread > 0.0)


def piece_rate_bounds(decomposition: RegionDecomposition, model: GaussianModel,
                      spec: SpikeSpec) -> np.ndarray:
    """Lower bounds on every piece's rate, shape (2, n_regions, n_nodes).

    Axis 0 is the side in `SIDES` order, '-' then '+'.  A piece lies in
    every half-space of its region's rows and in its price row's half-space
    -s C theta <= s (c - edge), so the largest of their `halfspace_rate`
    minima bounds the rate over the piece from below.  A constant price row
    adds nothing.
    """
    bounds = np.zeros((2, decomposition.n_regions, spec.n))
    for k, region in enumerate(decomposition.regions):
        poly = region.polytope
        rows = halfspace_rate(model, poly.G, poly.w).max(initial=0.0)
        C, c = region.lmp_C, region.lmp_c
        flat = np.sqrt(np.vecdot(C, C)) <= FLAT_PRICE_TOL
        for side, (sign, s) in enumerate(SIDES.items()):
            own = halfspace_rate(model, -s * C, s * (c - spec.edge(sign)))
            bounds[side, k] = np.maximum(np.where(flat, 0.0, own), rows)
    return bounds


@dataclass(frozen=True)
class SpikeDecayResult:
    """Decay-rate minimizer for one node and one side of the band."""
    node: int
    sign: str
    rate: float
    theta_star: np.ndarray | None
    region_id: int | None
    boundary_gap: float | None
    on_theta_boundary: bool

    @property
    def reachable(self) -> bool:
        return math.isfinite(self.rate)


@dataclass
class SpikeAnalysis:
    """Per-node decay rates, their minimizers, and the overall event rate."""
    per_side: dict[tuple[int, str], SpikeDecayResult]
    node_rates: dict[int, float]
    overall_rate: float
    # pieces `minimize_rate_piece` was called on, and those skipped because
    # their rate bound cleared the best rate; run statistics, not part of
    # any output file
    pieces_solved: int = 0
    pieces_pruned: int = 0

    def result(self, node: int, sign: str) -> SpikeDecayResult:
        return self.per_side[(node, sign)]

    def nodes(self) -> list[int]:
        return sorted(self.node_rates)


def _tied(a: float, b: float, rel_tol: float = RATE_TIE_RTOL) -> bool:
    """Finite values within rel_tol of each other, or equal values."""
    if math.isfinite(a) and math.isfinite(b):
        return abs(a - b) <= rel_tol * max(abs(a), abs(b))
    return a == b


def _beats(rate: float, key, best_rate: float, best_key) -> bool:
    """Whether a minimum beats the incumbent; on a tie the smaller key wins."""
    return key < best_key if _tied(rate, best_rate) else rate < best_rate


def decay_rates(decomposition: RegionDecomposition, model: GaussianModel,
                spec: SpikeSpec) -> SpikeAnalysis:
    """Minimize the rate over the per-node spike pieces and aggregate.

    Per node and side, pieces are solved in ascending order of their
    `piece_rate_bounds` value (region id on equal bounds) until the bound
    clears the smallest rate found by the `PRUNE_RTOL` margin; the skipped
    pieces cannot hold the minimum.  The solved pieces are then compared in
    region-id order, so ties resolve exactly as over every piece.

    A node whose price never leaves its band anywhere in the parameter set
    gets an infinite rate (event unreachable).  For finite rates the minimizer
    is recorded together with its region, the gap between the map price and
    the threshold, and whether it sits on the parameter-set boundary.
    """
    theta_poly = decomposition.theta_space
    boundary_tol = 1e-7 * (1.0 + float(np.abs(theta_poly.w).max()
                                       if theta_poly.n_rows else 1.0))
    bounds = piece_rate_bounds(decomposition, model, spec)
    per_side: dict[tuple[int, str], SpikeDecayResult] = {}
    node_rates: dict[int, float] = {}
    solved = 0
    for node in spec.nodes():
        for side, sign in enumerate(SIDES):
            bound = bounds[side, :, node]
            pieces: list[PieceMinimum] = []
            least = UNREACHABLE
            for k in np.argsort(bound, kind="stable"):
                if bound[k] > least * (1.0 + PRUNE_RTOL) + PRUNE_ATOL:
                    break
                solved += 1
                piece = minimize_rate_piece(model, decomposition.regions[k],
                                            node, sign, spec)
                if piece is not None:
                    pieces.append(piece)
                    least = min(least, piece.rate)
            best: PieceMinimum | None = None
            for piece in sorted(pieces, key=lambda p: p.region_id):
                if best is None or _beats(piece.rate, piece.region_id,
                                          best.rate, best.region_id):
                    best = piece
            if best is None:
                per_side[(node, sign)] = SpikeDecayResult(
                    node=node, sign=sign, rate=UNREACHABLE, theta_star=None,
                    region_id=None, boundary_gap=None, on_theta_boundary=False)
                continue
            region = decomposition.regions[best.region_id]
            gap = abs(float(region.lmp_at(best.theta)[node])
                      - float(spec.edge(sign)[node]))
            on_boundary = bool(np.any(
                theta_poly.G @ best.theta >= theta_poly.w - boundary_tol)) \
                if theta_poly.n_rows else False
            per_side[(node, sign)] = SpikeDecayResult(
                node=node, sign=sign, rate=best.rate, theta_star=best.theta,
                region_id=best.region_id, boundary_gap=gap,
                on_theta_boundary=on_boundary)
        node_rates[node] = min(per_side[(node, "-")].rate,
                               per_side[(node, "+")].rate)
    overall = min(node_rates.values()) if node_rates else UNREACHABLE
    total = 2 * len(node_rates) * decomposition.n_regions
    return SpikeAnalysis(per_side=per_side, node_rates=node_rates,
                         overall_rate=overall, pieces_solved=solved,
                         pieces_pruned=total - solved)


@dataclass(frozen=True)
class NodeRanking:
    """Nodes ordered by ascending decay rate (most spike-prone first)."""
    nodes: tuple[int, ...]
    rates: tuple[float, ...]
    normalized_scores: tuple[float, ...]  # -min_k rate_k / rate_i, in [-1, 0]


def rank_nodes(analysis: SpikeAnalysis) -> NodeRanking:
    """Ascending rates; rates tied within RATE_TIE_RTOL go by node index."""
    order = sorted(analysis.node_rates, key=lambda n: (analysis.node_rates[n], n))
    nodes = canonical_groups(order, analysis.node_rates.__getitem__,
                             RATE_TIE_RTOL)
    rates = tuple(analysis.node_rates[n] for n in nodes)
    finite = [r for r in rates if math.isfinite(r)]
    best = min(finite) if finite else UNREACHABLE
    scores = tuple(
        0.0 if not math.isfinite(r) else (-best / r if r > 0.0 else -1.0)
        for r in rates)
    return NodeRanking(nodes=nodes, rates=rates, normalized_scores=scores)


def canonical_groups(order, value_of, rel_tol) -> tuple[int, ...]:
    """Re-sort tied stretches of an ordered node list by node index."""
    out: list[int] = []
    group: list[int] = []
    for n in order:
        if group and not _tied(value_of(group[-1]), value_of(n), rel_tol):
            out.extend(sorted(group))
            group = []
        group.append(n)
    return tuple(out + sorted(group))


def write_decay_csv(analysis: SpikeAnalysis, ranking: NodeRanking, path,
                    node_ids) -> None:
    """Per-node export: rates per side, minimizer, region, score and rank.

    `node_ids` maps internal 0-based node indices to the printed bus ids.
    """
    n_t = next((r.theta_star.size for r in analysis.per_side.values()
                if r.theta_star is not None), 0)
    rank_of = {node: k + 1 for k, node in enumerate(ranking.nodes)}
    score_of = dict(zip(ranking.nodes, ranking.normalized_scores))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = (["node", "I_star_minus", "I_star_plus", "I_star"]
                  + [f"theta_star_{k + 1}" for k in range(n_t)]
                  + ["region_id", "normalized_score", "rank"])
        writer.writerow(header)
        for node in analysis.nodes():
            minus = analysis.result(node, "-")
            plus = analysis.result(node, "+")
            rate_i = analysis.node_rates[node]
            # key 0 for '-' below key 1 for '+': '-' wins a tie
            winner = plus if _beats(plus.rate, 1, minus.rate, 0) else minus
            theta_cols = ([repr(float(v)) for v in winner.theta_star]
                          if winner.theta_star is not None else [""] * n_t)
            writer.writerow(
                [node_ids[node], _fmt_rate(minus.rate), _fmt_rate(plus.rate),
                 _fmt_rate(rate_i)]
                + theta_cols
                + [winner.region_id if winner.region_id is not None else "",
                   repr(float(score_of[node])), rank_of[node]])


def _fmt_rate(value: float) -> str:
    return "" if not math.isfinite(value) else repr(float(value))
