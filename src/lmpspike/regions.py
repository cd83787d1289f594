"""Critical regions of the feasible renewable-injection space.

For a fixed binding set the KKT system is affine in the injection theta, so
dispatch, duals and nodal prices are affine on the polytope where that
binding set stays optimal.  This module projects out the feasible parameter
set, enumerates all full-dimensional critical regions by stepping across
facets, and attaches the affine price/dispatch maps.  Point location
(`locate`) is the one region lookup every caller uses, the Monte Carlo fast
path included; it breaks ties lexicographically on the shared faces where the
price map may jump.  Its `Locator`, built once per decomposition, settles a
point that lies a certified margin inside one region by that region's rows
alone and scans every closure only for the points near a boundary.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InfeasibleError, NumericalError, SingularActiveSetError
from .opf import (LINE_LOWER, LINE_UPPER, MPQPProblem, OptimalPartition,
                  licq_check, optimal_partition, parametric_kkt, solve_opf)
from .polytope import Polytope, box_polytope, fourier_motzkin

DEFAULT_MAX_EXPANSIONS = 10 ** 6
# points per product of the full scan in `Locator`, and the pilot size; the
# product holds every row of every region for each point, so it stays small
LOCATE_CHUNK = 1024
# points per chunk tested against the margin-shrunk rows of one region
PEEL_CHUNK = 16384


def feasible_set(problem: MPQPProblem, box_lo, box_hi,
                 prune_tol: float = 1e-8) -> Polytope:
    """Injections for which the dispatch problem is feasible, within a box.

    Computed as the projection of the joint (dispatch, injection) constraint
    system onto injection space by Fourier-Motzkin elimination with per-step
    pruning; the result is irredundant.
    """
    n_g, n_t = problem.n_g, problem.n_theta
    if n_t == 0:
        raise ValueError("problem has no renewable injections to project onto")
    joint_A = np.hstack([problem.A, -problem.E])
    box = box_polytope(box_lo, box_hi)
    box_A = np.hstack([np.zeros((box.n_rows, n_g)), box.G])
    A = np.vstack([joint_A, box_A])
    b = np.concatenate([problem.b, box.w])
    try:
        F, c = fourier_motzkin(A, b, eliminate=range(n_g), prune_tol=prune_tol)
        theta_space = Polytope.from_rows(F, c).remove_redundancy()
    except InfeasibleError as exc:
        raise InfeasibleError(f"feasible parameter set: {exc}") from None
    if theta_space.is_empty():
        raise InfeasibleError("feasible parameter set is empty")
    return theta_space


@dataclass(frozen=True)
class CriticalRegion:
    """One maximal polytope of injections sharing an optimal binding set."""
    id: int
    partition: OptimalPartition
    polytope: Polytope
    lmp_C: np.ndarray      # n x n_theta
    lmp_c: np.ndarray      # n
    dispatch_G: np.ndarray  # n_g x n_theta
    dispatch_g0: np.ndarray
    chebyshev_center: np.ndarray
    chebyshev_radius: float
    licq_ok: bool

    def lmp_at(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.ndim == 1:
            return self.lmp_c + self.lmp_C @ theta
        return theta @ self.lmp_C.T + self.lmp_c

    def dispatch_at(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.ndim == 1:
            return self.dispatch_g0 + self.dispatch_G @ theta
        return theta @ self.dispatch_G.T + self.dispatch_g0


@dataclass
class RegionDecomposition:
    regions: list[CriticalRegion]
    theta_space: Polytope
    coverage_volume_ratio: float = float("nan")
    degenerate_diagnostics: list[str] = field(default_factory=list)
    _locator: "Locator | None" = field(default=None, init=False, repr=False,
                                       compare=False)

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    def by_key(self) -> dict[tuple[int, ...], CriticalRegion]:
        return {r.partition.key: r for r in self.regions}

    def locator(self) -> "Locator":
        """The point locator behind `locate`, built on first use and kept;
        the region list must not change after that."""
        if self._locator is None:
            self._locator = Locator(self.regions, self.theta_space.dim)
        return self._locator


def region_lmp_map(active_set: OptimalPartition, problem: MPQPProblem,
                   ptdf=None) -> tuple[np.ndarray, np.ndarray]:
    """Affine price map (C, c) for a binding set satisfying the rank condition.

    Raises SingularActiveSetError when the binding rows are dependent, which
    includes the case of a redundant row smuggled into the partition.
    """
    if ptdf is None:
        ptdf = problem.ptdf
    kkt = parametric_kkt(problem, active_set.binding_ineq)
    return _lmp_map_from_kkt(problem, ptdf, kkt)


def _lmp_map_from_kkt(problem, ptdf, kkt):
    m, n_t = problem.m, problem.n_theta
    n = problem.case.n
    mu0 = np.zeros(m)
    MuT = np.zeros((m, n_t))
    for k, i in enumerate(kkt.binding_ineq):
        lab = problem.row_labels[i]
        if lab.kind == LINE_UPPER:
            mu0[lab.index] -= kkt.nu0[k]
            MuT[lab.index] -= kkt.NuT[k]
        elif lab.kind == LINE_LOWER:
            mu0[lab.index] += kkt.nu0[k]
            MuT[lab.index] += kkt.NuT[k]
    C = np.outer(np.ones(n), kkt.lamT) + ptdf.values.T @ MuT
    c = kkt.lam0 * np.ones(n) + ptdf.values.T @ mu0
    return C, c


def _region_polytope(problem: MPQPProblem, kkt, theta_space: Polytope) -> Polytope:
    """Primal feasibility of inactive rows plus dual feasibility of active ones."""
    binding = set(kkt.binding_ineq)
    rows, rhs = [], []
    for i in range(2, problem.n_rows):
        if i in binding:
            continue
        rows.append(problem.A[i] @ kkt.Gg - problem.E[i])
        rhs.append(problem.b[i] - problem.A[i] @ kkt.g0)
    for k in range(len(kkt.binding_ineq)):
        rows.append(-kkt.NuT[k])
        rhs.append(kkt.nu0[k])
    poly = Polytope.from_rows(np.asarray(rows), np.asarray(rhs)) \
        if rows else Polytope(np.zeros((0, problem.n_theta)), np.zeros(0))
    return poly.intersect(theta_space).normalized()


def _build_region(problem: MPQPProblem, partition: OptimalPartition,
                  theta_space: Polytope, min_radius: float):
    """Construct the region for a partition; returns (region, reason)."""
    try:
        kkt = parametric_kkt(problem, partition.binding_ineq)
    except SingularActiveSetError:
        return None, f"partition {partition}: singular KKT (rank deficient)"
    poly = _region_polytope(problem, kkt, theta_space)
    if poly.is_empty():
        return None, f"partition {partition}: empty region"
    _, radius = poly.chebyshev()
    if radius < min_radius:
        return None, (f"partition {partition}: lower-dimensional region "
                      f"(radius {radius:.2e})")
    poly = poly.remove_redundancy()
    center, radius = poly.chebyshev()
    C, c = _lmp_map_from_kkt(problem, problem.ptdf, kkt)
    region = CriticalRegion(id=-1, partition=partition, polytope=poly,
                            lmp_C=C, lmp_c=c, dispatch_G=kkt.Gg,
                            dispatch_g0=kkt.g0, chebyshev_center=center,
                            chebyshev_radius=radius,
                            licq_ok=licq_check(partition, problem.n_g))
    return region, None


def _partition_at(problem: MPQPProblem, theta):
    sol = solve_opf(problem, theta)
    return optimal_partition(sol, problem), sol.degenerate


def _seed_partition(problem, theta_space):
    center, radius = theta_space.chebyshev()
    part, degen = _partition_at(problem, center)
    if not degen:
        return part
    # the center sits on a face: probe a deterministic fan of offsets
    d = theta_space.dim
    for frac in (0.3, 0.1, 0.5):
        for k in range(d):
            for sign in (1.0, -1.0):
                cand = center.copy()
                cand[k] += sign * frac * radius
                if not theta_space.contains(cand):
                    continue
                part, degen = _partition_at(problem, cand)
                if not degen:
                    return part
    # last resort: seeded interior samples (deterministic)
    rng = np.random.Generator(np.random.Philox(key=1))
    lo, hi = theta_space.bounding_box()
    for _ in range(500):
        cand = rng.uniform(lo, hi)
        if not theta_space.contains(cand, tol=-1e-9):
            continue
        try:
            part, degen = _partition_at(problem, cand)
        except InfeasibleError:
            continue
        if not degen:
            return part
    raise NumericalError("could not find a nondegenerate seed point")


def enumerate_regions(problem: MPQPProblem, theta_space: Polytope,
                      eps_step: float | None = None,
                      max_expansions: int = DEFAULT_MAX_EXPANSIONS,
                      coverage_samples: int = 20000) -> RegionDecomposition:
    """Explore the full decomposition by stepping beyond region facets.

    Starting from the region containing the Chebyshev center, every facet of
    every discovered region is probed a small distance beyond its hyperplane;
    the dispatch problem solved there yields the neighboring binding set.
    Regions are deduplicated by binding-set key, so the output is independent
    of exploration order; ids are assigned by sorted key at the end.
    """
    center, radius = theta_space.chebyshev()
    if not np.isfinite(radius) or radius <= 0.0:
        raise InfeasibleError("parameter set is empty or lower-dimensional")
    scale = max(1.0, radius)
    eps = eps_step if eps_step is not None else 1e-6 * scale
    min_radius = 1e-9 * scale

    seen: dict[tuple[int, ...], CriticalRegion] = {}
    dead: set[tuple[int, ...]] = set()
    diagnostics: list[str] = []
    queue: deque[OptimalPartition] = deque([_seed_partition(problem, theta_space)])
    expansions = 0

    while queue:
        part = queue.popleft()
        if part.key in seen or part.key in dead:
            continue
        region, reason = _build_region(problem, part, theta_space, min_radius)
        if region is None:
            dead.add(part.key)
            diagnostics.append(reason)
            continue
        seen[part.key] = region

        poly = region.polytope
        for i in range(poly.n_rows):
            expansions += 1
            if expansions > max_expansions:
                raise NumericalError("facet expansion cap exceeded")
            fp = poly.facet_point(i)
            if fp is None:
                continue
            normal = poly.G[i]
            for mult in (1.0, 10.0, 100.0):
                cand = fp + eps * mult * normal
                if not theta_space.contains(cand, tol=1e-12):
                    break  # facet lies on the boundary of the parameter set
                try:
                    cand_part, degen = _partition_at(problem, cand)
                except InfeasibleError:
                    break
                except NumericalError as exc:
                    diagnostics.append(f"step from facet failed: {exc}")
                    continue
                if degen:
                    continue  # landed on a face; push farther
                if cand_part.key == part.key:
                    continue
                if cand_part.key not in seen and cand_part.key not in dead:
                    queue.append(cand_part)
                break

    regions = [seen[k] for k in sorted(seen)]
    regions = [CriticalRegion(id=i, partition=r.partition, polytope=r.polytope,
                              lmp_C=r.lmp_C, lmp_c=r.lmp_c,
                              dispatch_G=r.dispatch_G, dispatch_g0=r.dispatch_g0,
                              chebyshev_center=r.chebyshev_center,
                              chebyshev_radius=r.chebyshev_radius,
                              licq_ok=r.licq_ok)
               for i, r in enumerate(regions)]
    decomp = RegionDecomposition(regions=regions, theta_space=theta_space,
                                 degenerate_diagnostics=diagnostics)
    decomp.coverage_volume_ratio = estimate_coverage(decomp, coverage_samples)
    return decomp


def estimate_coverage(decomp: RegionDecomposition, n_samples: int = 20000,
                      seed: int = 0) -> float:
    """Fraction of uniform samples of the parameter set covered by a region."""
    if n_samples <= 0 or decomp.theta_space.n_rows == 0:
        return float("nan")
    lo, hi = decomp.theta_space.bounding_box()
    rng = np.random.Generator(np.random.Philox(key=seed))
    batches = []
    inside = 0
    batch = 4096
    while inside < n_samples:
        pts = rng.uniform(lo, hi, size=(batch, decomp.theta_space.dim))
        mask = np.all(pts @ decomp.theta_space.G.T
                      <= decomp.theta_space.w + 1e-12, axis=1)
        pts = pts[mask][:n_samples - inside]
        inside += pts.shape[0]
        batches.append(pts)
    covered = np.count_nonzero(locate(decomp, np.vstack(batches)) >= 0)
    return covered / n_samples


def locate(decomp: RegionDecomposition, thetas) -> np.ndarray:
    """Index of the region whose closure holds each row of `thetas`, or -1.

    Membership is G x <= w + 1e-9 (1 + |w|).  On shared faces several
    closures hold the point and their maps may disagree; the candidate with
    the lexicographically smallest price vector wins (the lower index on
    equal prices), which pins a single-valued price map on the whole set.
    Most points are settled by one region's rows (see `Locator`); the rest
    get the full scan of every closure.
    """
    return decomp.locator().locate(np.atleast_2d(np.asarray(thetas,
                                                            dtype=float)))


class Locator:
    """Point location over a fixed list of regions with disjoint interiors.

    The margin m is twice the largest distance from a vertex of any region's
    closure G x <= w + 1e-9 (1 + |w|) to the nearest vertex of that region,
    so every closure lies within m/2 of its region.  A point whose slack is
    at least m |g_i| in every row g_i x <= w_i of region A is the center of a
    ball of radius m inside A.  Were it in the closure of another region B,
    B would meet the interior of that ball and so overlap A's interior;
    hence A's closure is the only one that holds the point, and the tie rule
    has nothing to decide.  `locate` runs the full scan of every closure on
    a pilot chunk, then tests the remaining points against each region's
    margin-shrunk rows, the region the pilot hit most first, and leaves the
    points that no region settles (within m of a boundary, or in no closure)
    to the full scan.
    """

    def __init__(self, regions: list[CriticalRegion], dim: int):
        self.regions = regions
        n_rows = max(r.polytope.n_rows for r in regions)
        G = np.zeros((len(regions), n_rows, dim))
        bound = np.zeros((len(regions), n_rows, 1))
        reach = 0.0
        for k, r in enumerate(regions):
            p = r.polytope
            closure = p.w + 1e-9 * (1.0 + np.abs(p.w))
            G[k, :p.n_rows] = p.G
            bound[k, :p.n_rows, 0] = closure
            reach = max(reach, _closure_reach(r, closure))
        # every region is padded to a common row count with rows 0 <= 0, so
        # each chunk of the full scan costs one product and one reduction
        self.G = G.reshape(-1, dim)
        self.bound = bound
        self.margin = 2.0 * reach + 1e-12
        self.shrunk = [] if not np.isfinite(reach) else [
            (r.polytope.G, (r.polytope.w - self.margin
                            * np.linalg.norm(r.polytope.G, axis=1))[:, None])
            for r in regions]

    def locate(self, thetas: np.ndarray) -> np.ndarray:
        """Region index per row of a 2-D array, by the `locate` rule."""
        n = thetas.shape[0]
        idx = np.full(n, -1, dtype=np.intp)
        pilot = LOCATE_CHUNK if self.shrunk else n
        idx[:pilot] = self.scan(thetas[:pilot])
        hits = np.bincount(idx[:pilot] + 1, minlength=len(self.regions) + 1)
        order = np.argsort(-hits[1:], kind="stable")
        for lo in range(pilot, n, PEEL_CHUNK):
            todo = np.arange(lo, min(lo + PEEL_CHUNK, n))
            pts = thetas[lo:lo + PEEL_CHUNK]
            for k in order:
                G, inner = self.shrunk[k]
                settled = np.all(G @ pts.T <= inner, axis=0)
                idx[todo[settled]] = k
                todo = todo[~settled]
                if not todo.size:
                    break
                pts = thetas[todo]
            if todo.size:
                idx[todo] = self.scan(pts)
        return idx

    def scan(self, thetas: np.ndarray) -> np.ndarray:
        """Every closure against every point, then the tie rule."""
        n_regions = len(self.regions)
        idx = np.full(thetas.shape[0], -1, dtype=np.intp)
        for lo in range(0, thetas.shape[0], LOCATE_CHUNK):
            pts = thetas[lo:lo + LOCATE_CHUNK]
            lhs = (self.G @ pts.T).reshape(n_regions, -1, pts.shape[0])
            inside = np.all(lhs <= self.bound, axis=1)  # regions x points
            count = np.count_nonzero(inside, axis=0)
            idx[lo:lo + pts.shape[0]] = np.where(count > 0,
                                                 inside.argmax(axis=0), -1)
            for i in np.flatnonzero(count > 1):  # rare: points on shared faces
                idx[lo + i] = min(
                    np.flatnonzero(inside[:, i]),
                    key=lambda k: tuple(self.regions[k].lmp_at(pts[i])))
        return idx


def _closure_reach(region: CriticalRegion, closure: np.ndarray) -> float:
    """Largest distance from a vertex of the region's tolerant closure to the
    nearest vertex of the region; inf when either vertex set is unavailable
    (an unbounded or flat region), which turns the margin test off."""
    p = region.polytope
    seed = (region.chebyshev_center, region.chebyshev_radius)
    try:
        outer = Polytope(p.G, closure, _cheb=seed).vertices()
        verts = p.vertices()
    except (InfeasibleError, NumericalError, ValueError):
        return np.inf
    gaps = np.linalg.norm(outer[:, None, :] - verts[None, :, :], axis=2)
    return float(gaps.min(axis=1).max())


def locate_region(decomp: RegionDecomposition, theta,
                  tol: float = 1e-9) -> tuple[CriticalRegion, np.ndarray]:
    """Region containing theta and its price vector, by the `locate` rule.

    Raises InfeasibleError outside the parameter set (checked to `tol`); a
    point in a numeric sliver between regions takes the least-violated
    closure.
    """
    theta = np.asarray(theta, dtype=float)
    if not decomp.theta_space.contains(theta, tol=max(tol, 1e-9)):
        raise InfeasibleError("theta outside the feasible parameter set")
    k = int(locate(decomp, theta)[0])
    if k < 0:
        k = int(np.argmin([(r.polytope.G @ theta - r.polytope.w).max()
                           for r in decomp.regions]))
    region = decomp.regions[k]
    return region, region.lmp_at(theta)


# -- persistence --------------------------------------------------------------

def save_decomposition(decomp: RegionDecomposition, path) -> None:
    doc = {
        "theta_space": decomp.theta_space.to_dict(),
        "coverage_volume_ratio": decomp.coverage_volume_ratio,
        "degenerate_diagnostics": decomp.degenerate_diagnostics,
        "regions": [
            {
                "id": r.id,
                "active_set": list(r.partition.binding),
                "b_cong": list(r.partition.b_cong),
                "b_sat": list(r.partition.b_sat),
                "G": r.polytope.G.tolist(),
                "w": r.polytope.w.tolist(),
                "C": r.lmp_C.tolist(),
                "c": r.lmp_c.tolist(),
                "dispatch_G": r.dispatch_G.tolist(),
                "dispatch_g0": r.dispatch_g0.tolist(),
                "chebyshev_center": r.chebyshev_center.tolist(),
                "chebyshev_radius": r.chebyshev_radius,
                "licq_ok": r.licq_ok,
            }
            for r in decomp.regions
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))


def load_decomposition(path) -> RegionDecomposition:
    doc = json.loads(Path(path).read_text())
    regions = []
    for rd in doc["regions"]:
        part = OptimalPartition(tuple(rd["active_set"]), tuple(rd["b_cong"]),
                                tuple(rd["b_sat"]))
        regions.append(CriticalRegion(
            id=int(rd["id"]), partition=part,
            polytope=Polytope.from_rows(rd["G"], rd["w"]),
            lmp_C=np.asarray(rd["C"], dtype=float),
            lmp_c=np.asarray(rd["c"], dtype=float),
            dispatch_G=np.asarray(rd["dispatch_G"], dtype=float),
            dispatch_g0=np.asarray(rd["dispatch_g0"], dtype=float),
            chebyshev_center=np.asarray(rd["chebyshev_center"], dtype=float),
            chebyshev_radius=float(rd["chebyshev_radius"]),
            licq_ok=bool(rd["licq_ok"])))
    decomp = RegionDecomposition(
        regions=regions,
        theta_space=Polytope.from_dict(doc["theta_space"]),
        coverage_volume_ratio=float(doc["coverage_volume_ratio"]),
        degenerate_diagnostics=list(doc["degenerate_diagnostics"]))
    return decomp
