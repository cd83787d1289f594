"""Critical regions of the feasible renewable-injection space.

For a fixed binding set the KKT system is affine in the injection theta, so
dispatch, duals and nodal prices are affine on the polytope where that
binding set stays optimal.  This module enumerates all full-dimensional
critical regions in a box by stepping across facets, and attaches the
affine price/dispatch maps.  The regions tile the feasible parameter set,
which is read off the facets past which no dispatch exists.  A facet step
certifies the neighbour's binding set with one small KKT solve, or proves
with a Farkas combination that no dispatch exists beyond the facet; only a
step neither settles solves the dispatch problem, and those fallbacks are
counted.  Point location (`locate`) is the one region lookup every caller
uses, the Monte Carlo fast path included; it breaks ties lexicographically
on the shared faces where the price map may jump.  Its `Locator`, built
once per decomposition, settles a point that lies a certified margin inside
one region by that region's rows alone and scans every closure only for the
points near a boundary.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from . import lp
from .errors import InfeasibleError, NumericalError, SingularActiveSetError
from .opf import (MPQPProblem, OptimalPartition, _check_partition_consistency,
                  _lmp_map_from_kkt, _split_binding, dual_tolerance, kkt_point,
                  licq_check, optimal_partition, parametric_kkt, solve_opf)
from .polytope import FLAT_TOL, Polytope, box_polytope

DEFAULT_MAX_EXPANSIONS = 10 ** 6
# points per product of the full scan in `Locator`, and the pilot size; the
# product holds every row of every region for each point, so it stays small
LOCATE_CHUNK = 1024
# points per chunk tested against the margin-shrunk rows of one region
PEEL_CHUNK = 16384


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
    licq_ok: bool

    def lmp_at(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.ndim == 1:
            return self.lmp_c + self.lmp_C @ theta
        return theta @ self.lmp_C.T + self.lmp_c


@dataclass
class RegionDecomposition:
    regions: list[CriticalRegion]
    theta_space: Polytope
    coverage_volume_ratio: float = float("nan")
    degenerate_diagnostics: list[str] = field(default_factory=list)
    # facet steps settled by `_certified_crossing`, proved to leave the
    # parameter set by `_proves_infeasible`, and those that fell back to a
    # dispatch solve; run statistics, not part of the saved file
    certified_crossings: int = 0
    boundary_steps: int = 0
    fallback_solves: int = 0
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


def region_lmp_map(active_set: OptimalPartition,
                   problem: MPQPProblem) -> tuple[np.ndarray, np.ndarray]:
    """Affine price map (C, c) for a binding set satisfying the rank condition.

    Raises SingularActiveSetError when the binding rows are dependent, which
    includes the case of a redundant row smuggled into the partition.
    """
    kkt = parametric_kkt(problem, active_set.binding_ineq)
    return _lmp_map_from_kkt(problem, kkt)


def _region_polytope(problem: MPQPProblem, kkt, box: Polytope) -> Polytope:
    """Primal feasibility of inactive rows plus dual feasibility of active
    ones, within the box; the affine dispatch is feasible on all of it."""
    rows, rhs = [], []
    # row by row: one matrix product rounds differently, and the saved
    # region rows must not move
    for i in range(2, problem.n_rows):
        if i not in kkt.binding_ineq:
            rows.append(problem.A[i] @ kkt.Gg - problem.E[i])
            rhs.append(problem.b[i] - problem.A[i] @ kkt.g0)
    return Polytope(np.vstack([rows, -kkt.NuT, box.G]),
                    np.concatenate([rhs, kkt.nu0, box.w])).normalized()


def _build_region(problem: MPQPProblem, partition: OptimalPartition,
                  box: Polytope, min_radius: float, kkts: dict):
    """Construct the region for a partition; returns (region, reason)."""
    kkt = _cached_kkt(problem, kkts, partition.binding_ineq)
    if kkt is None:
        return None, f"partition {partition}: singular KKT (rank deficient)"
    poly = _region_polytope(problem, kkt, box)
    if poly.is_empty():
        return None, f"partition {partition}: empty region"
    _, radius = poly.chebyshev()
    if radius < min_radius:
        return None, (f"partition {partition}: lower-dimensional region "
                      f"(radius {radius:.2e})")
    C, c = _lmp_map_from_kkt(problem, kkt)
    region = CriticalRegion(id=-1, partition=partition,
                            polytope=poly.remove_redundancy(),
                            lmp_C=C, lmp_c=c, dispatch_G=kkt.Gg,
                            dispatch_g0=kkt.g0,
                            licq_ok=licq_check(partition, problem.n_g))
    return region, None


def _cached_kkt(problem: MPQPProblem, kkts: dict, binding_ineq):
    """`parametric_kkt` through a cache keyed by the sorted binding rows;
    None for a singular binding set."""
    key = tuple(sorted(binding_ineq))
    if key not in kkts:
        try:
            kkts[key] = parametric_kkt(problem, key)
        except SingularActiveSetError:
            kkts[key] = None
    return kkts[key]


def _certified_crossing(problem: MPQPProblem, kkts: dict, binding, theta):
    """Binding set at theta, read off the crossed facet without a solve.

    The current region's KKT point at theta proposes the neighbour: rows
    that turn active join, binding rows whose multiplier is at most twice
    the `dual_tolerance` leave; failing that, every swap of one joining row
    for one binding row is tried (a facet where one row replaces another).
    A proposal S passes when its own KKT point at theta has every row off S
    feasible by more than twice the binding tolerance, every row of S (and
    the balance) within half of it, and every multiplier above twice the
    `dual_tolerance` that `solve_opf` grants a negative one.  H is positive
    definite, so that point is the unique optimum, and a solve at theta
    finds exactly these binding rows on its canonical path: the returned
    partition and the nondegenerate verdict are what `_partition_at`
    returns.  None when no proposal passes.
    """
    tol = problem.act_tolerance()
    _, resid, _, nu = kkt_point(problem, _cached_kkt(problem, kkts, binding),
                                theta)
    floor = 2.0 * dual_tolerance(nu)
    joining = [i for i in range(2, problem.n_rows)
               if i not in binding and resid[i] > -tol[i]]
    leaving = {j for j, v in zip(binding, nu) if v <= floor}
    proposals = [(set(binding) | set(joining)) - leaving]
    proposals += [set(binding) - {j} | {i} for i in joining for j in binding]
    for rows in proposals:
        rows = tuple(sorted(rows))
        if 1 + len(rows) > problem.n_g:
            continue
        kkt = _cached_kkt(problem, kkts, rows)
        if kkt is None:
            continue
        _, resid, _, nu = kkt_point(problem, kkt, theta)
        on = np.zeros(problem.n_rows, dtype=bool)
        on[[0, 1, *rows]] = True
        if not (np.all(np.abs(resid[on]) <= 0.5 * tol[on])
                and np.all(resid[~on] < -2.0 * tol[~on])
                and np.all(nu > 2.0 * dual_tolerance(nu))):
            continue
        part = _split_binding(problem, rows)
        try:
            _check_partition_consistency(problem, part)
        except NumericalError:
            continue
        return part
    return None


def _partition_at(problem: MPQPProblem, theta):
    sol = solve_opf(problem, theta)
    return optimal_partition(sol, problem), sol.degenerate


def _proves_infeasible(problem: MPQPProblem, kkt, theta) -> bool:
    """Whether the binding rows prove that no dispatch is feasible at theta.

    Farkas: if a row r violated by the KKT dispatch g = g_S(theta) is a_r =
    c_0 1' + sum_j c_j a_j over the binding rows j with every c_j <= 0, any
    g' that balances and meets the binding rows has a_r g' >= a_r g > b_r +
    e_r theta.  Rounding (the representation residual rho, positive c_j that
    should be 0, the balance and binding residuals s of g) can lower a_r g'
    by at most |rho| |g' - g| + sum_j max(c_j, 0) |a_j| |g' - g| + |c| |s|
    over the unit bounds, so r must be violated by more than that.
    """
    g, resid, _, _ = kkt_point(problem, kkt, theta)
    n_g = problem.n_g
    # the last 2 n_g rows are the unit bounds g <= g_max and -g <= -g_min
    reach = np.maximum(problem.b[-2 * n_g:-n_g] - g, g + problem.b[-n_g:])
    rows = [0, *kkt.binding_ineq]
    basis = problem.A[rows].T
    for r in np.flatnonzero(resid > 0.0):
        c = np.linalg.lstsq(basis, problem.A[r], rcond=None)[0]
        err = (np.abs(basis @ c - problem.A[r]) @ reach
               + np.maximum(c[1:], 0.0) @ (np.abs(basis[:, 1:].T) @ reach)
               + np.abs(c) @ np.abs(resid[rows]))
        if resid[r] > err:
            return True
    return False


def _joint_lps(problem: MPQPProblem, box: Polytope):
    """Seed point and axis maxima of the feasible parameter set in the box,
    from LPs over the joint (dispatch, injection, slack) system: the balance
    is an equality, every other row is relaxed by slack times its norm.  A
    largest slack at most FLAT_TOL (an empty or flat set) raises
    InfeasibleError."""
    n_g, n = problem.n_g, problem.n_g + problem.n_theta
    A = np.vstack([np.hstack([problem.A, -problem.E]),
                   np.hstack([np.zeros((box.n_rows, n_g)), box.G])])
    A = np.hstack([A, np.sqrt(np.vecdot(A, A))[:, None]])
    b = np.concatenate([problem.b, box.w])
    bounds = [(None, None)] * n + [(0.0, None)]
    balance = np.append(A[0, :n], 0.0)[None]
    sols = [lp.solve_lp(-e, A_ub=A[2:], b_ub=b[2:], A_eq=balance, b_eq=b[:1],
                        bounds=bounds)
            for e in np.eye(n + 1)[[n, *range(n_g, n)]]]
    if sols[0].status != lp.OPTIMAL or sols[0].x[n] <= FLAT_TOL:
        raise InfeasibleError("feasible parameter set is empty or "
                              "lower-dimensional")
    if any(sol.status != lp.OPTIMAL for sol in sols):
        raise NumericalError("axis-maximum LP failed")
    return sols[0].x[n_g:n], np.array([-sol.fun for sol in sols[1:]])


def _seed_partition(problem, center, lo, top):
    """Binding set at the center, or failing that at the first of 500
    seeded uniform draws below the axis maxima, where the dispatch problem
    is feasible and nondegenerate."""
    rng = np.random.Generator(np.random.Philox(key=1))
    draws = (rng.uniform(lo, top) for _ in range(500))
    for cand in itertools.chain([center], draws):
        try:
            part, degen = _partition_at(problem, cand)
        except InfeasibleError:
            continue
        if not degen:
            return part
    raise NumericalError("could not find a nondegenerate seed point")


def enumerate_regions(problem: MPQPProblem, box_lo, box_hi,
                      eps_step: float | None = None,
                      max_expansions: int = DEFAULT_MAX_EXPANSIONS,
                      coverage_samples: int = 20000) -> RegionDecomposition:
    """Critical regions in the box and the parameter set they tile.

    Starting from the region that holds the seed of `_joint_lps`, every
    facet of every discovered region is probed a small distance beyond its
    hyperplane (scaled by half the smallest width of [box_lo, axis maxima],
    at least 1); a step that leaves the box stops there.  Otherwise the
    current region's KKT point proposes the neighbouring binding set and the
    proposal's own KKT point certifies it (`_certified_crossing`), or the
    current binding rows prove that no dispatch exists there
    (`_proves_infeasible`).  A step neither settles (a degenerate face, an
    LICQ failure, a neighbour that is not one row away) falls back to
    solving the dispatch problem; the three cases are counted on the result
    (`certified_crossings`, `boundary_steps`, `fallback_solves`).  A
    certified set is the one the solve would return, so the regions do not
    depend on which way a step went.  Regions are deduplicated by
    binding-set key, so the output is independent of exploration order; ids
    are assigned by sorted key at the end.  The facets past which no
    dispatch exists, with the box, give `theta_space` (`_parameter_set`).
    """
    if problem.n_theta == 0:
        raise ValueError("problem has no renewable injections to enumerate over")
    box = box_polytope(box_lo, box_hi)
    lo = -box.w[problem.n_theta:]
    center, top = _joint_lps(problem, box)
    scale = max(1.0, 0.5 * float(np.min(top - lo)))
    eps = eps_step if eps_step is not None else 1e-6 * scale
    min_radius = 1e-9 * scale

    seen: dict[tuple[int, ...], CriticalRegion] = {}
    dead: set[tuple[int, ...]] = set()
    kkts: dict = {}
    diagnostics: list[str] = []
    edges: list[np.ndarray] = []  # rows [G_i, w_i] with no dispatch past them
    queue: deque[OptimalPartition] = deque(
        [_seed_partition(problem, center, lo, top)])
    expansions = certified = boundary = fallback = 0

    while queue:
        part = queue.popleft()
        if part.key in seen or part.key in dead:
            continue
        region, reason = _build_region(problem, part, box, min_radius, kkts)
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
                if not box.contains(cand, tol=1e-12):
                    break  # facet lies on the box
                cand_part = _certified_crossing(problem, kkts,
                                                part.binding_ineq, cand)
                degen = False
                if cand_part is not None:
                    certified += 1
                elif _proves_infeasible(
                        problem, _cached_kkt(problem, kkts, part.binding_ineq),
                        cand):
                    boundary += 1
                    edges.append(np.append(normal, poly.w[i]))
                    break
                else:
                    fallback += 1
                    try:
                        cand_part, degen = _partition_at(problem, cand)
                    except InfeasibleError:
                        edges.append(np.append(normal, poly.w[i]))
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

    regions = [replace(seen[k], id=i) for i, k in enumerate(sorted(seen))]
    decomp = RegionDecomposition(regions=regions,
                                 theta_space=_parameter_set(edges, box, regions),
                                 degenerate_diagnostics=diagnostics,
                                 certified_crossings=certified,
                                 boundary_steps=boundary,
                                 fallback_solves=fallback)
    decomp.coverage_volume_ratio = estimate_coverage(decomp, coverage_samples)
    return decomp


def _parameter_set(edges, box: Polytope, regions) -> Polytope:
    """Boundary facets and box rows, sorted (so the row order does not
    depend on the exploration order) and made irredundant.  NumericalError
    when a region vertex lies more than 1e-9 farther outside the result
    than outside the region's own rows (qhull can put a thin region's
    vertices a few 1e-9 off them)."""
    rows = np.vstack([*edges, np.column_stack([box.G, box.w])])
    rows = rows[np.lexsort(rows.T[::-1])]
    space = Polytope(rows[:, :-1], rows[:, -1]).remove_redundancy()
    for r in regions:
        p, verts = r.polytope, r.polytope.vertices()
        own = max(0.0, (p.G @ verts.T - p.w[:, None]).max())
        outside = (space.G @ verts.T - space.w[:, None]).max()
        if outside > own + 1e-9:
            raise NumericalError(f"region {r.id} reaches {outside:.2e} outside "
                                 "the parameter set read off its facets")
    return space


def estimate_coverage(decomp: RegionDecomposition,
                      n_samples: int = 20000) -> float:
    """Fraction of uniform samples of the parameter set covered by a region."""
    if n_samples <= 0 or decomp.theta_space.n_rows == 0:
        return float("nan")
    lo, hi = decomp.theta_space.bounding_box()
    rng = np.random.Generator(np.random.Philox(key=0))
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
    try:
        outer = Polytope(p.G, closure, _cheb=p.chebyshev()).vertices()
        verts = p.vertices()
    except (InfeasibleError, NumericalError, ValueError):
        return np.inf
    return float(cKDTree(verts).query(outer)[0].max())


def locate_region(decomp: RegionDecomposition,
                  theta) -> tuple[CriticalRegion, np.ndarray]:
    """Region containing theta and its price vector, by the `locate` rule.

    Raises InfeasibleError outside the parameter set (checked to 1e-9) and
    NumericalError for a point inside it that no region's closure holds (a
    gap in the decomposition).
    """
    theta = np.asarray(theta, dtype=float)
    if not decomp.theta_space.contains(theta, tol=1e-9):
        raise InfeasibleError("theta outside the feasible parameter set")
    k = int(locate(decomp, theta)[0])
    if k < 0:
        raise NumericalError(f"theta={np.array2string(theta, precision=6)} "
                             "lies in the parameter set but in no region")
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
                "chebyshev_center": r.polytope.chebyshev()[0].tolist(),
                "chebyshev_radius": r.polytope.chebyshev()[1],
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
        # the stored center is the polytope's own Chebyshev LP result
        poly = replace(Polytope.from_rows(rd["G"], rd["w"]),
                       _cheb=(np.asarray(rd["chebyshev_center"], dtype=float),
                              float(rd["chebyshev_radius"])))
        regions.append(CriticalRegion(
            id=int(rd["id"]), partition=part, polytope=poly,
            lmp_C=np.asarray(rd["C"], dtype=float),
            lmp_c=np.asarray(rd["c"], dtype=float),
            dispatch_G=np.asarray(rd["dispatch_G"], dtype=float),
            dispatch_g0=np.asarray(rd["dispatch_g0"], dtype=float),
            licq_ok=bool(rd["licq_ok"])))
    decomp = RegionDecomposition(
        regions=regions,
        theta_space=Polytope.from_dict(doc["theta_space"]),
        coverage_volume_ratio=float(doc["coverage_volume_ratio"]),
        degenerate_diagnostics=list(doc["degenerate_diagnostics"]))
    return decomp
