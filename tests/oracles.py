"""Independent reference implementations used to pin expected test values.

Everything here avoids the package's iterative solvers and geometric
exploration: optima come from exhaustive enumeration of candidate binding
sets, prices on dense parameter grids from vectorized affine evaluation per
candidate, tail probabilities from the closed-form normal distribution,
polytope operations from one HiGHS LP per row or direction, the QP
feasibility verdict from an elastic phase-1 LP, and the feasible parameter
set from a Fourier-Motzkin projection of the joint (dispatch, injection)
system.  Row normalization, duplicate removal and region enumeration also
keep their row-by-row and solve-every-step forms here, as the references
for the vectorized and solve-free versions, and decay rates their
solve-every-piece form, the reference for bound-pruned evaluation.  LPs
keep their `scipy.optimize.linprog` form, the reference for the direct
HiGHS calls of `lp.solve_lp`.  Monte Carlo prices keep their dense
n x n_nodes matrix, the reference for the streamed statistics.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
from scipy.optimize import linprog
from scipy.stats import norm

from lmpspike import compute_lmp, lp, solve_opf, spikes
from lmpspike.errors import InfeasibleError, NumericalError
from lmpspike.polytope import ZERO_ROW_TOL, Polytope, box_polytope
from lmpspike.regions import (RegionDecomposition, _build_region, _joint_lps,
                              _partition_at, _seed_partition,
                              estimate_coverage, locate)


def linprog_reference(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
                      bounds=None) -> lp.LPResult:
    """`lp.solve_lp` through scipy's `linprog` wrapper."""
    c = np.asarray(c, dtype=float)
    if bounds is None:
        bounds = [(None, None)] * c.size
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status == 0:
        return lp.LPResult(lp.OPTIMAL, np.asarray(res.x, dtype=float),
                           float(res.fun))
    if res.status == 2:
        return lp.LPResult(lp.INFEASIBLE, None, None)
    if res.status == 3:
        return lp.LPResult(lp.UNBOUNDED, None, None)
    raise NumericalError(f"LP solver failed with status {res.status}: {res.message}")


def brute_qp(H, h, A_eq=None, b_eq=None, A_in=None, b_in=None, tol=1e-8):
    """Global QP optimum by trying every candidate active subset.

    Returns (x, objective) or None when infeasible.  Only valid for small
    problems; candidate subsets run up to size n minus the equality count.
    """
    H = np.asarray(H, dtype=float)
    h = np.asarray(h, dtype=float)
    n = H.shape[0]
    A_eq = np.zeros((0, n)) if A_eq is None else np.atleast_2d(A_eq)
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(b_eq)
    A_in = np.zeros((0, n)) if A_in is None else np.atleast_2d(A_in)
    b_in = np.zeros(0) if b_in is None else np.atleast_1d(b_in)
    m, ne = A_in.shape[0], A_eq.shape[0]
    best = None
    scale = 1.0 + (np.abs(b_in).max() if m else 0.0)
    for size in range(0, max(n - ne, 0) + 1):
        for subset in itertools.combinations(range(m), size):
            Aa = np.vstack([A_eq, A_in[list(subset)]])
            ba = np.concatenate([b_eq, b_in[list(subset)]])
            k = Aa.shape[0]
            K = np.zeros((n + k, n + k))
            K[:n, :n] = H
            K[:n, n:] = Aa.T
            K[n:, :n] = Aa
            rhs = np.concatenate([-h, ba])
            try:
                sol = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                continue
            x, nu = sol[:n], sol[n + ne:]
            if m and (A_in @ x - b_in).max() > tol * scale:
                continue
            if nu.size and nu.min() < -tol * (1.0 + np.abs(nu).max()):
                continue
            obj = 0.5 * x @ H @ x + h @ x
            if best is None or obj < best[1] - 1e-12:
                best = (x, obj)
    return best


def phase1_point(A_eq, b_eq, A_in, b_in, tol=1e-7):
    """Feasible point from an elastic LP, or InfeasibleError.

    The verdict reference for `solve_qp`: a system counts as feasible when
    some point violates no inequality row by more than tol * (1 + max|b_in|).
    """
    n = A_in.shape[1] if A_in.size else A_eq.shape[1]
    # variables (x, s): minimize s with A_in x - s <= b_in, A_eq x = b_eq, s >= 0
    c = np.zeros(n + 1)
    c[-1] = 1.0
    A_ub = None
    if A_in.shape[0]:
        A_ub = np.hstack([A_in, -np.ones((A_in.shape[0], 1))])
    Ae = None
    be = None
    if A_eq.shape[0]:
        Ae = np.hstack([A_eq, np.zeros((A_eq.shape[0], 1))])
        be = b_eq
    bounds = [(None, None)] * n + [(0.0, None)]
    res = lp.solve_lp(c, A_ub=A_ub, b_ub=b_in if A_in.shape[0] else None,
                      A_eq=Ae, b_eq=be, bounds=bounds)
    if res.status != lp.OPTIMAL:
        raise NumericalError(f"phase-1 LP ended with status {res.status}")
    scale = 1.0 + (np.abs(b_in).max() if b_in.size else 0.0)
    if res.fun > tol * scale:
        raise InfeasibleError(f"no feasible point (phase-1 slack {res.fun:.3e})")
    x0 = res.x[:n]
    if A_eq.shape[0]:
        # re-project onto the equalities; the LP satisfies them only to solver tolerance
        r = b_eq - A_eq @ x0
        x0 = x0 + A_eq.T @ np.linalg.solve(A_eq @ A_eq.T, r)
    return x0


def brute_opf(problem, theta, tol=1e-8):
    """Dispatch optimum by exhaustive enumeration of binding line/bound rows."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    A_in = problem.A[2:]
    b_in = problem.b[2:] + problem.E[2:] @ theta
    return brute_qp(problem.H, problem.h,
                    A_eq=np.ones((1, problem.n_g)),
                    b_eq=[problem.net_demand(theta)],
                    A_in=A_in, b_in=b_in, tol=tol)


def _candidate_subsets(problem):
    rows = range(2, problem.n_rows)
    for size in range(0, problem.n_g):
        yield from itertools.combinations(rows, size)


def grid_partition_map(problem, thetas, tol=1e-7):
    """Optimal partition key, price vector and objective on a parameter grid.

    For every candidate binding set the KKT system is affine in theta, so
    primal/dual feasibility and the objective evaluate vectorized over the
    grid; the feasible candidate with the smallest objective wins pointwise.
    Grid points where the dispatch problem is infeasible carry objective
    +inf, an empty key and NaN prices.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    N = thetas.shape[0]
    n = problem.case.n
    n_g = problem.n_g
    best_obj = np.full(N, np.inf)
    best_lmp = np.full((N, n), np.nan)
    best_g = np.full((N, n_g), np.nan)
    ptdf_t = problem.ptdf.T
    ones = np.ones((1, problem.n_g))
    total_d = problem.case.total_demand()

    for subset in _candidate_subsets(problem):
        na = len(subset)
        A_act = problem.A[list(subset)]
        K = np.zeros((n_g + 1 + na, n_g + 1 + na))
        K[:n_g, :n_g] = problem.H
        K[:n_g, n_g] = -1.0
        K[n_g, :n_g] = 1.0
        if na:
            K[:n_g, n_g + 1:] = A_act.T
            K[n_g + 1:, :n_g] = A_act
        rhs0 = np.concatenate([-problem.h, [total_d],
                               problem.b[list(subset)]])
        rhsT = np.vstack([np.zeros((n_g, problem.n_theta)),
                          -np.ones((1, problem.n_theta)),
                          problem.E[list(subset)]])
        try:
            X = np.linalg.solve(K, np.column_stack([rhs0, rhsT]))
        except np.linalg.LinAlgError:
            continue
        x0, XT = X[:, 0], X[:, 1:]
        g = x0[:n_g] + thetas @ XT[:n_g].T
        lam = x0[n_g] + thetas @ XT[n_g]
        nu = x0[n_g + 1:] + thetas @ XT[n_g + 1:].T if na else np.zeros((N, 0))

        resid = g @ problem.A.T - problem.b - thetas @ problem.E.T
        feas = np.all(resid <= tol, axis=1)
        if na:
            feas &= np.all(nu >= -tol, axis=1)
        obj = 0.5 * np.einsum("ij,jk,ik->i", g, problem.H, g) + g @ problem.h
        better = feas & (obj < best_obj - 1e-12)
        if not better.any():
            continue
        mu = np.zeros((better.sum(), problem.m))
        for k, row in enumerate(subset):
            lab = problem.row_labels[row]
            if lab.kind == "line-upper":
                mu[:, lab.index] -= nu[better, k]
            elif lab.kind == "line-lower":
                mu[:, lab.index] += nu[better, k]
        best_obj[better] = obj[better]
        best_lmp[better] = lam[better, None] + mu @ ptdf_t.T
        best_g[better] = g[better]

    # binding keys from residuals at the winning dispatch
    feasible = np.isfinite(best_obj)
    keys = np.full(N, None, dtype=object)
    if feasible.any():
        resid = (best_g[feasible] @ problem.A.T - problem.b
                 - thetas[feasible] @ problem.E.T)
        act_tol = problem.act_tolerance()
        binding = np.abs(resid) <= act_tol
        idx = np.where(feasible)[0]
        for row_i, i in enumerate(idx):
            key = tuple(j for j in range(2, problem.n_rows)
                        if binding[row_i, j])
            keys[i] = (0,) + key
    return best_obj, best_lmp, keys, feasible


def distinct_interior_partitions(problem, keys, feasible):
    """Partition keys observed on a grid, excluding degenerate facet hits."""
    seen = set()
    for key, ok in zip(keys, feasible):
        if not ok:
            continue
        n_binding = len(key) - 1
        if 1 + n_binding > problem.n_g:
            continue  # merged key: the grid point sits on a face
        seen.add(key)
    return seen


def grid_rate_minimum(thetas, lmp_values, feasible, node, mu, sigma,
                      alpha_minus, alpha_plus):
    """Smallest rate over grid points whose price spikes at the node."""
    vals = lmp_values[:, node]
    spike = feasible & ((vals < alpha_minus) | (vals > alpha_plus))
    if not spike.any():
        return np.inf
    d = thetas[spike] - mu
    sol = np.linalg.solve(sigma, d.T).T
    return float(0.5 * np.einsum("ij,ij->i", d, sol).min())


def normal_tail(z: float) -> float:
    return float(norm.sf(z))


def toy2r_lmp(theta: float) -> tuple[float, float]:
    """Hand-derived piecewise price map of the two-bus renewable toy.

    The cheap bus-1 unit is capped at 4 MW by the line while the renewable
    covers the rest with the expensive bus-2 unit; past theta = 6 the line
    frees up and prices collapse to the uniform marginal cost 10 - theta.
    """
    if theta < 6.0:
        return 4.0, 16.0 - theta
    return 10.0 - theta, 10.0 - theta


# -- LP reference polytope operations --------------------------------------------

def lp_remove_redundancy(poly: Polytope, tol=1e-8) -> Polytope:
    """Minimal representation; one LP per surviving row.

    Near-duplicate rows are collapsed first so the LP loop sees each
    halfspace once.
    """
    p = poly.normalized()
    if p.n_rows == 0 or p.is_empty():
        return p
    keep_rows: list[int] = []
    for i in range(p.n_rows):
        dup = False
        for j in keep_rows:
            if (np.abs(p.G[i] - p.G[j]).max() <= 1e-9 and
                    abs(p.w[i] - p.w[j]) <= 1e-9 * (1.0 + abs(p.w[j]))):
                dup = True
                break
        if not dup:
            keep_rows.append(i)
    G, w = p.G[keep_rows], p.w[keep_rows]

    alive = list(range(G.shape[0]))
    for i in range(G.shape[0]):
        others = [j for j in alive if j != i]
        if not others:
            continue
        relaxed_w = w.copy()
        relaxed_w[i] += 1.0
        rows = others + [i]
        res = lp.solve_lp(-G[i], A_ub=G[rows], b_ub=relaxed_w[rows])
        if res.status == lp.UNBOUNDED:
            continue  # the face extends to infinity: certainly not redundant
        if res.status != lp.OPTIMAL:
            raise NumericalError(f"redundancy LP status {res.status}")
        if -res.fun <= w[i] + tol:
            alive.remove(i)
    return Polytope(G[alive], w[alive])


def fourier_motzkin(A, b, eliminate) -> tuple[np.ndarray, np.ndarray]:
    """Project {x : A x <= b} onto the coordinates not in `eliminate`.

    Eliminated columns are removed one at a time; after each elimination the
    system is pruned by vertex-based redundancy removal to keep the row count
    from exploding.  Returns rows over the surviving coordinates, in their
    original order.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float)).copy()
    b = np.atleast_1d(np.asarray(b, dtype=float)).copy()
    for col in sorted(eliminate, reverse=True):
        coeff = A[:, col]
        pos = np.where(coeff > ZERO_ROW_TOL)[0]
        neg = np.where(coeff < -ZERO_ROW_TOL)[0]
        zero = np.where(np.abs(coeff) <= ZERO_ROW_TOL)[0]
        rows = [np.delete(A[zero], col, axis=1)]
        rhs = [b[zero]]
        for i in pos:
            for j in neg:
                # combine a_i x <= b_i (coeff>0) with a_j x <= b_j (coeff<0)
                lam_i, lam_j = -coeff[j], coeff[i]
                row = lam_i * A[i] + lam_j * A[j]
                rows.append(np.delete(row, col).reshape(1, -1))
                rhs.append(np.atleast_1d(lam_i * b[i] + lam_j * b[j]))
        A = np.vstack(rows)
        b = np.concatenate(rhs)
        p = Polytope(A, b)
        if p.is_empty():
            raise InfeasibleError("projection is empty")
        p = p.remove_redundancy()
        A, b = p.G, p.w
    return A, b


def projected_parameter_set(problem, box_lo, box_hi) -> Polytope:
    """Injections in the box with a feasible dispatch, as the irredundant
    Fourier-Motzkin projection of the joint (dispatch, injection) system."""
    n_g = problem.n_g
    box = box_polytope(box_lo, box_hi)
    A = np.vstack([np.hstack([problem.A, -problem.E]),
                   np.hstack([np.zeros((box.n_rows, n_g)), box.G])])
    b = np.concatenate([problem.b, box.w])
    F, c = fourier_motzkin(A, b, eliminate=range(n_g))
    return Polytope.from_rows(F, c).remove_redundancy()


def same_vertex_sets(p: Polytope, q: Polytope, tol=1e-9) -> bool:
    """Whether every vertex of each polytope lies within tol of a vertex of
    the other (the vertex-set Hausdorff distance is at most tol)."""
    gaps = np.linalg.norm(p.vertices()[:, None] - q.vertices()[None], axis=2)
    return bool(max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) <= tol)


def lp_facet_point(poly: Polytope, i: int) -> np.ndarray | None:
    """Chebyshev center of facet i (None when the facet LP is infeasible)."""
    p = poly.normalized()
    d = poly.dim
    c = np.zeros(d + 1)
    c[-1] = -1.0
    rows = [j for j in range(p.n_rows) if j != i]
    A = np.hstack([p.G[rows], np.ones((len(rows), 1))])
    Ae = np.hstack([p.G[i].reshape(1, -1), np.zeros((1, 1))])
    bounds = [(None, None)] * d + [(0.0, 1e12)]
    res = lp.solve_lp(c, A_ub=A, b_ub=p.w[rows], A_eq=Ae, b_eq=[p.w[i]],
                      bounds=bounds)
    if res.status != lp.OPTIMAL:
        return None
    return res.x[:d]


def lp_support(poly: Polytope, direction) -> float:
    """max direction @ x over the polytope (inf when unbounded).

    The LP maximizes along the unit direction: HiGHS accepts any vertex as
    optimal once the reduced costs fall below its 1e-7 dual tolerance, so a
    raw direction of norm 1e-8 would give an arbitrary vertex.
    """
    direction = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(direction)
    res = lp.solve_lp(-direction / norm if norm > 0.0 else direction,
                      A_ub=poly.G, b_ub=poly.w)
    if res.status == lp.UNBOUNDED:
        return np.inf
    if res.status == lp.INFEASIBLE:
        raise InfeasibleError("support of empty polytope")
    return float(direction @ res.x)


def lp_bounding_box(poly: Polytope) -> tuple[np.ndarray, np.ndarray]:
    lo = np.empty(poly.dim)
    hi = np.empty(poly.dim)
    for k in range(poly.dim):
        e = np.zeros(poly.dim)
        e[k] = 1.0
        hi[k] = lp_support(poly, e)
        lo[k] = -lp_support(poly, -e)
    return lo, hi


def locate_brute(decomp, theta):
    """Region index by the documented rule, one region at a time.

    Every region whose closure holds theta by `Polytope.contains` is a
    candidate; the lexicographically smallest price vector wins, the lower
    index on equal prices; -1 when no closure holds the point.
    """
    theta = np.asarray(theta, dtype=float)
    candidates = [k for k, r in enumerate(decomp.regions)
                  if r.polytope.contains(theta)]
    if not candidates:
        return -1
    return min(candidates,
               key=lambda k: tuple(decomp.regions[k].lmp_at(theta)))


def locate_scan(decomp, thetas, chunk=4096):
    """Region index per point from one stacked scan of every closure.

    The locator that `regions.locate` replaced, kept as its reference: every
    region's rows are padded to a common count with rows 0 <= 0 and stacked,
    each chunk of points is tested against all of them at once, and points
    in several closures take the lexicographically smallest price vector.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    regions = decomp.regions
    d = decomp.theta_space.dim
    n_rows = max(r.polytope.n_rows for r in regions)
    G = np.zeros((len(regions), n_rows, d))
    bound = np.zeros((len(regions), n_rows, 1))
    for k, r in enumerate(regions):
        G[k, :r.polytope.n_rows] = r.polytope.G
        bound[k, :r.polytope.n_rows, 0] = \
            r.polytope.w + 1e-9 * (1.0 + np.abs(r.polytope.w))
    G = G.reshape(-1, d)
    idx = np.full(thetas.shape[0], -1, dtype=np.intp)
    for lo in range(0, thetas.shape[0], chunk):
        pts = thetas[lo:lo + chunk]
        lhs = (G @ pts.T).reshape(len(regions), n_rows, -1)
        inside = np.all(lhs <= bound, axis=1)  # regions x points
        count = np.count_nonzero(inside, axis=0)
        idx[lo:lo + pts.shape[0]] = np.where(count > 0,
                                             inside.argmax(axis=0), -1)
        for i in np.flatnonzero(count > 1):  # rare: points on shared faces
            idx[lo + i] = min(np.flatnonzero(inside[:, i]),
                              key=lambda k: tuple(regions[k].lmp_at(pts[i])))
    return idx


def evaluate_lmp_samples(samples, decomposition, problem=None):
    """Dense price matrix for every sample via `regions.locate`.

    The design that the streamed Monte Carlo pass replaced, kept as its
    reference: a NaN-filled n x n_nodes matrix, each region's samples priced
    by its map in one block and scattered in, samples in no region closure
    solved directly when a problem is supplied (infeasible ones keep NaN
    rows).  Returns (lmp_matrix, feasible_mask, fallback_count).
    """
    samples = np.asarray(samples, dtype=float)
    idx = locate(decomposition, samples)
    n_nodes = decomposition.regions[0].lmp_c.size
    lmp = np.full((samples.shape[0], n_nodes), np.nan)
    for k in np.unique(idx[idx >= 0]):
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


def dense_mc_statistics(samples, decomposition, spec, problem=None, bins=200):
    """Spike counts and whole-column `np.histogram` bins of the dense matrix.

    Returns (node_counts, overall_count, valid, fallback, {node: (counts,
    edges)}) over the nodes of `spec`'s filter, as the dense design computed
    them.
    """
    lmp, feasible, fallback = evaluate_lmp_samples(samples, decomposition,
                                                   problem)
    vals = lmp[feasible]
    spikes = (vals < spec.alpha_minus) | (vals > spec.alpha_plus)
    nodes = list(spec.nodes())
    node_counts = np.zeros(spec.n, dtype=np.int64)
    node_counts[nodes] = spikes[:, nodes].sum(axis=0)
    overall = int(np.any(spikes[:, nodes], axis=1).sum())
    hists = {i: np.histogram(vals[:, i], bins=bins) for i in nodes}
    return node_counts, overall, vals.shape[0], fallback, hists


def brute_vertices(G, w):
    """Vertices of {x : G x <= w} from every d-subset of rows (small systems)."""
    G = np.asarray(G, dtype=float)
    w = np.asarray(w, dtype=float)
    d = G.shape[1]
    verts = []
    for rows in itertools.combinations(range(G.shape[0]), d):
        A = G[list(rows)]
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        x = np.linalg.solve(A, w[list(rows)])
        if np.all(G @ x <= w + 1e-12 * (1.0 + np.abs(w))):
            verts.append(x)
    return np.array(verts)


# -- row-by-row polytope bookkeeping and solve-every-step enumeration --------------

def rowwise_normalized(poly: Polytope) -> Polytope:
    """Unit-norm rows, one `np.linalg.norm` per row; constant rows that hold
    are dropped, constant rows 0 <= w < -1e-9 stay as zero marker rows."""
    G, w = [], []
    for gi, wi in zip(poly.G, poly.w):
        r = np.linalg.norm(gi)
        if r <= ZERO_ROW_TOL:
            if wi < -1e-9:
                G.append(np.zeros(poly.dim))
                w.append(float(wi))
            continue
        G.append(gi / r)
        w.append(wi / r)
    if not G:
        return Polytope(np.zeros((0, poly.dim)), np.zeros(0))
    return Polytope(np.asarray(G), np.asarray(w))


def sequential_distinct_rows(G, w):
    """Near-duplicate rows dropped one row at a time; a row goes when it is
    within 1e-9 of a row kept before it."""
    keep: list[int] = []
    for i in range(G.shape[0]):
        if keep:
            Gk, wk = G[keep], w[keep]
            dup = ((np.abs(Gk - G[i]).max(axis=1) <= 1e-9)
                   & (np.abs(w[i] - wk) <= 1e-9 * (1.0 + np.abs(wk))))
            if dup.any():
                continue
        keep.append(i)
    return G[keep], w[keep]


def solve_every_step_regions(problem, box_lo, box_hi, coverage_samples=20000):
    """Region enumeration that solves the dispatch problem at every facet
    step inside the Fourier-Motzkin parameter set, the way it ran before
    crossings were certified and boundaries proved.

    Same seed, breadth-first order, step lengths and region construction as
    `enumerate_regions`, but a step outside `projected_parameter_set`
    stops there.  Returns the decomposition, whose `theta_space` is that
    projection, and the number of facet-step solves.
    """
    box = box_polytope(box_lo, box_hi)
    theta_space = projected_parameter_set(problem, box_lo, box_hi)
    lo = -box.w[problem.n_theta:]
    center, top = _joint_lps(problem, box)
    scale = max(1.0, 0.5 * float(np.min(top - lo)))
    eps, min_radius = 1e-6 * scale, 1e-9 * scale
    seen, dead, diagnostics = {}, set(), []
    queue = [_seed_partition(problem, center, lo, top)]
    steps = 0
    while queue:
        part = queue.pop(0)
        if part.key in seen or part.key in dead:
            continue
        region, reason = _build_region(problem, part, box, min_radius, {})
        if region is None:
            dead.add(part.key)
            diagnostics.append(reason)
            continue
        seen[part.key] = region
        poly = region.polytope
        for i in range(poly.n_rows):
            fp = poly.facet_point(i)
            if fp is None:
                continue
            for mult in (1.0, 10.0, 100.0):
                cand = fp + eps * mult * poly.G[i]
                if not theta_space.contains(cand, tol=1e-12):
                    break
                steps += 1
                try:
                    cand_part, degen = _partition_at(problem, cand)
                except InfeasibleError:
                    break
                except NumericalError as exc:
                    diagnostics.append(f"step from facet failed: {exc}")
                    continue
                if degen or cand_part.key == part.key:
                    continue
                if cand_part.key not in seen and cand_part.key not in dead:
                    queue.append(cand_part)
                break
    regions = [replace(seen[key], id=k) for k, key in enumerate(sorted(seen))]
    decomp = RegionDecomposition(regions=regions, theta_space=theta_space,
                                 degenerate_diagnostics=diagnostics)
    decomp.coverage_volume_ratio = estimate_coverage(decomp, coverage_samples)
    return decomp, steps


def exhaustive_decay_rates(decomposition, model, spec):
    """`spikes.decay_rates` solving every (node, side, region) piece.

    The minima are compared in region-id order with the package's tie rule;
    no piece is skipped, whatever its rate bound.
    """
    theta_poly = decomposition.theta_space
    boundary_tol = 1e-7 * (1.0 + float(np.abs(theta_poly.w).max()
                                       if theta_poly.n_rows else 1.0))
    per_side = {}
    node_rates = {}
    for node in spec.nodes():
        for sign in ("-", "+"):
            best = None
            for region in decomposition.regions:
                piece = spikes.minimize_rate_piece(model, region, node, sign,
                                                   spec)
                if piece is None:
                    continue
                if best is None or spikes._beats(piece.rate, piece.region_id,
                                                 best.rate, best.region_id):
                    best = piece
            if best is None:
                per_side[(node, sign)] = spikes.SpikeDecayResult(
                    node=node, sign=sign, rate=spikes.UNREACHABLE,
                    theta_star=None, region_id=None, boundary_gap=None,
                    on_theta_boundary=False)
                continue
            region = decomposition.regions[best.region_id]
            alpha = float(spec.alpha_plus[node] if sign == "+"
                          else spec.alpha_minus[node])
            gap = abs(float(region.lmp_at(best.theta)[node]) - alpha)
            on_boundary = bool(np.any(
                theta_poly.G @ best.theta >= theta_poly.w - boundary_tol)) \
                if theta_poly.n_rows else False
            per_side[(node, sign)] = spikes.SpikeDecayResult(
                node=node, sign=sign, rate=best.rate, theta_star=best.theta,
                region_id=best.region_id, boundary_gap=gap,
                on_theta_boundary=on_boundary)
        node_rates[node] = min(per_side[(node, "-")].rate,
                               per_side[(node, "+")].rate)
    overall = min(node_rates.values()) if node_rates else spikes.UNREACHABLE
    return spikes.SpikeAnalysis(per_side=per_side, node_rates=node_rates,
                                overall_rate=overall)
