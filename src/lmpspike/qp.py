"""Dense dual active-set solver for small strictly convex QPs.

Solves
    min  1/2 x' H x + h' x
    s.t. A_eq x  = b_eq
         A_in x <= b_in
with H symmetric positive definite, by the dual method of Goldfarb and
Idnani (Math. Prog. 27, 1983).  It starts at the equality-constrained
minimizer, which is dual feasible, so it needs no feasible starting point.
Each step takes the most violated inequality row p and raises its
multiplier t, along which point and working-set multipliers move affinely.
The step is full when row p binds (p joins the working set) and partial
when an active multiplier reaches zero first (that row leaves).  Every step
re-solves the equality-constrained KKT system of the working set from
scratch; at the sizes this package deals in (a handful of variables, tens
of rows) a fresh dense solve is both faster and more predictable than
factor updates.

Infeasibility shows as an unbounded dual step: row p depends linearly on
the working set and no active multiplier falls as t grows.  A row whose
violation is then within PHASE1_TOL * (1 + max|b_in|) is set aside as
satisfied and the iteration restarts without it, but the returned point
must still meet it within that tolerance; otherwise InfeasibleError is
raised.

Once no row is violated beyond FEAS_TOL * (1 + max|b_in|), point and
multipliers are re-derived from one KKT solve on the sorted final working
set, so they depend only on that set and not on the path taken to it.  The
final working set and its Lagrange multipliers are returned with the point;
`opf.solve_opf` reads the binding set off the point's residuals and takes
these multipliers only where its own canonical KKT duals do not apply.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, NumericalError

# violation (relative to 1 + max|b_in|) up to which a row counts as satisfied
FEAS_TOL = 1e-9
# violation (relative to 1 + max|b_in|) up to which a row that cannot be added
# counts as satisfied: the feasibility verdict of an elastic phase-1 LP with
# this slack tolerance (tests/oracles.phase1_point)
PHASE1_TOL = 1e-7
# an active multiplier falls with t when its rate is below -DROP_TOL (1 + max rate)
DROP_TOL = 1e-12


@dataclass
class QPResult:
    x: np.ndarray
    objective: float
    eq_duals: np.ndarray          # one per equality row, free sign
    ineq_duals: np.ndarray        # one per inequality row, >= 0, zero off the active set
    working_set: tuple[int, ...]  # inequality rows active at the solution
    iterations: int = 0


def _as_2d(a, ncols):
    if a is None:
        return np.zeros((0, ncols))
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return a


def _kkt_solve(H, N, top, bottom):
    """Solve [H N'; N 0] [x; y] = [top; bottom]; column-stacked right-hand sides allowed."""
    n, k = H.shape[0], N.shape[0]
    K = np.zeros((n + k, n + k))
    K[:n, :n] = H
    K[:n, n:] = N.T
    K[n:, :n] = N
    try:
        sol = np.linalg.solve(K, np.concatenate([top, bottom]))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular KKT system in active-set iteration") from exc
    return sol[:n], sol[n:]


def _dual_pass(H, h, A_eq, b_eq, A_in, b_in, skip, feas_tol, max_iter):
    """Goldfarb-Idnani iteration over the inequality rows not in `skip`.

    Returns (work, blocked, iterations): the sorted working set, and
    `blocked` = (row, violation) when that row's dual step is unbounded
    (None when no row is violated beyond feas_tol).
    """
    ne = A_eq.shape[0]
    work: list[int] = []
    x = _kkt_solve(H, A_eq, -h, b_eq)[0]
    iterations = 0
    while True:
        viol = A_in @ x - b_in
        viol[work] = -np.inf
        viol[skip] = -np.inf
        p = int(np.argmax(viol)) if viol.size else -1
        if p < 0 or viol[p] <= feas_tol:
            return work, None, iterations
        a_p, b_p = A_in[p], float(b_in[p])
        top = np.column_stack([-h, -a_p])
        t = 0.0  # multiplier of row p
        while True:
            if iterations >= max_iter:
                raise NumericalError(
                    f"active-set QP did not converge in {max_iter} iterations")
            iterations += 1
            N = np.vstack([A_eq, A_in[work]])
            bottom = np.zeros((N.shape[0], 2))
            bottom[:, 0] = np.concatenate([b_eq, b_in[work]])
            X, Y = _kkt_solve(H, N, top, bottom)
            dx = X[:, 1]
            at_0, slope = (a_p @ X).tolist()  # a_p' x at t = 0, and its rate
            violation = at_0 + t * slope - b_p
            # -a_p' dx equals the curvature dx' H dx in exact arithmetic.  When
            # row p depends on the working set, dx is rounding noise, which
            # the curvature squares and -a_p' dx does not: the two disagree,
            # and no full step exists.
            curv = float(dx @ H @ dx)
            step = violation / -slope if 0.0 < -slope < 2.0 * curv else np.inf
            drop = -1
            if work:
                du = Y[ne:, 1].tolist()
                u = (Y[ne:, 0] + t * Y[ne:, 1]).tolist()
                cut = -DROP_TOL * (1.0 + max(map(abs, du)))
                for k, (u_k, du_k) in enumerate(zip(u, du)):
                    # strict: of equal ratios the first, i.e. lowest row, drops
                    if du_k < cut and max(u_k, 0.0) / -du_k < step:
                        step, drop = max(u_k, 0.0) / -du_k, k
            if step == np.inf:
                return work, (p, violation), iterations
            t += step
            if drop < 0:
                x = X[:, 0] + t * dx
                bisect.insort(work, p)
                break
            work.pop(drop)


def solve_qp(H, h, A_eq=None, b_eq=None, A_in=None, b_in=None) -> QPResult:
    """Dual active-set method; requires H positive definite.

    Raises InfeasibleError when the constraints admit no point, and
    NumericalError on linear-algebra failure or after 100 (n + m + 1)
    iterations for n variables and m inequality rows.
    """
    H = np.asarray(H, dtype=float)
    h = np.asarray(h, dtype=float)
    n = H.shape[0]
    A_eq = _as_2d(A_eq, n)
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, dtype=float))
    A_in = _as_2d(A_in, n)
    b_in = np.zeros(0) if b_in is None else np.atleast_1d(np.asarray(b_in, dtype=float))
    m = A_in.shape[0]
    max_iter = 100 * (n + m + 1)

    scale = 1.0 + (np.abs(b_in).max() if m else 0.0)
    aside = np.zeros(m, dtype=bool)
    iterations = 0
    while True:
        work, blocked, its = _dual_pass(H, h, A_eq, b_eq, A_in, b_in, aside,
                                        FEAS_TOL * scale,
                                        max_iter - iterations)
        iterations += its
        if blocked is None:
            break
        row, violation = blocked
        if violation > PHASE1_TOL * scale:
            raise InfeasibleError(
                f"no feasible point (row {row} violated by {violation:.3e})")
        aside[row] = True

    x, y = _kkt_solve(H, np.vstack([A_eq, A_in[work]]), -h,
                      np.concatenate([b_eq, b_in[work]]))
    if aside.any() and (A_in[aside] @ x - b_in[aside]).max() > PHASE1_TOL * scale:
        raise InfeasibleError("no feasible point (a set-aside row is violated)")
    ne = A_eq.shape[0]
    ineq_duals = np.zeros(m)
    ineq_duals[work] = np.maximum(y[ne:], 0.0)
    obj = 0.5 * x @ H @ x + h @ x
    return QPResult(x, float(obj), y[:ne], ineq_duals, tuple(work),
                    iterations=iterations)
