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
factor updates.  The equality rows are stacked over the inequality rows
once per call, so a step takes its KKT rows and right-hand side with one
index into the stacks.

Infeasibility shows as an unbounded dual step: row p depends linearly on
the working set and no active multiplier falls as t grows.  A row whose
violation is then within PHASE1_TOL * (1 + max|b_in|) is set aside as
satisfied and the iteration restarts without it, but the returned point
must still meet it within that tolerance; otherwise InfeasibleError is
raised.

Once no row is violated beyond FEAS_TOL * (1 + max|b_in|), point and
multipliers are re-derived from one KKT solve on the sorted final working
set, so they depend only on that set and not on the path taken to it.
FEAS_TOL is 1e-12: with 1e-9 the iteration could stop on a neighbouring
critical region's working set, so a dispatch solve 1e-8 (relative) inside a
region of the case14 studies returned the neighbour's price.  The
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
FEAS_TOL = 1e-12
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


def kkt_matrix(H, N):
    """The KKT matrix [H N'; N 0] of min 1/2 x' H x + h' x s.t. N x = c."""
    n, k = H.shape[0], N.shape[0]
    K = np.zeros((n + k, n + k))
    K[:n, :n] = H
    K[:n, n:] = N.T
    K[n:, :n] = N
    return K


def _kkt_solve(H, N, top, bottom):
    """Solve [H N'; N 0] [x; y] = [top; bottom]; column-stacked right-hand sides allowed."""
    try:
        sol = np.linalg.solve(kkt_matrix(H, N), np.concatenate([top, bottom]))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular KKT system in active-set iteration") from exc
    return sol[:len(H)], sol[len(H):]


def _dual_pass(H, h, A, B, ne, aside, feas_tol, max_iter):
    """Goldfarb-Idnani iteration over the rows of A x <= B[:, 0] after the
    first ne, which hold as equalities, except the rows set `aside`.

    B's second column is zero, the working rows' part of a step's second
    right-hand side.  Returns (work, blocked, iterations): the sorted
    working set, the ne equality rows first, and `blocked` = (row,
    violation) when that row's dual step is unbounded (None when no row is
    violated beyond feas_tol).
    """
    b = B[:, 0]
    work = list(range(ne))
    x = _kkt_solve(H, A[:ne], -h, b[:ne])[0]
    top = np.empty((len(H), 2))  # [-h, -a_p] above each step's B rows
    top[:, 0] = -h
    iterations = 0
    while True:
        viol = A @ x - b
        viol[work] = -np.inf
        if aside:
            viol[aside] = -np.inf
        p = int(viol.argmax()) if viol.size else -1
        if p < 0 or viol[p] <= feas_tol:
            return work, None, iterations
        a_p, b_p = A[p], float(b[p])
        top[:, 1] = -a_p
        t = 0.0  # multiplier of row p
        while True:
            if iterations >= max_iter:
                raise NumericalError(
                    f"active-set QP did not converge in {max_iter} iterations")
            iterations += 1
            X, Y = _kkt_solve(H, A[work], top, B[work])
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
            if len(work) > ne:
                u0, du = Y[ne:].T.tolist()
                cut = -DROP_TOL * (1.0 + max(map(abs, du)))
                for k, (u0_k, du_k) in enumerate(zip(u0, du)):
                    u_k = u0_k + t * du_k
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
            work.pop(ne + drop)


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
    ne, m = A_eq.shape[0], A_in.shape[0]
    max_iter = 100 * (n + m + 1)
    # equality rows over inequality rows; see _dual_pass for B
    A = np.vstack([A_eq, A_in])
    B = np.zeros((ne + m, 2))
    B[:, 0] = np.concatenate([b_eq, b_in])

    scale = 1.0 + (np.abs(b_in).max() if m else 0.0)
    aside: list[int] = []
    iterations = 0
    while True:
        work, blocked, its = _dual_pass(H, h, A, B, ne, aside,
                                        FEAS_TOL * scale,
                                        max_iter - iterations)
        iterations += its
        if blocked is None:
            break
        row, violation = blocked
        if violation > PHASE1_TOL * scale:
            raise InfeasibleError(
                f"no feasible point (row {row - ne} violated by {violation:.3e})")
        aside.append(row)

    x, y = _kkt_solve(H, A[work], -h, B[work, 0])
    if aside and (A[aside] @ x - B[aside, 0]).max() > PHASE1_TOL * scale:
        raise InfeasibleError("no feasible point (a set-aside row is violated)")
    ineq_duals = np.zeros(m)
    working_set = [i - ne for i in work[ne:]]
    ineq_duals[working_set] = np.maximum(y[ne:], 0.0)
    obj = 0.5 * x @ H @ x + h @ x
    return QPResult(x, float(obj), y[:ne], ineq_duals, tuple(working_set),
                    iterations=iterations)
