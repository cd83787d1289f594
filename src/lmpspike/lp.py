"""Linear programs solved by HiGHS through scipy's bundled bindings.

`solve_lp` hands HiGHS the model and options that
`scipy.optimize.linprog(method="highs")` would, and applies linprog's
post-solve feasibility check, so its results are bit-identical to linprog's.
It skips linprog's per-call input cleaning, option validation and result
assembly, which cost several times the solve on the small LPs used here.
The options are built once; each call gets a fresh solver, so no basis
carries over from one LP to the next.

All variables are free unless explicit bounds are passed; linprog's default
of x >= 0 is never wanted here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy import _core as highs

from .errors import NumericalError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# linprog's tolerance for an "optimal" point's bounds and rows: sqrt(tol) * 10
# with its default tol of 1e-9.
FEAS_TOL = np.sqrt(1e-9) * 10

# The options linprog(method="highs") sets with its defaults.
_OPTIONS = highs.HighsOptions()
_OPTIONS.presolve = "on"
_OPTIONS.simplex_strategy = \
    highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
_OPTIONS.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
_OPTIONS.log_to_console = False
_OPTIONS.output_flag = False

_STATUS = {highs.HighsModelStatus.kInfeasible: INFEASIBLE,
           highs.HighsModelStatus.kModelError: INFEASIBLE,
           highs.HighsModelStatus.kUnbounded: UNBOUNDED}


@dataclass(frozen=True)
class LPResult:
    status: str
    x: np.ndarray | None
    fun: float | None


def _rows(A, b, n: int) -> tuple[np.ndarray, np.ndarray]:
    A = np.zeros((0, n)) if A is None else np.asarray(A, dtype=float)
    b = np.zeros(0) if b is None else np.asarray(b, dtype=float).reshape(-1)
    if A.ndim != 2 or A.shape[1] != n or b.shape != (A.shape[0],):
        raise ValueError(f"constraint shapes {A.shape} and {b.shape} do not "
                         f"fit {n} variables")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("LP constraints must be finite")
    return A, b


def _check_feasible(x, fun, slack, residual, lb, ub) -> None:
    """Raise NumericalError unless an "optimal" point is feasible: no NaN,
    bounds kept, inequality slacks b_ub - A_ub x not below -FEAS_TOL and
    equality residuals b_eq - A_eq x within FEAS_TOL (linprog's guard)."""
    if (np.isnan(x).any() or np.isnan(fun) or np.isnan(slack).any()
            or np.isnan(residual).any()
            or not np.all((x >= lb - FEAS_TOL) & (x <= ub + FEAS_TOL))
            or (slack < -FEAS_TOL).any()
            or (np.abs(residual) > FEAS_TOL).any()):
        raise NumericalError("LP solver returned an optimal point that breaks "
                             f"its constraints by more than {FEAS_TOL:.2e}")


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None) -> LPResult:
    """Minimize c @ x subject to A_ub x <= b_ub and A_eq x = b_eq."""
    c = np.array(c, dtype=float).reshape(-1)
    if not np.isfinite(c).all():
        raise ValueError("LP costs must be finite")
    n = c.size
    A_ub, b_ub = _rows(A_ub, b_ub, n)
    A_eq, b_eq = _rows(A_eq, b_eq, n)
    if bounds is None:
        lb, ub = np.full(n, -np.inf), np.full(n, np.inf)
    else:
        lb, ub = np.array(bounds, dtype=float).reshape(n, 2).T
        lb = np.where(np.isnan(lb), -np.inf, lb)
        ub = np.where(np.isnan(ub), np.inf, ub)
    # column-wise nonzeros, row indices ascending: what csc_array stores
    At = np.vstack([A_ub, A_eq]).T
    nonzero = At != 0
    m = At.shape[1]
    model = highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = n
    model.num_row_ = model.a_matrix_.num_row_ = m
    model.a_matrix_.format_ = highs.MatrixFormat.kColwise
    model.a_matrix_.start_ = np.concatenate([[0], np.cumsum(nonzero.sum(axis=1))])
    model.a_matrix_.index_ = np.nonzero(nonzero)[1]
    model.a_matrix_.value_ = At[nonzero]
    model.col_cost_ = c
    model.col_lower_ = lb
    model.col_upper_ = ub
    model.row_lower_ = np.concatenate([np.full(b_ub.size, -np.inf), b_eq])
    model.row_upper_ = np.concatenate([b_ub, b_eq])

    solver = highs._Highs()
    if solver.passOptions(_OPTIONS) == highs.HighsStatus.kError:
        raise NumericalError("HiGHS rejected the LP options")
    if solver.passModel(model) == highs.HighsStatus.kError:
        return LPResult(INFEASIBLE, None, None)
    ran = solver.run() != highs.HighsStatus.kError
    status = solver.getModelStatus()
    if ran and status == highs.HighsModelStatus.kOptimal:
        solution = solver.getSolution()
        x = np.array(solution.col_value)
        fun = float(solver.getInfo().objective_function_value)
        slack = np.concatenate([b_ub, b_eq]) - np.array(solution.row_value)
        _check_feasible(x, fun, slack[:b_ub.size], slack[b_ub.size:], lb, ub)
        return LPResult(OPTIMAL, x, fun)
    if status in _STATUS:
        return LPResult(_STATUS[status], None, None)
    raise NumericalError("LP solver failed with HiGHS status "
                         f"{solver.modelStatusToString(status)}")
