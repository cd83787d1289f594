"""Parametric DC optimal power flow in standard multiparametric-QP form.

The dispatch problem

    min  1/2 g' H g + h' g
    s.t. total generation balances net demand        (dual: energy price)
         line flows within [f_min, f_max]            (duals: congestion)
         dispatch within [g_min, g_max]              (duals: saturation)

is assembled as  min 1/2 g' H g + h' g  s.t.  A g <= b + E theta,  where the
renewable injection theta enters only the right-hand side.  Row order is
fixed: the balance equality written as two opposed inequalities, then upper
and lower line limits, then upper and lower generator bounds -- so the row
count is 2 + 2m + 2n_g and every row carries a semantic label.

Nodal prices decompose as  LMP = lambda * 1 + PTDF' mu  with mu the signed
congestion dual (lower-limit dual minus upper-limit dual).

Duals follow one rule with two paths.  After the active-set QP identifies
the binding rows, primal and duals are re-derived from one KKT solve on the
sorted binding set, so they do not depend on the path the QP iteration took.
Where that refinement does not apply (more binding rows than units, a
singular KKT system, or a borderline identification the refined point
fails), the QP's own multipliers are returned.  They come from one KKT solve
on the dual method's final working set, which the method keeps linearly
independent, so they are finite, and the price equals the affine map of the
critical region keyed by that working set: the limit of an adjacent region's
price.  On a face where the price map jumps, that region may differ from
the one `regions.locate` picks by its tie rule, and both prices are valid
there: on the two-bus toy with one injection, theta = 6 gives the congested
side's [4, 10] here and [4, 4] from `locate`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qp
from .errors import (CaseError, InfeasibleError, NumericalError,
                     SingularActiveSetError)
from .grid import GridCase, build_ptdf

BALANCE_UP = "balance+"
BALANCE_DOWN = "balance-"
LINE_UPPER = "line-upper"
LINE_LOWER = "line-lower"
GEN_UPPER = "gen-upper"
GEN_LOWER = "gen-lower"


@dataclass(frozen=True)
class RowLabel:
    kind: str
    index: int  # line or generator position; 0 for the balance rows


@dataclass(frozen=True)
class MPQPProblem:
    H: np.ndarray                  # n_g x n_g diagonal positive definite
    h: np.ndarray
    A: np.ndarray                  # (2 + 2m + 2n_g) x n_g
    b: np.ndarray
    E: np.ndarray                  # (2 + 2m + 2n_g) x n_theta
    row_labels: tuple[RowLabel, ...]
    case: GridCase
    ptdf: np.ndarray               # m x n

    @property
    def n_g(self) -> int:
        return self.H.shape[0]

    @property
    def n_theta(self) -> int:
        return self.E.shape[1]

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.case.m

    def act_tolerance(self) -> np.ndarray:
        """Per-row binding tolerance, relative to the row right-hand side."""
        return 1e-7 * (1.0 + np.abs(self.b))

    def residual(self, g: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Row residuals A g - b - E theta: a row holds at <= 0, binds at 0."""
        return self.A @ g - self.b - self.E @ theta

    def net_demand(self, theta: np.ndarray) -> float:
        return self.case.total_demand() - float(np.sum(theta))


def assemble_mpqp(case: GridCase) -> MPQPProblem:
    """Build the standard-form matrices from a case with limits set."""
    if not case.has_line_limits:
        raise CaseError("case is missing line limits; derive or set them first")
    if case.n_g == 0:
        raise CaseError("case has no controllable generators")
    ptdf = build_ptdf(case)
    n_g, m, n_t = case.n_g, case.m, case.n_theta

    H = np.diag([g.cost_quadratic for g in case.generators])
    h = np.array([g.cost_linear for g in case.generators])

    ptdf_g = ptdf[:, case.gen_bus_indices] if m else np.zeros((0, n_g))
    ptdf_t = ptdf[:, case.renewable_bus_indices] if m else np.zeros((0, n_t))
    ptdf_d = ptdf @ case.loads if m else np.zeros(0)
    f_max = np.array([ln.f_max for ln in case.lines])
    f_min = np.array([ln.f_min for ln in case.lines])
    g_max = np.array([g.g_max for g in case.generators])
    g_min = np.array([g.g_min for g in case.generators])
    ones_g = np.ones((1, n_g))
    eye_g = np.eye(n_g)
    total_d = case.total_demand()

    A = np.vstack([ones_g, -ones_g, ptdf_g, -ptdf_g, eye_g, -eye_g])
    b = np.concatenate([[total_d], [-total_d],
                        ptdf_d + f_max, -ptdf_d - f_min,
                        g_max, -g_min])
    ones_t = np.ones((1, n_t))
    E = np.vstack([-ones_t, ones_t, -ptdf_t, ptdf_t,
                   np.zeros((n_g, n_t)), np.zeros((n_g, n_t))])

    labels = ([RowLabel(BALANCE_UP, 0), RowLabel(BALANCE_DOWN, 0)]
              + [RowLabel(LINE_UPPER, k) for k in range(m)]
              + [RowLabel(LINE_LOWER, k) for k in range(m)]
              + [RowLabel(GEN_UPPER, k) for k in range(n_g)]
              + [RowLabel(GEN_LOWER, k) for k in range(n_g)])
    return MPQPProblem(H=H, h=h, A=A, b=b, E=E, row_labels=tuple(labels),
                       case=case, ptdf=ptdf)


@dataclass(frozen=True)
class ParametricKKT:
    """Affine solution of the KKT system for a fixed binding set.

    g(theta) = g0 + Gg theta, lambda(theta) = lam0 + lamT theta, and the
    binding-row duals nu(theta) = nu0 + NuT theta; rows off the binding set
    carry zero duals.
    """
    binding_ineq: tuple[int, ...]
    g0: np.ndarray
    Gg: np.ndarray
    lam0: float
    lamT: np.ndarray
    nu0: np.ndarray
    NuT: np.ndarray


def parametric_kkt(problem: MPQPProblem, binding_ineq) -> ParametricKKT:
    """Solve the equality-constrained KKT system parametrically in theta.

    `binding_ineq` lists the binding inequality rows (standard-form indices
    >= 2); the balance equality is always included with a free multiplier.
    Raises SingularActiveSetError when the rows are linearly dependent, which
    is exactly the constraint-qualification failure case.
    """
    binding_ineq = tuple(sorted(int(i) for i in binding_ineq))
    for i in binding_ineq:
        if i < 2 or i >= problem.n_rows:
            raise ValueError(f"row {i} is not an inequality row")
    n_g, n_t = problem.n_g, problem.n_theta
    na = len(binding_ineq)
    A_act = problem.A[list(binding_ineq)] if na else np.zeros((0, n_g))
    E_act = problem.E[list(binding_ineq)] if na else np.zeros((0, n_t))
    b_act = problem.b[list(binding_ineq)] if na else np.zeros(0)

    size = n_g + 1 + na
    K = np.zeros((size, size))
    K[:n_g, :n_g] = problem.H
    K[:n_g, n_g] = -1.0
    K[n_g, :n_g] = 1.0
    if na:
        K[:n_g, n_g + 1:] = A_act.T
        K[n_g + 1:, :n_g] = A_act
    rhs = np.zeros((size, 1 + n_t))
    rhs[:n_g, 0] = -problem.h
    rhs[n_g, 0] = problem.case.total_demand()
    rhs[n_g, 1:] = -np.ones(n_t)
    if na:
        rhs[n_g + 1:, 0] = b_act
        rhs[n_g + 1:, 1:] = E_act
    try:
        X = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        raise SingularActiveSetError(
            f"KKT system singular for binding rows {binding_ineq}") from None
    if not np.all(np.isfinite(X)) or \
            np.abs(K @ X - rhs).max() > 1e-6 * (1.0 + np.abs(rhs).max()):
        raise SingularActiveSetError(
            f"KKT system numerically singular for binding rows {binding_ineq}")
    return ParametricKKT(binding_ineq=binding_ineq,
                         g0=X[:n_g, 0], Gg=X[:n_g, 1:],
                         lam0=float(X[n_g, 0]), lamT=X[n_g, 1:],
                         nu0=X[n_g + 1:, 0], NuT=X[n_g + 1:, 1:])


@dataclass(frozen=True)
class OPFSolution:
    theta: np.ndarray
    g_star: np.ndarray
    objective: float
    lambda_energy: float
    mu: np.ndarray          # signed congestion duals: lower-limit minus upper-limit
    kkt_residual: float
    row_duals: np.ndarray   # duals of every standard-form inequality row
    degenerate: bool = False


@dataclass(frozen=True)
class LMPVector:
    values: np.ndarray
    energy_component: float
    congestion_component: np.ndarray


@dataclass(frozen=True)
class OptimalPartition:
    """Binding rows at an optimum, with the duplicate balance row dropped.

    `binding` holds standard-form row indices (0-based); index 0 (the balance
    row kept by convention) is always present, index 1 never is.  `b_cong` and
    `b_sat` list the binding line-limit and generator-bound rows.
    """
    binding: tuple[int, ...]
    b_cong: tuple[int, ...]
    b_sat: tuple[int, ...]

    @property
    def key(self) -> tuple[int, ...]:
        return self.binding

    @property
    def binding_ineq(self) -> tuple[int, ...]:
        return tuple(i for i in self.binding if i >= 2)

    def __str__(self):
        return "{" + ",".join(str(i) for i in self.binding) + "}"


def _split_binding(problem: MPQPProblem, binding_ineq) -> OptimalPartition:
    b_cong, b_sat = [], []
    for i in binding_ineq:
        if problem.row_labels[i].kind in (LINE_UPPER, LINE_LOWER):
            b_cong.append(i)
        else:
            b_sat.append(i)
    return OptimalPartition((0, *sorted(binding_ineq)), tuple(b_cong),
                            tuple(b_sat))


def _row_duals_from(problem: MPQPProblem, lam: float, binding_ineq,
                    nu: np.ndarray) -> np.ndarray:
    row_duals = np.zeros(problem.n_rows)
    for k, i in enumerate(binding_ineq):
        row_duals[i] = max(float(nu[k]), 0.0)
    # the signed energy dual folds back into the two opposed balance rows
    if lam >= 0.0:
        row_duals[1] = lam
    else:
        row_duals[0] = -lam
    return row_duals


def kkt_point(problem: MPQPProblem, kkt: ParametricKKT, theta):
    """A binding set's KKT solution at theta: (dispatch g, row residuals,
    energy price lambda, binding-row multipliers nu).  The one evaluation
    that `solve_opf` and the facet certificates of `regions` share."""
    g = kkt.g0 + kkt.Gg @ theta
    return (g, problem.residual(g, theta), kkt.lam0 + float(kkt.lamT @ theta),
            kkt.nu0 + kkt.NuT @ theta)


def dual_tolerance(nu: np.ndarray) -> float:
    """How far below zero `solve_opf` lets a binding-row multiplier fall."""
    return 1e-7 * (1.0 + np.abs(nu).max(initial=0.0))


def solve_opf(problem: MPQPProblem, theta=None) -> OPFSolution:
    """Solve the dispatch QP at a fixed renewable injection with full duals.

    Duals come from one KKT solve on the sorted binding set when it has at
    most n_g - 1 inequality rows, is nonsingular and reproduces a feasible
    point with nonnegative multipliers.  Otherwise (`degenerate` marks the
    first two cases) they are the QP's working-set multipliers, which are
    finite and equal an adjacent region's price map; on a face where the
    map jumps this may be another side than the one `regions.locate` picks.

    Raises InfeasibleError when theta lies outside the feasible parameter
    set.  Unboundedness cannot occur with H positive definite; if the
    iteration fails anyway that surfaces as NumericalError.
    """
    theta = np.zeros(problem.n_theta) if theta is None else \
        np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (problem.n_theta,):
        raise ValueError(f"theta must have length {problem.n_theta}")
    D = problem.net_demand(theta)
    # rows 0 and 1 encode the balance equality; feed it to the QP as one equality
    A_in = problem.A[2:]
    b_in = problem.b[2:] + problem.E[2:] @ theta

    try:
        res = qp.solve_qp(problem.H, problem.h,
                          A_eq=np.ones((1, problem.n_g)), b_eq=[D],
                          A_in=A_in, b_in=b_in)
    except InfeasibleError:
        raise InfeasibleError(
            "dispatch infeasible at theta="
            + np.array2string(theta, precision=6)) from None

    g, resid = res.x, problem.residual(res.x, theta)
    tol = problem.act_tolerance()
    binding_ineq = tuple(i for i in range(2, problem.n_rows)
                         if resid[i] >= -tol[i])

    degenerate = 1 + len(binding_ineq) > problem.n_g
    row_duals = None
    if not degenerate:
        try:
            kkt = parametric_kkt(problem, binding_ineq)
        except SingularActiveSetError:
            degenerate = True
        else:
            g_c, resid_c, lam, nu = kkt_point(problem, kkt, theta)
            if np.all(resid_c <= tol) and \
                    nu.min(initial=np.inf) >= -dual_tolerance(nu):
                g, resid = g_c, resid_c
                row_duals = _row_duals_from(problem, lam, binding_ineq, nu)
    if row_duals is None:
        # degenerate, singular or borderline: the QP's working-set multipliers
        lam = -float(res.eq_duals[0])
        row_duals = _row_duals_from(
            problem, lam, tuple(range(2, problem.n_rows)), res.ineq_duals)

    m = problem.m
    return OPFSolution(theta=theta, g_star=g,
                       objective=float(0.5 * g @ problem.H @ g + problem.h @ g),
                       lambda_energy=lam,
                       mu=row_duals[2 + m:2 + 2 * m] - row_duals[2:2 + m],
                       row_duals=row_duals, degenerate=degenerate,
                       kkt_residual=_kkt_residual(problem, g, resid,
                                                  row_duals))


def _kkt_residual(problem, g, primal, row_duals) -> float:
    stationarity = problem.H @ g + problem.h + problem.A.T @ row_duals
    comp = row_duals[2:] * primal[2:]
    parts = [np.abs(stationarity).max(), max(primal.max(), 0.0)]
    if comp.size:
        parts.append(np.abs(comp).max())
    return float(max(parts))


def compute_lmp(solution: OPFSolution, ptdf: np.ndarray) -> LMPVector:
    """Nodal prices: energy component plus PTDF-weighted congestion duals."""
    congestion = ptdf.T @ solution.mu
    values = solution.lambda_energy + congestion
    return LMPVector(values=values, energy_component=solution.lambda_energy,
                     congestion_component=congestion)


def _lmp_map_from_kkt(problem: MPQPProblem, kkt: ParametricKKT):
    """Affine price map (C, c), LMP = C theta + c, of a binding set: the
    `compute_lmp` decomposition applied to the parametric duals."""
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
    C = np.outer(np.ones(n), kkt.lamT) + problem.ptdf.T @ MuT
    c = kkt.lam0 * np.ones(n) + problem.ptdf.T @ mu0
    return C, c


def optimal_partition(solution: OPFSolution,
                      problem: MPQPProblem) -> OptimalPartition:
    """Rows binding at the optimum; the redundant second balance row is dropped."""
    tol = problem.act_tolerance()
    resid = problem.residual(solution.g_star, solution.theta)
    binding_ineq = [i for i in range(2, problem.n_rows)
                    if abs(resid[i]) <= tol[i]]
    part = _split_binding(problem, binding_ineq)
    _check_partition_consistency(problem, part)
    return part


def _check_partition_consistency(problem: MPQPProblem, part: OptimalPartition):
    """Opposite-side rows of one line or generator cannot both bind strictly."""
    seen: dict[tuple[str, int], str] = {}
    for i in part.b_cong + part.b_sat:
        lab = problem.row_labels[i]
        entity = ("line" if lab.kind in (LINE_UPPER, LINE_LOWER) else "gen",
                  lab.index)
        side = "upper" if lab.kind in (LINE_UPPER, GEN_UPPER) else "lower"
        if entity in seen and seen[entity] != side:
            # possible only when the interval collapses to a point; reject
            raise NumericalError(
                f"both bounds of {entity[0]} {entity[1]} are binding")
        seen[entity] = side


def licq_check(partition: OptimalPartition, n_g: int) -> bool:
    """Constraint qualification as a counting condition on the binding set."""
    return 1 + len(partition.b_sat) + len(partition.b_cong) <= n_g
