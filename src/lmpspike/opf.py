"""Parametric DC optimal power flow in standard multiparametric-QP form.

The dispatch problem

    min  1/2 g' H g + h' g
    s.t. total generation balances net demand        (dual: energy price)
         line flows within [f_min, f_max]            (duals: congestion)
         dispatch within [g_min, g_max]              (duals: saturation)

is assembled as  min 1/2 g' H g + h' g  s.t.  A g <= b + E theta,  where the
renewable injection theta enters only the right-hand side.  The row layout
is fixed: rows 0 and 1 are the balance equality written as two opposed
inequalities (row 0 is  1' g <= D - 1' theta  for total demand D), then,
from row FIRST_INEQ, m line upper limits, m line lower limits, n_g unit
upper bounds and n_g unit lower bounds: 2 + 2m + 2n_g rows.  FIRST_INEQ,
`MPQPProblem.ineq_rows`, `MPQPProblem.unit_rows`, `MPQPProblem.row_bound`
(the line or unit a row bounds, and its opposite-bound row) and
`MPQPProblem.congestion` name its parts.  `assemble_mpqp` makes A, b, E, H
and h read-only, and each problem keeps its `parametric_kkt` results
(read-only too) keyed by the sorted binding rows, so a binding set is
solved once per problem whoever asks for it: `solve_opf`, or the verdicts
on a facet step of `regions` (`certified_partition`, `proves_infeasible`).
A problem made anew or by `dataclasses.replace` starts with an empty cache.

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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import qp
from .errors import (CaseError, InfeasibleError, NumericalError,
                     SingularActiveSetError)
from .grid import GridCase, build_ptdf

FIRST_INEQ = 2  # the first line-limit row, after the two balance rows


@dataclass(frozen=True)
class MPQPProblem:
    H: np.ndarray                  # n_g x n_g diagonal positive definite
    h: np.ndarray
    A: np.ndarray                  # (2 + 2m + 2n_g) x n_g
    b: np.ndarray
    E: np.ndarray                  # (2 + 2m + 2n_g) x n_theta
    case: GridCase
    ptdf: np.ndarray               # m x n
    # parametric_kkt's result per sorted binding-row key, or the message of
    # a singular set's SingularActiveSetError
    _kkts: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

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

    @cached_property
    def act_tolerance(self) -> np.ndarray:
        """Per-row binding tolerance, relative to the row right-hand side."""
        tol = 1e-7 * (1.0 + np.abs(self.b))
        tol.flags.writeable = False
        return tol

    def residual(self, g: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Row residuals A g - b - E theta: a row holds at <= 0, binds at 0."""
        return self.A @ g - self.b - self.E @ theta

    @property
    def ineq_rows(self) -> range:
        """The line-limit and unit-bound rows."""
        return range(FIRST_INEQ, self.n_rows)

    @property
    def unit_rows(self) -> range:
        """The unit-bound rows: g <= g_max, then -g <= -g_min."""
        return range(FIRST_INEQ + 2 * self.m, self.n_rows)

    def ineq_where(self, mask: np.ndarray) -> list[int]:
        """The inequality rows, ascending, where a per-row mask holds."""
        return (FIRST_INEQ + np.flatnonzero(mask[FIRST_INEQ:])).tolist()

    def row_bound(self, i: int) -> tuple[str, int, int]:
        """(block, k, opposite): inequality row i bounds line k ("line") or
        unit k ("gen"), and row `opposite` is k's other bound."""
        if i < self.unit_rows.start:
            block, first, size = "line", FIRST_INEQ, self.m
        else:
            block, first, size = "gen", self.unit_rows.start, self.n_g
        k = (i - first) % size
        return block, k, first + k + (size if i < first + size else 0)

    def congestion(self, row_values: np.ndarray) -> np.ndarray:
        """Signed congestion per line from values per row (along the first
        axis): the lower-limit row's value minus the upper-limit row's."""
        lower = FIRST_INEQ + self.m
        return row_values[lower:lower + self.m] - row_values[FIRST_INEQ:lower]


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
    for array in (H, h, A, b, E):
        array.flags.writeable = False
    return MPQPProblem(H=H, h=h, A=A, b=b, E=E, case=case, ptdf=ptdf)


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
    >= FIRST_INEQ) in any order; the balance row 0 is always included with
    a free multiplier, which is minus the energy price.  Raises
    SingularActiveSetError when the rows are linearly dependent, which is
    exactly the constraint-qualification failure case.  Each binding set is
    solved once per problem: later calls return the same object, or raise
    again for a singular set.
    """
    key = tuple(sorted(int(i) for i in binding_ineq))
    if key not in problem._kkts:
        problem._kkts[key] = _solve_kkt(problem, key)
    kkt = problem._kkts[key]
    if isinstance(kkt, str):
        raise SingularActiveSetError(kkt)
    return kkt


def _solve_kkt(problem: MPQPProblem, binding_ineq) -> ParametricKKT | str:
    """`parametric_kkt` for sorted rows, uncached; a singular set's error
    message in place of the solution."""
    for i in binding_ineq:
        if i not in problem.ineq_rows:
            raise ValueError(f"row {i} is not an inequality row")
    n_g = problem.n_g
    rows = [0, *binding_ineq]
    K = qp.kkt_matrix(problem.H, problem.A[rows])
    rhs = np.zeros((len(K), 1 + problem.n_theta))
    rhs[:n_g, 0] = -problem.h
    rhs[n_g:, 0] = problem.b[rows]
    rhs[n_g:, 1:] = problem.E[rows]
    try:
        X = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        return f"KKT system singular for binding rows {binding_ineq}"
    # checked here and not in qp's KKT solve, which runs at every QP step
    if not np.all(np.isfinite(X)) or \
            np.abs(K @ X - rhs).max() > 1e-6 * (1.0 + np.abs(rhs).max()):
        return f"KKT system numerically singular for binding rows {binding_ineq}"
    lamT = -X[n_g, 1:]
    X.flags.writeable = lamT.flags.writeable = False
    return ParametricKKT(binding_ineq=binding_ineq,
                         g0=X[:n_g, 0], Gg=X[:n_g, 1:],
                         lam0=-float(X[n_g, 0]), lamT=lamT,
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
        return tuple(i for i in self.binding if i >= FIRST_INEQ)

    def __str__(self):
        return "{" + ",".join(str(i) for i in self.binding) + "}"


def _split_binding(problem: MPQPProblem, binding_ineq) -> OptimalPartition:
    b_cong, b_sat = [], []
    for i in binding_ineq:
        (b_cong if problem.row_bound(i)[0] == "line" else b_sat).append(i)
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
    energy price lambda, binding-row multipliers nu)."""
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
    # rows 0 and 1 encode the balance; the QP takes row 0 as its one equality
    A, b, E = problem.A, problem.b, problem.E
    try:
        res = qp.solve_qp(problem.H, problem.h,
                          A_eq=A[:1], b_eq=b[:1] + E[:1] @ theta,
                          A_in=A[FIRST_INEQ:],
                          b_in=b[FIRST_INEQ:] + E[FIRST_INEQ:] @ theta)
    except InfeasibleError:
        raise InfeasibleError(
            "dispatch infeasible at theta="
            + np.array2string(theta, precision=6)) from None

    g, resid = res.x, problem.residual(res.x, theta)
    tol = problem.act_tolerance
    binding_ineq = problem.ineq_where(resid >= -tol)

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
        row_duals = _row_duals_from(problem, lam, problem.ineq_rows,
                                    res.ineq_duals)

    return OPFSolution(theta=theta, g_star=g,
                       objective=float(0.5 * g @ problem.H @ g + problem.h @ g),
                       lambda_energy=lam, mu=problem.congestion(row_duals),
                       row_duals=row_duals, degenerate=degenerate,
                       kkt_residual=_kkt_residual(problem, g, resid,
                                                  row_duals))


def _kkt_residual(problem, g, primal, row_duals) -> float:
    stationarity = problem.H @ g + problem.h + problem.A.T @ row_duals
    comp = row_duals[FIRST_INEQ:] * primal[FIRST_INEQ:]
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


def lmp_map(problem: MPQPProblem, kkt: ParametricKKT):
    """Affine price map (C, c), LMP = C theta + c, of a binding set: the
    `compute_lmp` decomposition applied to the parametric duals."""
    n = problem.case.n
    nu = np.zeros((problem.n_rows, 1 + problem.n_theta))
    # += turns a multiplier of -0.0 into +0.0
    nu[list(kkt.binding_ineq)] += np.column_stack([kkt.nu0, kkt.NuT])
    mu = problem.congestion(nu)
    C = np.outer(np.ones(n), kkt.lamT) + problem.ptdf.T @ mu[:, 1:]
    c = kkt.lam0 * np.ones(n) + problem.ptdf.T @ mu[:, 0]
    return C, c


def optimal_partition(solution: OPFSolution,
                      problem: MPQPProblem) -> OptimalPartition:
    """Rows binding at the optimum; the redundant second balance row is dropped."""
    resid = problem.residual(solution.g_star, solution.theta)
    binding_ineq = problem.ineq_where(np.abs(resid) <= problem.act_tolerance)
    part = _split_binding(problem, binding_ineq)
    _check_partition_consistency(problem, part)
    return part


def _check_partition_consistency(problem: MPQPProblem, part: OptimalPartition):
    """Opposite-side rows of one line or generator cannot both bind strictly."""
    seen = set()
    for i in part.b_cong + part.b_sat:
        block, k, opposite = problem.row_bound(i)
        if opposite in seen:
            # possible only when the interval collapses to a point; reject
            raise NumericalError(f"both bounds of {block} {k} are binding")
        seen.add(i)


def licq_check(partition: OptimalPartition, n_g: int) -> bool:
    """Constraint qualification as a counting condition on the binding set."""
    return 1 + len(partition.b_sat) + len(partition.b_cong) <= n_g


def certified_partition(problem: MPQPProblem, binding,
                        theta) -> OptimalPartition | None:
    """Binding set at theta, read off KKT points without a solve.

    The KKT point at theta of a nearby set `binding` proposes the set: rows
    that turn active join, binding rows whose multiplier is at most twice
    the `dual_tolerance` leave; failing that, every swap of one joining row
    for one binding row is tried (a facet where one row replaces another).
    A proposal S passes when its own KKT point at theta has every row off S
    feasible by more than twice the binding tolerance, every row of S (and
    the balance) within half of it, and every multiplier above twice the
    `dual_tolerance` that `solve_opf` grants a negative one.  H is positive
    definite, so that point is the unique optimum, and a solve at theta
    finds exactly these binding rows on its canonical path: the result is
    that solve's `optimal_partition`, nondegenerate.  Both bounds of one
    line or unit never pass: their rows are exact negations, so
    `parametric_kkt` raises.  None when no proposal passes.
    """
    tol = problem.act_tolerance
    _, resid, _, nu = kkt_point(problem, parametric_kkt(problem, binding),
                                theta)
    floor = 2.0 * dual_tolerance(nu)
    joining = [i for i in problem.ineq_where(resid > -tol) if i not in binding]
    leaving = {j for j, v in zip(binding, nu) if v <= floor}
    proposals = [(set(binding) | set(joining)) - leaving]
    proposals += [set(binding) - {j} | {i} for i in joining for j in binding]
    for rows in proposals:
        rows = tuple(sorted(rows))
        if 1 + len(rows) > problem.n_g:
            continue
        try:
            kkt = parametric_kkt(problem, rows)
        except SingularActiveSetError:
            continue
        _, resid, _, nu = kkt_point(problem, kkt, theta)
        on = np.zeros(problem.n_rows, dtype=bool)
        on[[*range(FIRST_INEQ), *rows]] = True
        if (np.all(np.abs(resid[on]) <= 0.5 * tol[on])
                and np.all(resid[~on] < -2.0 * tol[~on])
                and np.all(nu > 2.0 * dual_tolerance(nu))):
            return _split_binding(problem, rows)
    return None


def proves_infeasible(problem: MPQPProblem, kkt: ParametricKKT,
                      theta) -> bool:
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
    g_max, neg_g_min = np.split(problem.b[problem.unit_rows], 2)
    reach = np.maximum(g_max - g, g + neg_g_min)
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
