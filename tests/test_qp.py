"""Dual active-set QP solver against hand values, exhaustive enumeration and
the phase-1 feasibility verdict."""

import numpy as np
import pytest

from lmpspike.errors import InfeasibleError
from lmpspike.qp import solve_qp

from oracles import brute_qp, phase1_point


def _random_spd(rng, n):
    L = rng.normal(size=(n, n))
    return L @ L.T + n * np.eye(n)


def _check_kkt(res, H, h, A, b, A_eq=None):
    """Stationarity, feasibility, complementarity, independent working set."""
    grad = H @ res.x + h + A.T @ res.ineq_duals
    if A_eq is not None:
        grad = grad + np.atleast_2d(A_eq).T @ res.eq_duals
    assert np.abs(grad).max() < 1e-7 * (1.0 + np.abs(h).max())
    assert res.ineq_duals.min() >= 0.0
    slack = b - A @ res.x
    assert slack.min() > -1e-7 * (1.0 + np.abs(b).max())
    assert np.abs(res.ineq_duals * slack).max() < 1e-6
    off = np.ones(len(b), dtype=bool)
    off[list(res.working_set)] = False
    assert not res.ineq_duals[off].any()
    rows = A[list(res.working_set)]
    if A_eq is not None:
        rows = np.vstack([np.atleast_2d(A_eq), rows])
    assert np.linalg.matrix_rank(rows) == rows.shape[0]


def test_unconstrained_minimum():
    H = np.diag([2.0, 4.0])
    h = np.array([-2.0, -8.0])
    res = solve_qp(H, h)
    assert np.allclose(res.x, [1.0, 2.0], atol=1e-10)
    assert res.working_set == ()


def test_equality_only():
    # min 1/2(x^2+y^2) s.t. x+y=2 -> (1,1), dual enforces stationarity
    res = solve_qp(np.eye(2), np.zeros(2), A_eq=[[1.0, 1.0]], b_eq=[2.0])
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-10)
    assert abs(res.eq_duals[0] + 1.0) < 1e-10  # x + nu * 1 = 0 at x=1


def test_active_bound():
    # min 1/2 x'x - [3,0] x  s.t. x1 <= 1 -> x = (1, 0), dual 2
    res = solve_qp(np.eye(2), [-3.0, 0.0], A_in=[[1.0, 0.0]], b_in=[1.0])
    assert np.allclose(res.x, [1.0, 0.0], atol=1e-10)
    assert abs(res.ineq_duals[0] - 2.0) < 1e-10
    assert res.working_set == (0,)


def test_infeasible_raises():
    with pytest.raises(InfeasibleError):
        solve_qp(np.eye(1), [0.0], A_in=[[1.0], [-1.0]], b_in=[1.0, -2.0])


def test_duals_satisfy_stationarity():
    rng = np.random.Generator(np.random.Philox(key=3))
    solved = 0
    for _ in range(50):
        n, m = 3, 7
        L = rng.normal(size=(n, n))
        H = L @ L.T + n * np.eye(n)
        h = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m) + 1.0
        try:
            res = solve_qp(H, h, A_in=A, b_in=b)
        except InfeasibleError:
            continue
        grad = H @ res.x + h + A.T @ res.ineq_duals
        assert np.abs(grad).max() < 1e-7
        assert res.ineq_duals.min() >= -1e-9
        slack = b - A @ res.x
        assert slack.min() > -1e-7
        assert np.abs(res.ineq_duals * slack).max() < 1e-6
        solved += 1
    assert solved >= 25


def test_matches_exhaustive_enumeration():
    rng = np.random.Generator(np.random.Philox(key=11))
    checked = 0
    for _ in range(60):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 7))
        L = rng.normal(size=(n, n))
        H = L @ L.T + n * np.eye(n)
        h = rng.normal(size=n) * 2.0
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        reference = brute_qp(H, h, A_in=A, b_in=b)
        try:
            res = solve_qp(H, h, A_in=A, b_in=b)
        except InfeasibleError:
            assert reference is None
            continue
        assert reference is not None
        x_ref, obj_ref = reference
        assert res.objective <= obj_ref + 1e-7 * (1.0 + abs(obj_ref))
        assert np.abs(res.x - x_ref).max() < 1e-6 * (1.0 + np.abs(x_ref).max())
        checked += 1
    assert checked >= 30  # the sweep must actually exercise feasible cases


def test_warm_start_equals_cold_start():
    H = np.diag([1.0, 1.0])
    h = np.array([0.0, 10.0])
    A = np.vstack([np.eye(2), -np.eye(2), [[1.0, 1.0]]])
    b = np.array([20.0, 20.0, 0.0, 0.0, 10.0])
    cold = solve_qp(H, h, A_in=A, b_in=b)
    warm = solve_qp(H, h, A_in=A, b_in=b)
    assert np.array_equal(cold.x, warm.x) or np.abs(cold.x - warm.x).max() < 1e-12


def test_matches_exhaustive_enumeration_with_equality_row():
    rng = np.random.Generator(np.random.Philox(key=12))
    checked = 0
    for _ in range(60):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 7))
        H = _random_spd(rng, n)
        h = rng.normal(size=n) * 2.0
        A_eq = rng.normal(size=(1, n))
        b_eq = rng.normal(size=1)
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        reference = brute_qp(H, h, A_eq=A_eq, b_eq=b_eq, A_in=A, b_in=b)
        try:
            res = solve_qp(H, h, A_eq=A_eq, b_eq=b_eq, A_in=A, b_in=b)
        except InfeasibleError:
            assert reference is None
            continue
        assert reference is not None
        x_ref, obj_ref = reference
        assert res.objective <= obj_ref + 1e-7 * (1.0 + abs(obj_ref))
        assert np.abs(res.x - x_ref).max() < 1e-6 * (1.0 + np.abs(x_ref).max())
        assert abs(A_eq[0] @ res.x - b_eq[0]) < 1e-9 * (1.0 + abs(b_eq[0]))
        _check_kkt(res, H, h, A, b, A_eq=A_eq)
        checked += 1
    assert checked >= 30


def test_duplicate_and_opposed_rows():
    """Copies of rows change nothing; an opposed pair acts as an equality."""
    rng = np.random.Generator(np.random.Philox(key=13))
    checked = 0
    for _ in range(40):
        n = int(rng.integers(2, 4))
        H = _random_spd(rng, n)
        h = rng.normal(size=n) * 3.0
        A = rng.normal(size=(4, n))
        b = rng.normal(size=4) + 0.5
        reference = brute_qp(H, h, A_eq=A[:1], b_eq=b[:1], A_in=A[1:], b_in=b[1:])
        # the first row twice as an opposed pair, every other row twice
        A_dup = np.vstack([A[0], -A[0], A[1:], A[1:]])
        b_dup = np.concatenate([[b[0], -b[0]], b[1:], b[1:]])
        try:
            res = solve_qp(H, h, A_in=A_dup, b_in=b_dup)
        except InfeasibleError:
            assert reference is None
            continue
        assert reference is not None
        assert np.abs(res.x - reference[0]).max() < 1e-6 * (1.0 + np.abs(reference[0]).max())
        _check_kkt(res, H, h, A_dup, b_dup)
        checked += 1
    assert checked >= 15


def test_degenerate_vertex_with_more_active_rows_than_variables():
    """Constraint qualification fails: more rows than variables bind at x*.

    The optimum x* is planted with multipliers on a random half of the
    binding rows (zero on the rest) and three loose rows beside them, so x*
    is the unique minimizer while its multipliers are not unique.  Some
    solves have to drop a row on the way (a partial step).
    """
    rng = np.random.Generator(np.random.Philox(key=14))
    dropped = 0
    for _ in range(60):
        n = int(rng.integers(2, 4))
        m = n + int(rng.integers(1, 4))
        H = _random_spd(rng, n)
        x_star = rng.normal(size=n)
        A = rng.normal(size=(m + 3, n))
        b = A @ x_star
        b[m:] += rng.uniform(0.1, 1.0, size=3)
        lam = rng.uniform(0.5, 2.0, size=m) * (rng.random(m) < 0.5)
        h = -H @ x_star - A[:m].T @ lam
        res = solve_qp(H, h, A_in=A, b_in=b)
        assert np.abs(res.x - x_star).max() < 1e-9 * (1.0 + np.abs(x_star).max())
        assert len(res.working_set) <= n
        _check_kkt(res, H, h, A, b)
        # every step adds or drops one row, so extra iterations are drops
        dropped += res.iterations > len(res.working_set)
    assert dropped >= 3


def test_reversed_row_order_gives_the_same_point():
    rng = np.random.Generator(np.random.Philox(key=15))
    checked = 0
    for _ in range(40):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 9))
        H = _random_spd(rng, n)
        h = rng.normal(size=n) * 2.0
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m) + 0.5
        try:
            res = solve_qp(H, h, A_in=A, b_in=b)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_qp(H, h, A_in=A[::-1], b_in=b[::-1])
            continue
        rev = solve_qp(H, h, A_in=A[::-1], b_in=b[::-1])
        assert np.abs(res.x - rev.x).max() < 1e-12 * (1.0 + np.abs(res.x).max())
        assert sorted(m - 1 - i for i in rev.working_set) == list(res.working_set)
        _check_kkt(res, H, h, A, b)
        checked += 1
    assert checked >= 20


def _verdict(fn):
    try:
        fn()
    except InfeasibleError:
        return False
    return True


@pytest.mark.parametrize("shift", [1e-9, -1e-9, 1e-6, -1e-6])
def test_infeasibility_verdict_matches_phase1(shift):
    """Systems on the edge of feasibility get the phase-1 LP's verdict.

    n + 1 rows whose normals add up to zero with positive weights pin the
    feasible set to one point; shifting their right-hand sides by `shift`
    relative to 1 + max|b| opens a tiny simplex (+) or empties the set (-).
    The phase-1 tolerance is 1e-7 relative, so -1e-9 still counts as
    feasible and -1e-6 does not.
    """
    rng = np.random.Generator(np.random.Philox(key=16))
    verdicts = []
    for _ in range(30):
        n = int(rng.integers(2, 4))
        H = _random_spd(rng, n)
        h = rng.normal(size=n) * 5.0
        x_star = rng.normal(size=n) * 3.0
        A = rng.normal(size=(n, n))
        A = np.vstack([A, -rng.uniform(0.5, 2.0, size=n) @ A])
        loose = rng.normal(size=(3, n))
        A = np.vstack([A, loose])
        b = A @ x_star
        b[n + 1:] += 10.0
        scale = 1.0 + np.abs(b).max()
        b[:n + 1] += shift * scale
        ours = _verdict(lambda: solve_qp(H, h, A_in=A, b_in=b))
        reference = _verdict(lambda: phase1_point(np.zeros((0, n)), np.zeros(0), A, b))
        assert ours == reference
        verdicts.append(ours)
    assert all(verdicts) if shift > -1e-7 else not any(verdicts)
