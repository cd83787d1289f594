"""Direct HiGHS calls of `lp.solve_lp` against scipy's `linprog` wrapper."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmpspike import enumerate_regions, lp
from lmpspike.errors import NumericalError
from lmpspike.pipeline import build_study

from oracles import linprog_reference


def outcome(solve, args, kwargs):
    try:
        return solve(*args, **kwargs)
    except NumericalError:
        return NumericalError


def assert_same(args, kwargs):
    got = outcome(lp.solve_lp, args, kwargs)
    want = outcome(linprog_reference, args, kwargs)
    if want is NumericalError or got is NumericalError:
        assert got is want
        return
    assert got.status == want.status
    assert (got.x is None) == (want.x is None)
    if want.x is not None:
        assert np.array_equal(got.x, want.x)
        assert got.fun == want.fun


def captured_lps(monkeypatch, run):
    """The arguments of every `lp.solve_lp` call made by `run()`."""
    calls = []

    def capturing(*args, solve=lp.solve_lp, **kwargs):
        calls.append(copy.deepcopy((args, kwargs)))
        return solve(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(lp, "solve_lp", capturing)
        run()
    return calls


def test_setup_lps_match_linprog(monkeypatch, study14, toy_ring, toy2r):
    """Every LP of a case14-study build and of the toy region enumerations."""
    calls = captured_lps(monkeypatch, lambda: build_study(study14.config))
    ring = captured_lps(monkeypatch, lambda: enumerate_regions(
        toy_ring[0], [0.0, 0.0], [30.0, 30.0]))
    toy = captured_lps(monkeypatch, lambda: enumerate_regions(
        toy2r[0], [0.0], [25.0]))
    assert calls and ring and toy
    for args, kwargs in calls + ring + toy:
        assert_same(args, kwargs)


def random_lp(rng):
    """A dense LP with 1-8 variables, 0-30 inequality and 0-3 equality rows,
    about a third of the matrix entries zero and each bound free or finite.
    The rows pass near a point within the bounds, so most such LPs are
    feasible.  A third of them get a planted infeasible pair of rows, a third
    a free variable whose cost falls without limit."""
    n, m_ub, m_eq = rng.integers(1, 9), rng.integers(0, 31), rng.integers(0, 4)

    def entries(*shape):
        values = np.round(rng.uniform(-4.0, 4.0, shape), 3)
        return np.where(rng.random(shape) < 1 / 3, 0.0, values)

    c, A_ub, A_eq = entries(n), entries(m_ub, n), entries(m_eq, n)
    limits = np.sort(np.round(rng.uniform(-5.0, 5.0, (n, 2)), 2), axis=1)
    x0 = rng.uniform(limits[:, 0], limits[:, 1])
    b_ub = A_ub @ x0 + np.round(rng.uniform(0.0, 3.0, m_ub), 2)
    b_eq = A_eq @ x0
    free = rng.random((n, 2)) < 0.3
    bounds = [tuple(None if f else float(v) for v, f in zip(lim, fr))
              for lim, fr in zip(limits, free)]
    plant = rng.integers(3)
    if plant == 1:
        row = np.zeros((1, n))
        row[0, 0] = 1.0
        A_ub = np.vstack([A_ub, row, -row])
        b_ub = np.concatenate([b_ub, [-1.0, -1.0]])
    elif plant == 2:
        c = np.append(c, -1.0)
        A_ub = np.hstack([A_ub, np.zeros((m_ub, 1))])
        A_eq = np.hstack([A_eq, np.zeros((m_eq, 1))])
        bounds.append((None, None))
    kwargs = {"bounds": None if plant != 2 and rng.random() < 0.2 else bounds}
    if A_ub.shape[0] or rng.random() < 0.5:
        kwargs.update(A_ub=A_ub, b_ub=b_ub)
    if A_eq.shape[0] or rng.random() < 0.5:
        kwargs.update(A_eq=A_eq, b_eq=b_eq)
    return c, kwargs


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_random_lps_match_linprog(seed):
    c, kwargs = random_lp(np.random.default_rng(seed))
    assert_same((c,), kwargs)


def test_random_lps_reach_every_status():
    """The LPs the property draws are optimal, infeasible and unbounded."""
    statuses = {outcome(lp.solve_lp, (c,), kwargs).status
                for c, kwargs in map(random_lp, map(np.random.default_rng,
                                                    range(100)))}
    assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}


def test_feasibility_guard():
    """An "optimal" point is returned only within FEAS_TOL of its bounds
    and rows, and never with a NaN."""
    tol = lp.FEAS_TOL
    x, lb, ub = np.array([0.0, 1.0]), np.array([0.0, -np.inf]), np.array([1.0, 1.0])
    slack, residual = np.array([0.0, 2.0]), np.array([0.0])
    lp._check_feasible(x, 0.0, slack, residual, lb, ub)
    lp._check_feasible(x - 0.5 * tol, 0.0, slack - 0.5 * tol, residual + 0.5 * tol,
                      lb, ub)
    for bad in ({"x": x - [2 * tol, 0.0]}, {"x": x + [0.0, 2 * tol]},
                {"slack": slack - [2 * tol, 0.0]},
                {"residual": residual + 2 * tol}, {"residual": residual - 2 * tol},
                {"x": np.array([np.nan, 1.0])}, {"fun": np.nan},
                {"slack": np.array([np.nan, 2.0])},
                {"residual": np.array([np.nan])}):
        args = {"x": x, "fun": 0.0, "slack": slack, "residual": residual,
                "lb": lb, "ub": ub} | bad
        with pytest.raises(NumericalError, match="breaks its constraints"):
            lp._check_feasible(**args)


def test_status_mapping():
    free = [(None, None)]
    assert lp.solve_lp([1.0], A_ub=[[1.0], [-1.0]], b_ub=[-1.0, -1.0],
                       bounds=free).status == lp.INFEASIBLE
    assert lp.solve_lp([-1.0], bounds=free).status == lp.UNBOUNDED
    res = lp.solve_lp([1.0, 1.0], A_eq=[[1.0, -1.0]], b_eq=[2.0],
                      bounds=[(0.0, None), (None, 5.0)])
    assert res.status == lp.OPTIMAL
    assert np.array_equal(res.x, [0.0, -2.0]) and res.fun == -2.0
    assert lp.solve_lp([1.0], bounds=[(2.0, 1.0)]).status == lp.INFEASIBLE
    for bad in ({"b_ub": [1.0, 2.0]}, {"b_ub": [np.nan]},
                {"A_ub": [[np.inf, 0.0]]}, {"c": [np.nan, 1.0]}):
        args = {"c": [1.0, 1.0], "A_ub": [[1.0, 0.0]], "b_ub": [1.0]} | bad
        with pytest.raises(ValueError):
            lp.solve_lp(**args)
