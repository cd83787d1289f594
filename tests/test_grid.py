"""Case ingestion, topology matrices and engineered line limits."""

import json

import numpy as np
import pytest

from lmpspike import (CaseError, GridCase, Generator, Line, build_ptdf,
                      case14_path, derive_line_limits, load_case,
                      weighted_laplacian)
from lmpspike.grid import base_dispatch, incidence_matrix


def two_bus(**kw):
    defaults = dict(buses=(1, 2), lines=(Line(1, 2, 1.0),),
                    generators=(Generator(1, 0.0, 20.0, 1.0, 0.0),),
                    loads=np.array([0.0, 10.0]), renewable_buses=(),
                    reference_bus=1)
    defaults.update(kw)
    return GridCase(**defaults)


def ring3():
    return GridCase(buses=(1, 2, 3),
                    lines=(Line(1, 2, 1.0), Line(2, 3, 1.0), Line(3, 1, 1.0)),
                    generators=(Generator(1, 0.0, 15.0, 1.0, 0.0),),
                    loads=np.zeros(3), renewable_buses=(), reference_bus=1)


# -- validation ---------------------------------------------------------------

def test_disconnected_graph_rejected():
    with pytest.raises(CaseError, match="connected"):
        GridCase(buses=(1, 2, 3), lines=(Line(1, 2, 1.0),),
                 generators=(Generator(1, 0.0, 5.0, 1.0, 0.0),),
                 loads=np.zeros(3), renewable_buses=(), reference_bus=1)


def test_nonpositive_reactance_rejected():
    with pytest.raises(CaseError, match="reactance"):
        Line(1, 2, 0.0)


def test_nonpositive_quadratic_cost_rejected():
    with pytest.raises(CaseError, match="quadratic"):
        Generator(1, 0.0, 5.0, 0.0, 1.0)


def test_fixed_output_unit_rejected():
    with pytest.raises(CaseError, match="fold it into the bus load"):
        Generator(1, 5.0, 5.0, 1.0, 0.0)


def test_negative_demand_rejected():
    with pytest.raises(CaseError, match="demand"):
        two_bus(loads=np.array([0.0, -1.0]))


def test_single_sided_limit_rejected():
    with pytest.raises(CaseError, match="limit"):
        Line(1, 2, 1.0, f_min=None, f_max=4.0)


def test_limits_must_bracket_zero():
    with pytest.raises(CaseError, match="zero"):
        Line(1, 2, 1.0, f_min=1.0, f_max=4.0)


# -- topology matrices --------------------------------------------------------

def test_two_bus_ptdf():
    ptdf = build_ptdf(two_bus())
    assert np.allclose(ptdf, [[0.0, -1.0]], atol=1e-12)


def test_ring_ptdf_entry():
    # equal weights: injecting at bus 2 sends 2/3 over the direct line (2,1)
    ptdf = build_ptdf(ring3())
    assert abs(ptdf[0, 1] - (-2.0 / 3.0)) < 1e-12


def test_reference_column_zero():
    for case in (two_bus(), ring3()):
        ptdf = build_ptdf(case)
        ref = case.bus_index(case.reference_bus)
        assert np.abs(ptdf[:, ref]).max() == 0.0


def test_laplacian_factorization():
    case = ring3()
    A = incidence_matrix(case)
    B = np.diag([1.0 / ln.reactance for ln in case.lines])
    assert np.array_equal(weighted_laplacian(case), A.T @ B @ A)


def test_flow_consistency_random_injections():
    """PTDF flows equal a direct reduced-Laplacian solve, and rebalance."""
    case = load_case(case14_path())
    ptdf = build_ptdf(case)
    L = weighted_laplacian(case)
    A = incidence_matrix(case)
    B = np.diag([1.0 / ln.reactance for ln in case.lines])
    ref = case.bus_index(case.reference_bus)
    keep = [i for i in range(case.n) if i != ref]
    rng = np.random.Generator(np.random.Philox(key=5))
    for _ in range(1000):
        p = rng.normal(size=case.n)
        p -= p.mean()  # zero-sum
        f = ptdf @ p
        angles = np.zeros(case.n)
        angles[keep] = np.linalg.solve(L[np.ix_(keep, keep)], p[keep])
        f_direct = B @ A @ angles
        assert np.abs(f - f_direct).max() < 1e-9
        assert np.abs(A.T @ f - p).max() < 1e-9


def test_reference_invariance_of_flows():
    case = load_case(case14_path())
    alt = load_case(case14_path(), reference_bus=5)
    p1, p2 = build_ptdf(case), build_ptdf(alt)
    assert np.abs(p1 - p2).max() > 1e-3  # entries do move
    rng = np.random.Generator(np.random.Philox(key=6))
    for _ in range(100):
        p = rng.normal(size=case.n)
        p -= p.mean()
        assert np.abs(p1 @ p - p2 @ p).max() < 1e-9


# -- line limits --------------------------------------------------------------

def test_derived_limits_scale_base_flows():
    case = GridCase(buses=(1, 2, 3),
                    lines=(Line(1, 2, 1.0), Line(2, 3, 1.0), Line(3, 1, 1.0)),
                    generators=(Generator(1, 0.0, 15.0, 1.0, 0.0),
                                Generator(2, 0.0, 15.0, 1.0, 2.0)),
                    loads=np.array([0.0, 4.0, 10.0]),
                    renewable_buses=(), reference_bus=1)
    # base dispatch equalizes marginal costs: g = (8, 6); flows (2, 4, -6)
    limited = derive_line_limits(case, 2.0, 0.6)
    assert np.allclose([ln.f_max for ln in limited.lines], [2.4, 4.8, 7.2],
                       atol=1e-9)
    assert np.allclose([ln.f_min for ln in limited.lines], [-2.4, -4.8, -7.2],
                       atol=1e-9)


def test_planning_limit_at_lambda_inverse_gamma():
    case = two_bus(generators=(Generator(1, 0.0, 20.0, 1.0, 0.0),))
    limited = derive_line_limits(case, 2.0, 0.5)
    assert abs(limited.lines[0].f_max - 10.0) < 1e-9  # |base flow| exactly


def test_zero_base_flow_gets_floor():
    # base 9 MW from bus 1 to bus 2 splits 2:1 over the direct line and the
    # two-hop path; the pendant line (2,4) carries nothing and gets the floor
    case = GridCase(buses=(1, 2, 3, 4),
                    lines=(Line(1, 2, 1.0), Line(1, 3, 1.0), Line(3, 2, 1.0),
                           Line(2, 4, 1.0)),
                    generators=(Generator(1, 0.0, 30.0, 1.0, 0.0),),
                    loads=np.array([0.0, 9.0, 0.0, 0.0]),
                    renewable_buses=(), reference_bus=1)
    limited = derive_line_limits(case, 2.0, 0.6)
    caps = np.array([ln.f_max for ln in limited.lines])
    assert np.allclose(caps[:3], [1.2 * 6.0, 1.2 * 3.0, 1.2 * 3.0], atol=1e-9)
    assert caps[3] == pytest.approx(0.05 * 6.0, rel=1e-9)


def test_infeasible_base_dispatch():
    from lmpspike.errors import InfeasibleError
    case = two_bus(generators=(Generator(1, 0.0, 5.0, 1.0, 0.0),))
    with pytest.raises(InfeasibleError):
        base_dispatch(case)


def test_limit_parameters_validated():
    case = two_bus()
    with pytest.raises(CaseError, match="gamma"):
        derive_line_limits(case, 0.5, 0.6)
    with pytest.raises(CaseError, match="lambda"):
        derive_line_limits(case, 2.0, 0.3)  # below 1/gamma
    with pytest.raises(CaseError, match="lambda"):
        derive_line_limits(case, 2.0, 1.2)


# -- ingestion ----------------------------------------------------------------

def test_native_json_roundtrip(tmp_path):
    doc = {"buses": [1, 2], "lines": [{"from": 1, "to": 2, "x": 0.5,
                                       "fmax": 4.0}],
           "generators": [{"bus": 1, "gmin": 0, "gmax": 20, "c2": 0.5,
                           "c1": 3.0}],
           "loads": {"2": 10.0}, "renewables": [2], "reference": 1}
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    case = load_case(path)
    assert case.n == 2 and case.m == 1
    assert case.lines[0].f_min == -4.0
    assert case.generators[0].cost_quadratic == 1.0  # doubled from c2
    assert case.loads[1] == 10.0
    assert case.renewable_buses == (2,)


def test_matpower_zero_reactance_rejected(tmp_path):
    text = """mpc.bus = [\n1 3 0 0 0 0 1 1 0 0 1 1.06 0.94;\n2 1 5 0 0 0 1 1 0 0 1 1.06 0.94;\n];
mpc.gen = [\n1 0 0 0 0 1 100 1 10 0;\n];
mpc.branch = [\n1 2 0.0 0.0 0 0 0 0 0 0 1;\n];
mpc.gencost = [\n2 0 0 3 0.1 1 0;\n];\n"""
    path = tmp_path / "zx.m"
    path.write_text(text)
    with pytest.raises(CaseError, match="reactance"):
        load_case(path)


def test_json_missing_reactance_names_line(tmp_path):
    doc = {"buses": [1, 2], "lines": [{"from": 1, "to": 2}],
           "generators": [], "loads": {}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CaseError, match=r"line 0 \(1,2\)"):
        load_case(path)


def test_case14_matpower_subset():
    case = load_case(case14_path(), renewable_buses=[4, 5])
    assert case.n == 14 and case.m == 20 and case.n_g == 5
    assert case.total_demand() == pytest.approx(259.0)
    assert case.reference_bus == 1
    assert case.renewable_buses == (4, 5)
    # c2 doubles into the H diagonal
    assert case.generators[0].cost_quadratic == pytest.approx(2 * 0.0430293)
    assert case.generators[0].cost_linear == pytest.approx(20.0)
    # off-nominal transformer taps fold into the series reactance
    line47 = next(ln for ln in case.lines
                  if (ln.from_bus, ln.to_bus) == (4, 7))
    assert line47.reactance == pytest.approx(0.20912 * 0.978)
    line12 = next(ln for ln in case.lines
                  if (ln.from_bus, ln.to_bus) == (1, 2))
    assert line12.reactance == pytest.approx(0.05917)


def test_base_dispatch_case14():
    """Marginal-cost equalization leaves the 40-dollar units off at base."""
    case = load_case(case14_path())
    g = base_dispatch(case)
    assert g[2:].max() < 1e-6
    assert g.sum() == pytest.approx(259.0)
    # marginal-cost equalization: g1 = 259*(1/H1)/(1/H1 + 1/H2)
    assert g[0] == pytest.approx(220.9677, abs=0.01)
