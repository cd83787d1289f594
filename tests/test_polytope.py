"""Polytope primitives: redundancy, centers, facets; the reference projection."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import QhullError

from lmpspike import lp, polytope
from lmpspike.errors import InfeasibleError, NumericalError
from lmpspike.polytope import Polytope, box_polytope

from oracles import (fourier_motzkin, lp_bounding_box, lp_facet_point,
                     lp_remove_redundancy, lp_support, rowwise_normalized)


def unit_square():
    return box_polytope([0.0, 0.0], [1.0, 1.0])


def test_chebyshev_of_square():
    center, radius = unit_square().chebyshev()
    assert np.allclose(center, [0.5, 0.5], atol=1e-9)
    assert abs(radius - 0.5) < 1e-9


def test_contains():
    p = unit_square()
    assert p.contains([0.5, 0.5])
    assert p.contains([1.0, 1.0])  # boundary counts
    assert not p.contains([1.1, 0.5])


def test_redundancy_removal_drops_slack_row():
    p = unit_square()
    loose = Polytope(np.vstack([p.G, [[1.0, 0.0]]]),
                     np.concatenate([p.w, [5.0]]))
    minimal = loose.remove_redundancy()
    assert minimal.n_rows == 4


def test_duplicate_rows_collapse():
    p = Polytope(np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0],
                           [0.0, 1.0], [0.0, -1.0]]),
                 np.array([1.0, 1.0, 0.0, 1.0, 0.0]))
    assert p.remove_redundancy().n_rows == 4


@pytest.mark.parametrize("poly, kept", [
    # rows 0 ~ 1 ~ 2 within 2e-9, but rows 0 and 2 are 3e-9 apart
    (Polytope.from_rows([[1.0], [1.0], [1.0], [-1.0]],
                        [1.0, 1.0 + 1.5e-9, 1.0 + 3e-9, 1.0]), [0, 3]),
    # a later copy of x <= 1 moved 8e-9 outward: within the facet tolerance
    (Polytope.from_rows(np.vstack([unit_square().G, [[1.0, 0.0]]]),
                        np.append(unit_square().w, 1.0 + 8e-9)), [0, 1, 2, 3]),
], ids=["near-duplicate-chain", "nudged-copy"])
def test_first_row_of_a_facet_stays(poly, kept):
    """Of the rows whose hyperplanes hold the same facet's vertices, the
    first stays, however far apart the later ones are."""
    minimal, rows = poly.remove_redundancy(), poly.normalized()
    assert np.array_equal(minimal.G, rows.G[kept])
    assert np.array_equal(minimal.w, rows.w[kept])


def test_empty_detection():
    p = Polytope(np.array([[1.0], [-1.0]]), np.array([1.0, -2.0]))
    assert p.is_empty()
    assert not Polytope(np.array([[1.0], [-1.0]]), np.array([1.0, 0.0])).is_empty()


def test_facet_point_lies_on_facet():
    p = unit_square().remove_redundancy()
    for i in range(p.n_rows):
        fp = p.facet_point(i)
        assert fp is not None
        assert abs(p.G[i] @ fp - p.w[i]) < 1e-9
        assert p.contains(fp, tol=1e-9)


def test_support_and_bounding_box():
    p = unit_square()
    assert abs(p.support([1.0, 1.0]) - 2.0) < 1e-9
    lo, hi = p.bounding_box()
    assert np.allclose(lo, [0.0, 0.0], atol=1e-9)
    assert np.allclose(hi, [1.0, 1.0], atol=1e-9)


def test_projection_of_a_cube_is_a_square():
    cube = box_polytope([0.0] * 3, [1.0] * 3)
    G, w = fourier_motzkin(cube.G, cube.w, eliminate=[2])
    sq = Polytope.from_rows(G, w)
    assert sq.dim == 2
    lo, hi = sq.bounding_box()
    assert np.allclose(lo, [0.0, 0.0], atol=1e-9)
    assert np.allclose(hi, [1.0, 1.0], atol=1e-9)


def test_projection_couples_variables():
    # {(x, t): 0 <= t <= 1, t <= x <= t + 1} projects to 0 <= x <= 2
    A = np.array([[0.0, -1.0], [0.0, 1.0], [-1.0, 1.0], [1.0, -1.0]])
    b = np.array([0.0, 1.0, 0.0, 1.0])
    G, w = fourier_motzkin(A, b, eliminate=[1])
    p = Polytope.from_rows(G, w)
    lo, hi = p.bounding_box()
    assert abs(lo[0] - 0.0) < 1e-9 and abs(hi[0] - 2.0) < 1e-9


def test_projection_of_empty_set_raises():
    A = np.array([[1.0, 0.0], [-1.0, 0.0]])
    b = np.array([1.0, -2.0])
    with pytest.raises(InfeasibleError):
        fourier_motzkin(A, b, eliminate=[1])


def test_roundtrip_dict():
    p = unit_square()
    q = Polytope.from_dict(p.to_dict())
    assert np.array_equal(p.G, q.G) and np.array_equal(p.w, q.w)


def test_interval_vertices_in_closed_form():
    p = Polytope(np.array([[2.0], [-1.0], [1.0]]), np.array([4.0, 1.0, 3.0]))
    assert p.vertices().tolist() == [[-1.0], [2.0]]


def test_lower_dimensional_polytope_has_no_vertices():
    segment = Polytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
                                 [0.0, -1.0]]), np.array([1.0, -1.0, 1.0, 0.0]))
    with pytest.raises(InfeasibleError, match="lower-dimensional"):
        segment.remove_redundancy()


def test_unbounded_polytope_is_rejected():
    strip = Polytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
                     np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="unbounded"):
        strip.vertices()


def test_qhull_failure_raises_numerical_error(monkeypatch):
    def failing(*args, **kwargs):
        raise QhullError("QH6271 qhull precision error")
    monkeypatch.setattr(polytope, "HalfspaceIntersection", failing)
    with pytest.raises(NumericalError, match="qhull"):
        unit_square().vertices()


def test_is_empty_propagates_solver_failure(monkeypatch):
    def failing(*args, **kwargs):
        raise NumericalError("LP solver failed with status 4")
    monkeypatch.setattr(lp, "solve_lp", failing)
    with pytest.raises(NumericalError):
        unit_square().is_empty()


# -- vertex-backed operations against the LP references ------------------------

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


@st.composite
def bounded_polytopes(draw, min_dim=1, max_dim=5):
    """A box around the origin cut by integer halfspaces that keep it inside."""
    d = draw(st.integers(min_dim, max_dim))
    n_cuts = draw(st.integers(0, 2 * d + 3))
    coeffs = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    cuts = np.array(draw(st.lists(coeffs, min_size=n_cuts, max_size=n_cuts)),
                    dtype=float).reshape(n_cuts, d)
    offsets = np.array(draw(st.lists(st.integers(1, 6), min_size=n_cuts,
                                     max_size=n_cuts)), dtype=float)
    half = float(draw(st.integers(2, 5)))
    G = np.vstack([np.eye(d), -np.eye(d), cuts])
    w = np.concatenate([np.full(2 * d, half), offsets])
    order = draw(st.permutations(range(G.shape[0])))
    return Polytope(G[order], w[order])


@st.composite
def padded_polytopes(draw):
    """Bounded polytopes plus duplicate, rescaled, loose, tangent and shaving rows.

    A "nudged" copy sits 8e-9 outside its facet: past the duplicate
    threshold, within the facet tolerance.  A "shaving" row cuts 1e-10
    into a vertex, less than the tolerance.
    """
    base = draw(bounded_polytopes())
    G, w = list(base.G), list(base.w)
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, base.n_rows - 1))
        unit = base.G[i] / np.linalg.norm(base.G[i])
        kind = draw(st.sampled_from(["duplicate", "scaled", "loose", "nudged",
                                     "tangent", "shaving"]))
        if kind == "duplicate":
            G.append(base.G[i]), w.append(base.w[i])
        elif kind == "scaled":
            G.append(2.5 * base.G[i]), w.append(2.5 * base.w[i])
        elif kind == "loose":
            slack = draw(st.sampled_from([1e-4, 0.5, 3.0]))
            G.append(base.G[i]), w.append(base.w[i] + slack)
        elif kind == "nudged":
            G.append(unit), w.append(base.w[i] / np.linalg.norm(base.G[i]) + 8e-9)
        else:
            normal = np.array(draw(st.lists(st.integers(-2, 2), min_size=base.dim,
                                            max_size=base.dim)), dtype=float)
            depth = 1e-10 * np.linalg.norm(normal) if kind == "shaving" else 0.0
            G.append(normal), w.append(lp_support(base, normal) - depth)
    order = draw(st.permutations(range(len(G))))
    return Polytope(np.asarray(G)[order], np.asarray(w)[order])


# box [-2, 2]^2 cut by x + y <= 1: eliminating y leaves [-2, 2], whose
# support along u = 1e-8 is 2e-8, below the LP solver's dual tolerance
CUT_SQUARE = Polytope(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0],
                                [0.0, -1.0], [1.0, 1.0]]),
                      np.array([2.0, 2.0, 2.0, 2.0, 1.0]))


class Draws:
    """Stands in for `st.data()` in an explicit example: hands out the
    given values in order, whatever strategy is asked for."""

    def __init__(self, *values):
        self._values = iter(values)

    def draw(self, strategy):
        return next(self._values)


def assert_same_rows(poly):
    ours, ref = poly.remove_redundancy(), lp_remove_redundancy(poly)
    assert np.array_equal(ours.G, ref.G) and np.array_equal(ours.w, ref.w)
    return ours


@PROPERTY
@given(bounded_polytopes())
def test_redundancy_matches_lp_reference(poly):
    assert_same_rows(poly)


@PROPERTY
@given(padded_polytopes())
def test_redundancy_with_injected_rows_matches_lp_reference(poly):
    assert_same_rows(poly)


@PROPERTY
@given(bounded_polytopes(),
       st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5))
@example(CUT_SQUARE, [1e-8, 0.0, 0.0, 0.0, 0.0])
def test_support_and_box_match_lp_reference(poly, direction):
    u = np.asarray(direction[:poly.dim])
    assert poly.support(u) == pytest.approx(lp_support(poly, u), abs=1e-9)
    for ours, ref in zip(poly.bounding_box(), lp_bounding_box(poly)):
        assert np.allclose(ours, ref, rtol=0.0, atol=1e-9)


@PROPERTY
@given(bounded_polytopes())
def test_facet_points_share_the_lp_reference_facet(poly):
    """Both points lie on their facet and on no other row of the minimal form."""
    minimal = assert_same_rows(poly)
    for i in range(minimal.n_rows):
        for point in (minimal.facet_point(i), lp_facet_point(minimal, i)):
            tight = np.flatnonzero(minimal.w - minimal.G @ point <= 1e-9)
            assert tight.tolist() == [i]
            assert minimal.contains(point, tol=1e-9)


@PROPERTY
@given(bounded_polytopes(min_dim=2), st.data())
@example(CUT_SQUARE, Draws(1, [1e-8]))
def test_projection_matches_lp_reference(poly, data):
    """Supports of the projection are supports of the lifted direction, and
    the pruned projection has no redundant row left."""
    n_elim = data.draw(st.integers(1, min(2, poly.dim - 1)))
    keep = poly.dim - n_elim
    G, w = fourier_motzkin(poly.G, poly.w, eliminate=range(keep, poly.dim))
    proj = Polytope.from_rows(G, w)
    u = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=keep,
                                    max_size=keep)))
    lifted = np.concatenate([u, np.zeros(n_elim)])
    assert proj.support(u) == pytest.approx(lp_support(poly, lifted), abs=1e-9)
    assert lp_remove_redundancy(proj).n_rows == proj.n_rows


# -- vectorized bookkeeping against the row-by-row references ---------------------

@st.composite
def raw_rows(draw):
    """Rows in 1-7 dimensions with zero, tiny and marker rows mixed in."""
    d = draw(st.integers(1, 7))
    n = draw(st.integers(0, 12))
    coef = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    G, w = [], []
    for _ in range(n):
        kind = draw(st.sampled_from(["dense", "dense", "zero", "tiny"]))
        row = np.array(draw(st.lists(coef, min_size=d, max_size=d)))
        if kind == "zero":
            row = np.zeros(d)
        elif kind == "tiny":
            row = row * 1e-15
        G.append(row)
        w.append(draw(st.sampled_from([-1.0, -2e-9, -5e-10, 0.0]))
                 if kind != "dense" else draw(coef))
    return Polytope(np.asarray(G).reshape(n, d), np.asarray(w))


@PROPERTY
@given(raw_rows())
def test_normalized_is_bit_equal_to_rowwise_reference(poly):
    ours, ref = poly.normalized(), rowwise_normalized(poly)
    assert ours.G.shape == ref.G.shape
    assert np.array_equal(ours.G, ref.G) and np.array_equal(ours.w, ref.w)
    assert poly.normalized() is ours
    # a normalized result is normalized afresh, never taken as its own form
    assert ours.normalized() is not ours
