"""Shared toy systems and the bundled 14-bus study."""

from __future__ import annotations

import time

import numpy as np
import pytest

from lmpspike import (GridCase, Generator, Line, assemble_mpqp, case14_path,
                      derive_line_limits, enumerate_regions, feasible_set)
from lmpspike.pipeline import AnalysisConfig, build_study


@pytest.fixture(scope="session")
def toy_hand():
    """Two buses, two units, congested line; optimum solvable by hand.

    Cheap unit at bus 1 (cost g^2/2), expensive at bus 2 (g^2/2 + 10g),
    demand 10 at bus 2, line capacity 4: dispatch (4, 6), energy price 4,
    nodal prices (4, 16).
    """
    case = GridCase(
        buses=(1, 2),
        lines=(Line(1, 2, 1.0, f_min=-4.0, f_max=4.0),),
        generators=(Generator(1, 0.0, 20.0, 1.0, 0.0),
                    Generator(2, 0.0, 20.0, 1.0, 10.0)),
        loads=np.array([0.0, 10.0]),
        renewable_buses=(), reference_bus=1)
    return assemble_mpqp(case)


@pytest.fixture(scope="session")
def toy2r():
    """The hand toy with an uncontrollable injection added at bus 2.

    Feasible injections form the interval [0, 10]; the price map has two
    pieces split at theta = 6, where it jumps (constraint qualification fails
    exactly there).
    """
    case = GridCase(
        buses=(1, 2),
        lines=(Line(1, 2, 1.0, f_min=-4.0, f_max=4.0),),
        generators=(Generator(1, 0.0, 20.0, 1.0, 0.0),
                    Generator(2, 0.0, 20.0, 1.0, 10.0)),
        loads=np.array([0.0, 10.0]),
        renewable_buses=(2,), reference_bus=1)
    problem = assemble_mpqp(case)
    theta_space = feasible_set(problem, [0.0], [25.0])
    decomp = enumerate_regions(problem, theta_space, coverage_samples=2000)
    return problem, theta_space, decomp


@pytest.fixture(scope="session")
def toy_ring():
    """Three-bus ring, two units, two uncontrollable injections.

    One injection shares bus 2 with a unit; line limits come from the
    standard planning recipe, so several regions with line congestion and
    bound saturation appear over the 2-D parameter polygon.
    """
    case = GridCase(
        buses=(1, 2, 3),
        lines=(Line(1, 2, 1.0), Line(2, 3, 1.0), Line(3, 1, 1.0)),
        generators=(Generator(1, 0.0, 15.0, 1.0, 0.0),
                    Generator(2, 0.0, 15.0, 1.0, 2.0)),
        loads=np.array([0.0, 4.0, 10.0]),
        renewable_buses=(2, 3), reference_bus=1)
    case = derive_line_limits(case, 2.0, 0.6)
    problem = assemble_mpqp(case)
    theta_space = feasible_set(problem, [0.0, 0.0], [30.0, 30.0])
    decomp = enumerate_regions(problem, theta_space, coverage_samples=2000)
    return problem, theta_space, decomp


@pytest.fixture(scope="session")
def study14():
    """The acceptance study: IEEE 14-bus case, injections at buses 4 and 5.

    Planning-rule line limits (gamma 2, safety 0.6), forecast at half the
    installed capacities, Laplacian-kernel covariance (kappa 2, tau^2 1)
    scaled to q = 0.018, a 25% band and MC seed 20240; `build_seconds` is
    the wall time of the build.
    """
    config = AnalysisConfig(case_path=str(case14_path()),
                            renewable_buses=[4, 5],
                            gamma_line=2.0, lambda_safety=0.6,
                            forecast_fraction=0.5, q=0.018,
                            kappa=2.0, tau_squared=1.0,
                            err_rel=[0.25], mc_seed=20240)
    t0 = time.perf_counter()
    study = build_study(config)
    study.build_seconds = time.perf_counter() - t0
    return study
