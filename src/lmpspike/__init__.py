"""Locational-marginal-price spike analysis for DC power grids.

Builds the piecewise-affine map from renewable injections to nodal prices via
critical-region enumeration of the parametric dispatch problem, estimates the
exponential decay rates of nodal price-spike events under a Gaussian
injection model, ranks nodes by spike likelihood, and validates the ranking
by seeded Monte Carlo simulation.
"""

from .errors import (CaseError, ConfigError, InfeasibleError, LmpSpikeError,
                     NumericalError, SingularActiveSetError)
from .grid import (GridCase, Generator, Line, build_ptdf, case14_path,
                   derive_line_limits, load_case, weighted_laplacian)
from .opf import (LMPVector, MPQPProblem, OPFSolution, OptimalPartition,
                  assemble_mpqp, compute_lmp, licq_check, optimal_partition,
                  solve_opf)
from .polytope import Polytope
from .regions import (CriticalRegion, RegionDecomposition, enumerate_regions,
                      load_decomposition, locate, locate_region,
                      region_lmp_map, save_decomposition)
from .spikes import (GaussianModel, NodeRanking, SpikeAnalysis, SpikeSpec,
                     build_thresholds, decay_rates, minimize_rate_piece,
                     rank_nodes)
from .stochastic import (CovarianceSpec, MCResult, build_covariance,
                         compare_ranking, empirical_density,
                         mc_spike_probabilities, sample)

__all__ = [name for name in dir() if not name.startswith("_")]
