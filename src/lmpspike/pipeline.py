"""End-to-end orchestration: config, study assembly, batch outputs.

A study fixes the deterministic half of the analysis (case, limits, PTDF,
parametric problem, critical regions and the parameter set they tile) plus
the Gaussian injection model.  Installed capacities are read off that set's
axis maxima, the forecast mean as a fraction of installed capacity unless
given explicitly, and the covariance from the Laplacian kernel unless given
explicitly.  Command helpers then produce region exports, decay-rate
rankings, and Monte Carlo validation files; every run snapshots its resolved
configuration next to its outputs and writes nothing nondeterministic.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grid import GridCase, build_ptdf, derive_line_limits, load_case
from .opf import MPQPProblem, assemble_mpqp, compute_lmp, solve_opf
from .regions import RegionDecomposition, enumerate_regions, save_decomposition
from .spikes import (GaussianModel, SpikeSpec, build_thresholds, decay_rates,
                     rank_nodes, write_decay_csv)
from .stochastic import (CovarianceSpec, build_covariance, compare_ranking,
                         mc_spike_probabilities, sample, write_histograms,
                         write_mc_csv)


def _number(value, kind=numbers.Real, depth: int = 0) -> bool:
    """Whether a config value is a number of `kind`, in lists nested
    `depth` deep; bool is an int subclass, but true must not run as 1."""
    if depth:
        return isinstance(value, (list, tuple)) \
            and all(_number(v, kind, depth - 1) for v in value)
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass
class AnalysisConfig:
    case_path: str
    renewable_buses: list[int] = field(default_factory=list)
    reference_bus: int | None = None
    gamma_line: float = 2.0
    lambda_safety: float = 0.6
    forecast_fraction: float | None = None
    mu_theta: list[float] | None = None
    q: float | None = None
    sigma_theta: list[list[float]] | None = None
    kappa: float = 2.0
    tau_squared: float = 1.0
    err_rel: list[float] | None = None  # [0.25] unless explicit bands are given
    alpha_minus: list[float] | None = None
    alpha_plus: list[float] | None = None
    epsilon: float = 1.0
    node_filter: list[int] | None = None   # bus ids
    mc_n_samples: int = 1_000_000
    mc_seed: int = 20240
    mc_bins: int = 200
    output_dir: str = "out"

    def __post_init__(self):
        for name in ("gamma_line", "lambda_safety", "forecast_fraction", "q",
                     "kappa", "tau_squared", "epsilon", "mc_n_samples",
                     "mc_seed", "mc_bins"):
            value = getattr(self, name)
            if value is None and name in ("forecast_fraction", "q"):
                continue
            integral = name.startswith("mc_")
            if not _number(value, numbers.Integral if integral
                           else numbers.Real):
                kind = "an integer" if integral else "a number"
                raise ConfigError(f"{name} must be {kind}, not {value!r}")
        integers, reals = numbers.Integral, numbers.Real
        for name, kind, depth, what in (
                ("reference_bus", integers, 0, "an integer or null"),
                ("renewable_buses", integers, 1, "a list of integers"),
                ("node_filter", integers, 1, "a list of integers"),
                ("mu_theta", reals, 1, "a list of numbers"),
                ("alpha_minus", reals, 1, "a list of numbers"),
                ("alpha_plus", reals, 1, "a list of numbers"),
                ("sigma_theta", reals, 2, "a list of lists of numbers")):
            value = getattr(self, name)
            if value is not None and not _number(value, kind, depth):
                raise ConfigError(f"{name} must be {what}, not {value!r}")
        if not 0 <= self.mc_seed < 2 ** 64:
            raise ConfigError("mc_seed must be in [0, 2^64), "
                              f"got {self.mc_seed}")
        explicit_band = self.alpha_minus is not None or self.alpha_plus is not None
        if self.err_rel is None:
            self.err_rel = [] if explicit_band else [0.25]
        if isinstance(self.err_rel, str):
            raise ConfigError("err_rel must be a number or a list of numbers")
        if isinstance(self.err_rel, numbers.Real):
            self.err_rel = [self.err_rel]
        for e in self.err_rel:
            if not _number(e):
                raise ConfigError(f"err_rel entries must be numbers, not {e!r}")
        self.err_rel = [float(e) for e in self.err_rel]
        if explicit_band and (self.alpha_minus is None or self.alpha_plus is None):
            raise ConfigError("explicit bands need both alpha_minus and alpha_plus")
        if explicit_band and self.err_rel:
            raise ConfigError("give either err_rel or explicit bands, not both")
        if (self.forecast_fraction is None) == (self.mu_theta is None):
            raise ConfigError("give exactly one of forecast_fraction or mu_theta")
        if (self.q is None) == (self.sigma_theta is None):
            raise ConfigError("give exactly one of q or sigma_theta")
        if not explicit_band:
            if not self.err_rel:
                raise ConfigError("err_rel list is empty")
            for e in self.err_rel:
                if not e > 0.0:
                    raise ConfigError("err_rel values must be positive")
        for name in ("gamma_line", "lambda_safety", "kappa", "tau_squared",
                     "epsilon"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be positive")
        if self.mc_n_samples < 1:
            raise ConfigError("mc_n_samples must be >= 1")
        if self.mc_bins < 2:
            raise ConfigError("mc_bins must be >= 2")

    @staticmethod
    def from_dict(doc: dict) -> "AnalysisConfig":
        known = {f for f in AnalysisConfig.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return AnalysisConfig(**doc)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None

    @staticmethod
    def from_json(path) -> "AnalysisConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        return AnalysisConfig.from_dict(doc)


@dataclass
class Study:
    config: AnalysisConfig
    case: GridCase
    problem: MPQPProblem
    installed: np.ndarray
    model: GaussianModel
    decomposition: RegionDecomposition
    lmp_at_mean: np.ndarray

    def spike_spec(self, err_rel: float | None) -> SpikeSpec:
        node_filter = None
        if self.config.node_filter is not None:
            node_filter = tuple(self.case.bus_index(b)
                                for b in self.config.node_filter)
        if err_rel is None:
            return SpikeSpec(alpha_minus=np.asarray(self.config.alpha_minus),
                             alpha_plus=np.asarray(self.config.alpha_plus),
                             lmp_at_mean=self.lmp_at_mean,
                             node_filter=node_filter)
        return build_thresholds(self.lmp_at_mean, err_rel,
                                node_filter=node_filter)

    def band_points(self):
        """(err_rel, label) pairs to analyze; explicit bands yield one point."""
        if self.config.alpha_minus is not None:
            return [(None, "explicit_band")]
        return [(e, f"err_rel_{e:g}") for e in self.config.err_rel]


def load_study_case(config: AnalysisConfig) -> GridCase:
    """The config's case with its renewable buses and line limits set."""
    case = load_case(config.case_path,
                     renewable_buses=config.renewable_buses or None,
                     reference_bus=config.reference_bus)
    if case.n_theta == 0:
        raise ConfigError("the study has no renewable buses; "
                          "list them in renewable_buses")
    if not case.has_line_limits:
        case = derive_line_limits(case, config.gamma_line, config.lambda_safety)
    return case


def build_study(config: AnalysisConfig) -> Study:
    case = load_study_case(config)
    problem = assemble_mpqp(case)
    hi = case.total_demand() + sum(abs(min(g.g_min, 0.0))
                                   for g in case.generators) + 1.0
    decomposition = enumerate_regions(problem, box_lo=np.zeros(case.n_theta),
                                      box_hi=np.full(case.n_theta, hi))
    installed = np.array([decomposition.theta_space.support(e)
                          for e in np.eye(case.n_theta)])
    if config.mu_theta is not None:
        mu = np.asarray(config.mu_theta, dtype=float)
    else:
        mu = config.forecast_fraction * installed
    if config.sigma_theta is not None:
        sigma = np.asarray(config.sigma_theta, dtype=float)
    else:
        sigma = build_covariance(case, CovarianceSpec(
            q=config.q, installed=installed, kappa=config.kappa,
            tau_squared=config.tau_squared))
    model = GaussianModel(mu, sigma, epsilon=config.epsilon)
    lmp_at_mean = compute_lmp(solve_opf(problem, mu), problem.ptdf).values
    return Study(config=config, case=case, problem=problem,
                 installed=installed, model=model,
                 decomposition=decomposition, lmp_at_mean=lmp_at_mean)


def _prepare_outdir(config: AnalysisConfig, sub: str | None = None) -> Path:
    out = Path(config.output_dir)
    if sub:
        out = out / sub
    out.mkdir(parents=True, exist_ok=True)
    snapshot = dict(sorted(asdict(config).items()))
    (out / "resolved_config.json").write_text(
        json.dumps(snapshot, indent=1, sort_keys=True))
    return out


def cmd_regions(study: Study, echo=print) -> Path:
    out = _prepare_outdir(study.config)
    path = out / "decomposition.json"
    save_decomposition(study.decomposition, path)
    d = study.decomposition
    licq_bad = sum(1 for r in d.regions if not r.licq_ok)
    echo(f"regions: {d.n_regions}")
    echo(f"coverage_ratio: {d.coverage_volume_ratio:.6f}")
    echo(f"licq_violating_regions: {licq_bad}")
    echo(f"degenerate_diagnostics: {len(d.degenerate_diagnostics)}")
    echo(f"wrote {path}")
    return path


def cmd_rank(study: Study, echo=print) -> list[Path]:
    node_ids = list(study.case.buses)
    written = []
    for err, label in study.band_points():
        out = _prepare_outdir(study.config, label)
        spec = study.spike_spec(err)
        analysis = decay_rates(study.decomposition, study.model, spec)
        ranking = rank_nodes(analysis)
        path = out / "decay_rates.csv"
        write_decay_csv(analysis, ranking, path, node_ids=node_ids)
        echo(f"[{label}] rank node I_star normalized_score")
        for pos, node in enumerate(ranking.nodes, start=1):
            r = analysis.node_rates[node]
            s = ranking.normalized_scores[pos - 1]
            rate_txt = f"{r:.6e}" if math.isfinite(r) else "unreachable"
            echo(f"[{label}] {pos:4d} {node_ids[node]:4d} {rate_txt} {s:.6f}")
        written.append(path)
    return written


def cmd_mc(study: Study, echo=print) -> list[Path]:
    cfg = study.config
    node_ids = list(study.case.buses)
    samples = sample(study.model, cfg.mc_n_samples, cfg.mc_seed)
    points = study.band_points()
    specs = [study.spike_spec(err) for err, _ in points]
    results = mc_spike_probabilities(samples, study.decomposition, specs,
                                     problem=study.problem, bins=cfg.mc_bins)
    written = []
    for (_, label), spec, mc in zip(points, specs, results):
        out = _prepare_outdir(cfg, label)
        analysis = decay_rates(study.decomposition, study.model, spec)
        ranking = rank_nodes(analysis)
        comparison = compare_ranking(mc, ranking)
        mc_path = out / "mc_probabilities.csv"
        write_mc_csv(mc, mc_path, node_ids=node_ids)
        write_histograms(mc, out / "histograms", node_ids=node_ids)
        cmp_path = out / "ranking_comparison.csv"
        with open(cmp_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["node", "p_hat", "normalized_decay_score"])
            score_of = dict(zip(ranking.nodes, ranking.normalized_scores))
            for node in sorted(analysis.node_rates):
                writer.writerow([node_ids[node],
                                 repr(float(mc.node_spike_probs[node])),
                                 repr(float(score_of[node]))])
        report = {
            "exact_match": comparison.exact_match,
            "kendall_tau": comparison.kendall_tau,
            "resolvable_nodes": [node_ids[n] for n in comparison.resolvable_nodes],
            "mc_order": [node_ids[n] for n in comparison.mc_order],
            "ldp_order": [node_ids[n] for n in comparison.ldp_order],
            "infeasible_samples": mc.infeasible_count,
            "fallback_solves": mc.fallback_count,
        }
        (out / "ranking_comparison.json").write_text(
            json.dumps(report, indent=1, sort_keys=True))
        echo(f"[{label}] overall spike probability: {mc.overall_spike_prob:.6f}")
        echo(f"[{label}] ranking match over resolvable nodes: "
             f"{comparison.exact_match} (tau={comparison.kendall_tau:.3f})")
        written.extend([mc_path, cmp_path])
    return written


def cmd_ptdf(config: AnalysisConfig, echo=print) -> Path:
    """Write the case's PTDF matrix; needs no study, so nothing is solved."""
    case = load_study_case(config)
    out = _prepare_outdir(config)
    path = out / "ptdf.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["line"] + [f"bus_{b}" for b in case.buses])
        for ln, row in zip(case.lines, build_ptdf(case)):
            writer.writerow([f"{ln.from_bus}-{ln.to_bus}"]
                            + [repr(float(v)) for v in row])
    echo(f"wrote {path}")
    return path
