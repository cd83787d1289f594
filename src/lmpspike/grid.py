"""Grid case data and topology-derived matrices.

A case is a connected graph of buses and reactance-weighted lines, plus
controllable generators with quadratic costs, a demand vector and an ordered
list of buses carrying uncontrollable injections.  From it this module builds
the edge-vertex incidence matrix, the weighted Laplacian and the PTDF matrix
that maps zero-sum nodal injections to line flows, and engineers line limits
from the unconstrained base dispatch when the source data carries none.

All powers are MW on a single base; reactances are used only through the line
weights 1/x.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import qp
from .errors import CaseError, InfeasibleError


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    reactance: float
    f_min: float | None = None
    f_max: float | None = None

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise CaseError(f"line ({self.from_bus},{self.to_bus}) is a self-loop")
        if not self.reactance > 0.0:
            raise CaseError(
                f"line ({self.from_bus},{self.to_bus}) has nonpositive reactance")
        if (self.f_min is None) != (self.f_max is None):
            raise CaseError(
                f"line ({self.from_bus},{self.to_bus}) has only one flow limit set")
        if self.f_max is not None and not (self.f_min <= 0.0 <= self.f_max):
            raise CaseError(
                f"line ({self.from_bus},{self.to_bus}) limits must bracket zero flow")

    @property
    def has_limits(self) -> bool:
        return self.f_max is not None


@dataclass(frozen=True)
class Generator:
    bus: int
    g_min: float
    g_max: float
    cost_quadratic: float  # diagonal entry of H ($/MW^2)
    cost_linear: float     # entry of h ($/MW)

    def __post_init__(self):
        if self.g_min > self.g_max:
            raise CaseError(f"generator at bus {self.bus}: g_min > g_max")
        if self.g_min == self.g_max:
            # a fixed unit makes the dispatch set lower-dimensional
            raise CaseError(
                f"generator at bus {self.bus}: fixed output g_min == g_max; "
                "fold it into the bus load instead")
        if not self.cost_quadratic > 0.0:
            raise CaseError(
                f"generator at bus {self.bus}: quadratic cost must be positive")


@dataclass(frozen=True)
class GridCase:
    buses: tuple[int, ...]
    lines: tuple[Line, ...]
    generators: tuple[Generator, ...]
    loads: np.ndarray                 # MW per bus, aligned with `buses`
    renewable_buses: tuple[int, ...]  # ordered; may coincide with generator buses
    reference_bus: int

    def __post_init__(self):
        if len(set(self.buses)) != len(self.buses):
            raise CaseError("duplicate bus ids")
        ids = set(self.buses)
        for ln in self.lines:
            if ln.from_bus not in ids or ln.to_bus not in ids:
                raise CaseError(f"line ({ln.from_bus},{ln.to_bus}) references unknown bus")
        for g in self.generators:
            if g.bus not in ids:
                raise CaseError(f"generator references unknown bus {g.bus}")
        if len(set(self.renewable_buses)) != len(self.renewable_buses):
            raise CaseError("duplicate renewable bus")
        for b in self.renewable_buses:
            if b not in ids:
                raise CaseError(f"renewable bus {b} unknown")
        if self.reference_bus not in ids:
            raise CaseError(f"reference bus {self.reference_bus} unknown")
        loads = np.asarray(self.loads, dtype=float)
        if loads.shape != (len(self.buses),):
            raise CaseError("load vector length does not match bus count")
        if np.any(loads < 0.0):
            raise CaseError("negative demand")
        object.__setattr__(self, "loads", loads)
        if not self._connected():
            raise CaseError("grid graph is not connected")

    def _connected(self) -> bool:
        if len(self.buses) == 1:
            return True
        adj: dict[int, set[int]] = {b: set() for b in self.buses}
        for ln in self.lines:
            adj[ln.from_bus].add(ln.to_bus)
            adj[ln.to_bus].add(ln.from_bus)
        seen = {self.buses[0]}
        stack = [self.buses[0]]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == len(self.buses)

    # -- index helpers -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.buses)

    @property
    def m(self) -> int:
        return len(self.lines)

    @property
    def n_g(self) -> int:
        return len(self.generators)

    @property
    def n_theta(self) -> int:
        return len(self.renewable_buses)

    def bus_index(self, bus: int) -> int:
        try:
            return self.buses.index(bus)
        except ValueError:
            raise CaseError(f"unknown bus {bus}") from None

    @property
    def gen_bus_indices(self) -> np.ndarray:
        return np.array([self.bus_index(g.bus) for g in self.generators], dtype=int)

    @property
    def renewable_bus_indices(self) -> np.ndarray:
        return np.array([self.bus_index(b) for b in self.renewable_buses], dtype=int)

    @property
    def has_line_limits(self) -> bool:
        return all(ln.has_limits for ln in self.lines)

    def total_demand(self) -> float:
        return float(self.loads.sum())


def incidence_matrix(case: GridCase) -> np.ndarray:
    """Edge-vertex incidence: +1 at the from bus, -1 at the to bus."""
    A = np.zeros((case.m, case.n))
    for k, ln in enumerate(case.lines):
        A[k, case.bus_index(ln.from_bus)] = 1.0
        A[k, case.bus_index(ln.to_bus)] = -1.0
    return A


def line_weights(case: GridCase) -> np.ndarray:
    return np.array([1.0 / ln.reactance for ln in case.lines])


def weighted_laplacian(case: GridCase) -> np.ndarray:
    """L = A' diag(1/x) A over the line set."""
    A = incidence_matrix(case)
    return A.T @ np.diag(line_weights(case)) @ A


def build_ptdf(case: GridCase) -> np.ndarray:
    """Injection-to-flow sensitivity matrix, m x n, zero reference column.

    Deletes the reference row/column of the weighted Laplacian and the
    reference column of the incidence matrix; a singular reduced Laplacian
    means the graph is disconnected.
    """
    A = incidence_matrix(case)
    B = np.diag(line_weights(case))
    ref = case.bus_index(case.reference_bus)
    keep = [i for i in range(case.n) if i != ref]
    L_red = weighted_laplacian(case)[np.ix_(keep, keep)]
    A_red = A[:, keep]
    if case.m == 0:
        return np.zeros((0, case.n))
    try:
        sol = np.linalg.solve(L_red, A_red.T)
    except np.linalg.LinAlgError:
        raise CaseError("reduced Laplacian is singular (disconnected graph)") from None
    ptdf = np.zeros((case.m, case.n))
    ptdf[:, keep] = B @ sol.T
    return ptdf


def injections(case: GridCase, dispatch: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Net nodal injection vector for a dispatch and renewable realization."""
    p = -case.loads.copy()
    for g, gen in zip(dispatch, case.generators):
        p[case.bus_index(gen.bus)] += g
    for t, b in zip(theta, case.renewable_buses):
        p[case.bus_index(b)] += t
    return p


def base_dispatch(case: GridCase) -> np.ndarray:
    """Cost-minimal dispatch with no renewables and no line limits."""
    H = np.diag([g.cost_quadratic for g in case.generators])
    h = np.array([g.cost_linear for g in case.generators])
    ones = np.ones((1, case.n_g))
    eye = np.eye(case.n_g)
    A_in = np.vstack([eye, -eye])
    b_in = np.concatenate([[g.g_max for g in case.generators],
                           [-g.g_min for g in case.generators]])
    try:
        res = qp.solve_qp(H, h, A_eq=ones, b_eq=[case.total_demand()],
                          A_in=A_in, b_in=b_in)
    except InfeasibleError:
        raise InfeasibleError("base dispatch infeasible: demand outside "
                              "aggregate generation range") from None
    return res.x


def derive_line_limits(case: GridCase, gamma_line: float,
                       lambda_safety: float) -> GridCase:
    """Engineer symmetric line limits from the unconstrained base-case flows.

    f_max = lambda_safety * gamma_line * |f_base| per line; a line whose base
    flow is zero would otherwise get a degenerate zero limit, so it receives
    5% of the largest base flow magnitude instead.
    """
    if gamma_line < 1.0:
        raise CaseError("gamma_line must be >= 1")
    if not (1.0 / gamma_line <= lambda_safety <= 1.0):
        raise CaseError("lambda_safety must lie in [1/gamma_line, 1]")
    ptdf = build_ptdf(case)
    g0 = base_dispatch(case)
    f_base = ptdf @ injections(case, g0, np.zeros(case.n_theta))
    cap = lambda_safety * gamma_line * np.abs(f_base)
    if case.m:
        floor = 0.05 * np.abs(f_base).max()
        cap = np.where(cap <= 1e-9 * (1.0 + np.abs(f_base).max()), floor, cap)
    new_lines = tuple(replace(ln, f_min=-c, f_max=c)
                      for ln, c in zip(case.lines, cap))
    return replace(case, lines=new_lines)


# -- case ingestion ----------------------------------------------------------

def load_case(source, renewable_buses=None, reference_bus=None) -> GridCase:
    """Build a validated GridCase from a JSON document or a MATPOWER-style file.

    `source` may be a dict (native schema), a path to a .json file, or a path
    to a MATPOWER .m file (of which only the bus/gen/branch/gencost tables are
    read).  MATPOWER files carry no renewable or reference information, so
    those may be passed explicitly; quadratic cost coefficients c2 are doubled
    into the H diagonal in both formats.
    """
    if isinstance(source, dict):
        return _case_from_json(source, renewable_buses, reference_bus)
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CaseError(f"cannot read case file {path}: {exc}") from None
    if path.suffix.lower() == ".json" or text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CaseError(f"invalid JSON case file {path}: {exc}") from None
        return _case_from_json(doc, renewable_buses, reference_bus)
    return _case_from_matpower(text, renewable_buses, reference_bus)


def _case_from_json(doc: dict, renewable_buses=None, reference_bus=None) -> GridCase:
    try:
        buses = tuple(int(b) for b in doc["buses"])
    except KeyError:
        raise CaseError("case document missing 'buses'") from None
    lines = []
    for k, ln in enumerate(doc.get("lines", [])):
        if "x" not in ln:
            raise CaseError(f"line {k} ({ln.get('from', '?')},{ln.get('to', '?')}) "
                            "missing reactance field 'x'")
        fmax = ln.get("fmax")
        fmin = ln.get("fmin", -fmax if fmax is not None else None)
        lines.append(Line(int(ln["from"]), int(ln["to"]), float(ln["x"]),
                          f_min=fmin, f_max=fmax))
    gens = []
    for k, g in enumerate(doc.get("generators", [])):
        missing = {"bus", "gmin", "gmax", "c2", "c1"} - set(g)
        if missing:
            raise CaseError(f"generator {k} missing fields {sorted(missing)}")
        gens.append(Generator(int(g["bus"]), float(g["gmin"]), float(g["gmax"]),
                              cost_quadratic=2.0 * float(g["c2"]),
                              cost_linear=float(g["c1"])))
    loads = np.zeros(len(buses))
    for bus, mw in doc.get("loads", {}).items():
        try:
            loads[buses.index(int(bus))] = float(mw)
        except ValueError:
            raise CaseError(f"load references unknown bus {bus}") from None
    renew = renewable_buses if renewable_buses is not None else doc.get("renewables", [])
    ref = reference_bus if reference_bus is not None else doc.get("reference", buses[0])
    return GridCase(buses=buses, lines=tuple(lines), generators=tuple(gens),
                    loads=loads, renewable_buses=tuple(int(b) for b in renew),
                    reference_bus=int(ref))


_MATRIX_RE = re.compile(r"mpc\.(\w+)\s*=\s*\[(.*?)\];", re.DOTALL)


def _parse_matpower_tables(text: str) -> dict[str, np.ndarray]:
    tables = {}
    for name, body in _MATRIX_RE.findall(text):
        rows = []
        for raw in body.splitlines():
            raw = raw.split("%")[0].strip().rstrip(";")
            if not raw:
                continue
            rows.append([float(v) for v in raw.split()])
        if rows:
            width = min(len(r) for r in rows)
            tables[name] = np.array([r[:width] for r in rows])
    return tables


def _case_from_matpower(text: str, renewable_buses=None, reference_bus=None) -> GridCase:
    tables = _parse_matpower_tables(text)
    for required in ("bus", "gen", "branch", "gencost"):
        if required not in tables:
            raise CaseError(f"MATPOWER case missing mpc.{required} table")
    bus_tab, gen_tab = tables["bus"], tables["gen"]
    branch_tab, cost_tab = tables["branch"], tables["gencost"]
    buses = tuple(int(b) for b in bus_tab[:, 0])
    loads = bus_tab[:, 2].astype(float)
    if cost_tab.shape[0] != gen_tab.shape[0]:
        raise CaseError("gencost and gen tables have different row counts")
    gens = []
    for grow, crow in zip(gen_tab, cost_tab):
        if int(crow[0]) != 2:
            raise CaseError("only polynomial gencost entries are supported")
        ncoef = int(crow[3])
        if ncoef > 3:
            raise CaseError("gencost polynomial degree above 2 not supported")
        coeffs = crow[4:4 + ncoef]
        c2 = float(coeffs[0]) if ncoef == 3 else 0.0
        c1 = float(coeffs[ncoef - 2]) if ncoef >= 2 else 0.0
        gens.append(Generator(int(grow[0]), g_min=float(grow[9]),
                              g_max=float(grow[8]),
                              cost_quadratic=2.0 * c2, cost_linear=c1))
    lines = []
    for k, brow in enumerate(branch_tab):
        x = float(brow[3])
        if x == 0.0:
            raise CaseError(f"branch {k} ({int(brow[0])},{int(brow[1])}) "
                            "missing reactance")
        # a transformer's off-nominal tap scales its series susceptance to
        # 1/(x*tap) in the linearized model; fold it into the reactance
        tap = float(brow[8]) if brow.shape[0] > 8 else 0.0
        if tap > 0.0:
            x = x * tap
        lines.append(Line(int(brow[0]), int(brow[1]), x))
    renew = tuple(int(b) for b in (renewable_buses or ()))
    ref = int(reference_bus) if reference_bus is not None else buses[0]
    return GridCase(buses=buses, lines=tuple(lines), generators=tuple(gens),
                    loads=loads, renewable_buses=renew, reference_bus=ref)


def case14_path() -> Path:
    """Bundled IEEE 14-bus test case (MATPOWER-style table subset)."""
    return Path(__file__).parent / "data" / "case14.m"
