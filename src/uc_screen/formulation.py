"""Fundamental-flow operators and problem assembly.

The DC network model is expressed through two operators built from the
signed line-bus incidence A (+1 at the from-bus, -1 at the to-bus) and
the susceptance diagonal D.  With the slack column removed (A_r):

    K     = D @ A_r            line flows from the reduced angle vector
    A_bar = -A.T @ D @ A_r     nodal balance contribution of the flows

so the flow coordinate f lives in R^(n-1) (it is the reduced phase-angle
vector, slack angle pinned to 0), K @ f gives all line flows, and
x + A_bar @ f = load is exact nodal balance.

Assembled problems share one variable and row layout, documented at
``assemble_uc``; the screening assembly reuses it minus the screened
line's flow rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DisconnectedError
from .lp import LpProblem
from .milp import TOL_INT, MilpProblem
from .netcase import NetworkCase, _connected_components

__all__ = [
    "UcFormulation",
    "UcInstance",
    "UcSolution",
    "build_formulation",
    "assemble_uc",
    "assemble_screening",
    "assemble_relaxation",
    "extract_solution",
    "flow_upper_row",
    "flow_lower_row",
]


@dataclass(frozen=True, eq=False)
class UcFormulation:
    K: np.ndarray                 # (m, n-1)
    A_bar: np.ndarray             # (n, n-1)
    f_max: np.ndarray             # (m,)
    gen_cost: np.ndarray          # (n_g,)
    gen_min: np.ndarray           # (n_g,)
    gen_max: np.ndarray           # (n_g,)
    gen_bus: np.ndarray           # (n_g,) int
    slack_bus: int

    def __post_init__(self):
        for name in ("K", "A_bar", "f_max", "gen_cost", "gen_min",
                     "gen_max", "gen_bus"):
            arr = np.asarray(getattr(self, name))
            arr = arr.astype(int if name == "gen_bus" else float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_buses(self) -> int:
        return self.A_bar.shape[0]

    @property
    def n_lines(self) -> int:
        return self.K.shape[0]

    @property
    def n_gens(self) -> int:
        return self.gen_cost.shape[0]

    @property
    def gen_incidence(self) -> np.ndarray:
        """(n_buses, n_gens) matrix aggregating dispatch to buses."""
        G = np.zeros((self.n_buses, self.n_gens))
        G[self.gen_bus, np.arange(self.n_gens)] = 1.0
        return G

    def line_flows(self, f: np.ndarray) -> np.ndarray:
        return self.K @ f


@dataclass(frozen=True, eq=False)
class UcInstance:
    formulation: UcFormulation
    load: np.ndarray

    def __post_init__(self):
        load = np.asarray(self.load, dtype=float).copy()
        if load.shape != (self.formulation.n_buses,):
            raise DimensionError(
                f"load has shape {load.shape}, expected "
                f"({self.formulation.n_buses},)")
        load.flags.writeable = False
        object.__setattr__(self, "load", load)


@dataclass
class UcSolution:
    status: str
    u: np.ndarray | None = None
    x: np.ndarray | None = None
    f: np.ndarray | None = None
    cost: float | None = None


def build_formulation(case: NetworkCase) -> UcFormulation:
    """Construct K and A_bar; the slack is the lowest-index bus."""
    n, m = case.n_buses, case.n_lines
    edges = [(line.from_bus, line.to_bus) for line in case.lines]
    if _connected_components(n, edges) != 1:
        raise DisconnectedError("network graph is disconnected")

    A_full = np.zeros((m, n))
    for j, line in enumerate(case.lines):
        A_full[j, line.from_bus] = 1.0
        A_full[j, line.to_bus] = -1.0
    D = np.diag([line.susceptance for line in case.lines])
    slack = 0
    A_r = np.delete(A_full, slack, axis=1)

    return UcFormulation(
        K=D @ A_r,
        A_bar=-A_full.T @ D @ A_r,
        f_max=np.array([line.flow_limit for line in case.lines]),
        gen_cost=np.array([g.cost for g in case.generators]),
        gen_min=np.array([g.p_min for g in case.generators]),
        gen_max=np.array([g.p_max for g in case.generators]),
        gen_bus=np.array([g.bus for g in case.generators], dtype=int),
        slack_bus=slack,
    )


def flow_upper_row(form: UcFormulation, j: int) -> int:
    """Row index of line j's upper flow bound in the assembled UC problem."""
    return 2 * form.n_gens + j


def flow_lower_row(form: UcFormulation, j: int) -> int:
    """Row index of line j's lower flow bound in the assembled UC problem."""
    return 2 * form.n_gens + form.n_lines + j


def _core_rows(form: UcFormulation, skip_line: int | None):
    """Generation, flow (minus the skipped line), and balance rows.

    Columns cover [u | x | f]; callers append load columns or extra rows
    as needed.  Returns (A, relations, b, names, balance_slice).
    """
    n, m, ng = form.n_buses, form.n_lines, form.n_gens
    nf = n - 1
    n_cols = 2 * ng + nf
    lines = [j for j in range(m) if j != skip_line]

    rows = 2 * ng + 2 * len(lines) + n
    A = np.zeros((rows, n_cols))
    b = np.zeros(rows)
    relations: list[str] = []
    names: list[str] = []

    r = 0
    for i in range(ng):           # x_i - p_min_i * u_i >= 0
        A[r, i] = -form.gen_min[i]
        A[r, ng + i] = 1.0
        relations.append(">=")
        names.append(f"gen_lo_{i}")
        r += 1
    for i in range(ng):           # x_i - p_max_i * u_i <= 0
        A[r, i] = -form.gen_max[i]
        A[r, ng + i] = 1.0
        relations.append("<=")
        names.append(f"gen_up_{i}")
        r += 1
    for j in lines:               # (K f)_j <= f_max_j
        A[r, 2 * ng:] = form.K[j]
        b[r] = form.f_max[j]
        relations.append("<=")
        names.append(f"flow_up_{j}")
        r += 1
    for j in lines:               # (K f)_j >= -f_max_j
        A[r, 2 * ng:] = form.K[j]
        b[r] = -form.f_max[j]
        relations.append(">=")
        names.append(f"flow_lo_{j}")
        r += 1
    G = form.gen_incidence
    balance_start = r
    for i in range(n):            # sum_g x_g + (A_bar f)_i = load_i
        A[r, ng:2 * ng] = G[i]
        A[r, 2 * ng:] = form.A_bar[i]
        relations.append("=")
        names.append(f"balance_{i}")
        r += 1

    return A, relations, b, names, slice(balance_start, r)


def _base_bounds(form: UcFormulation):
    ng, nf = form.n_gens, form.n_buses - 1
    lb = np.concatenate([np.zeros(ng), np.zeros(ng), np.full(nf, -np.inf)])
    ub = np.concatenate([np.ones(ng), form.gen_max.copy(), np.full(nf, np.inf)])
    return lb, ub


def assemble_uc(form: UcFormulation, load) -> MilpProblem:
    """Build the unit-commitment MILP for one load vector.

    Variable layout: [u (n_g) | x (n_g) | f (n-1)].
    Row layout: gen lower (n_g), gen upper (n_g), flow upper (m),
    flow lower (m), balance (n).
    """
    load = np.asarray(load, dtype=float)
    if load.shape != (form.n_buses,):
        raise DimensionError(
            f"load has shape {load.shape}, expected ({form.n_buses},)")
    A, relations, b, names, balance = _core_rows(form, skip_line=None)
    b[balance] = load
    lb, ub = _base_bounds(form)
    ng = form.n_gens
    c = np.concatenate([np.zeros(ng), form.gen_cost, np.zeros(form.n_buses - 1)])
    base = LpProblem(sense="min", c=c, A=A, relations=tuple(relations), b=b,
                     lb=lb, ub=ub, name="uc", row_names=tuple(names))
    return MilpProblem(base=base, binary_vars=tuple(range(ng)))


def assemble_screening(form: UcFormulation, context, j: int,
                       direction: str) -> LpProblem:
    """Relaxed max/min line-flow LP for line j under a screening context.

    The commitment variables are relaxed to [0, 1]; the screened line's
    own flow rows are omitted; the objective is the physical flow K[j]@f.
    Sample-agnostic contexts add the load as box-bounded variables tied
    to the balance rows plus one total-level row; a cost bound appends
    one ``cost`` row  gen_cost@x <= C(1+epsilon).
    """
    if not 0 <= j < form.n_lines:
        raise IndexError(f"line index {j} out of range [0, {form.n_lines})")
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    return _relaxed_lp(form, context, j, direction, form.K[j],
                       f"screen_line{j}_{direction}")


def assemble_relaxation(form: UcFormulation, context) -> LpProblem:
    """The screening polytope with every flow row and a zero objective.

    Each screening LP drops rows from this one, so when it is feasible
    every screening LP of the context is feasible too.
    """
    return _relaxed_lp(form, context, None, "min",
                       np.zeros(form.n_buses - 1), "screen_relaxation")


def _relaxed_lp(form: UcFormulation, context, skip_line: int | None,
                sense: str, flow_objective: np.ndarray,
                name: str) -> LpProblem:
    n, ng, nf = form.n_buses, form.n_gens, form.n_buses - 1
    A, relations, b, names, balance = _core_rows(form, skip_line=skip_line)
    lb, ub = _base_bounds(form)
    ub[:ng] = 1.0  # u relaxed to [0, 1]; already continuous here

    agnostic = context.region is not None
    if agnostic:
        region = context.region
        n_cols = A.shape[1]
        A = np.hstack([A, np.zeros((A.shape[0], n))])
        A[balance, n_cols:] = -np.eye(n)
        level_row = np.zeros((1, n_cols + n))
        level_row[0, n_cols:] = 1.0
        A = np.vstack([A, level_row])
        relations.append("=")
        names.append("load_level")
        b = np.append(b, region.level)
        lb = np.concatenate([lb, region.lower])
        ub = np.concatenate([ub, region.upper])
    else:
        load = np.asarray(context.load, dtype=float)
        if load.shape != (n,):
            raise DimensionError(
                f"load has shape {load.shape}, expected ({n},)")
        b[balance] = load

    if context.cost_bound is not None:
        cost_row = np.zeros((1, A.shape[1]))
        cost_row[0, ng:2 * ng] = form.gen_cost
        A = np.vstack([A, cost_row])
        relations.append("<=")
        names.append("cost")
        b = np.append(b, context.cost_bound * (1.0 + context.epsilon))

    c = np.zeros(A.shape[1])
    c[2 * ng:2 * ng + nf] = flow_objective
    return LpProblem(sense=sense, c=c, A=A, relations=tuple(relations),
                     b=b, lb=lb, ub=ub, name=name, row_names=tuple(names))


def extract_solution(form: UcFormulation, lp_solution) -> UcSolution:
    """Split a solved UC vector back into (u, x, f) blocks."""
    if lp_solution.status != "optimal":
        return UcSolution(status=lp_solution.status)
    ng, nf = form.n_gens, form.n_buses - 1
    z = lp_solution.x
    u = np.round(z[:ng])
    if np.abs(z[:ng] - u).max(initial=0.0) > TOL_INT:
        raise ValueError("commitment variables are not integral")
    return UcSolution(status="optimal", u=u, x=z[ng:2 * ng].copy(),
                      f=z[2 * ng:2 * ng + nf].copy(),
                      cost=float(lp_solution.objective_value))
