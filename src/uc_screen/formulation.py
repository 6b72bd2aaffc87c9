"""The DC network model in PTDF form, and problem assembly.

H is the network's (m, n) power transfer distribution factor matrix:
column b holds the line flows when bus b injects one unit and the slack
bus (bus 0) withdraws it, so the slack column is zero.  It is built
once, by one solve with the slack-grounded Laplacian.  With G the
(n, n_g) generator incidence, the line flows under dispatch x and load
ℓ are H(Gx − ℓ) whenever the injections balance, 1ᵀx = 1ᵀℓ.

Every assembled problem shares one layout, documented at ``_assemble``:
columns [u | x | ℓ], generator rows, flow rows and one balance row.  The
UC MILP pins ℓ by its bounds (lb = ub = load) and keeps u binary; the
simplex never moves a column whose bounds are equal, so the load costs
tableau width, not pivots.  A screening LP relaxes u to [0, 1], omits
the screened line's two flow rows, bounds ℓ by the context's load box
and appends its level row, plus a cost row under a cost cap.
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
    H: np.ndarray                 # (m, n) PTDF, slack column zero
    f_max: np.ndarray             # (m,)
    gen_cost: np.ndarray          # (n_g,)
    gen_min: np.ndarray           # (n_g,)
    gen_max: np.ndarray           # (n_g,)
    gen_bus: np.ndarray           # (n_g,) int

    def __post_init__(self):
        for name in ("H", "f_max", "gen_cost", "gen_min", "gen_max",
                     "gen_bus"):
            arr = np.asarray(getattr(self, name))
            arr = arr.astype(int if name == "gen_bus" else float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_buses(self) -> int:
        return self.H.shape[1]

    @property
    def n_lines(self) -> int:
        return self.H.shape[0]

    @property
    def n_gens(self) -> int:
        return self.gen_cost.shape[0]

    @property
    def gen_incidence(self) -> np.ndarray:
        """(n_buses, n_gens) matrix aggregating dispatch to buses."""
        G = np.zeros((self.n_buses, self.n_gens))
        G[self.gen_bus, np.arange(self.n_gens)] = 1.0
        return G


def _checked_load(form: UcFormulation, load) -> np.ndarray:
    load = np.asarray(load, dtype=float)
    if load.shape != (form.n_buses,):
        raise DimensionError(
            f"load has shape {load.shape}, expected ({form.n_buses},)")
    return load


@dataclass(frozen=True, eq=False)
class UcInstance:
    formulation: UcFormulation
    load: np.ndarray

    def __post_init__(self):
        load = _checked_load(self.formulation, self.load).copy()
        load.flags.writeable = False
        object.__setattr__(self, "load", load)


@dataclass
class UcSolution:
    status: str
    u: np.ndarray | None = None
    x: np.ndarray | None = None
    flows: np.ndarray | None = None   # (m,) line flows H(Gx − ℓ)
    cost: float | None = None


def build_formulation(case: NetworkCase) -> UcFormulation:
    """Construct the PTDF H; the slack is the lowest-index bus."""
    n, m = case.n_buses, case.n_lines
    edges = [(line.from_bus, line.to_bus) for line in case.lines]
    if _connected_components(n, edges) != 1:
        raise DisconnectedError("network graph is disconnected")

    A = np.zeros((m, n))          # signed line-bus incidence
    for j, line in enumerate(case.lines):
        A[j, line.from_bus] = 1.0
        A[j, line.to_bus] = -1.0
    DA = np.array([line.susceptance for line in case.lines])[:, None] * A
    # angles θ solve the grounded Laplacian A_rᵀ D A_r θ = p for the
    # non-slack injections p, and the flows are D A_r θ
    H = np.zeros((m, n))
    H[:, 1:] = np.linalg.solve(A[:, 1:].T @ DA[:, 1:], DA[:, 1:].T).T

    return UcFormulation(
        H=H,
        f_max=np.array([line.flow_limit for line in case.lines]),
        gen_cost=np.array([g.cost for g in case.generators]),
        gen_min=np.array([g.p_min for g in case.generators]),
        gen_max=np.array([g.p_max for g in case.generators]),
        gen_bus=np.array([g.bus for g in case.generators], dtype=int),
    )


def flow_upper_row(form: UcFormulation, j: int) -> int:
    """Row index of line j's upper flow bound in the assembled UC problem."""
    return 2 * form.n_gens + j


def flow_lower_row(form: UcFormulation, j: int) -> int:
    """Row index of line j's lower flow bound in the assembled UC problem."""
    return 2 * form.n_gens + form.n_lines + j


def _flow_rows(form: UcFormulation, lines) -> np.ndarray:
    """The flows h_jᵀ(Gx − ℓ) of the given lines as rows over [u | x | ℓ]."""
    H = form.H[lines]
    return np.hstack([np.zeros((len(H), form.n_gens)), H[:, form.gen_bus], -H])


def _assemble(form: UcFormulation, skip_line: int | None, lo, hi, extra,
              sense: str, c: np.ndarray, name: str) -> LpProblem:
    """One problem of the shared layout, with lo <= ℓ <= hi.

    Columns: [u (n_g) | x (n_g) | ℓ (n)], u in [0, 1], x in [0, p_max].
    Rows: gen lower x_i − p_min_i u_i >= 0 (n_g), gen upper
    x_i − p_max_i u_i <= 0 (n_g), flow upper h_jᵀ(Gx − ℓ) <= f_max_j
    (m), flow lower >= −f_max_j (m), balance 1ᵀx − 1ᵀℓ = 0, then the
    ``extra`` rows, given as (name, coefficients, relation, rhs).  Line
    skip_line's two flow rows are left out.
    """
    n, ng = form.n_buses, form.n_gens
    lines = [j for j in range(form.n_lines) if j != skip_line]
    k = len(lines)
    gen_lo = np.hstack([-np.diag(form.gen_min), np.eye(ng), np.zeros((ng, n))])
    gen_up = np.hstack([-np.diag(form.gen_max), np.eye(ng), np.zeros((ng, n))])
    flow = _flow_rows(form, lines)
    balance = np.concatenate([np.zeros(ng), np.ones(ng), -np.ones(n)])
    A = np.vstack([gen_lo, gen_up, flow, flow, balance]
                  + [row for _, row, _, _ in extra])
    relations = ((">=",) * ng + ("<=",) * ng + ("<=",) * k + (">=",) * k
                 + ("=",) + tuple(rel for _, _, rel, _ in extra))
    b = np.concatenate([np.zeros(2 * ng), form.f_max[lines],
                        -form.f_max[lines], [0.0],
                        [rhs for _, _, _, rhs in extra]])
    names = ([f"gen_lo_{i}" for i in range(ng)]
             + [f"gen_up_{i}" for i in range(ng)]
             + [f"flow_up_{j}" for j in lines]
             + [f"flow_lo_{j}" for j in lines]
             + ["balance"] + [row_name for row_name, _, _, _ in extra])
    return LpProblem(sense=sense, c=c, A=A, relations=relations, b=b,
                     lb=np.concatenate([np.zeros(2 * ng), lo]),
                     ub=np.concatenate([np.ones(ng), form.gen_max, hi]),
                     name=name, row_names=tuple(names))


def assemble_uc(form: UcFormulation, load) -> MilpProblem:
    """Build the unit-commitment MILP for one load vector.

    The shared layout with u binary and ℓ pinned to the load (lb = ub).
    """
    load = _checked_load(form, load)
    ng = form.n_gens
    c = np.concatenate([np.zeros(ng), form.gen_cost, np.zeros(form.n_buses)])
    base = _assemble(form, None, load, load, [], "min", c, "uc")
    return MilpProblem(base=base, binary_vars=tuple(range(ng)))


def assemble_screening(form: UcFormulation, context, j: int,
                       direction: str) -> LpProblem:
    """Relaxed max/min line-flow LP for line j under a screening context.

    The commitment variables are relaxed to [0, 1]; the screened line's
    own flow rows are omitted; the objective is the flow h_jᵀ(Gx − ℓ).
    The load columns range over the context's load box, tied by one
    ``load_level`` row; a cost bound appends one ``cost`` row
    gen_cost@x <= C(1+epsilon).
    """
    if not 0 <= j < form.n_lines:
        raise IndexError(f"line index {j} out of range [0, {form.n_lines})")
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    return _relaxed_lp(form, context, j, direction, _flow_rows(form, [j])[0],
                       f"screen_line{j}_{direction}")


def assemble_relaxation(form: UcFormulation, context) -> LpProblem:
    """The screening polytope with every flow row and a zero objective.

    Each screening LP drops rows from this one, so when it is feasible
    every screening LP of the context is feasible too.
    """
    return _relaxed_lp(form, context, None, "min",
                       np.zeros(2 * form.n_gens + form.n_buses),
                       "screen_relaxation")


def _relaxed_lp(form: UcFormulation, context, skip_line: int | None,
                sense: str, c: np.ndarray, name: str) -> LpProblem:
    lo, hi, level = context.load_box
    lo = _checked_load(form, lo)
    ng, n = form.n_gens, form.n_buses
    extra = [("load_level", np.concatenate([np.zeros(2 * ng), np.ones(n)]),
              "=", level)]
    cap = context.effective_cost_bound
    if cap is not None:
        extra.append(("cost", np.concatenate([np.zeros(ng), form.gen_cost,
                                              np.zeros(n)]), "<=", cap))
    return _assemble(form, skip_line, lo, hi, extra, sense, c, name)


def extract_solution(form: UcFormulation, lp_solution) -> UcSolution:
    """Split a solved UC vector into (u, x) and the line flows."""
    if lp_solution.status != "optimal":
        return UcSolution(status=lp_solution.status)
    ng = form.n_gens
    z = lp_solution.x
    u = np.round(z[:ng])
    if np.abs(z[:ng] - u).max(initial=0.0) > TOL_INT:
        raise ValueError("commitment variables are not integral")
    x = z[ng:2 * ng].copy()
    return UcSolution(status="optimal", u=u, x=x,
                      flows=form.H @ (form.gen_incidence @ x - z[2 * ng:]),
                      cost=float(lp_solution.objective_value))
