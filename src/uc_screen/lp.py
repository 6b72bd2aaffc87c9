"""Dense linear-program solver: bounded-variable primal simplex.

Problems are stated over variables with arbitrary [lo, hi] bounds and
rows with <=, =, >= relations.  Row i gets a logical variable r_i = A_i x
whose bounds carry the relation: (-inf, b_i] for <=, [b_i, inf) for >=
and [b_i, b_i] for =.  The problem becomes A x - r = 0 and every
constraint is a bound on a column.  The search starts from the logical
basis, tableau [-A | I], with each structural variable at its lower
bound, else its upper bound, else 0 when it is free.

Phase 1 minimises the sum of the basic variables' bound violations,
with the ±1 costs recomputed every iteration, and phase 2 the objective,
in the same loop.  The ratio test stops a basic variable at the first
bound it meets (a violated bound is the first one met when moving
towards it, and none when moving away), and the entering variable may
flip to its other bound without a pivot.  A nonbasic column whose bounds
are equal can move neither way, so it never enters the basis.  Pricing is Dantzig's rule,
falling back to Bland's rule after 2*(rows+cols) iterations so the
solver terminates on degenerate/cycling instances.

Desk-scale problems only (a few hundred variables); no sparsity, no
warm starts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError

__all__ = [
    "LpProblem",
    "LpSolution",
    "solve_lp",
    "constraint_residuals",
    "to_lp_format",
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
    "TOL_FEAS",
    "TOL_PIVOT",
]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

TOL_PIVOT = 1e-10   # smallest acceptable pivot element
TOL_FEAS = 1e-7     # feasibility certificate tolerance
_TOL_COST = 1e-9    # reduced-cost threshold for entering candidates

_RELATIONS = ("<=", "=", ">=")


@dataclass
class LpProblem:
    """min/max c@x subject to A x {<=,=,>=} b and lb <= x <= ub."""

    sense: str
    c: np.ndarray
    A: np.ndarray
    relations: tuple[str, ...]
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    name: str = "lp"
    row_names: tuple[str, ...] | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float)
        self.relations = tuple(self.relations)
        n = self.c.shape[0]
        if self.A.size == 0:
            self.A = self.A.reshape(0, n)
        self.lb = np.asarray(self.lb, dtype=float)
        self.ub = np.asarray(self.ub, dtype=float)
        self.validate()

    def validate(self):
        n = self.n_vars
        if self.sense not in ("min", "max"):
            raise DimensionError(f"unknown sense {self.sense!r}")
        if self.A.shape != (self.n_rows, n):
            raise DimensionError(
                f"A has shape {self.A.shape}, expected ({self.n_rows}, {n})")
        if len(self.relations) != self.n_rows:
            raise DimensionError("one relation required per row")
        bad = [r for r in self.relations if r not in _RELATIONS]
        if bad:
            raise DimensionError(f"unknown relations {bad}")
        if self.lb.shape != (n,) or self.ub.shape != (n,):
            raise DimensionError("bound vectors must match variable count")
        if np.any(self.lb > self.ub):
            raise DimensionError("lb > ub for some variable")
        if self.row_names is not None and len(self.row_names) != self.n_rows:
            raise DimensionError("one row name required per row when named")

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    @property
    def n_rows(self) -> int:
        return self.b.shape[0]

    def drop_rows(self, indices) -> "LpProblem":
        """A copy of the problem with the given rows removed, others intact."""
        keep = np.setdiff1d(np.arange(self.n_rows), np.asarray(indices, dtype=int))
        names = None
        if self.row_names is not None:
            names = tuple(self.row_names[i] for i in keep)
        return LpProblem(
            sense=self.sense,
            c=self.c.copy(),
            A=self.A[keep].copy(),
            relations=tuple(self.relations[i] for i in keep),
            b=self.b[keep].copy(),
            lb=self.lb.copy(),
            ub=self.ub.copy(),
            name=self.name,
            row_names=names,
        )


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None = None
    objective_value: float | None = None
    iterations: int = 0            # pivots plus bound flips


def _pivot(T: np.ndarray, basis: np.ndarray, r: int, j: int) -> None:
    T[r] /= T[r, j]
    T[r, j] = 1.0
    col = T[:, j].copy()
    col[r] = 0.0
    T -= col[:, None] * T[r][None, :]
    T[:, j] = 0.0
    T[r, j] = 1.0
    basis[r] = j


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve an LP; deterministic for a fixed input."""
    m, n = problem.A.shape
    N = n + m
    # columns [x | r]; the relation of row i becomes the bounds of r_i
    rows = list(zip(problem.relations, problem.b))
    lo = np.concatenate([problem.lb,
                         [-np.inf if rel == "<=" else bi for rel, bi in rows]])
    hi = np.concatenate([problem.ub,
                         [np.inf if rel == ">=" else bi for rel, bi in rows]])
    # rows 0..m-1 hold B^-1 [-A | I]; row m the phase-2 reduced costs
    T = np.zeros((m + 1, N))
    T[:m, :n] = -problem.A
    T[:m, n:] = np.eye(m)
    T[m, :n] = -problem.c if problem.sense == "max" else problem.c
    basis = np.arange(n, N)
    x = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    beta = problem.A @ x[:n]           # values of the basic variables
    lo_b, hi_b = lo[n:].copy(), hi[n:].copy()
    # 1.0 where a nonbasic variable may increase (up) or decrease (down)
    up = (x < hi).astype(float)
    down = (x > lo).astype(float)
    up[n:] = down[n:] = 0.0

    bland_after = 2 * (m + N)
    hard_cap = max(20000, 200 * (m + N))
    iterations = 0
    ratios = np.empty(m)
    phase1 = True
    while True:
        if phase1:
            # once feasible, the ratio test keeps every basic variable
            # within its bounds, so phase 1 never returns
            below = beta < lo_b - TOL_FEAS
            above = beta > hi_b + TOL_FEAS
            phase1 = bool(below.any() or above.any())
        if phase1:
            # minimise the sum of bound violations; for the ratio test a
            # variable below its lower bound lo has the range (-inf, lo],
            # one above its upper bound hi has [hi, inf)
            cost = np.subtract(below, above, dtype=float) @ T[:m]
            lo_eff = np.where(below, -np.inf, np.where(above, hi_b, lo_b))
            hi_eff = np.where(above, np.inf, np.where(below, lo_b, hi_b))
        else:
            cost, lo_eff, hi_eff = T[m], lo_b, hi_b
        score = np.maximum(-cost * up, cost * down)
        if iterations < bland_after:
            j = int(score.argmax())
            if score[j] <= _TOL_COST:
                break
        else:
            eligible = np.flatnonzero(score > _TOL_COST)
            if eligible.size == 0:
                break
            j = int(eligible[0])
        step = 1.0 if cost[j] < 0.0 else -1.0

        # basic variable i moves by -alpha_i per unit step of x_j
        alpha = step * T[:m, j]
        limit = np.where(alpha > 0.0, lo_eff, hi_eff)
        ratios.fill(np.inf)
        np.divide(beta - limit, alpha, out=ratios, where=np.abs(alpha) > TOL_PIVOT)
        np.maximum(ratios, 0.0, out=ratios)
        best = ratios.min(initial=np.inf)
        flip = hi[j] - lo[j]
        if min(flip, best) == np.inf:
            if phase1:
                raise NumericalError("phase-1 objective unbounded below")
            return LpSolution(status=UNBOUNDED, iterations=iterations)
        if flip <= best:
            beta -= alpha * flip
            x[j] = hi[j] if step > 0 else lo[j]
            up[j], down[j] = down[j], up[j]
        else:
            window = best + 1e-10 * (1.0 + abs(best))
            # smallest basis index breaks ties, which keeps Bland's rule intact
            r = int(np.where(ratios <= window, basis, N).argmin())
            t = ratios[r]
            beta -= alpha * t
            leaving = basis[r]
            x[leaving] = limit[r]
            up[leaving] = limit[r] < hi[leaving]
            down[leaving] = limit[r] > lo[leaving]
            beta[r] = x[j] + step * t
            lo_b[r], hi_b[r] = lo[j], hi[j]
            up[j] = down[j] = 0.0
            _pivot(T, basis, r, j)
        iterations += 1
        if iterations >= hard_cap:
            raise NumericalError(
                f"simplex exceeded {hard_cap} iterations (cycling safeguards failed)")

    if phase1:
        return LpSolution(status=INFEASIBLE, iterations=iterations)
    x[basis] = beta
    solution = x[:n].copy()
    return LpSolution(status=OPTIMAL, x=solution,
                      objective_value=float(problem.c @ solution),
                      iterations=iterations)


def constraint_residuals(problem: LpProblem, x: np.ndarray) -> np.ndarray:
    """Violation magnitudes for all rows and bounds (0 when satisfied)."""
    Ax = problem.A @ x
    res = []
    for i, rel in enumerate(problem.relations):
        gap = Ax[i] - problem.b[i]
        if rel == "<=":
            res.append(max(gap, 0.0))
        elif rel == ">=":
            res.append(max(-gap, 0.0))
        else:
            res.append(abs(gap))
    lower = np.where(np.isfinite(problem.lb), problem.lb - x, -np.inf)
    upper = np.where(np.isfinite(problem.ub), x - problem.ub, -np.inf)
    res.extend(np.maximum(lower, 0.0).tolist())
    res.extend(np.maximum(upper, 0.0).tolist())
    return np.asarray(res)


def _format_terms(coeffs: np.ndarray, names: list) -> str:
    parts = []
    for coef, name in zip(coeffs, names):
        if coef == 0.0:
            continue
        lead = "-" if coef < 0 else ("+" if parts else "")
        parts.append(f"{lead} {abs(coef):.17g} {name}".strip())
    return " ".join(parts) if parts else "0 " + names[0]


def to_lp_format(problem: LpProblem) -> str:
    """Render the problem in CPLEX LP text format (for external cross-checks)."""
    names = [f"x{i}" for i in range(problem.n_vars)]
    out = [f"\\ Problem: {problem.name}"]
    out.append("Maximize" if problem.sense == "max" else "Minimize")
    out.append(f" obj: {_format_terms(problem.c, names)}")
    out.append("Subject To")
    for i in range(problem.n_rows):
        rel = {"<=": "<=", ">=": ">=", "=": "="}[problem.relations[i]]
        row = problem.row_names[i] if problem.row_names else f"c{i}"
        out.append(f" {row}: {_format_terms(problem.A[i], names)} {rel} {problem.b[i]:.17g}")
    out.append("Bounds")
    for i, name in enumerate(names):
        lo, hi = problem.lb[i], problem.ub[i]
        if not np.isfinite(lo) and not np.isfinite(hi):
            out.append(f" {name} free")
            continue
        lo_s = "-infinity" if not np.isfinite(lo) else f"{lo:.17g}"
        hi_s = "+infinity" if not np.isfinite(hi) else f"{hi:.17g}"
        out.append(f" {lo_s} <= {name} <= {hi_s}")
    out.append("End")
    return "\n".join(out) + "\n"
