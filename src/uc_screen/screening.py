"""Redundancy screening of line-flow bounds.

Each line's upper and lower flow bound is tested independently: maximize
(respectively minimize) the line's flow over the relaxed feasible set —
commitments in [0, 1], every other flow bound in place, the load ranging
over a box lo <= ℓ <= hi with a fixed total 1ᵀℓ = level, optionally
capped in cost.  A sample-agnostic context's box is its region; a
sample-aware context is the zero-width box lo = hi = load, so both run
the same LPs and the same pre-screen.  A side whose bound cannot be
attained, with a margin of ``1e-6 * flow_limit``, is redundant and can
be dropped from the unit-commitment problem without changing its
optimum.

Most sides are decided without an LP.  Dropping the other lines' flow
rows as well leaves a relaxation whose optimum has a closed form (a
continuous knapsack over the dispatch and one over the load box, with
the cost cap priced in by weak duality), and its maximum bounds
the LP's from above.  A side the relaxed bound already proves redundant
gets no LP, and its verdict reports that relaxed bound as ``max_flow``
(or ``min_flow``), which is looser than the exact value.  Only the other
sides run their LP, so the verdicts are those the LPs alone would give.

Side indexing convention used by reports, datasets, and the KNN baseline:
side ``j`` is line j's upper bound, side ``m + j`` its lower bound.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ContextMismatch, DimensionError, EmptyRegion,
                     NumericalError, ScreeningInfeasible)
from .formulation import (UcFormulation, UcInstance, _checked_load,
                          assemble_relaxation, assemble_screening, assemble_uc,
                          flow_lower_row, flow_upper_row)
from .lp import INFEASIBLE, OPTIMAL, solve_lp
from .milp import MilpProblem

__all__ = [
    "TOL_SCREEN_REL",
    "LoadRegion",
    "ScreeningContext",
    "LineVerdict",
    "ScreeningReport",
    "screen_line",
    "screen_all",
    "screen_all_keeping_infeasible",
    "reduce_by_mask",
    "reduce_instance",
]

TOL_SCREEN_REL = 1e-6

_log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class LoadRegion:
    """Box (1±r) around a nominal load, intersected with a total-level plane."""

    nominal: np.ndarray
    variation: float
    level: float | None = None

    def __post_init__(self):
        nominal = np.asarray(self.nominal, dtype=float).copy()
        nominal.flags.writeable = False
        object.__setattr__(self, "nominal", nominal)
        r = float(self.variation)
        object.__setattr__(self, "variation", r)
        if not 0.0 <= r <= 1.0:
            raise EmptyRegion(f"variation must lie in [0, 1], got {r}")
        if nominal.ndim != 1 or np.any(nominal < 0):
            raise EmptyRegion("nominal load must be a nonnegative vector")
        total = float(nominal.sum())
        level = total if self.level is None else float(self.level)
        object.__setattr__(self, "level", level)
        slack = TOL_SCREEN_REL * max(total, 1.0)
        if not (1 - r) * total - slack <= level <= (1 + r) * total + slack:
            raise EmptyRegion(
                f"level {level} outside attainable totals "
                f"[{(1 - r) * total}, {(1 + r) * total}]")

    @property
    def lower(self) -> np.ndarray:
        return (1.0 - self.variation) * self.nominal

    @property
    def upper(self) -> np.ndarray:
        return (1.0 + self.variation) * self.nominal

    def contains(self, load, tol: float = 1e-6) -> bool:
        load = np.asarray(load, dtype=float)
        if load.shape != self.nominal.shape:
            return False
        scale = max(float(self.nominal.max(initial=0.0)), 1.0)
        if np.any(load < self.lower - tol * scale):
            return False
        if np.any(load > self.upper + tol * scale):
            return False
        return abs(load.sum() - self.level) <= tol * max(abs(self.level), 1.0)

    def to_json_dict(self) -> dict:
        return {"nominal": self.nominal.tolist(),
                "variation": self.variation,
                "level": self.level}

    @classmethod
    def from_json_dict(cls, d: dict) -> "LoadRegion":
        return cls(nominal=np.asarray(d["nominal"], dtype=float),
                   variation=d["variation"], level=d["level"])


@dataclass(frozen=True, eq=False)
class ScreeningContext:
    """What the screening LPs know: a fixed load or a region, plus an
    optional cost cap C̄ applied as gen_cost @ x <= C̄ * (1 + epsilon)."""

    load: np.ndarray | None = None
    region: LoadRegion | None = None
    cost_bound: float | None = None
    epsilon: float = 0.0

    def __post_init__(self):
        if (self.load is None) == (self.region is None):
            raise ValueError("exactly one of load/region must be given")
        if self.load is not None:
            load = np.asarray(self.load, dtype=float).copy()
            if not np.isfinite(load).all():
                raise ValueError("load must be finite")
            load.flags.writeable = False
            object.__setattr__(self, "load", load)
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError("epsilon must be finite and >= 0")
        if self.cost_bound is not None and \
                not (math.isfinite(self.cost_bound) and self.cost_bound >= 0):
            raise ValueError("cost_bound must be finite and >= 0")

    @classmethod
    def sample_aware(cls, load, cost_bound: float | None = None,
                     epsilon: float = 0.0) -> "ScreeningContext":
        return cls(load=np.asarray(load, dtype=float), cost_bound=cost_bound,
                   epsilon=epsilon)

    @classmethod
    def sample_agnostic(cls, region: LoadRegion, cost_bound: float | None = None,
                        epsilon: float = 0.0) -> "ScreeningContext":
        return cls(region=region, cost_bound=cost_bound, epsilon=epsilon)

    @property
    def is_sample_aware(self) -> bool:
        return self.load is not None

    @property
    def load_box(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(lo, hi, level): the load ranges over lo <= ℓ <= hi with
        1ᵀℓ = level.  A fixed load is the zero-width box lo = hi = load."""
        if self.is_sample_aware:
            return self.load, self.load, float(self.load.sum())
        return self.region.lower, self.region.upper, self.region.level

    @property
    def effective_cost_bound(self) -> float | None:
        if self.cost_bound is None:
            return None
        return self.cost_bound * (1.0 + self.epsilon)

    def to_json_dict(self) -> dict:
        d: dict = {"cost_bound": self.cost_bound, "epsilon": self.epsilon}
        if self.is_sample_aware:
            d["mode"] = "aware"
            d["load"] = self.load.tolist()
        else:
            d["mode"] = "agnostic"
            d["region"] = self.region.to_json_dict()
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "ScreeningContext":
        if d["mode"] == "aware":
            return cls.sample_aware(d["load"], cost_bound=d["cost_bound"],
                                    epsilon=d["epsilon"])
        return cls.sample_agnostic(LoadRegion.from_json_dict(d["region"]),
                                   cost_bound=d["cost_bound"],
                                   epsilon=d["epsilon"])


@dataclass(frozen=True)
class LineVerdict:
    """Line j's two sides and the flow bounds that decided them.

    ``max_flow``/``min_flow`` is the exact LP optimum for a side that ran
    its LP, the closed-form relaxed bound (looser than the optimum) for
    a side that bound proved redundant, and ±limit for a line kept whole
    because its LP was infeasible.
    """

    line: int
    upper_redundant: bool
    lower_redundant: bool
    max_flow: float
    min_flow: float

    def __post_init__(self):
        object.__setattr__(self, "line", int(self.line))
        for name in ("upper_redundant", "lower_redundant"):
            object.__setattr__(self, name, bool(getattr(self, name)))
        for name in ("max_flow", "min_flow"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def to_json_dict(self) -> dict:
        return {"line": self.line,
                "upper_redundant": self.upper_redundant,
                "lower_redundant": self.lower_redundant,
                "max_flow": self.max_flow,
                "min_flow": self.min_flow}


@dataclass(frozen=True, eq=False)
class ScreeningReport:
    verdicts: tuple[LineVerdict, ...]
    context: ScreeningContext

    @property
    def n_lines(self) -> int:
        return len(self.verdicts)

    @property
    def pct_reduced(self) -> float:
        """Fraction of the 2m bound-sides found redundant."""
        dropped = sum(v.upper_redundant + v.lower_redundant
                      for v in self.verdicts)
        return dropped / (2 * self.n_lines)

    @property
    def pct_lines_reduced(self) -> float:
        """Fraction of whole lines with both sides redundant."""
        dropped = sum(v.upper_redundant and v.lower_redundant
                      for v in self.verdicts)
        return dropped / self.n_lines

    def kept_mask(self) -> np.ndarray:
        """Boolean (2m,) kept-side mask: uppers first, then lowers."""
        m = self.n_lines
        mask = np.ones(2 * m, dtype=bool)
        for v in self.verdicts:
            mask[v.line] = not v.upper_redundant
            mask[m + v.line] = not v.lower_redundant
        return mask

    def to_json(self) -> str:
        doc = {"context": self.context.to_json_dict(),
               "verdicts": [v.to_json_dict() for v in self.verdicts],
               "pct_reduced": self.pct_reduced,
               "pct_lines_reduced": self.pct_lines_reduced}
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScreeningReport":
        doc = json.loads(text)
        verdicts = tuple(
            LineVerdict(line=v["line"],
                        upper_redundant=v["upper_redundant"],
                        lower_redundant=v["lower_redundant"],
                        max_flow=v["max_flow"],
                        min_flow=v["min_flow"])
            for v in doc["verdicts"])
        return cls(verdicts=verdicts,
                   context=ScreeningContext.from_json_dict(doc["context"]))


def _directional_flow(form: UcFormulation, context, j: int,
                      direction: str) -> float:
    problem = assemble_screening(form, context, j, direction)
    sol = solve_lp(problem)
    if sol.status == INFEASIBLE:
        raise ScreeningInfeasible(j)
    if sol.status != OPTIMAL:
        raise NumericalError(
            f"screening LP for line {j} ({direction}) ended {sol.status}")
    return float(sol.objective_value)


def _verdict(form: UcFormulation, j: int, max_flow: float,
             min_flow: float) -> LineVerdict:
    limit = float(form.f_max[j])
    tol = TOL_SCREEN_REL * limit
    return LineVerdict(line=j, upper_redundant=max_flow < limit - tol,
                       lower_redundant=min_flow > -limit + tol,
                       max_flow=max_flow, min_flow=min_flow)


def screen_line(form: UcFormulation, context: ScreeningContext,
                j: int) -> LineVerdict:
    """Max/min the line-j flow over the relaxed set and flag each side.

    Raises ScreeningInfeasible when the LP has no feasible point, which
    with a cost cap means C̄(1+ε) sits below the minimal relaxed cost;
    callers should raise epsilon or keep the line's constraints.
    """
    return _verdict(form, j, _directional_flow(form, context, j, "max"),
                    _directional_flow(form, context, j, "min"))


def _knapsack_max(W: np.ndarray, cap: np.ndarray, total: float) -> np.ndarray:
    """max W·y over 0 <= y <= cap with sum(y) = total, along the last axis.

    Sort and fill: the largest weights take their whole capacity until
    the total is met.  Requires 0 <= total <= cap.sum().
    """
    order = np.argsort(-W, axis=-1)
    room = cap[order]
    fill = np.clip(total - (np.cumsum(room, axis=-1) - room), 0.0, room)
    return np.sum(np.take_along_axis(W, order, axis=-1) * fill, axis=-1)


def _relaxed_side_bounds(form: UcFormulation,
                         context: ScreeningContext) -> np.ndarray:
    """An upper bound on each side's flow, +inf where none is proven.

    Side j bounds line j's flow and side m + j its negation, over a
    relaxation of the screening LP that keeps the dispatch box
    x in [0, p_max] (implied by u in [0, 1] and the generator rows), the
    balance 1ᵀx = 1ᵀℓ, the context's load box and level, and the cost
    cap, but no flow row.  Flows are H(Gx − ℓ), so each side is a
    continuous knapsack over x plus one over ℓ, which is constant on a
    fixed load's zero-width box.  The cap cᵀx <= C is priced in by weak
    duality: every μ >= 0 gives the bound μC + knapsack_max(w − μc),
    which is piecewise linear and convex in μ with breakpoints where two
    generators' w − μc cross, so its minimum over μ = 0 and those
    crossings is the relaxed optimum.  Every bound is +inf when the
    relaxation is empty: the level outside the load box or outside
    [0, Σp_max], or the cap below the relaxation's least cost.
    """
    m = form.n_lines
    lo, hi, total = context.load_box
    lo = _checked_load(form, lo)
    no_bound = np.full(2 * m, np.inf)

    S = np.vstack([form.H, -form.H])                # side weights on Gx − ℓ
    W = S[:, form.gen_bus]                          # side weights on x
    p = form.gen_max
    spare = total - float(lo.sum())
    if not 0.0 <= spare <= float((hi - lo).sum()):
        return no_bound
    const = _knapsack_max(-S, hi - lo, spare) - S @ lo
    if not 0.0 <= total <= float(p.sum()):
        return no_bound

    cap = context.effective_cost_bound
    if cap is None:
        return const + _knapsack_max(W, p, total)
    c = form.gen_cost
    if cap < -_knapsack_max(-c, p, total):
        return no_bound
    i, k = np.triu_indices(form.n_gens, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = (W[:, i] - W[:, k]) / (c[i] - c[k])
    mu = np.where(np.isfinite(cross) & (cross > 0.0), cross, 0.0)
    mu = np.hstack([np.zeros((2 * m, 1)), mu])      # (2m, 1 + pairs)
    dual = mu * cap + _knapsack_max(W[:, None, :] - mu[..., None] * c,
                                    p, total)
    return const + dual.min(axis=1)


def _screen(form: UcFormulation, context: ScreeningContext
            ) -> tuple[tuple[LineVerdict, ...], list[int]]:
    """Every line's verdict, and the lines kept whole because an LP of
    theirs was infeasible.

    A side runs its LP unless its relaxed bound proves it redundant.
    The bounds are trusted only after one zero-objective LP has shown
    the screening polytope with every flow row feasible: each screening
    LP drops rows from it, so none can be infeasible, and a side the
    bound decides gets the verdict its LP would give.  Otherwise every
    side runs its LP, max before min, and a line stops at its first
    infeasible LP.
    """
    m = form.n_lines
    bound = _relaxed_side_bounds(form, context)
    threshold = np.tile(form.f_max - TOL_SCREEN_REL * form.f_max, 2)
    if np.any(bound < threshold) and \
            solve_lp(assemble_relaxation(form, context)).status != OPTIMAL:
        bound = np.full(2 * m, np.inf)
    verdicts = []
    fallen_back = []
    for j in range(m):
        try:
            if bound[j] < threshold[j]:
                max_flow = bound[j]
            else:
                max_flow = _directional_flow(form, context, j, "max")
            if bound[m + j] < threshold[m + j]:
                min_flow = -bound[m + j]
            else:
                min_flow = _directional_flow(form, context, j, "min")
        except ScreeningInfeasible:
            fallen_back.append(j)
            max_flow, min_flow = form.f_max[j], -form.f_max[j]
        verdicts.append(_verdict(form, j, max_flow, min_flow))
    return tuple(verdicts), fallen_back


def screen_all(form: UcFormulation,
               context: ScreeningContext) -> ScreeningReport:
    """Screen every line; raises ScreeningInfeasible for the first line
    whose LP is infeasible."""
    verdicts, fallen_back = _screen(form, context)
    if fallen_back:
        raise ScreeningInfeasible(fallen_back[0])
    return ScreeningReport(verdicts=verdicts, context=context)


def screen_all_keeping_infeasible(form: UcFormulation,
                                  context: ScreeningContext
                                  ) -> tuple[ScreeningReport, int]:
    """screen_all, but a line whose LP is infeasible keeps both sides.

    Infeasibility signals a cost bound below the minimal relaxed cost;
    keeping the line is always safe.  Each LP runs at most once, and the
    lines that fell back are named in one warning.  Returns the report
    and the number of lines that fell back.
    """
    verdicts, fallen_back = _screen(form, context)
    if fallen_back:
        _log.warning("screening LP infeasible for %d of %d lines; keeping "
                     "both sides of lines %s", len(fallen_back),
                     form.n_lines, fallen_back)
    return (ScreeningReport(verdicts=verdicts, context=context),
            len(fallen_back))


def reduce_by_mask(instance: UcInstance, kept_mask) -> MilpProblem:
    """The instance's MILP minus the flow bound-sides the mask drops.

    kept_mask has 2m booleans in side order (uppers, then lowers); kept
    rows are carried over bit-identical.
    """
    form = instance.formulation
    m = form.n_lines
    mask = np.asarray(kept_mask, dtype=bool)
    if mask.shape != (2 * m,):
        raise DimensionError(
            f"kept mask has shape {mask.shape}, expected ({2 * m},)")
    drop = [flow_upper_row(form, j) for j in range(m) if not mask[j]]
    drop += [flow_lower_row(form, j) for j in range(m) if not mask[m + j]]
    full = assemble_uc(form, instance.load)
    return MilpProblem(base=full.base.drop_rows(drop),
                       binary_vars=full.binary_vars)


def reduce_instance(instance: UcInstance,
                    report: ScreeningReport) -> MilpProblem:
    """Drop the report's redundant bound-sides from the instance's MILP.

    The report must cover the instance's load — same vector for a
    sample-aware context, region membership for a sample-agnostic one.
    """
    ctx = report.context
    load = instance.load
    if ctx.is_sample_aware:
        scale = max(float(np.abs(ctx.load).max(initial=0.0)), 1.0)
        if ctx.load.shape != load.shape or \
                np.abs(ctx.load - load).max(initial=0.0) > 1e-9 * scale:
            raise ContextMismatch(
                "report was screened for a different load vector")
    elif not ctx.region.contains(load):
        raise ContextMismatch("instance load lies outside the report's region")
    return reduce_by_mask(instance, report.kept_mask())
