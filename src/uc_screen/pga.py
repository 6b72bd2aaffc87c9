"""Region-wide cost upper bound by projected gradient ascent.

Maximizes the learned cost surrogate over the load region: repeat
ℓ ← Proj_L(ℓ + β·∇f(ℓ)) from several random starts and keep the best
value seen anywhere along any trajectory.  The surrogate is nonconvex,
so the result is a heuristic maximum; the (1+ε) relaxation applied by
cost-aware screening exists to absorb exactly this slack.

Projection onto L = box ∩ {1ᵀx = L̄} is exact: the Euclidean projection
has the form x_i = clip(v_i − λ, lo_i, hi_i) for a scalar multiplier λ.
1ᵀx is piecewise linear and non-increasing in λ, so λ is found exactly
by a breakpoint search: evaluate 1ᵀx at the 2n sorted kinks and
interpolate on the piece that holds the level (Kiwiel, Math. Programming
2008).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyRegion
from .predictor import MlpModel, mlp_forward, mlp_input_grad
from .screening import LoadRegion

__all__ = ["PgaConfig", "PgaResult", "project_region", "run_pga"]


@dataclass
class PgaConfig:
    """The step 0.05·‖ℓ̄‖∞ and the stopping tolerance 1e-6·‖ℓ̄‖∞ on the
    move per step are derived from the region at run time."""

    max_iters: int = 1000
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass
class PgaResult:
    bound: float
    argmax_load: np.ndarray
    iterates: int
    restart_traces: list[float]    # best value visited by each restart

    def to_json_dict(self) -> dict:
        return {"bound": self.bound,
                "argmax_load": self.argmax_load.tolist(),
                "iterates": self.iterates,
                "restart_traces": list(self.restart_traces)}


def project_region(v, region: LoadRegion) -> np.ndarray:
    """Euclidean projection of v onto the region (box ∩ level plane)."""
    v = np.asarray(v, dtype=float)
    lo, hi = region.lower, region.upper
    if v.shape != lo.shape:
        raise DimensionError(
            f"vector has shape {v.shape}, expected {lo.shape}")
    level = region.level
    tol = 1e-9 * max(abs(level), 1.0)
    if lo.sum() > level + tol or hi.sum() < level - tol:
        raise EmptyRegion("level plane does not meet the box")

    # np.interp needs ascending abscissae; the sums fall as the kinks rise.
    kinks = np.sort(np.concatenate([v - hi, v - lo]))
    sums = np.clip(v - kinks[:, None], lo, hi).sum(axis=1)
    lam = np.interp(level, sums[::-1], kinks[::-1])
    return np.clip(v - lam, lo, hi)


def _surrogate(model):
    if isinstance(model, MlpModel):
        return (lambda x: mlp_forward(model, x),
                lambda x: mlp_input_grad(model, x))
    return model.value, model.grad  # duck-typed surrogate for tests


def run_pga(model, region: LoadRegion,
            config: PgaConfig | None = None) -> PgaResult:
    """Multi-restart ascent; returns the best load/value pair visited."""
    cfg = config or PgaConfig()
    value, grad = _surrogate(model)
    scale = max(float(np.abs(region.nominal).max(initial=0.0)), 1e-6)
    beta = 0.05 * scale
    tol = 1e-6 * scale
    rng = np.random.default_rng(cfg.seed)
    lo, hi = region.lower, region.upper

    best_val = -np.inf
    best_load = None
    traces: list[float] = []
    total_iters = 0

    for _ in range(cfg.restarts):
        x = project_region(rng.uniform(lo, hi), region)
        trace_best = value(x)
        trace_arg = x
        for _ in range(cfg.max_iters):
            total_iters += 1
            x_next = project_region(x + beta * grad(x), region)
            v = value(x_next)
            if v > trace_best:
                trace_best, trace_arg = v, x_next
            if np.abs(x_next - x).max(initial=0.0) < tol:
                x = x_next
                break
            x = x_next
        traces.append(trace_best)
        if trace_best > best_val:
            best_val, best_load = trace_best, trace_arg

    return PgaResult(bound=float(best_val), argmax_load=best_load.copy(),
                     iterates=total_iters, restart_traces=traces)
