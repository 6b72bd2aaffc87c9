"""Region-wide cost upper bound by projected gradient ascent.

Maximizes the learned cost surrogate over the load region: repeat
ℓ ← Proj_L(ℓ + β·∇f(ℓ)) from several random starts and keep the best
value seen anywhere along any trajectory.  The surrogate is nonconvex,
so the result is a heuristic maximum; the (1+ε) relaxation applied by
cost-aware screening exists to absorb exactly this slack.

The restarts run as one batch: row i of an (R, n) array is restart i,
and each step makes one projection call and one forward pass of the
network, which gives the values and the input gradients for the next
step together.  A restart stops counting after the first step that
moves it less than the tolerance; the results are those of running the
restarts one after another.  On the cost model trained for the bundled
benchmark (case14, 300 loads in the ±50% box) no restart ever stops
early: the fixed step 0.05·‖ℓ̄‖∞ keeps moving the load by megawatts
against the 1e-6·‖ℓ̄‖∞ tolerance, so every restart runs to max_iters.
A shrinking step or a projected-gradient stopping test might cut that
work, but its effect on the bound is unmeasured, so the step rule is
unchanged.

Projection onto L = box ∩ {1ᵀx = L̄} is exact: the Euclidean projection
has the form x_i = clip(v_i − λ, lo_i, hi_i) for a scalar multiplier λ.
1ᵀx is piecewise linear and non-increasing in λ, so λ is found exactly
by a breakpoint search: evaluate 1ᵀx at the 2n sorted kinks and
interpolate on the piece that holds the level (Kiwiel, Math. Programming
2008).  `project_region` does this for each row of an (..., n) array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .predictor import MlpModel, _value_and_grad
# perfbench/run.py traces calls by wrapping these two attributes of this module
from .predictor import mlp_forward, mlp_input_grad  # noqa: F401
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
    """Euclidean projection of each row of v (..., n) onto the region
    (box ∩ level plane); a single load is the one-row case."""
    V = np.asarray(v, dtype=float)
    lo, hi = region.lower, region.upper
    if V.shape[-1:] != lo.shape:
        raise DimensionError(
            f"vector has shape {V.shape}, expected (..., {lo.shape[0]})")
    level = region.level

    # The sums fall as the kinks rise.  In each row the level lies on the
    # piece from the last kink whose sum exceeds it to the next kink, and
    # λ is interpolated there; past either end λ is that end's kink (the
    # rule of np.interp on the reversed arrays).
    X = V.reshape(-1, lo.shape[0])
    kinks = np.sort(np.concatenate([X - hi, X - lo], axis=1), axis=1)
    sums = np.clip(X[:, None, :] - kinks[:, :, None], lo, hi).sum(axis=2)
    m = kinks.shape[1]
    above = (sums > level).sum(axis=1)
    rows = np.arange(len(X))
    i = np.minimum(np.maximum(above, 1), m - 1)    # piece: kinks i-1 .. i
    k0, k1 = kinks[rows, i - 1], kinks[rows, i]
    s0, s1 = sums[rows, i - 1], sums[rows, i]
    with np.errstate(divide="ignore", invalid="ignore"):  # flat end pieces
        lam = (k0 - k1) / (s0 - s1) * (level - s1) + k1
    lam = np.where(above == 0, k0, np.where(above == m, k1, lam))
    return np.clip(X - lam[:, None], lo, hi).reshape(V.shape)


def _surrogate(model):
    """(values (R,), input gradients (R, n)) for a batch of loads (R, n)."""
    if isinstance(model, MlpModel):
        return lambda X: _value_and_grad(model, X)
    # duck-typed surrogate for tests: per-load value(x) and grad(x)
    return lambda X: (np.array([model.value(x) for x in X]),
                      np.array([model.grad(x) for x in X]))


def run_pga(model, region: LoadRegion,
            config: PgaConfig | None = None) -> PgaResult:
    """Multi-restart ascent; returns the best load/value pair visited."""
    cfg = config or PgaConfig()
    value_and_grad = _surrogate(model)
    scale = max(float(np.abs(region.nominal).max(initial=0.0)), 1e-6)
    beta = 0.05 * scale
    tol = 1e-6 * scale
    rng = np.random.default_rng(cfg.seed)
    lo, hi = region.lower, region.upper

    # row i is restart i; its start point is the i-th draw of the stream
    X = project_region(rng.uniform(lo, hi, size=(cfg.restarts, len(lo))),
                       region)
    best, grads = value_and_grad(X)
    best_at = X.copy()
    live = np.ones(cfg.restarts, dtype=bool)
    total_iters = 0

    for _ in range(cfg.max_iters):
        total_iters += int(live.sum())
        X_next = project_region(X + beta * grads, region)
        values, grads_next = value_and_grad(X_next)
        better = live & (values > best)
        best[better] = values[better]
        best_at[better] = X_next[better]
        # a restart stops after the step that moves it less than tol; its
        # row keeps stepping with the batch but no longer counts
        live &= ~(np.abs(X_next - X).max(axis=1, initial=0.0) < tol)
        if not live.any():
            break
        X, grads = X_next, grads_next

    # np.argmax keeps the first of tied restarts
    top = int(np.argmax(best))
    return PgaResult(bound=float(best[top]), argmax_load=best_at[top].copy(),
                     iterates=total_iters, restart_traces=best.tolist())
