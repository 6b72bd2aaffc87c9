import numpy as np
import pytest

from oracles import lp_vertex_enumeration, project_enumeration
from test_predictor import random_model
from uc_screen import (LoadRegion, PgaConfig, PgaResult, mlp_forward,
                       mlp_input_grad, project_region, run_pga, sample_loads)
from uc_screen.errors import DimensionError
from uc_screen.lp import LpProblem


def random_region(rng, n=None):
    n = n or int(rng.integers(2, 7))
    nominal = rng.uniform(0.5, 5.0, size=n)
    variation = float(rng.uniform(0.0, 1.0))
    lo, hi = (1 - variation) * nominal, (1 + variation) * nominal
    level = float(rng.uniform(lo.sum(), hi.sum()))
    return LoadRegion(nominal=nominal, variation=variation, level=level)


class LinearSurrogate:
    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)

    def value(self, x):
        return float(self.c @ x)

    def grad(self, x):
        return self.c


def test_projection_matches_clip_pattern_enumeration():
    rng = np.random.default_rng(314)
    for trial in range(100):
        region = random_region(rng, n=int(rng.integers(2, 6)))
        v = rng.normal(scale=4.0, size=region.nominal.shape[0])
        got = project_region(v, region)
        want = project_enumeration(v, region.lower, region.upper, region.level)
        assert want is not None
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12,
                                   err_msg=f"trial {trial}")


def test_projection_hand_case():
    region = LoadRegion(nominal=np.array([1.0, 1.0]), variation=1.0)  # box [0,2]^2
    np.testing.assert_allclose(project_region([3.0, 3.0], region), [1.0, 1.0],
                               atol=1e-9)
    np.testing.assert_allclose(project_region([2.0, 0.0], region), [2.0, 0.0],
                               atol=1e-9)
    # tied coordinates give repeated kinks
    cube = LoadRegion(nominal=np.ones(3), variation=1.0)    # [0,2]^3, level 3
    np.testing.assert_allclose(project_region([5.0, 5.0, -1.0], cube),
                               [1.5, 1.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(project_region([2.0, 2.0, 2.0], cube),
                               [1.0, 1.0, 1.0], atol=1e-12)
    # zero variation: lo == hi, so every piece of the level sum is flat
    point = LoadRegion(nominal=np.array([3.0, 4.0]), variation=0.0)
    np.testing.assert_array_equal(project_region([10.0, -5.0], point),
                                  [3.0, 4.0])


def test_projection_properties():
    rng = np.random.default_rng(99)
    for _ in range(50):
        region = random_region(rng)
        v = rng.normal(scale=6.0, size=region.nominal.shape[0])
        x = project_region(v, region)
        assert np.all(x >= region.lower - 1e-9)
        assert np.all(x <= region.upper + 1e-9)
        assert abs(x.sum() - region.level) <= 1e-12 * max(1.0, abs(region.level))
        # projecting a feasible point changes nothing
        np.testing.assert_allclose(project_region(x, region), x, atol=1e-9)


def test_projection_shape_check():
    region = LoadRegion(nominal=np.array([1.0, 1.0]), variation=0.5)
    with pytest.raises(DimensionError):
        project_region([1.0, 2.0, 3.0], region)
    with pytest.raises(DimensionError):
        project_region(np.ones((4, 3)), region)


def test_level_in_constructor_slack_projects_to_box_corner():
    # LoadRegion accepts a level up to 1e-6 relative outside the box's
    # totals; such a region holds one load, the box corner
    for level, corner in ((66.00003, "upper"), (53.99997, "lower")):
        region = LoadRegion(nominal=np.array([10.0, 20.0, 30.0]),
                            variation=0.1, level=level)
        x = project_region([1.0, 25.0, 3.0], region)
        np.testing.assert_array_equal(x, getattr(region, corner))
        assert region.contains(x)
        loads = sample_loads(region, 3, np.random.default_rng(0))
        assert all(region.contains(load) for load in loads)


def test_batched_projection_matches_rows():
    rng = np.random.default_rng(2718)
    for trial in range(50):
        region = random_region(rng)
        n = region.nominal.shape[0]
        V = rng.normal(scale=6.0, size=(int(rng.integers(1, 9)), n))
        V[0] = V[-1]                      # a repeated row
        got = project_region(V, region)
        assert got.shape == V.shape
        for i, v in enumerate(V):
            np.testing.assert_allclose(got[i], project_region(v, region),
                                       rtol=0, atol=1e-12,
                                       err_msg=f"trial {trial} row {i}")
    assert project_region(np.empty((0, n)), region).shape == (0, n)


def test_pga_on_linear_surrogate_matches_lp():
    """Ascent on a linear function must land on the LP maximum over the
    region (the only stationary points of a projected linear ascent)."""
    rng = np.random.default_rng(1000)
    for trial in range(10):
        region = random_region(rng, n=int(rng.integers(2, 6)))
        n = region.nominal.shape[0]
        c = rng.normal(size=n)
        lp = LpProblem(sense="max", c=c, A=np.ones((1, n)), relations=("=",),
                       b=[region.level], lb=region.lower, ub=region.upper)
        status, lp_max, _ = lp_vertex_enumeration(lp)
        assert status == "optimal"
        result = run_pga(LinearSurrogate(c), region,
                         PgaConfig(seed=trial, restarts=5))
        assert abs(result.bound - lp_max) <= 1e-6 * max(1.0, abs(lp_max)), \
            f"trial {trial}"
        assert region.contains(result.argmax_load, tol=1e-6)


def serial_pga(value, grad, region, cfg):
    """Reference ascent, one restart at a time: per-restart best values,
    the best load, and the steps each restart took."""
    scale = max(float(np.abs(region.nominal).max(initial=0.0)), 1e-6)
    beta, tol = 0.05 * scale, 1e-6 * scale
    rng = np.random.default_rng(cfg.seed)
    traces, args, steps = [], [], []
    for _ in range(cfg.restarts):
        x = project_region(rng.uniform(region.lower, region.upper), region)
        best, best_at, taken = value(x), x, 0
        for _ in range(cfg.max_iters):
            taken += 1
            x_next = project_region(x + beta * grad(x), region)
            if value(x_next) > best:
                best, best_at = value(x_next), x_next
            if np.abs(x_next - x).max(initial=0.0) < tol:
                break
            x = x_next
        traces.append(best)
        args.append(best_at)
        steps.append(taken)
    return traces, args[int(np.argmax(traces))], steps


def test_batched_ascent_matches_restart_by_restart_reference():
    rng = np.random.default_rng(4242)
    early, uneven = 0, 0
    for trial in range(40):
        region = random_region(rng)
        n = region.nominal.shape[0]
        if trial % 2:
            model = LinearSurrogate(rng.normal(size=n))
            value, grad = model.value, model.grad
        else:
            model = random_model(rng, n_in=n)
            value = lambda x, m=model: mlp_forward(m, x)
            grad = lambda x, m=model: mlp_input_grad(m, x)
        cfg = PgaConfig(seed=trial, restarts=int(rng.integers(1, 6)),
                        max_iters=int(rng.integers(1, 40)))
        traces, arg, steps = serial_pga(value, grad, region, cfg)
        result = run_pga(model, region, cfg)
        assert result.iterates == sum(steps), f"trial {trial}"
        np.testing.assert_allclose(result.restart_traces, traces,
                                   rtol=1e-9, atol=0, err_msg=f"trial {trial}")
        assert result.bound == pytest.approx(max(traces), rel=1e-9, abs=0)
        np.testing.assert_allclose(result.argmax_load, arg, rtol=0, atol=1e-9,
                                   err_msg=f"trial {trial}")
        early += min(steps) < cfg.max_iters
        uneven += len(set(steps)) > 1
    # the cases exercise restarts that stop early, at different steps
    assert early >= 5 and uneven >= 5


def test_pga_result_bookkeeping():
    rng = np.random.default_rng(4)
    region = random_region(rng, n=4)
    result = run_pga(LinearSurrogate(np.ones(4)), region,
                     PgaConfig(seed=0, restarts=3, max_iters=50))
    assert isinstance(result, PgaResult)
    assert len(result.restart_traces) == 3
    assert result.bound == pytest.approx(max(result.restart_traces))
    assert result.iterates >= 3
    doc = result.to_json_dict()
    assert set(doc) == {"bound", "argmax_load", "iterates", "restart_traces"}


def test_pga_on_network_model_is_deterministic():
    rng = np.random.default_rng(21)
    model = random_model(rng, n_in=5)
    region = random_region(rng, n=5)
    cfg = PgaConfig(seed=11, restarts=4, max_iters=200)
    a = run_pga(model, region, cfg)
    b = run_pga(model, region, cfg)
    assert a.bound == b.bound
    assert a.argmax_load.tobytes() == b.argmax_load.tobytes()
    assert np.isfinite(a.bound)
    assert region.contains(a.argmax_load, tol=1e-6)
    # the reported bound is the best value any restart ever visited
    assert a.bound == pytest.approx(max(a.restart_traces))


def test_pga_zero_variation_region_returns_nominal_value():
    model = LinearSurrogate([2.0, -1.0])
    region = LoadRegion(nominal=np.array([3.0, 4.0]), variation=0.0)
    result = run_pga(model, region, PgaConfig(seed=0, restarts=2))
    assert result.bound == pytest.approx(2.0)
    np.testing.assert_allclose(result.argmax_load, [3.0, 4.0], atol=1e-9)


@pytest.mark.parametrize("kwargs", [
    dict(max_iters=0),
    dict(restarts=0),
    dict(max_iters=-1),
    dict(restarts=-1),
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        PgaConfig(**kwargs)
