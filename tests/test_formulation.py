import numpy as np
import pytest

from oracles import bus_injections, dc_flows
from test_milp import random_small_case
from uc_screen import (
    DisconnectedError,
    LoadRegion,
    ScreeningContext,
    assemble_screening,
    assemble_uc,
    build_formulation,
    extract_solution,
    flow_lower_row,
    flow_upper_row,
    solve_milp,
)
from uc_screen.lp import LpSolution
from uc_screen.netcase import Bus, Generator, Line, NetworkCase


def test_shapes_and_slack(form3, case3):
    n, m, g = case3.n_buses, case3.n_lines, case3.n_gens
    assert form3.H.shape == (m, n)
    np.testing.assert_array_equal(form3.H[:, 0], 0.0)     # slack bus 0
    assert form3.gen_incidence.shape == (n, g)
    np.testing.assert_array_equal(form3.f_max, [l.flow_limit for l in case3.lines])
    np.testing.assert_array_equal(form3.gen_cost, [g.cost for g in case3.generators])


def test_node_flow_columns_balance(form3, form14):
    # the slack bus absorbs every injection, so its column moves no power
    for form in (form3, form14):
        assert form.H.shape == (form.n_lines, form.n_buses)
        np.testing.assert_array_equal(form.H[:, 0], 0.0)


def test_ptdf_columns_match_laplacian_solves(case3, case14):
    """Column b of H is the flow of one unit injected at bus b and
    withdrawn at the slack, from a from-scratch DC power-flow solve."""
    rng = np.random.default_rng(1234)
    cases = [random_small_case(rng) for _ in range(16)] + [case3, case14]
    for case in cases:
        H = build_formulation(case).H
        eye = np.eye(case.n_buses)
        for b in range(case.n_buses):
            expected = dc_flows(case, eye[b] - eye[0])
            assert np.all(np.abs(H[:, b] - expected)
                          <= 1e-9 * np.maximum(1.0, np.abs(expected)))


@pytest.mark.parametrize("which", ["case3", "case14"])
def test_flows_match_laplacian_reconstruction(which, request):
    """H(Gx − ℓ) for balanced dispatch and load must be the line flows of
    a from-scratch DC power-flow solve."""
    case = request.getfixturevalue(which)
    form = build_formulation(case)
    rng = np.random.default_rng(42)
    for _ in range(10):
        x = rng.uniform(0.0, 10.0, size=case.n_gens)
        load = rng.uniform(0.0, 5.0, size=case.n_buses)
        # shift one load to balance total generation and demand
        load[0] = max(x.sum() - load[1:].sum(), 0.0)
        x[0] += load.sum() - x.sum()
        inj = bus_injections(case, x, load)
        np.testing.assert_allclose(form.H @ (form.gen_incidence @ x - load),
                                   dc_flows(case, inj), atol=1e-8)


def test_assemble_uc_layout(form3, case3):
    prob = assemble_uc(form3, case3.nominal_load)
    g, m, n = case3.n_gens, case3.n_lines, case3.n_buses
    assert prob.binary_vars == tuple(range(g))
    assert prob.base.n_vars == 2 * g + n
    names = prob.base.row_names
    assert len(names) == 2 * g + 2 * m + 1
    assert names[:g] == tuple(f"gen_lo_{i}" for i in range(g))
    assert names[g:2 * g] == tuple(f"gen_up_{i}" for i in range(g))
    for j in range(m):
        assert names[flow_upper_row(form3, j)] == f"flow_up_{j}"
        assert names[flow_lower_row(form3, j)] == f"flow_lo_{j}"
        # each flow row reads h_j(Gx − ℓ)
        for row in (flow_upper_row(form3, j), flow_lower_row(form3, j)):
            np.testing.assert_array_equal(
                prob.base.A[row, g:], np.concatenate(
                    [form3.H[j] @ form3.gen_incidence, -form3.H[j]]))
    # one balance row: total dispatch equals total load
    assert names[-1] == "balance" and prob.base.relations[-1] == "="
    np.testing.assert_array_equal(prob.base.A[-1], np.repeat([0.0, 1.0, -1.0],
                                                             [g, g, n]))
    assert prob.base.b[-1] == 0.0
    # commitment variables in [0,1], dispatch in [0, p_max], load pinned
    np.testing.assert_array_equal(prob.base.lb[:g], 0.0)
    np.testing.assert_array_equal(prob.base.ub[:g], 1.0)
    np.testing.assert_array_equal(prob.base.ub[g:2 * g], form3.gen_max)
    np.testing.assert_array_equal(prob.base.lb[2 * g:], case3.nominal_load)
    np.testing.assert_array_equal(prob.base.ub[2 * g:], case3.nominal_load)
    # objective prices dispatch only
    np.testing.assert_array_equal(prob.base.c[g:2 * g], form3.gen_cost)
    assert prob.base.c[:g].max() == 0.0 and np.abs(prob.base.c[2 * g:]).max() == 0.0


def test_minimum_output_enforced_when_committed(form3):
    # nominal load needs gen 0 on, whose p_min is 2
    sol, _ = solve_milp(assemble_uc(form3, np.array([0.0, 10.0, 0.0])))
    uc = extract_solution(form3, sol)
    assert uc.status == "optimal"
    for i in range(form3.n_gens):
        if uc.u[i] > 0.5:
            assert uc.x[i] >= form3.gen_min[i] - 1e-9
        else:
            assert uc.x[i] <= 1e-9


def test_zero_load_commits_nothing(form3):
    sol, _ = solve_milp(assemble_uc(form3, np.zeros(3)))
    uc = extract_solution(form3, sol)
    assert uc.cost == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_array_equal(uc.u, 0.0)


def test_extract_solution_fields(form3, case3):
    sol, _ = solve_milp(assemble_uc(form3, case3.nominal_load))
    uc = extract_solution(form3, sol)
    assert uc.u.shape == (2,) and uc.x.shape == (2,) and uc.flows.shape == (3,)
    injections = bus_injections(case3, uc.x, case3.nominal_load)
    np.testing.assert_allclose(uc.flows, dc_flows(case3, injections), atol=1e-8)
    assert set(np.unique(uc.u)) <= {0.0, 1.0}
    assert uc.cost == pytest.approx(float(form3.gen_cost @ uc.x))


def test_extract_solution_rejects_fractional_u(form3):
    fake = LpSolution(status="optimal",
                      x=np.array([0.4, 1.0, 5.0, 5.0, 0.0, 10.0, 0.0]),
                      objective_value=0.0)
    with pytest.raises(ValueError, match="integral"):
        extract_solution(form3, fake)


def test_screening_excludes_own_line_rows(form3, case3):
    ctx = ScreeningContext.sample_aware(case3.nominal_load)
    for j in range(case3.n_lines):
        for direction in ("max", "min"):
            lp = assemble_screening(form3, ctx, j, direction)
            assert lp.sense == direction
            assert f"flow_up_{j}" not in lp.row_names
            assert f"flow_lo_{j}" not in lp.row_names
            for k in range(case3.n_lines):
                if k != j:
                    assert f"flow_up_{k}" in lp.row_names
            # relaxed commitment: continuous in [0,1]
            g = case3.n_gens
            np.testing.assert_array_equal(lp.lb[:g], 0.0)
            np.testing.assert_array_equal(lp.ub[:g], 1.0)
            # objective reads line j's flow h_j(Gx − ℓ)
            np.testing.assert_array_equal(lp.c, np.concatenate(
                [np.zeros(g), form3.H[j] @ form3.gen_incidence, -form3.H[j]]))


def test_screening_cost_row(form3, case3):
    ctx = ScreeningContext.sample_aware(case3.nominal_load, cost_bound=400.0,
                                        epsilon=0.05)
    lp = assemble_screening(form3, ctx, 0, "max")
    assert lp.row_names[-1] == "cost"
    assert lp.relations[-1] == "<="
    assert lp.b[-1] == pytest.approx(400.0 * 1.05)
    g = case3.n_gens
    np.testing.assert_array_equal(lp.A[-1, g:2 * g], form3.gen_cost)
    # without a bound there is no cost row
    bare = assemble_screening(form3, ScreeningContext.sample_aware(
        case3.nominal_load), 0, "max")
    assert "cost" not in bare.row_names


def test_screening_agnostic_adds_load_variables(form3, case3):
    region = LoadRegion(nominal=case3.nominal_load, variation=0.5)
    lp = assemble_screening(form3, ScreeningContext.sample_agnostic(region),
                            0, "max")
    n, g = case3.n_buses, case3.n_gens
    assert lp.n_vars == 2 * g + n
    assert lp.row_names[-1] == "load_level"
    assert lp.relations[-1] == "="
    assert lp.b[-1] == pytest.approx(region.level)
    load_cols = slice(2 * g, None)
    np.testing.assert_allclose(lp.lb[load_cols], region.lower)
    np.testing.assert_allclose(lp.ub[load_cols], region.upper)
    np.testing.assert_array_equal(lp.A[-1, load_cols], 1.0)
    np.testing.assert_array_equal(lp.A[-1, :2 * g], 0.0)
    # the balance row reads the load from its columns
    row = lp.row_names.index("balance")
    assert lp.b[row] == 0.0
    np.testing.assert_array_equal(lp.A[row, load_cols], -1.0)
    # a fixed load is the zero-width box with the same level row
    aware = assemble_screening(
        form3, ScreeningContext.sample_aware(case3.nominal_load), 0, "max")
    assert aware.row_names == lp.row_names
    np.testing.assert_array_equal(aware.lb[load_cols], case3.nominal_load)
    np.testing.assert_array_equal(aware.ub[load_cols], case3.nominal_load)
    assert aware.b[-1] == case3.nominal_load.sum()


def test_disconnected_network_raises():
    case = NetworkCase(
        buses=(Bus(0, 1), Bus(1, 2), Bus(2, 3), Bus(3, 4)),
        lines=(Line(0, 1, 1.0, 10.0), Line(2, 3, 1.0, 10.0)),
        generators=(Generator(0, 1.0, 0.0, 50.0),),
        nominal_load=np.array([0.0, 1.0, 0.0, 1.0]),
    )
    with pytest.raises(DisconnectedError):
        build_formulation(case)
