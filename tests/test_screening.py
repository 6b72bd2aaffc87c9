import json
import logging

import numpy as np
import pytest
from scipy.optimize import linprog

from oracles import (_linprog_solve, dc_flows, lp_vertex_enumeration,
                     milp_commitment_enumeration)
from test_milp import random_small_case
from uc_screen import (
    ContextMismatch,
    EmptyRegion,
    LineVerdict,
    LoadRegion,
    ScreeningContext,
    ScreeningInfeasible,
    ScreeningReport,
    UcInstance,
    assemble_screening,
    assemble_uc,
    binding_mask,
    build_formulation,
    extract_solution,
    load_case,
    reduce_by_mask,
    reduce_instance,
    screen_all,
    screen_all_keeping_infeasible,
    screen_line,
    solve_lp,
    solve_milp,
)
from uc_screen.errors import DimensionError
from uc_screen.screening import TOL_SCREEN_REL, _relaxed_side_bounds


def two_bus_case(flow_limit, second_gen=False):
    """One line from bus 1 to bus 2, all load at bus 2."""
    gens = [{"bus": 1, "cost": 10.0, "p_min": 0.0, "p_max": 200.0}]
    if second_gen:
        gens.append({"bus": 2, "cost": 100.0, "p_min": 0.0, "p_max": 30.0})
    doc = {
        "buses": [{"id": 1}, {"id": 2}],
        "lines": [{"from": 1, "to": 2, "susceptance": 5.0,
                   "flow_limit": flow_limit}],
        "generators": gens,
        "nominal_load": [0.0, 50.0],
    }
    return load_case(json.dumps(doc))


LOAD = np.array([0.0, 50.0])


def test_single_feeder_flow_is_pinned():
    """With one generator behind the line, every feasible point ships the
    whole 50 MW across it, so max and min coincide at 50."""
    form = build_formulation(two_bus_case(100.0))
    verdict = screen_line(form, ScreeningContext.sample_aware(LOAD), 0)
    assert verdict.max_flow == pytest.approx(50.0, abs=1e-9)
    assert verdict.min_flow == pytest.approx(50.0, abs=1e-9)
    assert verdict.upper_redundant      # 50 < 100 - 1e-4
    assert verdict.lower_redundant      # 50 > -100 + 1e-4


def test_reachable_limit_is_kept():
    # same network, limit exactly at the attainable flow: not redundant
    form = build_formulation(two_bus_case(50.0))
    verdict = screen_line(form, ScreeningContext.sample_aware(LOAD), 0)
    assert verdict.max_flow == pytest.approx(50.0, abs=1e-9)
    assert not verdict.upper_redundant
    assert verdict.lower_redundant


def test_cost_cap_tightens_the_relaxation():
    """An expensive local generator can back the flow off to 20 MW, but
    only by spending 100/MW; a cap at the true optimum forbids that."""
    form = build_formulation(two_bus_case(60.0, second_gen=True))
    bare = screen_line(form, ScreeningContext.sample_aware(LOAD), 0)
    assert bare.max_flow == pytest.approx(50.0, abs=1e-9)
    assert bare.min_flow == pytest.approx(20.0, abs=1e-9)

    # true optimum: cheap generator carries everything, J = 10 * 50
    sol, _ = solve_milp(assemble_uc(form, LOAD))
    assert extract_solution(form, sol).cost == pytest.approx(500.0)

    capped = screen_line(form, ScreeningContext.sample_aware(
        LOAD, cost_bound=500.0, epsilon=0.0), 0)
    assert capped.min_flow == pytest.approx(50.0, abs=1e-7)
    # with 9% slack the expensive unit may supply 0.5 MW
    relaxed = screen_line(form, ScreeningContext.sample_aware(
        LOAD, cost_bound=500.0, epsilon=0.09), 0)
    assert relaxed.min_flow == pytest.approx(49.5, abs=1e-7)


def test_screening_lp_against_vertex_oracle():
    form = build_formulation(two_bus_case(60.0, second_gen=True))
    for cost_bound, eps in ((None, 0.0), (500.0, 0.0), (500.0, 0.09)):
        ctx = ScreeningContext.sample_aware(LOAD, cost_bound=cost_bound,
                                            epsilon=eps)
        for direction in ("max", "min"):
            lp = assemble_screening(form, ctx, 0, direction)
            status, value, _ = lp_vertex_enumeration(lp)
            verdict = screen_line(form, ctx, 0)
            got = verdict.max_flow if direction == "max" else verdict.min_flow
            assert status == "optimal"
            assert got == pytest.approx(value, abs=1e-8)


def test_infeasible_cost_cap_raises():
    form = build_formulation(two_bus_case(100.0))
    ctx = ScreeningContext.sample_aware(LOAD, cost_bound=100.0)  # J is 500
    with pytest.raises(ScreeningInfeasible) as err:
        screen_line(form, ctx, 0)
    assert err.value.line == 0


def test_fallback_keeps_infeasible_lines():
    form = build_formulation(two_bus_case(100.0))
    ctx = ScreeningContext.sample_aware(LOAD, cost_bound=100.0)
    report, n_fallbacks = screen_all_keeping_infeasible(form, ctx)
    assert n_fallbacks == 1
    v = report.verdicts[0]
    assert not v.upper_redundant and not v.lower_redundant
    assert v.max_flow == pytest.approx(100.0)   # pessimistic placeholder
    assert v.min_flow == pytest.approx(-100.0)
    np.testing.assert_array_equal(report.kept_mask(), [True, True])


# --- load regions ---------------------------------------------------------

def test_region_box_and_level():
    region = LoadRegion(nominal=np.array([10.0, 20.0]), variation=0.25)
    np.testing.assert_allclose(region.lower, [7.5, 15.0])
    np.testing.assert_allclose(region.upper, [12.5, 25.0])
    assert region.level == pytest.approx(30.0)
    assert region.contains([12.0, 18.0])
    assert not region.contains([13.0, 17.0])   # outside the box
    assert not region.contains([12.0, 17.0])   # off the level plane
    assert not region.contains([12.0])


def test_region_zero_variation_is_a_point():
    region = LoadRegion(nominal=np.array([5.0, 5.0]), variation=0.0)
    assert region.contains([5.0, 5.0])
    assert not region.contains([5.1, 4.9])


@pytest.mark.parametrize("kwargs", [
    dict(nominal=np.array([10.0, 20.0]), variation=-0.1),
    dict(nominal=np.array([10.0, 20.0]), variation=1.5),
    dict(nominal=np.array([10.0, 20.0]), variation=0.1, level=100.0),
    dict(nominal=np.array([10.0, 20.0]), variation=0.1, level=1.0),
])
def test_unattainable_regions_rejected(kwargs):
    with pytest.raises(EmptyRegion):
        LoadRegion(**kwargs)


def test_region_json_round_trip():
    region = LoadRegion(nominal=np.array([10.0, 20.0]), variation=0.25,
                        level=31.0)
    again = LoadRegion.from_json_dict(region.to_json_dict())
    np.testing.assert_array_equal(again.nominal, region.nominal)
    assert again.variation == region.variation
    assert again.level == region.level


# --- contexts -------------------------------------------------------------

def test_context_exactly_one_of_load_or_region():
    region = LoadRegion(nominal=LOAD, variation=0.1)
    with pytest.raises(ValueError):
        ScreeningContext(load=LOAD, region=region)
    with pytest.raises(ValueError):
        ScreeningContext(load=None, region=None)


def test_context_effective_bound():
    ctx = ScreeningContext.sample_aware(LOAD, cost_bound=200.0, epsilon=0.05)
    assert ctx.effective_cost_bound == pytest.approx(210.0)
    assert ScreeningContext.sample_aware(LOAD).effective_cost_bound is None
    with pytest.raises(ValueError):
        ScreeningContext.sample_aware(LOAD, cost_bound=200.0, epsilon=-0.01)


def test_context_json_round_trip():
    aware = ScreeningContext.sample_aware(LOAD, cost_bound=123.0, epsilon=0.01)
    again = ScreeningContext.from_json_dict(aware.to_json_dict())
    assert again.is_sample_aware
    np.testing.assert_array_equal(again.load, LOAD)
    assert again.cost_bound == 123.0

    region = LoadRegion(nominal=LOAD, variation=0.3)
    agnostic = ScreeningContext.sample_agnostic(region)
    again = ScreeningContext.from_json_dict(agnostic.to_json_dict())
    assert not again.is_sample_aware
    assert again.region.variation == 0.3


# --- reports and reduction -------------------------------------------------

def test_report_percentages_and_mask(form3, case3):
    report = screen_all(form3, ScreeningContext.sample_aware(case3.nominal_load))
    m = case3.n_lines
    assert report.n_lines == m
    dropped = sum(v.upper_redundant + v.lower_redundant for v in report.verdicts)
    assert report.pct_reduced == pytest.approx(dropped / (2 * m))
    mask = report.kept_mask()
    assert mask.shape == (2 * m,)
    for v in report.verdicts:
        assert mask[v.line] == (not v.upper_redundant)
        assert mask[m + v.line] == (not v.lower_redundant)


def test_report_json_round_trip(form3, case3):
    report = screen_all(form3, ScreeningContext.sample_aware(case3.nominal_load))
    again = ScreeningReport.from_json(report.to_json())
    assert again.pct_reduced == report.pct_reduced
    np.testing.assert_array_equal(again.kept_mask(), report.kept_mask())


def test_reduce_by_mask_preserves_kept_rows(form3, case3):
    instance = UcInstance(form3, case3.nominal_load)
    full = assemble_uc(form3, case3.nominal_load)
    m = case3.n_lines
    mask = np.ones(2 * m, dtype=bool)
    mask[0] = False          # drop line 0's upper side
    mask[m + 2] = False      # and line 2's lower side
    reduced = reduce_by_mask(instance, mask)
    assert reduced.base.n_rows == full.base.n_rows - 2
    assert "flow_up_0" not in reduced.base.row_names
    assert "flow_lo_2" not in reduced.base.row_names
    for name in reduced.base.row_names:
        i = reduced.base.row_names.index(name)
        k = full.base.row_names.index(name)
        assert reduced.base.A[i].tobytes() == full.base.A[k].tobytes()
        assert reduced.base.b[i] == full.base.b[k]
    assert reduced.binary_vars == full.binary_vars


def test_reduce_by_mask_validates_shape(form3, case3):
    instance = UcInstance(form3, case3.nominal_load)
    with pytest.raises(DimensionError):
        reduce_by_mask(instance, np.ones(5, dtype=bool))


def test_reduce_instance_checks_context(form3, case3):
    other_load = case3.nominal_load * 0.9
    report = screen_all(form3, ScreeningContext.sample_aware(other_load))
    with pytest.raises(ContextMismatch):
        reduce_instance(UcInstance(form3, case3.nominal_load), report)

    region = LoadRegion(nominal=case3.nominal_load, variation=0.05)
    report = screen_all(form3, ScreeningContext.sample_agnostic(region))
    with pytest.raises(ContextMismatch):
        reduce_instance(UcInstance(form3, case3.nominal_load * 2.0), report)
    # the nominal load itself is inside the region
    reduce_instance(UcInstance(form3, case3.nominal_load), report)


def test_screening_never_drops_binding_sides():
    """Redundancy screening with no cost cap is safe by construction:
    whatever binds at the optimum must be kept, and the reduced problem
    must reproduce the optimal cost exactly."""
    rng = np.random.default_rng(2718)
    checked = 0
    for _ in range(15):
        case = random_small_case(rng)
        form = build_formulation(case)
        load = case.nominal_load * rng.uniform(0.6, 1.0)
        instance = UcInstance(form, load)
        sol, _ = solve_milp(assemble_uc(form, load))
        if sol.status != "optimal":
            continue
        uc = extract_solution(form, sol)
        report, n_fallbacks = screen_all_keeping_infeasible(
            form, ScreeningContext.sample_aware(load))
        assert n_fallbacks == 0
        kept = report.kept_mask()
        binding = binding_mask(form, uc.flows)
        assert not np.any(binding & ~kept), "a binding side was screened"
        reduced_sol, _ = solve_milp(reduce_instance(instance, report))
        assert reduced_sol.status == "optimal"
        assert abs(reduced_sol.objective_value - uc.cost) <= \
            1e-9 * max(1.0, abs(uc.cost))
        checked += 1
    assert checked >= 8


def test_fallback_warns_once_per_call(form14, case14, caplog):
    ctx = ScreeningContext.sample_aware(case14.nominal_load, cost_bound=1.0)
    with caplog.at_level(logging.WARNING, logger="uc_screen.screening"):
        report, n_fallbacks = screen_all_keeping_infeasible(form14, ctx)
    assert n_fallbacks == form14.n_lines == 20
    assert report.kept_mask().all()
    warnings = [rec for rec in caplog.records
                if rec.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "20 of 20 lines" in warnings[0].getMessage()


def test_fallback_runs_each_lp_at_most_once(form14, case14, monkeypatch):
    statuses = []

    def counting_solve_lp(problem):
        sol = solve_lp(problem)
        statuses.append(sol.status)
        return sol

    ctx = ScreeningContext.sample_aware(case14.nominal_load, cost_bound=1.0)
    monkeypatch.setattr("uc_screen.screening.solve_lp", counting_solve_lp)
    screen_all_keeping_infeasible(form14, ctx)
    # one pass: the max-LP of each line is infeasible, so its min-LP is
    # never run and no line is screened twice
    assert statuses == ["infeasible"] * form14.n_lines


# --- verdicts and contexts from numpy values -------------------------------

def test_verdict_fields_are_python_scalars():
    """Verdicts built from numpy comparisons must count and serialise like
    plain bools: np.bool_ + np.bool_ is a logical OR, and json rejects it."""
    flows = np.array([5.0, -5.0])
    verdicts = (
        LineVerdict(np.int64(0), flows[0] < 10.0, flows[1] > -10.0,
                    flows[0], flows[1]),
        LineVerdict(1, np.True_, np.False_, np.float64(9.0), np.float64(-3.0)),
    )
    for v in verdicts:
        assert type(v.line) is int
        assert type(v.upper_redundant) is bool
        assert type(v.lower_redundant) is bool
        assert type(v.max_flow) is float and type(v.min_flow) is float
    report = ScreeningReport(verdicts=verdicts,
                             context=ScreeningContext.sample_aware(LOAD))
    assert report.pct_reduced == pytest.approx(0.75)
    again = ScreeningReport.from_json(report.to_json())
    assert again.pct_reduced == pytest.approx(0.75)
    assert again.verdicts == verdicts


@pytest.mark.parametrize("kwargs", [
    dict(load=np.array([0.0, np.nan])),
    dict(load=np.array([np.inf, 50.0])),
    dict(load=np.array([0.0, -np.inf])),
    dict(load=LOAD, cost_bound=float("nan")),
    dict(load=LOAD, cost_bound=float("inf")),
    dict(load=LOAD, cost_bound=500.0, epsilon=float("nan")),
    dict(load=LOAD, cost_bound=500.0, epsilon=float("inf")),
    dict(region=LoadRegion(nominal=LOAD, variation=0.1),
         cost_bound=float("nan")),
])
def test_context_rejects_non_finite_inputs(kwargs):
    with pytest.raises(ValueError):
        ScreeningContext(**kwargs)


# --- the closed-form pre-screen ---------------------------------------------

def _screening_contexts(case, form, rng):
    """Aware contexts, uncapped and capped at the true optimum x 1.01, and
    a ±20% region, uncapped and capped at x 1.05; no cap is set where the
    load has no feasible commitment."""
    load = case.nominal_load * rng.uniform(0.6, 1.0)
    contexts = [ScreeningContext.sample_aware(load)]
    status, cost, _ = milp_commitment_enumeration(assemble_uc(form, load))
    if status == "optimal":
        contexts.append(ScreeningContext.sample_aware(
            load, cost_bound=cost * 1.01))
    region = LoadRegion(nominal=case.nominal_load, variation=0.2)
    contexts.append(ScreeningContext.sample_agnostic(region))
    if status == "optimal":
        contexts.append(ScreeningContext.sample_agnostic(
            region, cost_bound=cost * 1.05))
    return contexts


def _oracle_cases(case14):
    rng = np.random.default_rng(4242)
    cases = [random_small_case(rng) for _ in range(16)] + [case14]
    return [(case, build_formulation(case)) for case in cases], rng


def test_relaxed_bounds_cover_the_screening_lp_optimum(case14):
    """Every relaxed side bound is at least HiGHS's optimum of that side's
    screening LP: the relaxation only ever drops constraints."""
    cases, rng = _oracle_cases(case14)
    compared = tightened = 0
    for case, form in cases:
        m = form.n_lines
        for ctx in _screening_contexts(case, form, rng):
            bound = _relaxed_side_bounds(form, ctx)
            if ctx.cost_bound is not None:
                uncapped = _relaxed_side_bounds(form, ScreeningContext(
                    load=ctx.load, region=ctx.region))
                tightened += int(np.sum(bound < uncapped - 1e-9))
            for j in range(m):
                for side, direction, sign in ((j, "max", 1.0),
                                              (m + j, "min", -1.0)):
                    lp = assemble_screening(form, ctx, j, direction)
                    status, value, _ = _linprog_solve(lp, lp.lb, lp.ub)
                    if status != "optimal":
                        continue
                    v = sign * value
                    assert bound[side] >= v - 1e-7 * max(1.0, abs(v))
                    compared += int(np.isfinite(bound[side]))
    assert compared >= 400
    assert tightened >= 20      # the cap's dual term is exercised


def _relaxation_optimum(case, form, ctx, side):
    """HiGHS on the relaxation itself: dispatch box, balance, load box and
    level, cost cap; flows from a grounded-Laplacian solve per bus."""
    n, ng = form.n_buses, form.n_gens
    ptdf = np.column_stack([dc_flows(case, np.eye(n)[b] - np.eye(n)[0])
                            for b in range(n)])
    m = form.n_lines
    d = ptdf[side] if side < m else -ptdf[side - m]
    G = form.gen_incidence
    # variables [x (ng) | load (n)]; maximise d @ (G x - load), the
    # side's signed flow under the bus injections G x - load
    c = -np.concatenate([d @ G, -d])
    A_eq = [np.concatenate([np.ones(ng), -np.ones(n)])]
    b_eq = [0.0]
    if ctx.is_sample_aware:
        load_bounds = list(zip(ctx.load, ctx.load))
    else:
        load_bounds = list(zip(ctx.region.lower, ctx.region.upper))
        A_eq.append(np.concatenate([np.zeros(ng), np.ones(n)]))
        b_eq.append(ctx.region.level)
    A_ub = b_ub = None
    if ctx.cost_bound is not None:
        A_ub = [np.concatenate([form.gen_cost, np.zeros(n)])]
        b_ub = [ctx.effective_cost_bound]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=[(0.0, p) for p in form.gen_max] + load_bounds,
                  method="highs")
    return -res.fun if res.status == 0 else None


def test_relaxed_bounds_are_the_relaxation_optimum(case14):
    """The sort-and-fill knapsacks and the minimum over the dual
    breakpoints solve the relaxation exactly, capped or not."""
    cases, rng = _oracle_cases(case14)
    two_bus = two_bus_case(60.0, second_gen=True)
    # caps from binding (the optimum, 500) to slack (above every dispatch)
    runs = [(two_bus, ScreeningContext.sample_aware(LOAD, cost_bound=cap))
            for cap in (500.0, 1000.0, 1e4)]
    runs += [(case, ctx) for case, form in cases[::3]
             for ctx in _screening_contexts(case, form, rng)]
    compared = 0
    for case, ctx in runs:
        form = build_formulation(case)
        bound = _relaxed_side_bounds(form, ctx)
        for side in range(2 * form.n_lines):
            v = _relaxation_optimum(case, form, ctx, side)
            if v is None:
                assert np.isinf(bound[side])
                continue
            assert bound[side] == pytest.approx(v, abs=1e-7 * max(1.0, abs(v)))
            compared += 1
    assert compared >= 100


def _all_lp_reference(form, ctx):
    """Kept mask, fallback count and per-side values of screening every
    line by its LPs alone, keeping both sides of a line that raises."""
    m = form.n_lines
    kept = np.ones(2 * m, dtype=bool)
    values = np.full(2 * m, np.nan)
    n_fallbacks = 0
    for j in range(m):
        try:
            v = screen_line(form, ctx, j)
        except ScreeningInfeasible:
            n_fallbacks += 1
            continue
        kept[j], kept[m + j] = not v.upper_redundant, not v.lower_redundant
        values[j], values[m + j] = v.max_flow, -v.min_flow
    return kept, n_fallbacks, values


def _lp_min_cost(form, load):
    """Least cost over the screening polytope with every flow row."""
    return solve_lp(assemble_uc(form, load).base).objective_value


def test_prescreen_keeps_the_all_lp_verdicts(case14, form14):
    cases, rng = _oracle_cases(case14)
    runs = [(form, ctx) for case, form in cases
            for ctx in _screening_contexts(case, form, rng)]
    load = case14.nominal_load
    runs += [(form14, ScreeningContext.sample_aware(load, cost_bound=1.0)),
             (form14, ScreeningContext.sample_aware(
                 load, cost_bound=0.999 * _lp_min_cost(form14, load)))]
    fallbacks = []
    for form, ctx in runs:
        report, n_fallbacks = screen_all_keeping_infeasible(form, ctx)
        kept, expected_fallbacks, values = _all_lp_reference(form, ctx)
        np.testing.assert_array_equal(report.kept_mask(), kept)
        assert n_fallbacks == expected_fallbacks
        fallbacks.append(n_fallbacks)
        got = np.array([v.max_flow for v in report.verdicts]
                       + [-v.min_flow for v in report.verdicts])
        ran = np.isfinite(values)
        # a kept side ran its LP; a dropped one may report a looser bound
        np.testing.assert_array_equal(got[ran & kept], values[ran & kept])
        assert np.all(got[ran] >= values[ran] - 1e-7 * np.maximum(
            1.0, np.abs(values[ran])))
    # the last context's relaxation is feasible but its polytope with every
    # flow row is not, so the guard LP sends every side to its LP
    assert fallbacks[-2:] == [20, 19]
    # a fixed load is the zero-width region around it
    for cap in (None, 1.01 * _lp_min_cost(form14, load)):
        aware, _ = screen_all_keeping_infeasible(
            form14, ScreeningContext.sample_aware(load, cost_bound=cap))
        point, _ = screen_all_keeping_infeasible(
            form14, ScreeningContext.sample_agnostic(
                LoadRegion(nominal=load, variation=0.0), cost_bound=cap))
        np.testing.assert_array_equal(aware.kept_mask(), point.kept_mask())


def test_infeasible_guard_runs_every_lp(form14, case14, monkeypatch):
    load = case14.nominal_load
    ctx = ScreeningContext.sample_aware(
        load, cost_bound=0.999 * _lp_min_cost(form14, load))
    bound = _relaxed_side_bounds(form14, ctx)
    assert np.sum(bound < np.tile(form14.f_max, 2) * (1 - TOL_SCREEN_REL)) >= 30
    statuses = []

    def counting_solve_lp(problem):
        sol = solve_lp(problem)
        statuses.append(sol.status)
        return sol

    monkeypatch.setattr("uc_screen.screening.solve_lp", counting_solve_lp)
    _, n_fallbacks = screen_all_keeping_infeasible(form14, ctx)
    # guard, then each line's max-LP, plus the one feasible line's min-LP
    assert n_fallbacks == 19
    assert statuses.count("infeasible") == 1 + 19
    assert len(statuses) == 1 + form14.n_lines + 1


def test_uncapped_nominal_screen_needs_few_lps(form14, case14, monkeypatch):
    calls = []

    def counting_solve_lp(problem):
        calls.append(problem.name)
        return solve_lp(problem)

    monkeypatch.setattr("uc_screen.screening.solve_lp", counting_solve_lp)
    report, n_fallbacks = screen_all_keeping_infeasible(
        form14, ScreeningContext.sample_aware(case14.nominal_load))
    assert n_fallbacks == 0
    assert len(calls) <= 9          # the all-LP loop makes 40
    assert report.pct_reduced > 0.9


@pytest.mark.parametrize("make_context", [
    lambda load: ScreeningContext.sample_aware(load[:-1]),
    lambda load: ScreeningContext.sample_aware(load[:-1], cost_bound=1e4),
    lambda load: ScreeningContext.sample_agnostic(
        LoadRegion(nominal=load[:-1], variation=0.1)),
])
def test_wrong_shape_load_raises_before_any_lp(form14, case14, monkeypatch,
                                                make_context):
    def no_lp(problem):
        raise AssertionError("an LP ran")

    monkeypatch.setattr("uc_screen.screening.solve_lp", no_lp)
    ctx = make_context(case14.nominal_load)
    with pytest.raises(DimensionError):
        screen_all_keeping_infeasible(form14, ctx)
    with pytest.raises(DimensionError):
        screen_all(form14, ctx)
