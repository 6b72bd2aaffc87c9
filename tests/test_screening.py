import json
import logging

import numpy as np
import pytest

from oracles import lp_vertex_enumeration
from test_milp import random_small_case
from uc_screen import (
    ContextMismatch,
    EmptyRegion,
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
        binding = binding_mask(form, uc.f)
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
