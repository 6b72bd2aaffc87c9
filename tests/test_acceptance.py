"""End-to-end checks on the shipped fixtures.

Each test prints one PASS/FAIL line with the measured quantities, so a
verbose run reads as a checklist.  These are the slowest tests in the
suite (they solve a few hundred full problems and train the real cost
model via the session fixtures); everything else in tests/ covers the
same code at unit granularity.
"""

import json

import numpy as np
import pytest

from conftest import FIXTURES, MASTER_SEED, SEEDS
from oracles import (central_difference, lp_vertex_enumeration,
                     milp_commitment_enumeration, project_enumeration)
from test_lp import random_boxed_lp
from test_milp import random_small_case
from test_pga import LinearSurrogate, random_region
from test_predictor import random_model
from uc_screen import (ExperimentSpec, LoadRegion, LpProblem, PgaConfig,
                       ScreeningContext, UcInstance, assemble_uc,
                       binding_mask, build_formulation, derive_seeds,
                       evaluate, extract_solution, knn_screen, mlp_forward,
                       mlp_input_grad, project_region, reduce_by_mask,
                       reduce_instance, run_pga, sample_loads,
                       screen_all_keeping_infeasible, solve_lp, solve_milp)
from uc_screen.cli import main as cli_main

EPSILON = 0.01          # shipped experiment config's bound relaxation
SWEEP_RANGES = (0.0, 0.25, 0.5)
LOADS_PER_RANGE = 100


@pytest.fixture
def verdict(capsys):
    """Print one live checklist line per test, then enforce it."""
    def emit(name, ok, detail):
        with capsys.disabled():
            print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        assert ok, f"{name}: {detail}"
    return emit


def test_solvers_match_enumeration_oracles(verdict):
    rng = np.random.default_rng(20240)
    lp_dev, n_lp_optimal = 0.0, 0
    for _ in range(200):
        problem = random_boxed_lp(rng)
        status, value, _ = lp_vertex_enumeration(problem)
        sol = solve_lp(problem)
        assert sol.status == status
        if status == "optimal":
            n_lp_optimal += 1
            lp_dev = max(lp_dev, abs(sol.objective_value - value)
                         / max(1.0, abs(value)))

    mip_dev, n_mip_optimal = 0.0, 0
    for _ in range(50):
        case = random_small_case(rng)
        form = build_formulation(case)
        problem = assemble_uc(form, rng.uniform(0.0, 4.0, size=case.n_buses))
        status, value, _ = milp_commitment_enumeration(problem)
        sol, _ = solve_milp(problem)
        assert sol.status == status
        if status == "optimal":
            n_mip_optimal += 1
            mip_dev = max(mip_dev, abs(sol.objective_value - value)
                          / max(1.0, abs(value)))

    ok = (lp_dev <= 1e-8 and mip_dev <= 1e-8
          and n_lp_optimal >= 60 and n_mip_optimal >= 15)
    verdict("solver oracle equivalence", ok,
            f"200 LPs ({n_lp_optimal} optimal, max dev {lp_dev:.2e}) and "
            f"50 commitment problems ({n_mip_optimal} optimal, max dev "
            f"{mip_dev:.2e}) vs enumeration, tolerance 1e-08")


@pytest.fixture(scope="module")
def aware_sweep(form14, case14, model14):
    """Full-vs-reduced solves over three variation ranges, 100 loads each.

    Shared by the cost-exactness and reduction-rate checks so the ~300
    full solves and ~600 screenings run once.
    """
    rng = np.random.default_rng(SEEDS["validate"])
    sweep = {}
    for r in SWEEP_RANGES:
        region = LoadRegion(nominal=case14.nominal_load, variation=r)
        data = {"err_bench": [], "err_aware": [], "pct_bench": [],
                "pct_aware": [], "pct_actual": [], "fallback_loads": 0}
        for load in sample_loads(region, LOADS_PER_RANGE, rng):
            instance = UcInstance(formulation=form14, load=load)
            full, _ = solve_milp(assemble_uc(form14, load))
            assert full.status == "optimal"

            bench, nf = screen_all_keeping_infeasible(
                form14, ScreeningContext.sample_aware(load))
            assert nf == 0  # no cost bound, so never infeasible
            red, _ = solve_milp(reduce_instance(instance, bench))
            data["err_bench"].append(
                abs(red.objective_value - full.objective_value)
                / abs(full.objective_value))
            data["pct_bench"].append(bench.pct_reduced)

            bound = mlp_forward(model14, load)
            aware, nf = screen_all_keeping_infeasible(
                form14, ScreeningContext.sample_aware(
                    load, cost_bound=bound, epsilon=EPSILON))
            data["fallback_loads"] += nf > 0
            red, _ = solve_milp(reduce_instance(instance, aware))
            data["err_aware"].append(
                abs(red.objective_value - full.objective_value)
                / abs(full.objective_value))
            data["pct_aware"].append(aware.pct_reduced)

            uc = extract_solution(form14, full)
            data["pct_actual"].append(1.0 - binding_mask(form14, uc.flows).mean())
        sweep[r] = {k: np.asarray(v) if isinstance(v, list) else v
                    for k, v in data.items()}
    return sweep


def test_reduced_problems_recover_full_cost(aware_sweep, verdict):
    worst = max(max(d["err_bench"].max(), d["err_aware"].max())
                for d in aware_sweep.values())
    n = LOADS_PER_RANGE * len(SWEEP_RANGES)
    verdict("reduced-cost exactness", worst <= 1e-6,
            f"max relative cost deviation {worst:.2e} over {n} loads "
            f"(plain and cost-capped screening, eps={EPSILON}), "
            f"tolerance 1e-06")


def test_cost_model_validation_error_under_one_percent(train_report14,
                                                       verdict):
    err = train_report14.val_relative_error
    verdict("cost model accuracy", err < 0.01,
            f"held-out mean relative error {100 * err:.3f}% "
            f"(10000 samples, 80/20 split, {train_report14.epochs} epochs)")


def test_reduction_rates_ordered_and_in_expected_band(aware_sweep, verdict):
    d = aware_sweep[0.25]
    mean_bench = 100.0 * d["pct_bench"].mean()
    mean_aware = 100.0 * d["pct_aware"].mean()
    mean_actual = 100.0 * d["pct_actual"].mean()
    in_band = 87.5 <= mean_bench <= 97.5
    ordered = bool(np.all(d["pct_bench"] <= d["pct_aware"] + 1e-12)
                   and np.all(d["pct_aware"] <= d["pct_actual"] + 1e-12))
    ok = in_band and ordered and d["fallback_loads"] == 0
    verdict("reduction-rate band and ordering", ok,
            f"plain {mean_bench:.2f}% (band 87.5-97.5), cost-capped "
            f"{mean_aware:.2f}%, binding-truth {mean_actual:.2f}%; per-load "
            f"ordering held on all {LOADS_PER_RANGE} loads, "
            f"{d['fallback_loads']} bound fallbacks")


def test_agnostic_reduction_non_increasing_with_range(case14, model14,
                                                      dataset14, verdict):
    spec = ExperimentSpec(case=str(FIXTURES / "case14.json"),
                          variation_ranges=(0.0, 0.25, 0.5, 0.75, 1.0),
                          n_validate=2, epsilon=EPSILON,
                          seeds=derive_seeds(MASTER_SEED),
                          mode="agnostic", knn_ks=())
    output = evaluate(spec, case=case14, model=model14,
                      train_dataset=dataset14)
    pct = {}
    for row in output.rows:
        pct.setdefault(row.method, {})[row.range] = row.pct_reduced
    ranges = sorted(spec.variation_ranges)
    ok = True
    for method in ("Benchmark", "CostAware"):
        series = [pct[method][r] for r in ranges]
        ok = ok and all(a >= b - 1e-9 for a, b in zip(series, series[1:]))
    verdict("region screening monotone in range", ok,
            "pct dropped over r=0..1: plain "
            + "/".join(f"{pct['Benchmark'][r]:.1f}" for r in ranges)
            + ", cost-capped "
            + "/".join(f"{pct['CostAware'][r]:.1f}" for r in ranges))


def test_model_gradient_matches_finite_differences(verdict):
    rng = np.random.default_rng(6006)
    checked, attempts, worst = 0, 0, 0.0
    while checked < 100 and attempts < 1000:
        attempts += 1
        model = random_model(rng)
        x = rng.normal(scale=2.0, size=model.n_inputs)
        h = (x - model.input_mean) / model.input_std
        near_kink = False
        for k, (W, b) in enumerate(zip(model.weights, model.biases)):
            z = W @ h + b
            if k < len(model.weights) - 1 and np.abs(z).min() < 1e-3:
                near_kink = True
            h = np.maximum(z, 0.0)
        if near_kink:
            continue
        grad = mlp_input_grad(model, x)
        fd = central_difference(lambda v: mlp_forward(model, v), x)
        worst = max(worst, float(np.max(np.abs(grad - fd)
                                        / np.maximum(1.0, np.abs(fd)))))
        checked += 1
    ok = checked == 100 and worst <= 1e-5
    verdict("gradient vs finite differences", ok,
            f"max relative deviation {worst:.2e} over {checked} models "
            f"away from activation kinks, tolerance 1e-05")


def test_projection_and_ascent_match_oracles(verdict):
    rng = np.random.default_rng(7007)
    proj_dev = 0.0
    for _ in range(100):
        region = random_region(rng, n=int(rng.integers(2, 6)))
        v = rng.normal(scale=4.0, size=region.nominal.shape[0])
        want = project_enumeration(v, region.lower, region.upper, region.level)
        assert want is not None
        proj_dev = max(proj_dev, float(np.max(np.abs(
            project_region(v, region) - want))))

    ascent_gap = 0.0
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
        ascent_gap = max(ascent_gap, abs(result.bound - lp_max)
                         / max(1.0, abs(lp_max)))

    ok = proj_dev <= 1e-7 and ascent_gap <= 1e-6
    verdict("projection and ascent oracles", ok,
            f"max projection deviation {proj_dev:.2e} (100 cases, tol 1e-07); "
            f"max ascent-vs-LP gap {ascent_gap:.2e} (10 linear cases, "
            f"tol 1e-06)")


def test_knn_kept_sets_grow_with_k(form14, region14_half, dataset14, verdict):
    rng = np.random.default_rng(20248)
    queries = sample_loads(region14_half, 100, rng)
    supersets = sum(bool(np.all(knn_screen(dataset14, q, 10)
                                >= knn_screen(dataset14, q, 5)))
                    for q in queries)

    stats = {5: {"err": [], "pct": []}, 10: {"err": [], "pct": []}}
    for q in queries[:20]:
        instance = UcInstance(formulation=form14, load=q)
        full, _ = solve_milp(assemble_uc(form14, q))
        assert full.status == "optimal"
        for k in (5, 10):
            kept = knn_screen(dataset14, q, k)
            red, _ = solve_milp(reduce_by_mask(instance, kept))
            stats[k]["err"].append(
                abs(red.objective_value - full.objective_value)
                / abs(full.objective_value))
            stats[k]["pct"].append(1.0 - kept.mean())
    means = {k: (100 * np.mean(v["pct"]), 100 * np.mean(v["err"]))
             for k, v in stats.items()}
    measured = all(np.isfinite(e) and np.isfinite(p) and 0 <= p <= 100
                   and e >= 0 for p, e in means.values())
    ok = supersets == 100 and measured and means[10][0] <= means[5][0] + 1e-9
    verdict("nearest-neighbour baseline", ok,
            f"k=10 kept-set contained k=5's on {supersets}/100 queries; "
            f"k=5 drops {means[5][0]:.1f}% (cost err {means[5][1]:.3f}%), "
            f"k=10 drops {means[10][0]:.1f}% (cost err {means[10][1]:.3f}%)")


def test_eval_runs_are_deterministic(tmp_path, verdict):
    spec = {"case": str(FIXTURES / "case3.json"),
            "variation_ranges": [0.0, 0.2], "n_train": 60, "n_validate": 3,
            "epsilon": 0.05, "seeds": 5, "mode": "aware", "knn_ks": [2]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))

    def run(name):
        out = tmp_path / name
        assert cli_main(["eval", "--spec", str(spec_path),
                         "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        # method,range,pct_reduced,rel_cost_error — timing columns vary
        stable = "\n".join(",".join(line.split(",")[:4]) for line in rows)
        pairs = (tmp_path / f"{name}.pairs.csv").read_text()
        return stable, pairs, len(rows) - 1

    first, first_pairs, n_rows = run("one.csv")
    second, second_pairs, _ = run("two.csv")
    ok = first == second and first_pairs == second_pairs
    verdict("repeated study runs identical", ok,
            f"{n_rows} metric rows and {len(first_pairs.splitlines()) - 1} "
            f"prediction pairs byte-identical across two runs "
            f"(timing columns excluded)")
