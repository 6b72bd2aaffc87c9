import json

import numpy as np
import pytest

from conftest import FIXTURES
from uc_screen import (
    CSV_HEADER,
    Dataset,
    ExperimentSpec,
    InfeasibleSample,
    LoadRegion,
    MetricsRow,
    MlpModel,
    assemble_uc,
    binding_mask,
    build_formulation,
    derive_seeds,
    evaluate,
    extract_solution,
    generate_dataset,
    load_case,
    sample_loads,
    solve_milp,
    write_csv,
    write_prediction_pairs,
)


def test_derive_seeds_roles_and_determinism():
    seeds = derive_seeds(2024)
    assert set(seeds) == {"dataset", "train", "validate", "pga"}
    assert len(set(seeds.values())) == 4
    assert derive_seeds(2024) == seeds
    assert derive_seeds(2025) != seeds


def test_sample_loads_stay_in_region():
    region = LoadRegion(nominal=np.array([5.0, 10.0, 15.0]), variation=0.5)
    loads = sample_loads(region, 200, np.random.default_rng(0))
    assert loads.shape == (200, 3)
    assert np.all(loads >= region.lower - 1e-9)
    assert np.all(loads <= region.upper + 1e-9)
    np.testing.assert_allclose(loads.sum(axis=1), region.level, rtol=1e-9)
    again = sample_loads(region, 200, np.random.default_rng(0))
    assert again.tobytes() == loads.tobytes()


def test_sample_loads_block_matches_one_at_a_time():
    region = LoadRegion(nominal=np.array([5.0, 10.0, 15.0, 0.0]),
                        variation=0.7, level=33.0)
    block = sample_loads(region, 50, np.random.default_rng(8))
    rng = np.random.default_rng(8)
    rows = np.vstack([sample_loads(region, 1, rng) for _ in range(50)])
    np.testing.assert_allclose(block, rows, rtol=0, atol=1e-12)
    assert sample_loads(region, 0, rng).shape == (0, 4)


def test_binding_mask_orders_uppers_then_lowers(form3):
    # line 0 at +limit and line 2 at -limit
    limits = form3.f_max
    flows = np.array([limits[0], limits[0] - limits[2], -limits[2]])
    mask = binding_mask(form3, flows)
    assert mask.tolist() == [True, False, False, False, False, True]


def test_generate_dataset_records_solutions(form3, case3):
    region = LoadRegion(nominal=case3.nominal_load, variation=0.2)
    data = generate_dataset(form3, region, 12, seed=5)
    assert len(data) == 12
    assert data.loads.shape == (12, 3)
    assert data.binding.shape == (12, 6)
    assert np.all(data.costs >= 0)
    for i in range(0, 12, 4):   # spot-check against fresh solves
        assert region.contains(data.loads[i])
        sol, _ = solve_milp(assemble_uc(form3, data.loads[i]))
        uc = extract_solution(form3, sol)
        assert data.costs[i] == pytest.approx(uc.cost, rel=1e-9)
        np.testing.assert_array_equal(data.binding[i], binding_mask(form3, uc.flows))


def test_generate_dataset_resamples_infeasible_loads():
    # limits sized so the nominal load works but deep corners do not
    doc = {
        "buses": [{"id": 1}, {"id": 2}, {"id": 3}],
        "lines": [
            {"from": 1, "to": 2, "susceptance": 10.0, "flow_limit": 7.2},
            {"from": 1, "to": 3, "susceptance": 10.0, "flow_limit": 4.0},
            {"from": 2, "to": 3, "susceptance": 10.0, "flow_limit": 4.0},
        ],
        "generators": [{"bus": 1, "cost": 20.0, "p_min": 0.0, "p_max": 15.0}],
        "nominal_load": [0.0, 5.0, 5.0],
    }
    case = load_case(json.dumps(doc))
    form = build_formulation(case)
    region = LoadRegion(nominal=case.nominal_load, variation=1.0)
    data = generate_dataset(form, region, 30, seed=3)
    assert len(data) == 30          # resampling filled the quota
    for load in data.loads:         # every record is genuinely feasible
        sol, _ = solve_milp(assemble_uc(form, load))
        assert sol.status == "optimal"


def impossible_case():
    """Two buses whose line cannot carry the load: no load is feasible."""
    return load_case(json.dumps({
        "buses": [{"id": 1}, {"id": 2}],
        "lines": [{"from": 1, "to": 2, "susceptance": 1.0, "flow_limit": 0.5}],
        "generators": [{"bus": 1, "cost": 1.0, "p_min": 0.0, "p_max": 50.0}],
        "nominal_load": [0.0, 10.0],
    }))


def test_generate_dataset_gives_up_on_impossible_region():
    case = impossible_case()
    region = LoadRegion(nominal=case.nominal_load, variation=0.0)
    with pytest.raises(InfeasibleSample):
        generate_dataset(build_formulation(case), region, 3, seed=0)


def test_evaluate_gives_up_on_impossible_validation_region():
    case = impossible_case()
    model = MlpModel(layer_dims=(2, 1), weights=[np.zeros((1, 2))],
                     biases=[np.zeros(1)], input_mean=np.zeros(2),
                     input_std=np.ones(2), output_mean=0.0, output_std=1.0)
    data = Dataset(loads=[[0.0, 10.0]], costs=[10.0],
                   binding=[[False, False]])
    spec = ExperimentSpec(case="unused", variation_ranges=(0.0,),
                          n_train=1, n_validate=2)
    with pytest.raises(InfeasibleSample):
        evaluate(spec, case=case, model=model, train_dataset=data)


def test_metrics_row_csv_line():
    row = MetricsRow(method="Benchmark", range=0.25, pct_reduced=92.5,
                     rel_cost_error=0.0, rel_solution_time=81.25,
                     screen_time_s=1.234567)
    assert row.to_csv_line() == \
        "Benchmark,0.25,92.500000,0.000000,81.250000,1.234567"


def test_write_csv_and_pairs(tmp_path):
    rows = [MetricsRow("Benchmark", 0.0, 90.0, 0.0, 75.0, 0.1),
            MetricsRow("Actual", 0.0, 95.0, 0.0, 70.0, 0.0)]
    out = tmp_path / "results.csv"
    write_csv(rows, out)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("Benchmark,0,90.000000")
    assert len(lines) == 3

    pairs_path = tmp_path / "pairs.csv"
    write_prediction_pairs([(5000.0, 4999.5)], pairs_path)
    lines = pairs_path.read_text().splitlines()
    assert lines == ["actual_cost,predicted_cost", "5000.000000,4999.500000"]


def test_spec_json_round_trip(tmp_path):
    spec = ExperimentSpec(case="fixtures/case14.json",
                          variation_ranges=(0.0, 0.5),
                          n_train=50, n_validate=5, epsilon=0.02,
                          seeds=derive_seeds(7), mode="agnostic",
                          knn_ks=(3,))
    again = ExperimentSpec.from_json(spec.to_json())
    assert again.case == spec.case
    assert again.variation_ranges == (0.0, 0.5)
    assert again.seeds == spec.seeds
    assert again.mode == "agnostic"
    assert again.knn_ks == (3,)

    path = tmp_path / "spec.json"
    path.write_text(spec.to_json())
    assert ExperimentSpec.load(path).epsilon == 0.02


def test_spec_accepts_master_seed_int():
    spec = ExperimentSpec.from_json(json.dumps(
        {"case": "x.json", "seeds": 2024}))
    assert spec.seeds == derive_seeds(2024)


def test_shipped_experiment_spec_loads():
    spec = ExperimentSpec.load(FIXTURES / "exp14.json")
    assert spec.case.endswith("case14.json")
    assert spec.variation_ranges == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert spec.epsilon == 0.01
    assert spec.mode == "aware"
    assert spec.knn_ks == (5, 10)
    assert set(spec.seeds) == {"dataset", "train", "validate", "pga"}


def small_spec(mode, **overrides):
    kwargs = dict(case="unused", variation_ranges=(0.0, 0.2),
                  n_train=80, n_validate=4, epsilon=0.05,
                  seeds=derive_seeds(99), mode=mode, knn_ks=(2, 3))
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


def test_evaluate_sample_aware_smoke(case3):
    out = evaluate(small_spec("aware"), case=case3)
    methods = {(r.method, r.range) for r in out.rows}
    for r in (0.0, 0.2):
        for name in ("Benchmark", "CostAware", "Knn2", "Knn3", "Actual"):
            assert (name, r) in methods
    for row in out.rows:
        assert 0.0 <= row.pct_reduced <= 100.0
        assert row.rel_cost_error >= 0.0
        if row.method == "Benchmark":
            assert row.rel_cost_error <= 1e-4  # exact by the safety argument
        assert np.isfinite(row.rel_solution_time)
    # one (actual, predicted) pair per validation load per range
    assert len(out.prediction_pairs) == 8
    assert out.model is not None and out.train_report is not None
    assert out.fallback_lines == 0


def test_evaluate_sample_agnostic_smoke(case3):
    out = evaluate(small_spec("agnostic"), case=case3)
    methods = {r.method for r in out.rows}
    assert methods == {"Benchmark", "CostAware", "Actual"}
    assert set(out.pga_bounds) == {0.0, 0.2}
    # the running-max construction keeps region bounds monotone
    assert out.pga_bounds[0.2] >= out.pga_bounds[0.0] - 1e-12
    for row in out.rows:
        if row.method == "Benchmark":
            assert row.rel_cost_error <= 1e-4


def test_evaluate_is_deterministic(case3):
    spec = small_spec("aware", n_train=60, n_validate=3)
    a = evaluate(spec, case=case3)
    b = evaluate(spec, case=case3)
    for ra, rb in zip(a.rows, b.rows):
        assert (ra.method, ra.range) == (rb.method, rb.range)
        assert ra.pct_reduced == rb.pct_reduced
        assert ra.rel_cost_error == rb.rel_cost_error
    assert a.prediction_pairs == b.prediction_pairs


def test_evaluate_reuses_injected_model(case3, form3):
    region = LoadRegion(nominal=case3.nominal_load, variation=0.2)
    data = generate_dataset(form3, region, 60, seed=1)
    from uc_screen import TrainConfig, mlp_train
    model, _ = mlp_train(data, TrainConfig(seed=0, max_epochs=60))
    out = evaluate(small_spec("aware"), case=case3, model=model,
                   train_dataset=data)
    assert out.model is model
    assert out.train_dataset is data
    assert out.train_report is None     # nothing trained inline
