import json

import numpy as np
import pytest

from conftest import FIXTURES
from uc_screen import MlpModel, ScreeningReport, __version__
from uc_screen.cli import main

CASE3 = str(FIXTURES / "case3.json")
CASE14 = str(FIXTURES / "case14.json")


def test_version(capsys):
    assert main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_no_subcommand_is_usage_error():
    assert main([]) == 1


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_case_validate(capsys):
    assert main(["case", "validate", CASE14]) == 0
    assert capsys.readouterr().out.strip() == "OK, n=14 m=20"


def test_case_validate_missing_file():
    assert main(["case", "validate", "/nonexistent/case.json"]) == 1


def test_case_validate_bad_case(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"buses": []}')
    assert main(["case", "validate", str(bad)]) == 1


def test_datagen_train_screen_solve_pipeline(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    assert main(["datagen", "--case", CASE3, "--range", "0.2",
                 "--count", "40", "--seed", "3", "--out", str(data)]) == 0
    assert len(data.read_text().splitlines()) == 40
    manifest = json.loads((tmp_path / "data.jsonl.manifest.json").read_text())
    assert set(manifest) == {"config_sha256", "seeds", "versions"}
    assert len(manifest["config_sha256"]) == 64
    assert manifest["versions"]["uc_screen"] == __version__

    model_path = tmp_path / "model.json"
    assert main(["train", str(data), "--seed", "1",
                 "--out", str(model_path)]) == 0
    out = capsys.readouterr().out
    assert "val relative error" in out
    model = MlpModel.load(model_path)
    assert model.n_inputs == 3

    report_path = tmp_path / "report.json"
    assert main(["screen", "--case", CASE3, "--out", str(report_path)]) == 0
    report = ScreeningReport.from_json(report_path.read_text())
    assert report.n_lines == 3
    assert report.context.is_sample_aware

    # cost-aware pass reusing the trained model
    assert main(["screen", "--case", CASE3, "--cost-bound", "nn",
                 "--model", str(model_path), "--epsilon", "0.05",
                 "--out", str(report_path)]) == 0
    report = ScreeningReport.from_json(report_path.read_text())
    assert report.context.cost_bound is not None

    solution_path = tmp_path / "solution.json"
    lp_path = tmp_path / "full.lp"
    assert main(["solve", "--case", CASE3, "--out", str(solution_path),
                 "--lp-export", str(lp_path)]) == 0
    out = capsys.readouterr().out
    assert "cost 200.000000" in out
    doc = json.loads(solution_path.read_text())
    assert doc["cost"] == pytest.approx(200.0)
    assert doc["commitment"] == [1, 0]
    assert "Minimize" in lp_path.read_text()


def test_screen_agnostic_with_lp_export(tmp_path):
    report_path = tmp_path / "report.json"
    export_dir = tmp_path / "lps"
    assert main(["screen", "--case", CASE3, "--mode", "agnostic",
                 "--range", "0.3", "--out", str(report_path),
                 "--lp-export", str(export_dir)]) == 0
    report = ScreeningReport.from_json(report_path.read_text())
    assert not report.context.is_sample_aware
    assert report.context.region.variation == 0.3
    exported = sorted(export_dir.glob("*.lp"))
    assert len(exported) == 6   # max and min per line
    assert "Subject To" in exported[0].read_text()


def test_screen_nn_bound_requires_model():
    assert main(["screen", "--case", CASE3, "--cost-bound", "nn"]) == 1


def test_solve_with_explicit_load(tmp_path, capsys):
    load_path = tmp_path / "load.json"
    load_path.write_text("[0.0, 4.0, 4.0]")
    assert main(["solve", "--case", CASE3, "--load", str(load_path)]) == 0
    assert "cost" in capsys.readouterr().out


@pytest.mark.parametrize("verb", ["solve", "screen"])
@pytest.mark.parametrize("load", [[1.0, 2.0, 3.0], [-1.0] + [5.0] * 13,
                                  [float("nan")] + [5.0] * 13],
                         ids=["wrong_length", "negative", "nan"])
def test_bad_load_file_is_bad_input(tmp_path, capsys, verb, load):
    load_path = tmp_path / "load.json"
    load_path.write_text(json.dumps(load))
    assert main([verb, "--case", CASE14, "--load", str(load_path)]) == 1
    assert "load vector" in capsys.readouterr().err


def test_pga_bound_command(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    model_path = tmp_path / "model.json"
    assert main(["datagen", "--case", CASE3, "--range", "0.2",
                 "--count", "30", "--seed", "0", "--out", str(data)]) == 0
    assert main(["train", str(data), "--out", str(model_path)]) == 0
    bound_path = tmp_path / "bound.json"
    assert main(["pga-bound", "--case", CASE3, "--range", "0.2",
                 "--model", str(model_path), "--out", str(bound_path)]) == 0
    assert "bound" in capsys.readouterr().out
    doc = json.loads(bound_path.read_text())
    assert np.isfinite(doc["bound"])
    assert len(doc["argmax_load"]) == 3


def eval_spec_file(tmp_path, **overrides):
    doc = {"case": CASE3, "variation_ranges": [0.0, 0.2], "n_train": 60,
           "n_validate": 3, "epsilon": 0.05, "seeds": 5, "mode": "aware",
           "knn_ks": [2]}
    doc.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return path


def test_eval_and_report(tmp_path, capsys):
    spec = eval_spec_file(tmp_path)
    out_csv = tmp_path / "results.csv"
    assert main(["eval", "--spec", str(spec), "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == ("method,range,pct_reduced,rel_cost_error,"
                        "rel_solution_time,screen_time_s")
    methods = {line.split(",")[0] for line in lines[1:]}
    assert methods == {"Benchmark", "CostAware", "Knn2", "Actual"}
    assert (tmp_path / "results.csv.manifest.json").exists()
    pairs = (tmp_path / "results.csv.pairs.csv").read_text().splitlines()
    assert pairs[0] == "actual_cost,predicted_cost"
    assert len(pairs) == 1 + 2 * 3      # ranges x validation loads

    capsys.readouterr()
    assert main(["report", str(out_csv)]) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[0].split()[:2] == ["method", "range"]
    assert len(table) == len(lines)


def test_eval_agnostic_mode_override(tmp_path):
    spec = eval_spec_file(tmp_path)
    out_csv = tmp_path / "agnostic.csv"
    assert main(["eval", "--spec", str(spec), "--out", str(out_csv),
                 "--mode", "agnostic"]) == 0
    methods = {line.split(",")[0]
               for line in out_csv.read_text().splitlines()[1:]}
    assert methods == {"Benchmark", "CostAware", "Actual"}


@pytest.mark.parametrize("argv", [
    ["datagen", "--case", CASE3, "--count", "-1"],
    ["eval", "--count", "0"],
    ["eval", "--epsilon", "-1"],
    ["eval", "--k", "0"],
], ids=["datagen_count", "eval_count", "eval_epsilon", "eval_k"])
def test_bad_count_or_override_fails_before_sampling(tmp_path, monkeypatch, argv):
    def no_sampling(*args, **kwargs):
        raise AssertionError("loads were drawn before the input was checked")

    monkeypatch.setattr("uc_screen.experiments._feasible_draws", no_sampling)
    if argv[0] == "eval":
        argv = argv + ["--spec", str(eval_spec_file(tmp_path))]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert not out.exists()


def test_empty_dataset_is_runtime_failure(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["train", str(empty), "--out", str(tmp_path / "m.json")]) == 2


def test_impossible_region_is_runtime_failure(tmp_path):
    assert main(["datagen", "--case", CASE3, "--range", "1.5",
                 "--count", "5", "--out", str(tmp_path / "d.jsonl")]) == 2
