"""Command-line entry point: `uc-screen <subcommand>`.

One verb per pipeline stage so artifacts (datasets, models, screening
reports) can be cached between runs:

    case validate  — parse and check a case file
    datagen        — sample loads, solve them, write a JSONL dataset
    train          — fit the cost predictor on a dataset
    pga-bound      — region-wide cost bound via projected gradient ascent
    screen         — screen one case, write the report JSON
    solve          — solve the full problem for one load
    eval           — full study: all methods × ranges, metrics CSV
    report         — print a results CSV as an aligned table

Every file written is accompanied by `<file>.manifest.json` recording
the seeds and a hash of the effective configuration.  Exit codes:
0 success, 1 bad input (usage or validation), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import sys

import numpy as np

from . import __version__
from .errors import ParseError, UcScreenError, ValidationError
from .experiments import (ExperimentSpec, derive_seeds, evaluate,
                          generate_dataset, write_csv, write_prediction_pairs)
from .formulation import assemble_uc, build_formulation, extract_solution
from .lp import to_lp_format
from .milp import solve_milp
from .netcase import load_case_file, validate_load
from .pga import PgaConfig, run_pga
from .predictor import Dataset, MlpModel, TrainConfig, mlp_forward, mlp_train
from .screening import (LoadRegion, ScreeningContext,
                        screen_all_keeping_infeasible)

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we use 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _write_manifest(out_path: str, config: dict, seeds) -> None:
    blob = json.dumps(config, sort_keys=True).encode()
    manifest = {
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "seeds": seeds,
        "versions": {"uc_screen": __version__,
                     "numpy": np.__version__,
                     "python": sys.version.split()[0]},
    }
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2) + "\n")


def _read_load(path: str | None, case) -> np.ndarray:
    if path is None:
        return case.nominal_load.copy()
    with open(path, encoding="utf-8") as fh:
        values = json.load(fh)
    return validate_load(values, case.n_buses)


def _region_from_args(case, args) -> LoadRegion:
    return LoadRegion(nominal=case.nominal_load, variation=args.range,
                      level=args.level)


def cmd_case_validate(args) -> int:
    case = load_case_file(args.path)
    print(f"OK, n={case.n_buses} m={case.n_lines}")
    return 0


def cmd_datagen(args) -> int:
    case = load_case_file(args.case)
    region = _region_from_args(case, args)
    dataset = generate_dataset(case, region, args.count, args.seed)
    dataset.save_jsonl(args.out)
    _write_manifest(args.out,
                    {"case": args.case, "range": args.range,
                     "level": region.level, "count": args.count},
                    {"dataset": args.seed})
    print(f"wrote {args.count} samples to {args.out}")
    return 0


def cmd_train(args) -> int:
    dataset = Dataset.load_jsonl(args.data)
    model, report = mlp_train(dataset, TrainConfig(seed=args.seed))
    model.save(args.out)
    _write_manifest(args.out, {"data": args.data}, {"train": args.seed})
    print(f"trained {report.epochs} epochs, "
          f"val relative error {100 * report.val_relative_error:.3f}%")
    return 0


def cmd_pga_bound(args) -> int:
    case = load_case_file(args.case)
    region = _region_from_args(case, args)
    model = MlpModel.load(args.model)
    result = run_pga(model, region, PgaConfig(seed=args.seed))
    print(f"bound {result.bound:.6f} after {result.iterates} iterations")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(result.to_json_dict(), indent=2) + "\n")
        _write_manifest(args.out,
                        {"case": args.case, "range": args.range,
                         "level": region.level, "model": args.model},
                        {"pga": args.seed})
    return 0


def cmd_screen(args) -> int:
    case = load_case_file(args.case)
    form = build_formulation(case)

    cost_bound = None
    if args.cost_bound == "nn":
        if not args.model:
            raise ValidationError("--cost-bound nn requires --model")
        model = MlpModel.load(args.model)

    if args.mode == "aware":
        load = _read_load(args.load, case)
        if args.cost_bound == "nn":
            cost_bound = mlp_forward(model, load)
        context = ScreeningContext.sample_aware(load, cost_bound=cost_bound,
                                                epsilon=args.epsilon)
    else:
        region = _region_from_args(case, args)
        if args.cost_bound == "nn":
            cost_bound = run_pga(model, region,
                                 PgaConfig(seed=args.seed)).bound
        context = ScreeningContext.sample_agnostic(
            region, cost_bound=cost_bound, epsilon=args.epsilon)

    if args.lp_export:
        from .formulation import assemble_screening
        import os
        os.makedirs(args.lp_export, exist_ok=True)
        for j in range(form.n_lines):
            for direction in ("max", "min"):
                problem = assemble_screening(form, context, j, direction)
                path = os.path.join(args.lp_export, f"{problem.name}.lp")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(to_lp_format(problem))

    report, _ = screen_all_keeping_infeasible(form, context)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        _write_manifest(args.out,
                        {"case": args.case, "mode": args.mode,
                         "epsilon": args.epsilon,
                         "cost_bound": cost_bound},
                        {"pga": args.seed} if args.mode == "agnostic" else {})
    print(f"screened {form.n_lines} lines: "
          f"{100 * report.pct_reduced:.1f}% of bound-sides redundant")
    return 0


def cmd_solve(args) -> int:
    case = load_case_file(args.case)
    form = build_formulation(case)
    load = _read_load(args.load, case)
    problem = assemble_uc(form, load)
    if args.lp_export:
        with open(args.lp_export, "w", encoding="utf-8") as fh:
            fh.write(to_lp_format(problem.base))
    sol, stats = solve_milp(problem)
    if sol.status != "optimal":
        print(f"status: {sol.status}")
        return 0
    uc = extract_solution(form, sol)
    print(f"cost {uc.cost:.6f}  commitment {uc.u.astype(int).tolist()}  "
          f"({stats.nodes_explored} nodes)")
    if args.out:
        doc = {"status": "optimal", "cost": uc.cost,
               "commitment": uc.u.astype(int).tolist(),
               "dispatch": uc.x.tolist(),
               "flows": uc.flows.tolist()}
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
        _write_manifest(args.out, {"case": args.case}, {})
    return 0


def cmd_eval(args) -> int:
    overrides = {"seeds": None if args.seed is None else derive_seeds(args.seed),
                 "epsilon": args.epsilon,
                 "mode": args.mode,
                 "n_validate": args.count,
                 "knn_ks": None if args.k is None else (args.k,)}
    # replace() runs the spec's validation again on the overridden values
    spec = dataclasses.replace(
        ExperimentSpec.load(args.spec),
        **{key: value for key, value in overrides.items() if value is not None})

    output = evaluate(spec)
    write_csv(output.rows, args.out)
    _write_manifest(args.out, json.loads(spec.to_json()), spec.seeds)
    pairs_path = args.out + ".pairs.csv"
    write_prediction_pairs(output.prediction_pairs, pairs_path)
    _write_manifest(pairs_path, json.loads(spec.to_json()), spec.seeds)
    if output.fallback_lines:
        print(f"warning: {output.fallback_lines} screening fallbacks",
              file=sys.stderr)
    print(f"wrote {len(output.rows)} rows to {args.out}")
    return 0


def cmd_report(args) -> int:
    with open(args.results, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows
              else len(header[i]) for i in range(len(header))]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="uc-screen",
                     description="Constraint screening for single-period "
                                 "unit commitment.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    case_p = sub.add_parser("case", help="case-file utilities")
    case_sub = case_p.add_subparsers(dest="case_command", required=True)
    val_p = case_sub.add_parser("validate", help="parse and validate a case")
    val_p.add_argument("path")
    val_p.set_defaults(func=cmd_case_validate)

    def add_region_flags(p):
        p.add_argument("--range", type=float, default=0.0,
                       help="load variation ratio r (default 0)")
        p.add_argument("--level", type=float, default=None,
                       help="total load level (default: nominal sum)")

    p = sub.add_parser("datagen", help="generate a solved-load dataset")
    p.add_argument("--case", required=True)
    add_region_flags(p)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("train", help="train the cost predictor")
    p.add_argument("data", help="dataset JSONL path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("pga-bound", help="region cost bound by ascent")
    p.add_argument("--case", required=True)
    add_region_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pga_bound)

    p = sub.add_parser("screen", help="screen a case, write report JSON")
    p.add_argument("--case", required=True)
    p.add_argument("--mode", choices=("aware", "agnostic"), default="aware")
    add_region_flags(p)
    p.add_argument("--load", help="JSON load vector (default: nominal)")
    p.add_argument("--cost-bound", choices=("none", "nn"), default="none")
    p.add_argument("--model", help="model file for --cost-bound nn")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--lp-export", help="directory for LP-format exports")
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("solve", help="solve the full problem for one load")
    p.add_argument("--case", required=True)
    p.add_argument("--load", help="JSON load vector (default: nominal)")
    p.add_argument("--out")
    p.add_argument("--lp-export", help="file for the LP-format export")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", help="run a full screening study")
    p.add_argument("--spec", required=True, help="experiment spec JSON")
    p.add_argument("--out", required=True, help="metrics CSV path")
    p.add_argument("--seed", type=int, help="override master seed")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--mode", choices=("aware", "agnostic"))
    p.add_argument("--count", type=int, help="override validation count")
    p.add_argument("--k", type=int, help="evaluate a single KNN k")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="print a results CSV as a table")
    p.add_argument("results")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (ParseError, ValidationError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UcScreenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
