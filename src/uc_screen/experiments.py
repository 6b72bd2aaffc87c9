"""Dataset generation and the screening evaluation harness.

`evaluate` reproduces the study design: for each load-variation range it
screens with the benchmark relaxation, the cost-capped relaxation, and
the KNN baseline, then solves full and reduced problems on fresh
validation loads and reports percentage-reduced, relative cost error,
and relative solve time per method.  An "Actual" row carries the
ground-truth redundancy measured from binding sets at the MILP optima.

All randomness flows from named sub-seeds (dataset/train/validate/pga)
derived from a single master seed, so a rerun with the same spec yields
identical rows (timing columns aside).
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleSample
from .formulation import (UcFormulation, UcInstance, assemble_uc,
                          build_formulation, extract_solution)
from .milp import solve_milp
from .netcase import NetworkCase, load_case_file
from .pga import PgaConfig, project_region, run_pga
from .predictor import Dataset, MlpModel, TrainConfig, TrainReport, knn_screen, \
    mlp_forward, mlp_train
from .screening import (TOL_SCREEN_REL, LoadRegion, ScreeningContext,
                        reduce_by_mask, screen_all_keeping_infeasible)

__all__ = [
    "CSV_HEADER",
    "ExperimentSpec",
    "MetricsRow",
    "EvalOutput",
    "derive_seeds",
    "sample_loads",
    "binding_mask",
    "generate_dataset",
    "evaluate",
    "write_csv",
    "write_prediction_pairs",
]

log = logging.getLogger(__name__)

CSV_HEADER = "method,range,pct_reduced,rel_cost_error,rel_solution_time,screen_time_s"

_SEED_ROLES = ("dataset", "train", "validate", "pga")


def derive_seeds(master: int) -> dict[str, int]:
    """Expand one master seed into independent per-role seeds."""
    children = np.random.SeedSequence(master).spawn(len(_SEED_ROLES))
    return {role: int(child.generate_state(1)[0])
            for role, child in zip(_SEED_ROLES, children)}


@dataclass
class ExperimentSpec:
    case: str
    variation_ranges: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    load_level: float | None = None
    n_train: int = 1000
    n_validate: int = 100
    epsilon: float = 0.01
    seeds: dict[str, int] = field(default_factory=lambda: derive_seeds(0))
    mode: str = "aware"            # "aware" | "agnostic"
    knn_ks: tuple[int, ...] = (5, 10)

    def __post_init__(self):
        self.variation_ranges = tuple(float(r) for r in self.variation_ranges)
        if any(not 0.0 <= r <= 1.0 for r in self.variation_ranges):
            raise ValueError("variation ranges must lie in [0, 1]")
        if self.n_train < 1 or self.n_validate < 1:
            raise ValueError("sample counts must be >= 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if any(k < 1 for k in self.knn_ks):
            raise ValueError("KNN k values must be >= 1")
        if self.mode not in ("aware", "agnostic"):
            raise ValueError(f"unknown mode {self.mode!r}")
        missing = [r for r in _SEED_ROLES if r not in self.seeds]
        if missing:
            raise ValueError(f"seeds missing roles: {missing}")

    def to_json(self) -> str:
        doc = {"case": self.case,
               "variation_ranges": list(self.variation_ranges),
               "load_level": self.load_level,
               "n_train": self.n_train,
               "n_validate": self.n_validate,
               "epsilon": self.epsilon,
               "seeds": dict(self.seeds),
               "mode": self.mode,
               "knn_ks": list(self.knn_ks)}
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        doc = json.loads(text)
        seeds = doc.get("seeds", 0)
        if isinstance(seeds, int):
            seeds = derive_seeds(seeds)
        kwargs = {"case": doc["case"], "seeds": seeds}
        for key in ("variation_ranges", "load_level", "n_train", "n_validate",
                    "epsilon", "mode", "knn_ks"):
            if key in doc and doc[key] is not None:
                kwargs[key] = tuple(doc[key]) if key in (
                    "variation_ranges", "knn_ks") else doc[key]
        return cls(**kwargs)

    @classmethod
    def load(cls, path) -> "ExperimentSpec":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())


@dataclass
class MetricsRow:
    method: str
    range: float
    pct_reduced: float             # percent of the 2m bound-sides dropped
    rel_cost_error: float          # percent
    rel_solution_time: float       # percent, reduced vs full solve time
    screen_time_s: float

    def to_csv_line(self) -> str:
        return (f"{self.method},{self.range:g},{self.pct_reduced:.6f},"
                f"{self.rel_cost_error:.6f},{self.rel_solution_time:.6f},"
                f"{self.screen_time_s:.6f}")


@dataclass
class EvalOutput:
    rows: list[MetricsRow]
    prediction_pairs: list[tuple[float, float]]   # (actual, predicted)
    pga_bounds: dict[float, float]
    model: MlpModel | None
    train_dataset: Dataset | None
    train_report: TrainReport | None
    fallback_lines: int = 0


def sample_loads(region: LoadRegion, count: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Draw count loads uniform in the box, projected onto the level plane."""
    draws = rng.uniform(region.lower, region.upper,
                        size=(count, len(region.nominal)))
    return project_region(draws, region)


def binding_mask(form: UcFormulation, flows: np.ndarray) -> np.ndarray:
    """(2m,) flags: side j / m+j binding iff |flow ∓ limit| <= 1e-6*limit."""
    tol = TOL_SCREEN_REL * form.f_max
    return np.concatenate([np.abs(flows - form.f_max) <= tol,
                           np.abs(flows + form.f_max) <= tol])


def _solve_uc(form: UcFormulation, load):
    problem = assemble_uc(form, load)
    t0 = time.perf_counter()
    sol, _ = solve_milp(problem)
    return sol, time.perf_counter() - t0


def _feasible_draws(form: UcFormulation, region: LoadRegion, count: int,
                    rng: np.random.Generator):
    """Draw count loads that have a feasible commitment, with their solutions
    and full-MILP solve times.

    Infeasible draws are resampled; a region where feasible loads are too
    rare raises InfeasibleSample after 50·count + 100 draws.
    """
    loads, solutions, times = [], [], []
    limit = 50 * count + 100
    draws = 0
    while len(loads) < count:
        if draws == limit:
            raise InfeasibleSample(
                f"only {len(loads)}/{count} feasible loads after {draws} draws")
        draws += 1
        load = sample_loads(region, 1, rng)[0]
        sol, dt = _solve_uc(form, load)
        if sol.status != "optimal":
            continue
        loads.append(load)
        solutions.append(extract_solution(form, sol))
        times.append(dt)
    if draws > count:
        log.warning("range %g: resampled %d infeasible loads",
                    region.variation, draws - count)
    return loads, solutions, times


def generate_dataset(case: NetworkCase | UcFormulation, region: LoadRegion,
                     count: int, seed: int) -> Dataset:
    """Sample loads in the region and record cost and binding sides.

    Loads with no feasible commitment are resampled so the dataset size
    is exact; a region where feasible loads are too rare raises
    InfeasibleSample.
    """
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    form = case if isinstance(case, UcFormulation) else build_formulation(case)
    loads, solutions, _ = _feasible_draws(form, region, count,
                                          np.random.default_rng(seed))
    return Dataset(loads=np.reshape(loads, (count, form.n_buses)),
                   costs=[uc.cost for uc in solutions],
                   binding=np.reshape([binding_mask(form, uc.flows)
                                       for uc in solutions],
                                      (count, 2 * form.n_lines)),
                   seed=seed, region=region)


def _region_for(spec: ExperimentSpec, case: NetworkCase, r: float) -> LoadRegion:
    return LoadRegion(nominal=case.nominal_load, variation=r,
                      level=spec.load_level)


@dataclass
class _Tally:
    """Accumulates one method's per-sample results within a range."""
    pct: list[float] = field(default_factory=list)
    err: list[float] = field(default_factory=list)
    t_reduced: float = 0.0
    screen_time: float = 0.0

    def add_solve(self, instance, kept_mask, cost_full):
        self.pct.append(1.0 - kept_mask.mean())
        reduced = reduce_by_mask(instance, kept_mask)
        t0 = time.perf_counter()
        sol, _ = solve_milp(reduced)
        self.t_reduced += time.perf_counter() - t0
        if sol.status != "optimal":
            # A safe reduction never loses the optimum; treat as total error.
            self.err.append(1.0)
            return
        denom = max(abs(cost_full), 1e-12)
        self.err.append(abs(sol.objective_value - cost_full) / denom)

    def row(self, method: str, r: float, t_full: float) -> MetricsRow:
        pct = float(np.mean(self.pct)) if self.pct else 0.0
        err = float(np.mean(self.err)) if self.err else 0.0
        rel_time = 100.0 * self.t_reduced / t_full if t_full > 0 else 0.0
        return MetricsRow(method=method, range=r, pct_reduced=100.0 * pct,
                          rel_cost_error=100.0 * err,
                          rel_solution_time=rel_time,
                          screen_time_s=self.screen_time)


def evaluate(spec: ExperimentSpec, *, case: NetworkCase | None = None,
             model: MlpModel | None = None,
             train_dataset: Dataset | None = None) -> EvalOutput:
    """Run the spec's screening study and return its metric rows.

    A model/dataset pair may be injected to reuse earlier artifacts;
    otherwise `n_train` samples are generated on the widest range and the
    predictor is trained inline.  Ranges are processed in ascending order
    (the cost bound for sample-agnostic screening is the running max of
    the per-region ascent bounds, which keeps it valid and monotone).
    """
    if case is None:
        case = load_case_file(spec.case)
    form = build_formulation(case)
    ranges = sorted(spec.variation_ranges)
    train_region = _region_for(spec, case, max(ranges))

    if train_dataset is None:
        train_dataset = generate_dataset(form, train_region, spec.n_train,
                                         spec.seeds["dataset"])
    train_report = None
    if model is None:
        model, train_report = mlp_train(
            train_dataset, TrainConfig(seed=spec.seeds["train"]))

    rows: list[MetricsRow] = []
    pairs: list[tuple[float, float]] = []
    pga_bounds: dict[float, float] = {}
    fallback_total = 0
    running_bound = -np.inf

    for ri, r in enumerate(ranges):
        region = _region_for(spec, case, r)
        loads, solutions, times = _feasible_draws(
            form, region, spec.n_validate,
            np.random.default_rng([spec.seeds["validate"], ri]))
        full_costs = [uc.cost for uc in solutions]
        full_masks = [binding_mask(form, uc.flows) for uc in solutions]
        t_full = sum(times)
        pairs += [(uc.cost, mlp_forward(model, load))
                  for load, uc in zip(loads, solutions)]

        if spec.mode == "agnostic":
            result = run_pga(model, region,
                             PgaConfig(seed=spec.seeds["pga"]))
            running_bound = max(running_bound, result.bound)
            pga_bounds[r] = running_bound

            t0 = time.perf_counter()
            bench_report, nf = screen_all_keeping_infeasible(
                form, ScreeningContext.sample_agnostic(region))
            bench_screen_t = time.perf_counter() - t0
            fallback_total += nf
            t0 = time.perf_counter()
            ca_report, nf = screen_all_keeping_infeasible(
                form, ScreeningContext.sample_agnostic(
                    region, cost_bound=running_bound, epsilon=spec.epsilon))
            ca_screen_t = time.perf_counter() - t0
            fallback_total += nf

            tallies = {"Benchmark": _Tally(screen_time=bench_screen_t),
                       "CostAware": _Tally(screen_time=ca_screen_t),
                       "Actual": _Tally()}
            masks = {"Benchmark": bench_report.kept_mask(),
                     "CostAware": ca_report.kept_mask(),
                     "Actual": np.logical_or.reduce(full_masks)}
            for load, cost in zip(loads, full_costs):
                instance = UcInstance(formulation=form, load=load)
                for name, kept in masks.items():
                    tallies[name].add_solve(instance, kept, cost)
            for name, tally in tallies.items():
                rows.append(tally.row(name, r, t_full))
            continue

        tallies = {"Benchmark": _Tally(), "CostAware": _Tally()}
        for k in spec.knn_ks:
            tallies[f"Knn{k}"] = _Tally()
        tallies["Actual"] = _Tally()

        for load, cost, mask in zip(loads, full_costs, full_masks):
            instance = UcInstance(formulation=form, load=load)

            t0 = time.perf_counter()
            report, nf = screen_all_keeping_infeasible(
                form, ScreeningContext.sample_aware(load))
            tallies["Benchmark"].screen_time += time.perf_counter() - t0
            fallback_total += nf
            tallies["Benchmark"].add_solve(instance, report.kept_mask(), cost)

            t0 = time.perf_counter()
            report, nf = screen_all_keeping_infeasible(
                form, ScreeningContext.sample_aware(
                    load, cost_bound=mlp_forward(model, load),
                    epsilon=spec.epsilon))
            tallies["CostAware"].screen_time += time.perf_counter() - t0
            fallback_total += nf
            tallies["CostAware"].add_solve(instance, report.kept_mask(), cost)

            for k in spec.knn_ks:
                t0 = time.perf_counter()
                kept = knn_screen(train_dataset, load, k)
                tallies[f"Knn{k}"].screen_time += time.perf_counter() - t0
                tallies[f"Knn{k}"].add_solve(instance, kept, cost)

            tallies["Actual"].add_solve(instance, mask, cost)

        for name, tally in tallies.items():
            rows.append(tally.row(name, r, t_full))

    return EvalOutput(rows=rows, prediction_pairs=pairs,
                      pga_bounds=pga_bounds, model=model,
                      train_dataset=train_dataset, train_report=train_report,
                      fallback_lines=fallback_total)


def write_csv(rows: list[MetricsRow], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.to_csv_line() + "\n")


def write_prediction_pairs(pairs: list[tuple[float, float]], path) -> None:
    """Predicted-vs-actual cost pairs as CSV, for external plotting."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("actual_cost,predicted_cost\n")
        for actual, pred in pairs:
            fh.write(f"{actual:.6f},{pred:.6f}\n")
