#!/usr/bin/env python3
"""uc-screen benchmark: three case14 workloads driven through the library API.

Run from the repository root:

    python3 perfbench/run.py --workload aware --seed 0 --seconds 20 --trace 0

One process and one client thread in a closed loop: the next item starts
when the previous one has returned.  ``--trace 0`` serves items until
``--seconds`` of timed work have passed and reports the end-to-end
metrics.  ``--trace 1`` serves a fixed number of items (set by the
workload and ``--seconds``), each once untraced and once traced, and
reports per-layer counts and self times.  Every served optimum is
checked off the clock against the HiGHS oracle in ``oracle.py``.  The last line of
standard output is the JSON result; README.md explains the workloads,
the metrics and which layer should move which end-to-end number.
"""

import os

# Pin native thread pools before numpy loads, and switch off uc_screen's
# own thread fan-out, so one run uses one core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("UC_SCREEN_THREADS", None)

import argparse
import itertools
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
CASE = ROOT / "fixtures" / "case14.json"
if not (ROOT / "src" / "uc_screen" / "__init__.py").is_file() or not CASE.is_file():
    sys.exit(f"perfbench: no uc_screen sources or fixtures/case14.json under {ROOT}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np
import scipy

import uc_screen
import uc_screen.experiments
import uc_screen.milp
import uc_screen.pga
import uc_screen.screening
from uc_screen import (INFEASIBLE, OPTIMAL, Dataset, LoadRegion, PgaConfig,
                       ScreeningContext, TrainConfig, UcInstance,
                       build_formulation, load_case_file, reduce_instance)

from oracle import UcOracle, same_cost
from spans import Tracer

EPSILON = 0.01                  # CostAware relaxation of fixtures/exp14.json
BOX = 0.5                       # aware, datagen and training loads: (1±BOX) box
LADDER = (0.1, 0.2, 0.3, 0.4, 0.5)   # region workload's ranges, ascending
LOADS_PER_REGION = 50
N_TRAIN = 300                   # HiGHS-labelled loads the cost model trains on
# The training set and training seed do not follow --seed: the cost model
# is part of the set-up, the same in every run, like the case file.  A
# seed-dependent model made set-up time (early stopping) and the share of
# loads that need the screening fallback differ from run to run.
TRAIN_SEED = 0
SETUP_SAMPLES = 10              # set-up bursts per untraced run
# Seconds per item when this benchmark was written (2-CPU x86-64 Xeon);
# they fix the traced runs' item counts, so those counts depend only on
# the seed and --seconds.
NOMINAL_ITEM_S = {"aware": 0.1, "datagen": 0.013, "region": 4.5}

END_TO_END = {"setup_s": "s", "loads_per_s": "loads/s", "load_p50_ms": "ms",
              "load_p90_ms": "ms", "pct_reduced": "%", "peak_rss_mb": "MB"}


@dataclass
class Served:
    load: np.ndarray
    cost: float | None          # served optimum; None when none was proven
    latency_s: float
    pct_reduced: float          # percent of the 2m flow bound-sides dropped


def item_rng(seed, *keys):
    return np.random.default_rng([seed, *keys])


def draw_loads(nominal, r, count, rng):
    """Loads uniform in the (1±r) box, projected onto the nominal level plane.

    The projection is clip(v - lam, lo, hi) with each row's multiplier
    lam found by bisection, written here so that the inputs do not move
    when uc_screen's own sampler or projection changes.
    """
    lo, hi = (1.0 - r) * nominal, (1.0 + r) * nominal
    v = rng.uniform(lo, hi, size=(count, len(nominal)))
    level = nominal.sum()
    lam_lo = (v - hi).min(axis=1)
    lam_hi = (v - lo).max(axis=1)
    for _ in range(100):
        lam = 0.5 * (lam_lo + lam_hi)
        over = np.clip(v - lam[:, None], lo, hi).sum(axis=1) > level
        lam_lo = np.where(over, lam, lam_lo)
        lam_hi = np.where(over, lam_hi, lam)
    return np.clip(v - (0.5 * (lam_lo + lam_hi))[:, None], lo, hi)


def training_set(oracle, nominal):
    loads = draw_loads(nominal, BOX, N_TRAIN, item_rng(TRAIN_SEED, 0))
    labelled = [(load, oracle.solve(load)) for load in loads]
    labelled = [(load, ref) for load, ref in labelled if ref is not None]
    return Dataset(loads=np.array([load for load, _ in labelled]),
                   costs=np.array([ref[0] for _, ref in labelled]),
                   binding=np.array([oracle.binding(ref[1])
                                     for _, ref in labelled]))


def served_cost(sol):
    return sol.objective_value if sol.status == OPTIMAL else None


def serve_aware(ctx, k):
    """Predict the cost, screen with the capped aware LPs, solve reduced."""
    load = draw_loads(ctx.nominal, BOX, 1, item_rng(ctx.seed, 1, k))[0]
    t0 = time.perf_counter()
    bound = ctx.api.mlp_forward(ctx.model, load)
    report, _ = ctx.api.screen_all_keeping_infeasible(
        ctx.form, ScreeningContext.sample_aware(load, cost_bound=bound,
                                                epsilon=EPSILON))
    sol, _ = ctx.api.solve_milp(
        reduce_instance(UcInstance(formulation=ctx.form, load=load), report))
    dt = time.perf_counter() - t0
    return [Served(load, served_cost(sol), dt, 100.0 * report.pct_reduced)], dt, None


def serve_datagen(ctx, k):
    """One labelled sample from generate_dataset: full-MILP B&B only.

    pct_reduced here is the share of bound-sides not binding at the
    labelled optimum, the reduction an exact screen could reach.
    """
    t0 = time.perf_counter()
    data = ctx.api.generate_dataset(ctx.form, ctx.region, 1,
                                    seed=int(item_rng(ctx.seed, 2, k).integers(2**63)))
    dt = time.perf_counter() - t0
    pct = 100.0 * (1.0 - data.binding[0].mean())
    return [Served(data.loads[0], float(data.costs[0]), dt, pct)], dt, None


def serve_region(ctx, k):
    """PGA bound and capped agnostic screening for one region, then serve
    its loads with reduced MILPs.  The cost cap is the running max of the
    PGA bounds over the ladder so far, as in uc_screen's evaluate."""
    r = LADDER[k % len(LADDER)]
    region = LoadRegion(nominal=ctx.nominal, variation=r)
    loads = draw_loads(ctx.nominal, r, LOADS_PER_REGION, item_rng(ctx.seed, 3, k))
    pga_seed = int(item_rng(ctx.seed, 4, k).integers(2**63))
    t0 = time.perf_counter()
    result = ctx.api.run_pga(ctx.model, region, PgaConfig(seed=pga_seed))
    ladder_pass = k // len(LADDER)
    bound = max(ctx.running_bound.get(ladder_pass, -np.inf), result.bound)
    ctx.running_bound[ladder_pass] = bound
    report, _ = ctx.api.screen_all_keeping_infeasible(
        ctx.form, ScreeningContext.sample_agnostic(region, cost_bound=bound,
                                                   epsilon=EPSILON))
    report_s = time.perf_counter() - t0
    served = []
    for load in loads:
        t1 = time.perf_counter()
        sol, _ = ctx.api.solve_milp(
            reduce_instance(UcInstance(formulation=ctx.form, load=load), report))
        served.append(Served(load, served_cost(sol), time.perf_counter() - t1,
                             100.0 * report.pct_reduced))
    return served, time.perf_counter() - t0, report_s


WORKLOADS = {
    "aware": (serve_aware, 1, True),
    "datagen": (serve_datagen, 1, False),
    "region": (serve_region, LOADS_PER_REGION, True),
}


def set_up(ctx, train_set):
    """Parse the case, build the formulation and train the cost model."""
    t0 = time.perf_counter()
    case = load_case_file(CASE)
    ctx.form = build_formulation(case)
    if train_set is not None:
        ctx.model, _ = ctx.api.mlp_train(train_set,
                                         TrainConfig(seed=TRAIN_SEED))
    return time.perf_counter() - t0


def setup_burst(ctx, train_set):
    """Mean time of back-to-back set-ups lasting at least 50 ms in all."""
    times = [set_up(ctx, train_set)]
    while sum(times) < 0.05:
        times.append(set_up(ctx, train_set))
    return statistics.fmean(times)


def serve_loop(ctx, serve, loads_per_item, items, seconds=float("inf"),
               between=None):
    """Closed loop over the numbered items, stopping early once `seconds`
    of timed work have passed.  An item that raises counts all its loads
    as failed and the loop goes on.  `between(timed)` runs after each
    item, off the clock."""
    served, report_times, errors = [], [], 0
    timed = 0.0
    for k in items:
        if timed >= seconds:
            break
        t0 = time.perf_counter()
        try:
            done, dt, report_s = serve(ctx, k)
        except Exception:
            traceback.print_exc()
            errors += loads_per_item
            timed += time.perf_counter() - t0
        else:
            served += done
            timed += dt
            if report_s is not None:
                report_times.append(report_s)
        if between is not None:
            between(timed)
    return served, report_times, errors, timed


def install_tracer(tracer, api):
    sc, mi = uc_screen.screening, uc_screen.milp
    pg, ex = uc_screen.pga, uc_screen.experiments

    def lp_counts(sol):
        return {"pivots": sol.iterations,
                "infeasible": int(sol.status == INFEASIBLE)}

    def milp_counts(out):
        return {"nodes": out[1].nodes_explored}

    targets = [
        (sc, "solve_lp", "lp.screen", lp_counts),
        (mi, "solve_lp", "lp.bnb", lp_counts),
        (sc, "assemble_screening", "formulation.assemble_screening", None),
        (sc, "assemble_uc", "formulation.assemble_uc", None),
        (ex, "assemble_uc", "formulation.assemble_uc", None),
        (sc, "screen_all", "screening.screen_all", None),
        (sc, "screen_line", "screening.screen_line", None),
        (sc, "reduce_by_mask", "screening.reduce", None),
        (pg, "project_region", "pga.project_region", None),
        (ex, "project_region", "pga.project_region", None),
        (pg, "mlp_forward", "predictor.mlp_forward", None),
        (pg, "mlp_input_grad", "predictor.mlp_input_grad", None),
        (ex, "sample_loads", "experiments.sample_loads", None),
        (ex, "solve_milp", "milp.solve_milp", milp_counts),
        (api, "solve_milp", "milp.solve_milp", milp_counts),
        (api, "mlp_forward", "predictor.mlp_forward", None),
        (api, "screen_all_keeping_infeasible", "screening.keeping_infeasible",
         lambda out: {"fallback_lines": out[1]}),
        (api, "run_pga", "pga.run_pga", lambda res: {"steps": res.iterates}),
        (api, "mlp_train", "predictor.mlp_train",
         lambda out: {"epochs": out[1].epochs}),
        (api, "generate_dataset", "experiments.generate_dataset",
         lambda data: {"samples": len(data)}),
    ]
    for owner, attr, name, count in targets:
        tracer.wrap(owner, attr, name, count)


def layer_metrics(tracer, n_sides, overhead_frac):
    """Per-layer metrics as {name: (value, unit)} from one traced pass."""
    c, self_s = tracer.counts, tracer.self_seconds()

    def n(key):
        return c[key], "count"

    def t(span):
        return self_s[span], "s"

    def per(a, b, unit):
        return (c[a] / c[b] if c[b] else 0.0), unit

    # the screening layer's own code: every span of its call tree
    screening_self = sum(self_s[name] for name in (
        "screening.keeping_infeasible", "screening.screen_all",
        "screening.screen_line"))
    return {
        "lp.screen.calls": n("lp.screen.calls"),
        "lp.screen.pivots": n("lp.screen.pivots"),
        "lp.screen.pivots_per_call": per("lp.screen.pivots", "lp.screen.calls",
                                         "pivots/call"),
        "lp.screen.self_s": t("lp.screen"),
        "lp.screen.infeasible": n("lp.screen.infeasible"),
        "lp.bnb.calls": n("lp.bnb.calls"),
        "lp.bnb.pivots": n("lp.bnb.pivots"),
        "lp.bnb.pivots_per_call": per("lp.bnb.pivots", "lp.bnb.calls",
                                      "pivots/call"),
        "lp.bnb.self_s": t("lp.bnb"),
        "milp.solve_milp.calls": n("milp.solve_milp.calls"),
        "milp.solve_milp.nodes": n("milp.solve_milp.nodes"),
        "milp.solve_milp.nodes_per_call": per("milp.solve_milp.nodes",
                                              "milp.solve_milp.calls",
                                              "nodes/call"),
        "milp.solve_milp.self_s": t("milp.solve_milp"),
        "formulation.assemble_screening.calls":
            n("formulation.assemble_screening.calls"),
        "formulation.assemble_screening.self_s":
            t("formulation.assemble_screening"),
        "formulation.assemble_uc.calls": n("formulation.assemble_uc.calls"),
        "formulation.assemble_uc.self_s": t("formulation.assemble_uc"),
        "screening.screen_all.calls": n("screening.screen_all.calls"),
        "screening.screen_all.self_s": (screening_self, "s"),
        "screening.screen_all.infeasible_passes": n("screening.screen_all.raised"),
        "screening.fallback_lines": n("screening.keeping_infeasible.fallback_lines"),
        "screening.useful_lp_ratio": (
            n_sides * c["screening.keeping_infeasible.calls"] / c["lp.screen.calls"]
            if c["lp.screen.calls"] else 0.0, "ratio"),
        "screening.reduce.calls": n("screening.reduce.calls"),
        "screening.reduce.self_s": t("screening.reduce"),
        "pga.run_pga.calls": n("pga.run_pga.calls"),
        "pga.run_pga.steps": n("pga.run_pga.steps"),
        "pga.run_pga.self_s": t("pga.run_pga"),
        "pga.project_region.calls": n("pga.project_region.calls"),
        "pga.project_region.self_s": t("pga.project_region"),
        "predictor.mlp_forward.calls": n("predictor.mlp_forward.calls"),
        "predictor.mlp_forward.self_s": t("predictor.mlp_forward"),
        "predictor.mlp_input_grad.calls": n("predictor.mlp_input_grad.calls"),
        "predictor.mlp_input_grad.self_s": t("predictor.mlp_input_grad"),
        "predictor.mlp_train.epochs": n("predictor.mlp_train.epochs"),
        "predictor.mlp_train.self_s": t("predictor.mlp_train"),
        "experiments.sample_loads.calls": n("experiments.sample_loads.calls"),
        "experiments.sample_loads.self_s": t("experiments.sample_loads"),
        "experiments.resamples": (c["experiments.sample_loads.calls"]
                                  - c["experiments.generate_dataset.samples"],
                                  "count"),
        "trace.overhead_frac": (overhead_frac, "fraction"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    serve, loads_per_item, trains = WORKLOADS[args.workload]

    print(f"env python {platform.python_version()} numpy {np.__version__} "
          f"scipy {scipy.__version__} nproc {len(os.sched_getaffinity(0))} "
          f"machine {platform.machine()}")

    # Inputs: generated from the seed, off the clock.
    case = load_case_file(CASE)
    oracle = UcOracle(case)
    api = SimpleNamespace(
        solve_milp=uc_screen.solve_milp, mlp_forward=uc_screen.mlp_forward,
        mlp_train=uc_screen.mlp_train, run_pga=uc_screen.run_pga,
        generate_dataset=uc_screen.generate_dataset,
        screen_all_keeping_infeasible=uc_screen.screen_all_keeping_infeasible)
    ctx = SimpleNamespace(api=api, seed=args.seed, nominal=case.nominal_load,
                          region=LoadRegion(nominal=case.nominal_load,
                                            variation=BOX),
                          form=None, model=None, running_bound={})
    train_set = training_set(oracle, case.nominal_load) if trains else None

    # One untimed set-up and warm-up item, numbered apart from the timed ones.
    set_up(ctx, train_set)
    serve(ctx, 10**6)

    served_all, errors_all = [], 0
    if args.trace:
        # Each item runs untraced and traced back to back, alternating
        # which goes first, so host speed drift and warm caches favour
        # neither copy; the traced copies give the per-layer metrics.
        count = max(1, round(args.seconds / 2 / NOMINAL_ITEM_S[args.workload]))
        pass_s = {False: 0.0, True: 0.0}
        with Tracer() as tracer:
            install_tracer(tracer, api)
            set_up(ctx, train_set)
            for k in range(count):
                for traced in (k % 2 == 1, k % 2 == 0):
                    tracer.enable(traced)
                    tracer.request = k
                    served, _, errors, timed = serve_loop(ctx, serve,
                                                          loads_per_item, [k])
                    served_all += served
                    errors_all += errors
                    pass_s[traced] += timed
        spans_dir = ROOT / ".perfbench"
        spans_dir.mkdir(exist_ok=True)
        tracer.write(spans_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = layer_metrics(tracer, 2 * ctx.form.n_lines,
                                pass_s[True] / pass_s[False] - 1.0)
        print(f"{args.workload} {count} items, each untraced and traced: "
              f"{pass_s[False]:.3f} s untraced, {pass_s[True]:.3f} s traced, "
              f"{len(tracer.spans)} spans")
    else:
        # Set-up is timed in bursts spread evenly over the timed loop, so
        # that it samples the same machine states as the served loads; a
        # single block of set-ups caught one state of a host whose speed
        # drifts by tens of percent over seconds.
        setups = []

        def time_setup(timed):
            if timed >= len(setups) * args.seconds / SETUP_SAMPLES:
                setups.append(setup_burst(ctx, train_set))

        served, report_times, errors, timed = serve_loop(
            ctx, serve, loads_per_item, itertools.count(),
            seconds=args.seconds, between=time_setup)
        served_all, errors_all = served, errors
        latencies_ms = [1e3 * s.latency_s for s in served]
        deciles = statistics.quantiles(latencies_ms, n=10)
        metrics = {
            "setup_s": statistics.median(setups),
            "loads_per_s": len(served) / timed,
            "load_p50_ms": statistics.median(latencies_ms),
            "load_p90_ms": deciles[8],
            "pct_reduced": statistics.fmean(s.pct_reduced for s in served),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: (value, END_TO_END[name]) for name, value in metrics.items()}
        print(f"{args.workload} {len(served)} loads in {timed:.3f} s timed; "
              f"latency percentiles over {len(served)} samples; "
              f"set-up median of {len(setups)} bursts")
        if report_times:
            print(f"{args.workload} region_report_s = "
                  f"{statistics.median(report_times):.6g} s "
                  f"(median over {len(report_times)} regions)")

    # Oracle check, off the clock: every served optimum against HiGHS.
    mismatched = 0
    for s in served_all:
        ref = oracle.solve(s.load)
        if ref is None or not same_cost(s.cost, ref[0]):
            mismatched += 1
    attempted = len(served_all) + errors_all
    failed = mismatched + errors_all
    print(f"{args.workload} correctness: {failed}/{attempted} loads failed "
          f"(failed_frac {failed / attempted:.6g}; {errors_all} raised, "
          f"{mismatched} differ from HiGHS by more than 1e-6 relative)")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
