import numpy as np
import pytest

from oracles import _linprog_solve, lp_vertex_enumeration
from uc_screen.errors import DimensionError
from uc_screen.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LpProblem,
    constraint_residuals,
    solve_lp,
    to_lp_format,
)


def random_boxed_lp(rng):
    """A random LP with finite bounds on every variable (so the feasible
    set, when non-empty, is compact and vertex enumeration is exact)."""
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, n + 3))
    A = np.round(rng.normal(size=(m, n)), 2)
    b = np.round(rng.normal(scale=2.0, size=m), 2)
    relations = tuple(rng.choice(["<=", ">=", "="], p=[0.45, 0.45, 0.1])
                      for _ in range(m))
    lb = np.round(rng.uniform(-3.0, 0.0, size=n), 2)
    ub = lb + np.round(rng.uniform(0.5, 4.0, size=n), 2)
    c = np.round(rng.normal(size=n), 2)
    sense = "min" if rng.random() < 0.5 else "max"
    return LpProblem(sense=sense, c=c, A=A, relations=relations, b=b,
                     lb=lb, ub=ub)


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(404)
    n_optimal = 0
    for trial in range(100):
        problem = random_boxed_lp(rng)
        expected_status, expected_value, _ = lp_vertex_enumeration(problem)
        sol = solve_lp(problem)
        assert sol.status == expected_status, \
            f"trial {trial}: {sol.status} != {expected_status}"
        if expected_status != "optimal":
            continue
        n_optimal += 1
        assert abs(sol.objective_value - expected_value) <= \
            1e-8 * max(1.0, abs(expected_value)), f"trial {trial}"
        assert constraint_residuals(problem, sol.x).max() <= 1e-7
    assert n_optimal >= 30  # the generator should not be degenerate


def random_unboxed_lp(rng):
    """A random LP whose variables are free, lower-only, upper-only or
    fixed, with equality rows and sometimes an exact duplicate row."""
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, n + 2))
    A = np.round(rng.normal(size=(m, n)), 2)
    b = np.round(rng.normal(scale=2.0, size=m), 2)
    relations = [str(rng.choice(["<=", ">=", "="], p=[0.4, 0.4, 0.2]))
                 for _ in range(m)]
    if rng.random() < 0.3:
        i = int(rng.integers(m))
        A = np.vstack([A, A[i]])
        b = np.append(b, b[i])
        relations.append(relations[i])
    kind = rng.choice(["free", "lower", "upper", "fixed"], size=n)
    bound = np.round(rng.uniform(-3.0, 3.0, size=n), 2)
    lb = np.where((kind == "lower") | (kind == "fixed"), bound, -np.inf)
    ub = np.where((kind == "upper") | (kind == "fixed"), bound, np.inf)
    c = np.round(rng.normal(size=n), 2)
    sense = "min" if rng.random() < 0.5 else "max"
    return LpProblem(sense=sense, c=c, A=A, relations=tuple(relations), b=b,
                     lb=lb, ub=ub)


def test_random_unboxed_lps_match_highs():
    rng = np.random.default_rng(2026)
    counts = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for trial in range(400):
        problem = random_unboxed_lp(rng)
        expected_status, expected_value, _ = _linprog_solve(
            problem, problem.lb, problem.ub)
        sol = solve_lp(problem)
        assert sol.status == expected_status, \
            f"trial {trial}: {sol.status} != {expected_status}"
        counts[sol.status] += 1
        if expected_status != OPTIMAL:
            continue
        assert abs(sol.objective_value - expected_value) <= \
            1e-8 * max(1.0, abs(expected_value)), f"trial {trial}"
        assert constraint_residuals(problem, sol.x).max() <= 1e-7, f"trial {trial}"
    assert min(counts.values()) >= 80, counts  # every status is exercised


def test_beale_cycling_instance():
    """Beale's classic example makes Dantzig pricing cycle on some
    tie-breaking schemes; the Bland fallback must still finish it."""
    problem = LpProblem(
        sense="min",
        c=[-0.75, 150.0, -0.02, 6.0],
        A=[[0.25, -60.0, -0.04, 9.0],
           [0.5, -90.0, -0.02, 3.0]],
        relations=("<=", "<="),
        b=[0.0, 0.0],
        lb=[0.0, 0.0, 0.0, 0.0],
        ub=[np.inf, np.inf, 1.0, np.inf],
    )
    sol = solve_lp(problem)
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(-0.05, abs=1e-9)
    np.testing.assert_allclose(sol.x, [0.04, 0.0, 1.0, 0.0], atol=1e-9)


def test_degenerate_equality_triangle():
    # every basic feasible solution here is degenerate
    problem = LpProblem(
        sense="min",
        c=[1.0, 0.0, 0.0],
        A=[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]],
        relations=("=", "=", "="),
        b=[1.0, 1.0, 1.0],
        lb=[0.0, 0.0, 0.0],
        ub=[np.inf, np.inf, np.inf],
    )
    sol = solve_lp(problem)
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(0.5, abs=1e-9)
    np.testing.assert_allclose(sol.x, [0.5, 0.5, 0.5], atol=1e-9)


def test_infeasible_detected():
    problem = LpProblem(sense="min", c=[1.0], A=[[1.0]], relations=("<=",),
                        b=[-1.0], lb=[0.0], ub=[np.inf])
    assert solve_lp(problem).status == INFEASIBLE


def test_unbounded_detected():
    problem = LpProblem(sense="min", c=[-1.0], A=np.zeros((0, 1)),
                        relations=(), b=np.zeros(0), lb=[0.0], ub=[np.inf])
    assert solve_lp(problem).status == UNBOUNDED


def test_box_only_problem():
    problem = LpProblem(sense="max", c=[2.0, -3.0], A=np.zeros((0, 2)),
                        relations=(), b=np.zeros(0),
                        lb=[-1.0, -2.0], ub=[4.0, 5.0])
    sol = solve_lp(problem)
    assert sol.status == OPTIMAL
    np.testing.assert_allclose(sol.x, [4.0, -2.0], atol=1e-9)
    assert sol.objective_value == pytest.approx(14.0)


def test_free_variable():
    # x0 free, forced negative by the equality row
    problem = LpProblem(sense="min", c=[0.0, 1.0],
                        A=[[1.0, 1.0]], relations=("=",), b=[-2.0],
                        lb=[-np.inf, 0.0], ub=[np.inf, np.inf])
    sol = solve_lp(problem)
    assert sol.status == OPTIMAL
    np.testing.assert_allclose(sol.x, [-2.0, 0.0], atol=1e-9)


def test_upper_bound_only_variable():
    problem = LpProblem(sense="max", c=[1.0], A=np.zeros((0, 1)),
                        relations=(), b=np.zeros(0),
                        lb=[-np.inf], ub=[3.5])
    sol = solve_lp(problem)
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(3.5)


def test_negative_lower_bounds_shifted_correctly():
    rng = np.random.default_rng(7)
    for _ in range(20):
        problem = random_boxed_lp(rng)
        problem.lb -= 5.0  # push the whole box negative
        problem.ub -= 5.0
        sol = solve_lp(problem)
        if sol.status == OPTIMAL:
            assert constraint_residuals(problem, sol.x).max() <= 1e-7


def test_determinism():
    rng = np.random.default_rng(11)
    problem = random_boxed_lp(rng)
    a = solve_lp(problem)
    b = solve_lp(problem)
    assert a.status == b.status
    if a.status == OPTIMAL:
        assert a.x.tobytes() == b.x.tobytes()
        assert a.iterations == b.iterations


def test_drop_rows_keeps_other_rows_bit_identical():
    rng = np.random.default_rng(13)
    problem = random_boxed_lp(rng)
    problem.row_names = tuple(f"r{i}" for i in range(problem.n_rows))
    problem.validate()
    dropped = problem.drop_rows([0])
    assert dropped.n_rows == problem.n_rows - 1
    assert dropped.A.tobytes() == problem.A[1:].tobytes()
    assert dropped.row_names == problem.row_names[1:]
    assert dropped.relations == problem.relations[1:]


def test_constraint_residuals_signs():
    problem = LpProblem(sense="min", c=[1.0, 1.0],
                        A=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                        relations=("<=", ">=", "="), b=[1.0, 1.0, 2.0],
                        lb=[0.0, 0.0], ub=[5.0, 5.0])
    res = constraint_residuals(problem, np.array([2.0, 0.5]))
    # row violations: <= over by 1, >= short by 0.5, = off by 0.5
    np.testing.assert_allclose(res[:3], [1.0, 0.5, 0.5])
    assert res[3:].max() == 0.0  # bounds all satisfied


def test_to_lp_format_structure():
    problem = LpProblem(sense="min", c=[1.0, -2.0],
                        A=[[1.0, 1.0]], relations=("<=",), b=[3.0],
                        lb=[0.0, -np.inf], ub=[np.inf, np.inf],
                        name="demo", row_names=("cap",))
    text = to_lp_format(problem)
    assert text.startswith("\\ Problem: demo")
    assert "Minimize" in text and "Subject To" in text
    assert " cap: 1 x0 + 1 x1 <= 3" in text
    assert "x1 free" in text
    assert text.endswith("End\n")


@pytest.mark.parametrize("kwargs", [
    dict(sense="mid", c=[1.0], A=[[1.0]], relations=("<=",), b=[1.0],
         lb=[0.0], ub=[1.0]),
    dict(sense="min", c=[1.0], A=[[1.0, 2.0]], relations=("<=",), b=[1.0],
         lb=[0.0], ub=[1.0]),
    dict(sense="min", c=[1.0], A=[[1.0]], relations=("<",), b=[1.0],
         lb=[0.0], ub=[1.0]),
    dict(sense="min", c=[1.0], A=[[1.0]], relations=("<=",), b=[1.0],
         lb=[2.0], ub=[1.0]),
    dict(sense="min", c=[1.0], A=[[1.0]], relations=("<=", "<="), b=[1.0],
         lb=[0.0], ub=[1.0]),
])
def test_malformed_problems_rejected(kwargs):
    with pytest.raises(DimensionError):
        LpProblem(**kwargs)
