"""Independent reference implementations used to cross-check the package.

Nothing in here calls the solver code under test: LPs are checked by
brute-force vertex enumeration, MILPs by enumerating every binary
assignment and handing the rest to scipy's HiGHS, projections by trying
every clip pattern, gradients by central differences, and network flows
by re-deriving them from a reduced Laplacian solve on the raw case data.
All of it is exponential or dense and only meant for desk-size inputs.
"""

from itertools import combinations, product

import numpy as np
from scipy.optimize import linprog

_FEAS_TOL = 1e-7


def lp_vertex_enumeration(problem):
    """Solve a *bounded* LP by enumerating basic solutions.

    Every vertex of the feasible polytope is the intersection of n
    linearly independent active constraints, so trying all n-subsets of
    {rows, finite bounds} visits every vertex.  Returns (status, value, x)
    with status "optimal" or "infeasible".  The caller must ensure the
    feasible set is bounded (e.g. finite bounds on every variable),
    otherwise a reported optimum may be wrong.
    """
    n = problem.n_vars
    planes = [problem.A[i] for i in range(problem.n_rows)]
    rhs = [problem.b[i] for i in range(problem.n_rows)]
    for i in range(n):
        if np.isfinite(problem.lb[i]):
            e = np.zeros(n)
            e[i] = 1.0
            planes.append(e)
            rhs.append(problem.lb[i])
        if np.isfinite(problem.ub[i]):
            e = np.zeros(n)
            e[i] = 1.0
            planes.append(e)
            rhs.append(problem.ub[i])
    planes = np.asarray(planes)
    rhs = np.asarray(rhs)

    combos = np.asarray(list(combinations(range(len(planes)), n)))
    M = planes[combos]                       # (C, n, n)
    r = rhs[combos]                          # (C, n)
    dets = np.abs(np.linalg.det(M))
    scale = np.abs(M).max(axis=(1, 2)) + 1.0
    ok = dets > 1e-9 * scale ** n
    if not ok.any():
        return "infeasible", None, None
    X = np.linalg.solve(M[ok], r[ok][..., None])[..., 0]   # (K, n)

    feas = np.ones(len(X), dtype=bool)
    if problem.n_rows:
        Ax = X @ problem.A.T
        margin = _FEAS_TOL * (1.0 + np.abs(problem.b))
        for i, rel in enumerate(problem.relations):
            if rel == "<=":
                feas &= Ax[:, i] <= problem.b[i] + margin[i]
            elif rel == ">=":
                feas &= Ax[:, i] >= problem.b[i] - margin[i]
            else:
                feas &= np.abs(Ax[:, i] - problem.b[i]) <= margin[i]
    bound_margin = _FEAS_TOL * (1.0 + np.maximum(np.abs(problem.lb), 0.0))
    for i in range(n):
        if np.isfinite(problem.lb[i]):
            feas &= X[:, i] >= problem.lb[i] - bound_margin[i]
        if np.isfinite(problem.ub[i]):
            feas &= X[:, i] <= problem.ub[i] + _FEAS_TOL * (1.0 + abs(problem.ub[i]))
    if not feas.any():
        return "infeasible", None, None

    values = X[feas] @ problem.c
    k = int(np.argmax(values)) if problem.sense == "max" else int(np.argmin(values))
    return "optimal", float(values[k]), X[feas][k]


def _linprog_solve(problem, lb, ub):
    """scipy/HiGHS solve of an LpProblem with overriding bounds."""
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for i, rel in enumerate(problem.relations):
        if rel == "<=":
            A_ub.append(problem.A[i]); b_ub.append(problem.b[i])
        elif rel == ">=":
            A_ub.append(-problem.A[i]); b_ub.append(-problem.b[i])
        else:
            A_eq.append(problem.A[i]); b_eq.append(problem.b[i])
    sign = -1.0 if problem.sense == "max" else 1.0
    bounds = [(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
              for lo, hi in zip(lb, ub)]
    constraints = dict(A_ub=np.asarray(A_ub) if A_ub else None,
                       b_ub=np.asarray(b_ub) if b_ub else None,
                       A_eq=np.asarray(A_eq) if A_eq else None,
                       b_eq=np.asarray(b_eq) if b_eq else None,
                       bounds=bounds, method="highs")
    res = linprog(sign * problem.c, **constraints)
    if res.status == 2:
        # HiGHS's presolve reports some unbounded LPs as infeasible; with a
        # zero objective nothing is unbounded, so that solve decides
        feasible = linprog(np.zeros_like(problem.c), **constraints).status == 0
        return ("unbounded" if feasible else "infeasible"), None, None
    if res.status == 3:
        return "unbounded", None, None
    assert res.status == 0, f"linprog failed: {res.message}"
    return "optimal", float(problem.c @ res.x), res.x


def milp_commitment_enumeration(problem):
    """Solve a binary MILP by trying every 0/1 assignment.

    The continuous remainder of each assignment goes to scipy's HiGHS,
    so this shares no code with the branch-and-bound under test.
    """
    binaries = list(problem.binary_vars)
    best = (None, None)
    any_feasible = False
    for assignment in product((0.0, 1.0), repeat=len(binaries)):
        lb = problem.base.lb.copy()
        ub = problem.base.ub.copy()
        for var, val in zip(binaries, assignment):
            lb[var] = ub[var] = val
        status, value, x = _linprog_solve(problem.base, lb, ub)
        if status == "unbounded":
            return "unbounded", None, None
        if status != "optimal":
            continue
        any_feasible = True
        if best[0] is None or \
                (value < best[0] if problem.base.sense == "min" else value > best[0]):
            best = (value, x)
    if not any_feasible:
        return "infeasible", None, None
    return "optimal", best[0], best[1]


def project_enumeration(v, lo, hi, level):
    """Euclidean projection onto {lo<=x<=hi, sum x = level} by clip patterns.

    The KKT solution has the form x_i = clip(v_i - lam, lo_i, hi_i); for
    each of the 3^n assignments of coordinates to {at-lower, free,
    at-upper} there is at most one consistent lam, so trying them all
    finds the projection exactly.  Returns None when the set is empty.
    """
    v = np.asarray(v, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = v.shape[0]
    tol = 1e-9 * (1.0 + abs(level))
    best, best_dist = None, np.inf
    for pattern in product((-1, 0, 1), repeat=n):
        pattern = np.asarray(pattern)
        at_lo, free, at_hi = pattern == -1, pattern == 0, pattern == 1
        fixed = lo[at_lo].sum() + hi[at_hi].sum()
        if free.any():
            lam = (v[free].sum() + fixed - level) / free.sum()
            x = np.where(at_lo, lo, np.where(at_hi, hi, v - lam))
            if np.any(x[free] < lo[free] - tol) or np.any(x[free] > hi[free] + tol):
                continue
            if np.any(v[at_lo] - lam > lo[at_lo] + tol):
                continue
            if np.any(v[at_hi] - lam < hi[at_hi] - tol):
                continue
        else:
            if abs(fixed - level) > tol:
                continue
            x = np.where(at_lo, lo, hi)
        if abs(x.sum() - level) > 10 * tol:
            continue
        dist = float(((x - v) ** 2).sum())
        if dist < best_dist - 1e-12:
            best, best_dist = x, dist
    return best


def central_difference(fun, x, h=1e-5):
    """Gradient of a scalar function by symmetric finite differences."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.shape[0]):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (fun(x + step) - fun(x - step)) / (2.0 * h)
    return grad


def dc_flows(case, injections):
    """Line flows for given bus injections, from scratch.

    Builds the weighted Laplacian directly off the raw case lines,
    grounds the first bus, solves for angles, and reads flows as
    susceptance times the angle difference.  Requires sum(injections)=0.
    """
    n = case.n_buses
    injections = np.asarray(injections, dtype=float)
    assert abs(injections.sum()) <= 1e-6 * (1.0 + np.abs(injections).max())
    B = np.zeros((n, n))
    for line in case.lines:
        a, b, s = line.from_bus, line.to_bus, line.susceptance
        B[a, a] += s
        B[b, b] += s
        B[a, b] -= s
        B[b, a] -= s
    theta = np.zeros(n)
    theta[1:] = np.linalg.solve(B[1:, 1:], injections[1:])
    return np.array([line.susceptance * (theta[line.from_bus] - theta[line.to_bus])
                     for line in case.lines])


def bus_injections(case, gen_output, load):
    """Net injection per bus: generator output minus load."""
    inj = -np.asarray(load, dtype=float)
    for g, out in zip(case.generators, gen_output):
        inj[g.bus] += out
    return inj
