"""Independent unit-commitment oracle: scipy's HiGHS MILP on the angle form.

The model is written out from the parsed case alone -- bus angles instead
of the package's reduced flow coordinate, one row per line and bus -- so
it shares no assembly, LP or branch-and-bound code with uc_screen.
"""

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp


class UcOracle:
    """Solves min cost @ x over commitments u, outputs x and angles theta."""

    def __init__(self, case):
        n, ng = case.n_buses, len(case.generators)
        self.n_buses = n
        self.f_max = np.array([line.flow_limit for line in case.lines])
        n_vars = 2 * ng + n
        self.theta = slice(2 * ng, n_vars)

        # line flow s * (theta_from - theta_to) as a row over all variables
        flow = np.zeros((len(case.lines), n_vars))
        for j, line in enumerate(case.lines):
            flow[j, 2 * ng + line.from_bus] = line.susceptance
            flow[j, 2 * ng + line.to_bus] = -line.susceptance
        self.flow = flow[:, self.theta]

        gen = np.zeros((2 * ng, n_vars))
        balance = np.zeros((n, n_vars))
        for g, unit in enumerate(case.generators):
            gen[g, [g, ng + g]] = [-unit.p_min, 1.0]       # x - p_min u >= 0
            gen[ng + g, [g, ng + g]] = [-unit.p_max, 1.0]  # x - p_max u <= 0
            balance[unit.bus, ng + g] = 1.0
        for j, line in enumerate(case.lines):
            balance[line.from_bus] -= flow[j]
            balance[line.to_bus] += flow[j]

        self._constraints = [
            LinearConstraint(gen[:ng], 0.0, np.inf),
            LinearConstraint(gen[ng:], -np.inf, 0.0),
            LinearConstraint(flow, -self.f_max, self.f_max),
        ]
        self._balance = balance
        lb = np.concatenate([np.zeros(2 * ng), np.full(n, -np.inf)])
        ub = np.concatenate([np.ones(ng), [u.p_max for u in case.generators],
                             np.full(n, np.inf)])
        lb[2 * ng] = ub[2 * ng] = 0.0      # reference angle
        self._bounds = Bounds(lb, ub)
        self._cost = np.concatenate([np.zeros(ng),
                                     [u.cost for u in case.generators],
                                     np.zeros(n)])
        self._integrality = np.concatenate([np.ones(ng), np.zeros(ng + n)])

    def solve(self, load):
        """(optimal cost, line flows) for the load, or None if infeasible."""
        load = np.asarray(load, dtype=float)
        res = milp(self._cost, integrality=self._integrality,
                   bounds=self._bounds,
                   constraints=self._constraints
                   + [LinearConstraint(self._balance, load, load)],
                   options={"mip_rel_gap": 0.0})
        if res.status == 2:
            return None
        if res.status != 0:
            raise RuntimeError(f"HiGHS failed: {res.message}")
        return float(res.fun), self.flow @ res.x[self.theta]

    def binding(self, flows):
        """(2m,) flags: upper sides first, then lower, at 1e-6 * limit."""
        tol = 1e-6 * self.f_max
        return np.concatenate([np.abs(flows - self.f_max) <= tol,
                               np.abs(flows + self.f_max) <= tol])


def same_cost(served, reference, rel_tol=1e-6):
    """Served optimum matches the oracle's within rel_tol of its magnitude."""
    return served is not None and \
        abs(served - reference) <= rel_tol * max(abs(reference), 1.0)
