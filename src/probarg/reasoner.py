"""Satisfiability and entailment over probability labellings.

Satisfiability relaxes every constraint with a slack variable and minimizes
total slack; the minimum is the inconsistency value and the constraint set is
satisfiable exactly when it is (numerically) zero. Entailment minimizes and
maximizes a single argument's label over the feasible polytope.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lp
from .constraints import ConstraintSet, satisfies
from .errors import SolverError, UnsatisfiableError
from .model import BAF, ArgLike, Argument, Labelling

EPS_SAT = 1e-7


@dataclass
class SatResult:
    satisfiable: bool
    inconsistency_value: float
    witness: Optional[Labelling] = None


@dataclass
class EntailmentBounds:
    lower: float
    upper: float

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _slack_lp(cs: ConstraintSet, baf: BAF):
    """Rows of the slack-relaxed system: [A | -I] (x, s) <= b, x in [0,1], s >= 0."""
    A, b = cs.as_matrix(baf)
    m, n = A.shape
    rows = np.hstack([A, -np.eye(m)]) if m else np.zeros((0, n))
    lower = np.concatenate([np.zeros(n), np.zeros(m)])
    upper = np.concatenate([np.ones(n), np.full(m, np.inf)])
    c = np.concatenate([np.zeros(n), np.ones(m)])
    return rows, b, lower, upper, c


def check_sat(cs: ConstraintSet, baf: BAF, eps_sat: float = EPS_SAT) -> SatResult:
    """Decide satisfiability; the optimal total slack is the inconsistency value."""
    rows, b, lower, upper, c = _slack_lp(cs, baf)
    problem = lp.LPProblem(c, "min", rows, b, lower, upper)
    sol = lp.solve_lp(problem)
    if sol.status != lp.OPTIMAL:
        raise SolverError(f"slack minimization ended with status {sol.status!r}")
    value = max(float(sol.objective_value), 0.0)
    if value <= eps_sat:
        witness = Labelling.from_array(baf, np.clip(sol.x[:baf.n], 0.0, 1.0))
        return SatResult(True, value, witness)
    return SatResult(False, value, None)


def _entail_objectives(baf: BAF):
    objs = []
    for i in range(baf.n):
        c = np.zeros(baf.n)
        c[i] = 1.0
        objs.append((c, "min"))
        objs.append((c, "max"))
    return objs


def _bounds_from(lo_sol: lp.LPSolution, hi_sol: lp.LPSolution) -> EntailmentBounds:
    lo = min(max(float(lo_sol.objective_value), 0.0), 1.0) + 0.0
    hi = min(max(float(hi_sol.objective_value), 0.0), 1.0) + 0.0
    if lo > hi:  # can only be roundoff; keep the invariant 0 <= lo <= hi <= 1
        lo = hi = 0.5 * (lo + hi)
    return EntailmentBounds(lo, hi)


def entail(cs: ConstraintSet, baf: BAF, a: ArgLike) -> EntailmentBounds:
    """Tight probability bounds for one argument over all satisfying labellings."""
    i = baf.index(a)
    _require_sat(cs, baf)
    A, b = cs.as_matrix(baf)
    c = np.zeros(baf.n)
    c[i] = 1.0
    sols = lp.solve_many(A, b, np.zeros(baf.n), np.ones(baf.n), [(c, "min"), (c, "max")])
    for s in sols:
        if s.status != lp.OPTIMAL:
            raise SolverError(f"entailment LP ended with status {s.status!r}")
    return _bounds_from(sols[0], sols[1])


def entail_all(cs: ConstraintSet, baf: BAF) -> dict[Argument, EntailmentBounds]:
    """Bounds for every argument, sharing one phase-one run across all solves."""
    _require_sat(cs, baf)
    A, b = cs.as_matrix(baf)
    sols = lp.solve_many(A, b, np.zeros(baf.n), np.ones(baf.n), _entail_objectives(baf))
    out: dict[Argument, EntailmentBounds] = {}
    for i, arg in enumerate(baf.args):
        lo_sol, hi_sol = sols[2 * i], sols[2 * i + 1]
        if lo_sol.status != lp.OPTIMAL or hi_sol.status != lp.OPTIMAL:
            raise SolverError("entailment LP failed for argument " + arg.name)
        out[arg] = _bounds_from(lo_sol, hi_sol)
    return out


def _require_sat(cs: ConstraintSet, baf: BAF) -> None:
    res = check_sat(cs, baf)
    if not res.satisfiable:
        raise UnsatisfiableError(
            f"constraint set is unsatisfiable (inconsistency value {res.inconsistency_value:.6g})")


def witness_ok(res: SatResult, cs: ConstraintSet, tol: float = EPS_SAT) -> bool:
    """True when a satisfiable result's witness indeed passes every constraint."""
    if not res.satisfiable or res.witness is None:
        return False
    return all(satisfies(res.witness, c, tol) for c in cs)
