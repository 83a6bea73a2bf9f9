"""Satisfiability and entailment over probability labellings.

Satisfiability is decided by simplex phase one over the rows A x <= b and
the box [0, 1]^n: a point whose total violation is within EPS_SAT is the
witness, and that violation is the inconsistency value. Only when phase one
finds no such point does the same simplex state go on to minimize the total
violation sum(max(A x - b, 0)) from the basis phase one ended on
(SimplexState.min_violation); that minimum is the inconsistency value, and
the set is satisfiable exactly when it is (numerically) zero. Entailment
minimizes and maximizes a single argument's label over the feasible
polytope; bounds that a feasible point already in hand reaches are certified
without a solve.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lp
from .constraints import ConstraintSet, satisfies_all
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


def check_sat(cs: ConstraintSet, baf: BAF, eps_sat: float = EPS_SAT) -> SatResult:
    """Decide satisfiability.

    Phase one decides: when its point, clipped to the box, violates the rows
    by at most eps_sat in total, the set is satisfiable, the point is the
    witness and its total violation the inconsistency value. Otherwise the
    least total violation, minimized on from phase one's basis, gives the
    verdict and is the value. A phase-one point within eps_sat is a point of
    total violation within eps_sat, so the verdict is that minimum's either
    way. When phase one reports success but its point misses by more than
    eps_sat, the minimum is taken on a fresh state, since phase one has
    already dropped the residual of its artificials.
    """
    A, b = cs.as_matrix(baf)
    n = baf.n
    state = lp.SimplexState(A, b, np.zeros(n), np.ones(n))
    if state.ensure_feasible() == lp.OPTIMAL:
        x = np.clip(state.point(), 0.0, 1.0)
        value = float(np.maximum(A @ x - b, 0.0).sum())
        if value <= eps_sat:
            return SatResult(True, value, Labelling.from_array(baf, x))
        # phase one dropped its artificials' residual; start over from x = 0
        state = lp.SimplexState(A, b, np.zeros(n), np.ones(n))
    value = state.min_violation()
    if value <= eps_sat:
        witness = Labelling.from_array(baf, np.clip(state.point(), 0.0, 1.0))
        return SatResult(True, value, witness)
    return SatResult(False, value, None)


def _bounds(cs: ConstraintSet, baf: BAF, wanted) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of the coordinates in `wanted` (entries
    elsewhere are NaN), over one simplex state and one phase-one run.

    Every feasible point seen, the phase-one point and each optimum, is tested
    against all open objectives at once: max x_i = 1 is certified when moving
    x_i alone to 1 keeps every row within its slack max(b - Ax, 0), and
    min x_i = 0 likewise with x_i moved to 0. Certified objectives are never
    solved. Each remaining one starts from the previous optimal basis, which
    is already feasible.

    When phase one finds no feasible point, its state minimizes the total
    violation, as in check_sat: UnsatisfiableError carries that minimum as
    the inconsistency value.
    """
    A, b = cs.as_matrix(baf)
    n = baf.n
    state = lp.SimplexState(A, b, np.zeros(n), np.ones(n))
    status = state.ensure_feasible()
    if status != lp.OPTIMAL:
        value = state.min_violation()
        if value > EPS_SAT:
            raise UnsatisfiableError(f"constraint set is unsatisfiable (inconsistency "
                                     f"value {value:.6g})")
        raise SolverError(f"entailment phase one ended with status {status!r}")
    lower = np.full(n, np.nan)
    upper = np.full(n, np.nan)
    open_lo = np.zeros(n, dtype=bool)
    open_lo[wanted] = True
    open_hi = open_lo.copy()
    # a zero coefficient never carries a row past its slack, so the test
    # runs over the nonzeros of A only
    rows, cols = np.nonzero(A)
    coef = A[rows, cols]
    x = state.point()
    while True:
        slack = np.maximum(b - A @ x, 0.0)[rows]
        for move, still_open, bound, out in ((-x, open_lo, 0.0, lower),
                                             (1.0 - x, open_hi, 1.0, upper)):
            broken = np.zeros(n, dtype=bool)
            broken[cols[coef * move[cols] > slack]] = True
            out[still_open & ~broken] = bound
            still_open &= broken
        pending = np.flatnonzero(open_lo | open_hi)
        if pending.size == 0:
            break
        i = int(pending[0])
        low = bool(open_lo[i])
        c = np.zeros(n)
        c[i] = 1.0 if low else -1.0
        sol = state.minimize(c)
        if sol.status != lp.OPTIMAL:
            raise SolverError(f"entailment LP for argument {baf.args[i].name} ended "
                              f"with status {sol.status!r}")
        x = sol.x
        (lower if low else upper)[i] = x[i]
        (open_lo if low else open_hi)[i] = False
    return clamp_bounds(lower, upper)


def clamp_bounds(lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """Bound arrays from LP optima, clipped to [0, 1] (with -0.0 made 0.0);
    lower > upper can only be roundoff, and such a pair becomes its average,
    so 0 <= lower <= upper <= 1."""
    lower = np.clip(lower, 0.0, 1.0) + 0.0
    upper = np.clip(upper, 0.0, 1.0) + 0.0
    crossed = lower > upper
    lower[crossed] = upper[crossed] = 0.5 * (lower[crossed] + upper[crossed])
    return lower, upper


def entail(cs: ConstraintSet, baf: BAF, a: ArgLike) -> EntailmentBounds:
    """Tight probability bounds for one argument over all satisfying labellings."""
    i = baf.index(a)
    lower, upper = _bounds(cs, baf, [i])
    return EntailmentBounds(float(lower[i]), float(upper[i]))


def entail_all(cs: ConstraintSet, baf: BAF) -> dict[Argument, EntailmentBounds]:
    """Bounds for every argument, from one phase-one run and warm-started solves."""
    lower, upper = _bounds(cs, baf, np.arange(baf.n))
    return {arg: EntailmentBounds(float(lower[i]), float(upper[i]))
            for i, arg in enumerate(baf.args)}


def witness_ok(res: SatResult, cs: ConstraintSet, tol: float = EPS_SAT) -> bool:
    """True when a satisfiable result's witness indeed passes every constraint."""
    if not res.satisfiable or res.witness is None:
        return False
    return satisfies_all(res.witness, cs, tol)
