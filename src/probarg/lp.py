"""Self-contained dense linear programming.

minimize / maximize  c . x
subject to           A x <= b,   lower <= x <= upper

The solver is a two-phase simplex on the full dense tableau with bounded
variables handled natively (nonbasic variables rest at either box bound), so
box bounds never become rows. Pricing is Dantzig's rule with an automatic
switch to Bland's rule while degenerate pivots pile up, which protects against
cycling. Phase one introduces artificial variables only for rows that are
infeasible at the initial bound assignment. When phase one fails, the same
state can go on to minimize the total row violation from its final basis
(min_violation, elastic mode).

SimplexState is reusable: after one phase-one run, any number of objectives
can be minimized over the same feasible region, each starting from wherever
the previous one ended (reasoner.entail_all) or from a snapshot of the
phase-one basis (solve_many, the maximum-entropy fallback).

A pivot updates only the tableau rows where the entering column is nonzero;
the semantics rows are sparse, so most rows are left untouched.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import SolverError, StructuralError

DEFAULT_PIVOT_TOL = 1e-9
DEFAULT_DUAL_TOL = 1e-9
DEFAULT_FEAS_TOL = 1e-7
DEFAULT_MAX_ITER = 50_000

_LO, _UP, _BASIC = 0, 1, 2

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
STALLED = "stalled"


@dataclass
class LPProblem:
    """Dense LP: optimize objective subject to rows (A x <= b) and box bounds."""

    objective: np.ndarray
    sense: str  # "min" or "max"
    rows: np.ndarray
    row_bounds: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def of(cls, objective, sense, rows, lower, upper) -> "LPProblem":
        """rows is an iterable of (coefficient vector, bound) pairs."""
        c = np.asarray(objective, dtype=float)
        pairs = list(rows)
        if pairs:
            A = np.array([np.asarray(r, dtype=float) for r, _ in pairs])
            b = np.array([float(v) for _, v in pairs])
        else:
            A = np.zeros((0, c.size))
            b = np.zeros(0)
        return cls(c, sense, A, b, np.asarray(lower, dtype=float), np.asarray(upper, dtype=float))

    def validate(self) -> None:
        n = self.objective.size
        if self.sense not in ("min", "max"):
            raise StructuralError(f"sense must be 'min' or 'max', got {self.sense!r}")
        if self.rows.ndim != 2 or self.rows.shape[1] != n:
            raise StructuralError(f"rows have {self.rows.shape} shape, expected (*, {n})")
        if self.row_bounds.shape != (self.rows.shape[0],):
            raise StructuralError("row bound vector length does not match row count")
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise StructuralError("box bound vectors must match objective dimension")
        if np.any(self.lower > self.upper):
            raise StructuralError("lower bound exceeds upper bound")


@dataclass
class LPSolution:
    status: str
    x: Optional[np.ndarray] = None
    objective_value: Optional[float] = None


class SimplexState:
    """Bounded-variable simplex over one fixed row set.

    Columns are [structural | slacks | artificials]. Rows that start
    infeasible (negative slack at the initial bound assignment) are sign
    flipped so their artificial column is a clean +1 basis column.
    """

    def __init__(self, A, b, lower, upper):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if A.ndim != 2:
            raise StructuralError("row matrix must be two-dimensional")
        m, n = A.shape
        if b.shape != (m,) or lower.shape != (n,) or upper.shape != (n,):
            raise StructuralError("LP dimension mismatch")
        if np.any(lower > upper):
            raise StructuralError("lower bound exceeds upper bound")
        if np.any(np.isinf(lower) & np.isinf(upper)):
            raise StructuralError("fully free variables are not supported")

        self.m, self.n_struct = m, n

        start = np.where(np.isfinite(lower), lower, upper)
        resid = b - A @ start

        art_rows = np.nonzero(resid < 0.0)[0]
        n_art = art_rows.size
        N = n + m + n_art

        G = np.zeros((m, N))
        G[:, :n] = A
        G[np.arange(m), n + np.arange(m)] = 1.0  # slack columns
        # flip infeasible rows so the artificial is a unit basis column
        G[art_rows, :] *= -1.0
        rhs = b.copy()
        rhs[art_rows] *= -1.0
        for k, r in enumerate(art_rows):
            G[r, n + m + k] = 1.0

        self.lo = np.concatenate([lower, np.zeros(m), np.zeros(n_art)])
        self.up = np.concatenate([upper, np.full(m, np.inf), np.full(n_art, np.inf)])
        self.N = N
        self.n_art = n_art
        self.art_rows = art_rows
        self.art_start = n + m

        self.T = G
        self.val = np.where(np.isfinite(self.lo), self.lo, self.up)
        self.stat = np.full(N, _LO, dtype=np.int8)
        self.stat[np.isinf(self.lo)] = _UP
        self.frozen = np.zeros(N, dtype=bool)

        self.basis = np.empty(m, dtype=int)
        self.rhsv = np.empty(m)
        feas = np.ones(m, dtype=bool)
        feas[art_rows] = False
        self.basis[feas] = n + np.nonzero(feas)[0]
        self.rhsv[feas] = resid[feas]
        self.basis[art_rows] = self.art_start + np.arange(n_art)
        self.rhsv[art_rows] = -resid[art_rows]
        self.stat[self.basis] = _BASIC

        self._feasible: Optional[bool] = None
        self._snap = None
        self._dirty_basis = False

    # -- core iteration ----------------------------------------------------

    def _pivot(self, r: int, q: int, z: np.ndarray, enter_val: float) -> None:
        self._dirty_basis = True
        T = self.T
        piv = T[r, q]
        row = T[r] / piv
        col = T[:, q].copy()
        col[r] = 0.0
        nz = np.flatnonzero(col)
        T[nz] -= np.outer(col[nz], row)
        T[r] = row
        if z[q] != 0.0:
            z -= z[q] * row
        self.rhsv[r] = enter_val
        self.basis[r] = q
        self.stat[q] = _BASIC

    def _minimize_inner(self, c_full: np.ndarray) -> str:
        T, lo, up = self.T, self.lo, self.up
        stat, val, basis, rhsv = self.stat, self.val, self.basis, self.rhsv
        m = self.m

        z = c_full.copy()
        cb = c_full[basis] if m else np.zeros(0)
        for r in np.nonzero(cb)[0]:
            z -= cb[r] * T[r]

        bland = False
        degen_run = 0
        for _ in range(DEFAULT_MAX_ITER):
            # entering variable: nonbasic with profitable reduced cost
            viol = np.where(stat == _LO, -z, np.where(stat == _UP, z, -np.inf))
            viol[self.frozen] = -np.inf
            if bland:
                cand = np.nonzero(viol > DEFAULT_DUAL_TOL)[0]
                if cand.size == 0:
                    return OPTIMAL
                q = int(cand[0])
            else:
                q = int(np.argmax(viol))
                if viol[q] <= DEFAULT_DUAL_TOL:
                    return OPTIMAL

            d = 1.0 if stat[q] == _LO else -1.0
            w = T[:, q]
            dw = d * w
            tvec = np.full(m, np.inf)
            if m:
                pos = dw > DEFAULT_PIVOT_TOL
                neg = dw < -DEFAULT_PIVOT_TOL
                if pos.any():
                    tvec[pos] = (rhsv[pos] - lo[basis[pos]]) / dw[pos]
                if neg.any():
                    tvec[neg] = (rhsv[neg] - up[basis[neg]]) / dw[neg]
                np.maximum(tvec, 0.0, out=tvec)
                tmin = float(tvec.min()) if m else np.inf
            else:
                tmin = np.inf
            t_own = up[q] - lo[q]
            t = min(tmin, t_own)

            if np.isinf(t):
                return UNBOUNDED

            if t_own <= tmin:
                # bound flip: q swaps box sides, basis unchanged
                if m and t_own > 0.0:
                    rhsv -= (d * t_own) * w
                stat[q] = _UP if stat[q] == _LO else _LO
                val[q] = up[q] if stat[q] == _UP else lo[q]
                if t_own > 0.0:
                    degen_run = 0
                    bland = False
                continue

            ties = np.nonzero(tvec <= tmin + 1e-12 * (1.0 + abs(tmin)))[0]
            if bland:
                r = int(ties[np.argmin(basis[ties])])
            else:
                r = int(ties[np.argmax(np.abs(dw[ties]))])

            if t > 0.0:
                rhsv -= (d * t) * w
                degen_run = 0
                bland = False
            else:
                degen_run += 1
                if degen_run > 64:
                    bland = True

            leaving = basis[r]
            to_lower = dw[r] > 0.0
            stat[leaving] = _LO if to_lower else _UP
            val[leaving] = lo[leaving] if to_lower else up[leaving]
            self._pivot(r, q, z, val[q] + d * t)
        return STALLED

    # -- public drivers ----------------------------------------------------

    def ensure_feasible(self) -> str:
        """Phase one. Returns 'optimal' (feasible), 'infeasible' or 'stalled'."""
        if self._feasible is not None:
            return OPTIMAL if self._feasible else INFEASIBLE
        if self.n_art == 0:
            self._feasible = True
            return OPTIMAL
        c1 = np.zeros(self.N)
        c1[self.art_start:] = 1.0
        status = self._minimize_inner(c1)
        if status == STALLED:
            return STALLED
        if status == UNBOUNDED:  # cannot happen: objective bounded below by 0
            raise SolverError("phase one reported unbounded")
        art_total = float(self._x_full()[self.art_start:].sum())
        if art_total > DEFAULT_FEAS_TOL:
            self._feasible = False
            return INFEASIBLE
        self._evict_artificials()
        self.frozen[self.art_start:] = True
        self.up[self.art_start:] = 0.0
        self.val[self.art_start:][self.stat[self.art_start:] != _BASIC] = 0.0
        self._feasible = True
        return OPTIMAL

    def _evict_artificials(self) -> None:
        z_dummy = np.zeros(self.N)
        for r in range(self.m):
            j = self.basis[r]
            if j < self.art_start:
                continue
            row = self.T[r, :self.art_start]
            cand = np.nonzero((np.abs(row) > DEFAULT_PIVOT_TOL)
                              & (self.stat[:self.art_start] != _BASIC))[0]
            if cand.size == 0:
                # redundant row; the artificial stays basic pinned at zero
                self.rhsv[r] = 0.0
                continue
            q = int(cand[0])
            self.stat[j] = _LO
            self.val[j] = 0.0
            # degenerate swap: q enters at its current bound value, nothing moves
            self._pivot(r, q, z_dummy, self.val[q])

    def min_violation(self) -> float:
        """Elastic mode: the least total violation sum(max(A x - b, 0)) over
        the box, minimized from the current basis; point() is a minimizer.

        Each row without an artificial gets an elastic column e >= 0 that
        relaxes it to A x + s - e = b; in the tableau that column is minus the
        row's slack column. A row with an artificial needs none, as its
        artificial already measures the row's violation. The current basis
        is feasible for the sum of artificials and elastics, and its minimum
        is the slack LP's. Afterwards the state no longer describes
        A x <= b, so minimize reports it infeasible.
        """
        elastic = np.ones(self.m, dtype=bool)
        elastic[self.art_rows] = False
        k = int(elastic.sum())
        self.T = np.hstack([self.T, -self.T[:, self.n_struct + np.flatnonzero(elastic)]])
        self.lo = np.concatenate([self.lo, np.zeros(k)])
        self.up = np.concatenate([self.up, np.full(k, np.inf)])
        self.up[self.art_start:] = np.inf
        self.val = np.concatenate([self.val, np.zeros(k)])
        self.stat = np.concatenate([self.stat, np.full(k, _LO, dtype=np.int8)])
        self.N += k
        self.frozen = np.zeros(self.N, dtype=bool)
        self._feasible = False
        self._snap = None
        c = np.zeros(self.N)
        c[self.art_start:] = 1.0
        status = self._minimize_inner(c)
        if status != OPTIMAL:
            raise SolverError(f"violation minimization ended with status {status!r}")
        return max(float(self._x_full()[self.art_start:].sum()), 0.0)

    def snapshot(self) -> None:
        """Remember the current (feasible) basis so later solves can restart
        from it instead of from wherever the previous objective ended."""
        self._snap = (self.T.copy(), self.basis.copy(), self.stat.copy(),
                      self.val.copy(), self.rhsv.copy())
        self._dirty_basis = False

    def restore(self) -> None:
        if self._snap is None:
            return
        T, basis, stat, val, rhsv = self._snap
        if self._dirty_basis:
            self.T[...] = T
            self.basis[...] = basis
            self._dirty_basis = False
        self.stat[...] = stat
        self.val[...] = val
        self.rhsv[...] = rhsv

    def minimize(self, c_struct) -> LPSolution:
        """Phase two for one objective; reusable across objectives."""
        c_struct = np.asarray(c_struct, dtype=float)
        if c_struct.shape != (self.n_struct,):
            raise StructuralError("objective dimension mismatch")
        feas = self.ensure_feasible()
        if feas != OPTIMAL:
            return LPSolution(status=feas)
        c_full = np.zeros(self.N)
        c_full[:self.n_struct] = c_struct
        status = self._minimize_inner(c_full)
        if status != OPTIMAL and status != UNBOUNDED:
            return LPSolution(status=status)
        if status == UNBOUNDED:
            return LPSolution(status=UNBOUNDED)
        x = self.point()
        return LPSolution(status=OPTIMAL, x=x, objective_value=float(c_struct @ x))

    def point(self) -> np.ndarray:
        """The structural part of the current basic solution (a copy)."""
        return self._x_full()[:self.n_struct]

    def _x_full(self) -> np.ndarray:
        x = self.val.copy()
        if self.m:
            x[self.basis] = self.rhsv
        return x


def solve_lp(p: LPProblem) -> LPSolution:
    """Solve one LP. Maximization negates the objective internally."""
    p.validate()
    state = SimplexState(p.rows, p.row_bounds, p.lower, p.upper)
    c = p.objective if p.sense == "min" else -p.objective
    sol = state.minimize(c)
    if sol.status == OPTIMAL and p.sense == "max":
        sol.objective_value = -sol.objective_value
    return sol


def solve_many(A, b, lower, upper,
               objectives: Iterable[tuple[np.ndarray, str]]) -> list[LPSolution]:
    """Solve several objectives over one feasible region, sharing phase one.

    Every objective restarts from the phase-one basis, so results are
    identical to independent solve_lp calls on the same rows; only the
    feasibility work is shared. The oracle's entailment uses it.
    """
    state = SimplexState(A, b, lower, upper)
    if state.ensure_feasible() == OPTIMAL:
        state.snapshot()
    out = []
    for c, sense in objectives:
        c = np.asarray(c, dtype=float)
        state.restore()
        sol = state.minimize(c if sense == "min" else -c)
        if sol.status == OPTIMAL and sense == "max":
            sol.objective_value = -sol.objective_value
        out.append(sol)
    return out
