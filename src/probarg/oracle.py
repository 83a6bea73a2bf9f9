"""Brute-force world-space reference implementations.

Everything here works on the full vector of 2^n world probabilities, so it is
exponential on purpose: it exists to cross-check the polynomial labelling
path on small instances. All entry points refuse instances beyond a soft
argument limit.
"""
from __future__ import annotations

from typing import Optional, Union

import numpy as np

from . import lp
from .constraints import ConstraintSet, RawConstraint
from .errors import SolverError, UnsatisfiableError
from .maxent import maxent_over_polytope
from .model import (BAF, ArgLike, Formula, WorldDistribution,
                    check_world_size, formula_indicator, labelling_of)
from .reasoner import EPS_SAT, EntailmentBounds, SatResult, clamp_bounds


def _atom_indicators(n: int) -> np.ndarray:
    """n x 2^n matrix: row i marks the worlds accepting argument i."""
    masks = np.arange(1 << n, dtype=np.int64)
    return np.array([(masks >> i & 1) for i in range(n)], dtype=float)


def _world_rows(cs: ConstraintSet, baf: BAF):
    """Constraint rows over world probabilities, after the normalization pair."""
    W = 1 << baf.n
    A, b = cs.as_matrix(baf)
    return (np.vstack([np.ones(W), -np.ones(W), A @ _atom_indicators(baf.n)]),
            np.concatenate([[1.0, -1.0], b]))


def world_lp_sat(cs: ConstraintSet, baf: BAF, max_args: Optional[int] = None,
                 eps_sat: float = EPS_SAT) -> SatResult:
    """Slack-minimizing satisfiability over world probabilities."""
    check_world_size(baf.n, max_args)
    W = 1 << baf.n
    rows, bounds = _world_rows(cs, baf)
    m_sem = rows.shape[0] - 2  # slack only for the semantic rows, not normalization
    full_rows = np.hstack([rows, np.zeros((rows.shape[0], m_sem))])
    if m_sem:
        full_rows[2:, W:] = -np.eye(m_sem)
    lower = np.zeros(W + m_sem)
    upper = np.concatenate([np.ones(W), np.full(m_sem, np.inf)])
    c = np.concatenate([np.zeros(W), np.ones(m_sem)])
    sol = lp.solve_lp(lp.LPProblem(c, "min", full_rows, bounds, lower, upper))
    if sol.status != lp.OPTIMAL:
        raise SolverError(f"world satisfiability LP ended with status {sol.status!r}")
    value = max(float(sol.objective_value), 0.0)
    if value > eps_sat:
        return SatResult(False, value, None)
    probs = np.clip(sol.x[:W], 0.0, 1.0)
    probs = probs / probs.sum()
    witness = labelling_of(WorldDistribution(baf, probs, max_args=baf.n))
    return SatResult(True, value, witness)


def _as_indicator(baf: BAF, f: Union[Formula, ArgLike]) -> np.ndarray:
    if isinstance(f, Formula):
        return formula_indicator(baf, f, max_args=baf.n).astype(float)
    masks = np.arange(1 << baf.n, dtype=np.int64)
    return (masks >> baf.index(f) & 1).astype(float)


def world_lp_entail(cs: ConstraintSet, baf: BAF, f: Union[Formula, ArgLike],
                    max_args: Optional[int] = None) -> EntailmentBounds:
    """Formula probability bounds over all satisfying world distributions."""
    check_world_size(baf.n, max_args)
    sat = world_lp_sat(cs, baf, max_args=max_args)
    if not sat.satisfiable:
        raise UnsatisfiableError("world-space entailment requires a satisfiable constraint set")
    rows, bounds = _world_rows(cs, baf)
    W = 1 << baf.n
    c = _as_indicator(baf, f)
    sols = lp.solve_many(rows, bounds, np.zeros(W), np.ones(W), [(c, "min"), (c, "max")])
    for s in sols:
        if s.status != lp.OPTIMAL:
            raise SolverError(f"world entailment LP ended with status {s.status!r}")
    lo, hi = clamp_bounds([sols[0].objective_value], [sols[1].objective_value])
    return EntailmentBounds(float(lo[0]), float(hi[0]))


def world_maxent(cs: ConstraintSet, baf: BAF,
                 max_args: Optional[int] = None) -> WorldDistribution:
    """Entropy-maximizing world distribution over the 2^n world probabilities,
    by projected Newton on its log-partition dual (maxent_over_polytope): one
    multiplier per constraint row and no LP, so agreement with the labelling
    path checks the factorization, not a shared solver."""
    check_world_size(baf.n, max_args)
    rows, bounds = _world_rows(cs, baf)
    try:
        # the softmax is normalized already; the pair sum p = 1 is dropped
        probs, gap, steps, converged = maxent_over_polytope(rows[2:], bounds[2:])
    except UnsatisfiableError:
        raise UnsatisfiableError("world-space maximum entropy requires a satisfiable constraint set") from None
    if not converged:
        raise SolverError(f"world maximum entropy stopped at gap {gap:.3g} after {steps} Newton steps")
    return WorldDistribution(baf, probs, max_args=baf.n)


def random_instance(n: int, edge_density: float, constraint_count: int,
                    seed: int) -> tuple[BAF, ConstraintSet]:
    """Deterministic random BAF plus user constraints, for agreement corpora.

    Coefficients and bounds are uniform in [-2, 2]; relations mix <=, = and >=.
    """
    if n < 1:
        raise ValueError("need at least one argument")
    if not 0.0 <= edge_density <= 1.0:
        raise ValueError("edge density must be in [0, 1]")
    rng = np.random.default_rng(seed)
    names = [f"A{i:03d}" for i in range(n)]
    attacks = []
    supports = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if rng.random() < edge_density:
                attacks.append((names[i], names[j]))
            if rng.random() < edge_density:
                supports.append((names[i], names[j]))
    baf = BAF(names, attacks, supports)

    cs = ConstraintSet()
    relations = ["<=", "=", ">="]
    for _ in range(constraint_count):
        k = int(rng.integers(1, min(3, n) + 1))
        which = rng.choice(n, size=k, replace=False)
        coeffs = rng.uniform(-2.0, 2.0, size=k)
        bound = float(rng.uniform(-2.0, 2.0))
        rel = relations[int(rng.integers(0, 3))]
        terms = [(float(c), names[i]) for c, i in zip(coeffs, which)]
        cs.add_raw(RawConstraint.of(terms, rel, bound), "user")
    return baf, cs
