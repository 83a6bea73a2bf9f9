"""The correctness gate. Every check runs after the instance's timed
operations, never inside them.

`check` returns the operations it found wrong, each with a reason. An
operation that raised counts as wrong unless the error is one of the typed
answers the workload expects, and that answer is itself checked.
"""
from __future__ import annotations

import itertools
import math
import time

from workloads import ORACLE_MAX_N, Instance, Outcome

BOUND_TOL = 1e-6     # witness / labelling inside the entailment interval
ROW_TOL = 1e-6       # maxent labelling against each constraint row
QUERY_TOL = 1e-12    # query batch against the benchmark's own recomputation
ORACLE_TOL = 1e-6    # world_maxent marginals against the labelling
HIGHS_TOL = 1e-6     # entailment bounds against HiGHS
EXACT_TOL = 1e-6     # maxent labelling against the known maximum
PIN_TOL = 1e-9       # an interval this narrow pins its argument

# Families in which the centre labelling 0.5 is feasible once the pinned
# arguments are fixed. There the maximum-entropy labelling is known exactly:
# each pinned argument at its bound, every other one at 0.5.
CENTRE_FEASIBLE = ("entail-random", "chain-large")


def _eval(f, world: dict, pa) -> bool:
    """The benchmark's own formula evaluator, independent of the library's."""
    if isinstance(f, pa.Atom):
        return world[f.name]
    if isinstance(f, pa.Not):
        return not _eval(f.inner, world, pa)
    if isinstance(f, pa.And):
        return all(_eval(p, world, pa) for p in f.parts)
    if isinstance(f, pa.Or):
        return any(_eval(p, world, pa) for p in f.parts)
    raise TypeError(f"not a formula: {f!r}")


def _atoms(f, pa) -> set[str]:
    if isinstance(f, pa.Atom):
        return {f.name}
    if isinstance(f, pa.Not):
        return _atoms(f.inner, pa)
    return set().union(*(_atoms(p, pa) for p in f.parts))


def dnf_reference(L, f, pa) -> float:
    """Formula probability under the product model of L by summing over all
    2^k sign patterns of the formula's k arguments."""
    names = sorted(_atoms(f, pa))
    total = 0.0
    for bits in itertools.product((False, True), repeat=len(names)):
        world = dict(zip(names, bits))
        if _eval(f, world, pa):
            p = 1.0
            for name, bit in world.items():
                p *= L[name] if bit else 1.0 - L[name]
            total += p
    return total


def conjunction_reference(L, q) -> float:
    p = 1.0
    for name, positive in q.literals:
        p *= L[name] if positive else 1.0 - L[name]
    return p


def check(pa, workload: str, inst: Instance, out: Outcome) -> list[tuple[str, str]]:
    """Wrong operations of one instance, as (operation, reason) pairs."""
    from probarg import reasoner

    wrong: list[tuple[str, str]] = []
    vals, errs = out.values, out.errors

    for op, exc in errs.items():
        expected = ((op == "conditional" and isinstance(exc, pa.ConditionInconsistentError))
                    or (op.startswith("oracle") and isinstance(exc, pa.LimitExceededError)
                        and inst.n > ORACLE_MAX_N))
        if not expected:
            wrong.append((op, f"raised {type(exc).__name__}: {exc}"))

    cs, baf = vals.get("cs"), vals.get("baf")
    sat = vals.get("sat")
    if sat is None:
        return wrong
    if sat.satisfiable and not reasoner.witness_ok(sat, cs):
        wrong.append(("sat", "witness violates a constraint"))
    if not sat.satisfiable and workload != "small-files":
        wrong.append(("sat", "UNSAT on a family that is satisfiable by construction"))

    bounds = vals.get("entail")
    me = vals.get("maxent")
    if bounds is not None:
        for a in baf.args:
            b = bounds[a]
            if not (0.0 <= b.lower <= b.upper <= 1.0):
                wrong.append(("entail", f"bad interval for {a.name}: {b}"))
                break
            if sat.witness is not None and not (
                    b.lower - BOUND_TOL <= sat.witness[a] <= b.upper + BOUND_TOL):
                wrong.append(("entail", f"witness outside the bounds of {a.name}"))
                break
            if me is not None and not (
                    b.lower - BOUND_TOL <= me.labelling[a] <= b.upper + BOUND_TOL):
                wrong.append(("maxent", f"labelling outside the bounds of {a.name}"))
                break
        if me is not None and workload in CENTRE_FEASIBLE:
            for a in baf.args:
                b = bounds[a]
                exact = b.lower if b.upper - b.lower <= PIN_TOL else 0.5
                if abs(me.labelling[a] - exact) > EXACT_TOL:
                    wrong.append(("maxent", f"labelling of {a.name} is {me.labelling[a]!r}, "
                                            f"the maximum is {exact!r}"))
                    break

    if me is not None:
        if not me.converged:
            wrong.append(("maxent", f"not converged after {me.iterations} iterations"))
        if not pa.satisfies_all(me.labelling, cs, ROW_TOL):
            wrong.append(("maxent", "labelling violates a constraint row"))
        batch = vals.get("query")
        if batch is not None:
            got = batch[0] + batch[1]
            want = ([conjunction_reference(me.labelling, q) for q in vals["queries"]]
                    + [dnf_reference(me.labelling, f, pa) for f in vals["dnfs"]])
            if len(got) != len(want) or any(abs(g - w) > QUERY_TOL for g, w in zip(got, want)):
                wrong.append(("query", "query batch differs from the recomputed values"))

    if "conditional" in vals or "conditional" in errs:
        # a single positive literal is consistent exactly when its upper bound is 1
        consistent = bounds is not None and bounds[baf.arg(inst.condition)].upper >= 1.0 - BOUND_TOL
        value = vals.get("conditional")
        if value is not None and not (consistent and 0.0 <= value <= 1.0):
            wrong.append(("conditional", f"answer {value!r} for a condition that is "
                                         f"{'consistent' if consistent else 'inconsistent'}"))
        if "conditional" in errs and consistent:
            wrong.append(("conditional", "consistent condition reported inconsistent"))

    osat = vals.get("oracle_sat")
    if osat is not None and osat.satisfiable != sat.satisfiable:
        wrong.append(("oracle_sat", f"world LP says SAT={osat.satisfiable}, labelling LP "
                                    f"says SAT={sat.satisfiable}"))
    dist = vals.get("oracle_maxent")
    if dist is not None and me is not None:
        marg = pa.labelling_of(dist)
        worst = max(abs(marg[a] - me.labelling[a]) for a in baf.args)
        if worst > ORACLE_TOL:
            wrong.append(("oracle_maxent", f"world marginals differ from the labelling by {worst:.2e}"))
    return wrong


class HighsReference:
    """Entailment bounds from scipy's HiGHS, when scipy imports: a reference
    column, never a dependency."""

    def __init__(self):
        try:
            from scipy.optimize import linprog
        except ImportError:
            linprog = None
        self.linprog = linprog
        self.times_ms: list[float] = []

    @property
    def available(self) -> bool:
        return self.linprog is not None

    def check(self, inst: Instance, bounds) -> list[tuple[str, str]]:
        import numpy as np

        A, b = inst.cs.as_matrix(inst.baf)
        n = inst.baf.n
        t0 = time.perf_counter()
        ref = []
        for i in range(n):
            c = np.zeros(n)
            c[i] = 1.0
            lo = self.linprog(c, A_ub=A, b_ub=b, bounds=[(0, 1)] * n, method="highs")
            hi = self.linprog(-c, A_ub=A, b_ub=b, bounds=[(0, 1)] * n, method="highs")
            if lo.status != 0 or hi.status != 0:
                return [("entail", f"HiGHS reference ended with status {lo.status}/{hi.status}")]
            ref.append((lo.fun, -hi.fun))
        self.times_ms.append((time.perf_counter() - t0) * 1e3)
        worst = max(max(abs(bounds[a].lower - lo), abs(bounds[a].upper - hi))
                    for a, (lo, hi) in zip(inst.baf.args, ref))
        if not math.isfinite(worst) or worst > HIGHS_TOL:
            return [("entail", f"bounds differ from HiGHS by {worst:.2e}")]
        return []
