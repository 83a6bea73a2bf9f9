import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given

from probarg import (BAF, ConstraintSet, LinearAtomicConstraint, RawConstraint,
                     SemanticsFlag, UnsatisfiableError, check_sat, compile_semantics,
                     entail, entail_all, lp, random_instance, satisfies_all,
                     world_lp_entail, world_lp_sat)
from probarg.cli import parse
from probarg.reasoner import EPS_SAT, witness_ok
from conftest import PROPERTY, random_problems


EXAMPLES = Path(__file__).resolve().parent.parent / "problems"


def eq(terms, bound):
    return RawConstraint.of(terms, "=", bound)


def coh_fou(fig1):
    return compile_semantics(fig1, {SemanticsFlag.COH, SemanticsFlag.FOU})


class TestCheckSat:
    def test_fig1_coh_fou_satisfiable(self, fig1):
        res = check_sat(coh_fou(fig1), fig1)
        assert res.satisfiable
        assert res.inconsistency_value == pytest.approx(0.0, abs=1e-9)
        w = res.witness
        assert w["C"] == pytest.approx(1.0, abs=1e-7)
        assert w["D"] == pytest.approx(1.0, abs=1e-7)
        assert w["B"] == pytest.approx(0.0, abs=1e-7)
        assert witness_ok(res, coh_fou(fig1))

    def test_partial_assignment_with_fou_unsatisfiable(self, fig1):
        cs = compile_semantics(fig1, {SemanticsFlag.COH})
        cs.add_raw(eq([(1.0, "B")], 1.0))
        cs.add_raw(eq([(1.0, "C")], 0.0))
        assert check_sat(cs, fig1).satisfiable
        cs.extend(compile_semantics(fig1, {SemanticsFlag.FOU}))
        res = check_sat(cs, fig1)
        assert not res.satisfiable
        assert res.inconsistency_value > 1e-6
        assert res.witness is None
        # the world-space oracle sees the same inconsistency value
        oracle_res = world_lp_sat(cs, fig1)
        assert not oracle_res.satisfiable
        assert res.inconsistency_value == pytest.approx(
            oracle_res.inconsistency_value, abs=1e-6)

    def test_direct_contradiction_value_one(self):
        baf = BAF(["A"])
        cs = ConstraintSet()
        cs.add_raw(eq([(1.0, "A")], 1.0))
        cs.add_raw(eq([(1.0, "A")], 0.0))
        res = check_sat(cs, baf)
        assert not res.satisfiable
        assert res.inconsistency_value == pytest.approx(1.0, abs=1e-9)

    def test_empty_constraints(self, fig1):
        res = check_sat(ConstraintSet(), fig1)
        assert res.satisfiable and res.inconsistency_value == 0.0


class TestEntail:
    def test_fig1_b_pinned_to_zero(self, fig1):
        b = entail(coh_fou(fig1), fig1, "B")
        assert b.lower == pytest.approx(0.0, abs=1e-6)
        assert b.upper == pytest.approx(0.0, abs=1e-6)

    def test_scoh_forces_a(self, fig1):
        cs = compile_semantics(fig1, {SemanticsFlag.COH, SemanticsFlag.FOU,
                                      SemanticsFlag.SCOH})
        b = entail(cs, fig1, "A")
        assert b.lower == pytest.approx(1.0, abs=1e-6)
        assert b.upper == pytest.approx(1.0, abs=1e-6)

    def test_partial_assignment_bound(self, ab_attack):
        cs = compile_semantics(ab_attack, {SemanticsFlag.COH})
        cs.add_raw(eq([(1.0, "A")], 0.8))
        b = entail(cs, ab_attack, "B")
        assert b.lower == pytest.approx(0.0, abs=1e-9)
        assert b.upper == pytest.approx(0.2, abs=1e-9)
        w = world_lp_entail(cs, ab_attack, "B")
        assert b.lower == pytest.approx(w.lower, abs=1e-6)
        assert b.upper == pytest.approx(w.upper, abs=1e-6)

    def test_unconstrained_box(self, fig1):
        b = entail(ConstraintSet(), fig1, "A")
        assert (b.lower, b.upper) == (0.0, 1.0)

    def test_precondition_enforced(self):
        baf = BAF(["A"])
        cs = ConstraintSet()
        cs.add_raw(eq([(1.0, "A")], 1.0))
        cs.add_raw(eq([(1.0, "A")], 0.0))
        # the error carries the inconsistency value
        with pytest.raises(UnsatisfiableError, match="inconsistency value 1\\)"):
            entail(cs, baf, "A")
        with pytest.raises(UnsatisfiableError, match="inconsistency value 1\\)"):
            entail_all(cs, baf)


class TestEntailAll:
    def test_fig1_coh_fou(self, fig1):
        allb = entail_all(coh_fou(fig1), fig1)
        got = {a.name: (round(b.lower, 6), round(b.upper, 6)) for a, b in allb.items()}
        assert got == {"A": (0.0, 1.0), "B": (0.0, 0.0), "C": (1.0, 1.0), "D": (1.0, 1.0)}

    def test_empty_constraints_full_box(self, fig1):
        allb = entail_all(ConstraintSet(), fig1)
        assert all((b.lower, b.upper) == (0.0, 1.0) for b in allb.values())

    def test_with_scoh(self, fig1):
        cs = compile_semantics(fig1, {SemanticsFlag.COH, SemanticsFlag.FOU,
                                      SemanticsFlag.SCOH})
        allb = entail_all(cs, fig1)
        got = {a.name: (round(b.lower, 6), round(b.upper, 6)) for a, b in allb.items()}
        assert got == {"A": (1.0, 1.0), "B": (0.0, 0.0), "C": (1.0, 1.0), "D": (1.0, 1.0)}

    def test_matches_single_entail(self, fig1):
        cs = coh_fou(fig1)
        allb = entail_all(cs, fig1)
        for a in fig1.args:
            single = entail(cs, fig1, a)
            assert allb[a].lower == pytest.approx(single.lower, abs=1e-9)
            assert allb[a].upper == pytest.approx(single.upper, abs=1e-9)


def _counting_minimize(monkeypatch):
    """Wrap SimplexState.minimize; returns the list of objectives it was given."""
    seen = []
    original = lp.SimplexState.minimize

    def minimize(self, c):
        seen.append(np.array(c, dtype=float))
        return original(self, c)

    monkeypatch.setattr(lp.SimplexState, "minimize", minimize)
    return seen


def _chain(n, flags):
    names = [f"c{i:04d}" for i in range(n)]
    baf = BAF(names, attacks=list(zip(names, names[1:])))
    return baf, compile_semantics(baf, flags)


class TestBoundsFromSeenPoints:
    def test_chain_needs_few_solves(self, monkeypatch):
        n = 1000
        baf, cs = _chain(n, {SemanticsFlag.COH, SemanticsFlag.FOU})
        seen = _counting_minimize(monkeypatch)
        allb = entail_all(cs, baf)
        # the phase-one point certifies all but min pi(c0000) and max pi(c0001)
        assert len(seen) <= 2
        got = [(allb[a].lower, allb[a].upper) for a in baf.args]
        assert got == [(1.0, 1.0), (0.0, 0.0)] + [(0.0, 1.0)] * (n - 2)

    def test_max_reached_only_through_other_coordinates_is_solved(self, monkeypatch):
        # pi(A) <= pi(B): the phase-one point is 0, and moving A alone to 1
        # breaks the row, yet max pi(A) = 1 with B = 1
        baf = BAF(["A", "B"])
        cs = ConstraintSet()
        cs.add(LinearAtomicConstraint.of([(1.0, "A"), (-1.0, "B")], 0.0))
        seen = _counting_minimize(monkeypatch)
        allb = entail_all(cs, baf)
        assert [c.tolist() for c in seen if c.size == baf.n] == [[-1.0, 0.0]]
        assert (allb[baf.arg("A")].lower, allb[baf.arg("A")].upper) == (0.0, 1.0)
        assert (allb[baf.arg("B")].lower, allb[baf.arg("B")].upper) == (0.0, 1.0)

    @pytest.mark.parametrize("terms, relation, bound, expected", [
        # pi(A) + pi(B) <= 1.5 and pi(B) >= 0.7: max pi(A) = 0.8
        ([(1.0, "A"), (1.0, "B")], "<=", 1.5, (0.0, 0.8)),
        # ... and with the maximum just below 1
        ([(1.0, "A"), (1.0, "B")], "<=", 1.6999, (0.0, 0.9999)),
        # pi(A) >= 0.5 pi(B) + 0.2 once pi(B) >= 0.7: min pi(A) = 0.55
        ([(1.0, "A"), (-0.5, "B")], ">=", 0.2, (0.55, 1.0)),
    ])
    def test_bound_inside_the_box_is_never_certified(self, terms, relation, bound, expected):
        baf = BAF(["A", "B"])
        cs = ConstraintSet()
        cs.add_raw(RawConstraint.of(terms, relation, bound))
        cs.add_raw(RawConstraint.of([(1.0, "B")], ">=", 0.7))
        b = entail_all(cs, baf)[baf.arg("A")]
        assert (b.lower, b.upper) == pytest.approx(expected, abs=1e-12)
        single = entail(cs, baf, "A")
        assert (single.lower, single.upper) == pytest.approx(expected, abs=1e-12)


@PROPERTY
@given(random_problems(max_n=12))
def test_entail_all_matches_cold_solves(p):
    assume(check_sat(p.cs, p.baf).satisfiable)
    A, b = p.cs.as_matrix(p.baf)
    n = p.baf.n
    allb = entail_all(p.cs, p.baf)
    for i, arg in enumerate(p.baf.args):
        c = np.zeros(n)
        c[i] = 1.0
        for sense, got in (("min", allb[arg].lower), ("max", allb[arg].upper)):
            cold = lp.solve_lp(lp.LPProblem(c, sense, A, b, np.zeros(n), np.ones(n)))
            assert cold.status == lp.OPTIMAL
            assert got == pytest.approx(cold.objective_value, abs=1e-9)


@PROPERTY
@given(random_problems(max_n=6))
def test_entail_all_matches_world_lp(p):
    assume(check_sat(p.cs, p.baf).satisfiable)
    allb = entail_all(p.cs, p.baf)
    for arg in p.baf.args:
        w = world_lp_entail(p.cs, p.baf, arg)
        assert allb[arg].lower == pytest.approx(w.lower, abs=1e-6)
        assert allb[arg].upper == pytest.approx(w.upper, abs=1e-6)


class TestPhaseOneVerdict:
    def test_chain_with_optimism_at_a_thousand(self):
        # the slack LP alone took tens of seconds here: a 2000 x 5000 tableau
        # and hundreds of dense pivots
        baf, cs = _chain(1000, {SemanticsFlag.COH, SemanticsFlag.FOU, SemanticsFlag.OPT})
        t0 = time.perf_counter()
        res = check_sat(cs, baf)
        assert time.perf_counter() - t0 < 5.0
        assert res.satisfiable and witness_ok(res, cs)

    def test_satisfiable_set_never_reaches_min_violation(self, monkeypatch):
        calls = []
        original = lp.SimplexState.min_violation

        def min_violation(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(lp.SimplexState, "min_violation", min_violation)
        baf, cs = _chain(200, {SemanticsFlag.COH, SemanticsFlag.FOU})
        assert check_sat(cs, baf).satisfiable
        entail_all(cs, baf)
        entail(cs, baf, "c0001")
        assert calls == []

    def test_unsatisfiable_set_builds_one_simplex_state(self, monkeypatch):
        built = []
        original = lp.SimplexState.__init__

        def init(self, *args, **kw):
            built.append(self)
            original(self, *args, **kw)

        monkeypatch.setattr(lp.SimplexState, "__init__", init)
        pf = parse((EXAMPLES / "example2_unsat.paf").read_text())
        cs = pf.constraint_set()
        res = check_sat(cs, pf.baf)
        assert not res.satisfiable
        assert res.inconsistency_value == pytest.approx(2.0, abs=1e-12)
        assert len(built) == 1
        with pytest.raises(UnsatisfiableError, match="inconsistency value 2\\)"):
            entail_all(cs, pf.baf)
        assert len(built) == 2

    def test_eps_sat_is_the_threshold_on_the_witness_violation(self):
        # phase one stops with pi(A) = 0.5, which misses the second row by 1e-8
        s = 1e-4
        baf = BAF(["A", "B"])
        cs = ConstraintSet()
        cs.add_raw(RawConstraint.of([(s, "A"), (s, "B")], "<=", 0.5 * s))
        cs.add_raw(RawConstraint.of([(s, "A")], ">=", 0.5001 * s))
        res = check_sat(cs, baf)
        assert res.satisfiable and res.inconsistency_value == pytest.approx(1e-8, rel=1e-6)
        strict = check_sat(cs, baf, eps_sat=1e-9)
        assert not strict.satisfiable and strict.witness is None
        assert strict.inconsistency_value == pytest.approx(1e-8, rel=1e-6)


def _slack_lp_value(cs, baf) -> float:
    """The reference inconsistency value: every row relaxed by its own slack,
    min sum(s) s.t. A x - s <= b, x in [0,1], s >= 0, solved as one LP."""
    A, b = cs.as_matrix(baf)
    m, n = A.shape
    rows = np.hstack([A, -np.eye(m)]) if m else np.zeros((0, n))
    upper = np.concatenate([np.ones(n), np.full(m, np.inf)])
    c = np.concatenate([np.zeros(n), np.ones(m)])
    sol = lp.solve_lp(lp.LPProblem(c, "min", rows, b, np.zeros(n + m), upper))
    assert sol.status == lp.OPTIMAL
    return max(sol.objective_value, 0.0)


@PROPERTY
@given(random_problems(max_n=8))
def test_verdict_matches_the_slack_lp(p):
    res = check_sat(p.cs, p.baf)
    slack = _slack_lp_value(p.cs, p.baf)
    assert res.satisfiable == (slack <= EPS_SAT)
    if res.satisfiable:
        A, b = p.cs.as_matrix(p.baf)
        x = res.witness.as_array()
        assert np.all((0.0 <= x) & (x <= 1.0))
        assert witness_ok(res, p.cs, EPS_SAT)
        violation = float(np.maximum(A @ x - b, 0.0).sum())
        assert res.inconsistency_value == pytest.approx(violation, abs=1e-15)
        assert res.inconsistency_value <= EPS_SAT
    else:
        assert res.witness is None
        assert res.inconsistency_value == pytest.approx(slack, abs=1e-12)
        message = re.escape(f"inconsistency value {res.inconsistency_value:.6g})")
        with pytest.raises(UnsatisfiableError, match=message):
            entail_all(p.cs, p.baf)


class TestInvariants:
    def test_inconsistency_monotone_under_additions(self):
        rng = np.random.default_rng(23)
        for seed in range(20):
            baf, cs = random_instance(4, 0.3, 3, seed=seed)
            v1 = check_sat(cs, baf).inconsistency_value
            extra_baf, extra = random_instance(4, 0.0, 1, seed=1000 + seed)
            cs2 = cs.copy()
            cs2.extend(extra)
            v2 = check_sat(cs2, baf).inconsistency_value
            assert v2 >= v1 - 1e-9

    def test_bounds_narrow_under_additions(self):
        for seed in range(30):
            baf, cs = random_instance(4, 0.2, 2, seed=seed)
            if not check_sat(cs, baf).satisfiable:
                continue
            _, extra = random_instance(4, 0.0, 1, seed=500 + seed)
            cs2 = cs.copy()
            cs2.extend(extra)
            if not check_sat(cs2, baf).satisfiable:
                continue
            b1 = entail_all(cs, baf)
            b2 = entail_all(cs2, baf)
            for a in baf.args:
                assert b2[a].lower >= b1[a].lower - 1e-7
                assert b2[a].upper <= b1[a].upper + 1e-7

    def test_witness_passes_constraints(self):
        for seed in range(25):
            baf, cs = random_instance(5, 0.25, 3, seed=seed)
            res = check_sat(cs, baf)
            if res.satisfiable:
                assert satisfies_all(res.witness, cs, tol=1e-6)

    def test_sat_value_zero_iff_satisfiable(self):
        for seed in range(25):
            baf, cs = random_instance(4, 0.2, 3, seed=seed)
            res = check_sat(cs, baf)
            assert res.satisfiable == (res.inconsistency_value <= 1e-7)

    def test_opt_pins_unattacked_to_one(self, fig1):
        cs = compile_semantics(fig1, {SemanticsFlag.OPT})
        b = entail(cs, fig1, "C")
        assert b.lower == pytest.approx(1.0, abs=1e-9)
        assert b.upper == pytest.approx(1.0, abs=1e-9)

    def test_incompatible_flags_measured(self):
        # foundedness and scepticality fight over every isolated argument
        baf = BAF(["A", "B"])
        cs = compile_semantics(baf, {SemanticsFlag.FOU, SemanticsFlag.SCE})
        res = check_sat(cs, baf)
        assert not res.satisfiable
        assert res.inconsistency_value == pytest.approx(2.0, abs=1e-6)

    def test_cancelling_terms(self):
        baf = BAF(["A"])
        cs = ConstraintSet()
        cs.add_raw(RawConstraint.of([(1.0, "A"), (-1.0, "A")], "<=", -1.0))
        res = check_sat(cs, baf)
        assert not res.satisfiable
        assert res.inconsistency_value == pytest.approx(1.0, abs=1e-9)
        cs2 = ConstraintSet()
        cs2.add_raw(RawConstraint.of([(1.0, "A"), (-1.0, "A")], "<=", 0.5))
        assert check_sat(cs2, baf).satisfiable
