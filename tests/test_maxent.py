import math
import time

import numpy as np
import pytest
from hypothesis import assume, given

from probarg import (BAF, Atom, ConditionInconsistentError, ConjunctiveQuery,
                     ConstraintSet, LimitExceededError, LinearAtomicConstraint,
                     Not, Or, RawConstraint, SemanticsFlag, StructuralError,
                     UnsatisfiableError, compile_semantics, conditional_query,
                     conjunctive_query, entropy_labelling, exclusive_dnf_query,
                     factorized_distribution, kl_divergence, labelling_of,
                     maxent_labelling, prob_of_formula, random_instance,
                     satisfies_all, world_maxent, check_sat)
from probarg.maxent import GAP_TOL
from conftest import PROPERTY, Problem, random_formula, random_labelling, random_problems


def eq(terms, bound):
    return RawConstraint.of(terms, "=", bound)


def coh_with_a08(baf):
    cs = compile_semantics(baf, {SemanticsFlag.COH})
    cs.add_raw(eq([(1.0, "A")], 0.8))
    return cs


class TestMaxentLabelling:
    def test_unconstrained_is_indifferent(self, fig1):
        res = maxent_labelling(ConstraintSet(), fig1)
        assert all(abs(v - 0.5) < 1e-9 for _, v in res.labelling.items())
        assert res.converged

    def test_worked_example(self, ab_attack):
        res = maxent_labelling(coh_with_a08(ab_attack), ab_attack)
        assert res.labelling["A"] == pytest.approx(0.8, abs=1e-6)
        assert res.labelling["B"] == pytest.approx(0.2, abs=1e-6)
        table = factorized_distribution(res.labelling).probs
        assert np.allclose(table, [0.16, 0.64, 0.04, 0.16], atol=1e-4)

    def test_one_sided_bound(self):
        baf = BAF(["A"])
        cs = ConstraintSet()
        cs.add_raw(RawConstraint.of([(1.0, "A")], ">=", 0.7))
        res = maxent_labelling(cs, baf)
        # binary entropy decreases above one half, so the bound is tight
        assert res.labelling["A"] == pytest.approx(0.7, abs=1e-6)

    def test_feasibility_of_result(self):
        for seed in range(20):
            baf, cs = random_instance(5, 0.25, 2, seed=seed)
            full = compile_semantics(baf, {SemanticsFlag.COH})
            full.extend(cs)
            if not check_sat(full, baf).satisfiable:
                continue
            res = maxent_labelling(full, baf)
            assert res.converged
            assert satisfies_all(res.labelling, full, tol=1e-6)

    def test_path_independence(self, fig1):
        # the optimum is unique, so nothing about how the rows are presented
        # may move it: argument order, row order, duplicate rows, row scaling
        problems = [Problem(fig1, compile_semantics(fig1, {SemanticsFlag.COH, SemanticsFlag.FOU}))]
        # seeds 2, 5, 11 and 14 are UNSAT; the scan goes on to later seeds
        for seed in (2, 5, 11, 14) + tuple(range(300, 340)):
            baf, cs = random_instance(4, 0.3, 2, seed=seed)
            full = compile_semantics(baf, {SemanticsFlag.COH})
            full.extend(cs)
            if check_sat(full, baf).satisfiable:
                problems.append(Problem(baf, full))
            if len(problems) == 5:
                break
        assert len(problems) == 5
        rng = np.random.default_rng(7)
        for p in problems:
            base = maxent_labelling(p.cs, p.baf)
            assert base.converged
            for other, rename in _presentations(p.cs, p.baf, rng):
                res = maxent_labelling(other.cs, other.baf)
                assert res.converged
                for arg in p.baf.args:
                    got = res.labelling[rename.get(arg.name, arg.name)]
                    assert got == pytest.approx(base.labelling[arg], abs=1e-8)

    @pytest.mark.parametrize("s", [1.0, 1e4, 1e6])
    def test_verdict_agrees_with_check_sat_at_any_scale(self, s):
        # infeasible by 1e-6 in raw units: above the LP tolerance, yet far
        # below Newton's tolerance once each row is scaled to unit size
        baf = BAF(["A", "B"])
        cs = ConstraintSet()
        cs.add_raw(RawConstraint.of([(s, "A"), (s, "B")], "<=", 0.5 * s))
        cs.add_raw(RawConstraint.of([(s, "A")], ">=", 0.5 * s + 1e-6))
        assert not check_sat(cs, baf).satisfiable
        with pytest.raises(UnsatisfiableError):
            maxent_labelling(cs, baf)
        pinned = ConstraintSet()
        pinned.add_raw(RawConstraint.of([(s, "A"), (s, "B")], ">=", 2.0 * s))
        res = maxent_labelling(pinned, baf)
        assert res.converged and satisfies_all(res.labelling, pinned, tol=1e-7)

    def test_unsatisfiable_rejected(self):
        baf = BAF(["A"])
        cs = ConstraintSet()
        cs.add_raw(eq([(1.0, "A")], 1.0))
        cs.add_raw(eq([(1.0, "A")], 0.0))
        with pytest.raises(UnsatisfiableError):
            maxent_labelling(cs, baf)

    def test_entropy_field_matches_labelling(self, ab_attack):
        res = maxent_labelling(coh_with_a08(ab_attack), ab_attack)
        assert res.entropy == pytest.approx(entropy_labelling(res.labelling), abs=1e-12)

    def test_nonconvergence_reports_best_iterate(self, ab_attack):
        res = maxent_labelling(coh_with_a08(ab_attack), ab_attack,
                               gap_tol=-1.0, max_iter=3)
        assert not res.converged
        assert res.iterations == 3
        assert math.isfinite(res.gap)
        assert satisfies_all(res.labelling, coh_with_a08(ab_attack), tol=1e-6)

    def test_support_chain_forcing(self):
        # a fully supported chain with a pinned head: support coherence pushes
        # every later argument to at least the head's belief
        names = [f"S{i}" for i in range(8)]
        baf = BAF(names, supports=[(names[i], names[i + 1]) for i in range(7)])
        cs = compile_semantics(baf, {SemanticsFlag.SCOH})
        cs.add_raw(eq([(1.0, names[0])], 0.9))
        res = maxent_labelling(cs, baf)
        assert res.converged
        assert all(abs(v - 0.9) < 1e-6 for _, v in res.labelling.items())

    def test_half_sandwich_flags(self):
        baf = BAF(["A", "B"])
        cs = compile_semantics(baf, {SemanticsFlag.SFOU, SemanticsFlag.SSCE})
        res = maxent_labelling(cs, baf)
        assert all(abs(v - 0.5) < 1e-9 for _, v in res.labelling.items())


def _presentations(cs, baf, rng):
    """The same problem written four other ways, each with the renaming of
    its arguments: permuted argument order, shuffled rows, duplicated rows
    and one row scaled by a positive constant."""
    names = [a.name for a in baf.args]
    perm = rng.permutation(len(names))
    rename = {name: f"P{perm[i]}_{name}" for i, name in enumerate(names)}
    renamed = ConstraintSet()
    for c, prov in cs.items:
        renamed.add(LinearAtomicConstraint.of({rename[n]: v for n, v in c.terms}, c.bound), prov)
    yield Problem(BAF([rename[n] for n in names],
                       [(rename[a.name], rename[b.name]) for a, b in baf.attacks],
                       [(rename[a.name], rename[b.name]) for a, b in baf.supports]),
                   renamed), rename
    items = list(cs.items)
    order = rng.permutation(len(items))
    yield Problem(baf, ConstraintSet([items[i] for i in order])), {}
    yield Problem(baf, ConstraintSet(items + items[::2])), {}
    j = int(rng.integers(len(items)))
    c, prov = items[j]
    scaled = LinearAtomicConstraint.of({n: 3.7 * v for n, v in c.terms}, 3.7 * c.bound)
    yield Problem(baf, ConstraintSet(items[:j] + [(scaled, prov)] + items[j + 1:])), {}


def test_known_nonconvergence():
    # six binding rows on which the former Frank-Wolfe loop stopped at its
    # 10 000-iteration cap
    baf = BAF([f"a{i}" for i in range(12)])
    cs = ConstraintSet()
    for names, bound in [("a10 a2 a6", 0.9261), ("a1 a3 a7", 0.989), ("a1 a3 a7", 1.1908),
                         ("a1 a3 a8", 1.049), ("a1 a6 a7", 0.9447), ("a1 a3 a9", 0.862)]:
        cs.add_raw(RawConstraint.of([(1.0, a) for a in names.split()], "<=", bound))
    t0 = time.perf_counter()
    res = maxent_labelling(cs, baf)
    assert time.perf_counter() - t0 < 1.0
    assert res.converged and res.gap <= GAP_TOL
    assert satisfies_all(res.labelling, cs, tol=1e-9)


@PROPERTY
@given(random_problems(max_n=8))
def test_kkt_certificate(p):
    assume(check_sat(p.cs, p.baf).satisfiable)
    res = maxent_labelling(p.cs, p.baf)
    assert res.converged and res.gap <= GAP_TOL
    A, b = p.cs.as_matrix(p.baf)
    x = res.labelling.as_array()
    assert np.all(A @ x <= b + 1e-9)
    assert np.all(res.multipliers >= 0.0)
    # stationarity wherever x is off the box: logit(x) = -(A^T lam)
    inner = (x > 1e-6) & (x < 1.0 - 1e-6)
    logit = np.log(x[inner] / (1.0 - x[inner]))
    assert np.allclose(logit, -(A.T @ res.multipliers)[inner], atol=1e-6)


@PROPERTY
@given(random_problems(max_n=6))
def test_world_marginals_agree(p):
    assume(check_sat(p.cs, p.baf).satisfiable)
    res = maxent_labelling(p.cs, p.baf)
    marg = labelling_of(world_maxent(p.cs, p.baf))
    for arg in p.baf.args:
        assert res.labelling[arg] == pytest.approx(marg[arg], abs=1e-6)


class TestConjunctiveQuery:
    def test_worked_values(self, ab_attack):
        res = maxent_labelling(coh_with_a08(ab_attack), ab_attack)
        q_ab = ConjunctiveQuery.of([("A", True), ("B", True)])
        q_anb = ConjunctiveQuery.of([("A", True), ("B", False)])
        assert conjunctive_query(res.labelling, q_ab) == pytest.approx(0.16, abs=1e-4)
        assert conjunctive_query(res.labelling, q_anb) == pytest.approx(0.64, abs=1e-4)

    def test_empty_conjunction(self, ab_attack):
        L = maxent_labelling(ConstraintSet(), ab_attack).labelling
        assert conjunctive_query(L, ConjunctiveQuery.of([])) == 1.0

    def test_duplicate_rejected(self):
        with pytest.raises(StructuralError):
            ConjunctiveQuery.of([("A", True), ("A", False)])

    def test_matches_world_sum(self):
        rng = np.random.default_rng(31)
        baf = BAF([f"Q{i}" for i in range(8)])
        for _ in range(20):
            L = random_labelling(rng, baf)
            k = int(rng.integers(0, 6))
            idx = rng.choice(8, size=k, replace=False)
            lits = [(baf.args[i].name, bool(rng.integers(0, 2))) for i in idx]
            q = ConjunctiveQuery.of(lits)
            direct = conjunctive_query(L, q)
            brute = prob_of_formula(factorized_distribution(L), q.to_formula())
            assert direct == pytest.approx(brute, abs=1e-9)

    def test_product_independence(self, fig1):
        # disjoint conjunctions multiply exactly under the factorized model
        cs = compile_semantics(fig1, {SemanticsFlag.COH})
        L = maxent_labelling(cs, fig1).labelling
        q1 = ConjunctiveQuery.of([("A", True), ("B", False)])
        q2 = ConjunctiveQuery.of([("C", True)])
        q12 = ConjunctiveQuery.of([("A", True), ("B", False), ("C", True)])
        assert conjunctive_query(L, q12) == pytest.approx(
            conjunctive_query(L, q1) * conjunctive_query(L, q2), abs=1e-12)


class TestExclusiveDnf:
    def test_disjunction_of_halves(self, ab_attack):
        L = maxent_labelling(ConstraintSet(), ab_attack).labelling
        assert exclusive_dnf_query(L, Atom("A") | Atom("B")) == pytest.approx(0.75, abs=1e-9)

    def test_disjunction_with_worked_labelling(self, ab_attack):
        res = maxent_labelling(coh_with_a08(ab_attack), ab_attack)
        got = exclusive_dnf_query(res.labelling, Atom("A") | Atom("B"))
        assert got == pytest.approx(0.84, abs=1e-4)

    def test_tautology(self, ab_attack):
        L = maxent_labelling(ConstraintSet(), ab_attack).labelling
        assert exclusive_dnf_query(L, Atom("A") | ~Atom("A")) == pytest.approx(1.0)

    def test_limit_refusal(self, ab_attack):
        L = maxent_labelling(ConstraintSet(), ab_attack).labelling
        with pytest.raises(LimitExceededError):
            exclusive_dnf_query(L, Atom("A") | Atom("B"), limit=1)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(37)
        baf = BAF([f"R{i}" for i in range(6)])
        names = [a.name for a in baf.args]
        for _ in range(25):
            L = random_labelling(rng, baf)
            f = random_formula(rng, names)
            got = exclusive_dnf_query(L, f)
            brute = prob_of_formula(factorized_distribution(L), f)
            assert got == pytest.approx(brute, abs=1e-9)


class TestConditionalQuery:
    def test_conditioning_propagates_coherence(self, ab_attack):
        cs = compile_semantics(ab_attack, {SemanticsFlag.COH})
        got = conditional_query(cs, ab_attack,
                                ConjunctiveQuery.positive(["A"]),
                                ConjunctiveQuery.positive(["B"]))
        assert got == pytest.approx(0.0, abs=1e-9)

    def test_empty_condition_equals_plain_query(self, ab_attack):
        cs = coh_with_a08(ab_attack)
        target = ConjunctiveQuery.of([("A", True), ("B", True)])
        via_cond = conditional_query(cs, ab_attack, ConjunctiveQuery.of([]), target)
        plain = conjunctive_query(maxent_labelling(cs, ab_attack).labelling, target)
        assert via_cond == pytest.approx(plain, abs=1e-9)

    def test_ratio_conditioning_is_trivial(self, fig1):
        # under the unaugmented model, P(t and c) / P(c) equals P(t)
        cs = compile_semantics(fig1, {SemanticsFlag.COH})
        cs.add_raw(eq([(1.0, "A")], 0.6))
        L = maxent_labelling(cs, fig1).labelling
        cond = ConjunctiveQuery.positive(["A"])
        target = ConjunctiveQuery.positive(["C"])
        joint = ConjunctiveQuery.positive(["A", "C"])
        p_c = conjunctive_query(L, cond)
        assert p_c > 0
        ratio = conjunctive_query(L, joint) / p_c
        assert ratio == pytest.approx(conjunctive_query(L, target), abs=1e-9)

    def test_inconsistent_condition(self, ab_attack):
        cs = compile_semantics(ab_attack, {SemanticsFlag.COH})
        cs.add_raw(eq([(1.0, "B")], 1.0))
        with pytest.raises(ConditionInconsistentError):
            conditional_query(cs, ab_attack, ConjunctiveQuery.positive(["A"]),
                              ConjunctiveQuery.positive(["B"]))

    def test_negative_condition_rejected(self, ab_attack):
        cs = compile_semantics(ab_attack, {SemanticsFlag.COH})
        with pytest.raises(StructuralError):
            conditional_query(cs, ab_attack,
                              ConjunctiveQuery.of([("A", False)]),
                              ConjunctiveQuery.positive(["B"]))


class TestGuarantees:
    def test_attack_bound(self):
        # with coherence, a conjunction containing attacker and attacked stays small
        for seed in range(15):
            baf, cs = random_instance(4, 0.4, 1, seed=100 + seed)
            if not baf.attacks:
                continue
            full = compile_semantics(baf, {SemanticsFlag.COH})
            full.extend(cs)
            if not check_sat(full, baf).satisfiable:
                continue
            L = maxent_labelling(full, baf).labelling
            for (a, b) in baf.attacks:
                q = ConjunctiveQuery.of([(a, True), (b, True)]) if a != b else None
                if q is None:
                    continue
                val = conjunctive_query(L, q)
                assert val <= min(0.25, 1.0 - L[a]) + 1e-6

    def test_support_bound(self):
        for seed in range(15):
            baf, cs = random_instance(4, 0.4, 1, seed=200 + seed)
            if not baf.supports:
                continue
            full = compile_semantics(baf, {SemanticsFlag.SCOH})
            full.extend(cs)
            if not check_sat(full, baf).satisfiable:
                continue
            L = maxent_labelling(full, baf).labelling
            for (a, b) in baf.supports:
                if a == b:
                    continue
                q = ConjunctiveQuery.of([(a, True), (b, False)])
                val = conjunctive_query(L, q)
                assert val <= min(0.25, 1.0 - L[a]) + 1e-6

    def test_world_level_agreement(self):
        done = 0
        for seed in range(40):
            baf, cs = random_instance(4, 0.3, 2, seed=300 + seed)
            full = compile_semantics(baf, {SemanticsFlag.COH})
            full.extend(cs)
            if not check_sat(full, baf).satisfiable:
                continue
            res = maxent_labelling(full, baf)
            dist = world_maxent(full, baf)
            assert kl_divergence(dist, factorized_distribution(res.labelling)) <= 1e-5
            done += 1
            if done >= 10:
                break
        assert done >= 5
