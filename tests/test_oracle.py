import numpy as np
import pytest

from probarg import (BAF, Atom, And, ConstraintSet, LimitExceededError,
                     RawConstraint, SemanticsFlag, UnsatisfiableError, check_sat,
                     compile_semantics, entail_all, factorized_distribution,
                     kl_divergence, labelling_of, maxent_labelling,
                     random_instance, world_lp_entail, world_lp_sat,
                     world_maxent)


def eq(terms, bound):
    return RawConstraint.of(terms, "=", bound)


class TestWorldSat:
    def test_fig1_satisfiable(self, fig1):
        cs = compile_semantics(fig1, {SemanticsFlag.COH, SemanticsFlag.FOU})
        res = world_lp_sat(cs, fig1)
        assert res.satisfiable and res.witness is not None

    def test_partial_assignment_with_fou_unsat(self, fig1):
        cs = compile_semantics(fig1, {SemanticsFlag.COH, SemanticsFlag.FOU})
        cs.add_raw(eq([(1.0, "B")], 1.0))
        cs.add_raw(eq([(1.0, "C")], 0.0))
        assert not world_lp_sat(cs, fig1).satisfiable

    def test_direct_contradiction(self):
        baf = BAF(["A"])
        cs = ConstraintSet()
        cs.add_raw(eq([(1.0, "A")], 1.0))
        cs.add_raw(eq([(1.0, "A")], 0.0))
        res = world_lp_sat(cs, baf)
        assert not res.satisfiable
        assert res.inconsistency_value == pytest.approx(1.0, abs=1e-9)

    def test_limit_refusal(self):
        baf = BAF([f"X{i:02d}" for i in range(17)])
        with pytest.raises(LimitExceededError):
            world_lp_sat(compile_semantics(baf, set()), baf)


class TestWorldEntail:
    def test_fig1_b(self, fig1):
        cs = compile_semantics(fig1, {SemanticsFlag.COH, SemanticsFlag.FOU})
        b = world_lp_entail(cs, fig1, "B")
        assert b.lower == pytest.approx(0.0, abs=1e-9)
        assert b.upper == pytest.approx(0.0, abs=1e-6)

    def test_unconstrained_conjunction(self, ab_attack):
        b = world_lp_entail(ConstraintSet(), ab_attack, And(Atom("A"), Atom("B")))
        assert b.lower == pytest.approx(0.0, abs=1e-9)
        assert b.upper == pytest.approx(1.0, abs=1e-9)

    def test_frechet_interval(self, ab_attack):
        cs = ConstraintSet()
        cs.add_raw(eq([(1.0, "A")], 0.5))
        cs.add_raw(eq([(1.0, "B")], 0.5))
        b = world_lp_entail(cs, ab_attack, And(Atom("A"), Atom("B")))
        assert b.lower == pytest.approx(0.0, abs=1e-9)
        assert b.upper == pytest.approx(0.5, abs=1e-9)

    def test_unsat_precondition(self):
        baf = BAF(["A"])
        cs = ConstraintSet()
        cs.add_raw(eq([(1.0, "A")], 1.0))
        cs.add_raw(eq([(1.0, "A")], 0.0))
        with pytest.raises(UnsatisfiableError):
            world_lp_entail(cs, baf, "A")


class TestWorldMaxent:
    def test_unconstrained_uniform(self, ab_attack):
        dist = world_maxent(ConstraintSet(), ab_attack)
        assert np.allclose(dist.probs, 0.25, atol=1e-8)

    def test_worked_table(self, ab_attack):
        cs = compile_semantics(ab_attack, {SemanticsFlag.COH})
        cs.add_raw(eq([(1.0, "A")], 0.8))
        dist = world_maxent(cs, ab_attack)
        assert np.allclose(dist.probs, [0.16, 0.64, 0.04, 0.16], atol=1e-4)

    def test_default_limit(self):
        baf = BAF([f"Y{i}" for i in range(17)])
        with pytest.raises(LimitExceededError):
            world_maxent(ConstraintSet(), baf)

    def test_unsat_raises(self, fig1):
        baf = BAF(["A"])
        cs = ConstraintSet()
        cs.add_raw(eq([(1.0, "A")], 1.0))
        cs.add_raw(eq([(1.0, "A")], 0.0))
        with pytest.raises(UnsatisfiableError):
            world_maxent(cs, baf)
        # the partial assignment of problems/example2_unsat.paf, which clashes with FOU
        cs = compile_semantics(fig1, {SemanticsFlag.COH, SemanticsFlag.FOU})
        cs.add_raw(eq([(1.0, "B")], 1.0))
        cs.add_raw(eq([(1.0, "C")], 0.0))
        with pytest.raises(UnsatisfiableError):
            world_maxent(cs, fig1)
        # SCE sets the unsupported x1 to 0; once the dual has pinned it, the
        # row x1 >= 0.34 has variance ~0 under p, and its Newton step must
        # still end on a negative dual value, not on a failed search
        baf = BAF(["x1", "x18", "x4", "x5", "x9"], supports=[("x9", "x18")])
        cs = compile_semantics(baf, {SemanticsFlag.SCE, SemanticsFlag.SPES})
        cs.add_raw(RawConstraint.of([(-0.5, "x9")], ">=", -0.12))
        cs.add_raw(RawConstraint.of([(-0.5, "x1")], "<=", -0.17))
        assert not check_sat(cs, baf).satisfiable
        with pytest.raises(UnsatisfiableError):
            world_maxent(cs, baf)

    def test_matches_slsqp(self):
        """An optimizer-independent reference: scipy's SLSQP on the primal over
        the 2^n world probabilities, on the sets where it reports success."""
        optimize = pytest.importorskip("scipy.optimize")
        from probarg import entropy_distribution
        from probarg.oracle import _world_rows

        def neg_entropy(p):
            return float(np.sum(p * np.log(np.maximum(p, 1e-300))))

        sets = compared = 0
        for seed in range(1000):
            n = 2 + seed % 3
            baf, cs = random_instance(n, 0.3, 1 + seed % 3, seed=900 + seed)
            full = compile_semantics(baf, [set(), {SemanticsFlag.COH}][seed % 2])
            full.extend(cs)
            if not check_sat(full, baf).satisfiable:
                continue
            sets += 1
            dist = world_maxent(full, baf)
            rows, bounds = _world_rows(full, baf)
            F, b = rows[2:], bounds[2:]
            W = 1 << n
            cons = [{"type": "eq", "fun": lambda p: p.sum() - 1.0,
                     "jac": lambda p: np.ones((1, W))}]
            if F.shape[0]:
                cons.append({"type": "ineq", "fun": lambda p: b - F @ p, "jac": lambda p: -F})
            ref = optimize.minimize(neg_entropy, np.full(W, 1.0 / W),
                                    jac=lambda p: 1.0 + np.log(np.maximum(p, 1e-300)),
                                    method="SLSQP", bounds=[(0.0, 1.0)] * W, constraints=cons,
                                    options={"ftol": 1e-14, "maxiter": 1000})
            if ref.success:
                compared += 1
                assert np.abs(dist.probs - ref.x).max() <= 1e-6, f"seed {900 + seed}"
                assert entropy_distribution(dist) >= -neg_entropy(ref.x) - 1e-9, f"seed {900 + seed}"
            if sets == 75:
                break
        assert sets == 75 and compared >= 60

    def test_agreement_with_labelling_route(self):
        done = 0
        for seed in range(40):
            baf, cs = random_instance(5, 0.25, 2, seed=400 + seed)
            full = compile_semantics(baf, {SemanticsFlag.COH})
            full.extend(cs)
            if not check_sat(full, baf).satisfiable:
                continue
            res = maxent_labelling(full, baf)
            dist = world_maxent(full, baf)
            assert kl_divergence(dist, factorized_distribution(res.labelling)) <= 1e-5
            done += 1
            if done >= 8:
                break
        assert done >= 5


class TestRandomInstance:
    def test_deterministic(self):
        a1, c1 = random_instance(5, 0.3, 4, seed=99)
        a2, c2 = random_instance(5, 0.3, 4, seed=99)
        assert a1 == a2
        assert [(x.terms, x.bound) for x in c1] == [(x.terms, x.bound) for x in c2]

    def test_zero_density_edgeless(self):
        baf, _ = random_instance(4, 0.0, 0, seed=1)
        assert not baf.attacks and not baf.supports

    def test_no_constraints_satisfiable(self):
        baf, cs = random_instance(5, 0.5, 0, seed=2)
        res = check_sat(cs, baf)
        assert res.satisfiable and res.inconsistency_value == 0.0

    def test_relations_mixed(self):
        # over a few seeds all three relations should appear
        rels = set()
        for seed in range(10):
            _, cs = random_instance(4, 0.0, 6, seed=seed)
            for c, _ in cs.items:
                rels.add(tuple(np.sign([v for _, v in c.terms])))
        assert len(rels) > 1

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            random_instance(0, 0.5, 1, seed=0)
        with pytest.raises(ValueError):
            random_instance(3, 1.5, 1, seed=0)


class TestAgreementMiniCorpus:
    def test_sat_and_value_agreement(self):
        for seed in range(40):
            n = 2 + seed % 5
            baf, cs = random_instance(n, 0.25, 2 + seed % 3, seed=seed)
            r_lab = check_sat(cs, baf)
            r_world = world_lp_sat(cs, baf)
            assert r_lab.satisfiable == r_world.satisfiable
            assert r_lab.inconsistency_value == pytest.approx(
                r_world.inconsistency_value, abs=1e-6)

    def test_entailment_agreement(self):
        for seed in range(25):
            n = 2 + seed % 4
            baf, cs = random_instance(n, 0.25, 2, seed=seed)
            if not check_sat(cs, baf).satisfiable:
                continue
            lab = entail_all(cs, baf)
            for a in baf.args:
                world = world_lp_entail(cs, baf, a)
                assert lab[a].lower == pytest.approx(world.lower, abs=1e-6)
                assert lab[a].upper == pytest.approx(world.upper, abs=1e-6)

    def test_world_witness_marginals_satisfy(self, fig1):
        cs = compile_semantics(fig1, {SemanticsFlag.COH, SemanticsFlag.FOU})
        res = world_lp_sat(cs, fig1)
        from probarg import satisfies_all
        assert satisfies_all(res.witness, cs, tol=1e-6)

    def test_formula_entailment_monotone(self):
        from probarg import Or
        from conftest import random_formula
        rng = np.random.default_rng(51)
        for seed in range(12):
            baf, cs = random_instance(4, 0.2, 1, seed=700 + seed)
            if not check_sat(cs, baf).satisfiable:
                continue
            names = [a.name for a in baf.args]
            F = random_formula(rng, names)
            G = random_formula(rng, names)
            bf = world_lp_entail(cs, baf, F)
            bfg = world_lp_entail(cs, baf, Or(F, G))
            assert 0.0 <= bf.lower <= bf.upper <= 1.0
            assert bfg.lower >= bf.lower - 1e-7
            assert bfg.upper >= bf.upper - 1e-7

    def test_produced_distributions_obey_additivity(self, ab_attack):
        from probarg import prob_of_formula, Not
        cs = compile_semantics(ab_attack, {SemanticsFlag.COH})
        cs.add_raw(eq([(1.0, "A")], 0.8))
        dist = world_maxent(cs, ab_attack)
        F, G = Atom("A"), Atom("B")
        left = prob_of_formula(dist, And(F, G)) + prob_of_formula(dist, And(F, Not(G)))
        assert left == pytest.approx(prob_of_formula(dist, F), abs=1e-9)
        assert prob_of_formula(dist, F) <= prob_of_formula(dist, Atom("A") | Atom("B")) + 1e-12
