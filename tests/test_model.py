import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probarg import (BAF, And, Argument, Atom, Labelling, Not, Or, World,
                     WorldDistribution, LimitExceededError, StructuralError,
                     UnknownArgumentError, entropy_distribution,
                     entropy_labelling, eval_formula, factorized_distribution,
                     kl_divergence, labelling_of, marginal, prob_of_formula)
from probarg.model import binary_entropy
from conftest import random_distribution, random_formula, random_labelling


def baf_ab():
    return BAF(["A", "B"])


def dist(baf, probs):
    return WorldDistribution(baf, probs)


# P1 and P2 from the two-argument independence example: same marginals,
# different joint behaviour.
def p1(baf):
    return dist(baf, [0.5, 0.0, 0.0, 0.5])


def p2(baf):
    return dist(baf, [0.0, 0.5, 0.5, 0.0])


class TestBAF:
    def test_canonical_order_and_index(self):
        baf = BAF(["B", "A", "C"])
        assert [a.name for a in baf.args] == ["A", "B", "C"]
        assert baf.index("C") == 2

    def test_duplicate_names_rejected(self):
        with pytest.raises(StructuralError):
            BAF(["A", "A"])

    def test_duplicate_names_across_input_types_rejected(self):
        with pytest.raises(StructuralError):
            BAF(["A", "B", Argument("A")])

    @pytest.mark.parametrize("bad", ["", 5, ["a"], None])
    def test_malformed_names_rejected(self, bad):
        with pytest.raises(StructuralError):
            BAF(["A", bad])
        for kind in ("attacks", "supports"):
            for edge in (("A", bad), (bad, "A"), ("X", bad)):
                with pytest.raises(StructuralError):
                    BAF(["A"], **{kind: [edge]})

    def test_edges_validated(self):
        for kind in ("attacks", "supports"):
            for edge in (("A", "X"), ("X", "A"), (Argument("X"), "A")):
                with pytest.raises(UnknownArgumentError):
                    BAF(["A"], **{kind: [edge]})

    @pytest.mark.parametrize("edge", [("A",), ("A", "A", "A"), (), 5, "AA", None])
    def test_edge_that_is_not_a_pair_rejected(self, edge):
        for kind in ("attacks", "supports"):
            with pytest.raises(StructuralError, match="not a \\(source, target\\) pair"):
                BAF(["A"], **{kind: [edge]})

    @pytest.mark.parametrize("bad, error", [
        (["a"], StructuralError), ({"a": 1}, StructuralError), ({"a"}, StructuralError),
        ("Z", UnknownArgumentError), (5, UnknownArgumentError), (None, UnknownArgumentError)])
    def test_index_raises_typed_errors(self, fig1, bad, error):
        with pytest.raises(error):
            fig1.index(bad)

    @pytest.mark.parametrize("bad", ["", 5, ["a"]])
    def test_attackers_of_malformed_name(self, fig1, bad):
        for method in (fig1.arg, fig1.attackers, fig1.supporters):
            with pytest.raises(StructuralError):
                method(bad)
        with pytest.raises(UnknownArgumentError):
            fig1.attackers("Z")

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_build_order_and_input_types_do_not_matter(self, data):
        names = data.draw(st.lists(st.sampled_from("ABCDEFGH"), min_size=1, max_size=8,
                                   unique=True))
        pair = st.tuples(st.sampled_from(names), st.sampled_from(names))
        attacks = data.draw(st.lists(pair, max_size=12))
        supports = data.draw(st.lists(pair, max_size=12))
        reference = BAF(sorted(names), sorted(set(attacks)), sorted(set(supports)))

        def mixed(name):
            return Argument(name) if data.draw(st.booleans()) else name

        def shuffled(items):
            return data.draw(st.permutations(items))

        baf = BAF([mixed(a) for a in shuffled(names)],
                  [(mixed(s), mixed(t)) for s, t in shuffled(attacks)],
                  [(mixed(s), mixed(t)) for s, t in shuffled(supports)])
        assert baf == reference and hash(baf) == hash(reference)
        assert all(type(a) is Argument for a in baf.args)
        for a in baf.args:
            assert baf.attackers(a) == tuple(sorted(s for s, t in baf.attacks if t == a))
            assert baf.supporters(a.name) == tuple(sorted(s for s, t in baf.supports if t == a))

    def test_attackers_supporters(self, fig1):
        assert [a.name for a in fig1.attackers("B")] == ["A", "D"]
        assert fig1.attackers("C") == ()
        assert [a.name for a in fig1.supporters("A")] == ["C"]

    def test_self_loop_allowed(self):
        baf = BAF(["A"], attacks=[("A", "A")], supports=[("A", "A")])
        assert len(baf.attacks) == 1 and len(baf.supports) == 1


class TestEvalFormula:
    def test_conjunction_with_negation(self):
        baf = baf_ab()
        w = World.of(baf, ["A"])
        assert eval_formula(baf, w, And(Atom("A"), Not(Atom("B")))) is True

    def test_tautology_in_empty_world(self):
        baf = baf_ab()
        w = World.of(baf, [])
        assert eval_formula(baf, w, Or(Atom("A"), Not(Atom("A")))) is True

    def test_negated_conjunction(self):
        baf = baf_ab()
        w = World.of(baf, ["A", "B"])
        assert eval_formula(baf, w, Not(And(Atom("A"), Atom("B")))) is False

    def test_unknown_leaf(self):
        baf = baf_ab()
        with pytest.raises(UnknownArgumentError):
            eval_formula(baf, World(0), Atom("Z"))

    def test_operator_sugar(self):
        baf = baf_ab()
        w = World.of(baf, ["B"])
        assert eval_formula(baf, w, ~Atom("A") & Atom("B")) is True


class TestProbOfFormula:
    def test_perfect_correlation(self):
        baf = baf_ab()
        assert prob_of_formula(p1(baf), And(Atom("A"), Atom("B"))) == pytest.approx(0.5)

    def test_anti_correlation(self):
        baf = baf_ab()
        assert prob_of_formula(p2(baf), And(Atom("A"), Atom("B"))) == pytest.approx(0.0)

    def test_tautology_sums_to_one(self):
        baf = baf_ab()
        rng = np.random.default_rng(1)
        P = random_distribution(rng, baf)
        assert prob_of_formula(P, Or(Atom("A"), Not(Atom("A")))) == pytest.approx(1.0)


class TestMarginal:
    def test_half(self):
        baf = baf_ab()
        assert marginal(p1(baf), "A") == pytest.approx(0.5)

    def test_factorized_marginal(self):
        baf = baf_ab()
        L = Labelling(baf, {"A": 0.8, "B": 0.2})
        assert marginal(factorized_distribution(L), "A") == pytest.approx(0.8)

    def test_point_mass(self):
        baf = baf_ab()
        P = dist(baf, [0.0, 1.0, 0.0, 0.0])  # mass on {A}
        assert marginal(P, "A") == pytest.approx(1.0)
        assert marginal(P, "B") == pytest.approx(0.0)


class TestFactorized:
    def test_uniform_from_half(self):
        baf = baf_ab()
        L = Labelling(baf, {"A": 0.5, "B": 0.5})
        assert np.allclose(factorized_distribution(L).probs, 0.25)

    def test_worked_table(self):
        baf = baf_ab()
        L = Labelling(baf, {"A": 0.8, "B": 0.2})
        # worlds in mask order: {}, {A}, {B}, {A,B}
        assert np.allclose(factorized_distribution(L).probs, [0.16, 0.64, 0.04, 0.16])

    def test_degenerate_single(self):
        baf = BAF(["A"])
        L = Labelling(baf, {"A": 1.0})
        assert np.allclose(factorized_distribution(L).probs, [0.0, 1.0])

    def test_soft_limit(self):
        baf = BAF([f"X{i:02d}" for i in range(17)])
        L = Labelling.uniform(baf)
        with pytest.raises(LimitExceededError):
            factorized_distribution(L)
        # explicit override allows it
        factorized_distribution(L, max_args=17)

    def test_hard_cap_not_overridable(self):
        from probarg.model import check_world_size
        with pytest.raises(LimitExceededError):
            check_world_size(31, max_args=40)


class TestLabellingOf:
    def test_marginals_of_p1(self):
        baf = baf_ab()
        L = labelling_of(p1(baf))
        assert L["A"] == pytest.approx(0.5) and L["B"] == pytest.approx(0.5)

    def test_point_mass_on_empty(self):
        baf = baf_ab()
        P = dist(baf, [1.0, 0.0, 0.0, 0.0])
        assert labelling_of(P).as_array().tolist() == [0.0, 0.0]

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        baf = BAF(["A", "B", "C", "D", "E"])
        for _ in range(25):
            L = random_labelling(rng, baf)
            back = labelling_of(factorized_distribution(L))
            assert back.allclose(L, tol=1e-9)


class TestEntropy:
    def test_half_is_ln2(self):
        baf = BAF(["A"])
        assert entropy_labelling(Labelling(baf, {"A": 0.5})) == pytest.approx(math.log(2))

    def test_certain_is_zero(self):
        baf = BAF(["A"])
        assert entropy_labelling(Labelling(baf, {"A": 1.0})) == 0.0

    def test_direct_evaluation(self):
        # independent evaluation of the defining formula
        expected = 2 * (-0.8 * math.log(0.8) - 0.2 * math.log(0.2))
        baf = baf_ab()
        L = Labelling(baf, {"A": 0.8, "B": 0.2})
        assert entropy_labelling(L) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.0008048470763757, abs=1e-12)

    def test_matches_scalar_sum(self):
        rng = np.random.default_rng(11)
        for n in (1, 7, 1000):
            baf = BAF([f"E{i}" for i in range(n)])
            vals = rng.random(n)
            vals[rng.random(n) < 0.2] = 0.0
            vals[rng.random(n) < 0.2] = 1.0
            L = Labelling.from_array(baf, vals)
            scalar = sum(binary_entropy(float(v)) for v in L.as_array())
            assert abs(entropy_labelling(L) - scalar) <= 1e-12 * max(1.0, scalar)

    def test_uniform_distribution_entropy(self):
        baf = baf_ab()
        P = dist(baf, [0.25] * 4)
        assert entropy_distribution(P) == pytest.approx(2 * math.log(2))

    def test_point_mass_entropy(self):
        baf = baf_ab()
        assert entropy_distribution(dist(baf, [0, 1, 0, 0])) == 0.0

    def test_factorized_entropy_matches_labelling(self):
        baf = baf_ab()
        L = Labelling(baf, {"A": 0.8, "B": 0.2})
        assert entropy_distribution(factorized_distribution(L)) == pytest.approx(
            entropy_labelling(L), abs=1e-12)


class TestKL:
    def test_self_divergence_zero(self):
        baf = baf_ab()
        rng = np.random.default_rng(3)
        P = random_distribution(rng, baf)
        assert kl_divergence(P, P) == pytest.approx(0.0, abs=1e-12)

    def test_correlated_vs_uniform(self):
        baf = baf_ab()
        PL = factorized_distribution(Labelling(baf, {"A": 0.5, "B": 0.5}))
        assert kl_divergence(p1(baf), PL) == pytest.approx(math.log(2))

    def test_absolute_continuity_failure(self):
        baf = baf_ab()
        assert kl_divergence(p1(baf), p2(baf)) == math.inf

    def test_entropy_gap_identity(self):
        # H(L_P) - H(P) equals KL(P, P_{L_P})
        rng = np.random.default_rng(11)
        baf = BAF(["A", "B", "C", "D"])
        for _ in range(25):
            P = random_distribution(rng, baf)
            L = labelling_of(P)
            gap = entropy_labelling(L) - entropy_distribution(P)
            assert gap == pytest.approx(kl_divergence(P, factorized_distribution(L)), abs=1e-9)
            assert gap >= -1e-12


class TestAdditivityAndMonotonicity:
    def test_additivity(self):
        rng = np.random.default_rng(5)
        baf = BAF(["A", "B", "C", "D", "E", "F"])
        names = [a.name for a in baf.args]
        for _ in range(40):
            P = random_distribution(rng, baf)
            F = random_formula(rng, names)
            G = random_formula(rng, names)
            left = prob_of_formula(P, And(F, G)) + prob_of_formula(P, And(F, Not(G)))
            assert left == pytest.approx(prob_of_formula(P, F), abs=1e-9)

    def test_entailed_formula_not_less_probable(self):
        rng = np.random.default_rng(6)
        baf = BAF(["A", "B", "C", "D"])
        names = [a.name for a in baf.args]
        for _ in range(40):
            P = random_distribution(rng, baf)
            F = random_formula(rng, names)
            H = random_formula(rng, names)
            assert prob_of_formula(P, F) <= prob_of_formula(P, Or(F, H)) + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10))
def test_factorized_normalization_property(values):
    baf = BAF([f"N{i}" for i in range(len(values))])
    L = Labelling(baf, {a: v for a, v in zip(baf.args, values)})
    P = factorized_distribution(L)
    assert abs(float(P.probs.sum()) - 1.0) <= 1e-9
    assert labelling_of(P).allclose(L, tol=1e-9)


class TestValidation:
    def test_labelling_domain_must_match(self):
        baf = baf_ab()
        with pytest.raises(StructuralError):
            Labelling(baf, {"A": 0.5})
        with pytest.raises(UnknownArgumentError):
            Labelling(baf, {"A": 0.5, "B": 0.5, "Z": 0.1})

    def test_labelling_range(self):
        baf = BAF(["A"])
        with pytest.raises(StructuralError):
            Labelling(baf, {"A": 1.5})
        for bad in ([1.5], [-1e-6], [0.5, 0.5], []):
            with pytest.raises(StructuralError):
                Labelling.from_array(baf, bad)

    def test_from_array_matches_mapping(self):
        rng = np.random.default_rng(5)
        baf = BAF(["C", "A", "B"])
        arr = np.concatenate([rng.random(3), [1 + 1e-10, -1e-10, 0.0, 1.0]])
        for k in range(len(arr) - 2):
            vals = arr[k:k + 3].copy()
            L = Labelling.from_array(baf, vals)
            assert L == Labelling(baf, {a: float(v) for a, v in zip(baf.args, vals)})
            assert np.all((L.as_array() >= 0.0) & (L.as_array() <= 1.0))
            vals[0] = 0.5  # the labelling keeps its own copy
            assert L.as_array()[0] == min(max(arr[k], 0.0), 1.0)

    def test_distribution_shape_and_mass(self):
        baf = baf_ab()
        with pytest.raises(StructuralError):
            WorldDistribution(baf, [0.5, 0.5])
        with pytest.raises(StructuralError):
            WorldDistribution(baf, [0.5, 0.5, 0.5, 0.5])
        with pytest.raises(StructuralError):
            WorldDistribution(baf, [-0.1, 0.5, 0.3, 0.3])

    def test_argument_ordering(self):
        assert Argument("A") < Argument("B")
        assert sorted([Argument("C"), Argument("A")])[0].name == "A"
