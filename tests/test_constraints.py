import numpy as np
import pytest

from probarg import (BAF, ConstraintSet, Labelling, LinearAtomicConstraint,
                     RawConstraint, SemanticsFlag, StructuralError,
                     UnknownArgumentError, compile_semantics, labelling_of,
                     marginal, normalize, satisfies)
from conftest import random_distribution


def c(terms, bound):
    return LinearAtomicConstraint.of(terms, bound)


def constraint_keys(cs):
    return {(tuple(x.terms), x.bound) for x in cs}


class TestNormalize:
    def test_equality_becomes_pair(self):
        out = normalize(RawConstraint.of([(1.0, "A")], "=", 1.0))
        assert constraint_keys(out) == {((("A", 1.0),), 1.0), ((("A", -1.0),), -1.0)}

    def test_geq_flips(self):
        out = normalize(RawConstraint.of([(1.0, "A")], ">=", 0.3))
        assert constraint_keys(out) == {((("A", -1.0),), -0.3)}

    def test_leq_passes_through(self):
        out = normalize(RawConstraint.of([(2.0, "A")], "<=", 1.0))
        assert constraint_keys(out) == {((("A", 2.0),), 1.0)}

    def test_duplicate_terms_merge(self):
        out = normalize(RawConstraint.of([(1.0, "A"), (1.0, "A")], "<=", 1.0))
        assert constraint_keys(out) == {((("A", 2.0),), 1.0)}

    def test_cancelling_terms_drop(self):
        out = normalize(RawConstraint.of([(1.0, "A"), (-1.0, "A")], "<=", 1.0))
        assert out[0].terms == ()

    def test_bad_relation(self):
        with pytest.raises(StructuralError):
            RawConstraint.of([(1.0, "A")], "<", 1.0)

    @pytest.mark.parametrize("terms, bound", [
        ([(float("nan"), "A")], 1.0),
        ([(float("inf"), "A")], 1.0),
        ([(1.0, "A"), (float("-inf"), "B")], 1.0),
        ([(1e308, "A"), (1e308, "A")], 1.0),  # finite terms that merge to inf
        ([(1.0, "A")], float("nan")),
        ([(1.0, "A")], float("-inf")),
    ])
    def test_non_finite_rejected(self, terms, bound):
        with pytest.raises(StructuralError):
            RawConstraint.of(terms, "<=", bound)
        with pytest.raises(StructuralError):
            LinearAtomicConstraint.of(terms, bound)


class TestCompileSemantics:
    def test_coh_deduplicates_mutual_attack(self, fig1):
        cs = compile_semantics(fig1, {SemanticsFlag.COH})
        assert constraint_keys(cs) == {
            ((("A", 1.0), ("B", 1.0)), 1.0),
            ((("B", 1.0), ("D", 1.0)), 1.0),
        }

    def test_fou_pins_unattacked(self, fig1):
        cs = compile_semantics(fig1, {SemanticsFlag.FOU})
        assert constraint_keys(cs) == {
            ((("C", 1.0),), 1.0), ((("C", -1.0),), -1.0),
            ((("D", 1.0),), 1.0), ((("D", -1.0),), -1.0),
        }

    def test_scoh_orders_source_minus_target(self, fig1):
        cs = compile_semantics(fig1, {SemanticsFlag.SCOH})
        assert constraint_keys(cs) == {
            ((("A", -1.0), ("C", 1.0)), 0.0),   # pi(A) >= pi(C)
            ((("C", -1.0), ("D", 1.0)), 0.0),   # pi(C) >= pi(D)
        }

    def test_sfou(self, fig1):
        cs = compile_semantics(fig1, {SemanticsFlag.SFOU})
        assert constraint_keys(cs) == {((("C", -1.0),), -0.5), ((("D", -1.0),), -0.5)}

    def test_opt_covers_unattacked(self, fig1):
        cs = compile_semantics(fig1, {SemanticsFlag.OPT})
        keys = constraint_keys(cs)
        assert ((("C", -1.0),), -1.0) in keys          # no attackers: pi(C) >= 1
        assert ((("A", -1.0), ("B", -1.0)), -1.0) in keys

    def test_sopt_skips_unattacked(self, fig1):
        cs = compile_semantics(fig1, {SemanticsFlag.SOPT})
        keys = constraint_keys(cs)
        assert ((("C", -1.0),), -1.0) not in keys
        assert ((("A", -1.0), ("B", -1.0), ("D", -1.0)), -1.0) in keys  # B's attackers A, D

    def test_jus_expands_to_coh_and_opt(self, fig1):
        jus = compile_semantics(fig1, {SemanticsFlag.JUS})
        both = compile_semantics(fig1, {SemanticsFlag.COH, SemanticsFlag.OPT})
        assert [(x.terms, x.bound) for x in jus] == [(x.terms, x.bound) for x in both]

    def test_support_duals(self, fig1):
        sce = compile_semantics(fig1, {SemanticsFlag.SCE})
        # unsupported arguments are B and D
        assert constraint_keys(sce) == {
            ((("B", 1.0),), 0.0), ((("B", -1.0),), 0.0),
            ((("D", 1.0),), 0.0), ((("D", -1.0),), 0.0),
        }
        ssce = compile_semantics(fig1, {SemanticsFlag.SSCE})
        assert constraint_keys(ssce) == {((("B", 1.0),), 0.5), ((("D", 1.0),), 0.5)}
        spes = compile_semantics(fig1, {SemanticsFlag.SPES})
        assert constraint_keys(spes) == {
            ((("A", 1.0), ("C", -1.0)), 0.0),
            ((("C", 1.0), ("D", -1.0)), 0.0),
        }
        pes = compile_semantics(fig1, {SemanticsFlag.PES})
        keys = constraint_keys(pes)
        assert ((("B", 1.0),), 0.0) in keys  # no supporters: pi(B) <= 0

    def test_self_attack_merges(self):
        baf = BAF(["A"], attacks=[("A", "A")])
        cs = compile_semantics(baf, {SemanticsFlag.COH})
        assert constraint_keys(cs) == {((("A", 2.0),), 1.0)}

    def test_deterministic_ordering(self, fig1):
        flags = {SemanticsFlag.SCOH, SemanticsFlag.COH, SemanticsFlag.FOU}
        a = compile_semantics(fig1, flags)
        b = compile_semantics(fig1, list(flags)[::-1])
        assert [(x.terms, x.bound) for x in a] == [(x.terms, x.bound) for x in b]
        assert [p for _, p in a.items] == [p for _, p in b.items]

    def test_provenance_tags(self, fig1):
        cs = compile_semantics(fig1, {SemanticsFlag.COH, SemanticsFlag.FOU})
        assert {p for _, p in cs.items} == {"COH", "FOU"}
        cs.add_raw(RawConstraint.of([(1.0, "A")], "<=", 0.5), "user")
        assert cs.items[-1][1] == "user"


class TestSatisfies:
    def test_coherent_pair(self, ab_attack):
        L = Labelling(ab_attack, {"A": 0.8, "B": 0.2})
        assert satisfies(L, c([(1.0, "A"), (1.0, "B")], 1.0))

    def test_violating_pair(self, ab_attack):
        L = Labelling(ab_attack, {"A": 0.7, "B": 0.7})
        assert not satisfies(L, c([(1.0, "A"), (1.0, "B")], 1.0))

    def test_boundary_with_tolerance(self):
        baf = BAF(["A"])
        L = Labelling(baf, {"A": 1.0})
        assert satisfies(L, c([(1.0, "A")], 1.0), tol=1e-9)

    def test_world_and_labelling_satisfaction_agree(self):
        rng = np.random.default_rng(17)
        baf = BAF(["A", "B", "C", "D", "E"])
        names = [a.name for a in baf.args]
        for _ in range(30):
            P = random_distribution(rng, baf)
            k = int(rng.integers(1, 4))
            idx = rng.choice(5, size=k, replace=False)
            coeffs = rng.uniform(-2, 2, size=k)
            bound = float(rng.uniform(-2, 2))
            con = c([(float(cf), names[i]) for cf, i in zip(coeffs, idx)], bound)
            via_marginals = sum(cf * marginal(P, nm) for nm, cf in con.terms) <= bound + 1e-7
            assert satisfies(labelling_of(P), con) == via_marginals


def _reference_compile(baf, flags):
    """compile_semantics by plain edge scans: edges sorted as tuples of names,
    each argument's attackers and supporters found by scanning every edge."""
    order = ["COH", "SFOU", "FOU", "SOPT", "OPT", "SCOH", "SSCE", "SCE", "SPES", "PES"]
    given = {f.value for f in flags}
    if "JUS" in given:
        given |= {"COH", "OPT"}
    names = [a.name for a in baf.args]
    attacks = sorted((s.name, t.name) for s, t in baf.attacks)
    supports = sorted((s.name, t.name) for s, t in baf.supports)

    def sources(edges, a):
        return sorted(s for s, t in edges if t == a)

    items, seen = [], set()

    def emit(terms, bound, flag):
        con = LinearAtomicConstraint.of(terms, bound)
        if (con.terms, con.bound) not in seen:
            seen.add((con.terms, con.bound))
            items.append((con, flag))

    for flag in [f for f in order if f in given]:
        if flag == "COH":
            for s, t in attacks:
                emit([(1.0, s), (1.0, t)], 1.0, flag)
        elif flag == "SCOH":
            for s, t in supports:
                emit([(1.0, s), (-1.0, t)], 0.0, flag)
        for a in names:
            att, sup = sources(attacks, a), sources(supports, a)
            if flag == "SFOU" and not att:
                emit([(-1.0, a)], -0.5, flag)
            elif flag == "FOU" and not att:
                emit([(1.0, a)], 1.0, flag)
                emit([(-1.0, a)], -1.0, flag)
            elif flag == "OPT" or (flag == "SOPT" and att):
                emit([(-1.0, a)] + [(-1.0, b) for b in att], -1.0, flag)
            elif flag == "SSCE" and not sup:
                emit([(1.0, a)], 0.5, flag)
            elif flag == "SCE" and not sup:
                emit([(1.0, a)], 0.0, flag)
                emit([(-1.0, a)], -0.0, flag)
            elif flag == "PES" or (flag == "SPES" and sup):
                emit([(1.0, a)] + [(-1.0, b) for b in sup], 0.0, flag)
    return items


def _random_baf(rng):
    """Up to 8 arguments; self-loops and attack+support on one pair allowed."""
    names = [f"R{i}" for i in rng.permutation(int(rng.integers(1, 9)))]

    def edges():
        k = int(rng.integers(0, 2 * len(names) + 1))
        return [(names[int(rng.integers(len(names)))], names[int(rng.integers(len(names)))])
                for _ in range(k)]

    return BAF(names, edges(), edges())


@pytest.mark.parametrize("flags", [{f} for f in SemanticsFlag] + [set(SemanticsFlag)],
                         ids=[f.value for f in SemanticsFlag] + ["all"])
def test_compile_matches_edge_scan(flags):
    rng = np.random.default_rng(31)
    for _ in range(25):
        baf = _random_baf(rng)
        # terms, bounds, provenance and order all equal
        assert compile_semantics(baf, flags).items == _reference_compile(baf, flags)


class TestConstraintSet:
    def test_as_matrix(self, fig1):
        cs = compile_semantics(fig1, {SemanticsFlag.COH})
        A, b = cs.as_matrix(fig1)
        assert A.shape == (2, 4) and b.tolist() == [1.0, 1.0]
        # columns follow name order A, B, C, D
        assert A[0].tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_unknown_argument_rejected(self, fig1):
        cs = ConstraintSet()
        cs.add(c([(1.0, "Z")], 0.5))
        with pytest.raises(UnknownArgumentError):
            cs.as_matrix(fig1)

    def test_copy_is_independent(self, fig1):
        cs = compile_semantics(fig1, {SemanticsFlag.COH})
        cp = cs.copy()
        cp.add(c([(1.0, "A")], 0.5))
        assert len(cp) == len(cs) + 1
