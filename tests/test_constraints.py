import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from probarg import (BAF, ConstraintSet, Labelling, LinearAtomicConstraint,
                     RawConstraint, SatResult, SemanticsFlag, StructuralError,
                     UnknownArgumentError, compile_semantics, labelling_of,
                     marginal, normalize, satisfies, satisfies_all)
from probarg.reasoner import witness_ok
from conftest import PROPERTY, random_distribution, random_problems


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
        # the negated half of each pair keeps the bound -0.0, as negation gives
        assert np.signbit(sce.as_matrix(fig1)[1]).tolist() == [False, True, False, True]
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
        A, b = cs.as_matrix(fig1)
        cp = cs.copy()
        # the rows conditional_query adds to its copy
        cp.add(c({"A": 1.0}, 1.0), "condition")
        cp.add(c({"A": -1.0}, -1.0), "condition")
        assert len(cp) == len(cs) + 2 and len(cs) == 2
        A2, b2 = cs.as_matrix(fig1)
        assert np.array_equal(A2, A) and np.array_equal(b2, b)
        assert cp.items[:2] == cs.items

    def test_items_round_trip(self, fig1):
        items = compile_semantics(fig1, set(SemanticsFlag)).items
        items.append((c([(2.0, "B"), (-1.0, "A")], 0.25), "user"))
        cs = ConstraintSet(items)
        assert type(cs.items) is list and cs.items == items
        assert cs.constraints == [con for con, _ in items] == list(cs)
        assert ConstraintSet().items == [] and len(ConstraintSet()) == 0

    def test_self_support_row_has_no_terms(self):
        baf = BAF(["A", "B"], supports=[("A", "A")])
        cs = compile_semantics(baf, {SemanticsFlag.SCOH, SemanticsFlag.PES})
        # SCOH's 0 <= 0 for (A, A); PES's row for A merges to the same row
        assert cs.items == [(c([], 0.0), "SCOH"), (c([(1.0, "B")], 0.0), "PES")]
        A, b = cs.as_matrix(baf)
        assert A.tolist() == [[0.0, 0.0], [0.0, 1.0]] and b.tolist() == [0.0, 0.0]

    def test_unknown_argument_named(self, fig1):
        cs = compile_semantics(fig1, {SemanticsFlag.COH})
        cs.add_raw(RawConstraint.of([(1.0, "A"), (1.0, "Zed")], ">=", 0.5))
        with pytest.raises(UnknownArgumentError, match="Zed"):
            cs.as_matrix(fig1)
        with pytest.raises(UnknownArgumentError, match="Zed"):
            satisfies_all(Labelling.uniform(fig1), cs)

    def test_returned_arrays_belong_to_the_caller(self, fig1):
        cs = compile_semantics(fig1, {SemanticsFlag.COH, SemanticsFlag.FOU})
        A, b = cs.as_matrix(fig1)
        want = (A.copy(), b.copy())
        A[:] = 7.0
        b[:] = 7.0
        A2, b2 = cs.as_matrix(fig1)
        assert np.array_equal(A2, want[0]) and np.array_equal(b2, want[1])


def _reference_as_matrix(cs, baf):
    """(A, b) by the row-by-row loop over LinearAtomicConstraint objects that
    built them before rows were stored flat."""
    items = cs.items
    rows, cols, coeffs = [], [], []
    for r, (con, _) in enumerate(items):
        for name, coeff in con.terms:
            rows.append(r)
            cols.append(baf.index(name))
            coeffs.append(coeff)
    A = np.zeros((len(items), baf.n), dtype=float)
    A[rows, cols] = coeffs
    b = np.array([con.bound for con, _ in items], dtype=float)
    return A, b


_COEFF = st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])


@st.composite
def grown_sets(draw):
    """A random problem whose set is grown through every way of adding rows:
    add, add_raw with = and >=, extend, copy, ConstraintSet(items), SCOH/PES
    self-support rows and duplicated rows."""
    p = draw(random_problems(max_n=8))
    names = [a.name for a in p.baf.args]
    cs = p.cs
    for step in draw(st.lists(st.sampled_from(
            ["add", "raw", "extend", "copy", "items", "self_support", "duplicate"]), max_size=6)):
        if step in ("add", "raw"):
            args = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))
            terms = [(draw(_COEFF), a) for a in args]
            bound = draw(st.sampled_from([-1.0, 0.0, 0.5, 1.5]))
            if step == "add":
                cs.add(LinearAtomicConstraint.of(terms, bound), "user")
            else:
                cs.add_raw(RawConstraint.of(terms, draw(st.sampled_from(["=", ">="])), bound))
        elif step == "extend":
            cs.extend(compile_semantics(p.baf, {draw(st.sampled_from(list(SemanticsFlag)))}))
        elif step == "copy":
            cs = cs.copy()
        elif step == "items":
            cs = ConstraintSet(cs.items)
        elif step == "self_support":
            loop = draw(st.sampled_from(names))
            cs.extend(compile_semantics(BAF(names, supports=[(loop, loop)]),
                                        {SemanticsFlag.SCOH, SemanticsFlag.PES}))
        elif len(cs):
            cs.add(*cs.items[draw(st.integers(0, len(cs) - 1))])
    return p.baf, cs


@PROPERTY
@given(grown_sets())
def test_as_matrix_matches_row_loop(problem):
    baf, cs = problem
    A, b = cs.as_matrix(baf)
    ref_A, ref_b = _reference_as_matrix(cs, baf)
    assert A.dtype == ref_A.dtype and b.dtype == ref_b.dtype
    assert np.array_equal(A, ref_A) and np.array_equal(b, ref_b)
    assert np.array_equal(np.signbit(b), np.signbit(ref_b))
    # no cache: a caller's write to A leaves the next call's result alone
    A += 1.0
    assert np.array_equal(cs.as_matrix(baf)[0], ref_A)


@pytest.mark.parametrize("check", [
    lambda L, cs: satisfies_all(L, cs),
    lambda L, cs: witness_ok(SatResult(True, 0.0, L), cs),
], ids=["satisfies_all", "witness_ok"])
def test_one_row_missed_by_tolerance(check):
    """Both checks take every row with the default tolerance 1e-7: a miss of
    tol/2 passes, a miss of 2 tol fails."""
    tol = 1e-7
    baf = BAF(["A", "B", "C", "D"])
    cs = ConstraintSet()
    cs.add(c([(1.0, "D")], 1.0))
    cs.add(c([(1.0, "A"), (2.0, "B"), (-1.0, "C")], 0.5))
    cs.add(c([(-1.0, "D")], 0.0))
    for miss, ok in ((tol / 2, True), (2 * tol, False)):
        # A + 2B - C = 0.25 + 0.5 - 0.25 + miss
        L = Labelling(baf, {"A": 0.25 + miss, "B": 0.25, "C": 0.25, "D": 0.5})
        assert check(L, cs) is ok
