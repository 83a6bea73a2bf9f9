from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from probarg import (BAF, Atom, And, ConstraintSet, Not, Or, Labelling, RawConstraint,
                     SemanticsFlag, WorldDistribution, compile_semantics)


@pytest.fixture
def fig1():
    """The four-argument example graph: A and B attack each other, D attacks B,
    C supports A, D supports C."""
    return BAF(["A", "B", "C", "D"],
               attacks=[("A", "B"), ("B", "A"), ("D", "B")],
               supports=[("C", "A"), ("D", "C")])


@pytest.fixture
def ab_attack():
    return BAF(["A", "B"], attacks=[("A", "B")])


def random_labelling(rng, baf):
    return Labelling(baf, {a: float(v) for a, v in zip(baf.args, rng.random(baf.n))})


def random_distribution(rng, baf):
    w = rng.random(1 << baf.n) + 1e-12
    return WorldDistribution(baf, w / w.sum())


def random_formula(rng, names, depth=3):
    if depth == 0 or rng.random() < 0.3:
        return Atom(names[int(rng.integers(0, len(names)))])
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return Not(random_formula(rng, names, depth - 1))
    parts = [random_formula(rng, names, depth - 1) for _ in range(int(rng.integers(2, 4)))]
    return And(*parts) if kind == 1 else Or(*parts)


@dataclass
class Problem:
    baf: BAF
    cs: ConstraintSet


_COEFFS = st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])


@st.composite
def random_problems(draw, max_n):
    """A random BAF of at most max_n arguments, up to two semantics flags
    and up to three user rows of one to three terms."""
    n = draw(st.integers(1, max_n))
    names = [f"H{i}" for i in range(n)]
    edge = st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(lambda e: e[0] != e[1])
    attacks = draw(st.lists(edge, max_size=n, unique=True)) if n > 1 else []
    supports = draw(st.lists(edge, max_size=n // 2, unique=True)) if n > 1 else []
    baf = BAF(names, attacks, supports)
    cs = compile_semantics(baf, draw(st.sets(st.sampled_from(list(SemanticsFlag)), max_size=2)))
    for _ in range(draw(st.integers(0, 3))):
        args = draw(st.lists(st.sampled_from(names), min_size=1, max_size=min(3, n), unique=True))
        coeffs = draw(st.lists(_COEFFS, min_size=len(args), max_size=len(args)))
        relation = draw(st.sampled_from(["<=", "=", ">="]))
        bound = round(draw(st.floats(-1.0, 2.0)), 2)
        cs.add_raw(RawConstraint.of(list(zip(coeffs, args)), relation, bound))
    return Problem(baf, cs)


PROPERTY = settings(max_examples=80, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
