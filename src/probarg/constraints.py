"""Linear atomic constraints over argument probabilities.

Everything is stored in one normalized form, sum(c_i * pi(A_i)) <= c0.
Constraints written with >= or = are rewritten: >= flips signs, = becomes a
pair of <= constraints. Semantic postulates over a BAF compile to the same
currency.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Union

import numpy as np

from .errors import StructuralError
from .model import BAF, ArgLike, Labelling, _name_of

DEFAULT_SAT_TOL = 1e-7

Relation = str  # one of "<=", "=", ">="
_RELATIONS = ("<=", "=", ">=")


def _merge_terms(terms, bound) -> tuple[dict[str, float], float]:
    """Merge duplicate arguments and drop exact-zero coefficients.

    Accepts either a mapping {arg: coeff} or an iterable of (coeff, arg)
    pairs; returns a plain dict keyed by argument name, and the bound as a
    float. NaN and infinite numbers, given or reached by merging, raise
    StructuralError.
    """
    merged: dict[str, float] = {}
    pairs = [(c, a) for a, c in terms.items()] if hasattr(terms, "items") else terms
    for c, a in pairs:
        c = float(c)
        name = _name_of(a)
        merged[name] = merged.get(name, 0.0) + c
    bound = float(bound)
    if not (math.isfinite(bound) and all(map(math.isfinite, merged.values()))):
        raise StructuralError(f"coefficients and bound must be finite, got "
                              f"{merged} and {bound!r}")
    return {name: c for name, c in merged.items() if c != 0.0}, bound


@dataclass(frozen=True)
class LinearAtomicConstraint:
    """sum(coeffs[A] * pi(A)) <= bound, with merged terms and no zero entries."""

    terms: tuple[tuple[str, float], ...]
    bound: float

    @classmethod
    def of(cls, terms, bound: float) -> "LinearAtomicConstraint":
        merged, bound = _merge_terms(terms, bound)
        return cls(tuple(sorted(merged.items())), bound)

    def coeff(self, a: ArgLike) -> float:
        name = _name_of(a)
        for t, c in self.terms:
            if t == name:
                return c
        return 0.0

    def argument_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.terms)

    def lhs(self, L: Labelling) -> float:
        return sum(c * L[name] for name, c in self.terms)

    def __str__(self):
        if not self.terms:
            body = "0"
        else:
            body = " + ".join(f"{c:g}*pi({name})" for name, c in self.terms)
        return f"{body} <= {self.bound:g}"


@dataclass(frozen=True)
class RawConstraint:
    """A user-facing constraint before normalization; relation may be <=, = or >=."""

    terms: tuple[tuple[str, float], ...]
    relation: Relation
    bound: float

    @classmethod
    def of(cls, terms, relation: Relation, bound: float) -> "RawConstraint":
        if relation not in _RELATIONS:
            raise StructuralError(f"relation must be one of {_RELATIONS}, got {relation!r}")
        merged, bound = _merge_terms(terms, bound)
        return cls(tuple(sorted(merged.items())), relation, bound)

    def __str__(self):
        body = " + ".join(f"{c:g}*pi({name})" for name, c in self.terms) or "0"
        return f"{body} {self.relation} {self.bound:g}"


class SemanticsFlag(enum.Enum):
    """Semantic postulates that compile to linear atomic constraints."""

    COH = "COH"
    SFOU = "SFOU"
    FOU = "FOU"
    SOPT = "SOPT"
    OPT = "OPT"
    JUS = "JUS"
    SCOH = "SCOH"
    SSCE = "SSCE"
    SCE = "SCE"
    SPES = "SPES"
    PES = "PES"

    @classmethod
    def parse(cls, token: str) -> "SemanticsFlag":
        try:
            return cls(token.upper().replace("S-COH", "SCOH"))
        except ValueError:
            raise StructuralError(f"unknown semantics flag {token!r}") from None


# generation order for compile_semantics; JUS is expanded to COH + OPT first
_FLAG_ORDER = [SemanticsFlag.COH, SemanticsFlag.SFOU, SemanticsFlag.FOU,
               SemanticsFlag.SOPT, SemanticsFlag.OPT, SemanticsFlag.SCOH,
               SemanticsFlag.SSCE, SemanticsFlag.SCE, SemanticsFlag.SPES,
               SemanticsFlag.PES]


@dataclass
class ConstraintSet:
    """Ordered list of normalized constraints, each tagged with its provenance
    (a semantics flag name or "user")."""

    items: list[tuple[LinearAtomicConstraint, str]] = field(default_factory=list)

    @property
    def constraints(self) -> list[LinearAtomicConstraint]:
        return [c for c, _ in self.items]

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.constraints)

    def add(self, c: LinearAtomicConstraint, provenance: str = "user") -> None:
        self.items.append((c, provenance))

    def add_raw(self, raw: RawConstraint, provenance: str = "user") -> None:
        for c in normalize(raw):
            self.add(c, provenance)

    def extend(self, other: "ConstraintSet") -> None:
        self.items.extend(other.items)

    def copy(self) -> "ConstraintSet":
        return ConstraintSet(list(self.items))

    def as_matrix(self, baf: BAF) -> tuple[np.ndarray, np.ndarray]:
        """Dense LP rows (A, b) with one column per BAF argument: A x <= b.

        Raises UnknownArgumentError for a term naming no BAF argument."""
        index = baf.index
        rows, cols, coeffs = [], [], []
        for r, (c, _) in enumerate(self.items):
            for name, coeff in c.terms:
                rows.append(r)
                cols.append(index(name))
                coeffs.append(coeff)
        A = np.zeros((len(self.items), baf.n), dtype=float)
        A[rows, cols] = coeffs
        b = np.array([c.bound for c, _ in self.items], dtype=float)
        return A, b

    def __repr__(self):
        return "ConstraintSet([" + ", ".join(f"{c} ({p})" for c, p in self.items) + "])"


def normalize(raw: Union[RawConstraint, LinearAtomicConstraint]) -> list[LinearAtomicConstraint]:
    """Rewrite a constraint into one or two <= constraints."""
    if isinstance(raw, LinearAtomicConstraint):
        return [raw]
    terms = dict(raw.terms)
    if raw.relation == "<=":
        return [LinearAtomicConstraint.of(terms, raw.bound)]
    flipped = LinearAtomicConstraint.of({n: -c for n, c in terms.items()}, -raw.bound)
    if raw.relation == ">=":
        return [flipped]
    return [LinearAtomicConstraint.of(terms, raw.bound), flipped]


def _expand_flags(flags: Iterable[SemanticsFlag]) -> list[SemanticsFlag]:
    given = set(flags)
    if SemanticsFlag.JUS in given:
        given.discard(SemanticsFlag.JUS)
        given.add(SemanticsFlag.COH)
        given.add(SemanticsFlag.OPT)
    return [f for f in _FLAG_ORDER if f in given]


def compile_semantics(baf: BAF, flags: Iterable[SemanticsFlag]) -> ConstraintSet:
    """Emit the constraints each semantics flag induces on the BAF.

    Output order is deterministic: flags in a fixed canonical order, edges and
    arguments in name order. Duplicates (same term vector and bound) keep only
    their first occurrence. Incompatible flag combinations are allowed here and
    show up later as unsatisfiability. Terms name arguments by their names;
    attackers and supporters are read off the BAF's incoming-edge positions.
    """
    cs = ConstraintSet()
    seen: set[tuple] = set()

    def emit(terms, bound, flag):
        c = LinearAtomicConstraint.of(terms, bound)
        key = (c.terms, c.bound)
        if key not in seen:
            seen.add(key)
            cs.add(c, flag.value)

    def emit_eq(terms, bound, flag):
        emit(terms, bound, flag)
        emit([(-c, n) for c, n in terms], -bound, flag)

    names = [a.name for a in baf.args]
    attackers, supporters = baf._source_positions()
    attacks = sorted((src.name, dst.name) for src, dst in baf.attacks)
    supports = sorted((src.name, dst.name) for src, dst in baf.supports)

    for flag in _expand_flags(flags):
        if flag is SemanticsFlag.COH:
            # P(B) <= 1 - P(A) for each attack (A, B)
            for src, dst in attacks:
                emit([(1.0, src), (1.0, dst)], 1.0, flag)
        elif flag is SemanticsFlag.SFOU:
            for a, att in zip(names, attackers):
                if not att:
                    emit([(-1.0, a)], -0.5, flag)
        elif flag is SemanticsFlag.FOU:
            for a, att in zip(names, attackers):
                if not att:
                    emit_eq([(1.0, a)], 1.0, flag)
        elif flag in (SemanticsFlag.SOPT, SemanticsFlag.OPT):
            # P(A) >= 1 - sum of attacker probabilities
            for a, att in zip(names, attackers):
                if flag is SemanticsFlag.SOPT and not att:
                    continue
                terms = [(-1.0, a)] + [(-1.0, names[j]) for j in att]
                emit(terms, -1.0, flag)
        elif flag is SemanticsFlag.SCOH:
            # P(B) >= P(A) for each support (A, B)
            for src, dst in supports:
                emit([(1.0, src), (-1.0, dst)], 0.0, flag)
        elif flag is SemanticsFlag.SSCE:
            for a, sup in zip(names, supporters):
                if not sup:
                    emit([(1.0, a)], 0.5, flag)
        elif flag is SemanticsFlag.SCE:
            for a, sup in zip(names, supporters):
                if not sup:
                    emit_eq([(1.0, a)], 0.0, flag)
        elif flag in (SemanticsFlag.SPES, SemanticsFlag.PES):
            # P(A) <= sum of supporter probabilities
            for a, sup in zip(names, supporters):
                if flag is SemanticsFlag.SPES and not sup:
                    continue
                terms = [(1.0, a)] + [(-1.0, names[j]) for j in sup]
                emit(terms, 0.0, flag)
    return cs


def satisfies(L: Labelling, c: LinearAtomicConstraint, tol: float = DEFAULT_SAT_TOL) -> bool:
    """Whether the labelling satisfies the constraint within tol."""
    return c.lhs(L) <= c.bound + tol


def satisfies_all(L: Labelling, cs: ConstraintSet, tol: float = DEFAULT_SAT_TOL) -> bool:
    return all(satisfies(L, c, tol) for c in cs)
