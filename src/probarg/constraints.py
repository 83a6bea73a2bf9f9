"""Linear atomic constraints over argument probabilities.

Everything is stored in one normalized form, sum(c_i * pi(A_i)) <= c0.
Constraints written with >= or = are rewritten: >= flips signs, = becomes a
pair of <= constraints. Semantic postulates over a BAF compile to the same
currency.
"""
from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
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


class ConstraintSet:
    """Ordered list of normalized constraints, each tagged with its provenance
    (a semantics flag name or "user").

    The rows are stored flat, in compressed-sparse-row form: the term names
    and coefficients of every row one after another, plus each row's term
    count, bound and provenance. `items`, `constraints` and iteration build
    LinearAtomicConstraint objects from these lists on each call.
    """

    __slots__ = ("_names", "_coeffs", "_lengths", "_bounds", "_provenance")

    def __init__(self, items: Iterable[tuple[LinearAtomicConstraint, str]] = ()):
        self._names: list[str] = []
        self._coeffs: list[float] = []
        self._lengths: list[int] = []
        self._bounds: list[float] = []
        self._provenance: list[str] = []
        for c, provenance in items:
            self.add(c, provenance)

    @property
    def items(self) -> list[tuple[LinearAtomicConstraint, str]]:
        return list(zip(self.constraints, self._provenance))

    @property
    def constraints(self) -> list[LinearAtomicConstraint]:
        terms = zip(self._names, self._coeffs)
        return [LinearAtomicConstraint(tuple(islice(terms, k)), bound)
                for k, bound in zip(self._lengths, self._bounds)]

    def __len__(self):
        return len(self._bounds)

    def __iter__(self):
        return iter(self.constraints)

    def __eq__(self, other):
        return isinstance(other, ConstraintSet) and all(
            getattr(self, attr) == getattr(other, attr) for attr in self.__slots__)

    def add(self, c: LinearAtomicConstraint, provenance: str = "user") -> None:
        self._names.extend(name for name, _ in c.terms)
        self._coeffs.extend(coeff for _, coeff in c.terms)
        self._lengths.append(len(c.terms))
        self._bounds.append(c.bound)
        self._provenance.append(provenance)

    def add_raw(self, raw: RawConstraint, provenance: str = "user") -> None:
        for c in normalize(raw):
            self.add(c, provenance)

    def extend(self, other: "ConstraintSet") -> None:
        for attr in self.__slots__:
            getattr(self, attr).extend(getattr(other, attr))

    def copy(self) -> "ConstraintSet":
        out = ConstraintSet()
        out.extend(self)
        return out

    def as_matrix(self, baf: BAF) -> tuple[np.ndarray, np.ndarray]:
        """Dense LP rows (A, b) with one column per BAF argument: A x <= b.

        Every call builds new arrays from the flat lists, with one scatter of
        all coefficients. Raises UnknownArgumentError for a term naming no
        BAF argument."""
        rows, cols = self._coordinates(baf)
        A = np.zeros((len(self), baf.n))
        A[rows, cols] = self._coeffs
        return A, np.array(self._bounds, dtype=float)

    def _coordinates(self, baf: BAF) -> tuple[np.ndarray, np.ndarray]:
        """Row and column of every stored term, in storage order; term names
        map to columns through the BAF's index."""
        k, m = len(self._names), len(self)
        try:
            cols = np.fromiter(map(baf._index.__getitem__, self._names), np.intp, k)
        except (KeyError, TypeError):
            # BAF.index raises the typed error for the first bad name
            cols = np.fromiter(map(baf.index, self._names), np.intp, k)
        return np.repeat(np.arange(m), np.fromiter(self._lengths, np.intp, m)), cols

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


def _star(a: int, own: float, others: tuple[int, ...], each: float):
    """Canonical (positions, coefficients) of own * x_a + each * sum(x_j for j
    in others), for ascending others without repeats: positions ascending, a
    merged into others when it is one of them, and a zero coefficient dropped."""
    k = bisect_left(others, a)
    before, after = others[:k], others[k:]
    if after and after[0] == a:  # a self-loop
        own += each
        after = after[1:]
    mid = (a,) if own else ()
    return (before + mid + after,
            (each,) * len(before) + (own,) * len(mid) + (each,) * len(after))


def compile_semantics(baf: BAF, flags: Iterable[SemanticsFlag]) -> ConstraintSet:
    """Emit the constraints each semantics flag induces on the BAF.

    Output order is deterministic: flags in a fixed canonical order, edges and
    arguments in name order. Duplicates (same term vector and bound) keep only
    their first occurrence. Incompatible flag combinations are allowed here and
    show up later as unsatisfiability. Terms name arguments by their names;
    attackers and supporters are read off the BAF's incoming-edge positions.
    Rows are built over argument positions, which follow name order, and are
    written straight into the set's lists in the form LinearAtomicConstraint.of
    gives: terms sorted by name, merged, with no zero coefficient.
    """
    cs = ConstraintSet()
    cols: list[int] = []  # the terms' argument positions, named once at the end
    seen: set[tuple] = set()

    def emit(row, bound, tag):
        pos, coeffs = row
        key = (pos, coeffs, bound)
        if key not in seen:
            seen.add(key)
            cols.extend(pos)
            cs._coeffs.extend(coeffs)
            cs._lengths.append(len(pos))
            cs._bounds.append(bound)
            cs._provenance.append(tag)

    def emit_eq(a, bound, tag):
        emit(((a,), (1.0,)), bound, tag)
        emit(((a,), (-1.0,)), -bound, tag)

    attackers, supporters = baf._source_positions()
    # (source, target) position pairs in name order
    attacks = sorted((s, t) for t, srcs in enumerate(attackers) for s in srcs)
    supports = sorted((s, t) for t, srcs in enumerate(supporters) for s in srcs)

    for flag in _expand_flags(flags):
        tag = flag.value
        if flag is SemanticsFlag.COH:
            # P(B) <= 1 - P(A) for each attack (A, B)
            for s, t in attacks:
                emit(_star(t, 1.0, (s,), 1.0), 1.0, tag)
        elif flag is SemanticsFlag.SFOU:
            for a, att in enumerate(attackers):
                if not att:
                    emit(((a,), (-1.0,)), -0.5, tag)
        elif flag is SemanticsFlag.FOU:
            for a, att in enumerate(attackers):
                if not att:
                    emit_eq(a, 1.0, tag)
        elif flag in (SemanticsFlag.SOPT, SemanticsFlag.OPT):
            # P(A) >= 1 - sum of attacker probabilities
            for a, att in enumerate(attackers):
                if flag is SemanticsFlag.SOPT and not att:
                    continue
                emit(_star(a, -1.0, att, -1.0), -1.0, tag)
        elif flag is SemanticsFlag.SCOH:
            # P(B) >= P(A) for each support (A, B)
            for s, t in supports:
                emit(_star(s, 1.0, (t,), -1.0), 0.0, tag)
        elif flag is SemanticsFlag.SSCE:
            for a, sup in enumerate(supporters):
                if not sup:
                    emit(((a,), (1.0,)), 0.5, tag)
        elif flag is SemanticsFlag.SCE:
            for a, sup in enumerate(supporters):
                if not sup:
                    emit_eq(a, 0.0, tag)
        elif flag in (SemanticsFlag.SPES, SemanticsFlag.PES):
            # P(A) <= sum of supporter probabilities
            for a, sup in enumerate(supporters):
                if flag is SemanticsFlag.SPES and not sup:
                    continue
                emit(_star(a, 1.0, sup, -1.0), 0.0, tag)
    names = [a.name for a in baf.args]
    cs._names.extend([names[p] for p in cols])
    return cs


def satisfies(L: Labelling, c: LinearAtomicConstraint, tol: float = DEFAULT_SAT_TOL) -> bool:
    """Whether the labelling satisfies the constraint within tol."""
    return c.lhs(L) <= c.bound + tol


def satisfies_all(L: Labelling, cs: ConstraintSet, tol: float = DEFAULT_SAT_TOL) -> bool:
    """Whether the labelling satisfies every constraint of the set within tol.

    One check A x <= b + tol over all rows, with A x summed over the stored
    terms only, row by row in term order, as `satisfies` sums each row."""
    rows, cols = cs._coordinates(L.baf)
    lhs = np.bincount(rows, np.multiply(cs._coeffs, L.as_array()[cols]), len(cs))
    return bool(np.all(lhs <= np.add(cs._bounds, tol)))
