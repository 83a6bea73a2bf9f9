"""Domain types for bipolar argumentation frameworks and their probability calculus.

Worlds are subsets of arguments encoded as bitmasks over the name-sorted
argument order. Anything that materialises a vector over all 2^n worlds is
guarded by a soft argument limit (default 16, hard cap 30).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

import numpy as np

from .errors import LimitExceededError, StructuralError, UnknownArgumentError

WORLD_SOFT_LIMIT = 16
WORLD_HARD_LIMIT = 30

_SUM_TOL = 1e-9
_NEG_TOL = 1e-12


@dataclass(frozen=True, order=True)
class Argument:
    """A named argument; identity, ordering and hashing are all by name."""

    name: str

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise StructuralError("argument name must be a non-empty string")

    def __repr__(self):
        return f"Argument({self.name!r})"


ArgLike = Union[Argument, str]


def _name_of(a: ArgLike) -> str:
    """The name of an argument given as an Argument or as its name; anything
    else raises StructuralError, as Argument(a) would."""
    if isinstance(a, Argument):
        return a.name
    if isinstance(a, str) and a:
        return a
    raise StructuralError("argument name must be a non-empty string")


class BAF:
    """Bipolar argumentation framework: arguments plus attack and support edges.

    Arguments are kept in name-sorted order, one Argument per name; that order
    defines world bitmask positions. Edges are sets of (source, target) pairs
    of the BAF's own Argument objects; self-loops and parallel attack+support
    between the same pair are allowed. The incoming-edge index, built on first
    use, holds positions in that order, not Arguments.
    """

    __slots__ = ("args", "attacks", "supports", "_index", "_incoming")

    def __init__(self, args: Iterable[ArgLike],
                 attacks: Iterable[tuple[ArgLike, ArgLike]] = (),
                 supports: Iterable[tuple[ArgLike, ArgLike]] = ()):
        names = sorted(map(_name_of, args))
        self._index = {name: i for i, name in enumerate(names)}
        if len(self._index) != len(names):
            raise StructuralError("duplicate argument names in BAF")
        self.args: tuple[Argument, ...] = tuple(map(Argument, names))
        self.attacks = frozenset(map(self._edge, attacks))
        self.supports = frozenset(map(self._edge, supports))
        self._incoming = None

    def _edge(self, e):
        """The edge e as a pair of the BAF's own Arguments."""
        try:
            src, dst = () if isinstance(e, str) else e  # "AB" is a name, not a pair
        except (TypeError, ValueError):
            raise StructuralError(f"edge {e!r} is not a (source, target) pair") from None
        src, dst = _name_of(src), _name_of(dst)
        index = self._index
        if src not in index or dst not in index:
            missing = src if src not in index else dst
            raise UnknownArgumentError(f"edge endpoint {missing!r} is not a BAF argument")
        return (self.args[index[src]], self.args[index[dst]])

    @property
    def n(self) -> int:
        return len(self.args)

    def arg(self, name: ArgLike) -> Argument:
        return self.args[self.index(_name_of(name))]

    def index(self, a: ArgLike) -> int:
        name = a.name if isinstance(a, Argument) else a
        try:
            return self._index[name]
        except KeyError:
            raise UnknownArgumentError(f"unknown argument {name!r}") from None
        except TypeError:  # unhashable, so not a name
            raise StructuralError("argument name must be a non-empty string") from None

    def attackers(self, a: ArgLike) -> tuple[Argument, ...]:
        return tuple(self.args[j] for j in self._source_positions()[0][self.index(_name_of(a))])

    def supporters(self, a: ArgLike) -> tuple[Argument, ...]:
        return tuple(self.args[j] for j in self._source_positions()[1][self.index(_name_of(a))])

    def _source_positions(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """(attack sources, support sources): entry i of each is the ascending
        positions of the sources of args[i], so ascending is name order.

        Built on the first call, so constructing a BAF stays one pass over its
        edges. It holds only ints, which the garbage collector stops tracking.
        """
        if self._incoming is None:
            index = self._index
            incoming = []
            for edges in (self.attacks, self.supports):
                sources = [[] for _ in self.args]
                for src, dst in edges:
                    sources[index[dst.name]].append(index[src.name])
                incoming.append(tuple(tuple(sorted(s)) for s in sources))
            self._incoming = tuple(incoming)
        return self._incoming

    def __eq__(self, other):
        return (isinstance(other, BAF) and self.args == other.args
                and self.attacks == other.attacks and self.supports == other.supports)

    def __hash__(self):
        return hash((self.args, self.attacks, self.supports))

    def __repr__(self):
        return (f"BAF(args={[a.name for a in self.args]}, "
                f"attacks={sorted((s.name, t.name) for s, t in self.attacks)}, "
                f"supports={sorted((s.name, t.name) for s, t in self.supports)})")


def check_world_size(n: int, max_args: Optional[int] = None) -> None:
    """Refuse world-space work beyond the soft limit (hard cap 30)."""
    limit = WORLD_SOFT_LIMIT if max_args is None else max_args
    if n > WORLD_HARD_LIMIT:
        raise LimitExceededError(f"{n} arguments exceeds the hard world-space cap of {WORLD_HARD_LIMIT}")
    if n > limit:
        raise LimitExceededError(f"{n} arguments exceeds the world-space limit of {limit}")


@dataclass(frozen=True)
class World:
    """A possible world: the accepted subset, as a bitmask over baf.args order."""

    mask: int

    @classmethod
    def of(cls, baf: BAF, accepted: Iterable[ArgLike]) -> "World":
        mask = 0
        for a in accepted:
            mask |= 1 << baf.index(a)
        return cls(mask)

    def accepts(self, baf: BAF, a: ArgLike) -> bool:
        return bool(self.mask >> baf.index(a) & 1)

    def members(self, baf: BAF) -> tuple[Argument, ...]:
        return tuple(a for i, a in enumerate(baf.args) if self.mask >> i & 1)


class Formula:
    """Propositional formula over argument names; leaves are Atom nodes."""

    __slots__ = ()

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)


class Atom(Formula):
    __slots__ = ("name",)

    def __init__(self, name: ArgLike):
        self.name = _name_of(name)

    def __repr__(self):
        return f"Atom({self.name!r})"

    def __eq__(self, other):
        return isinstance(other, Atom) and self.name == other.name

    def __hash__(self):
        return hash(("atom", self.name))


class Not(Formula):
    __slots__ = ("inner",)

    def __init__(self, inner: Formula):
        self.inner = inner

    def __repr__(self):
        return f"Not({self.inner!r})"


class And(Formula):
    __slots__ = ("parts",)

    def __init__(self, *parts: Formula):
        self.parts = tuple(parts)

    def __repr__(self):
        return f"And{self.parts!r}"


class Or(Formula):
    __slots__ = ("parts",)

    def __init__(self, *parts: Formula):
        self.parts = tuple(parts)

    def __repr__(self):
        return f"Or{self.parts!r}"


def formula_atoms(f: Formula) -> set[str]:
    """Distinct argument names occurring in the formula."""
    if isinstance(f, Atom):
        return {f.name}
    if isinstance(f, Not):
        return formula_atoms(f.inner)
    if isinstance(f, (And, Or)):
        out: set[str] = set()
        for p in f.parts:
            out |= formula_atoms(p)
        return out
    raise StructuralError(f"not a formula node: {f!r}")


def eval_formula(baf: BAF, w: World, f: Formula) -> bool:
    """Truth of f in world w; a leaf is true iff its argument is accepted."""
    if isinstance(f, Atom):
        return bool(w.mask >> baf.index(f.name) & 1)
    if isinstance(f, Not):
        return not eval_formula(baf, w, f.inner)
    if isinstance(f, And):
        return all(eval_formula(baf, w, p) for p in f.parts)
    if isinstance(f, Or):
        return any(eval_formula(baf, w, p) for p in f.parts)
    raise StructuralError(f"not a formula node: {f!r}")


def formula_truth(f: Formula, bit: Mapping[str, int], masks: np.ndarray) -> np.ndarray:
    """Boolean vector: entry k is the truth of f in the world masks[k], where
    bit maps each argument name of f to its bit position in the masks."""
    if isinstance(f, Atom):
        return (masks >> bit[f.name] & 1).astype(bool)
    if isinstance(f, Not):
        return ~formula_truth(f.inner, bit, masks)
    if isinstance(f, And):
        out = np.ones(masks.shape, dtype=bool)
        for p in f.parts:
            out &= formula_truth(p, bit, masks)
        return out
    if isinstance(f, Or):
        out = np.zeros(masks.shape, dtype=bool)
        for p in f.parts:
            out |= formula_truth(p, bit, masks)
        return out
    raise StructuralError(f"not a formula node: {f!r}")


def formula_indicator(baf: BAF, f: Formula, max_args: Optional[int] = None) -> np.ndarray:
    """Boolean vector over all 2^n world masks: entry w is truth of f in w.

    Resolves every leaf to its argument index up front, so dangling names fail
    before any evaluation.
    """
    check_world_size(baf.n, max_args)
    bit = {name: baf.index(name) for name in formula_atoms(f)}
    return formula_truth(f, bit, np.arange(1 << baf.n, dtype=np.int64))


class Labelling:
    """Map from every BAF argument to a degree of belief in [0, 1]."""

    __slots__ = ("baf", "_values")

    def __init__(self, baf: BAF, values: Mapping[ArgLike, float]):
        arr = np.empty(baf.n, dtype=float)
        seen = 0
        for key, v in values.items():
            i = baf.index(key)
            arr[i] = v
            seen += 1
        if seen != baf.n:
            raise StructuralError("labelling domain must equal the BAF argument set")
        self._seal(baf, arr)

    def _seal(self, baf: BAF, arr: np.ndarray) -> None:
        """Check arr (owned, one value per argument in baf.args order) lies in
        [0, 1] up to roundoff, clip it there and freeze it."""
        if np.any(arr < -_SUM_TOL) or np.any(arr > 1 + _SUM_TOL):
            raise StructuralError("labelling values must lie in [0, 1]")
        np.clip(arr, 0.0, 1.0, out=arr)
        arr.setflags(write=False)
        self.baf = baf
        self._values = arr

    @classmethod
    def from_array(cls, baf: BAF, arr) -> "Labelling":
        """Labelling with value arr[i] for baf.args[i]; arr is copied."""
        values = np.array(arr, dtype=float)
        if values.shape != (baf.n,):
            raise StructuralError("labelling domain must equal the BAF argument set")
        L = cls.__new__(cls)
        L._seal(baf, values)
        return L

    @classmethod
    def uniform(cls, baf: BAF, value: float = 0.5) -> "Labelling":
        return cls(baf, {a: value for a in baf.args})

    def __getitem__(self, a: ArgLike) -> float:
        return float(self._values[self.baf.index(a)])

    def as_array(self) -> np.ndarray:
        return self._values

    def items(self):
        return [(a, float(v)) for a, v in zip(self.baf.args, self._values)]

    def __eq__(self, other):
        return (isinstance(other, Labelling) and self.baf == other.baf
                and np.array_equal(self._values, other._values))

    def allclose(self, other: "Labelling", tol: float = 1e-9) -> bool:
        return self.baf == other.baf and bool(np.all(np.abs(self._values - other._values) <= tol))

    def __repr__(self):
        body = ", ".join(f"{a.name}={v:.6g}" for a, v in self.items())
        return f"Labelling({body})"


class WorldDistribution:
    """Dense probability vector over all 2^n worlds, indexed by world bitmask."""

    __slots__ = ("baf", "probs")

    def __init__(self, baf: BAF, probs, max_args: Optional[int] = None):
        check_world_size(baf.n, max_args)
        arr = np.asarray(probs, dtype=float).copy()
        if arr.shape != (1 << baf.n,):
            raise StructuralError(f"expected {1 << baf.n} world probabilities, got shape {arr.shape}")
        if np.any(arr < -_NEG_TOL):
            raise StructuralError("world probabilities must be non-negative")
        np.clip(arr, 0.0, None, out=arr)
        if abs(float(arr.sum()) - 1.0) > _SUM_TOL:
            raise StructuralError(f"world probabilities sum to {arr.sum()!r}, not 1")
        arr.setflags(write=False)
        self.baf = baf
        self.probs = arr

    def prob(self, w: World) -> float:
        return float(self.probs[w.mask])

    def __repr__(self):
        return f"WorldDistribution(n={self.baf.n})"


def prob_of_formula(P: WorldDistribution, f: Formula) -> float:
    """Probability of a formula: total mass of its satisfying worlds."""
    ind = formula_indicator(P.baf, f, max_args=P.baf.n)
    return float(P.probs[ind].sum())


def marginal(P: WorldDistribution, a: ArgLike) -> float:
    """Probability of a single argument under P."""
    i = P.baf.index(a)
    masks = np.arange(1 << P.baf.n, dtype=np.int64)
    return float(P.probs[(masks >> i & 1).astype(bool)].sum())


def factorized_distribution(L: Labelling, max_args: Optional[int] = None) -> WorldDistribution:
    """Product distribution of a labelling: each argument independently accepted
    with its labelled probability."""
    baf = L.baf
    check_world_size(baf.n, max_args)
    vals = L.as_array()
    masks = np.arange(1 << baf.n, dtype=np.int64)
    probs = np.ones(masks.shape, dtype=float)
    for i in range(baf.n):
        bit = (masks >> i & 1).astype(bool)
        probs *= np.where(bit, vals[i], 1.0 - vals[i])
    total = float(probs.sum())
    if abs(total - 1.0) > _SUM_TOL:  # defensive; the product telescopes to 1
        probs = probs / total
    return WorldDistribution(baf, probs, max_args=baf.n)


def labelling_of(P: WorldDistribution) -> Labelling:
    """Compact representative of P: its per-argument marginals."""
    baf = P.baf
    masks = np.arange(1 << baf.n, dtype=np.int64)
    vals = {}
    for i, a in enumerate(baf.args):
        vals[a] = float(P.probs[(masks >> i & 1).astype(bool)].sum())
    return Labelling(baf, vals)


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) in nats, with 0*log(0) taken as 0."""
    if p < 0.0 or p > 1.0:
        raise StructuralError(f"probability {p!r} outside [0, 1]")
    out = 0.0
    if p > 0.0:
        out -= p * math.log(p)
    if p < 1.0:
        out -= (1.0 - p) * math.log(1.0 - p)
    return out


def entropy_labelling(L: Labelling) -> float:
    """Sum of per-argument binary entropies (nats), with 0*log(0) taken as 0."""
    p = L.as_array()
    q = 1.0 - p
    p_log_p = p * np.log(p, out=np.zeros_like(p), where=p > 0.0)
    q_log_q = q * np.log(q, out=np.zeros_like(q), where=q > 0.0)
    return float(-(p_log_p + q_log_q).sum())


def entropy_distribution(P: WorldDistribution) -> float:
    """Shannon entropy of the world distribution (nats)."""
    p = P.probs[P.probs > 0.0]
    return float(-(p * np.log(p)).sum())


def kl_divergence(P: WorldDistribution, Q: WorldDistribution, atol: float = 1e-12) -> float:
    """KL(P, Q) in nats; entries of P below atol are treated as zero.

    Returns math.inf when P puts mass above atol where Q has none (absolute
    continuity fails).
    """
    if P.baf != Q.baf:
        raise StructuralError("KL divergence needs distributions over the same BAF")
    p, q = P.probs, Q.probs
    support = p > atol
    if np.any(q[support] <= atol):
        return math.inf
    ps, qs = p[support], q[support]
    return max(float((ps * np.log(ps / qs)).sum()), 0.0)
