"""Maximum-entropy labellings under linear atomic constraints, plus the
conjunctive / exclusive-DNF / conditional queries they support.

The labelling maximizes sum_i H(x_i) subject to A x <= b over [0,1]^n. Its
Lagrange dual absorbs the box,

    min_{lam >= 0}  g(lam) = sum_i softplus(-(A^T lam)_i) + b . lam,
    x(lam) = sigmoid(-A^T lam),

and is solved by projected Newton (Bertsekas 1982): rows whose multiplier is
at zero with a nonnegative gradient are held there, the rest take a Newton
step with the Hessian A_F diag(x(1-x)) A_F^T, and an Armijo search runs on the
projected step. The duality gap lam . (b - A x) together with the row
violation is the optimality certificate behind MaxEntResult.gap and
.converged. When the centre labelling 0.5 is feasible, lam = 0 is already
optimal and no step is taken.

A coordinate forced to 0 or 1 has no finite multiplier; Newton drives it to
the box geometrically. Only when Newton cannot certify the result, or its
labelling misses a row by more than the LP feasibility tolerance in the row's
own units, does the lp module step in: phase one decides feasibility (so the
verdict agrees with check_sat), one LP per coordinate near the box certifies
it as pinned, the pinned coordinates are fixed and the dual is solved again;
failing that, a feasible labelling is returned with converged=False and the
dual bound as its gap.

maxent_over_polytope, at the end of this module, maximizes the entropy of a
distribution over the 2^n worlds for oracle.world_maxent. Its dual has the
log-partition function in place of the softplus sum, p = softmax(-F^T lam)
in place of x(lam), and the same projected Newton with the same stopping
test; it runs no LP. Agreement of its marginals with the labelling is the
paper's factorization claim, checked without assuming it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

import numpy as np

from . import lp
from .constraints import ConstraintSet, LinearAtomicConstraint
from .errors import (ConditionInconsistentError, LimitExceededError,
                     SolverError, StructuralError, UnsatisfiableError)
from .model import (BAF, And, ArgLike, Atom, Formula, Labelling, Not,
                    _name_of, entropy_labelling, formula_atoms, formula_truth)

GAP_TOL = 1e-8
MAX_ITER = 100       # Newton steps per dual solve
KKT_TOL = 1e-10      # |min(lam_j, slack_j)| per row: violation and complementarity,
                     # each row scaled to unit largest |coefficient|
NEAR_BOX = 1e-6      # a Newton iterate this close to 0 or 1 is a pin candidate
PIN_TOL = 1e-9       # an LP bound this close to 0 or 1 pins the coordinate there
DNF_LIMIT = 20

_ACTIVE_EPS = 1e-3   # a multiplier this small with a positive gradient is sent to zero
_ARMIJO = 1e-4
_MAX_HALVINGS = 50
_Z_SATURATED = 40.0  # past this |A^T lam|, x(lam) is within rounding of the box; a world
                     # exponent moved twice this far against another does the same to p
_DAMPING = 0.1       # Levenberg-Marquardt damping per unit of scaled gradient
_RIDGE = 1e-12       # keeps the damped Newton matrix nonsingular at the optimum


@dataclass(frozen=True)
class ConjunctiveQuery:
    """Conjunction of literals: (name, True) is the argument, (name, False) its negation."""

    literals: tuple[tuple[str, bool], ...]

    @classmethod
    def of(cls, literals: Union[Mapping[ArgLike, bool], Iterable[tuple[ArgLike, bool]]]) -> "ConjunctiveQuery":
        pairs = literals.items() if hasattr(literals, "items") else literals
        seen: dict[str, bool] = {}
        for a, polarity in pairs:
            name = _name_of(a)
            if name in seen:
                raise StructuralError(f"argument {name!r} appears twice in a conjunctive query")
            seen[name] = bool(polarity)
        return cls(tuple(sorted(seen.items())))

    @classmethod
    def positive(cls, args: Iterable[ArgLike]) -> "ConjunctiveQuery":
        return cls.of([(a, True) for a in args])

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.literals)

    def all_positive(self) -> bool:
        return all(b for _, b in self.literals)

    def to_formula(self) -> Formula:
        parts = [Atom(n) if b else Not(Atom(n)) for n, b in self.literals]
        return And(*parts)

    def __str__(self):
        if not self.literals:
            return "<empty>"
        return " & ".join(n if b else "!" + n for n, b in self.literals)


@dataclass
class MaxEntResult:
    """The labelling with its certificate.

    multipliers holds one dual variable per row of cs.as_matrix(baf); gap
    bounds how far the entropy can lie below the maximum when the labelling
    is feasible. iterations counts Newton steps.
    """

    labelling: Labelling
    entropy: float
    iterations: int
    gap: float
    converged: bool
    multipliers: np.ndarray

    def certified_labelling(self) -> Labelling:
        """The labelling, or SolverError when its optimality is not certified."""
        if not self.converged:
            raise SolverError(f"maximum entropy not converged: gap {self.gap:.3g} "
                              f"after {self.iterations} Newton steps")
        return self.labelling


# -- entropy dual: projected Newton -----------------------------------------


@dataclass
class _DualIterate:
    lam: np.ndarray
    x: np.ndarray       # the labelling x(lam), unless the LP fallback fixed or moved it;
                        # for the world dual, the distribution p(lam)
    g: float            # g(lam); bounds the maximum entropy from above when the rows are feasible
    steps: int
    converged: bool


def _sigmoid_pair(z):
    """sigmoid(-z) and its complement, each free of cancellation."""
    e = np.exp(-np.abs(z))
    small, big = e / (1.0 + e), 1.0 / (1.0 + e)
    pos = z >= 0.0
    return np.where(pos, small, big), np.where(pos, big, small)


def _softplus_neg(z):
    """log(1 + exp(-z)) for either sign of z."""
    return np.maximum(-z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _softplus_change(z, dz, x):
    """softplus(-(z + dz)) - softplus(-z) for x = sigmoid(-z). Near the optimum
    the change of g is far below the rounding of g itself, so small changes
    use the cancellation-free log1p form; large ones the direct difference."""
    near = np.log1p(x * np.expm1(-np.clip(dz, -1.0, 1.0)))
    far = _softplus_neg(z + dz) - _softplus_neg(z)
    return np.where(np.abs(dz) <= 1.0, near, far)


def _newton_direction(lam, r, hessian):
    """Projected Newton direction at lam for the dual gradient r; hessian(free)
    returns the block of the dual Hessian on the rows indexed by free.

    A multiplier at zero with a nonnegative gradient, or near zero with a
    positive one, is active and heads for zero; the free rows take a Newton
    step. It is solved on the Jacobi-scaled Hessian, so that rows over
    coordinates near the box keep their precision, with Levenberg-Marquardt
    damping proportional to the scaled gradient: that keeps steps along
    dependent rows, where g is flat, from blowing up rounding noise, and it
    vanishes at the optimum, so convergence stays quadratic.
    """
    eps = min(_ACTIVE_EPS, float(np.linalg.norm(lam - np.maximum(lam - r, 0.0))))
    active = ((lam == 0.0) & (r >= 0.0)) | ((lam <= eps) & (r > 0.0))
    step = -lam
    free = np.nonzero(~active)[0]
    if free.size:
        H = hessian(free)
        diag = np.diag(H)
        s = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
        M = H * s[:, None] * s[None, :]
        rhs = -s * r[free]
        M[np.diag_indices_from(M)] += _DAMPING * float(np.abs(rhs).max()) + _RIDGE
        step[free] = s * np.linalg.solve(M, rhs)
    return step


def _projected_search(A, b, lam, r, step, value, change, saturated):
    """Armijo search on the projected step lam -> max(lam + alpha step, 0) of
    a dual whose exponent is A^T lam, value its current value and r its
    gradient. change(dz) is the change of the dual's log-partition part when
    the exponent moves by dz; saturated(dz) tells when the primal point at the
    moved exponent is within rounding of its bounds. Returns (lam, dz, change
    of value) for the accepted step, or None when every halving fails."""
    def trial(alpha):
        new = np.maximum(lam + alpha * step, 0.0)
        moved = new - lam
        rows = np.flatnonzero(moved)  # few, on large instances
        dz = moved[rows] @ A[rows]
        dv = float(change(dz) + b @ moved)
        if dv < 0.0 and dv <= _ARMIJO * float(r @ moved):
            return new, dz, dv
        return None

    alpha = 1.0
    best = trial(alpha)
    if best is None:
        for _ in range(_MAX_HALVINGS):
            alpha *= 0.5
            best = trial(alpha)
            if best is not None:
                break
        return best
    # towards a pinned coordinate the dual decays like exp(-alpha), not
    # quadratically, so a longer step keeps paying there -- until the primal
    # point saturates, or the value turns negative on an infeasible ray
    while value + best[2] >= 0.0:
        longer = trial(2.0 * alpha)
        if longer is None or longer[2] >= best[2] or saturated(longer[1]):
            break
        alpha, best = 2.0 * alpha, longer
    return best


def _dual_newton(A, b, gap_tol: float, max_iter: int) -> _DualIterate:
    """Projected Newton on the entropy dual from lam = 0. Stops when the
    duality gap lam . (b - A x) is within gap_tol and the KKT residual
    max_j |min(lam_j, (b - A x)_j)| -- violation, or slack under a positive
    multiplier -- within KKT_TOL; or unconverged at the step cap, when the
    Armijo search fails, or when g < 0 shows the rows infeasible."""
    lam = np.zeros(A.shape[0])
    z = np.zeros(A.shape[1])
    g = A.shape[1] * math.log(2.0)
    steps = 0
    while True:
        x, xc = _sigmoid_pair(z)
        r = b - A @ x
        kkt = np.abs(np.minimum(lam, r)).max(initial=0.0)
        if float(lam @ r) <= gap_tol and kkt <= KKT_TOL:
            return _DualIterate(lam, x, g, steps, True)
        # the entropy is >= 0, so a negative dual value proves the rows infeasible
        if steps == max_iter or g < -KKT_TOL:
            break
        w = x * xc
        step = _newton_direction(lam, r, lambda free: (A[free] * w) @ A[free].T)
        best = _projected_search(
            A, b, lam, r, step, g, lambda dz: _softplus_change(z, dz, x).sum(),
            lambda dz: np.abs(z + dz).max(initial=0.0) > _Z_SATURATED)
        if best is None:
            break
        lam, dz, dg = best
        z, g = z + dz, g + dg
        steps += 1
    return _DualIterate(lam, x, g, steps, False)


def _towards(A, b, x0, x1):
    """The point of the segment from x0 to x1 furthest towards x1 that
    violates no row by more than x0 does (a ratio test)."""
    d = x1 - x0
    Ad = A @ d
    room = np.maximum(b - A @ x0, 0.0)
    up = Ad > 0.0
    t = float(np.min(room[up] / Ad[up], initial=1.0))
    return np.clip(x0 + t * d, 0.0, 1.0)


def _lp_fallback(A, b, An, bn, it: _DualIterate, gap_tol: float,
                 max_iter: int) -> _DualIterate:
    """Settle what Newton could not certify. Phase one gives the feasibility
    verdict, one LP per coordinate near the box certifies it as pinned, and
    the dual is solved again with the pinned coordinates fixed. Failing that,
    the labelling is the ratio-test point between the phase-one point and
    x(lam), which is feasible."""
    n = A.shape[1]
    state = lp.SimplexState(A, b, np.zeros(n), np.ones(n))
    status = state.ensure_feasible()
    if status == lp.INFEASIBLE:
        raise UnsatisfiableError("maximum entropy requires a satisfiable constraint set")
    if status != lp.OPTIMAL:
        raise SolverError(f"phase one ended with status {status!r}")
    state.snapshot()

    x, lam, g, steps = it.x, it.lam, it.g, it.steps
    pinned, values = [], []
    for i in np.nonzero(np.minimum(x, 1.0 - x) <= NEAR_BOX)[0]:
        bound = 1.0 if x[i] > 0.5 else 0.0
        c = np.zeros(n)
        c[i] = 1.0 if bound else -1.0  # push x_i away from that bound
        state.restore()
        sol = state.minimize(c)
        if sol.status == lp.OPTIMAL and abs(sol.x[i] - bound) <= PIN_TOL:
            pinned.append(i)
            values.append(bound)

    if pinned:
        free = np.ones(n, dtype=bool)
        free[pinned] = False
        A_free = An[:, free]
        b_free = bn - An[:, pinned] @ np.array(values)
        live = np.abs(A_free).max(axis=1, initial=0.0) > 0.0
        sub = _dual_newton(A_free[live], b_free[live], gap_tol, max_iter)
        x = np.empty(n)
        x[pinned] = values
        x[free] = sub.x
        lam = np.zeros(bn.size)
        lam[live] = sub.lam
        g, steps = sub.g, steps + sub.steps
        if sub.converged:
            return _DualIterate(lam, x, g, steps, True)

    state.restore()
    x0 = state.minimize(np.zeros(n)).x
    return _DualIterate(lam, _towards(A, b, x0, x), g, steps, False)


def maxent_labelling(cs: ConstraintSet, baf: BAF, *, gap_tol: float = GAP_TOL,
                     max_iter: int = MAX_ITER) -> MaxEntResult:
    """The unique entropy-maximizing labelling subject to the constraint set."""
    A, b = cs.as_matrix(baf)
    scale = np.abs(A).max(axis=1, initial=0.0)
    scale[scale == 0.0] = 1.0
    An, bn = A / scale[:, None], b / scale
    it = _dual_newton(An, bn, gap_tol, max_iter)
    # Newton's rows hold after scaling; a row with large coefficients can still
    # miss by more than the LP tolerance, and then phase one has the verdict,
    # as it has for check_sat
    if not it.converged or np.any(A @ it.x - b > lp.DEFAULT_FEAS_TOL):
        it = _lp_fallback(A, b, An, bn, it, gap_tol, max_iter)
    L = Labelling.from_array(baf, np.clip(it.x, 0.0, 1.0))
    entropy = entropy_labelling(L)
    return MaxEntResult(L, entropy, it.steps, max(it.g - entropy, 0.0), it.converged,
                        it.lam / scale)


def conjunctive_query(L: Labelling, q: ConjunctiveQuery) -> float:
    """Probability of a conjunction of literals under the factorized model of L."""
    out = 1.0
    for name, positive in q.literals:
        p = L[name]
        out *= p if positive else 1.0 - p
    return out


def exclusive_dnf_query(L: Labelling, f: Formula, limit: int = DNF_LIMIT) -> float:
    """Formula probability under the factorized model of L, by expanding the
    formula over all sign patterns of its arguments (mutually exclusive
    conjunctions whose probabilities add)."""
    names = sorted(formula_atoms(f))
    k = len(names)
    if k > limit:
        raise LimitExceededError(
            f"formula mentions {k} arguments; exclusive-DNF expansion limit is {limit}")
    for name in names:
        L.baf.index(name)
    pos = {name: i for i, name in enumerate(names)}
    masks = np.arange(1 << k, dtype=np.int64)
    sat = formula_truth(f, pos, masks)
    weights = np.ones(masks.shape, dtype=float)
    for name, i in pos.items():
        bit = (masks >> i & 1).astype(bool)
        weights *= np.where(bit, L[name], 1.0 - L[name])
    return float(weights[sat].sum())


def conditional_query(cs: ConstraintSet, baf: BAF, condition: ConjunctiveQuery,
                      target: ConjunctiveQuery, **maxent_kw) -> float:
    """Conditional conjunctive query via the recompute workaround: force every
    conditioned argument to probability one, recompute the max-entropy
    labelling, then ask the target as a plain conjunctive query. Raises
    SolverError when that labelling is not certified optimal."""
    if not condition.all_positive():
        raise StructuralError("conditioning supports positive literals only")
    augmented = cs.copy()
    for name in condition.names:
        baf.index(name)
        augmented.add(LinearAtomicConstraint.of({name: 1.0}, 1.0), "condition")
        augmented.add(LinearAtomicConstraint.of({name: -1.0}, -1.0), "condition")
    try:
        res = maxent_labelling(augmented, baf, **maxent_kw)
    except UnsatisfiableError:
        raise ConditionInconsistentError(
            f"condition {condition} is inconsistent with the constraint set") from None
    return conjunctive_query(res.certified_labelling(), target)




# -- world-space maximum entropy: the log-partition dual ----------------------


def _log_sum_exp(v) -> float:
    top = float(v.max())
    return top + math.log(float(np.exp(v - top).sum()))


def _log_partition_change(u, du, p) -> float:
    """log sum exp(-(u + du)) - log sum exp(-u) for p = softmax(-u). Near the
    optimum the change is far below the rounding of either sum, so small moves
    use the cancellation-free log1p form; large ones the direct difference."""
    if np.abs(du).max(initial=0.0) <= 1.0:
        return math.log1p(float(p @ np.expm1(-du)))
    return _log_sum_exp(-(u + du)) - _log_sum_exp(-u)


def _world_newton(F, b) -> _DualIterate:
    """Projected Newton on the log-partition dual from lam = 0, with the
    stopping test of _dual_newton at GAP_TOL and MAX_ITER. The returned
    iterate's x is the distribution p = softmax(-F^T lam)."""
    lam = np.zeros(F.shape[0])
    u = np.zeros(F.shape[1])
    h = math.log(F.shape[1])
    steps = 0
    while True:
        e = np.exp(u.min() - u)
        p = e / e.sum()
        Fp = F @ p
        r = b - Fp
        kkt = np.abs(np.minimum(lam, r)).max(initial=0.0)
        if float(lam @ r) <= GAP_TOL and kkt <= KKT_TOL:
            return _DualIterate(lam, p, h, steps, True)
        if steps == MAX_ITER or h < -KKT_TOL:
            break
        # the covariance of the rows under p
        step = _newton_direction(
            lam, r, lambda free: (F[free] * p) @ F[free].T - np.outer(Fp[free], Fp[free]))
        # a row with all of p's mass on one value has variance ~0 and its
        # Jacobi-scaled step is huge; past saturation no step is modelled
        # anyway, so the full step moves the exponent's spread at most that far
        spread = np.ptp(step @ F)
        if spread > 2.0 * _Z_SATURATED:
            step *= 2.0 * _Z_SATURATED / spread
        best = _projected_search(
            F, b, lam, r, step, h, lambda du: _log_partition_change(u, du, p),
            lambda du: np.ptp(du) > 2.0 * _Z_SATURATED)
        if best is None:
            break
        lam, du, dh = best
        u, h = u + du, h + dh
        steps += 1
    return _DualIterate(lam, p, h, steps, False)


def maxent_over_polytope(F, b):
    """The entropy-maximizing distribution p over the columns of F subject to
    F p <= b, by projected Newton on the dual

        min_{lam >= 0}  h(lam) = log sum_w exp(-(F^T lam)_w) + b . lam,
        p(lam) = softmax(-F^T lam),

    which has one multiplier per row, whatever the number of columns; the
    normalization of p needs none. Rows are scaled to unit largest
    |coefficient|. Returns (p, gap, steps, converged), gap being h(lam) - H(p);
    raises UnsatisfiableError when h < 0 proves the rows infeasible (the
    entropy is >= 0)."""
    F = np.asarray(F, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.abs(F).max(axis=1, initial=0.0)
    scale[scale == 0.0] = 1.0
    it = _world_newton(F / scale[:, None], b / scale)
    if not it.converged and it.g < 0.0:
        raise UnsatisfiableError("the constraint rows admit no distribution")
    p = it.x
    support = p[p > 0.0]
    entropy = float(-(support * np.log(support)).sum())
    return p, max(it.g - entropy, 0.0), it.steps, it.converged
