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

oracle.world_maxent keeps the conditional-gradient optimizer at the end of
this module as its world-space reference, so that the labelling path is
checked against an independent algorithm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

import numpy as np

from . import lp
from .constraints import ConstraintSet, LinearAtomicConstraint
from .errors import (ConditionInconsistentError, LimitExceededError,
                     SolverError, StructuralError, UnsatisfiableError)
from .model import (BAF, And, ArgLike, Atom, Formula, Labelling, Not, Or,
                    _as_argument, entropy_labelling, formula_atoms)

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
_Z_SATURATED = 40.0  # past this |A^T lam|, x(lam) is within rounding of the box
_DAMPING = 0.1       # Levenberg-Marquardt damping per unit of scaled gradient
_RIDGE = 1e-12       # keeps the damped Newton matrix nonsingular at the optimum
GRAD_CLAMP = 1e-12


@dataclass(frozen=True)
class ConjunctiveQuery:
    """Conjunction of literals: (name, True) is the argument, (name, False) its negation."""

    literals: tuple[tuple[str, bool], ...]

    @classmethod
    def of(cls, literals: Union[Mapping[ArgLike, bool], Iterable[tuple[ArgLike, bool]]]) -> "ConjunctiveQuery":
        pairs = literals.items() if hasattr(literals, "items") else literals
        seen: dict[str, bool] = {}
        for a, polarity in pairs:
            name = _as_argument(a).name
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
    x: np.ndarray       # the labelling: x(lam), unless the LP fallback fixed or moved it
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


def _newton_direction(A, lam, r, w):
    """Projected Newton direction at lam for gradient r and curvature weights w.

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
        AF = A[free]
        H = (AF * w) @ AF.T
        diag = np.diag(H)
        s = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
        M = H * s[:, None] * s[None, :]
        rhs = -s * r[free]
        M[np.diag_indices_from(M)] += _DAMPING * float(np.abs(rhs).max()) + _RIDGE
        step[free] = s * np.linalg.solve(M, rhs)
    return step


def _armijo_trial(A, b, lam, z, x, r, step, alpha):
    """(trial, dz, dg) for the projected step lam -> max(lam + alpha step, 0)
    when it passes the Armijo test, else None."""
    trial = np.maximum(lam + alpha * step, 0.0)
    moved = trial - lam
    rows = np.flatnonzero(moved)  # few, on large instances
    dz = moved[rows] @ A[rows]
    dg = float(_softplus_change(z, dz, x).sum() + b @ moved)
    if dg < 0.0 and dg <= _ARMIJO * float(r @ moved):
        return trial, dz, dg
    return None


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
        step = _newton_direction(A, lam, r, x * xc)
        alpha = 1.0
        best = _armijo_trial(A, b, lam, z, x, r, step, alpha)
        if best is None:
            for _ in range(_MAX_HALVINGS):
                alpha *= 0.5
                best = _armijo_trial(A, b, lam, z, x, r, step, alpha)
                if best is not None:
                    break
            else:
                break
        else:
            # towards a pinned coordinate g decays like exp(-alpha), not
            # quadratically, so a longer step keeps paying there -- until
            # x(lam) saturates, or g turns negative on an infeasible ray
            while g + best[2] >= 0.0:
                longer = _armijo_trial(A, b, lam, z, x, r, step, 2.0 * alpha)
                if (longer is None or longer[2] >= best[2]
                        or np.abs(z + longer[1]).max(initial=0.0) > _Z_SATURATED):
                    break
                alpha, best = 2.0 * alpha, longer
        trial, dz, dg = best
        lam, z, g = trial, z + dz, g + dg
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

    def rec(node: Formula) -> np.ndarray:
        if isinstance(node, Atom):
            return (masks >> pos[node.name] & 1).astype(bool)
        if isinstance(node, Not):
            return ~rec(node.inner)
        if isinstance(node, And):
            out = np.ones(masks.shape, dtype=bool)
            for p in node.parts:
                out &= rec(p)
            return out
        if isinstance(node, Or):
            out = np.zeros(masks.shape, dtype=bool)
            for p in node.parts:
                out |= rec(p)
            return out
        raise StructuralError(f"not a formula node: {node!r}")

    sat = rec(f)
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


# -- world-space reference: conditional gradient ----------------------------


def _shannon_gradient(v):
    return -(1.0 + np.log(np.clip(v, GRAD_CLAMP, None)))


def _line_search_max(x, d, tmax, iters: int = 100) -> float:
    """Argmax of the concave restriction t -> f(x + t d) on [0, tmax]."""
    def dphi(t):
        return float(d @ _shannon_gradient(x + t * d))

    if tmax <= 0.0:
        return 0.0
    if dphi(tmax) >= 0.0:
        return tmax
    if dphi(0.0) <= 0.0:
        return 0.0
    lo_t, hi_t = 0.0, tmax
    for _ in range(iters):
        mid = 0.5 * (lo_t + hi_t)
        if dphi(mid) > 0.0:
            lo_t = mid
        else:
            hi_t = mid
        if hi_t - lo_t <= 1e-16 * max(1.0, tmax):
            break
    return 0.5 * (lo_t + hi_t)


_ACT_TOL_LADDER = (1e-9, 1e-6, 1e-4, 1e-2, 5e-2)


def _dual_newton_polish(A, b, x, lower, upper, act_tol: float) -> Optional[np.ndarray]:
    """Solve the entropy maximization restricted to the rows active at x.

    On the active set the optimizer has a closed form through the dual,
    x_i = exp(-1 - (A^T lam)_i). Newton iterations on the dual residual give
    machine-precision solutions in a handful of steps. Returns the candidate
    point or None; the caller must still certify it (feasibility plus
    linearized gap), since the active set was only guessed from x.
    """
    def vet(xc):
        if np.any(xc < lower - 1e-12) or np.any(xc > upper + 1e-12):
            return None
        if A.shape[0] and np.any(A @ xc > b + 1e-9):
            return None
        return np.clip(xc, lower, upper)

    if A.shape[0]:
        act = A @ x >= b - act_tol * (1.0 + np.abs(b))
        A_act, b_act = A[act], b[act]
    else:
        A_act, b_act = A, b
    k = A_act.shape[0]
    if k == 0:
        return None

    lam = np.zeros(k)

    def primal(l):
        return np.exp(np.clip(-1.0 - A_act.T @ l, -500.0, 500.0))

    for _ in range(60):
        xc = primal(lam)
        F = A_act @ xc - b_act
        err = float(np.abs(F).max())
        if err <= 1e-12:
            break
        J = -(A_act * xc) @ A_act.T
        try:
            step = np.linalg.lstsq(J, -F, rcond=None)[0]
        except np.linalg.LinAlgError:
            return None
        # damped update: keep the residual from blowing up
        scale = 1.0
        for _ in range(30):
            trial = lam + scale * step
            Ft = A_act @ primal(trial) - b_act
            if float(np.abs(Ft).max()) < err:
                lam = trial
                break
            scale *= 0.5
        else:
            return None
    else:
        return None
    return vet(primal(lam))


def _conditional_gradient_maximize(state: lp.SimplexState, A, b, lower, upper,
                                   init_atoms, gap_tol: float, max_iter: int):
    """Maximize the Shannon entropy over {x : rows hold, lower <= x <= upper}.

    The iterate is kept as a convex combination of feasible atoms. Each round
    asks the LP oracle for the best vertex under the linearized objective and
    then transfers weight onto it from the worst active atom (pairwise step),
    falling back to a plain step toward the vertex. The pairwise transfer is
    what stops the iterate from zigzagging across a face it has already
    identified; when the optimum is interior to a high-dimensional face even
    that crawls, so an active-set Newton polish runs periodically and its
    candidate is accepted only when the oracle certifies its gap. Returns
    (x, gap, iterations, converged).
    """
    store: dict[bytes, list] = {}
    w0 = 1.0 / len(init_atoms)
    for v in init_atoms:
        key = v.tobytes()
        if key in store:
            store[key][1] += w0
        else:
            store[key] = [v, w0]
    x = np.zeros_like(init_atoms[0])
    for v, w in store.values():
        x += w * v

    def fw_step(s, skey, g):
        nonlocal x, store
        d = s - x
        t = _line_search_max(x, d, 1.0)
        if t >= 1.0 - 1e-15:
            store = {skey: [s, 1.0]}
            x = s.copy()
        elif t > 0.0:
            for entry in store.values():
                entry[1] *= (1.0 - t)
            if skey in store:
                store[skey][1] += t
            else:
                store[skey] = [s, t]
            x = x + t * d

    def certified_gap(cand):
        g = _shannon_gradient(cand)
        sol = state.minimize(-g)
        if sol.status != lp.OPTIMAL:
            raise SolverError(f"linear-minimization oracle returned {sol.status!r}")
        return float(g @ (np.clip(sol.x, lower, upper) - cand))

    def try_polish(cur):
        # active-set identification is a guess, so walk a tolerance ladder;
        # every candidate is vetted by feasibility and the oracle certificate
        seen = set()
        for tol in _ACT_TOL_LADDER:
            if A.shape[0]:
                mask = (A @ cur >= b - tol * (1.0 + np.abs(b))).tobytes()
                if mask in seen:
                    continue
                seen.add(mask)
            cand = _dual_newton_polish(A, b, cur, lower, upper, tol)
            if cand is None:
                continue
            cand_gap = certified_gap(cand)
            if cand_gap <= gap_tol:
                return cand, max(cand_gap, 0.0)
        return None, None

    gap = math.inf
    for k in range(max_iter):
        g = _shannon_gradient(x)
        sol = state.minimize(-g)
        if sol.status != lp.OPTIMAL:
            raise SolverError(f"linear-minimization oracle returned {sol.status!r}")
        s = np.clip(sol.x, lower, upper)
        gap = float(g @ (s - x))
        if gap <= gap_tol:
            return x, max(gap, 0.0), k, True

        if k % 10 == 0:
            cand, cand_gap = try_polish(x)
            if cand is not None:
                return cand, cand_gap, k + 1, True

        away_key = None
        away_score = math.inf
        for key, (v, _) in store.items():
            sc = float(g @ v)
            if sc < away_score:
                away_score, away_key = sc, key
        skey = s.tobytes()

        if skey != away_key:
            a_vec, a_w = store[away_key]
            d = s - a_vec
            t = _line_search_max(x, d, a_w)
            if t > 0.0:
                store[away_key][1] = a_w - t
                if store[away_key][1] <= 1e-14:
                    del store[away_key]
                if skey in store:
                    store[skey][1] += t
                else:
                    store[skey] = [s, t]
                x = x + t * d
            else:
                fw_step(s, skey, g)
        else:
            fw_step(s, skey, g)

        if (k + 1) % 128 == 0:
            # rebuild x from the combination to damp float drift
            total = sum(entry[1] for entry in store.values())
            x = np.zeros_like(x)
            for entry in store.values():
                entry[1] /= total
                x += entry[1] * entry[0]

    cand, cand_gap = try_polish(x)
    if cand is not None:
        return cand, cand_gap, max_iter, True
    return x, gap, max_iter, False


def _coordinate_ranges(A, b, lower, upper):
    """Per-coordinate min/max over the polytope plus the optimal vertices."""
    n = lower.size
    objectives = []
    for i in range(n):
        c = np.zeros(n)
        c[i] = 1.0
        objectives.append((c, "min"))
        objectives.append((c, "max"))
    sols = lp.solve_many(A, b, lower, upper, objectives)
    lows = np.empty(n)
    highs = np.empty(n)
    vertices = []
    for i in range(n):
        lo_sol, hi_sol = sols[2 * i], sols[2 * i + 1]
        if lo_sol.status == lp.INFEASIBLE or hi_sol.status == lp.INFEASIBLE:
            raise UnsatisfiableError("constraint polytope is empty")
        if lo_sol.status != lp.OPTIMAL or hi_sol.status != lp.OPTIMAL:
            raise SolverError(f"coordinate-range LP ended with status {lo_sol.status!r}/{hi_sol.status!r}")
        lows[i] = lo_sol.objective_value
        highs[i] = hi_sol.objective_value
        vertices.append(np.clip(lo_sol.x, lower, upper))
        vertices.append(np.clip(hi_sol.x, lower, upper))
    return lows, highs, vertices


def _snap(vals: np.ndarray, lower: np.ndarray, upper: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    out = vals.copy()
    snap_lo = np.isfinite(lower) & (np.abs(out - lower) <= tol)
    out[snap_lo] = lower[snap_lo]
    snap_up = np.isfinite(upper) & (np.abs(out - upper) <= tol)
    out[snap_up] = upper[snap_up]
    return out


def maxent_over_polytope(A, b, lower, upper, *, gap_tol: float, max_iter: int,
                         fix_tol: float, center=None):
    """Maximize the Shannon entropy over {x : A x <= b, lower <= x <= upper}:
    fix the coordinates whose LP range is a point, then run the
    conditional-gradient loop on the free block. Returns (x, gap, iterations,
    converged).

    center, when given, is the unconstrained maximizer of the objective; if it
    is feasible it becomes the single starting atom, which lets the first gap
    check terminate immediately in the common no-binding-constraint case.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)

    lows, highs, vertices = _coordinate_ranges(A, b, lower, upper)
    fixed = (highs - lows) <= fix_tol
    x_full = _snap(0.5 * (lows + highs), lower, upper)

    free = ~fixed
    n_free = int(free.sum())
    if n_free == 0:
        return x_full, 0.0, 0, True

    A_free = A[:, free]
    b_free = b - A[:, fixed] @ x_full[fixed] if fixed.any() else b.copy()
    live = np.abs(A_free).max(axis=1) > 0.0 if A_free.size else np.zeros(A.shape[0], dtype=bool)
    dead = ~live
    if np.any(b_free[dead] < -1e-6):
        raise SolverError("fixed coordinates violate a constraint row")

    A_live, b_live = A_free[live], b_free[live]
    state = lp.SimplexState(A_live, b_live, lower[free], upper[free])
    init_atoms = [v[free].copy() for v in vertices]
    if center is not None:
        c_free = np.asarray(center, dtype=float)[free]
        in_box = np.all(c_free >= lower[free] - 1e-12) and np.all(c_free <= upper[free] + 1e-12)
        if in_box and (not A_live.size or np.all(A_live @ c_free <= b_live + 1e-12)):
            init_atoms = [np.clip(c_free, lower[free], upper[free])]

    x_free, gap, iters, converged = _conditional_gradient_maximize(
        state, A_live, b_live, lower[free], upper[free], init_atoms, gap_tol, max_iter)

    out = x_full.copy()
    out[free] = x_free
    return out, gap, iters, converged
