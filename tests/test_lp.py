import itertools

import numpy as np
import pytest

from probarg import StructuralError
from probarg import lp


def box_problem(c, sense, rows, lo, hi):
    return lp.LPProblem.of(c, sense, rows, lo, hi)


def enumerate_vertices(A, b, lower, upper):
    """Brute-force vertex enumeration for small LPs: intersect every choice of
    n active hyperplanes drawn from rows and box faces, keep feasible points."""
    m, n = A.shape
    planes = [(A[i], b[i]) for i in range(m)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        planes.append((e, upper[j]))
        planes.append((-e, -lower[j]))
    verts = []
    for combo in itertools.combinations(range(len(planes)), n):
        M = np.array([planes[i][0] for i in combo])
        rhs = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(M)) < 1e-10:
            continue
        x = np.linalg.solve(M, rhs)
        if np.any(A @ x > b + 1e-9):
            continue
        if np.any(x < lower - 1e-9) or np.any(x > upper + 1e-9):
            continue
        verts.append(x)
    return verts


class TestBasics:
    def test_min_with_lower_row(self):
        p = box_problem([1.0], "min", [([-1.0], -0.3)], [0.0], [1.0])
        sol = lp.solve_lp(p)
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(0.3, abs=1e-9)

    def test_contradictory_rows_infeasible(self):
        p = box_problem([1.0], "min", [([1.0], 0.0), ([-1.0], -1.0)], [0.0], [1.0])
        assert lp.solve_lp(p).status == lp.INFEASIBLE

    def test_slack_lp_for_contradictory_assignment(self):
        # variables (x, s1, s2): minimize s1+s2 with -x - s1 <= -1 and x - s2 <= 0
        p = lp.LPProblem.of(
            [0.0, 1.0, 1.0], "min",
            [([-1.0, -1.0, 0.0], -1.0), ([1.0, 0.0, -1.0], 0.0)],
            [0.0, 0.0, 0.0], [1.0, np.inf, np.inf])
        sol = lp.solve_lp(p)
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)
        # independent oracle: grid over x, slack cost is (1-x) + x = 1
        grid = np.linspace(0, 1, 1001)
        best = min(max(0.0, 1.0 - x) + max(0.0, x) for x in grid)
        assert sol.objective_value == pytest.approx(best, abs=1e-9)

    def test_unbounded(self):
        p = box_problem([-1.0], "min", [], [0.0], [np.inf])
        assert lp.solve_lp(p).status == lp.UNBOUNDED

    def test_maximize(self):
        p = box_problem([1.0, 1.0], "max", [([1.0, 2.0], 1.0)], [0.0, 0.0], [1.0, 1.0])
        sol = lp.solve_lp(p)
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)  # x=(1,0)

    def test_equality_pair(self):
        rows = [([1.0, 0.0], 0.8), ([-1.0, 0.0], -0.8)]
        p = box_problem([0.0, -1.0], "min", rows, [0.0, 0.0], [1.0, 1.0])
        sol = lp.solve_lp(p)
        assert sol.x[0] == pytest.approx(0.8, abs=1e-9)
        assert sol.x[1] == pytest.approx(1.0, abs=1e-9)

    def test_zero_rows_box_only(self):
        p = box_problem([2.0, -3.0], "min", [], [0.2, 0.1], [0.9, 0.8])
        sol = lp.solve_lp(p)
        assert sol.x.tolist() == [0.2, 0.8]


def explicit_slack_value(A, b):
    """min sum(s) s.t. A x - s <= b, x in [0,1], s >= 0, as one LP."""
    m, n = A.shape
    c = np.concatenate([np.zeros(n), np.ones(m)])
    upper = np.concatenate([np.ones(n), np.full(m, np.inf)])
    sol = lp.solve_lp(lp.LPProblem(c, "min", np.hstack([A, -np.eye(m)]), b,
                                   np.zeros(n + m), upper))
    assert sol.status == lp.OPTIMAL
    return sol.objective_value


class TestMinViolation:
    def test_violating_a_row_without_artificial_is_cheaper(self):
        # 2x >= 2 starts violated and gets the artificial, x <= 0 does not;
        # phase one alone ends at x = 0 with violation 2, x = 1 violates by 1
        A, b = np.array([[-2.0], [1.0]]), np.array([-2.0, 0.0])
        state = lp.SimplexState(A, b, np.zeros(1), np.ones(1))
        assert state.ensure_feasible() == lp.INFEASIBLE
        assert state.min_violation() == pytest.approx(1.0, abs=1e-12)
        assert state.point() == pytest.approx([1.0], abs=1e-12)

    @pytest.mark.parametrize("phase_one_first", [True, False])
    def test_matches_the_explicit_slack_lp(self, phase_one_first):
        rng = np.random.default_rng(5)
        for trial in range(60):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 6))
            # rows of unequal scale, so violating some rows is cheaper than others
            A = rng.uniform(-2, 2, size=(m, n)) * rng.uniform(0.1, 5.0, size=(m, 1))
            b = rng.uniform(-1.5, 1.0, size=m)
            state = lp.SimplexState(A, b, np.zeros(n), np.ones(n))
            if phase_one_first:
                state.ensure_feasible()
            value = state.min_violation()
            assert value == pytest.approx(explicit_slack_value(A, b), abs=1e-9)
            # point() is a minimizer: its own violation is the value
            x = state.point()
            assert np.all((x >= -1e-12) & (x <= 1.0 + 1e-12))
            assert float(np.maximum(A @ x - b, 0.0).sum()) == pytest.approx(value, abs=1e-9)

    def test_minimize_refuses_afterwards(self):
        A, b = np.array([[1.0, 1.0]]), np.array([0.5])
        state = lp.SimplexState(A, b, np.zeros(2), np.ones(2))
        assert state.ensure_feasible() == lp.OPTIMAL
        state.snapshot()
        assert state.min_violation() == 0.0
        state.restore()
        assert state.minimize(np.array([1.0, 0.0])).status == lp.INFEASIBLE


class TestValidation:
    def test_dimension_mismatch(self):
        p = lp.LPProblem(np.array([1.0]), "min", np.zeros((1, 2)), np.zeros(1),
                         np.zeros(1), np.ones(1))
        with pytest.raises(StructuralError):
            lp.solve_lp(p)

    def test_crossed_bounds(self):
        p = box_problem([1.0], "min", [], [1.0], [0.0])
        with pytest.raises(StructuralError):
            lp.solve_lp(p)

    def test_bad_sense(self):
        p = box_problem([1.0], "argmin", [], [0.0], [1.0])
        with pytest.raises(StructuralError):
            lp.solve_lp(p)

    def test_free_variable_rejected(self):
        with pytest.raises(StructuralError):
            lp.SimplexState(np.zeros((0, 1)), np.zeros(0), np.array([-np.inf]),
                            np.array([np.inf]))


class TestAgainstVertexEnumeration:
    def test_random_small_lps(self):
        rng = np.random.default_rng(42)
        checked = 0
        for trial in range(120):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(0, 7))
            A = rng.uniform(-2, 2, size=(m, n))
            b = rng.uniform(-1, 2, size=m)
            lower = np.zeros(n)
            upper = np.ones(n)
            c = rng.uniform(-2, 2, size=n)
            p = lp.LPProblem(c, "min", A, b, lower, upper)
            sol = lp.solve_lp(p)
            verts = enumerate_vertices(A, b, lower, upper)
            if not verts:
                assert sol.status == lp.INFEASIBLE
                continue
            best = min(float(c @ v) for v in verts)
            assert sol.status == lp.OPTIMAL
            assert sol.objective_value == pytest.approx(best, abs=1e-7)
            checked += 1
        assert checked > 60

    def test_feasibility_certificate(self):
        rng = np.random.default_rng(43)
        for trial in range(60):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 8))
            A = rng.uniform(-2, 2, size=(m, n))
            b = rng.uniform(-0.5, 2, size=m)
            c = rng.uniform(-2, 2, size=n)
            sol = lp.solve_lp(lp.LPProblem(c, "min", A, b, np.zeros(n), np.ones(n)))
            if sol.status != lp.OPTIMAL:
                continue
            assert np.all(A @ sol.x <= b + 1e-7)
            assert np.all(sol.x >= -1e-9) and np.all(sol.x <= 1 + 1e-9)


class TestDeterminismAndBatches:
    def test_repeat_solves_identical(self):
        rng = np.random.default_rng(9)
        A = rng.uniform(-1, 1, size=(5, 4))
        b = rng.uniform(0, 1, size=5)
        c = rng.uniform(-1, 1, size=4)
        p = lp.LPProblem(c, "min", A, b, np.zeros(4), np.ones(4))
        s1, s2 = lp.solve_lp(p), lp.solve_lp(p)
        assert s1.status == s2.status
        assert s1.objective_value == s2.objective_value
        assert np.array_equal(s1.x, s2.x)

    def test_solve_many_matches_individual(self):
        rng = np.random.default_rng(10)
        for trial in range(25):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(0, 6))
            A = rng.uniform(-2, 2, size=(m, n))
            b = rng.uniform(-0.5, 1.5, size=m)
            objs = []
            for i in range(n):
                e = np.zeros(n)
                e[i] = 1.0
                objs.append((e, "min"))
                objs.append((e, "max"))
            batch = lp.solve_many(A, b, np.zeros(n), np.ones(n), objs)
            for (c, sense), got in zip(objs, batch):
                single = lp.solve_lp(lp.LPProblem(c, sense, A, b, np.zeros(n), np.ones(n)))
                assert got.status == single.status
                if got.status == lp.OPTIMAL:
                    assert got.objective_value == pytest.approx(
                        single.objective_value, abs=1e-9)

    def test_batch_on_infeasible_region(self):
        A = np.array([[1.0], [-1.0]])
        b = np.array([0.0, -1.0])
        sols = lp.solve_many(A, b, np.zeros(1), np.ones(1),
                             [(np.array([1.0]), "min"), (np.array([1.0]), "max")])
        assert all(s.status == lp.INFEASIBLE for s in sols)

    def test_classic_cycling_instance_terminates(self):
        # textbook degenerate instance that cycles under naive pivoting
        A = [([0.25, -60.0, -0.04, 9.0], 0.0),
             ([0.5, -90.0, -0.02, 3.0], 0.0)]
        p = lp.LPProblem.of([-0.75, 150.0, -0.02, 6.0], "min", A,
                            [0.0, 0.0, 0.0, 0.0], [np.inf, np.inf, 1.0, np.inf])
        sol = lp.solve_lp(p)
        assert sol.status == lp.OPTIMAL
        assert sol.objective_value == pytest.approx(-0.05, abs=1e-9)

    def test_iteration_cap_reports_stall(self, monkeypatch):
        rng = np.random.default_rng(12)
        A = rng.uniform(-1, 1, size=(6, 5))
        b = rng.uniform(0.5, 1.5, size=6)
        c = rng.uniform(-2, -1, size=5)
        monkeypatch.setattr(lp, "DEFAULT_MAX_ITER", 1)
        state = lp.SimplexState(A, b, np.zeros(5), np.ones(5))
        sol = state.minimize(c)
        assert sol.status in (lp.STALLED, lp.OPTIMAL)
        # with one iteration allowed this objective cannot finish
        assert sol.status == lp.STALLED


def test_sparse_pivot_matches_dense_update():
    rng = np.random.default_rng(17)
    for trial in range(20):
        m, n = int(rng.integers(2, 12)), int(rng.integers(1, 8))
        state = lp.SimplexState(rng.uniform(-2, 2, size=(m, n)), rng.uniform(-1, 2, size=m),
                                np.zeros(n), np.ones(n))
        q = int(rng.integers(n))
        r = int(rng.integers(m))
        # a sparse entering column: zero in about half of the other rows
        state.T[rng.random(m) < 0.5, q] = 0.0
        state.T[r, q] = rng.uniform(0.5, 2.0)
        T, z = state.T.copy(), rng.uniform(-1, 1, size=state.N)
        row = T[r] / T[r, q]
        col = T[:, q].copy()
        col[r] = 0.0
        dense = T - np.outer(col, row)
        dense[r] = row
        got_z = z.copy()
        state._pivot(r, q, got_z, 0.25)
        assert np.array_equal(state.T, dense)
        assert np.array_equal(got_z, z - z[q] * row)
        assert state.basis[r] == q and state.rhsv[r] == 0.25
