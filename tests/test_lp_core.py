import dataclasses
import math

import numpy as np
import pytest

from cogrelay import lp_core
from cogrelay.lp_core import LpProblem

from _oracles import (brute_force_lp, carried_basis_solution,
                      one_pivot_solution)


def box(n, lo=0.0, up=1.0):
    return tuple((lo, up) for _ in range(n))


def no_rows(n):
    return ((), ())


def test_pure_box_maximum():
    for bounds, values, objective in (
            (box(3), (1.0, 0.0, 1.0), 2.5),
            # a rising objective lifts a variable with no lower bound to
            # its top
            (((-np.inf, 2.0), (0.0, 1.0), (0.0, 1.0)), (2.0, 0.0, 1.0), 4.5),
            # a fixed variable sits on its one value whatever its cost
            (((0.5, 0.5), (0.25, 0.25), (0.0, 1.0)), (0.5, 0.25, 1.0), 1.25)):
        p = LpProblem(objective=(2.0, -1.0, 0.5),
                      eq_constraints=no_rows(3), ineq_constraints=no_rows(3),
                      bounds=bounds)
        s = lp_core.solve(p)
        assert s.status == "optimal", bounds
        assert s.values == pytest.approx(values)
        assert s.objective_value == pytest.approx(objective)


def test_single_budget_row():
    p = LpProblem(objective=(1.0, 1.0),
                  eq_constraints=no_rows(2),
                  ineq_constraints=(((1.0, 1.0),), (1.0,)),
                  bounds=box(2))
    s = lp_core.solve(p)
    assert s.status == "optimal"
    assert s.objective_value == pytest.approx(1.0)
    assert sum(s.values) == pytest.approx(1.0)


def test_equality_pins_the_solution():
    p = LpProblem(objective=(3.0, 1.0),
                  eq_constraints=(((1.0, 2.0),), (1.0,)),
                  ineq_constraints=no_rows(2),
                  bounds=box(2))
    s = lp_core.solve(p)
    assert s.status == "optimal"
    # all weight on the cheap-to-satisfy variable with the big payoff
    assert s.values == pytest.approx((1.0, 0.0))


def test_infeasible_equalities():
    p = LpProblem(objective=(1.0, 1.0),
                  eq_constraints=(((1.0, 1.0), (1.0, 1.0)), (1.0, 2.0)),
                  ineq_constraints=no_rows(2),
                  bounds=box(2))
    assert lp_core.solve(p).status == "infeasible"


def test_bounds_alone_can_be_infeasible():
    p = LpProblem(objective=(1.0, 1.0),
                  eq_constraints=(((1.0, 1.0),), (3.0,)),
                  ineq_constraints=no_rows(2),
                  bounds=box(2))
    assert lp_core.solve(p).status == "infeasible"


def test_unbounded_ray_detected():
    p = LpProblem(objective=(1.0,),
                  eq_constraints=no_rows(1), ineq_constraints=no_rows(1),
                  bounds=((0.0, math.inf),))
    assert lp_core.solve(p).status == "unbounded"


def test_unbounded_with_constraint_present():
    p = LpProblem(objective=(1.0, 0.0),
                  eq_constraints=no_rows(2),
                  ineq_constraints=(((0.0, 1.0),), (0.5,)),
                  bounds=((0.0, math.inf), (0.0, 1.0)))
    assert lp_core.solve(p).status == "unbounded"


def test_free_variables_rejected():
    with pytest.raises(ValueError, match="bounds"):
        LpProblem(objective=(1.0,), eq_constraints=no_rows(1),
                  ineq_constraints=no_rows(1),
                  bounds=((-math.inf, math.inf),))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        LpProblem(objective=(1.0, 2.0),
                  eq_constraints=(((1.0,),), (1.0,)),
                  ineq_constraints=no_rows(2), bounds=box(2))
    with pytest.raises(ValueError):
        LpProblem(objective=(1.0,), eq_constraints=no_rows(1),
                  ineq_constraints=no_rows(1), bounds=((1.0, 0.0),))


def test_degenerate_rhs_on_tight_bounds():
    # equality forces a variable to its own upper bound exactly
    p = LpProblem(objective=(1.0, 1.0),
                  eq_constraints=(((1.0, 0.0),), (1.0,)),
                  ineq_constraints=(((0.0, 1.0),), (0.25,)),
                  bounds=box(2))
    s = lp_core.solve(p)
    assert s.status == "optimal"
    assert s.values == pytest.approx((1.0, 0.25))


def test_verify_reports_clean_residuals():
    p = LpProblem(objective=(1.0, 2.0),
                  eq_constraints=(((1.0, 1.0),), (1.0,)),
                  ineq_constraints=(((1.0, 0.0),), (0.75,)),
                  bounds=box(2))
    s = lp_core.solve(p)
    report = lp_core.verify(p, s)
    assert report["ok"]
    assert report["max_eq_violation"] <= 1e-9
    assert report["max_ineq_violation"] <= 1e-9
    assert report["max_bound_violation"] <= 1e-9


def test_solver_is_deterministic():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 4))
    x0 = rng.uniform(0.2, 0.8, 4)
    p = LpProblem(objective=tuple(rng.normal(size=4)),
                  eq_constraints=((tuple(a[0]),), (float(a[0] @ x0),)),
                  ineq_constraints=((tuple(a[1]),), (float(a[1] @ x0 + 0.1),)),
                  bounds=box(4))
    first = lp_core.solve(p)
    second = lp_core.solve(p)
    assert first.status == second.status
    assert np.array_equal(first.values, second.values)  # bitwise, not approx


def test_random_instances_match_enumeration():
    rng = np.random.default_rng(99)
    checked = {"optimal": 0, "infeasible": 0}
    for _ in range(40):
        n = int(rng.integers(2, 6))
        k_eq = int(rng.integers(0, min(3, n)))
        k_in = int(rng.integers(0, 4))
        x0 = rng.uniform(0.1, 0.9, n)
        a_eq = rng.normal(size=(k_eq, n))
        a_in = rng.normal(size=(k_in, n))
        b_eq = a_eq @ x0
        b_in = a_in @ x0 + rng.uniform(-0.6, 0.5, k_in)
        c = rng.normal(size=n)
        p = LpProblem(objective=tuple(c),
                      eq_constraints=(tuple(map(tuple, a_eq)), tuple(b_eq)),
                      ineq_constraints=(tuple(map(tuple, a_in)), tuple(b_in)),
                      bounds=box(n))
        s = lp_core.solve(p)
        ref, feasible = brute_force_lp(c, a_eq, b_eq, a_in, b_in,
                                       np.zeros(n), np.ones(n))
        if s.status == "optimal":
            assert feasible
            assert abs(s.objective_value - ref) <= 1e-8
        else:
            assert s.status == "infeasible"
            assert not feasible
        checked[s.status] += 1
    assert checked["optimal"] > 0 and checked["infeasible"] > 0


def test_near_parallel_rows_stay_consistent():
    # a thin feasible sliver: the two rows differ by 1e-9 in slope
    eps = 1e-9
    p = LpProblem(objective=(1.0, 0.0),
                  eq_constraints=(((1.0, 1.0), (1.0, 1.0 + eps)), (1.0, 1.0)),
                  ineq_constraints=no_rows(2),
                  bounds=box(2))
    s = lp_core.solve(p)
    if s.status == "optimal":
        x, y = s.values
        assert abs(x + y - 1.0) <= 1e-6


def _shifted_family(seed, count):
    """LPs that share a matrix and move one right-hand side a little."""
    rng = np.random.default_rng(seed)
    a_eq = rng.normal(size=(2, 6))
    a_in = rng.normal(size=(3, 6))
    x0 = rng.uniform(0.2, 0.8, 6)
    c = rng.normal(size=6)
    for shift in np.linspace(0.0, 0.2, count):
        b_eq = a_eq @ x0 + np.array([shift, 0.0])
        yield LpProblem(objective=c, eq_constraints=(a_eq, b_eq),
                        ineq_constraints=(a_in, a_in @ x0 + 0.1),
                        bounds=box(6))


def test_pivot_counts_on_a_hand_solved_lp():
    # maximize x1 + 2 x2 with x1 + x2 <= 1.5 on the unit box.  Phase one
    # (Bland) runs x1 to its upper bound, then pivots x2 in for the
    # artificial; phase two brings x1 down into the basis while x2 runs
    # to its upper bound: (2, 1)
    p = LpProblem(objective=(1.0, 2.0), eq_constraints=no_rows(2),
                  ineq_constraints=(((1.0, 1.0),), (1.5,)), bounds=box(2))
    cold = lp_core.solve(p)
    assert cold.values == pytest.approx((0.5, 1.0))
    assert cold.pivots == (2, 1)


def test_stacked_linear_algebra_matches_single_calls():
    # the family solve relies on stacked np.linalg.solve and matmul
    # running the same LAPACK/BLAS call per member as the single calls
    rng = np.random.default_rng(3)
    for m, n in ((3, 7), (13, 40), (43, 108)):
        mats = rng.normal(size=(32, m, m))
        wide = rng.normal(size=(32, m, n))
        vecs = rng.normal(size=(32, m))
        xv = rng.normal(size=n)
        x = np.linalg.solve(mats, vecs[..., None])[..., 0]
        y = np.linalg.solve(np.swapaxes(mats, -1, -2), vecs[..., None])
        product = wide @ xv
        row = (np.swapaxes(y, -1, -2) @ wide)[:, 0, :]
        column = (wide[..., :m] @ x[..., None])[..., 0]
        for k in range(32):
            assert np.array_equal(x[k], np.linalg.solve(mats[k], vecs[k]))
            assert np.array_equal(y[k, :, 0],
                                  np.linalg.solve(mats[k].T, vecs[k]))
            assert np.array_equal(product[k], wide[k] @ xv)
            assert np.array_equal(row[k], y[k, :, 0] @ wide[k])
            assert np.array_equal(column[k], wide[k, :, :m] @ x[k])


def _sequential(problems):
    # a member keeps the carried basis when that basis solves it, else
    # takes the certified basis one pivot from it, and otherwise gets a
    # cold solve
    out, basis = [], None
    for p in problems:
        sol = None if basis is None else (carried_basis_solution(p, basis)
                                          or one_pivot_solution(p, basis))
        try:
            sol = sol or lp_core.solve(p)
        except RuntimeError as exc:
            out.append(exc)
            continue
        out.append(sol)
        basis = sol.basis if sol.basis is not None else basis
    return out


def _solve_in_blocks(problems, size):
    stacked = [np.stack([p.eq_constraints[i] for p in problems])
               for i in (0, 1)]
    blocks = [(stacked[0][i:i + size], stacked[1][i:i + size])
              for i in range(0, len(problems), size)]
    p0 = problems[0]
    return list(lp_core.solve_family(p0.objective, blocks,
                                     p0.ineq_constraints, p0.bounds))


def _same(got, want):
    if isinstance(want, RuntimeError):
        return isinstance(got, RuntimeError) and str(got) == str(want)
    if got.values is None or want.values is None:
        same_values = got.values is None and want.values is None
    else:
        same_values = np.array_equal(got.values, want.values)
    same_basis = (got.basis is None) == (want.basis is None) and (
        got.basis is None or all(np.array_equal(g, w) for g, w
                                 in zip(got.basis, want.basis)))
    return (same_values and same_basis and got.status == want.status
            and repr(got.objective_value) == repr(want.objective_value)
            and got.pivots == want.pivots)


@pytest.mark.parametrize("size", [1, 3, 5, 16, 20, 40])
def test_family_matches_sequential_solves(size):
    problems = list(_shifted_family(11, 40))
    a_eq, b_eq = problems[0].eq_constraints
    # member 17 has a zero equality row, which makes the carried basis
    # singular; member 25 cannot meet its shifted right-hand side
    singular = problems[17].eq_constraints[0].copy()
    singular[1] = 0.0
    rhs = problems[17].eq_constraints[1].copy()
    rhs[1] = 0.0
    problems[17] = dataclasses.replace(problems[17],
                                       eq_constraints=(singular, rhs))
    shifted = problems[25].eq_constraints[1] + np.array([50.0, 0.0])
    problems[25] = dataclasses.replace(problems[25],
                                       eq_constraints=(a_eq, shifted))
    want = _sequential(problems)
    # member 17's optimal basis keeps an artificial, pinned at zero, in
    # its basis (columns 0-5 real, 6-8 slack, 9-13 artificial); it is
    # carried, but no pivot is taken from it
    assert want[17].status == "optimal" and want[17].basis[0].max() >= 9
    assert want[25].status == "infeasible"
    # certified runs cross block edges, and a stack that holds member 17
    # is tested one member at a time up to it, whatever the block size
    got = _solve_in_blocks(problems, size)
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert _same(g, w), k
    # most members ride on a carried basis without a pivot
    assert sum(1 for g in got if g.pivots == (0, 0)) >= 30


def test_family_solves_a_last_block_of_one_member():
    # 33 members in blocks of 16: the last block holds a single member,
    # which the carried basis solves
    problems = list(_shifted_family(5, 33))
    want = _sequential(problems)
    assert want[-1].pivots == (0, 0)
    got = _solve_in_blocks(problems, 16)
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert _same(g, w), k


def test_family_reports_a_degenerate_member(monkeypatch):
    # a member whose solve raises gets the RuntimeError in its place,
    # and the family goes on from the last basis
    problems = list(_shifted_family(11, 6))
    real = lp_core.solve
    calls = []

    def flaky(problem):
        calls.append(problem)
        if len(calls) == 2:
            raise RuntimeError("singular basis; problem is numerically "
                               "degenerate")
        return real(problem)

    monkeypatch.setattr(lp_core, "solve", flaky)
    a_eq = np.stack([p.eq_constraints[0] for p in problems])
    b_eq = np.stack([p.eq_constraints[1] for p in problems])
    p0 = problems[0]
    # the carried basis solves nothing, so every member is solved; the
    # bases it is tested with are recorded
    tested = []
    monkeypatch.setattr(lp_core, "_basis_run",
                        lambda *a: tested.append(a[-2]) or ([], None))
    got = list(lp_core.solve_family(p0.objective, [(a_eq, b_eq)],
                                    p0.ineq_constraints, p0.bounds))
    assert isinstance(got[1], RuntimeError)
    assert all(g.status == "optimal" for k, g in enumerate(got) if k != 1)
    assert len(calls) == 6
    # member 2 is tested with member 0's basis, as member 1 was
    assert tested[1] is tested[0] is got[0].basis


@pytest.mark.parametrize("slopes, rhs, seen", [
    # the basis {x1} stays feasible all along but stops being optimal
    # once t < 1, where x2 buys more objective per unit of the row; a
    # column may enter there, which takes no dual pivot, so that member
    # gets a cold solve
    (np.linspace(1.5, 0.6, 10), np.full(10, 0.5),
     lambda s: s.pivots != (0, 0)),
    # x1 = -5e-7 is out of bounds by more than the carried basis allows
    # but within the residual test's 1e-6; the solve finds no point
    (np.full(4, 2.0), np.array([0.5, 0.3, -5e-7, 0.4]),
     lambda s: s.status == "infeasible"),
])
def test_family_retests_every_condition_of_a_warm_solve(slopes, rhs, seen):
    # maximize x1 + x2 subject to x1 + t x2 = rhs on the unit box; the
    # carried basis is the warm start of the next member, and a member
    # it does not solve gets a cold solve
    problems = [LpProblem(objective=(1.0, 1.0),
                          eq_constraints=(((1.0, t),), (r,)),
                          ineq_constraints=no_rows(2), bounds=box(2))
                for t, r in zip(slopes, rhs)]
    sequential = _sequential(problems)
    assert any(seen(s) for s in sequential[1:])
    blocks = [(np.array([[[1.0, t]] for t in slopes]), rhs[:, None])]
    got = list(lp_core.solve_family((1.0, 1.0), blocks, bounds=box(2)))
    assert len(got) == len(sequential)
    for k, (g, w) in enumerate(zip(got, sequential)):
        assert _same(g, w), k


def _budget_family(objective, rhs):
    # maximize objective @ x subject to sum(x) = r on the unit box, one
    # member per right-hand side r
    n = len(objective)
    problems = [LpProblem(objective=objective,
                          eq_constraints=(((1.0,) * n,), (r,)),
                          ineq_constraints=no_rows(n), bounds=box(n))
                for r in rhs]
    return problems, _solve_in_blocks(problems, 16)


def _basis_set(basis):
    rows, real_status = basis
    return sorted(rows.tolist()), real_status.tolist()


def test_family_moves_the_basis_by_one_dual_pivot():
    # the budget fills x1 first, then x2; once r passes 1 the carried
    # basis {x1} holds x1 = r above its upper bound while no column may
    # enter, and one dual pivot trades x1 (to its upper bound) for x2
    problems, got = _budget_family((3.0, 2.0, 1.0), (0.5, 0.9, 1.3, 1.7))
    assert [g.pivots for g in got[1:]] == [(0, 0), (0, 1), (0, 0)]
    assert carried_basis_solution(problems[2], got[1].basis) is None
    cold = lp_core.solve(problems[2])
    assert sum(cold.pivots) > 1
    assert _basis_set(got[2].basis) == _basis_set(cold.basis)
    assert np.allclose(got[2].values, cold.values, rtol=0, atol=1e-12)
    assert got[2].values == pytest.approx((1.0, 0.3, 0.0), abs=1e-15)
    for k, (g, w) in enumerate(zip(got, _sequential(problems))):
        assert _same(g, w), k


def test_family_refuses_a_pivot_onto_a_tied_objective():
    # every split of the budget scores the same, so the basis one dual
    # pivot away has a zero reduced cost: it is optimal but not the
    # unique optimum, and the member gets a cold solve instead
    problems, got = _budget_family((1.0, 1.0, 1.0), (0.5, 0.9, 1.3, 1.7))
    assert carried_basis_solution(problems[2], got[1].basis) is None
    assert one_pivot_solution(problems[2], got[1].basis) is None
    assert one_pivot_solution(problems[2], got[1].basis, margin=0.0)
    assert got[2].pivots not in ((0, 0), (0, 1))
    want = _sequential(problems)
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert _same(g, w), k
