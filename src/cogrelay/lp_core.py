"""Small dense linear-program solver.

Bounded-variable primal simplex, two phases, Bland's rule throughout so
every solve is deterministic and cycle free.  Built for the policy
problems in this package: a few dozen variables, equality rows from
balance equations, inequality rows from probability budgets, and box
bounds on everything.  The simplex is the revised one: it keeps the
inverse of the basis matrix, dense, updates it by one rank-one (eta)
step per pivot and computes it afresh every ``_REFACTOR`` updates, so a
pivot costs a few matrix-vector products; no sparse machinery, no
external solver.

``solve`` always starts cold.  ``solve_family`` solves a sequence of
problems that differ only in their equality rows: it carries the last
optimal basis along and tests it on a whole block of members with
stacked linear algebra.  Where that basis stops being optimal it takes
one dual simplex pivot from it, and keeps the new basis when that basis
is certified as the unique optimal one; only the first member and the
members where that certificate fails pay for a cold two-phase solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["LpProblem", "LpSolution", "solve", "solve_family", "verify"]

_AT_LO, _AT_UP, _BASIC = 0, 1, 2

_PIVOT_TOL = 1e-9
_COST_TOL = 1e-9
_FEAS_TOL = 1e-8
_REFACTOR = 32  # eta updates of the basis inverse between fresh inverses
_MARGIN = 1e-7  # distance from degeneracy that certifies a one-pivot basis


@dataclass(frozen=True)
class LpProblem:
    """maximize objective @ x  s.t.  A_eq x = b_eq, A_ub x <= b_ub, bounds.

    ``eq_constraints`` and ``ineq_constraints`` are (matrix, rhs) pairs;
    either may be empty.  ``bounds`` is one (lo, hi) pair per variable,
    with ``inf`` allowed on the upper side.  Every variable needs a
    finite lower or upper bound (no free variables).
    """

    objective: np.ndarray
    eq_constraints: Tuple[np.ndarray, np.ndarray]
    ineq_constraints: Tuple[np.ndarray, np.ndarray]
    bounds: Tuple[Tuple[float, float], ...]

    def __init__(self, objective, eq_constraints=None, ineq_constraints=None,
                 bounds=None):
        c = np.asarray(objective, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("objective: need a nonempty 1-d coefficient vector")
        n = c.size

        def norm(pair, name):
            if pair is None:
                return np.zeros((0, n)), np.zeros(0)
            a, b = pair
            a = np.asarray(a, dtype=float).reshape(-1, n)
            b = np.asarray(b, dtype=float).reshape(-1)
            if a.shape[0] != b.shape[0]:
                raise ValueError(f"{name}: matrix rows and rhs length differ")
            return a, b

        eq = norm(eq_constraints, "eq_constraints")
        ub = norm(ineq_constraints, "ineq_constraints")
        if bounds is None:
            bounds = ((0.0, np.inf),) * n
        bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        if len(bounds) != n:
            raise ValueError("bounds: need one (lo, hi) pair per variable")
        for j, (lo, hi) in enumerate(bounds):
            if lo > hi:
                raise ValueError(f"bounds: entry {j} has lo > hi")
            if not (np.isfinite(lo) or np.isfinite(hi)):
                raise ValueError(f"bounds: entry {j} is free; unsupported")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_constraints", eq)
        object.__setattr__(self, "ineq_constraints", ub)
        object.__setattr__(self, "bounds", bounds)

    @property
    def n_vars(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    values: Optional[np.ndarray]
    objective_value: Optional[float]
    # final (basic column per row, status per real or slack column),
    # which ``solve_family`` carries to the next member; None unless
    # optimal.  A leftover artificial, pinned at zero, may stay in it
    basis: Optional[Tuple[np.ndarray, np.ndarray]] = None
    # simplex steps (bound flips included) of (phase one, phase two);
    # phase one also counts the pivots that move leftover artificials
    # out, and a problem with no rows counts only bound flips.  (0, 0)
    # for a family member solved by the carried basis, (0, 1) for one
    # solved by the certified basis one pivot from it
    pivots: Tuple[int, int] = (0, 0)


def _simplex(a, b, cost, lo, up, basis, status, allowed, inverse):
    """Run primal simplex to optimality on the current phase.

    ``basis`` holds one column index per row; ``status`` marks every
    column lower-bound, upper-bound or basic; ``allowed`` masks columns
    permitted to enter (artificials are barred in phase two);
    ``inverse`` is the inverse of the basis matrix ``a[:, basis]`` with
    its count of updates (see ``_replace_column``).  Mutates
    basis/status in place and returns the final basic values, or None
    when the phase is unbounded, with the number of steps taken and the
    inverse of the final basis.
    """
    # the move each column may make to enter: rise from its lower bound
    # (+1), fall from its upper bound (-1) or none (0: basic, or barred)
    sign = np.where(status == _AT_LO, 1.0, -1.0) * (allowed
                                                    & (status != _BASIC))
    xv = np.where(status == _AT_UP, up, lo)  # nonbasic values, basic at 0
    xv[basis] = 0.0
    for steps_taken in range(50000):
        binv = inverse[0]
        x_basic = binv @ (b - a @ xv)
        reduced = cost - (cost[basis] @ binv) @ a

        # Bland: smallest eligible index, so ties can never cycle
        eligible = sign * reduced < -_COST_TOL
        entering = int(np.argmax(eligible))
        if not eligible[entering]:
            return x_basic, steps_taken, inverse
        direction = sign[entering]

        column = binv @ a[:, entering]
        block = _ratio_test(column, direction, x_basic, lo, up, basis,
                            entering)
        if block is None:
            return None, steps_taken, inverse  # nothing blocks: unbounded ray
        row, falls = block
        if row is None:
            # entering variable runs to its other bound, basis unchanged
            status[entering] = _AT_UP if direction > 0 else _AT_LO
            xv[entering] = up[entering] if direction > 0 else lo[entering]
            sign[entering] = -direction
            continue
        leaving = basis[row]
        status[leaving] = _AT_LO if falls else _AT_UP
        xv[leaving] = lo[leaving] if falls else up[leaving]
        sign[leaving] = allowed[leaving] * (1.0 if falls else -1.0)
        basis[row] = entering
        status[entering] = _BASIC
        xv[entering] = sign[entering] = 0.0
        inverse = _replace_column(a, basis, inverse, column, row)
    raise RuntimeError("simplex iteration limit hit; problem is ill posed")


def _ratio_test(column, direction, x_basic, lo, up, basis, entering):
    """Bland's ratio test for ``entering`` leaving its bound in ``direction``.

    ``column`` is the basis inverse times the entering column.  Returns
    (row, falls): the row whose basic variable leaves the basis and
    whether it leaves at its lower bound, or (None, None) when the
    entering variable reaches its own other bound first.  Returns None
    when nothing blocks (an unbounded ray).
    """
    # candidate steps: basic variables driven to a finite bound, plus
    # the entering variable running to its own other bound
    falls = column * direction > _PIVOT_TOL
    room = np.where(falls, x_basic - lo[basis], up[basis] - x_basic)
    size = np.abs(column)
    steps = np.divide(np.maximum(room, 0.0), size,
                      out=np.full(size.size, np.inf),
                      where=size > _PIVOT_TOL)
    span = up[entering] - lo[entering]
    reach = min(steps.min(initial=np.inf), span) + 1e-12
    if reach == np.inf:
        return None
    # among (near-)blocking candidates pick the smallest variable index,
    # again Bland
    near = np.flatnonzero(steps <= reach)
    if span <= reach and (near.size == 0 or entering < basis[near].min()):
        return None, None
    row = int(near[np.argmin(basis[near])])
    return row, bool(falls[row])


def _replace_column(a, basis, inverse, column, row):
    """The basis inverse once ``basis[row]`` holds a new column.

    ``inverse`` is (inverse of the old basis, updates since it was last
    computed afresh) and ``column`` the old inverse times the new
    column.  The new inverse is the product-form (eta) update of the
    old one, rank one on the pivot row; after ``_REFACTOR`` updates it
    is computed afresh instead, so rounding cannot pile up.
    """
    binv, updates = inverse
    if updates == _REFACTOR:
        return np.linalg.inv(a[:, basis]), 0
    pivot = binv[row] / column[row]
    binv -= column[:, None] * pivot
    binv[row] = pivot
    return binv, updates + 1


def solve(problem: LpProblem) -> LpSolution:
    """Two-phase solve from a cold start.  Deterministic for identical inputs.

    Raises RuntimeError when the problem is numerically degenerate (a
    singular basis, or a final basis that violates the constraints).
    """
    try:
        return _solve(problem)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("singular basis; problem is numerically "
                           "degenerate") from exc


def _standard_form(a_eq, b_eq, a_ub, b_ub, bounds):
    """Rows, right-hand side, column bounds and cold column statuses.

    Columns are the real variables, one slack per inequality row, then
    one artificial per row, signed so that it starts nonnegative.  The
    equality rows may carry a leading axis of members that share the
    inequality rows and bounds; ``a`` and ``b`` then carry it too.
    """
    n, m_eq, m_ub = a_eq.shape[-1], a_eq.shape[-2], a_ub.shape[0]
    m = m_eq + m_ub
    n_real = n + m_ub
    a = np.zeros(a_eq.shape[:-2] + (m, n_real + m))
    a[..., :m_eq, :n] = a_eq
    a[..., m_eq:, :n] = a_ub
    a[..., m_eq:, n:n_real] = np.eye(m_ub)
    b = np.concatenate([b_eq, np.broadcast_to(b_ub, b_eq.shape[:-1] + (m_ub,))],
                       axis=-1)

    lo = np.zeros(n_real + m)
    up = np.full(n_real + m, np.inf)
    for j, (l, h) in enumerate(bounds):
        lo[j], up[j] = l, h
    status = np.full(n_real + m, _AT_LO, dtype=np.int8)
    status[:n_real][~np.isfinite(lo[:n_real])] = _AT_UP

    xv = np.where(status[:n_real] == _AT_UP, up[:n_real], lo[:n_real])
    resid = b - a[..., :n_real] @ xv
    a[..., range(m), range(n_real, n_real + m)] = np.where(resid >= 0.0,
                                                           1.0, -1.0)
    return a, b, lo, up, status, n_real


def _solve(problem):
    a_eq, b_eq = problem.eq_constraints
    a_ub, b_ub = problem.ineq_constraints
    m = a_eq.shape[0] + a_ub.shape[0]
    a, b, lo, up, status, n_real = _standard_form(a_eq, b_eq, a_ub, b_ub,
                                                  problem.bounds)
    basis = np.arange(n_real, n_real + m)
    status[basis] = _BASIC
    allowed = np.ones(n_real + m, dtype=bool)

    phase1_cost = np.zeros(n_real + m)
    phase1_cost[n_real:] = 1.0
    x_basic, phase_one, inverse = _simplex(a, b, phase1_cost, lo, up, basis,
                                           status, allowed,
                                           (np.linalg.inv(a[:, basis]), 0))
    if x_basic is None:
        raise RuntimeError("phase one cannot be unbounded")
    art_total = sum(x_basic[i] for i in range(m) if basis[i] >= n_real)
    if art_total > _FEAS_TOL:
        return LpSolution(status="infeasible", values=None, objective_value=None,
                          pivots=(phase_one, 0))

    # pivot leftover artificials out where a solid column exists; pick
    # the largest pivot (row i of the basis inverse times the real
    # columns), and refuse near-singular ones outright (a 1e-9-scale
    # pivot would poison every later update), in which case the
    # artificial stays basic, pinned to zero
    for i in range(m):
        if basis[i] < n_real:
            continue
        binv = inverse[0]
        row = np.where(status[:n_real] == _BASIC, 0.0,
                       np.abs(binv[i] @ a[:, :n_real]))
        pick = int(np.argmax(row))
        if row[pick] > 1e-7:
            status[basis[i]] = _AT_LO
            basis[i] = pick
            status[pick] = _BASIC
            inverse = _replace_column(a, basis, inverse, binv @ a[:, pick], i)
            phase_one += 1
    lo[n_real:] = 0.0
    up[n_real:] = 0.0
    allowed[n_real:] = False

    x_basic, phase_two, _ = _simplex(
        a, b, _phase_two_cost(problem.objective, n_real + m), lo, up, basis,
        status, allowed, inverse)
    pivots = (phase_one, phase_two)
    if x_basic is None:
        return LpSolution(status="unbounded", values=None, objective_value=None,
                          pivots=pivots)
    x = np.where(status == _AT_UP, up, lo)
    x[~np.isfinite(x)] = 0.0
    x[basis] = x_basic
    values = x[:problem.n_vars].copy()
    # a degenerate basis must fail loudly rather than masquerade as an
    # optimal vertex
    if max(_residuals(problem, values)) > 1e-6:
        raise RuntimeError("solve produced an infeasible basis; "
                           "problem is numerically degenerate")
    return LpSolution(status="optimal", values=values,
                      objective_value=float(problem.objective @ values),
                      basis=(basis.copy(), status[:n_real].copy()),
                      pivots=pivots)


def _phase_two_cost(objective, width):
    cost = np.zeros(width)
    cost[:objective.size] = -objective  # maximize via negated minimize
    return cost


def solve_family(objective, eq_blocks, ineq_constraints=None, bounds=None):
    """Solve, in order, problems that differ only in their equality rows.

    ``eq_blocks`` yields blocks of members as stacks (a_eq of shape
    (k, m_eq, n), b_eq of shape (k, m_eq)); the objective, inequality
    rows and bounds are shared, as in ``LpProblem``.  Yields one entry
    per member: its solution, or the RuntimeError its ``solve`` raised.

    One loop over each block's members tries three things in order.
    First, the last optimal basis is tested on the rest of the block at
    once (``_basis_run``): a member where its basic values lie within
    bounds, no column may enter and the rows hold within 1e-6 is solved
    by that basis, and gets its solution with ``pivots`` (0, 0).  At the
    first member that fails the test, where basic values left their
    bounds and no column may enter, one dual simplex pivot is taken from
    that basis (``_one_pivot``).  The new basis solves the member, with
    ``pivots`` (0, 1), when it passes the same test and is strictly
    nondegenerate there: every basic value and every nonbasic reduced
    cost of a real column lies at least ``_MARGIN`` from its bound or
    from zero; it is then tested on the members after it in turn.  Such
    a basis is the unique optimal one: the basic values strictly inside
    their bounds make the dual solution unique, the reduced costs
    strictly of one sign make the optimal point unique, and a point with
    as many values strictly inside their bounds as there are rows has
    those columns for its only basis.  The cold Bland solve therefore
    stops at the same basis, with the same statuses; ``_MARGIN`` lies
    far above the simplex's 1e-8 and 1e-9 tolerances, so near-ties
    cannot tip it elsewhere.  Any other member gets a cold ``solve``:
    the first one, one whose basis holds an artificial or is singular
    there, one where a column may enter, and one where the pivot finds
    no certified basis.  The basis of the last member solved, cold or
    not, is carried on.  So along a family whose optimal basis moves one
    column at a time, only the first member pays for a two-phase solve.
    The caller's block size bounds the stacked arrays.
    """
    shared = LpProblem(objective, None, ineq_constraints, bounds)
    basis = None
    for a_eq, b_eq in eq_blocks:
        a_eq = np.asarray(a_eq, dtype=float)
        b_eq = np.asarray(b_eq, dtype=float)
        k, start, pivoted = 0, basis, False
        while k < b_eq.shape[0]:
            if start is not None:
                # the carried basis, then each certified pivot from it
                run, start = _basis_run(shared, a_eq[k:], b_eq[k:], start,
                                        pivoted)
                yield from run
                k += len(run)
                basis = run[-1].basis if run else basis
                pivoted = True
                continue
            problem = LpProblem(shared.objective, (a_eq[k], b_eq[k]),
                                shared.ineq_constraints, shared.bounds)
            try:
                solution = solve(problem)
            except RuntimeError as exc:
                # without its traceback the error holds no frame of
                # this generator alive
                yield exc.with_traceback(None)
            else:
                yield solution
                basis = solution.basis if solution.basis is not None else basis
            k += 1
            start, pivoted = basis, False


def _basis_run(shared, a_eq, b_eq, start, pivoted):
    """Solutions of the leading members that ``start`` solves, and a pivot.

    The test is the arithmetic of a phase two started from ``start``:
    the basic values lie within their bounds, the first iteration of
    ``_simplex`` finds no eligible column, and the cold solve's residual
    test passes.  Stacked ``np.linalg.solve`` and matmul run the same
    LAPACK and BLAS calls per member as the single ones, so every number
    agrees bit for bit with the test of one member.  Where ``start`` is
    singular at some member of the stack, the members are tested one at
    a time, so the test stops at the singular member.

    With ``pivoted``, ``start`` is one pivot from a basis that failed
    the first member: that member must also pass the strict
    nondegeneracy test of ``solve_family``, and reports ``pivots``
    (0, 1).  The second value returned is the basis one dual pivot from
    ``start`` at the member where the test stops (``_one_pivot``); it is
    None where ``start`` is singular there, holds an artificial, or was
    itself reached by a pivot at that member.
    """
    a_ub, b_ub = shared.ineq_constraints
    n = shared.n_vars
    a, b, lo, up, status, n_real = _standard_form(a_eq, b_eq, a_ub, b_ub,
                                                  shared.bounds)
    rows, real_status = start
    status[:n_real] = real_status  # artificials stay at zero
    up[n_real:] = 0.0
    cost = _phase_two_cost(shared.objective, up.size)
    xv = np.where(status == _AT_UP, up, lo)
    xv[rows] = 0.0
    bmat = a[..., rows]
    try:
        x_basic = np.linalg.solve(bmat, (b - a @ xv)[..., None])[..., 0]
        y = np.linalg.solve(np.swapaxes(bmat, -1, -2),
                            np.broadcast_to(cost[rows], x_basic.shape)[..., None])
    except np.linalg.LinAlgError:
        if b.shape[0] == 1:
            return [], None
        solutions = []
        for k in range(b.shape[0]):
            run, moved = _basis_run(shared, a_eq[k:k + 1], b_eq[k:k + 1],
                                    start, pivoted and k == 0)
            solutions += run
            if not run:
                break
        return solutions, moved
    reduced = cost - (np.swapaxes(y, -1, -2) @ a)[:, 0, :]
    eligible = (status[:n_real] == _AT_LO) & (reduced[:, :n_real] < -_COST_TOL)
    eligible |= (status[:n_real] == _AT_UP) & (reduced[:, :n_real] > _COST_TOL)
    x = np.where(status == _AT_UP, up, lo)
    x[~np.isfinite(x)] = 0.0
    x = np.repeat(x[None, :n], b.shape[0], axis=0)
    in_values = rows < n
    x[:, rows[in_values]] = x_basic[:, in_values]
    lo_x, hi_x = np.array(shared.bounds).T
    residual = np.maximum.reduce([
        np.max(np.abs((a_eq @ x[..., None])[..., 0] - b_eq), axis=1, initial=0.0),
        np.max((a_ub @ x[..., None])[..., 0] - b_ub, axis=1, initial=0.0),
        np.max(np.concatenate((lo_x - x, x - hi_x), axis=1), axis=1, initial=0.0)])
    ok = (np.all(x_basic >= lo[rows] - _FEAS_TOL, axis=1)
          & np.all(x_basic <= up[rows] + _FEAS_TOL, axis=1)
          & ~eligible.any(axis=1) & ~(residual > 1e-6))
    if pivoted:
        # reduced costs signed so that optimal is positive; basic at +inf
        slack = np.where(real_status == _AT_UP, -1.0, 1.0) * reduced[0, :n_real]
        slack[real_status == _BASIC] = np.inf
        ok[0] &= (min(slack.min(), (x_basic[0] - lo[rows]).min(),
                      (up[rows] - x_basic[0]).min()) >= _MARGIN)
    count = int(np.argmin(ok)) if not ok.all() else ok.size
    solutions = [LpSolution(status="optimal", values=values,
                            objective_value=float(shared.objective @ values),
                            basis=start, pivots=(0, int(pivoted and k == 0)))
                 for k, values in enumerate(x[:count])]
    if count == ok.size or (pivoted and count == 0) or rows.max() >= n_real:
        return solutions, None
    return solutions, _one_pivot(a[count], lo, up, rows, real_status,
                                 x_basic[count], reduced[count])


def _one_pivot(a, lo, up, rows, real_status, x_basic, reduced):
    """The basis one dual simplex pivot away from (rows, real_status), or None.

    ``x_basic`` and ``reduced`` are the basic values and reduced costs
    of that basis (no artificial among its rows) on the rows ``a``.
    The pivot is the textbook dual simplex step (Bertsimas & Tsitsiklis
    1997, ch. 4), taken where basic values left their bounds and no real
    column may enter: the smallest basic index out of bounds leaves, at
    the bound it crossed, and the column with the smallest ratio of
    reduced cost to pivot entry enters, ties to the smallest index.
    None where a column may enter, where every basic value is within
    bounds, and where no column can enter.  Returns (rows, statuses of
    the real columns), new arrays.
    """
    n_real = real_status.size
    sign = np.where(real_status == _AT_LO, 1.0, -1.0) * (real_status != _BASIC)
    below = x_basic < lo[rows] - _FEAS_TOL
    out = below | (x_basic > up[rows] + _FEAS_TOL)
    if (sign * reduced[:n_real] < -_COST_TOL).any() or not out.any():
        return None
    row = int(np.flatnonzero(out)[np.argmin(rows[out])])
    falls = bool(below[row])
    # entries of the leaving row; a column enters when moving it off its
    # bound pushes the leaving value back toward the bound crossed
    alpha = np.linalg.inv(a[:, rows])[row] @ a[:, :n_real]
    moves = sign * alpha * (1.0 if falls else -1.0) < -_PIVOT_TOL
    if not moves.any():
        return None
    ratio = np.divide(np.maximum(sign * reduced[:n_real], 0.0),
                      np.abs(alpha), out=np.full(n_real, np.inf),
                      where=moves)
    entering = int(np.argmax(ratio <= ratio.min() + 1e-12))
    rows, real = rows.copy(), real_status.copy()
    real[rows[row]] = _AT_LO if falls else _AT_UP
    rows[row] = entering
    real[entering] = _BASIC
    return rows, real


def _residuals(problem, x):
    """Largest equality, inequality and bound violations of ``x``, each >= 0."""
    a_eq, b_eq = problem.eq_constraints
    a_ub, b_ub = problem.ineq_constraints
    lo, hi = np.array(problem.bounds).T
    return (float(np.max(np.abs(a_eq @ x - b_eq), initial=0.0)),
            float(np.max(a_ub @ x - b_ub, initial=0.0)),
            float(np.max(np.concatenate((lo - x, x - hi)), initial=0.0)))


def verify(problem: LpProblem, solution: LpSolution) -> dict:
    """Residual report for a claimed optimal solution.

    Returns the largest equality violation, inequality violation and
    bound violation, plus the gap between the stored objective value
    and the objective recomputed from the values.  ``ok`` summarizes
    whether everything sits within the solver's feasibility tolerance.
    """
    if solution.status != "optimal" or solution.values is None:
        return {"ok": False, "status": solution.status}
    x = solution.values
    eq_violation, ineq_violation, bound_violation = _residuals(problem, x)
    objective_gap = abs(float(problem.objective @ x) - solution.objective_value)
    ok = (eq_violation <= _FEAS_TOL and ineq_violation <= _FEAS_TOL
          and bound_violation <= _FEAS_TOL and objective_gap <= _FEAS_TOL)
    return {
        "ok": bool(ok),
        "status": solution.status,
        "max_eq_violation": eq_violation,
        "max_ineq_violation": ineq_violation,
        "max_bound_violation": bound_violation,
        "objective_gap": objective_gap,
    }
