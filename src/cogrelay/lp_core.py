"""Small dense linear-program solver.

Bounded-variable primal simplex, two phases, Bland's rule throughout so
every solve is deterministic and cycle free.  Built for the policy
problems in this package: a few dozen variables, equality rows from
balance equations, inequality rows from probability budgets, and box
bounds on everything.  Dense numpy factorizations are plenty at that
size; no sparse machinery, no external solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["LpProblem", "LpSolution", "solve", "verify"]

_AT_LO, _AT_UP, _BASIC = 0, 1, 2

_PIVOT_TOL = 1e-9
_COST_TOL = 1e-9
_FEAS_TOL = 1e-8


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
    # for ``solve(..., start=...)``; None unless optimal with no
    # artificial left in the basis
    basis: Optional[Tuple[np.ndarray, np.ndarray]] = None


def _simplex(a, b, cost, lo, up, basis, status, allowed):
    """Run primal simplex to optimality on the current phase.

    ``basis`` holds one column index per row; ``status`` marks every
    column lower-bound, upper-bound or basic; ``allowed`` masks columns
    permitted to enter (artificials are barred in phase two).  Mutates
    basis/status in place and returns the final basic values, or None
    when the phase is unbounded.
    """
    for _ in range(50000):
        bmat = a[:, basis]
        xv = np.where(status == _AT_UP, up, lo)
        xv[basis] = 0.0
        x_basic = np.linalg.solve(bmat, b - a @ xv)
        y = np.linalg.solve(bmat.T, cost[basis])
        reduced = cost - y @ a

        # Bland: smallest eligible index, so ties can never cycle
        eligible = allowed & (((status == _AT_LO) & (reduced < -_COST_TOL))
                              | ((status == _AT_UP) & (reduced > _COST_TOL)))
        if not eligible.any():
            return x_basic
        entering = int(np.argmax(eligible))
        direction = 1 if status[entering] == _AT_LO else -1

        w = np.linalg.solve(bmat, a[:, entering]) * direction
        # candidate steps: basic variables driven to a finite bound, plus
        # the entering variable running to its own other bound (row -1)
        falls, rises = w > _PIVOT_TOL, w < -_PIVOT_TOL
        room = np.where(falls, x_basic - lo[basis], up[basis] - x_basic)
        rows = np.flatnonzero((falls | rises) & np.isfinite(room))
        steps = np.maximum(room[rows], 0.0) / np.abs(w[rows])
        variables = basis[rows]
        span = up[entering] - lo[entering]
        if np.isfinite(span):
            steps = np.append(steps, span)
            variables = np.append(variables, entering)
            rows = np.append(rows, -1)
        if steps.size == 0:
            return None  # nothing blocks the step: unbounded ray
        # among (near-)blocking candidates pick the smallest variable
        # index, again Bland
        blocking = np.flatnonzero(steps <= steps.min() + 1e-12)
        pick = blocking[np.argmin(variables[blocking])]
        var, row = int(variables[pick]), int(rows[pick])
        leave_status = _AT_LO if row >= 0 and falls[row] else _AT_UP
        if row < 0:
            # entering variable runs to its other bound, basis unchanged
            status[entering] = _AT_UP if direction > 0 else _AT_LO
            continue
        basis[row] = entering
        status[entering] = _BASIC
        status[var] = leave_status
    raise RuntimeError("simplex iteration limit hit; problem is ill posed")


def solve(problem: LpProblem, start=None) -> LpSolution:
    """Two-phase solve.  Deterministic for identical inputs.

    ``start`` is the ``basis`` of an earlier solution to a problem of
    the same shape.  When that basis is primal feasible here, phase
    one is skipped and phase two starts from it; otherwise, or when
    the warm phase two ends numerically degenerate, the solve runs
    cold.  Along a family of problems whose data move a little at a
    time, that cuts most of the pivots.  Raises RuntimeError when the
    problem is numerically degenerate (a singular basis, or a final
    basis that violates the constraints).
    """
    try:
        return _solve(problem, start)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("singular basis; problem is numerically "
                           "degenerate") from exc


def _solve(problem, start):
    a_eq, b_eq = problem.eq_constraints
    a_ub, b_ub = problem.ineq_constraints
    n = problem.n_vars
    m_eq, m_ub = a_eq.shape[0], a_ub.shape[0]
    m = m_eq + m_ub

    if m == 0:
        # pure box problem: optimize each coordinate independently
        x = np.empty(n)
        for j, (l, h) in enumerate(problem.bounds):
            cj = problem.objective[j]
            x[j] = h if cj > 0.0 else l if cj < 0.0 else (l if np.isfinite(l) else h)
            if not np.isfinite(x[j]):
                return LpSolution(status="unbounded", values=None,
                                  objective_value=None)
        return LpSolution(status="optimal", values=x,
                          objective_value=float(problem.objective @ x))

    # standard form: real variables, then one slack per inequality row
    a = np.zeros((m, n + m_ub + m))
    a[:m_eq, :n] = a_eq
    a[m_eq:, :n] = a_ub
    a[m_eq:, n:n + m_ub] = np.eye(m_ub)
    b = np.concatenate([b_eq, b_ub])
    n_real = n + m_ub

    lo = np.zeros(n_real + m)
    up = np.full(n_real + m, np.inf)
    for j, (l, h) in enumerate(problem.bounds):
        lo[j], up[j] = l, h

    status = np.full(n_real + m, _AT_LO, dtype=np.int8)
    for j in range(n_real):
        if not np.isfinite(lo[j]):
            status[j] = _AT_UP

    # artificial columns carry the sign of the start residual so their
    # values begin nonnegative
    xv = np.where(status[:n_real] == _AT_UP, up[:n_real], lo[:n_real])
    resid = b - a[:, :n_real] @ xv
    for i in range(m):
        a[i, n_real + i] = 1.0 if resid[i] >= 0.0 else -1.0

    phase2_cost = np.zeros(n_real + m)
    phase2_cost[:n] = -problem.objective  # maximize via negated minimize

    if start is not None:
        warm = _warm_basis(a, b, lo, up, start, n_real)
        if warm is not None:
            basis, warm_status = warm
            up_w = up.copy()
            up_w[n_real:] = 0.0
            allowed = np.ones(n_real + m, dtype=bool)
            allowed[n_real:] = False
            solution = _phase_two(problem, a, b, phase2_cost, lo, up_w,
                                  basis, warm_status, allowed, n_real)
            if solution is not None:
                return solution

    basis = np.arange(n_real, n_real + m)
    status[basis] = _BASIC
    allowed = np.ones(n_real + m, dtype=bool)

    phase1_cost = np.zeros(n_real + m)
    phase1_cost[n_real:] = 1.0
    x_basic = _simplex(a, b, phase1_cost, lo, up, basis, status, allowed)
    if x_basic is None:
        raise RuntimeError("phase one cannot be unbounded")
    art_total = sum(x_basic[i] for i in range(m) if basis[i] >= n_real)
    if art_total > _FEAS_TOL:
        return LpSolution(status="infeasible", values=None, objective_value=None)

    # pivot leftover artificials out where a solid column exists; pick
    # the largest pivot, and refuse near-singular ones outright (a
    # 1e-9-scale pivot would poison every later factorization), in
    # which case the artificial stays basic, pinned to zero
    for i in range(m):
        if basis[i] < n_real:
            continue
        bmat = a[:, basis]
        row = np.linalg.solve(bmat.T, np.eye(m)[i]) @ a[:, :n_real]
        pick = -1
        best = 1e-7
        for j in range(n_real):
            if status[j] != _BASIC and abs(row[j]) > best:
                pick, best = j, abs(row[j])
        if pick >= 0:
            status[basis[i]] = _AT_LO
            basis[i] = pick
            status[pick] = _BASIC
    lo[n_real:] = 0.0
    up[n_real:] = 0.0
    allowed[n_real:] = False

    solution = _phase_two(problem, a, b, phase2_cost, lo, up, basis, status,
                          allowed, n_real)
    # a degenerate basis must fail loudly rather than masquerade as an
    # optimal vertex
    if solution is None:
        raise RuntimeError("solve produced an infeasible basis; "
                           "problem is numerically degenerate")
    return solution


def _warm_basis(a, b, lo, up, start, n_real):
    """Basis and column statuses from ``start``, or None when unusable.

    Unusable means the wrong shape, a singular basis matrix, or basic
    values outside their bounds by more than the feasibility tolerance.
    """
    rows, real_status = start
    m = a.shape[0]
    if rows.shape != (m,) or real_status.shape != (n_real,):
        return None
    basis = rows.copy()
    status = np.full(n_real + m, _AT_LO, dtype=np.int8)
    status[:n_real] = real_status
    xv = np.where(status == _AT_UP, up, lo)
    xv[basis] = 0.0
    try:
        x_basic = np.linalg.solve(a[:, basis], b - a @ xv)
    except np.linalg.LinAlgError:
        return None
    if not (np.all(x_basic >= lo[basis] - _FEAS_TOL)
            and np.all(x_basic <= up[basis] + _FEAS_TOL)):
        return None
    return basis, status


def _phase_two(problem, a, b, cost, lo, up, basis, status, allowed, n_real):
    """Phase two from a primal-feasible basis.

    Returns the solution ("optimal" or "unbounded"), or None when the
    optimal basis violates the constraints by more than 1e-6.
    """
    n = problem.n_vars
    x_basic = _simplex(a, b, cost, lo, up, basis, status, allowed)
    if x_basic is None:
        return LpSolution(status="unbounded", values=None, objective_value=None)

    x = np.where(status == _AT_UP, up, lo)
    x[~np.isfinite(x)] = 0.0
    x[basis] = x_basic
    values = x[:n].copy()
    if max(_residuals(problem, values)) > 1e-6:
        return None
    start = None
    if np.all(basis < n_real):
        start = (basis.copy(), status[:n_real].copy())
    return LpSolution(status="optimal", values=values,
                      objective_value=float(problem.objective @ values),
                      basis=start)


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
