import dataclasses
import itertools
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from _oracles import (golden_and_scan_cpt, row_by_row_lp,
                      scan_edge_golden_cpt, warm_started_lp_grid)
from cogrelay import (AccessPolicy, SystemConfig, cpt_policy, evaluate_policy,
                      link_budget, lp_core, optimal_policy, policy_opt,
                      st_policy)
from cogrelay.experiments_cli import apply_sweep_value, load_spec
from cogrelay.policy_opt import (attainable_mu_p_range, build_lp,
                                 feasible_mu_p_range)
from cogrelay.queue_analytics import _FLOOR_SLACK, min_departure_rate

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def nearly(a, b, tol=1e-9):
    return abs(a - b) <= tol


# -- target-rate windows ----------------------------------------------------

def test_target_window_endpoints(defaults, budget):
    lo, hi = feasible_mu_p_range(defaults)
    capture = budget.theta_ps * (1.0 - budget.theta_pd)
    assert hi == pytest.approx(budget.theta_pd + capture, rel=1e-12)
    # with the huge default buffer the loss floor is the binding side
    assert lo == pytest.approx(0.495 / 0.995, abs=1e-9)


def test_target_window_closes_under_load(defaults):
    assert feasible_mu_p_range(
        dataclasses.replace(defaults, pu_arrival_rate=0.9)) is None


def test_attainable_window_nests_inside(defaults):
    eq_lo, eq_hi = feasible_mu_p_range(defaults)
    at_lo, at_hi = attainable_mu_p_range(defaults)
    assert eq_lo - 1e-9 <= at_lo <= at_hi <= eq_hi + 1e-9
    # sharing cannot widen the window beyond the two extreme policies
    ones = evaluate_policy(defaults, AccessPolicy((1.0,) + (1.0,) * 10))
    zeros = evaluate_policy(defaults, AccessPolicy((1.0,) + (0.0,) * 10))
    assert at_lo == pytest.approx(ones.mu_p, abs=2e-9)
    assert at_hi == pytest.approx(zeros.mu_p, abs=2e-9)


# -- the linear program -----------------------------------------------------

def test_lp_dimensions_scale_with_buffer(defaults, budget):
    for n_s in (1, 2, 10):
        cfg = dataclasses.replace(defaults, relay_queue_capacity=n_s)
        p = build_lp(cfg, 0.71)
        assert p.n_vars == 2 * (n_s + 1)
        assert len(p.eq_constraints[1]) == n_s + 3
        assert len(p.ineq_constraints[1]) == n_s + 1
        assert all(b == (0.0, 1.0) for b in p.bounds)


def test_chain_solution_satisfies_lp_rows(defaults, budget):
    # the stationary law of any flat policy, written as (pi, a = p pi),
    # must sit inside the polytope build_lp describes for its own mu_p
    cfg = dataclasses.replace(defaults, relay_queue_capacity=5)
    b = link_budget(cfg)
    for p in (0.0, 0.3, 0.8, 1.0):
        ev = evaluate_policy(cfg, AccessPolicy((1.0,) + (p,) * 5))
        occ = ev.relay_state.occupancy
        x = np.array(list(occ) + [occ[0]] + [p * o for o in occ[1:]])
        prob = build_lp(cfg, ev.mu_p)
        a_eq, b_eq = (np.array(prob.eq_constraints[0]),
                      np.array(prob.eq_constraints[1]))
        assert np.max(np.abs(a_eq @ x - b_eq)) <= 1e-8
        a_in, b_in = (np.array(prob.ineq_constraints[0]),
                      np.array(prob.ineq_constraints[1]))
        assert np.max(a_in @ x - b_in) <= 1e-8
        want = (b.theta_sr * x[6]
                + b.theta_sr_shared * x[7:].sum())
        assert ev.mu_s == pytest.approx(want, abs=1e-10)


def test_pinned_rate_row_at_the_ceiling(defaults, budget):
    # at the top of the window the refusal term must vanish
    cfg = dataclasses.replace(defaults, relay_queue_capacity=2)
    b = link_budget(cfg)
    capture = b.theta_ps * (1.0 - b.theta_pd)
    prob = build_lp(cfg, b.theta_pd + capture)
    assert prob.eq_constraints[1][-1] == pytest.approx(0.0, abs=1e-12)


# -- optimal search ---------------------------------------------------------

def test_idle_primary_gives_full_throughput(defaults, budget):
    cfg = dataclasses.replace(defaults, pu_arrival_rate=0.0)
    r = optimal_policy(cfg)
    assert r.status == "ok"
    assert r.mu_s == pytest.approx(budget.theta_sr, abs=1e-9)


def test_overload_reports_infeasible(defaults):
    r = optimal_policy(dataclasses.replace(defaults, pu_arrival_rate=0.9))
    assert r.status == "pu_infeasible"
    assert r.policy is None
    assert r.mu_s == 0.0


def test_objective_matches_reevaluation(defaults):
    for lam in (0.1, 0.5, 0.7):
        cfg = dataclasses.replace(defaults, pu_arrival_rate=lam)
        r = optimal_policy(cfg)
        assert r.status == "ok"
        assert abs(r.objective - r.evaluation.mu_s) <= 1e-6
        assert r.evaluation.feasible


@pytest.mark.parametrize("alpha", [0.0, 0.15])
def test_vertices_with_infeasible_equilibria_are_skipped(alpha):
    # at these time shares the best LP vertex's policy has a second
    # equilibrium below the protection floor; the search must move on
    # to a vertex whose evaluation is feasible and matches its score
    cfg = dataclasses.replace(SystemConfig(), alpha=alpha,
                              pu_arrival_rate=0.5, pu_queue_capacity=50,
                              gain_pd=0.01)
    r = optimal_policy(cfg)
    assert r.status == "ok"
    assert abs(r.objective - r.evaluation.mu_s) <= 1e-6
    assert r.evaluation.feasible


def test_singular_basis_drops_the_grid_point():
    # on the time-share sweep's base at alpha = 0.041 a cold phase one
    # once met a singular basis when each pivot solved with a fresh LU
    # factorization, and that grid point was dropped as "unstable"; the
    # search must find the restricted searches' throughput there
    spec, errors = load_spec(str(CONFIGS / "sweep_time_share.spec"))
    assert errors == []
    r = optimal_policy(dataclasses.replace(spec.base, alpha=0.041))
    assert r.status == "ok"
    assert r.mu_s >= 0.1539937 - 1e-6


def test_zero_capture_gives_full_throughput(defaults):
    # a zero-length packet crosses every link, so nothing is ever
    # captured and the secondary keeps its whole phase; every policy
    # scores the same, and each search settles on never sharing
    cfg = dataclasses.replace(defaults, bits_per_bandwidth=0.0)
    for search in (optimal_policy, cpt_policy, st_policy):
        r = search(cfg)
        assert r.status == "ok", search.__name__
        assert r.evaluation.feasible
        assert r.mu_s == pytest.approx(1.0, abs=1e-12)
        assert r.policy.probs == (1.0,) + (0.0,) * cfg.relay_queue_capacity


def test_unverifiable_vertices_yield_no_policy(defaults, monkeypatch):
    # when no vertex's policy re-evaluates as feasible the search must
    # not hand one out as "ok"
    real = policy_opt.evaluate_policy
    monkeypatch.setattr(policy_opt, "evaluate_policy", lambda *a, **k:
                        dataclasses.replace(real(*a, **k), feasible=False))
    r = optimal_policy(defaults)
    assert r.status == "unverified"
    assert r.policy is None
    assert r.mu_s == 0.0
    assert any(d.status == "optimal" for d in r.diagnostics)


def test_no_coarse_grid_policy_beats_lp(defaults):
    cfg = dataclasses.replace(defaults, relay_queue_capacity=2)
    r = optimal_policy(cfg)
    best = 0.0
    for p1, p2 in itertools.product(np.linspace(0, 1, 21), repeat=2):
        ev = evaluate_policy(cfg, AccessPolicy((1.0, p1, p2)))
        if ev.feasible:
            best = max(best, ev.mu_s)
    assert r.mu_s >= best - 1e-6


def test_throughput_shrinks_with_load(defaults):
    values = []
    for lam in (0.1, 0.3, 0.5, 0.6, 0.7):
        cfg = dataclasses.replace(defaults, pu_arrival_rate=lam)
        r = optimal_policy(cfg)
        assert r.status == "ok"
        values.append(r.mu_s)
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_sweep_diagnostics_mostly_stable(defaults):
    r = optimal_policy(defaults)
    statuses = [d.status for d in r.diagnostics]
    assert statuses.count("unstable") <= 2
    assert statuses.count("optimal") >= len(statuses) - 4
    swept = [d.mu_p for d in r.diagnostics]
    assert swept == sorted(swept)


def test_warm_started_sweep_matches_cold_solves(defaults):
    # most grid LPs keep their neighbour's basis; the scores must be
    # those of independent cold solves
    r = optimal_policy(defaults)
    for d in r.diagnostics:
        if d.status != "optimal":
            continue
        cold = lp_core.solve(build_lp(defaults, d.mu_p))
        assert cold.status == "optimal"
        assert abs(cold.objective_value - d.objective) <= 1e-9


def _search_key(r):
    # everything a search reports; the evaluation's own repr carries an
    # object address, so its numbers are compared instead
    ev = r.evaluation
    return repr((r.method, r.status, r.policy, r.objective, r.swept_mu_p,
                 r.diagnostics, None if ev is None else
                 (ev.mu_p, ev.mu_s, ev.equilibria, ev.feasible)))


def _time_share_base():
    spec, errors = load_spec(str(CONFIGS / "sweep_time_share.spec"))
    assert errors == []
    return spec.base


@pytest.mark.parametrize("case", [
    "defaults",
    "F2",          # alpha = 0.041 on the time-share base: once unstable
    "light_load",  # lambda_p = 0.1: a window about 1e-9 wide
    "n_s=1",
    "n_s=20",
    "pu_infeasible",
], ids=lambda case: f"{case}-{policy_opt._GRID_POINTS}")
def test_family_search_matches_the_per_point_loop(defaults, case):
    cfg = {"defaults": defaults,
           "F2": dataclasses.replace(_time_share_base(), alpha=0.041),
           "light_load": dataclasses.replace(defaults, pu_arrival_rate=0.1),
           "n_s=1": dataclasses.replace(defaults, relay_queue_capacity=1),
           "n_s=20": dataclasses.replace(defaults, relay_queue_capacity=20),
           "pu_infeasible": dataclasses.replace(defaults,
                                                pu_arrival_rate=0.9)}[case]
    new, ref = optimal_policy(cfg), warm_started_lp_grid(cfg)
    assert (_search_key(dataclasses.replace(new, diagnostics=()))
            == _search_key(dataclasses.replace(ref, diagnostics=())))
    assert (repr([d._replace(objective=None) for d in new.diagnostics])
            == repr([d._replace(objective=None) for d in ref.diagnostics]))
    # a member the family solves one pivot from the carried basis takes
    # its values from an LU solve, where the loop's cold solve takes them
    # from the simplex's eta-updated inverse
    for got, want in zip(new.diagnostics, ref.diagnostics):
        assert (got.objective == want.objective
                or abs(got.objective - want.objective)
                <= 1e-12 * abs(want.objective)), got.mu_p
    if case == "F2":
        assert not any(d.status == "unstable" for d in new.diagnostics)
    if case == "defaults":
        # one solve here produces an infeasible basis: the drop path
        assert any(d.status == "unstable" for d in new.diagnostics)


def test_exact_search_solves_only_at_basis_changes(defaults, monkeypatch):
    # the carried basis is tested on whole blocks of the grid, and where
    # it stops being optimal one certified pivot moves it on; a solve per
    # grid point would cost 200, a solve per basis change 8
    calls = []
    real = lp_core.solve
    monkeypatch.setattr(lp_core, "solve",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    r = optimal_policy(defaults)
    assert r.status == "ok" and len(r.diagnostics) == 200
    assert 1 <= len(calls) <= 3


@pytest.mark.parametrize("n_s", [10, 30])
def test_full_time_share_takes_at_most_two_solves(n_s, monkeypatch):
    # at alpha = 1 the window is only _PAD wide and the optimal basis
    # keeps an artificial, pinned at zero; that basis is carried like
    # any other, where every grid rate once took a cold solve
    calls = _spy_on_solve(monkeypatch)
    cfg = dataclasses.replace(_time_share_base(), alpha=1.0,
                              relay_queue_capacity=n_s)
    r = optimal_policy(cfg)
    assert r.status == "ok" and len(r.diagnostics) == 200
    assert 1 <= len(calls) <= 2


def _basis_set(basis):
    rows, real_status = basis
    return sorted(rows.tolist()), real_status.tolist()


def test_certified_pivots_match_cold_solves(monkeypatch):
    # every member the family solves one pivot from the carried basis
    # must get the very basis, as a set with its real-column statuses,
    # that a cold solve of that member stops at
    real = lp_core._basis_run
    repairs = []

    def spy(shared, a_eq, b_eq, start, pivoted):
        run, moved = real(shared, a_eq, b_eq, start, pivoted)
        if pivoted and run:
            repairs.append((shared, a_eq[0], b_eq[0], run[0]))
        return run, moved

    monkeypatch.setattr(lp_core, "_basis_run", spy)
    searches = 0
    # without the margin the family certifies, at lambda_p = 0.14 of the
    # arrival-rate sweep, a basis the cold solve does not stop at
    for name in ("sweep_relay_buffer.spec", "sweep_time_share.spec",
                 "sweep_arrival_rate.spec"):
        spec, errors = load_spec(str(CONFIGS / name))
        assert errors == []
        for value in spec.sweep_values:
            optimal_policy(apply_sweep_value(spec.base, spec.sweep_variable,
                                             value))
            searches += 1
    # most basis changes are certified: about 4 per search
    assert len(repairs) >= 3 * searches
    for shared, a_eq, b_eq, repaired in repairs:
        assert repaired.pivots == (0, 1)
        cold = lp_core.solve(lp_core.LpProblem(
            shared.objective, (a_eq, b_eq), shared.ineq_constraints,
            shared.bounds))
        assert _basis_set(repaired.basis) == _basis_set(cold.basis)
        assert np.allclose(repaired.values, cold.values, rtol=0, atol=1e-12)


def _spy_on_solve(monkeypatch):
    """Record each cold solve as (problem, solution or RuntimeError)."""
    calls = []
    real = lp_core.solve

    def spy(problem):
        try:
            solution = real(problem)
        except RuntimeError as exc:
            calls.append((problem, exc))
            raise
        calls.append((problem, solution))
        return solution

    monkeypatch.setattr(lp_core, "solve", spy)
    return calls


@pytest.mark.parametrize("alpha", [0.0387, 0.04045])
def test_cold_solves_near_f2_finish(alpha, monkeypatch):
    # on the time-share base at these rates a cold solve once cycled
    # through all 50,000 iterations (about 20 s of CPU per search)
    calls = _spy_on_solve(monkeypatch)
    r = optimal_policy(dataclasses.replace(_time_share_base(), alpha=alpha))
    assert not any(isinstance(out, RuntimeError)
                   and "iteration limit" in str(out) for _, out in calls)
    assert r.status == "ok"
    assert r.mu_s >= 0.1539937 - 1e-6


_DROPPED = "solve produced an infeasible basis"


@pytest.mark.parametrize("n_s, grid_points, path", [
    (10, [0, 1, 130, 173, 189, 195, 198, 199],
     [(24, 0), (24, 9), (26, 16), (27, 14), (28, 12), (29, 10), (30, 8),
      _DROPPED]),
    (20, [0, 1, 125, 171, 189, 195, 198, 199],
     [(44, 0), (44, 19), (46, 36), (47, 34), (48, 32), (49, 30), (50, 28),
      _DROPPED]),
], ids=["defaults", "n_s=20"])
def test_cold_solves_keep_their_bland_pivot_path(defaults, n_s, grid_points,
                                                  path):
    # the (phase one, phase two) pivots of a cold solve at each grid rate
    # where the search once solved cold, before the family took one pivot
    # from the carried basis, as they were when each pivot solved with a
    # fresh LU factorization; the n_s = 20 solves run past the refactor
    # interval of the updated basis inverse
    cfg = dataclasses.replace(defaults, relay_queue_capacity=n_s)
    grid = np.linspace(*attainable_mu_p_range(cfg),
                       policy_opt._GRID_POINTS)
    calls = []
    for k in grid_points:
        problem = build_lp(cfg, float(grid[k]))
        try:
            calls.append((problem, lp_core.solve(problem)))
        except RuntimeError as exc:
            calls.append((problem, exc))
    assert [str(out).split(";")[0] if isinstance(out, RuntimeError)
            else out.pivots for _, out in calls] == path
    assert lp_core._REFACTOR < max(sum(p) for p in path[:-1])
    for problem, out in calls[:-1]:
        assert lp_core.verify(problem, out)["ok"]


@pytest.mark.parametrize("n_s", [1, 2, 10, 20])
def test_block_rows_match_the_row_by_row_lp(defaults, n_s):
    cfg = dataclasses.replace(defaults, relay_queue_capacity=n_s,
                              pu_queue_capacity=50)
    b = link_budget(cfg)
    rates = np.linspace(*attainable_mu_p_range(cfg), 7)
    a_eq, b_eq = policy_opt._pinned_rate_rows(cfg, b, rates)
    for k, mu_p in enumerate(rates.tolist()):
        ref, one = row_by_row_lp(cfg, b, mu_p), build_lp(cfg, mu_p)
        for p in (one, lp_core.LpProblem(one.objective, (a_eq[k], b_eq[k]),
                                         one.ineq_constraints, one.bounds)):
            assert np.array_equal(p.objective, ref.objective)
            for got, want in zip(p.eq_constraints + p.ineq_constraints,
                                 ref.eq_constraints + ref.ineq_constraints):
                assert np.array_equal(got, want)
            assert p.bounds == ref.bounds


# -- constant-probability search --------------------------------------------

def test_cpt_tracks_its_own_grid(defaults):
    r = cpt_policy(defaults)
    assert r.status == "ok"
    flat = r.policy.probs[1]
    assert all(p == flat for p in r.policy.probs[1:])
    dense = 0.0
    for p in np.linspace(0, 1, 101):
        ev = evaluate_policy(defaults, AccessPolicy((1.0,) + (p,) * 10))
        if ev.feasible:
            dense = max(dense, ev.mu_s)
    assert r.mu_s >= dense - 1e-6


def test_cpt_never_beats_lp(defaults):
    lp = optimal_policy(defaults)
    assert cpt_policy(defaults).mu_s <= lp.mu_s + 1e-9


def test_cpt_scores_only_the_scan_at_the_defaults(defaults, monkeypatch):
    # the defaults have no feasibility edge, so the 65-point scan is the
    # whole search; a dense scan of p would cost a thousand evaluations
    calls = []
    real = policy_opt.evaluate_policy
    monkeypatch.setattr(policy_opt, "evaluate_policy",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    r = cpt_policy(defaults)
    assert r.status == "ok"
    assert len(r.diagnostics) == len(calls) == 65


def test_cpt_diagnostics_list_every_scored_point():
    # the time-share cell at alpha = 0.15 has a feasibility edge between
    # two scan points, so both stages score points there
    spec, errors = load_spec(str(CONFIGS / "sweep_time_share.spec"))
    assert errors == []
    cfg = apply_sweep_value(spec.base, "alpha", 0.15)
    r = cpt_policy(cfg)
    probs = [d.share_prob for d in r.diagnostics]
    assert probs == sorted(set(probs))
    assert {d.status for d in r.diagnostics} == {"scan", "edge"}
    # the scan runs up to its first infeasible point and stops there
    scan = [d for d in r.diagnostics if d.status == "scan"]
    assert [d.share_prob for d in scan] == [k / 64 for k in range(len(scan))]
    assert [d.objective == -math.inf for d in scan] == (
        [False] * (len(scan) - 1) + [True])
    picked = [d for d in r.diagnostics if d.share_prob == r.policy.probs[1]]
    assert len(picked) == 1
    assert picked[0].objective == r.objective == r.mu_s
    assert picked[0].mu_p == r.evaluation.mu_p
    assert max(d.objective for d in r.diagnostics) == r.objective
    # the optimum sits on the edge: a hair more sharing is infeasible
    above = [d for d in r.diagnostics if d.share_prob > r.policy.probs[1]]
    assert above[0].objective == -math.inf
    assert above[0].share_prob - r.policy.probs[1] <= 1e-12


def fake_uniform_evaluations(monkeypatch, config, mu_s, lowest):
    """Stand in for evaluate_policy with made-up functions of p.

    A uniform policy with sharing probability p scores ``mu_s(p)`` and
    has the one equilibrium ``lowest(p, floor)``, feasible by the
    evaluator's own test.
    """
    floor = min_departure_rate(config.pu_arrival_rate,
                               config.pu_queue_capacity, config.loss_threshold)

    def evaluate(config, policy):
        p = policy.probs[1]
        low = lowest(p, floor)
        return SimpleNamespace(mu_p=low, mu_s=mu_s(p), equilibria=(low,),
                               feasible=low >= floor - _FLOOR_SLACK,
                               floor_margin=low - (floor - _FLOOR_SLACK))

    monkeypatch.setattr(policy_opt, "evaluate_policy", evaluate)


def picked_from(r):
    return [d.status for d in r.diagnostics
            if d.share_prob == r.policy.probs[1]]


def test_cpt_returns_an_interior_peak_as_its_best_scan_point(defaults,
                                                               monkeypatch):
    # no bundled cell has its optimum between scan points away from an
    # edge, so a made-up score puts one at p = 0.3; it is not refined
    fake_uniform_evaluations(monkeypatch, defaults,
                             lambda p: 0.5 - (p - 0.3) ** 2,
                             lambda p, floor: floor + 0.1)
    r = cpt_policy(defaults)
    assert r.policy.probs[1] == 19 / 64
    assert abs(r.policy.probs[1] - 0.3) <= 1 / 128
    assert picked_from(r) == ["scan"]


@pytest.mark.parametrize("jump", [False, True])
def test_cpt_keeps_the_feasible_end_of_an_edge(defaults, monkeypatch, jump):
    # the score rises with p, and p is feasible up to 0.4321: there the
    # lowest equilibrium crosses the floor smoothly, or jumps below it
    # as a new root appears
    edge = 0.4321

    def lowest(p, floor):
        if jump:
            return floor + (0.01 if p <= edge else -0.01)
        return floor - 1e-9 + (edge - p)

    fake_uniform_evaluations(monkeypatch, defaults, lambda p: p, lowest)
    r = cpt_policy(defaults)
    assert r.evaluation.feasible
    assert abs(r.policy.probs[1] - edge) <= 1e-12
    assert picked_from(r) == ["edge"]
    above = [d for d in r.diagnostics if d.share_prob > r.policy.probs[1]]
    assert above[0].objective == -math.inf


def test_cpt_edge_falls_back_to_bisection(defaults, monkeypatch):
    # should Brent's method stop short, bisection still narrows the edge
    monkeypatch.setattr(policy_opt, "_brent", lambda f, a, b, *rest, **kw: b)
    edge = 0.4321
    fake_uniform_evaluations(monkeypatch, defaults, lambda p: p,
                             lambda p, floor: floor - 1e-9 + (edge - p))
    r = cpt_policy(defaults)
    assert abs(r.policy.probs[1] - edge) <= 1e-12
    assert picked_from(r) == ["edge"]


# status and mu_s of the first CPT search, golden section plus a
# 1001-point scan (``golden_and_scan_cpt``), on every cell of every
# bundled sweep, in sweep order; the test below reruns it on some cells
GOLDEN_AND_SCAN_CPT = {
    "sweep_arrival_rate.spec": (
        ("ok", 0.653993668731022), ("ok", 0.6456963772326061),
        ("ok", 0.6373990857341902), ("ok", 0.6291017942357813),
        ("ok", 0.620804502737549), ("ok", 0.6125072112414421),
        ("ok", 0.6042099197614328), ("ok", 0.5959126283704398),
        ("ok", 0.5876153373718929), ("ok", 0.579318047832356),
        ("ok", 0.5710207630425786), ("ok", 0.5627234921548243),
        ("ok", 0.5544262585535683), ("ok", 0.5461291178975173),
        ("ok", 0.5378321948707978), ("ok", 0.5295357543946531),
        ("ok", 0.5212403334619069), ("ok", 0.5129469750521345),
        ("ok", 0.5046576269127094), ("ok", 0.49637579674093096),
        ("ok", 0.4881075948494633), ("ok", 0.47986335658444157),
        ("ok", 0.47166015107381337), ("ok", 0.4635257308340067),
        ("ok", 0.45550505035105004), ("ok", 0.4476718373842498),
        ("ok", 0.4401509434957097), ("ok", 0.43316469823736997),
        ("ok", 0.42712781671029376), ("ok", 0.42276039299724),
        ("ok", 0.4206734250650035), ("ok", 0.3919010824105373),
        ("ok", 0.35415898894490533), ("ok", 0.31486677810237756),
        ("ok", 0.2724445094584962), ("ok", 0.22220049133837394),
        ("pu_infeasible", 0.0), ("pu_infeasible", 0.0), ("pu_infeasible", 0.0),
        ("pu_infeasible", 0.0), ("pu_infeasible", 0.0), ("pu_infeasible", 0.0),
        ("pu_infeasible", 0.0), ("pu_infeasible", 0.0), ("pu_infeasible", 0.0),
        ("pu_infeasible", 0.0), ("pu_infeasible", 0.0), ("pu_infeasible", 0.0),
        ("pu_infeasible", 0.0), ("pu_infeasible", 0.0),
    ),
    "sweep_pu_buffer.spec": (
        ("pu_infeasible", 0.0), ("pu_infeasible", 0.0), ("pu_infeasible", 0.0),
        ("pu_infeasible", 0.0), ("ok", 0.44768055284993546),
        ("ok", 0.44767183873515726), ("ok", 0.4476718373842498),
        ("ok", 0.4476718373842498), ("ok", 0.4476718373842498),
        ("ok", 0.4476718373842498), ("ok", 0.4476718373842498),
    ),
    "sweep_receive_fraction.spec": (
        ("pu_infeasible", 0.0), ("pu_infeasible", 0.0), ("pu_infeasible", 0.0),
        ("pu_infeasible", 0.0), ("pu_infeasible", 0.0), ("pu_infeasible", 0.0),
        ("pu_infeasible", 0.0), ("ok", 0.5236044401271129),
        ("ok", 0.4601101170880615), ("ok", 0.3700189111027443),
        ("ok", 0.28065371833633157), ("ok", 0.19592520548913928),
        ("ok", 0.11790855599942589), ("ok", 0.04882510245922076),
        ("pu_infeasible", 0.0), ("pu_infeasible", 0.0), ("pu_infeasible", 0.0),
        ("pu_infeasible", 0.0), ("pu_infeasible", 0.0), ("pu_infeasible", 0.0),
        ("pu_infeasible", 0.0),
    ),
    "sweep_relay_buffer.spec": (
        ("pu_infeasible", 0.0), ("ok", 0.2249588932040868),
        ("ok", 0.2562307158027521), ("ok", 0.26927617301873613),
        ("ok", 0.2752068350432485), ("ok", 0.278061410034558),
        ("ok", 0.27948685084600344), ("ok", 0.28021555058741476),
        ("ok", 0.28059364221007116), ("ok", 0.2807916507369065),
        ("ok", 0.28089594729620593), ("ok", 0.2809510767965496),
        ("ok", 0.2809802793802795), ("ok", 0.28099576790593567),
        ("ok", 0.28100398891603834), ("ok", 0.2810083543910856),
        ("ok", 0.28101067311540223), ("ok", 0.2810119048890218),
        ("ok", 0.28101255929853514), ("ok", 0.2810129069863104),
    ),
    "sweep_relay_position.spec": (
        ("pu_infeasible", 0.0), ("ok", 0.0107469311903561),
        ("ok", 0.08721901816721685), ("ok", 0.25566833893104784),
        ("ok", 0.4476718373842498), ("ok", 0.6460965714124496),
        ("ok", 0.8012024490963198), ("pu_infeasible", 0.0),
        ("pu_infeasible", 0.0),
    ),
    "sweep_time_share.spec": (
        ("ok", 0.15646250245081286), ("ok", 0.15399370083178518),
        ("ok", 0.15399370083178157), ("ok", 0.15414868112164085),
        ("ok", 0.16535355367075302), ("ok", 0.18036706721391205),
        ("ok", 0.19813418593130955), ("ok", 0.21776127606560577),
        ("ok", 0.23856846572795903), ("ok", 0.25984592712652405),
        ("ok", 0.28065371833633157), ("ok", 0.2995887888192698),
        ("ok", 0.3144530905391234), ("ok", 0.2949881571332485),
        ("ok", 0.2593566654809435), ("ok", 0.22040048080984986),
        ("ok", 0.18094079431393437), ("ok", 0.1539937008317879),
        ("ok", 0.15399370083178165), ("ok", 0.1539937008317853),
        ("ok", 0.1539937008317905),
    ),
}


def test_cpt_never_scores_below_the_golden_and_scan_search():
    # the first search may score lower than the current one, the
    # scan-edge-golden search must return the same result; the first
    # one runs live on every 12th cell and on the alpha = 0.15 cell,
    # where golden section misses the optimum, and must give its pin
    cells = 0
    for path in sorted(CONFIGS.glob("sweep_*.spec")):
        spec, errors = load_spec(str(path))
        assert errors == []
        pins = GOLDEN_AND_SCAN_CPT[path.name]
        assert len(pins) == len(spec.sweep_values), path.name
        for value, (ref_status, ref_mu_s) in zip(spec.sweep_values, pins):
            cfg = apply_sweep_value(spec.base, spec.sweep_variable, value)
            alpha_edge = spec.sweep_variable == "alpha" and value == 0.15
            if cells % 12 == 0 or alpha_edge:
                ref = golden_and_scan_cpt(cfg)
                assert (ref.status, ref.mu_s) == (ref_status, ref_mu_s), (
                    path.name, value)
            new = cpt_policy(cfg)
            assert new.status == ref_status, (path.name, value)
            assert new.mu_s >= ref_mu_s - 1e-12, (path.name, value)
            # diagnostics differ: the golden section scored more points
            same = [_search_key(dataclasses.replace(r, diagnostics=()))
                    for r in (new, scan_edge_golden_cpt(cfg))]
            assert same[0] == same[1], (path.name, value)
            assert len(new.diagnostics) <= 80, (path.name, value)
            if alpha_edge:
                # unimodality fails here and the optimum sits on the
                # feasibility edge, which golden section misses
                assert new.mu_s >= 0.15414868112
                assert 0.254 < new.policy.probs[1] < 0.255
            cells += 1
    assert cells == 132


def test_feasibility_is_a_prefix_in_p_and_in_the_threshold():
    # more sharing lowers the lowest equilibrium (see cpt_policy), so on
    # every bundled cell the feasible scan points p = k / 64 and the
    # feasible thresholds each form a prefix, and ST stops at the first
    # infeasible threshold
    cells = 0
    for path in sorted(CONFIGS.glob("sweep_*.spec")):
        spec, errors = load_spec(str(path))
        assert errors == []
        for value in spec.sweep_values:
            cfg = apply_sweep_value(spec.base, spec.sweep_variable, value)
            n_s = cfg.relay_queue_capacity
            uniform = [(1.0,) + (k / 64,) * n_s for k in range(65)]
            steps = [(1.0,) * (t + 1) + (0.0,) * (n_s - t)
                     for t in range(n_s + 1)]
            feasible = {}
            for kind, policies in (("p", uniform), ("threshold", steps)):
                ok = [evaluate_policy(cfg, AccessPolicy(probs)).feasible
                      for probs in policies]
                feasible[kind] = ok.index(False) if False in ok else len(ok)
                assert not any(ok[feasible[kind]:]), (path.name, value, kind)
            scored = len(st_policy(cfg).diagnostics)
            assert scored == min(feasible["threshold"] + 1, n_s + 1), (
                path.name, value)
            cells += 1
    assert cells == 132


def test_cpt_skips_scoring_when_no_rate_is_feasible(defaults, monkeypatch):
    # every equilibrium lies inside the closed-form target window, so an
    # empty window settles the search before any policy is evaluated
    cfg = dataclasses.replace(defaults, pu_arrival_rate=0.8)
    assert feasible_mu_p_range(cfg) is None
    calls = []
    real = policy_opt.evaluate_policy
    monkeypatch.setattr(policy_opt, "evaluate_policy",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    r = cpt_policy(cfg)
    assert r.status == "pu_infeasible"
    assert r.mu_s == 0.0
    assert calls == []


# -- threshold search -------------------------------------------------------

def test_st_scans_every_threshold(defaults):
    r = st_policy(defaults)
    assert r.status == "ok"
    tags = [d.status for d in r.diagnostics]
    assert tags == [f"threshold_{n}" for n in range(11)]
    best = max(d.objective for d in r.diagnostics)
    assert r.mu_s == pytest.approx(best, abs=1e-12)


def test_st_policy_is_a_step(defaults):
    r = st_policy(defaults)
    probs = r.policy.probs
    if 0.0 in probs:
        cut = probs.index(0.0)
        assert all(p == 1.0 for p in probs[:cut])
        assert all(p == 0.0 for p in probs[cut:])
    else:
        assert probs == (1.0,) * len(probs)


def test_st_dip_and_recovery():
    # weak own-link regime: a mid-height threshold is the worst choice,
    # the extremes do better, and the full-access end wins
    cfg = dataclasses.replace(SystemConfig(), pu_arrival_rate=0.55,
                              alpha=0.8, distance_sd=130.0)
    r = st_policy(cfg)
    vals = [d.objective for d in r.diagnostics]
    k = int(np.argmin(vals))
    assert 0 < k < len(vals) - 1
    assert vals[0] > vals[k]
    assert vals[-1] > vals[0]
    assert r.policy.probs == (1.0,) * 11


def test_st_tie_prefers_smaller_threshold(defaults, budget):
    # without primary traffic every threshold scores theta_sr: the
    # scan must settle on the lowest one
    cfg = dataclasses.replace(defaults, pu_arrival_rate=0.0)
    r = st_policy(cfg)
    assert r.status == "ok"
    assert r.policy.probs == (1.0,) + (0.0,) * 10
    assert r.mu_s == pytest.approx(budget.theta_sr, abs=1e-12)


def test_st_never_beats_lp(defaults):
    lp = optimal_policy(defaults)
    assert st_policy(defaults).mu_s <= lp.mu_s + 1e-9


# -- the search contract on every bundled cell ------------------------------

# cells where the exact search scores below a restricted one today; each
# flips to a pass when the ROADMAP item named closes its gap
_CONTRACT_GAPS = {
    "alpha=0": "lp 2.47e-3 below cpt: the LP's vertices have a second "
               "equilibrium below the target (ROADMAP item 1)",
    "alpha=0.15": "lp 5.9e-4 below cpt (ROADMAP item 1)",
    "r_ps=140": "lp 1.16e-8 below cpt: the 200-point grid misses the "
                "optimal rate (ROADMAP item 3)",
    "r_ps=120": "lp 3.5e-9 below cpt: the grid (ROADMAP item 3)",
    "beta=0.35": "lp 1.34e-9 below cpt: the grid (ROADMAP item 3)",
}


def _contract_cells():
    cells = []
    for path in sorted(CONFIGS.glob("sweep_*.spec")):
        spec, errors = load_spec(str(path))
        assert errors == []
        for value in spec.sweep_values:
            cell = f"{spec.sweep_variable}={value:g}"
            marks = ([pytest.mark.xfail(reason=_CONTRACT_GAPS[cell],
                                        strict=True)]
                     if cell in _CONTRACT_GAPS else [])
            cells.append(pytest.param(
                apply_sweep_value(spec.base, spec.sweep_variable, value),
                id=cell, marks=marks))
    assert len(cells) == 132
    # off the bundled cells: a certain own link, where the exact
    # search's policy scores 0.9999999969958444 and both restricted
    # searches score 1.0 (the CHANGES.md FOUND line on distance_sr)
    cells.append(pytest.param(
        SystemConfig(distance_sr=1e-200), id="distance_sr=1e-200",
        marks=pytest.mark.xfail(reason="lp 3.0e-9 below cpt and st: a "
                                "vertex within _SCORE_TOL of its score is "
                                "accepted", strict=True)))
    return cells


@pytest.mark.parametrize("cfg", _contract_cells())
def test_search_contract(cfg):
    # (i) an "ok" result is feasible at every equilibrium, and (ii) the
    # exact search scores at least as well as either restricted one
    results = [search(cfg) for search in (optimal_policy, cpt_policy,
                                          st_policy)]
    for r in results:
        assert r.status != "ok" or r.evaluation.feasible, r.method
    lp, cpt, st = (r.mu_s for r in results)
    assert lp >= max(cpt, st) - 1e-9
