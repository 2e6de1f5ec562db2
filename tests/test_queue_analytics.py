import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cogrelay import (AccessPolicy, SystemConfig, evaluate_policy,
                      link_budget, min_departure_rate, relay_steady_state)
from cogrelay.queue_analytics import (_FLOOR_SLACK, pu_blocking_probability,
                                      pu_busy_probability,
                                      pu_departure_from_relay,
                                      relay_departure_probs)

from _oracles import (joint_transition_matrices, pu_transition_matrix,
                      relay_transition_matrix, stationary)

# For a near-infinite primary buffer the loss constraint binds in the
# heavy-traffic branch, where blocking tends to 1 - 1/gamma; solving
# blocking = eps in closed form gives (1 - eps) lam / (1 - eps lam).
MU_BAR_BASELINE = 0.495 / 0.995


# -- primary queue ----------------------------------------------------------

def test_small_chain_exact_rationals():
    # lam = 0.3, mu = 0.6, three slots: the stationary law is
    # (2401, 1715, 490, 140) / 4746 (worked out by hand from the product
    # form), so busy = 2345 / 4746 and full = 140 / 4746
    assert pu_busy_probability(0.3, 0.6, 3) * 4746 == pytest.approx(
        2345, rel=1e-12)
    assert pu_blocking_probability(0.3, 0.6, 3) * 4746 == pytest.approx(
        140, rel=1e-12)


def test_balanced_chain_unit_ratio_branch():
    # gamma = 1: the law is (1, 2, 2) / 5
    assert pu_busy_probability(0.5, 0.5, 2) == pytest.approx(0.8, rel=1e-12)
    assert pu_blocking_probability(0.5, 0.5, 2) == pytest.approx(0.4,
                                                                 rel=1e-12)


def test_matches_transition_matrix_solve():
    rng = np.random.default_rng(7)
    for _ in range(25):
        lam = float(rng.uniform(0.05, 0.95))
        mu = float(rng.uniform(0.05, 0.95))
        n_p = int(rng.integers(1, 41))
        ref = stationary(pu_transition_matrix(lam, mu, n_p))
        assert pu_busy_probability(lam, mu, n_p) == pytest.approx(
            1.0 - ref[0], abs=1e-10)
        assert pu_blocking_probability(lam, mu, n_p) == pytest.approx(
            ref[-1], abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(min_value=0.01, max_value=0.99),
       mu=st.floats(min_value=0.01, max_value=0.99),
       n_p=st.integers(min_value=1, max_value=30))
def test_scalars_agree_with_solver(lam, mu, n_p):
    ref = stationary(pu_transition_matrix(lam, mu, n_p))
    assert pu_busy_probability(lam, mu, n_p) == pytest.approx(
        1.0 - ref[0], abs=1e-9)
    assert pu_blocking_probability(lam, mu, n_p) == pytest.approx(
        ref[-1], abs=1e-9)


def pu_scalars(lam, mu, n_p):
    return (pu_busy_probability(lam, mu, n_p),
            pu_blocking_probability(lam, mu, n_p))


def test_no_arrivals_leaves_queue_empty():
    assert pu_scalars(0.0, 0.7, 5) == (0.0, 0.0)


def test_no_service_pins_queue_full():
    assert pu_scalars(0.4, 0.0, 4) == (1.0, 1.0)


def test_saturated_arrivals_pin_queue_full():
    assert pu_scalars(1.0, 0.6, 3) == (1.0, 1.0)


def test_lockstep_arrival_and_service_sits_at_one():
    # every slot departs and refills: the queue holds exactly one packet
    assert pu_scalars(1.0, 1.0, 3) == (1.0, 0.0)


def test_huge_buffer_scalars_match_the_infinite_buffer_limit():
    # gamma < 1: past a million slots the law is the infinite buffer's,
    # whose busy probability is lam / mu
    busy, full = pu_scalars(0.5, 0.65, 10**6)
    assert busy == pytest.approx(0.5 / 0.65, rel=1e-12)
    assert full < 1e-30


# -- departure-rate floor ---------------------------------------------------

def test_departure_floor_baseline_value():
    assert min_departure_rate(0.5, 10**6, 0.01) == pytest.approx(
        MU_BAR_BASELINE, abs=1e-9)


def test_departure_floor_hits_threshold():
    for lam, n_p, eps in [(0.5, 10**6, 0.01), (0.3, 50, 0.01),
                          (0.7, 100, 0.05), (0.2, 5, 0.001)]:
        mu_bar = min_departure_rate(lam, n_p, eps)
        assert mu_bar is not None
        assert abs(pu_blocking_probability(lam, mu_bar, n_p) - eps) <= 1e-9


def test_departure_floor_unreachable_threshold():
    # a single-slot buffer at lam = 0.5 blocks half the arrivals even
    # with certain service, so a 1% loss target has no solution
    assert min_departure_rate(0.5, 1, 0.01) is None


def test_departure_floor_idle_source():
    assert min_departure_rate(0.0, 10, 0.01) == 0.0


def test_departure_floor_grows_with_load():
    floors = [min_departure_rate(lam, 100, 0.01)
              for lam in (0.1, 0.3, 0.5, 0.7)]
    assert all(f is not None for f in floors)
    assert floors == sorted(floors)


# -- relay buffer -----------------------------------------------------------

def test_two_level_relay_closed_form():
    s = relay_steady_state(0.2, (0.5,))
    assert s.occupancy == pytest.approx((2 / 3, 1 / 3), rel=1e-12)


def test_relay_matches_transition_matrix_solve():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n_s = int(rng.integers(1, 21))
        q = float(rng.uniform(0.0, 0.95))
        r = tuple(rng.uniform(0.05, 1.0, n_s))
        ref = stationary(relay_transition_matrix(q, r))
        occ = relay_steady_state(q, r).occupancy
        assert np.max(np.abs(np.array(occ) - ref)) < 1e-10


def test_relay_without_arrivals_stays_empty():
    occ = relay_steady_state(0.0, (0.3, 0.7)).occupancy
    assert occ == (1.0, 0.0, 0.0)


def test_relay_dead_level_absorbs_everything_above():
    # level 2 never drains while arrivals keep coming, so everything
    # below it starves; the product form restarts there and levels 2
    # and 3 share all the mass
    occ = relay_steady_state(0.4, (0.5, 0.0, 0.6)).occupancy
    assert occ[:2] == (0.0, 0.0)
    assert occ[2] + occ[3] == pytest.approx(1.0, abs=1e-12)
    assert occ[3] > 0.0


def test_relay_dead_level_without_inflow_truncates():
    occ = relay_steady_state(0.0, (0.0, 0.5)).occupancy
    assert occ == (1.0, 0.0, 0.0)


def test_relay_extreme_ratios_stay_normalized():
    occ = relay_steady_state(0.5, (1e-8,) * 40).occupancy
    assert all(math.isfinite(x) for x in occ)
    assert math.fsum(occ) == pytest.approx(1.0, abs=1e-12)
    assert occ[-1] > 0.999


def test_access_policy_validation():
    p = AccessPolicy((1.0, 0.25, 0.5))
    assert p.capacity == 2
    with pytest.raises(ValueError):
        AccessPolicy((0.9, 0.5))
    with pytest.raises(ValueError):
        AccessPolicy((1.0, 1.5))
    with pytest.raises(ValueError):
        AccessPolicy(())


def test_departure_probs_interpolate_shared_link(budget):
    probs = relay_departure_probs(AccessPolicy((1.0, 0.0, 1.0, 0.5)), budget)
    full, shared = budget.theta_sd, budget.theta_sd_shared
    assert probs == pytest.approx(
        (full, shared, full - 0.5 * (full - shared)), rel=1e-12)


def test_refusal_correction_formula(budget):
    relay = relay_steady_state(0.3, (0.5, 0.4))
    got = pu_departure_from_relay(budget, relay)
    capture = budget.theta_ps * (1.0 - budget.theta_pd)
    want = budget.theta_pd + capture * (
        1.0 - relay.occupancy[-1] * (1.0 - 0.4))
    assert got == pytest.approx(want, rel=1e-12)


def test_occupancy_shifts_up_when_access_grows(budget):
    # more transmission at level m slows its drain: every level below
    # m loses mass and the tail at or above m gains it as a whole.
    # The gain is only collective; a single level inside the tail can
    # shrink while the levels above it grow.
    rng = np.random.default_rng(3)
    for _ in range(20):
        n_s = int(rng.integers(2, 9))
        base = [1.0] + list(rng.uniform(0.0, 0.9, n_s))
        m = int(rng.integers(1, n_s + 1))
        bumped = list(base)
        bumped[m] += 0.1
        q = float(rng.uniform(0.05, 0.6))
        occ0 = relay_steady_state(
            q, relay_departure_probs(AccessPolicy(tuple(base)), budget)).occupancy
        occ1 = relay_steady_state(
            q, relay_departure_probs(AccessPolicy(tuple(bumped)), budget)).occupancy
        assert occ1[0] <= occ0[0] + 1e-12
        for n in range(m):
            assert occ1[n] <= occ0[n] + 1e-12
        assert sum(occ1[m:]) >= sum(occ0[m:]) - 1e-12


def test_joint_kernel_is_stochastic_and_reduces_to_primary_chain():
    # the exact (primary level, relay level) oracle behind C1b: without
    # capture the relay never fills, so the primary marginal must be
    # the plain primary chain with the direct link as its service rate
    rng = np.random.default_rng(5)
    for _ in range(5):
        lam, theta_pd = (float(x) for x in rng.uniform(0.05, 0.95, 2))
        n_p = int(rng.integers(1, 12))
        r = tuple(rng.uniform(0.05, 1.0, int(rng.integers(1, 5))))
        for theta_ps in (0.0, float(rng.uniform(0.05, 0.95))):
            receive, drain = joint_transition_matrices(lam, n_p, theta_pd,
                                                       theta_ps, r)
            kernel = receive @ drain
            assert np.abs(kernel.sum(axis=1) - 1.0).max() <= 1e-12
        receive, drain = joint_transition_matrices(lam, n_p, theta_pd, 0.0, r)
        law = stationary(receive @ drain).reshape(n_p + 1, len(r) + 1)
        ref = stationary(pu_transition_matrix(lam, theta_pd, n_p))
        assert np.abs(law.sum(axis=1) - ref).max() <= 1e-10


# -- coupled evaluation -----------------------------------------------------

def test_flat_policy_baseline_values(defaults):
    ev = evaluate_policy(defaults, AccessPolicy((1.0,) + (0.5,) * 10))
    assert ev.mu_p == pytest.approx(0.7170874011274145, abs=1e-10)
    assert ev.mu_s == pytest.approx(0.3460920102763991, abs=1e-10)
    assert ev.feasible


def test_evaluation_is_a_fixed_point(defaults, budget):
    policy = AccessPolicy((1.0, 0.9, 0.7, 0.5, 0.3, 0.1))
    cfg = dataclasses.replace(defaults, relay_queue_capacity=5)
    ev = evaluate_policy(cfg, policy)
    # one more explicit application of the update map moves nothing
    capture = budget.theta_ps * (1.0 - budget.theta_pd)
    q = pu_busy_probability(cfg.pu_arrival_rate, ev.mu_p,
                            cfg.pu_queue_capacity) * capture
    relay = relay_steady_state(q, relay_departure_probs(policy, budget))
    again = pu_departure_from_relay(budget, relay)
    assert abs(again - ev.mu_p) <= 1e-9
    assert relay.occupancy == pytest.approx(ev.relay_state.occupancy,
                                            abs=1e-9)


def test_throughput_splits_by_buffer_state(defaults, budget):
    cfg = dataclasses.replace(defaults, relay_queue_capacity=2)
    policy = AccessPolicy((1.0, 0.4, 0.8))
    ev = evaluate_policy(cfg, policy)
    occ = ev.relay_state.occupancy
    want = (budget.theta_sr * occ[0]
            + budget.theta_sr_shared * (0.4 * occ[1] + 0.8 * occ[2]))
    assert ev.mu_s == pytest.approx(want, rel=1e-12)


def test_feasibility_flag_matches_floor(defaults):
    ev = evaluate_policy(defaults, AccessPolicy((1.0,) + (1.0,) * 10))
    floor = min_departure_rate(defaults.pu_arrival_rate,
                               defaults.pu_queue_capacity,
                               defaults.loss_threshold)
    assert ev.feasible == (ev.mu_p >= floor - 1e-9)


@pytest.mark.parametrize("changes, share, feasible", [
    ({}, 0.5, True),
    ({"pu_queue_capacity": 8, "pu_arrival_rate": 0.3}, 1.0, True),
    ({"alpha": 0.15}, 1.0, False),  # the lowest equilibrium misses the floor
    ({"pu_queue_capacity": 1}, 0.5, False),  # no rate meets the threshold
])
def test_evaluation_carries_primary_scalars_and_floor_margin(
        defaults, changes, share, feasible):
    cfg = dataclasses.replace(defaults, **changes)
    ev = evaluate_policy(cfg, AccessPolicy(
        (1.0,) + (share,) * cfg.relay_queue_capacity))
    lam, n_p = cfg.pu_arrival_rate, cfg.pu_queue_capacity
    assert ev.pu_busy == pu_busy_probability(lam, ev.mu_p, n_p)
    assert ev.pu_full == pu_blocking_probability(lam, ev.mu_p, n_p)
    floor = min_departure_rate(lam, n_p, cfg.loss_threshold)
    assert ev.floor_margin == (-math.inf if floor is None else
                               ev.equilibria[0] - (floor - _FLOOR_SLACK))
    assert ev.feasible == (ev.floor_margin >= 0) == feasible


def test_idle_primary_frees_the_secondary(defaults, budget):
    cfg = dataclasses.replace(defaults, pu_arrival_rate=0.0)
    ev = evaluate_policy(cfg, AccessPolicy((1.0,) + (0.5,) * 10))
    assert ev.relay_state.occupancy[0] == pytest.approx(1.0)
    assert ev.mu_s == pytest.approx(budget.theta_sr, rel=1e-12)
    assert ev.feasible


def test_policy_size_mismatch_rejected(defaults):
    with pytest.raises(ValueError, match="probs"):
        evaluate_policy(defaults, AccessPolicy((1.0, 0.5)))


def _fig_base(alpha):
    return dataclasses.replace(SystemConfig(), alpha=alpha,
                               pu_arrival_rate=0.5, pu_queue_capacity=50,
                               gain_pd=0.01)


def test_every_equilibrium_is_listed_and_must_meet_the_floor():
    # the LP vertex the exact search once returned at alpha = 0 of the
    # time-share sweep: its target rate sits on the floor (0.50624),
    # but the map has roots near 0.4766, 0.5062 and 0.6509, and the
    # lowest is below the floor
    cfg = _fig_base(0.0)
    b = link_budget(cfg)
    policy = AccessPolicy((1.0,) + (0.0,) * 9 + (0.773,))
    ev = evaluate_policy(cfg, policy)
    floor = min_departure_rate(cfg.pu_arrival_rate, cfg.pu_queue_capacity,
                               cfg.loss_threshold)
    assert len(ev.equilibria) == 3
    assert list(ev.equilibria) == sorted(ev.equilibria)
    assert ev.mu_p in ev.equilibria
    assert ev.equilibria[0] < floor - 0.01 < floor + 0.1 < ev.equilibria[2]
    assert abs(ev.equilibria[1] - floor) < 1e-3
    capture = b.theta_ps * (1.0 - b.theta_pd)
    r = relay_departure_probs(policy, b)
    for mu in ev.equilibria:
        q = pu_busy_probability(cfg.pu_arrival_rate, mu,
                                cfg.pu_queue_capacity) * capture
        implied = pu_departure_from_relay(b, relay_steady_state(q, r))
        assert abs(implied - mu) <= 1e-9
    assert not ev.feasible


def test_reported_rate_is_the_root_reached_from_mid_interval():
    # all three roots sit above the middle of the rate interval, where
    # the map points up, so the reported one is the smallest
    cfg = _fig_base(0.0)
    b = link_budget(cfg)
    ev = evaluate_policy(cfg, AccessPolicy((1.0,) + (0.0,) * 9 + (0.773,)))
    mid = b.theta_pd + 0.5 * b.theta_ps * (1.0 - b.theta_pd)
    assert mid < ev.equilibria[0]
    assert len(ev.equilibria) == 3
    assert ev.mu_p == ev.equilibria[0]


def test_reported_rate_solves_the_fixed_point_equation():
    cfg = _fig_base(0.15)
    b = link_budget(cfg)
    policy = AccessPolicy((1.0,) + (0.25,) * cfg.relay_queue_capacity)
    ev = evaluate_policy(cfg, policy)
    q = pu_busy_probability(cfg.pu_arrival_rate, ev.mu_p,
                            cfg.pu_queue_capacity) * b.theta_ps * (
                                1.0 - b.theta_pd)
    relay = relay_steady_state(q, relay_departure_probs(policy, b))
    assert abs(pu_departure_from_relay(b, relay) - ev.mu_p) <= 1e-12
    assert ev.equilibria == (ev.mu_p,)


def test_single_equilibrium_at_the_defaults(defaults):
    ev = evaluate_policy(defaults, AccessPolicy((1.0,) + (0.5,) * 10))
    assert ev.equilibria == (ev.mu_p,)


def test_no_relay_path_has_one_equilibrium(defaults):
    cfg = dataclasses.replace(defaults, beta=0.0)
    ev = evaluate_policy(cfg, AccessPolicy((1.0,) + (0.5,) * 10))
    assert ev.equilibria == (ev.mu_p,)
