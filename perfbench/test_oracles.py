"""Tests of the benchmark's oracles and checks on cases solvable by hand.

    python3 -m pytest perfbench/test_oracles.py

Run from the root of a checkout; the repository's own test suite does
not collect this file.
"""

import os
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import oracles  # noqa: E402
from cogrelay import SystemConfig, policy_opt  # noqa: E402


def thetas(**values):
    base = dict.fromkeys(oracles.THETA_NAMES, 0.5)
    base.update(values)
    return base


def chain(lam, n_p, n_s):
    return SimpleNamespace(pu_arrival_rate=lam, pu_queue_capacity=n_p,
                           relay_queue_capacity=n_s, loss_threshold=0.01)


@pytest.mark.parametrize("q,r", [(0.3, 0.6), (0.9, 0.1), (0.5, 1.0)])
def test_one_level_relay_balances_its_single_cut(q, r):
    # up 0 -> 1 with q; down 1 -> 0 when the send succeeds and no capture
    # follows, r (1 - q): pi_1 = q / (q + r (1 - q))
    law = oracles.stationary_from_empty(
        oracles.relay_transition_matrix(q, [r]))
    assert law[1] == pytest.approx(q / (q + r * (1.0 - q)), abs=1e-14)
    laws = oracles.DecoupledModel(chain(0.5, 3, 1), thetas(theta_sd=r),
                                  (1.0, 0.0)).relay_laws(np.array([q]))
    assert laws[0, 1] == pytest.approx(law[1], abs=1e-14)


def test_relay_level_that_never_sends_is_a_floor():
    # level 2 cannot send, so levels 0 and 1 drain away; above it,
    # 2 -> 3 with q and 3 -> 2 with r (1 - q)
    law = oracles.stationary_from_empty(
        oracles.relay_transition_matrix(0.2, [0.5, 0.0, 0.5]))
    assert law.tolist() == pytest.approx(
        [0.0, 0.0, 0.5 * 0.8 / (0.2 + 0.5 * 0.8), 0.2 / (0.2 + 0.5 * 0.8)])


def test_no_arrivals_leave_every_queue_empty():
    cfg = chain(0.0, 5, 3)
    th = thetas(theta_pd=0.2, theta_ps=0.7, theta_sr=0.9)
    assert oracles.pu_empty_full(0.0, 0.4, 5) == (1.0, 0.0)
    model = oracles.DecoupledModel(cfg, th, (1.0, 0.3, 0.3, 0.3))
    capture = 0.7 * 0.8
    assert model.equilibria() == [(pytest.approx(0.2 + capture),
                                   pytest.approx(0.9))]
    exact = oracles.joint_figures(cfg, th, (1.0, 0.3, 0.3, 0.3))
    assert exact["relay_occupancy"].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert exact["mu_s"] == pytest.approx(0.9)
    assert exact["blocking"] == 0.0


def test_zero_capture_gives_a_plain_primary_queue():
    # one primary slot: 0 -> 1 with lam; 1 -> 0 with theta_pd (1 - lam).
    # The queue is still full after service w.p. pi_1 (1 - theta_pd).
    lam, th_pd = 0.3, 0.6
    th = thetas(theta_pd=th_pd, theta_ps=0.0, theta_sr=0.8)
    pi_1 = lam / (lam + th_pd * (1.0 - lam))
    exact = oracles.joint_figures(chain(lam, 1, 2), th, (1.0, 0.5, 0.5))
    assert exact["relay_occupancy"].tolist() == [1.0, 0.0, 0.0]
    assert exact["mu_s"] == pytest.approx(0.8)
    assert exact["blocking"] == pytest.approx(pi_1 * (1.0 - th_pd))
    assert oracles.blocking(chain(lam, 1, 2), th_pd) == pytest.approx(pi_1)


def test_zero_length_packet_reaches_full_throughput():
    cfg = SystemConfig(bits_per_bandwidth=0.0)
    th = oracles.link_thetas(cfg)
    assert set(th.values()) == {1.0}
    model = oracles.DecoupledModel(cfg, th, (1.0,) * 11)
    assert model.equilibria() == [(1.0, 1.0)]


@pytest.mark.parametrize("lam,mu,n_p", [(0.5, 0.6, 30), (0.3, 0.2, 40),
                                        (0.5, 0.5, 10), (0.2, 1.0, 5),
                                        (1.0, 0.3, 4), (0.7, 0.0, 3)])
def test_primary_cut_balance_matches_the_dense_kernel(lam, mu, n_p):
    law = oracles.stationary_from_empty(
        oracles.pu_transition_matrix(lam, mu, n_p))
    empty, full = oracles.pu_empty_full(lam, mu, n_p)
    assert empty == pytest.approx(law[0], abs=1e-12)
    assert full == pytest.approx(law[-1], abs=1e-12)


@pytest.mark.parametrize("lam,n_p", [(0.5, 10 ** 6), (0.3, 7), (0.0, 5),
                                     (1.0, 3), (0.9, 1)])
def test_array_busy_matches_the_scalar_law(lam, n_p):
    mus = np.concatenate((np.linspace(0.0, 1.0, 41), [lam]))
    expected = [1.0 - oracles.pu_empty_full(lam, mu, n_p)[0]
                for mu in mus.tolist()]
    assert oracles.pu_busy(lam, mus, n_p) == pytest.approx(expected,
                                                            abs=1e-13)


def test_link_budget_edges():
    starved = oracles.link_thetas(SystemConfig(beta=0.0))
    assert starved["theta_pd"] == starved["theta_ps"] == 0.0
    full = SystemConfig()
    th = oracles.link_thetas(full)
    snr = full.pu_power * full.gain_pd * full.distance_pd ** -2 / full.noise_power
    rate = full.bits_per_bandwidth / (full.beta * full.slot_duration)
    assert th["theta_pd"] == pytest.approx(np.exp(-(2 ** rate - 1) / snr))


def test_checks_pass_a_real_result_and_flag_a_tampered_one():
    cfg = SystemConfig(pu_queue_capacity=50, relay_queue_capacity=4)
    steps = checks.StepPolicies(cfg)
    result = policy_opt.st_policy(cfg)
    assert checks.check_st(cfg, result, steps) == []
    tampered = replace(result, evaluation=replace(
        result.evaluation, mu_s=result.evaluation.mu_s + 1e-3))
    assert any("recomputed mu_s" in p
               for p in checks.check_st(cfg, tampered, steps))
    cheap = replace(result, status="pu_infeasible")
    assert checks.check_st(cfg, cheap, steps) != []
