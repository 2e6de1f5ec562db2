import dataclasses
import math

import pytest

from _oracles import slot_by_slot_simulate
from cogrelay import (AccessPolicy, LinkBudget, SystemConfig, compare,
                      evaluate_policy, optimal_policy, simulate)
from cogrelay.mc_sim import _BLOCK

HALF = AccessPolicy((1.0,) + (0.5,) * 10)


def test_same_seed_reproduces_every_field(defaults):
    a = simulate(defaults, HALF, n_slots=20_000, seed=42, warmup_slots=500)
    b = simulate(defaults, HALF, n_slots=20_000, seed=42, warmup_slots=500)
    assert a == b
    assert a.pu_queue_histogram == b.pu_queue_histogram
    assert a.relay_queue_histogram == b.relay_queue_histogram


def test_seeds_actually_matter(defaults):
    a = simulate(defaults, HALF, n_slots=20_000, seed=1, warmup_slots=0)
    b = simulate(defaults, HALF, n_slots=20_000, seed=2, warmup_slots=0)
    assert a != b


def test_counter_bookkeeping(defaults):
    s = simulate(defaults, HALF, n_slots=30_000, seed=9, warmup_slots=0)
    assert s.slots == 30_000
    assert s.rng_seed == 9
    assert sum(s.pu_queue_histogram) == s.slots
    assert sum(s.relay_queue_histogram) == s.slots
    assert 0 <= s.pu_drops <= s.pu_arrivals
    assert 0 <= s.final_relay_queue <= defaults.relay_queue_capacity
    assert 0 <= s.final_pu_queue <= defaults.pu_queue_capacity
    assert s.measured_mu_s == pytest.approx(s.su_packets_delivered / s.slots)
    if s.pu_arrivals:
        assert s.measured_block_fraction == s.pu_drops / s.pu_arrivals


def test_primary_packets_are_conserved(defaults):
    cfg = dataclasses.replace(defaults, pu_queue_capacity=20)
    s = simulate(cfg, HALF, n_slots=50_000, seed=3, warmup_slots=0)
    busy = s.slots - s.pu_queue_histogram[0]
    departures = round(s.measured_mu_p * busy)
    assert s.pu_arrivals - s.pu_drops - departures == s.final_pu_queue


def test_idle_primary(defaults, budget):
    cfg = dataclasses.replace(defaults, pu_arrival_rate=0.0)
    s = simulate(cfg, HALF, n_slots=200_000, seed=11, warmup_slots=0)
    assert s.pu_arrivals == 0
    assert s.measured_mu_p == 0.0
    assert s.measured_block_fraction == 0.0
    # relay never receives anything, so the secondary always owns the
    # whole relaying phase
    assert s.relay_queue_histogram[0] == s.slots
    sigma = math.sqrt(budget.theta_sr * (1.0 - budget.theta_sr) / s.slots)
    assert abs(s.measured_mu_s - budget.theta_sr) <= 4.0 * sigma


def test_perfect_direct_link_never_loads_relay(defaults, budget):
    perfect = dataclasses.replace(budget, theta_pd=1.0)
    s = simulate(defaults, HALF, n_slots=50_000, seed=5, warmup_slots=0,
                 budget=perfect)
    assert s.measured_mu_p == 1.0
    assert s.relay_queue_histogram[0] == s.slots
    assert s.final_relay_queue == 0


def test_input_validation(defaults):
    with pytest.raises(ValueError, match="n_slots"):
        simulate(defaults, HALF, n_slots=0, seed=1)
    with pytest.raises(ValueError, match="warmup_slots"):
        simulate(defaults, HALF, n_slots=10, seed=1, warmup_slots=-1)
    with pytest.raises(ValueError):
        simulate(defaults, AccessPolicy((1.0, 0.5)), n_slots=10, seed=1)
    with pytest.raises(ValueError, match="seeds"):
        compare(defaults, HALF, n_slots=10, seeds=())


def test_negative_seed_is_named(defaults):
    with pytest.raises(ValueError, match="seed: must be a non-negative "
                                         "integer, got -3"):
        simulate(defaults, HALF, n_slots=10, seed=-3)


def test_non_integer_seed_is_named(defaults):
    with pytest.raises(ValueError, match="seed: must be a non-negative "
                                         "integer, got 1.5"):
        simulate(defaults, HALF, n_slots=10, seed=1.5)
    with pytest.raises(ValueError, match="seed: must be a non-negative "
                                         "integer, got '7'"):
        simulate(defaults, HALF, n_slots=10, seed="7")


_LONG = 2 * _BLOCK + 7
_POLICIES = {
    "uniform": (0.5,) * 10,
    "step": (1.0,) * 4 + (0.0,) * 6,
    "arbitrary": (0.91, 0.13, 0.47, 0.02, 0.66, 0.38, 0.999, 0.25, 0.71,
                  0.5),
    # repeated levels, including levels exactly 0 and 1
    "repeated": (0.0, 1.0, 0.3, 0.3, 1.0, 0.0, 0.3, 1.0, 0.0, 0.3),
}


@pytest.mark.parametrize(
    "n_p, lam, kind, warmup, n_slots, budget_edit", [
        (1, 0.37, "uniform", 0, _LONG, {}),
        (12, 0.37, "step", 5000, _LONG, {}),
        (10 ** 6, 0.37, "arbitrary", _BLOCK + 123, _LONG, {}),
        (12, 0.0, "uniform", 0, _LONG, {}),
        (12, 1.0, "repeated", 5000, _LONG, {}),
        (1, 1.0, "arbitrary", _BLOCK + 123, 1, {}),
        (10 ** 6, 1.0, "step", 0, 1, {}),
        (10 ** 6, 0.0, "repeated", 5000, 1, {}),
        (12, 0.37, "repeated", _BLOCK + 123, _LONG, {"theta_pd": 1.0}),
        (1, 0.37, "arbitrary", 5000, _LONG, {"theta_ps": 0.0}),
        (12, 0.8, "repeated", 0, _LONG, {"theta_pd": 0.2, "theta_ps": 0.9}),
    ])
def test_table_driven_simulator_is_bit_identical(defaults, budget, n_p, lam,
                                                  kind, warmup, n_slots,
                                                  budget_edit):
    # the slot-by-slot restatement draws the same Philox stream, so
    # every count must agree exactly, not just statistically
    cfg = dataclasses.replace(defaults, pu_queue_capacity=n_p,
                              pu_arrival_rate=lam)
    policy = AccessPolicy((1.0,) + _POLICIES[kind])
    b = dataclasses.replace(budget, **budget_edit)
    got = simulate(cfg, policy, n_slots, seed=2024, warmup_slots=warmup,
                   budget=b)
    want = slot_by_slot_simulate(cfg, policy, n_slots, seed=2024,
                                 warmup_slots=warmup, budget=b)
    for field in dataclasses.fields(want):
        assert getattr(got, field.name) == getattr(want, field.name), \
            field.name


def test_primary_histogram_ends_at_the_highest_level_visited(defaults):
    # a billion-slot buffer costs no memory: the histogram holds only
    # the levels the run reached, and the full level, never reached,
    # counts as seen in no slot
    cfg = dataclasses.replace(defaults, pu_queue_capacity=10 ** 9)
    s = simulate(cfg, HALF, n_slots=2_000, seed=4, warmup_slots=100)
    assert sum(s.pu_queue_histogram) == s.slots
    assert len(s.pu_queue_histogram) <= 100 + 2_000 + 1
    assert s.pu_queue_histogram[-1] > 0
    out = compare(cfg, HALF, n_slots=2_000, seeds=(4,), warmup_slots=100)
    assert out["per_seed"][0]["gap_full"] == out["analytic"]["full"]


def test_trajectories_track_the_fixed_point():
    cfg = dataclasses.replace(SystemConfig(), pu_arrival_rate=0.2,
                              relay_queue_capacity=3)
    policy = AccessPolicy((1.0, 0.0, 0.0, 0.0))
    out = compare(cfg, policy, n_slots=500_000, seeds=(3,))
    assert out["all_within"]
    assert out["max_tv_relay"] <= 0.01
    assert out["max_gap_mu_p"] <= 0.01
    assert out["max_gap_mu_s"] <= 0.01


def test_comparison_report_shape():
    cfg = dataclasses.replace(SystemConfig(), pu_arrival_rate=0.3,
                              pu_queue_capacity=50, relay_queue_capacity=5)
    policy = optimal_policy(cfg).policy
    out = compare(cfg, policy, n_slots=200_000, seeds=(7, 8))
    ana = out["analytic"]
    ev = evaluate_policy(cfg, policy)
    assert ana["mu_p"] == pytest.approx(ev.mu_p)
    assert ana["mu_s"] == pytest.approx(ev.mu_s)
    assert len(ana["relay_occupancy"]) == 6
    assert ana["equilibria"] == list(ev.equilibria)
    assert ana["mu_p"] in ana["equilibria"]
    assert len(out["per_seed"]) == 2
    for row in out["per_seed"]:
        assert set(row) >= {"seed", "tv_relay", "hw_tv", "gap_mu_p",
                            "gap_mu_s", "measured_mu_p", "measured_mu_s",
                            "within"}
        assert row["tv_relay"] >= 0.0
    assert out["max_tv_relay"] == max(r["tv_relay"] for r in out["per_seed"])
    assert out["max_gap_mu_p"] == max(r["gap_mu_p"] for r in out["per_seed"])


def test_occupancy_histogram_matches_chain(defaults):
    # long-run relay histogram should sit close to the analytic law
    ev = evaluate_policy(defaults, HALF)
    s = simulate(defaults, HALF, n_slots=1_000_000, seed=17)
    occ = [c / s.slots for c in s.relay_queue_histogram]
    tv = 0.5 * sum(abs(a - b)
                   for a, b in zip(occ, ev.relay_state.occupancy))
    assert tv <= 0.01
    assert abs(s.measured_mu_p - ev.mu_p) <= 0.01
    assert abs(s.measured_mu_s - ev.mu_s) <= 0.01
