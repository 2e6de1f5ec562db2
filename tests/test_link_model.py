import dataclasses
import math
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from cogrelay import (AccessPolicy, SystemConfig, cpt_policy, evaluate_policy,
                      link_budget, optimal_policy, st_policy,
                      success_probability)
from cogrelay.experiments_cli import main
from cogrelay.link_model import config_field_errors

DEFAULTS_CFG = str(Path(__file__).resolve().parent.parent / "configs"
                   / "defaults.cfg")

# Values frozen from the baseline configuration: symmetric 100 m links
# at -10 dB, 200 m primary-to-destination, half-slot phases.
THETA_LINK = 0.653993668731022
THETA_SHARED = 0.4200638206749516
THETA_PD = 0.18293389266999885
THETA_PD_WEAK = 4.1970269580570129e-8


def test_baseline_budget_values(budget):
    assert budget.theta_ps == pytest.approx(THETA_LINK, rel=1e-12)
    assert budget.theta_sd == pytest.approx(THETA_LINK, rel=1e-12)
    assert budget.theta_sr == pytest.approx(THETA_LINK, rel=1e-12)
    assert budget.theta_sd_shared == pytest.approx(THETA_SHARED, rel=1e-12)
    assert budget.theta_sr_shared == pytest.approx(THETA_SHARED, rel=1e-12)
    assert budget.theta_pd == pytest.approx(THETA_PD, rel=1e-12)


def test_weak_direct_link_value():
    cfg = dataclasses.replace(SystemConfig(), gain_pd=0.01)
    assert link_budget(cfg).theta_pd == pytest.approx(THETA_PD_WEAK, rel=1e-12)


def test_shared_below_full(budget):
    assert budget.theta_sd_shared < budget.theta_sd
    assert budget.theta_sr_shared < budget.theta_sr


def test_as_dict_covers_all_modes(budget):
    d = budget.as_dict()
    assert set(d) == {"theta_pd", "theta_ps", "theta_sd", "theta_sd_shared",
                      "theta_sr", "theta_sr_shared"}
    assert d["theta_pd"] == budget.theta_pd


def test_zero_airtime_never_succeeds():
    assert success_probability(0.1, 100.0, 0.1, 0.0, 3e-3, 1e-5, 2.0) == 0.0
    assert success_probability(0.1, 100.0, 0.1, -1.0, 3e-3, 1e-5, 2.0) == 0.0


def test_zero_payload_always_succeeds():
    assert success_probability(0.1, 100.0, 0.1, 0.05, 0.0, 1e-5, 2.0) == 1.0


def test_hopeless_rate_underflows_to_zero():
    # rate demand so high the exponent would overflow exp on its own
    v = success_probability(0.1, 100.0, 0.1, 1e-9, 3e-3, 1e-5, 2.0)
    assert v == 0.0


positive = st.floats(min_value=1e-3, max_value=1e3,
                     allow_nan=False, allow_infinity=False)


@given(power=positive, factor=st.floats(min_value=1.01, max_value=10.0))
def test_more_power_helps(power, factor):
    lo = success_probability(power, 100.0, 0.1, 0.05, 3e-3, 1e-5, 2.0)
    hi = success_probability(power * factor, 100.0, 0.1, 0.05, 3e-3, 1e-5, 2.0)
    assert hi >= lo


@given(dist=st.floats(min_value=1.0, max_value=500.0),
       factor=st.floats(min_value=1.01, max_value=5.0))
def test_more_distance_hurts(dist, factor):
    near = success_probability(0.1, dist, 0.1, 0.05, 3e-3, 1e-5, 2.0)
    far = success_probability(0.1, dist * factor, 0.1, 0.05, 3e-3, 1e-5, 2.0)
    assert far <= near


@given(airtime=st.floats(min_value=1e-4, max_value=1.0),
       factor=st.floats(min_value=1.01, max_value=10.0))
def test_more_airtime_helps(airtime, factor):
    short = success_probability(0.1, 100.0, 0.1, airtime, 3e-3, 1e-5, 2.0)
    long = success_probability(0.1, 100.0, 0.1, airtime * factor, 3e-3, 1e-5, 2.0)
    assert long >= short
    assert 0.0 <= short <= 1.0


def test_defaults_construct():
    cfg = SystemConfig()
    assert cfg.pu_arrival_rate == 0.5
    assert cfg.pu_queue_capacity == 1_000_000
    assert cfg.relay_queue_capacity == 10
    assert cfg.loss_threshold == 0.01


@pytest.mark.parametrize("field,value,fragment", [
    ("beta", 1.5, "beta"),
    ("alpha", -0.1, "alpha"),
    ("pu_arrival_rate", 2.0, "pu_arrival_rate"),
    ("pu_power", 0.0, "pu_power"),
    ("noise_power", -1e-5, "noise_power"),
    ("distance_ps", 0.0, "distance_ps"),
    ("gain_sd", -0.1, "gain_sd"),
    ("pu_queue_capacity", 0, "pu_queue_capacity"),
    ("relay_queue_capacity", -3, "relay_queue_capacity"),
    ("loss_threshold", 0.0, "loss_threshold"),
    ("loss_threshold", 1.0, "loss_threshold"),
    ("bits_per_bandwidth", -1e-3, "bits_per_bandwidth"),
    ("noise_power", math.inf, "noise_power"),
    ("distance_pd", math.inf, "distance_pd"),
])
def test_invalid_field_raises_by_name(field, value, fragment):
    with pytest.raises(ValueError, match=fragment):
        dataclasses.replace(SystemConfig(), **{field: value})


def test_field_errors_collects_everything():
    values = {f.name: getattr(SystemConfig(), f.name)
              for f in dataclasses.fields(SystemConfig)}
    values["beta"] = 2.0
    values["su_power"] = -1.0
    values["relay_queue_capacity"] = 0
    errors = config_field_errors(values)
    assert len(errors) == 3
    joined = " ".join(errors)
    for name in ("beta", "su_power", "relay_queue_capacity"):
        assert name in joined


def test_capacity_is_strictly_integer():
    with pytest.raises(ValueError, match="pu_queue_capacity"):
        dataclasses.replace(SystemConfig(), pu_queue_capacity=2.0)


def test_degenerate_phase_splits():
    all_recv = link_budget(dataclasses.replace(SystemConfig(), beta=1.0))
    assert all_recv.theta_sd == 0.0
    assert all_recv.theta_sr == 0.0
    assert all_recv.theta_pd > 0.0

    no_recv = link_budget(dataclasses.replace(SystemConfig(), beta=0.0))
    assert no_recv.theta_pd == 0.0
    assert no_recv.theta_ps == 0.0
    assert no_recv.theta_sd > 0.0

    own_only = link_budget(dataclasses.replace(SystemConfig(), alpha=0.0))
    assert own_only.theta_sd_shared == 0.0
    assert own_only.theta_sr_shared == pytest.approx(own_only.theta_sr)


def test_success_probability_is_finite_everywhere():
    for scale in (1e-12, 1e-6, 1.0, 1e6):
        v = success_probability(0.1, 100.0, 0.1, 0.05 * scale, 3e-3, 1e-5, 2.0)
        assert math.isfinite(v) and 0.0 <= v <= 1.0
    # a mean SNR that underflows to zero: a huge distance, a subnormal
    # gain, a huge path-loss exponent, an infinite noise power
    for distance, gain, noise, exponent in ((1e200, 0.1, 1e-5, 2.0),
                                            (200.0, 1e-320, 1e-5, 2.0),
                                            (200.0, 0.1, 1e-5, 400.0),
                                            (200.0, 0.1, math.inf, 2.0)):
        v = success_probability(0.1, distance, gain, 0.05, 3e-3, noise,
                                exponent)
        assert v == 0.0


@pytest.mark.parametrize("distance", [5e-324, 1e-300, 1e-200])
@pytest.mark.parametrize("field", ["distance_pd", "distance_ps",
                                   "distance_sd", "distance_sr"])
def test_tiny_distance_makes_a_certain_link(field, distance, capsys):
    # distance ** -2 overflows below about 1e-154: the mean SNR is
    # infinite, so the link always succeeds, and nothing downstream
    # sees anything but finite numbers
    cfg = dataclasses.replace(SystemConfig(), **{field: distance})
    b = link_budget(cfg)
    for link, theta in b.as_dict().items():  # distance_pd sets theta_pd, ...
        assert (theta == 1.0) == link.startswith("theta_" + field[-2:])
        assert 0.0 < theta <= 1.0
    ev = evaluate_policy(cfg, AccessPolicy((1.0,) * 11))
    assert math.isfinite(ev.mu_p) and math.isfinite(ev.mu_s)
    for search in (optimal_policy, cpt_policy, st_policy):
        r = search(cfg)
        assert math.isfinite(r.mu_s) and math.isfinite(r.objective)
    rc = main(["evaluate", "--config", DEFAULTS_CFG,
               "--set", f"{field}={distance!r}"])
    assert rc == 0
    assert "mu_s = " in capsys.readouterr().out
