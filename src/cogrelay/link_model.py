"""Physical-layer model for a cognitive relay deployment.

A primary transmitter P sends packets to its destination D.  A secondary
node S sits between the two, overhears P during the first (receiving)
phase of each slot, and may relay captured packets during the second
phase while also serving its own traffic.  Every link is Rayleigh
faded, so a transmission succeeds with a probability that depends on
the link distance, the transmit power and the fraction of the slot the
transmission is allowed to occupy.

This module turns a :class:`SystemConfig` into the six slot-level
success probabilities the queueing layer consumes.  Everything here is
closed form and cheap; the expensive work happens downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "SystemConfig",
    "LinkBudget",
    "config_field_errors",
    "success_probability",
    "link_budget",
]


@dataclass(frozen=True)
class SystemConfig:
    """Full description of one deployment.

    Powers are in watts, distances in metres, ``slot_duration`` in
    seconds.  ``bits_per_bandwidth`` is the packet size divided by the
    system bandwidth (bits per Hz, i.e. seconds of airtime per bit of
    spectral efficiency), which is the only way the two enter the rate
    condition.  Channel gains are mean Rayleigh fading powers, linear
    scale; command-line front ends accept dB and convert before
    constructing this object.

    ``beta`` is the fraction of the slot given to the receiving phase.
    ``alpha`` is the fraction of the remaining time the secondary
    spends relaying rather than sending its own packets.
    """

    pu_power: float = 0.1
    su_power: float = 0.1
    slot_duration: float = 0.1
    beta: float = 0.5
    alpha: float = 0.5
    bits_per_bandwidth: float = 3.0e-3
    noise_power: float = 1.0e-5
    path_loss_exponent: float = 2.0
    distance_pd: float = 200.0
    distance_ps: float = 100.0
    distance_sd: float = 100.0
    distance_sr: float = 100.0
    gain_pd: float = 0.1
    gain_ps: float = 0.1
    gain_sd: float = 0.1
    gain_sr: float = 0.1
    pu_arrival_rate: float = 0.5
    pu_queue_capacity: int = 1_000_000
    relay_queue_capacity: int = 10
    loss_threshold: float = 0.01

    def __post_init__(self):
        errors = config_field_errors({
            name: getattr(self, name) for name in self.__dataclass_fields__})
        if errors:
            raise ValueError(errors[0])


def config_field_errors(values: dict) -> list:
    """All constraint violations in a candidate field mapping.

    One message per violated field, formatted ``field: reason``.  Used
    both by :class:`SystemConfig` itself and by config-file validation,
    which wants the complete list rather than the first failure.
    """
    errors = []

    def bad(name, msg):
        errors.append(f"{name}: {msg}")

    for name in ("pu_power", "su_power", "slot_duration", "noise_power",
                 "path_loss_exponent", "distance_pd", "distance_ps",
                 "distance_sd", "distance_sr", "gain_pd", "gain_ps",
                 "gain_sd", "gain_sr"):
        if not 0.0 < values[name] < math.inf:
            bad(name, f"must be positive and finite, got {values[name]}")
    for name in ("beta", "alpha", "pu_arrival_rate"):
        if not 0.0 <= values[name] <= 1.0:
            bad(name, f"must lie in [0, 1], got {values[name]}")
    if not 0.0 <= values["bits_per_bandwidth"] < math.inf:
        bad("bits_per_bandwidth", "must be nonnegative and finite, got "
            f"{values['bits_per_bandwidth']}")
    for name in ("pu_queue_capacity", "relay_queue_capacity"):
        v = values[name]
        if not (isinstance(v, int) and v >= 1):
            bad(name, f"must be an integer >= 1, got {v!r}")
    if not 0.0 < values["loss_threshold"] < 1.0:
        bad("loss_threshold",
            f"must lie in (0, 1), got {values['loss_threshold']}")
    return errors


@dataclass(frozen=True)
class LinkBudget:
    """Slot-level success probabilities for every transmission mode.

    ``theta_pd`` and ``theta_ps`` cover the receiving phase (primary to
    destination, primary to secondary).  ``theta_sd`` is relaying with
    the whole second phase; ``theta_sd_shared`` is relaying squeezed
    into the time-shared portion of it.  ``theta_sr`` and
    ``theta_sr_shared`` are the same pair for the secondary's own
    packets (full second phase versus the leftover share).
    """

    theta_pd: float
    theta_ps: float
    theta_sd: float
    theta_sd_shared: float
    theta_sr: float
    theta_sr_shared: float

    @property
    def capture(self) -> float:
        """Probability that a primary packet misses D but reaches S."""
        return self.theta_ps * (1.0 - self.theta_pd)

    def as_dict(self) -> dict:
        return {
            "theta_pd": self.theta_pd,
            "theta_ps": self.theta_ps,
            "theta_sd": self.theta_sd,
            "theta_sd_shared": self.theta_sd_shared,
            "theta_sr": self.theta_sr,
            "theta_sr_shared": self.theta_sr_shared,
        }


def success_probability(power: float, distance: float, gain: float,
                        airtime: float, bits_per_bandwidth: float,
                        noise_power: float, path_loss_exponent: float) -> float:
    """Probability that a packet crosses one Rayleigh link in one try.

    A transmission of ``bits_per_bandwidth`` bit-seconds per Hz within
    ``airtime`` seconds needs the instantaneous capacity to clear
    ``bits_per_bandwidth / airtime`` bits/s/Hz, which under Rayleigh
    fading with mean gain ``gain`` and distance-based attenuation
    ``distance ** -path_loss_exponent`` happens with probability

        exp(-noise * (2 ** (b / airtime) - 1) / (power * attenuation * gain))

    Conventions at the edges: zero (or negative) airtime cannot carry a
    packet and yields 0.0, while a zero-length packet always succeeds
    and yields 1.0.  The exponent is evaluated with ``expm1`` so that
    small rate demands do not lose precision, and arguments past the
    overflow point, or a mean SNR that underflows to zero, return
    exactly 0.0; a mean SNR that overflows is infinite and yields 1.0.
    """
    if airtime <= 0.0:
        return 0.0
    if bits_per_bandwidth == 0.0:
        return 1.0
    x = bits_per_bandwidth / airtime
    # 2**x - 1 overflows float64 past x ~ 1024; the success probability
    # is indistinguishable from zero long before that.
    if x * math.log(2.0) > 700.0:
        return 0.0
    snr_needed = math.expm1(x * math.log(2.0))
    try:
        attenuation = distance ** -path_loss_exponent
    except OverflowError:
        return 1.0
    mean_snr = power * attenuation * gain / noise_power
    if mean_snr == 0.0:
        return 0.0
    return math.exp(-snr_needed / mean_snr)


@lru_cache(maxsize=16384)
def link_budget(config: SystemConfig) -> LinkBudget:
    """Evaluate all six success probabilities for one configuration.

    The receiving phase lasts ``beta * slot_duration`` and carries both
    receiving-phase links.  The second phase lasts the remainder; the
    shared variants only get ``alpha`` (relay) or ``1 - alpha`` (own
    traffic) of it.  Degenerate phase splits simply produce zeros for
    the transmissions they starve, so callers never special-case
    ``beta`` in {0, 1} or ``alpha`` in {0, 1}.  The budget depends on
    the (frozen, hashable) configuration alone, so it is memoized.
    """
    c = config
    t_recv = c.beta * c.slot_duration
    t_second = (1.0 - c.beta) * c.slot_duration

    def theta(power, distance, gain, airtime):
        return success_probability(power, distance, gain, airtime,
                                   c.bits_per_bandwidth, c.noise_power,
                                   c.path_loss_exponent)

    return LinkBudget(
        theta_pd=theta(c.pu_power, c.distance_pd, c.gain_pd, t_recv),
        theta_ps=theta(c.pu_power, c.distance_ps, c.gain_ps, t_recv),
        theta_sd=theta(c.su_power, c.distance_sd, c.gain_sd, t_second),
        theta_sd_shared=theta(c.su_power, c.distance_sd, c.gain_sd,
                              c.alpha * t_second),
        theta_sr=theta(c.su_power, c.distance_sr, c.gain_sr, t_second),
        theta_sr_shared=theta(c.su_power, c.distance_sr, c.gain_sr,
                              (1.0 - c.alpha) * t_second),
    )
