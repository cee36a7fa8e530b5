"""Global technology constants for sensor sizing and constraints.

These are the knobs the paper treats as given by the target technology
and the test strategy:

* the virtual-rail perturbation limit ``r`` (paper §3.1, "typically very
  stringent, between 100mV and 300mV");
* the sensor area model ``A(Rs) = A0 + A1 / Rs`` (paper §3.1);
* the IDDQ detection threshold ``IDDQ,th`` and required discriminability
  ``d`` (paper §2, "d > 1 is required, and a typical value is 10");
* the forced separation parameter ``ρ`` for the interconnect metric
  (paper §3.3);
* sensing-time constants for the ``Δ(τ)`` settle/sense model (paper
  §3.4, fitted from SPICE in the original; closed-form here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import LibraryError

__all__ = ["Technology"]


@dataclass(frozen=True)
class Technology:
    """Technology and test-strategy constants.

    Attributes:
        name: identifier for reports.
        vdd_v: supply voltage.
        rail_limit_v: maximum virtual-rail perturbation ``r`` in volts.
        sensor_area_a0: area of one sensor's detection circuitry (area
            units) — the ``A0`` term.
        sensor_area_a1: sensing-element/bypass sizing constant in
            ohm * area-units — the ``A1`` term (area grows as ``A1/Rs``).
        iddq_threshold_ua: detection threshold ``IDDQ,th`` in uA.
        discriminability: required ratio ``d`` between the threshold and
            the worst fault-free module current.
        separation_cap: the forced separation parameter ``ρ`` — BFS
            distances are capped here and disconnected pairs count as
            this value.
        sense_time_ns: fixed sense-amplifier decision time added to every
            vector in test mode.
        decay_floor_ua: transient current level to which iDD must decay
            before sensing; sets the logarithmic settle term of ``Δ(τ)``.
        min_rs_ohm / max_rs_ohm: manufacturability bounds on the bypass
            switch ON resistance.
        grid_unit_ns: physical duration of one unit-delay grid step (the
            transition-time sets live on this grid).
    """

    name: str
    vdd_v: float
    rail_limit_v: float
    sensor_area_a0: float
    sensor_area_a1: float
    iddq_threshold_ua: float
    discriminability: float
    separation_cap: int
    sense_time_ns: float
    decay_floor_ua: float
    min_rs_ohm: float
    max_rs_ohm: float
    grid_unit_ns: float

    def __post_init__(self) -> None:
        # Written as range checks so that NaN fails them too.
        if not 0 < self.rail_limit_v < self.vdd_v < math.inf:
            raise LibraryError(
                f"rail limit must lie in (0, VDD)={self.vdd_v}, got {self.rail_limit_v}"
            )
        for field_name in (
            "sensor_area_a0",
            "sensor_area_a1",
            "iddq_threshold_ua",
            "sense_time_ns",
            "decay_floor_ua",
            "min_rs_ohm",
            "max_rs_ohm",
            "grid_unit_ns",
        ):
            if not 0 < getattr(self, field_name) < math.inf:
                raise LibraryError(f"{field_name} must be finite and > 0")
        if not 1 < self.discriminability < math.inf:
            raise LibraryError(
                f"discriminability must exceed 1 (paper §2), got {self.discriminability}"
            )
        # The separation matrix stores capped distances as uint8.
        if not (isinstance(self.separation_cap, int) and 1 <= self.separation_cap <= 255):
            raise LibraryError(
                f"separation cap rho must be an integer in [1, 255], got {self.separation_cap!r}"
            )
        if self.min_rs_ohm > self.max_rs_ohm:
            raise LibraryError("min_rs_ohm must not exceed max_rs_ohm")

    @property
    def max_module_leakage_na(self) -> float:
        """Largest fault-free module IDDQ compatible with the
        discriminability constraint: ``IDDQ,th / d`` (in nA)."""
        return self.iddq_threshold_ua * 1e3 / self.discriminability
