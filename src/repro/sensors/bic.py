"""BIC sensor sizing (paper §3.1).

The virtual-rail perturbation of module ``Mi`` is approximated by
``Rs,i · îDD,max,i`` and limited to the technology's ``r``; since the
requirement is stringent, the paper simply fixes::

    Rs,i = r / îDD,max,i

The sensor area follows the model ``A_i = A0 + A1 / Rs,i`` — a constant
detection-circuitry term plus a sensing-element/bypass term that grows
as the switch resistance shrinks (a wider MOS switch is a bigger MOS
switch).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConstraintError
from repro.library.technology import Technology

__all__ = ["BICSensor", "size_sensor", "size_sensors"]


@dataclass(frozen=True)
class BICSensor:
    """One sized sensor: everything downstream models need.

    Attributes:
        module_id: the module this sensor monitors.
        rs_ohm: bypass switch ON resistance.
        area: sensor area in technology units (``A0 + A1/Rs``).
        cs_ff: parasitic capacitance at the virtual rail (sum of the
            module cells' rail junction capacitances).
        tau_ns: sensing time constant ``τ = Rs · Cs``.
        max_current_ma: the ``îDD,max`` the sensor was sized for.
        rail_perturbation_v: resulting worst-case rail excursion
            (== the constraint limit unless Rs was clamped).
        rs_clamped: True when the manufacturability bounds overrode the
            constraint-derived resistance.
    """

    module_id: int
    rs_ohm: float
    area: float
    cs_ff: float
    tau_ns: float
    max_current_ma: float
    rail_perturbation_v: float
    rs_clamped: bool


def size_sensor(
    technology: Technology,
    module_id: int,
    max_current_ma: float,
    rail_cap_ff: float,
) -> BICSensor:
    """Size the BIC sensor of one module.

    The unclamped design point is ``Rs = r / îDD,max``.  When that falls
    below ``min_rs_ohm`` the module draws too much transient current for
    any manufacturable switch — the sensor is clamped and flagged, and
    the partition constraint check treats the module as infeasible.
    Modules quiet enough to allow very large switches are clamped to
    ``max_rs_ohm`` (a bigger resistance would save no area: the ``A1/Rs``
    term is already negligible there).
    """
    if max_current_ma < 0:
        raise ConstraintError(f"negative module current {max_current_ma} mA")
    if max_current_ma == 0.0:
        rs = technology.max_rs_ohm
        clamped = False
    else:
        # r [V] / i [mA] = kOhm; convert to ohm.
        rs = technology.rail_limit_v / (max_current_ma * 1e-3)
        clamped = False
        if rs < technology.min_rs_ohm:
            rs = technology.min_rs_ohm
            clamped = True
        elif rs > technology.max_rs_ohm:
            rs = technology.max_rs_ohm
    area = technology.sensor_area_a0 + technology.sensor_area_a1 / rs
    cs_ff = max(rail_cap_ff, 0.0)
    tau_ns = rs * cs_ff * 1e-6  # ohm * fF = 1e-15 s = 1e-6 ns
    return BICSensor(
        module_id=module_id,
        rs_ohm=rs,
        area=area,
        cs_ff=cs_ff,
        tau_ns=tau_ns,
        max_current_ma=max_current_ma,
        rail_perturbation_v=rs * max_current_ma * 1e-3,
        rs_clamped=clamped,
    )


def size_sensors(
    technology: Technology,
    max_current_ma: np.ndarray,
    rail_cap_ff: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised :func:`size_sensor` over module-indexed arrays.

    Returns ``(rs_ohm, area, cs_ff, tau_ns, rs_clamped)``; every element
    matches the scalar sizing bit for bit (same IEEE operations).
    """
    current = np.asarray(max_current_ma, dtype=np.float64)
    if (current < 0).any():
        bad = float(current[current < 0][0])
        raise ConstraintError(f"negative module current {bad} mA")
    rs = np.full(current.shape, technology.max_rs_ohm)
    np.divide(
        technology.rail_limit_v, current * 1e-3, out=rs, where=current > 0.0
    )
    clamped = (current > 0.0) & (rs < technology.min_rs_ohm)
    rs = np.clip(rs, technology.min_rs_ohm, technology.max_rs_ohm)
    area = technology.sensor_area_a0 + technology.sensor_area_a1 / rs
    cs = np.maximum(np.asarray(rail_cap_ff, dtype=np.float64), 0.0)
    tau = rs * cs * 1e-6
    return rs, area, cs, tau, clamped
