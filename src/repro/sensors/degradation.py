"""Gate delay degradation through the shared virtual rail (paper §3.2).

A gate discharging its load through the module's bypass switch sees an
extra series resistance; when ``n(t)`` gates switch simultaneously their
currents share the same switch, multiplying the excursion.  The paper
derives the degradation factor ``δ(g, t)`` from "a second order
electrical network model having as parameters Rs, Cs, Cg, Rg and n(t)"
— the exact closed form is lost to the OCR of the source text, so we
reconstruct it from the same network (DESIGN.md §6.4):

* first order, the discharge resistance grows from ``Rg`` to
  ``Rg + n(t)·Rs``, giving ``δ = n(t)·Rs / Rg``;
* second order, the virtual-rail capacitance ``Cs`` absorbs the first
  part of the transient and damps the excursion by
  ``1 / (1 + (Rs·Cs)/(Rg·Cg))``.

Both variants are provided; the ordering of partitions under either is
what the optimiser consumes, and the ablation bench compares them.
Degraded gate delays are then ``D_BIC(g,t) = D(g)·(1 + δ(g,t))``.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

__all__ = [
    "DelayDegradationModel",
    "FirstOrderDegradation",
    "SecondOrderDegradation",
]


class DelayDegradationModel(Protocol):
    """Computes ``δ`` for arrays of gates sharing one sensor.

    Args mirror the paper's parameter list: ``n`` simultaneously
    switching gates, bypass resistance ``rs_ohm``, rail capacitance
    ``cs_ff``, per-gate load ``cg_ff`` and discharge resistance
    ``rg_ohm``.
    """

    def delta(
        self,
        n: np.ndarray | float,
        rs_ohm: float,
        cs_ff: float,
        cg_ff: np.ndarray,
        rg_ohm: np.ndarray,
    ) -> np.ndarray: ...


class FirstOrderDegradation:
    """``δ = n · Rs / Rg`` — series-resistance-only model."""

    #: Pure elementwise numpy ops: safe to call with broadcast-shaped
    #: arguments (e.g. ``(C, 1)`` candidate params against ``(1, G)``
    #: gate vectors).  The batched kernels of
    #: :mod:`repro.partition.state` key on this flag.
    broadcasts = True

    def delta(self, n, rs_ohm, cs_ff, cg_ff, rg_ohm):
        n = np.asarray(n, dtype=np.float64)
        return n * rs_ohm / np.asarray(rg_ohm, dtype=np.float64)


class SecondOrderDegradation:
    """Second-order model: series resistance damped by the rail capacitance.

    ``δ = (n · Rs / Rg) / (1 + (Rs·Cs) / (Rg·Cg))``

    Large modules have large ``Cs`` (every cell contributes junction
    capacitance to the rail), which softens the per-gate impact — the
    behaviour the paper's second-order network captures.
    """

    #: See :class:`FirstOrderDegradation.broadcasts`.
    broadcasts = True

    def delta(self, n, rs_ohm, cs_ff, cg_ff, rg_ohm):
        n = np.asarray(n, dtype=np.float64)
        cg = np.asarray(cg_ff, dtype=np.float64)
        rg = np.asarray(rg_ohm, dtype=np.float64)
        first_order = n * rs_ohm / rg
        damping = 1.0 + (rs_ohm * cs_ff) / (rg * cg)
        return first_order / damping
