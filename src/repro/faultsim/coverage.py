"""IDDQ fault coverage under a partition (paper §1-§2 motivation).

The discriminability mechanism, made operational: a sensor's decision
threshold cannot sit inside the fault-free current band of the logic it
monitors, or good dies fail.  Each module sensor therefore uses the
*effective* threshold::

    th_eff,i = max(IDDQ_th, d · max_v IDDQ_nd,i(v))

— the nominal threshold, pushed up when the module's own background
leakage (times the required safety factor ``d``) encroaches on it.  A
defect is detected when, for at least one vector, at least one observing
module measures ``background + defect current >= th_eff``.

This is exactly why the paper partitions: one global sensor on a large
CUT has a big background, hence a raised threshold, hence misses small
defect currents; per-module sensors keep ``th_eff == IDDQ_th`` (that is
the discriminability constraint Γ) and catch them.

Detection and coverage run on the cached, vectorised
:class:`~repro.faultsim.engine.CoverageEngine`; this module holds the
report it returns and the threshold rule.  The one-shot reference
implementations (fresh simulator, per-defect Python loop) that the
engine must reproduce exactly live in ``tests/oracles/faultsim.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.library.technology import Technology

__all__ = ["CoverageReport", "effective_thresholds_ua"]


@dataclass(frozen=True)
class CoverageReport:
    """Coverage of one defect list under one partition and pattern set."""

    num_defects: int
    num_detected: int
    detected_ids: tuple[str, ...]
    undetected_ids: tuple[str, ...]
    num_patterns: int
    num_modules: int
    thresholds_ua: Mapping[int, float]

    @property
    def coverage(self) -> float:
        return self.num_detected / self.num_defects if self.num_defects else 1.0

    @property
    def worst_threshold_ua(self) -> float:
        return max(self.thresholds_ua.values())

    def summary(self) -> str:
        return (
            f"{self.num_detected}/{self.num_defects} defects detected "
            f"({100 * self.coverage:.1f}%) with {self.num_patterns} patterns, "
            f"{self.num_modules} module sensor(s), worst effective threshold "
            f"{self.worst_threshold_ua:.2f} uA"
        )


def effective_thresholds_ua(
    fault_free: Mapping[int, np.ndarray], technology: Technology
) -> dict[int, float]:
    """Per-module effective threshold given fault-free background series."""
    nominal = technology.iddq_threshold_ua
    d = technology.discriminability
    return {
        module: max(nominal, d * float(series.max()))
        for module, series in fault_free.items()
    }
