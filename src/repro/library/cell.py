"""Per-cell electrical characterisation.

Each :class:`CellSpec` carries the handful of electrical numbers the
paper's estimators consume:

* ``peak_current_ma`` — the maximum transient supply current drawn while
  the cell switches; summing these over simultaneously switching gates
  gives the module's worst-case transient current (paper §3.1);
* ``leakage_na_min`` / ``leakage_na_max`` — quiescent (IDDQ) leakage
  bounds over input states; the worst case drives the discriminability
  constraint (paper §2), the state-dependent interpolation drives the
  fault simulator;
* ``delay_ns`` and ``output_cap_ff`` / ``pulldown_res_ohm`` — nominal
  delay plus the RC quantities entering the delay-degradation model
  (paper §3.2, parameters ``Cg`` and ``Rg``);
* ``rail_cap_ff`` — junction capacitance the cell contributes to the
  virtual rail, i.e. its share of ``Cs`` (paper §3.4);
* ``area`` — cell area, used only in reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import LibraryError

__all__ = ["CellSpec"]


@dataclass(frozen=True)
class CellSpec:
    """Electrical characterisation of a single library cell."""

    name: str
    gate_type: str
    arity: int
    delay_ns: float
    peak_current_ma: float
    leakage_na_min: float
    leakage_na_max: float
    input_cap_ff: float
    output_cap_ff: float
    rail_cap_ff: float
    pulldown_res_ohm: float
    area: float

    def __post_init__(self) -> None:
        positive = {
            "delay_ns": self.delay_ns,
            "peak_current_ma": self.peak_current_ma,
            "input_cap_ff": self.input_cap_ff,
            "output_cap_ff": self.output_cap_ff,
            "rail_cap_ff": self.rail_cap_ff,
            "pulldown_res_ohm": self.pulldown_res_ohm,
            "area": self.area,
        }
        # Written as range checks so that NaN fails them too.
        for field_name, value in positive.items():
            if not 0 < value < math.inf:
                raise LibraryError(
                    f"cell {self.name!r}: {field_name} must be finite and > 0, got {value}"
                )
        if not 0 <= self.leakage_na_min <= self.leakage_na_max < math.inf:
            raise LibraryError(
                f"cell {self.name!r}: leakage bounds must be finite with 0 <= min <= max, "
                f"got [{self.leakage_na_min}, {self.leakage_na_max}]"
            )
        if not (isinstance(self.arity, int) and self.arity >= 0):
            raise LibraryError(f"cell {self.name!r}: arity must be an integer >= 0")

    @property
    def leakage_na_worst(self) -> float:
        """Worst-case quiescent leakage — what the discriminability
        constraint must budget for."""
        return self.leakage_na_max

    def leakage_na_for_state(self, input_bits: int) -> float:
        """State-dependent quiescent leakage for the fault simulator.

        Real leakage depends on which transistors are off for the applied
        input state; absent SPICE data we interpolate between the
        characterised bounds by the fraction of inputs held high.  The
        exact shape is irrelevant to the reproduction (only the bounds
        enter the constraint), but state dependence makes the IDDQ
        measurements realistically non-constant across vectors.
        """
        if self.arity == 0:
            return self.leakage_na_min
        ones = bin(input_bits & ((1 << self.arity) - 1)).count("1")
        fraction = ones / self.arity
        return self.leakage_na_min + (self.leakage_na_max - self.leakage_na_min) * fraction
