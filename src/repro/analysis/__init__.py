"""Logic-level estimators (paper §3).

Everything the partitioner's cost function and constraints need, computed
from the gate-level netlist plus cell-library data:

* transition-time sets ``T(g)`` over the unit-delay grid
  (:mod:`~repro.analysis.transition_times`);
* worst-case module transient current (:mod:`~repro.analysis.current`);
* critical-path timing with and without sensors
  (:mod:`~repro.analysis.timing`);
* capped BFS separation in the undirected circuit graph
  (:mod:`~repro.analysis.separation`);
* worst-case quiescent leakage (:mod:`~repro.analysis.leakage`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "levels": ("gates_by_level", "reverse_levels"),
        "transition_times": ("TransitionTimes", "transition_time_masks", "times_from_mask"),
        "current": ("GateElectricals", "module_current_profile", "module_max_current"),
        "timing": ("IncrementalTiming", "critical_path_delay", "nominal_gate_delays"),
        "paths": ("CriticalPath", "extract_critical_path"),
        "separation": ("SeparationMatrix", "module_separation"),
        "leakage": ("gate_leakages", "module_leakage"),
    },
)
