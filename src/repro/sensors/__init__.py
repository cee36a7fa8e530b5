"""Built-in current (BIC) sensor models (paper Fig. 1, §3).

* :mod:`~repro.sensors.bic` — sensor sizing: bypass-switch ON resistance
  from the virtual-rail constraint, the ``A0 + A1/Rs`` area model and the
  sensing time constant ``τ = Rs·Cs``;
* :mod:`~repro.sensors.degradation` — gate delay degradation ``δ(g,t)``
  caused by the shared virtual rail;
* :mod:`~repro.sensors.sensing` — behavioural test-mode model: iDD decay,
  threshold comparison, PASS/FAIL;
* :mod:`~repro.sensors.insertion` — netlist transform adding per-module
  sensors, virtual rails and the test monitor tree.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "bic": ("BICSensor", "size_sensor"),
        "degradation": (
            "DelayDegradationModel",
            "FirstOrderDegradation",
            "SecondOrderDegradation",
        ),
        "sensing": ("SenseOutcome", "settle_time_ns", "sense_module"),
    },
)
