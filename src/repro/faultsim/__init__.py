"""IDDQ fault-simulation substrate.

The paper *assumes* an IDDQ test regime: defects raise the quiescent
current, per-module BIC sensors compare against ``IDDQ,th``, and
partitioning exists precisely because one global sensor cannot
discriminate a small defective current on top of a large circuit's
fault-free leakage (§1).  This subpackage builds that regime so the
claim is demonstrated rather than assumed:

* a bit-parallel combinational logic simulator
  (:mod:`~repro.faultsim.logic_sim`);
* IDDQ-observable defect models — bridges, gate-oxide shorts, stuck-on
  transistors (:mod:`~repro.faultsim.faults`);
* per-vector, per-module quiescent current computation
  (:mod:`~repro.faultsim.iddq`);
* coverage evaluation under a partition and threshold on the cached,
  vectorised :class:`~repro.faultsim.engine.CoverageEngine` (its
  one-shot references live in ``tests/oracles/faultsim.py``);
* pattern generation/compaction (:mod:`~repro.faultsim.patterns`) and
  the test-application-time model (:mod:`~repro.faultsim.testtime`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "logic_sim": ("LogicSimulator", "NodeValues"),
        "faults": (
            "Defect",
            "BridgingFault",
            "GateOxideShort",
            "StuckOnTransistor",
            "sample_bridging_faults",
            "sample_gate_oxide_shorts",
            "sample_stuck_on_transistors",
        ),
        "iddq": ("IDDQSimulator",),
        "engine": ("CoverageEngine",),
        "atpg": ("IDDQTestSet", "generate_iddq_tests"),
        "quality": (
            "QualityReport",
            "defect_level",
            "quality_from_coverage",
            "quality_from_defects",
        ),
        "stuck_at": ("StuckAtFault", "StuckAtSimulator", "enumerate_stuck_at_faults"),
        "coverage": ("CoverageReport",),
        "patterns": ("random_patterns", "exhaustive_patterns", "compact_patterns"),
        "testtime": ("test_application_time",),
    },
)
