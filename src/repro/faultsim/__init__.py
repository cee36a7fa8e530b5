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
* coverage evaluation under a partition and threshold — the one-shot
  reference in :mod:`~repro.faultsim.coverage`, the cached vectorised
  :class:`~repro.faultsim.engine.CoverageEngine` for hot paths;
* pattern generation/compaction (:mod:`~repro.faultsim.patterns`) and
  the test-application-time model (:mod:`~repro.faultsim.testtime`).
"""

from repro.faultsim.logic_sim import LogicSimulator, NodeValues
from repro.faultsim.faults import (
    BridgingFault,
    Defect,
    GateOxideShort,
    StuckOnTransistor,
    sample_bridging_faults,
    sample_gate_oxide_shorts,
    sample_stuck_on_transistors,
)
from repro.faultsim.iddq import IDDQSimulator
from repro.faultsim.engine import CoverageEngine
from repro.faultsim.atpg import IDDQTestSet, generate_iddq_tests
from repro.faultsim.quality import (
    QualityReport,
    defect_level,
    quality_from_coverage,
    quality_from_defects,
)
from repro.faultsim.stuck_at import (
    StuckAtFault,
    StuckAtSimulator,
    enumerate_stuck_at_faults,
)
from repro.faultsim.coverage import CoverageReport, evaluate_coverage
from repro.faultsim.patterns import exhaustive_patterns, random_patterns, compact_patterns
from repro.faultsim.testtime import test_application_time

__all__ = [
    "LogicSimulator",
    "NodeValues",
    "Defect",
    "BridgingFault",
    "GateOxideShort",
    "StuckOnTransistor",
    "sample_bridging_faults",
    "sample_gate_oxide_shorts",
    "sample_stuck_on_transistors",
    "IDDQSimulator",
    "CoverageEngine",
    "IDDQTestSet",
    "generate_iddq_tests",
    "QualityReport",
    "defect_level",
    "quality_from_coverage",
    "quality_from_defects",
    "StuckAtFault",
    "StuckAtSimulator",
    "enumerate_stuck_at_faults",
    "CoverageReport",
    "evaluate_coverage",
    "random_patterns",
    "exhaustive_patterns",
    "compact_patterns",
    "test_application_time",
]
