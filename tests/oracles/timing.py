"""Reference longest path: the level-by-level scatter-max sweep.

:class:`LevelizedTiming` re-times the whole circuit with one
``np.maximum.at`` scatter over the edges entering each level.  It shares
no code with :class:`~repro.analysis.timing.IncrementalTiming`, whose
full sweep, cone walk and stacked retime must all equal it bit for bit
(max/add are exact), and it is the ``D_BIC`` of the dict-based
``ReferenceEvaluationState``.
"""

from __future__ import annotations

import numpy as np

from repro.netlist.circuit import Circuit


class LevelizedTiming:
    """Per-level edge lists for an O(depth) numpy longest path.

    Edges from primary inputs carry arrival 0 and are omitted — a gate
    fed only by inputs starts at its own delay.
    """

    def __init__(self, circuit: Circuit):
        cg = circuit.compiled
        # Per level: the level's gates, and for each edge entering it the
        # position of its sink in the level and its driving gate.
        self._levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for group in cg.level_groups:
            fanin_gate = cg.node_gate[group.fanins].astype(np.int64)
            keep = fanin_gate >= 0
            dst_pos = np.repeat(
                np.arange(len(group.nodes), dtype=np.int64), group.counts
            )
            gate_idx = cg.node_gate[group.nodes].astype(np.int64)
            self._levels.append((gate_idx, dst_pos[keep], fanin_gate[keep]))
        self.num_gates = cg.num_gates

    def arrival_times(self, delays: np.ndarray) -> np.ndarray:
        """Arrival time at each gate's output for the given per-gate delays."""
        if delays.shape != (self.num_gates,):
            raise ValueError(
                f"delays must have shape ({self.num_gates},), got {delays.shape}"
            )
        arrival = np.zeros(self.num_gates, dtype=np.float64)
        for gate_idx, dst_pos, src in self._levels:
            base = np.zeros(len(gate_idx), dtype=np.float64)
            if src.size:
                np.maximum.at(base, dst_pos, arrival[src])
            arrival[gate_idx] = base + delays[gate_idx]
        return arrival

    def critical_path_delay(self, delays: np.ndarray) -> float:
        """Longest path delay under the given per-gate delays."""
        arrival = self.arrival_times(delays)
        return float(arrival.max()) if arrival.size else 0.0


def reference_timing(circuit: Circuit) -> LevelizedTiming:
    """The circuit's :class:`LevelizedTiming`, cached on its compiled
    graph, as the package caches its own engine."""
    cg = circuit.compiled
    cached = cg.__dict__.get("_reference_timing")
    if cached is None:
        cached = LevelizedTiming(circuit)
        object.__setattr__(cg, "_reference_timing", cached)
    return cached
