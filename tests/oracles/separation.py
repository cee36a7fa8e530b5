"""Reference separation matrix: one capped Python BFS per gate.

:class:`~repro.analysis.separation.SeparationMatrix` replaced it with a
batched, bitset-parallel BFS and must reproduce its matrix byte for
byte.
"""

from __future__ import annotations

import numpy as np

from repro.netlist.circuit import Circuit


def reference_separation_matrix(circuit: Circuit, cap: int) -> np.ndarray:
    """The capped gate-to-gate distance matrix, one BFS per gate."""
    names = circuit.all_names
    node_index = {name: i for i, name in enumerate(names)}
    adjacency: list[list[int]] = [[] for _ in names]
    for name, neighbours in circuit.undirected_adjacency.items():
        adjacency[node_index[name]] = [node_index[n] for n in neighbours]
    gate_index = circuit.gate_index
    node_to_gate = np.full(len(names), -1, dtype=np.int64)
    for name, g in gate_index.items():
        node_to_gate[node_index[name]] = g
    n = len(gate_index)
    matrix = np.full((n, n), cap, dtype=np.uint8)
    visited = np.full(len(names), -1, dtype=np.int64)
    for name, g in gate_index.items():
        start = node_index[name]
        visited[start] = g
        frontier = [start]
        row = matrix[g]
        row[g] = 0
        for dist in range(1, cap):
            nxt: list[int] = []
            for node in frontier:
                for nbr in adjacency[node]:
                    if visited[nbr] != g:
                        visited[nbr] = g
                        gate_id = node_to_gate[nbr]
                        if gate_id >= 0:
                            row[gate_id] = dist
                        nxt.append(nbr)
            if not nxt:
                break
            frontier = nxt
    return matrix
