"""Interconnect separation metric (paper §3.3).

``S(gi, gj)`` is the minimum number of graph steps between two gates in
the *undirected* circuit graph, forced to the cap ``ρ`` when the true
distance reaches ``ρ`` or no path exists.  A module's separation
``S(M)`` is the sum over all unordered gate pairs, and
``S(Π) = Σ S(Mk)``; the cost term is ``c3 = log(S(Π))``.

The metric rewards modules whose gates are tightly connected — "the
parameter decreases if many nodes ... are connected, and it is minimum
if M is a clique of the undirected circuit graph".

Implementation: a *batched* capped BFS from all gates simultaneously.
Each node carries a bitset over source gates ("which sources have
reached me"); one BFS step ORs every node's neighbour bitsets together
with a gather + ``bitwise_or.reduceat`` over chunks of whole segments
of the compiled graph's CSR adjacency.  The distance matrix is
accumulated as a level count, ``S = ρ − Σ_{k<ρ} [d ≤ k]``: after each
step the gate rows of the reached bitsets are unpacked and added into a
``uint8`` counter one block of rows at a time, and when the BFS runs out
of new nodes before ``ρ`` the remaining depths are added in one step.
Distances are symmetric, so the ``(target, source)`` rows need no
transpose.  BFS traverses *all* nodes (two gates may be close through a
shared primary input) but distances are recorded for logic gates only.
Every OR chunk and unpacked block holds about ``_BLOCK_BYTES`` of
temporaries, so they stay in cache and the matrix is the only ``n × n``
array.  For the largest Table 1 circuit (3512 gates) the matrix is
~12 MB, the build's traced peak 1.3x that, and it builds in about
0.06 s on a 2-vCPU VM — far faster than the per-gate Python BFS it
replaced (kept below as :func:`reference_separation_matrix` for the
equivalence suite) — after which every module evaluation and every
incremental move delta is pure numpy indexing.
"""

from __future__ import annotations

import numpy as np

from repro.netlist.circuit import Circuit

__all__ = ["SeparationMatrix", "module_separation", "reference_separation_matrix"]

_WORD = 64
#: Bytes of temporaries per BFS block: the gathered bitset rows of one
#: OR chunk, the unpacked gate rows of one indicator block.  Measured on
#: c3540 to c7552: from 256 KiB up builds no faster, only to a higher
#: peak.
_BLOCK_BYTES = 1 << 18


class SeparationMatrix:
    """Capped all-pairs gate distances for one circuit."""

    #: Lazily built float32 copy of :attr:`matrix` feeding the
    #: whole-matrix BLAS matmul in :meth:`sums_by_group` (class-level
    #: default covers both constructors, including :meth:`from_matrix`;
    #: small candidate sets never build it).
    _matrix_f32: np.ndarray | None = None

    def __init__(self, circuit: Circuit, cap: int):
        if cap < 1:
            raise ValueError(f"separation cap must be >= 1, got {cap}")
        if cap > 255:
            raise ValueError("separation cap above 255 not supported (uint8 storage)")
        self.cap = cap
        cg = circuit.compiled
        n = cg.num_gates
        num_words = (n + _WORD - 1) // _WORD

        # reached[v, w]: bit s of word w set iff source gate s has
        # reached node v within the steps taken so far.
        reached = np.zeros((cg.num_nodes, num_words), dtype=np.uint64)
        source_bit = np.arange(n, dtype=np.uint64)
        reached[cg.gate_node, (source_bit // _WORD).astype(np.int64)] = np.left_shift(
            np.uint64(1), source_bit % np.uint64(_WORD)
        )
        frontier = np.zeros_like(reached)

        # Rows per block of _BLOCK_BYTES: adjacency entries per OR chunk,
        # gate rows per unpack (max(1, ...) for a circuit without gates,
        # whose rows are empty).
        per_chunk = max(1, _BLOCK_BYTES // max(1, reached[0].nbytes))
        block = max(1, _BLOCK_BYTES // max(1, n))

        # reduceat segments: rows with degree zero (unused primary inputs)
        # are skipped, and the remaining rows' segments tile
        # ``adj_indices``.  Each chunk takes whole segments, starting
        # with the one that holds its first entry.
        nonzero = np.flatnonzero(np.diff(cg.adj_indptr))
        offsets = cg.adj_indptr[nonzero].astype(np.int64)
        ends = np.append(offsets, cg.adj_indices.size)
        first = np.searchsorted(
            offsets, np.arange(0, cg.adj_indices.size, per_chunk), side="right"
        )
        bounds = np.append(np.unique(first - 1), offsets.size)
        chunks = [
            (nonzero[a:b], cg.adj_indices[ends[a] : ends[b]], offsets[a:b] - ends[a])
            for a, b in zip(bounds[:-1], bounds[1:])
        ]

        # Level count: after ``depth`` steps, bit s of gate t's row is
        # [d(s, t) <= depth]; summing that indicator over depths 0..cap-1
        # gives cap - min(d, cap).  Distances are symmetric, so the
        # (target, source) rows add straight into source-major storage,
        # one block of gate rows at a time.
        matrix = np.zeros((n, n), dtype=np.uint8)
        for depth in range(cap):
            repeat = 1
            if depth + 1 < cap:
                for rows, indices, starts in chunks:
                    frontier[rows] = np.bitwise_or.reduceat(
                        reached[indices], starts, axis=0
                    )
                # Degree-zero rows keep an earlier reached set, a subset
                # of the current one.
                frontier |= reached
                if np.array_equal(frontier, reached):
                    # Nothing moves any more: every remaining depth adds
                    # the same indicator.
                    repeat = cap - depth
            for g in range(0, n, block):
                within = np.unpackbits(
                    reached[cg.gate_node[g : g + block]].view(np.uint8),
                    axis=1, count=n, bitorder="little",
                )
                if repeat > 1:
                    within *= np.uint8(repeat)
                matrix[g : g + block] += within
            if repeat > 1:
                break
            reached, frontier = frontier, reached
        np.subtract(np.uint8(cap), matrix, out=matrix)
        self.matrix = matrix

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, cap: int) -> "SeparationMatrix":
        """Rewrap a previously built distance matrix (cache restore path).

        The runtime artifact store persists :attr:`matrix` verbatim;
        restoring skips the BFS entirely, and since the payload is the
        exact byte-for-byte matrix, the restored object is
        indistinguishable from a fresh build.
        """
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"separation matrix must be square, got {matrix.shape}")
        if matrix.dtype != np.uint8:
            raise ValueError(f"separation matrix must be uint8, got {matrix.dtype}")
        if not 1 <= cap <= 255:
            raise ValueError(f"separation cap must be in [1, 255], got {cap}")
        instance = object.__new__(cls)
        instance.cap = cap
        instance.matrix = matrix
        return instance

    def distance(self, g1: int, g2: int) -> int:
        """Capped distance between two dense gate indices."""
        return int(self.matrix[g1, g2])

    def sum_to_group(self, gate: int, group: np.ndarray) -> float:
        """Σ distance(gate, h) for h in ``group`` (gate itself excluded if
        present — its self-distance is 0 so exclusion is automatic)."""
        if group.size == 0:
            return 0.0
        return float(self.matrix[gate, group].astype(np.int64).sum())

    def module_sum(self, group: np.ndarray) -> float:
        """``S(M)``: sum of capped distances over unordered pairs."""
        if group.size < 2:
            return 0.0
        # Rows then columns, summed as exact int64 without an int64 copy.
        total = self.matrix[group][:, group].sum(dtype=np.int64)
        return float(total / 2)

    def sums_by_group(
        self, gates: np.ndarray, group_of_gate: np.ndarray, num_groups: int
    ) -> np.ndarray:
        """``Σ distance(g, h)`` for every ``g`` in ``gates`` and every group.

        ``group_of_gate`` assigns each dense gate index a group id in
        ``[0, num_groups)`` (negative = excluded).  Returns an int64
        ``(len(gates), num_groups)`` matrix — the batched form of
        :meth:`sum_to_group`, exact in any order (integer distances).
        One BLAS matmul against a group-indicator matrix scores every
        (gate, group) pair of a whole candidate set at once: distances
        are integers ≤ cap, so every partial sum is an integer of at
        most ``n·cap`` — below 2**24 for any circuit this matrix can
        hold in memory (n < 65,793 at cap 255) — and the float32 dot
        product is exact regardless of summation order.
        """
        gates = np.asarray(gates, dtype=np.int64)
        out = np.zeros((len(gates), num_groups), dtype=np.int64)
        if gates.size == 0:
            return out
        group_of_gate = np.asarray(group_of_gate, dtype=np.int64)
        valid = np.nonzero(group_of_gate >= 0)[0]
        if valid.size == 0:
            return out
        n = self.matrix.shape[0]
        if n * self.cap >= 2**24:
            raise ValueError(
                f"{n} gates at cap {self.cap}: separation sums could "
                "reach 2**24 and would not be exact in float32"
            )
        indicator = np.zeros((n, num_groups), dtype=np.float32)
        indicator[valid, group_of_gate[valid]] = 1.0
        # Both branches compute exact-integer float sums (lossless int64
        # assignment), so they are bit-identical; the split is purely a
        # cost choice.  Sets of fewer than n/2 distinct gates (annealing
        # blocks, KL swap pools) cast only the unique rows they gather
        # and run a (U, n) x (n, K) matmul; larger ones amortise one
        # sgemm over a whole-matrix float32 copy, built on first use and
        # kept (4x the uint8 matrix: 49 MB on c7552).  With one BLAS
        # thread the copy's matmul catches up with the gather near
        # U = 0.6 n on c1908 to c7552.
        unique, inverse = np.unique(gates, return_inverse=True)
        if 2 * unique.size < n:
            rows = self.matrix[unique].astype(np.float32)
            out[:] = (rows @ indicator)[inverse]
        else:
            if self._matrix_f32 is None:
                self._matrix_f32 = self.matrix.astype(np.float32)
            out[:] = (self._matrix_f32 @ indicator)[gates]
        return out


def reference_separation_matrix(circuit: Circuit, cap: int) -> np.ndarray:
    """One capped Python BFS per gate — the executable specification the
    batched builder is tested against."""
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


def module_separation(circuit: Circuit, gates, cap: int) -> float:
    """One-shot ``S(M)`` by name (builds the matrix; prefer caching
    :class:`SeparationMatrix` when evaluating many modules)."""
    matrix = SeparationMatrix(circuit, cap)
    idx = np.asarray([circuit.gate_index[g] for g in gates], dtype=np.int64)
    return matrix.module_sum(idx)
