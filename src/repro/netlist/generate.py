"""Seeded synthetic generator for ISCAS85-profile circuits.

The paper evaluates on the ISCAS85 benchmark suite.  The original netlist
files are not bundled here (see DESIGN.md §6), so for every benchmark we
generate a *stand-in*: a random combinational DAG matched to the
published statistics of the original — gate count, primary input/output
count, logic depth, gate-type mix and fanin distribution — from a fixed
seed.  The catalogue's stand-ins were generated here once and ship as
``.bench`` data (:mod:`repro.netlist.benchmarks`); a test regenerates
them byte for byte.

The generator takes care to produce circuits that are structurally
"ISCAS-like" rather than arbitrary random graphs:

* gates are spread over levels with a mid-heavy ("spindle") width
  profile, so transition-time sets and simultaneous-switching counts
  behave like real logic cones;
* fanins are drawn with strong locality (mostly from nearby lower
  levels), so the undirected-graph separation metric — which rewards
  clustering connected gates — is meaningful;
* no gate dangles: every gate either drives another gate or is a primary
  output, and every primary input is used.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.errors import NetlistError
from repro.netlist.builder import CircuitBuilder
from repro.netlist.circuit import Circuit
from repro.netlist.gate import GateType

__all__ = ["GeneratorConfig", "generate_iscas_like"]

#: Default gate-type mix, loosely following the ISCAS85 suite which is
#: dominated by NAND/NOT with a sprinkling of every other function.
DEFAULT_TYPE_MIX: dict[GateType, float] = {
    GateType.NAND: 0.30,
    GateType.AND: 0.16,
    GateType.NOR: 0.11,
    GateType.OR: 0.11,
    GateType.NOT: 0.15,
    GateType.BUF: 0.05,
    GateType.XOR: 0.08,
    GateType.XNOR: 0.04,
}

#: Fanin-count distribution for multi-input gates.
DEFAULT_FANIN_DIST: dict[int, float] = {2: 0.68, 3: 0.18, 4: 0.09, 5: 0.05}


@dataclass
class GeneratorConfig:
    """Parameters of a synthetic circuit.

    Attributes mirror the published ISCAS85 statistics for the circuit
    being stood in for; ``seed`` pins the construction.
    """

    name: str
    num_gates: int
    num_inputs: int
    num_outputs: int
    depth: int
    seed: int = 1995
    type_mix: dict[GateType, float] = field(default_factory=lambda: dict(DEFAULT_TYPE_MIX))
    fanin_dist: dict[int, float] = field(default_factory=lambda: dict(DEFAULT_FANIN_DIST))
    locality_window: int = 5

    def __post_init__(self) -> None:
        if self.num_gates < 2:
            raise NetlistError("generator needs at least 2 gates")
        if self.num_inputs < 1 or self.num_outputs < 1:
            raise NetlistError("generator needs at least one input and one output")
        if not 1 <= self.depth <= self.num_gates:
            raise NetlistError(
                f"depth {self.depth} must be between 1 and num_gates={self.num_gates}"
            )


def _level_sizes(config: GeneratorConfig, rng: random.Random) -> list[int]:
    """Split ``num_gates`` over ``depth`` levels with a mid-heavy profile."""
    weights = [
        1.0 + 3.0 * math.sin(math.pi * (level + 0.5) / config.depth)
        for level in range(config.depth)
    ]
    total = sum(weights)
    sizes = [max(1, int(round(config.num_gates * w / total))) for w in weights]
    # Adjust rounding drift while keeping every level non-empty.
    drift = config.num_gates - sum(sizes)
    order = list(range(config.depth))
    rng.shuffle(order)
    index = 0
    while drift != 0:
        level = order[index % config.depth]
        if drift > 0:
            sizes[level] += 1
            drift -= 1
        elif sizes[level] > 1:
            sizes[level] -= 1
            drift += 1
        index += 1
    return sizes


def _weighted_choice(rng: random.Random, table: dict) -> object:
    items = list(table.items())
    total = sum(weight for _, weight in items)
    pick = rng.random() * total
    acc = 0.0
    for value, weight in items:
        acc += weight
        if pick <= acc:
            return value
    return items[-1][0]


def _shuffle(items: list, rng: random.Random) -> None:
    """``rng.shuffle(items)``, without a method call per element.

    The same Fisher-Yates walk and the same rejection sampling over
    ``getrandbits`` as ``random.Random.shuffle``, so it consumes the
    identical draws and leaves the identical permutation and RNG state;
    the stand-ins depend on that.  Most of the stdlib shuffle's cost is
    its per-element ``_randbelow`` call, not the draws.
    """
    getrandbits = rng.getrandbits
    for i in range(len(items) - 1, 0, -1):
        bound = i + 1
        bits = bound.bit_length()
        j = getrandbits(bits)
        while j >= bound:
            j = getrandbits(bits)
        items[i], items[j] = items[j], items[i]


def generate_iscas_like(config: GeneratorConfig) -> Circuit:
    """Generate a deterministic ISCAS-like circuit for ``config``.

    The returned circuit satisfies, exactly: gate count, input count and
    depth.  The output count may exceed the request slightly when more
    gates end up sink-less than requested (they must then be outputs to
    keep the netlist well-formed); the deviation is small in practice and
    recorded by the tests.
    """
    rng = random.Random(config.seed)
    builder = CircuitBuilder(config.name)

    inputs = [f"i{k}" for k in range(config.num_inputs)]
    for name in inputs:
        builder.input(name)

    sizes = _level_sizes(config, rng)
    by_level: list[list[str]] = [list(inputs)]
    gate_counter = 0
    multi_input = [t for t in config.type_mix if t not in (GateType.NOT, GateType.BUF)]

    for level, size in enumerate(sizes, start=1):
        names: list[str] = []
        for _ in range(size):
            gate_counter += 1
            name = f"g{gate_counter}"
            gate_type = _weighted_choice(rng, config.type_mix)
            if gate_type in (GateType.NOT, GateType.BUF):
                arity = 1
            else:
                arity = _weighted_choice(rng, config.fanin_dist)
            # First fanin comes from the previous level to pin the gate's
            # level; the rest come from a local window below.
            fanins = [rng.choice(by_level[level - 1])]
            if arity > 1:
                low = max(0, level - config.locality_window)
                pool: list[str] = []
                for lvl in range(low, level):
                    pool.extend(by_level[lvl])
                pool = [p for p in pool if p not in fanins]
                _shuffle(pool, rng)
                needed = min(arity - 1, len(pool))
                fanins.extend(pool[:needed])
            if len(fanins) == 1 and gate_type not in (GateType.NOT, GateType.BUF):
                gate_type = GateType.NOT if rng.random() < 0.5 else GateType.BUF
            if len(fanins) > 1 and gate_type in (GateType.NOT, GateType.BUF):
                gate_type = rng.choice(multi_input)
            builder.gate(name, gate_type, fanins)
            names.append(name)
        by_level.append(names)

    _absorb_dangling(builder, by_level, rng)
    outputs = _choose_outputs(builder, by_level, config, rng)
    builder.outputs(outputs)
    return builder.build()


def _absorb_dangling(
    builder: CircuitBuilder, by_level: list[list[str]], rng: random.Random
) -> None:
    """Wire sink-less nets below the top level into higher-level gates.

    Works on the builder's private gate map by *replacing* gate records —
    gates are immutable, so we rebuild the few that receive extra fanins.
    Only gate types with unbounded arity receive extras.
    """
    from repro.netlist.gate import Gate

    gates = builder._gates  # builder-internal access by design: same package
    used: set[str] = set()
    for gate in gates.values():
        used.update(gate.fanins)
    extendable_types = (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR)
    # ISCAS85 tops out at 9 fanins and the cell library characterises up
    # to that arity; never grow a gate beyond it.
    max_arity = 9
    top = len(by_level) - 1
    for level in range(0, top):
        for name in by_level[level]:
            if name in used:
                continue
            # Find a higher-level gate that can absorb this net.
            candidates: list[str] = []
            for lvl in range(level + 1, top + 1):
                candidates.extend(
                    g
                    for g in by_level[lvl]
                    if gates[g].gate_type in extendable_types
                    and len(gates[g].fanins) < max_arity
                    and name not in gates[g].fanins
                )
                if len(candidates) >= 8:
                    break
            if not candidates:
                continue
            target = rng.choice(candidates)
            old = gates[target]
            gates[target] = Gate(old.name, old.gate_type, old.fanins + (name,), cell=old.cell)
            used.add(name)


def _choose_outputs(
    builder: CircuitBuilder,
    by_level: list[list[str]],
    config: GeneratorConfig,
    rng: random.Random,
) -> list[str]:
    """Pick primary outputs: all sink-less gates plus top-level fill."""
    gates = builder._gates
    used: set[str] = set()
    for gate in gates.values():
        used.update(gate.fanins)
    dangling = [
        name
        for level in by_level[1:]
        for name in level
        if name not in used
    ]
    outputs = list(dangling)
    if len(outputs) < config.num_outputs:
        pool = [
            name
            for level in reversed(by_level[1:])
            for name in level
            if name not in outputs
        ]
        outputs.extend(pool[: config.num_outputs - len(outputs)])
    return outputs
