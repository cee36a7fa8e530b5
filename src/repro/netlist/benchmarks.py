"""Benchmark circuits: exact C17 plus ISCAS85-profile stand-ins.

C17 is shipped verbatim (it is six NAND gates, published in full in the
paper's running example, Figs. 4-5).  C6288 is generated structurally as
a 16x16 array multiplier, which is what the original circuit is.  The
remaining ISCAS85 circuits are seeded synthetic stand-ins matched to
their published statistics (DESIGN.md §6.1 says why this preserves the
paper's evaluation), generated once from :func:`standin_config` and
shipped as ``.bench`` text under ``data/``, which loading parses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from repro.errors import NetlistError
from repro.netlist.bench import parse_bench
from repro.netlist.circuit import Circuit
from repro.netlist.generate import GeneratorConfig
from repro.netlist.multiplier import array_multiplier

__all__ = [
    "CircuitProfile",
    "ISCAS85_PROFILES",
    "TABLE1_CIRCUITS",
    "c17",
    "c17_paper_naming",
    "C17_PAPER_OPTIMUM",
    "load_iscas85",
    "standin_config",
    "table1_circuits",
]


@dataclass(frozen=True)
class CircuitProfile:
    """Published statistics of an ISCAS85 circuit (gate counts from the
    Brglez/Fujiwara distribution; depths in unit gate levels)."""

    name: str
    num_gates: int
    num_inputs: int
    num_outputs: int
    depth: int


#: Published ISCAS85 statistics used to parameterise the stand-ins.
ISCAS85_PROFILES: dict[str, CircuitProfile] = {
    "c432": CircuitProfile("c432", 160, 36, 7, 17),
    "c499": CircuitProfile("c499", 202, 41, 32, 11),
    "c880": CircuitProfile("c880", 383, 60, 26, 24),
    "c1355": CircuitProfile("c1355", 546, 41, 32, 24),
    "c1908": CircuitProfile("c1908", 880, 33, 25, 40),
    "c2670": CircuitProfile("c2670", 1193, 233, 140, 32),
    "c3540": CircuitProfile("c3540", 1669, 50, 22, 47),
    "c5315": CircuitProfile("c5315", 2307, 178, 123, 49),
    "c6288": CircuitProfile("c6288", 2406, 32, 32, 124),
    "c7552": CircuitProfile("c7552", 3512, 207, 108, 43),
}

#: The six circuits of the paper's Table 1, in table order.  The paper's
#: table header reads "C7522"; the ISCAS85 circuit is C7552 (typo in the
#: original).
TABLE1_CIRCUITS: tuple[str, ...] = ("c1908", "c2670", "c3540", "c5315", "c6288", "c7552")

#: The generated stand-ins, one ``<name>.bench`` each (package data).
DATA_DIR = Path(__file__).with_name("data")

_C17_BENCH = """
# c17 - ISCAS85, exact netlist (5 inputs, 2 outputs, 6 NAND gates)
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
"""

_C17_PAPER_BENCH = """
# c17 with the paper's Fig. 4-5 naming: gates g1..g6, inputs I1..I5.
INPUT(I1)
INPUT(I2)
INPUT(I3)
INPUT(I4)
INPUT(I5)
OUTPUT(O2)
OUTPUT(O3)
g1 = NAND(I1, I3)
g2 = NAND(I3, I4)
g3 = NAND(I2, g2)
g4 = NAND(g2, I5)
O2 = NAND(g1, g3)
O3 = NAND(g3, g4)
"""

#: The optimum 2-module partition the paper derives for C17 (Fig. 5):
#: {(1,3,5), (2,4,6)} in the paper's gate numbering.  In our paper-naming
#: netlist, gates 5 and 6 are the output NANDs O2 and O3.
C17_PAPER_OPTIMUM: tuple[frozenset[str], frozenset[str]] = (
    frozenset({"g1", "g3", "O2"}),
    frozenset({"g2", "g4", "O3"}),
)


@lru_cache(maxsize=None)
def c17() -> Circuit:
    """The exact ISCAS85 C17 benchmark (standard net numbering)."""
    return parse_bench(_C17_BENCH, name="c17")


@lru_cache(maxsize=None)
def c17_paper_naming() -> Circuit:
    """C17 with the paper's running-example naming (g1..g6, I1..I5)."""
    return parse_bench(_C17_PAPER_BENCH, name="c17-paper")


def standin_config(name: str) -> GeneratorConfig:
    """The configuration ``data/<name>.bench`` was generated from."""
    p = ISCAS85_PROFILES[name]
    return GeneratorConfig(
        p.name, p.num_gates, p.num_inputs, p.num_outputs, p.depth, seed=1995 + p.num_gates
    )


def load_iscas85(name: str) -> Circuit:
    """Load an ISCAS85 circuit or its documented stand-in.

    ``c17`` is exact; ``c6288`` is a structurally faithful 16x16 array
    multiplier; every other name parses the shipped stand-in for that
    profile (``data/<name>.bench``).  Names are case-insensitive and
    every spelling returns the same cached circuit.  Unknown names, and
    a stand-in whose file is missing, raise :class:`NetlistError`.
    """
    key = name.lower()
    if key != "c17" and key not in ISCAS85_PROFILES:
        known = ", ".join(sorted(set(ISCAS85_PROFILES) | {"c17"}))
        raise NetlistError(f"unknown ISCAS85 circuit {name!r}; known: {known}")
    return _load_circuit(key)


@lru_cache(maxsize=None)
def _load_circuit(key: str) -> Circuit:
    """The circuit for a lower-case catalogue name, built once."""
    if key == "c17":
        return c17()
    if key == "c6288":
        return array_multiplier(16, name="c6288").circuit
    path = DATA_DIR / f"{key}.bench"
    try:
        text = path.read_text()
    except OSError as exc:
        raise NetlistError(f"cannot read stand-in {key!r} from {path}: {exc.strerror}") from None
    return parse_bench(text, name=key)


def table1_circuits() -> dict[str, Circuit]:
    """All six Table 1 circuits, keyed by name, in table order."""
    return {name: load_iscas85(name) for name in TABLE1_CIRCUITS}
