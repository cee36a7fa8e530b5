"""Gate-level netlist substrate.

This subpackage provides the circuit model that the whole reproduction is
built on: a directed graph of logic gates (:class:`~repro.netlist.circuit.Circuit`),
an ISCAS ``.bench`` reader/writer, fluent construction helpers, the exact
C17 benchmark, a structural array-multiplier generator (the C6288
stand-in) and a seeded synthetic generator for ISCAS85-profile circuits.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "gate": ("Gate", "GateType"),
        "circuit": ("Circuit", "CircuitStats"),
        "compiled": ("CompiledGraph", "compile_circuit", "csr_gather"),
        "builder": ("CircuitBuilder",),
        "bench": ("parse_bench", "parse_bench_file", "write_bench", "write_bench_file"),
        "benchmarks": (
            "ISCAS85_PROFILES",
            "TABLE1_CIRCUITS",
            "C17_PAPER_OPTIMUM",
            "CircuitProfile",
            "c17",
            "c17_paper_naming",
            "load_iscas85",
            "table1_circuits",
        ),
        "generate": ("generate_iscas_like", "GeneratorConfig"),
        "multiplier": ("array_multiplier",),
        "arrays": ("WaveArray", "wave_array"),
        "adders": ("full_adder_gates", "half_adder_gates"),
        "transforms": ("buffer_high_fanout", "sweep_buffers", "extract_subcircuit"),
    },
)
