"""The shipped ISCAS85 stand-ins, as the generator writes them.

Each ``src/repro/netlist/data/<name>.bench`` is
``write_bench(generate_iscas_like(standin_config(name)))`` under a
header that names the generator, the configuration and this script.
``test_benchmarks.py`` regenerates every file and compares bytes, so a
change to the generator, its RNG stream or the writer fails there
instead of silently leaving the shipped circuits behind.  A change that
moves a stand-in on purpose rewrites the files and says why::

    PYTHONPATH=src python tests/netlist/standins.py
"""

from __future__ import annotations

import random

from repro.netlist.bench import parse_bench, write_bench
from repro.netlist.benchmarks import DATA_DIR, ISCAS85_PROFILES, standin_config
from repro.netlist.generate import generate_iscas_like

#: Every profile except c6288, which is built structurally at load time.
STANDINS: tuple[str, ...] = tuple(name for name in ISCAS85_PROFILES if name != "c6288")


def header(name: str) -> str:
    config = standin_config(name)
    return (
        f"ISCAS85 {name} stand-in: repro.netlist.generate.generate_iscas_like(\n"
        f"  GeneratorConfig(name={config.name!r}, num_gates={config.num_gates}, "
        f"num_inputs={config.num_inputs}, num_outputs={config.num_outputs},\n"
        f"                  depth={config.depth}, seed={config.seed}))\n"
        "with the default type mix, fanin distribution and locality window\n"
        "(repro.netlist.benchmarks.standin_config).  Generated; rewrite with\n"
        "  PYTHONPATH=src python tests/netlist/standins.py"
    )


def render(name: str) -> str:
    """The text of ``data/<name>.bench``."""
    return write_bench(generate_iscas_like(standin_config(name)), header=header(name))


def shuffled(name: str, seed: int = 0):
    """The shipped stand-in re-parsed with its gate lines shuffled, so
    nets are used before they are defined and file order changes."""
    lines = (DATA_DIR / f"{name}.bench").read_text().splitlines()
    is_gate = ["=" in line.split("#", 1)[0] for line in lines]
    gate_lines = [line for line, gate in zip(lines, is_gate) if gate]
    random.Random(seed).shuffle(gate_lines)
    other = [line for line, gate in zip(lines, is_gate) if not gate]
    return parse_bench("\n".join(other + gate_lines), name=f"{name}-shuffled")


def main() -> None:
    total = 0
    for name in STANDINS:
        text = render(name)
        (DATA_DIR / f"{name}.bench").write_text(text)
        total += len(text.encode())
    print(f"wrote {len(STANDINS)} stand-ins ({total} bytes) to {DATA_DIR}")


if __name__ == "__main__":
    main()
