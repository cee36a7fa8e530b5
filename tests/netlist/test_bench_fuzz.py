"""Mutation fuzzing of the ``.bench`` parser.

Every stand-in load goes through :func:`parse_bench`, and users feed it
their own files.  A corrupted file must either parse into a circuit or
fail with a typed :class:`~repro.errors.ReproError` (in practice a
``BenchFormatError`` with a line number), never with a stray
``IndexError``, ``KeyError`` or ``ValueError``.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.netlist.bench import parse_bench
from repro.netlist.benchmarks import DATA_DIR
from repro.netlist.circuit import Circuit

C432 = (DATA_DIR / "c432.bench").read_text()

#: Characters that carry meaning in ``.bench`` text, mixed with any.
_CHARS = st.one_of(
    st.sampled_from(list("()=,#\n \t") + ["INPUT", "OUTPUT", "NAND", "NOT", "g1", "i0"]),
    st.characters(),
)

_EDITS = st.tuples(
    st.sampled_from(("substitute", "delete", "insert")),
    st.integers(0, len(C432) - 1),
    _CHARS,
)


def mutate(text: str, edits) -> str:
    for kind, position, chars in edits:
        position %= len(text) or 1
        if kind == "substitute":
            text = text[:position] + chars + text[position + 1 :]
        elif kind == "delete":
            text = text[:position] + text[position + 1 :]
        else:
            text = text[:position] + chars + text[position:]
    return text


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edits=st.lists(_EDITS, min_size=1, max_size=4))
def test_mutated_c432_parses_or_raises_typed(edits):
    text = mutate(C432, edits)
    try:
        circuit = parse_bench(text, name="c432-mutant")
    except ReproError:
        return
    assert isinstance(circuit, Circuit)
    assert circuit.compiled.num_nodes == len(circuit.all_names)
