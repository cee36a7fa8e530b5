"""A traced Table-1 row shows every layer of the paper's pipeline.

The evaluator build (with its separation, transition-time and timing
children), the start population, every ES generation's phases and the
standard baseline each open a span, and tracing changes nothing the
row computes.
"""

from __future__ import annotations

from repro import obs
from repro.experiments.table1 import run_table1


def test_traced_table1_row_has_every_layer_span():
    untraced = run_table1(("c880",), quick=True).rows
    obs.enable(trace=True)
    traced = run_table1(("c880",), quick=True).rows
    depth = {}
    for _, name, _, _, level, _, _ in obs.TRACER.spans():
        depth.setdefault(name, set()).add(level)
    assert traced == untraced
    assert depth["evaluator.build"] == {0}
    for child in ("separation", "transition_times", "timing"):
        assert depth[f"evaluator.{child}"] == {1}, child
    generations = traced[0].generations
    for name, count in (
        ("es.start", 1),
        ("es.draw", generations),
        ("es.score", generations),
        ("es.select", generations),
        ("standard.partition", 1),
    ):
        assert name in depth, name
        assert sum(1 for _ in obs.TRACER.spans(name)) == count, name
