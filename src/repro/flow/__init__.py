"""End-to-end synthesis flow (the paper's "automatic incorporation of
the sensors using parameterized BIC cells").

:func:`~repro.flow.synthesis.synthesize_iddq_testable` takes a circuit
and produces an :class:`~repro.flow.design.IDDQDesign`: an optimised
partition, one sized BIC sensor per module, the sensorised netlist and a
human-readable report.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "design": ("IDDQDesign",),
        "synthesis": ("synthesize_iddq_testable",),
        "report": ("format_table", "render_evaluation", "render_design"),
        "compare": ("MethodComparison", "compare_methods"),
        "io": (
            "partition_to_dict",
            "partition_from_dict",
            "save_partition_json",
            "load_partition_json",
            "design_summary_dict",
            "save_design_summary_json",
        ),
    },
)
