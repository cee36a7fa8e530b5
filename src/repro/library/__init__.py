"""Cell library and technology data.

The paper's estimators are "evaluated using parameterized electrical
level information of the target cell library" (§1).  This subpackage
holds that information: per-cell electrical characterisation
(:class:`~repro.library.cell.CellSpec`), global technology constants
(:class:`~repro.library.technology.Technology`) and a generic CMOS-like
default characterisation standing in for the paper's SPICE data
(DESIGN.md §6.2).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "cell": ("CellSpec",),
        "library": ("CellLibrary",),
        "technology": ("Technology",),
        "default_lib": ("generic_library", "generic_technology"),
        "scaling": ("CORNERS", "scale_library", "fast_hot_corner", "slow_cold_corner"),
        "io": (
            "library_from_dict",
            "library_to_dict",
            "load_library_json",
            "save_library_json",
            "technology_from_dict",
            "technology_to_dict",
        ),
    },
)
