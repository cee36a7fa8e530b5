"""Process-corner and derating transforms for cell libraries.

The discriminability constraint must hold for every shipped die, i.e. at
the *worst-case leakage corner* (fast process, high temperature —
leakage grows by orders of magnitude across corners), while the rail
perturbation and delay matter most at the fast/high-current corner.
These helpers derive corner libraries from a nominal characterisation so
the flow can be run with the appropriate margins, as a production DFT
methodology would.
"""

from __future__ import annotations

import dataclasses

from repro.errors import LibraryError
from repro.library.library import CellLibrary

__all__ = ["scale_library", "fast_hot_corner", "slow_cold_corner", "CORNERS"]


def scale_library(
    library: CellLibrary,
    name: str | None = None,
    leakage_factor: float = 1.0,
    delay_factor: float = 1.0,
    current_factor: float = 1.0,
) -> CellLibrary:
    """Uniformly scale leakage / delay / peak current of every cell.

    Factors must be positive; capacitances, resistances and areas are
    corner-invariant to first order and left untouched.
    """
    for label, factor in (
        ("leakage_factor", leakage_factor),
        ("delay_factor", delay_factor),
        ("current_factor", current_factor),
    ):
        if factor <= 0:
            raise LibraryError(f"{label} must be > 0, got {factor}")
    cells = [
        dataclasses.replace(
            cell,
            leakage_na_min=cell.leakage_na_min * leakage_factor,
            leakage_na_max=cell.leakage_na_max * leakage_factor,
            delay_ns=cell.delay_ns * delay_factor,
            peak_current_ma=cell.peak_current_ma * current_factor,
        )
        for cell in library
    ]
    return CellLibrary(name or f"{library.name}-scaled", cells)


def fast_hot_corner(library: CellLibrary) -> CellLibrary:
    """Fast process, high temperature: the leakage worst case.

    Gates are ~20 % faster and draw ~15 % more transient current, but
    leak 5x more — this is the corner the discriminability constraint
    must be budgeted for.
    """
    return scale_library(
        library,
        name=f"{library.name}-ff-hot",
        leakage_factor=5.0,
        delay_factor=0.8,
        current_factor=1.15,
    )


def slow_cold_corner(library: CellLibrary) -> CellLibrary:
    """Slow process, low temperature: the timing worst case."""
    return scale_library(
        library,
        name=f"{library.name}-ss-cold",
        leakage_factor=0.4,
        delay_factor=1.25,
        current_factor=0.9,
    )


#: Named corner constructors, for sweeps.
CORNERS = {
    "nominal": lambda library: library,
    "ff-hot": fast_hot_corner,
    "ss-cold": slow_cold_corner,
}
