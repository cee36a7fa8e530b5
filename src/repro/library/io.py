"""JSON (de)serialisation for cell libraries and technologies.

Keeps the characterisation as pure data so a real SPICE-derived library
can replace the generic one without touching code.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.errors import LibraryError
from repro.library.cell import CellSpec
from repro.library.library import CellLibrary
from repro.library.technology import Technology

__all__ = [
    "library_to_dict",
    "library_from_dict",
    "save_library_json",
    "load_library_json",
    "technology_to_dict",
    "technology_from_dict",
]


def library_to_dict(library: CellLibrary) -> dict:
    return {
        "name": library.name,
        "cells": [dataclasses.asdict(cell) for cell in library],
    }


def library_from_dict(data: dict) -> CellLibrary:
    try:
        cells = [CellSpec(**cell) for cell in data["cells"]]
        return CellLibrary(data["name"], cells)
    except (KeyError, TypeError) as exc:
        raise LibraryError(f"malformed library data: {exc}") from exc


def save_library_json(library: CellLibrary, path: str | Path) -> None:
    Path(path).write_text(json.dumps(library_to_dict(library), indent=2) + "\n")


def load_library_json(path: str | Path) -> CellLibrary:
    try:
        data = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise LibraryError(f"malformed library file {path}: {exc}") from exc
    return library_from_dict(data)


def technology_to_dict(technology: Technology) -> dict:
    return dataclasses.asdict(technology)


def technology_from_dict(data: dict) -> Technology:
    try:
        return Technology(**data)
    except TypeError as exc:
        raise LibraryError(f"malformed technology data: {exc}") from exc
