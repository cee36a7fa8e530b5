"""Round-trip and mutation-fuzz tests for library/technology JSON
serialisation."""

import copy
import dataclasses
import functools
import json
import math
import operator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import LibraryError, ReproError
from repro.library.default_lib import generic_library, generic_technology
from repro.library.io import (
    library_from_dict,
    library_to_dict,
    load_library_json,
    save_library_json,
    technology_from_dict,
    technology_to_dict,
)


def test_library_dict_round_trip(library):
    data = library_to_dict(library)
    again = library_from_dict(data)
    assert again.name == library.name
    assert len(again) == len(library)
    for cell in library:
        assert again.cell(cell.name) == cell


def test_library_file_round_trip(tmp_path, library):
    path = tmp_path / "lib.json"
    save_library_json(library, path)
    again = load_library_json(path)
    assert len(again) == len(library)
    assert again.cell("NAND2") == library.cell("NAND2")


def test_malformed_library_data_rejected():
    with pytest.raises(LibraryError, match="malformed"):
        library_from_dict({"name": "x"})
    with pytest.raises(LibraryError):
        library_from_dict({"name": "x", "cells": [{"name": "incomplete"}]})


def test_technology_dict_round_trip(technology):
    data = technology_to_dict(technology)
    again = technology_from_dict(data)
    assert again == technology


def test_malformed_technology_rejected():
    with pytest.raises(LibraryError, match="malformed"):
        technology_from_dict({"name": "x"})


def test_json_is_pure_data(technology):
    text = json.dumps(technology_to_dict(technology))
    assert technology_from_dict(json.loads(text)) == technology


def test_undecodable_library_file_rejected(tmp_path):
    path = tmp_path / "lib.json"
    for data in (b"{", b"\xff\xfe{"):
        path.write_bytes(data)
        with pytest.raises(LibraryError, match="malformed library file"):
            load_library_json(path)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["delay_ns", "leakage_na_max"])
def test_non_finite_cell_numbers_rejected(library, field, value):
    data = library_to_dict(library)
    data["cells"][0][field] = value
    with pytest.raises(LibraryError, match="finite"):
        library_from_dict(data)


@pytest.mark.parametrize("field", ["iddq_threshold_ua", "discriminability", "vdd_v"])
def test_non_finite_technology_numbers_rejected(technology, field):
    for value in (math.nan, math.inf):
        with pytest.raises(LibraryError):
            technology_from_dict({**technology_to_dict(technology), field: value})


@pytest.mark.parametrize("cap", [0, 256, 2.5, math.nan, math.inf])
def test_separation_cap_outside_uint8_integers_rejected(technology, cap):
    with pytest.raises(LibraryError, match="separation cap"):
        technology_from_dict({**technology_to_dict(technology), "separation_cap": cap})


#: Replacement values of every JSON type, the non-finite floats included.
_ODD_VALUES = ("x", None, True, [], {}, [1.0], -1, 0, math.nan, math.inf, -math.inf)


def _paths(doc, prefix=()):
    """The key path of every value nested in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@st.composite
def _mutants(draw, doc):
    """``doc`` as JSON bytes after byte flips, a truncation, a deleted
    key or a value swapped for one of another type or a non-finite one."""
    text = json.dumps(doc).encode()
    kind = draw(st.sampled_from(("flip", "truncate", "delete", "swap")))
    if kind == "flip":
        data = bytearray(text)
        for _ in range(draw(st.integers(1, 4))):
            data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
        return bytes(data)
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    doc = copy.deepcopy(doc)
    *path, key = draw(st.sampled_from(list(_paths(doc))))
    parent = functools.reduce(operator.getitem, path, doc)
    if kind == "delete":
        del parent[key]
    else:
        parent[key] = draw(st.sampled_from(_ODD_VALUES))
    return json.dumps(doc).encode()


def _assert_finite(record):
    """Every numeric field of an accepted cell or technology is finite."""
    for field in dataclasses.fields(record):
        if field.type in ("int", "float"):
            assert math.isfinite(getattr(record, field.name)), (record, field.name)


_GENERIC_LIBRARY = library_to_dict(generic_library())
_GENERIC_TECHNOLOGY = technology_to_dict(generic_technology())


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(data=_mutants(_GENERIC_LIBRARY))
def test_mutated_library_json_loads_or_raises_typed(tmp_path, data):
    path = tmp_path / "lib.json"
    path.write_bytes(data)
    try:
        library = load_library_json(path)
    except ReproError:
        return
    for cell in library:
        _assert_finite(cell)


@settings(max_examples=300, deadline=None)
@given(data=_mutants(_GENERIC_TECHNOLOGY))
def test_mutated_technology_json_loads_or_raises_typed(data):
    # The package reads technologies from decoded dicts only, so a
    # mutant that is not JSON any more has nothing left to test.
    try:
        decoded = json.loads(data)
    except ValueError:
        return
    try:
        technology = technology_from_dict(decoded)
    except ReproError:
        return
    _assert_finite(technology)
