"""Tests for CellSpec."""

import pytest

from repro.errors import LibraryError
from repro.library.cell import CellSpec


def make_cell(**overrides):
    base = dict(
        name="NAND2",
        gate_type="NAND",
        arity=2,
        delay_ns=0.5,
        peak_current_ma=0.3,
        leakage_na_min=0.08,
        leakage_na_max=0.15,
        input_cap_ff=10.0,
        output_cap_ff=13.0,
        rail_cap_ff=13.0,
        pulldown_res_ohm=3800.0,
        area=12.0,
    )
    base.update(overrides)
    return CellSpec(**base)


class TestValidation:
    def test_valid(self):
        cell = make_cell()
        assert cell.leakage_na_worst == 0.15

    @pytest.mark.parametrize(
        "field", ["delay_ns", "peak_current_ma", "input_cap_ff", "pulldown_res_ohm", "area"]
    )
    def test_positive_fields(self, field):
        with pytest.raises(LibraryError):
            make_cell(**{field: 0.0})
        with pytest.raises(LibraryError):
            make_cell(**{field: -1.0})

    def test_leakage_bounds_ordered(self):
        with pytest.raises(LibraryError):
            make_cell(leakage_na_min=0.2, leakage_na_max=0.1)
        with pytest.raises(LibraryError):
            make_cell(leakage_na_min=-0.1)

    def test_negative_arity_rejected(self):
        with pytest.raises(LibraryError):
            make_cell(arity=-1)

    @pytest.mark.parametrize("arity", [1.5, float("nan"), float("inf")])
    def test_non_integer_arity_rejected(self, arity):
        with pytest.raises(LibraryError, match="integer"):
            make_cell(arity=arity)


class TestStateLeakage:
    def test_bounds_respected(self):
        cell = make_cell()
        for state in range(4):
            leak = cell.leakage_na_for_state(state)
            assert cell.leakage_na_min <= leak <= cell.leakage_na_max

    def test_extremes(self):
        cell = make_cell()
        assert cell.leakage_na_for_state(0b00) == pytest.approx(cell.leakage_na_min)
        assert cell.leakage_na_for_state(0b11) == pytest.approx(cell.leakage_na_max)

    def test_monotone_in_popcount(self):
        cell = make_cell(arity=3, name="NAND3")
        leak0 = cell.leakage_na_for_state(0b000)
        leak1 = cell.leakage_na_for_state(0b001)
        leak3 = cell.leakage_na_for_state(0b111)
        assert leak0 <= leak1 <= leak3

    def test_extra_high_bits_ignored(self):
        cell = make_cell()
        assert cell.leakage_na_for_state(0b11) == cell.leakage_na_for_state(0b1111)

    def test_zero_arity_gives_min(self):
        cell = make_cell(arity=0, name="TIE", gate_type="TIE")
        assert cell.leakage_na_for_state(123) == cell.leakage_na_min
