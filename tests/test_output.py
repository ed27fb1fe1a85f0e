"""Round-trip and formatting checks for the CSV / JSON / SVG writers."""

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csv_reader import read_csv
from qjc.errors import ValidationError
from qjc.output import (
    SCHEMA_VERSION,
    Table,
    format_cell,
    format_number,
    svg_line_plot,
    write_csv,
    write_json,
)


def test_format_number_is_shortest_round_trip():
    assert format_number(0.5) == "0.5"
    assert format_number(1 / 3) == "0.3333333333333333"
    assert format_number(-0.0) == "-0.0"
    assert format_number(2) == "2.0"


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_number_round_trips_every_float(x):
    assert float(format_number(x)) == x


def test_format_number_rejects_non_finite():
    with pytest.raises(ValidationError):
        format_number(math.inf)
    with pytest.raises(ValidationError):
        format_number(math.nan)


def test_format_cell_types():
    assert format_cell(True) == "true"
    assert format_cell(False) == "false"
    assert format_cell(3) == "3"
    assert format_cell("doublet:0:I") == "doublet:0:I"
    with pytest.raises(ValidationError):
        format_cell("a,b")
    with pytest.raises(ValidationError):
        format_cell("oops#")


def make_table():
    table = Table(columns=("param_value", "level_label", "re_energy", "im_energy"))
    table.add(0.0, "singlet:0", -0.5, 0.0)
    table.add(0.1, "doublet:0:I", 1.4980, -0.25)
    table.comments.append("event,crossing,1.5,-0.5+0.0j,track:0;track:2")
    return table


def test_csv_layout():
    text = write_csv(make_table())
    lines = text.splitlines()
    assert lines[0] == "param_value,level_label,re_energy,im_energy"
    assert lines[1] == "0.0,singlet:0,-0.5,0.0"
    assert lines[-1].startswith("# event,crossing")
    assert text.endswith("\n")


def test_csv_round_trip_is_byte_identical():
    text = write_csv(make_table())
    again = write_csv(read_csv(text))
    assert again == text


def row_by_row_csv(table):
    """The former writer: every cell through `format_cell`, row by row."""
    lines = [",".join(table.columns)]
    lines += [",".join(map(format_cell, row)) for row in table.rows]
    return "\n".join(lines + [f"# {comment}" for comment in table.comments]) + "\n"


CELLS = st.one_of(
    st.floats(),
    st.floats(allow_nan=False).map(np.float64),
    st.integers(-5, 5),
    st.booleans(),
    st.sampled_from(["singlet:0", "track:1", "a,b", ""]),
    st.sampled_from([1e308, -1e308, 0.0, -0.0]),
)


def outcome(func, *args):
    try:
        return func(*args)
    except ValidationError as err:
        return f"ValidationError: {err}"


@given(st.integers(1, 4).flatmap(
    lambda width: st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=6)
))
@settings(max_examples=300, deadline=None)
def test_column_passes_write_the_row_by_row_bytes(rows):
    # same text, or the same error at the same (first, in row order) bad cell;
    # an overflowing column sum (1e308 + 1e308) only means the per-cell path
    table = Table(columns=tuple(f"c{i}" for i in range(len(rows[0]) if rows else 1)))
    table.rows = [tuple(row) for row in rows]
    table.comments.append("end")
    assert outcome(write_csv, table) == outcome(row_by_row_csv, table)


def column_pass_csv(table):
    """The writer before each distinct value was formatted once: `repr` over
    a whole column of floats whose sum is finite, else `format_cell`."""
    columns = [
        map(repr if set(map(type, col)) == {float} and math.isfinite(sum(col)) else format_cell, col)
        for col in zip(*table.rows)
    ]
    lines = [",".join(table.columns), *map(",".join, zip(*columns))]
    return "\n".join(lines + [f"# {comment}" for comment in table.comments]) + "\n"


# few values, so columns repeat them: signed zeros, the smallest subnormal,
# a pair whose sum overflows, inf and nan, and every cell type, mixed
REPEATED = st.sampled_from(
    [0.0, -0.0, 5e-324, 1e308, 1.5, math.inf, -math.inf, math.nan,
     True, False, 1, 0, "0", "track:0", "a,b", ""]
)


@given(st.integers(1, 4).flatmap(
    lambda width: st.lists(
        st.lists(st.one_of(REPEATED, CELLS), min_size=width, max_size=width), max_size=24
    )
))
@settings(max_examples=500, deadline=None)
def test_distinct_values_write_the_column_pass_bytes(rows):
    table = Table(columns=tuple(f"c{i}" for i in range(len(rows[0]) if rows else 1)))
    table.rows = [tuple(row) for row in rows]
    assert outcome(write_csv, table) == outcome(column_pass_csv, table)


@pytest.mark.parametrize("column", [
    [0.0, -0.0, 0.0, -0.0],
    [-0.0, 1.5, 0.0, 1.5],
    [5e-324, -5e-324, 5e-324],
    [1e308, 1e308],
    [1e308, 1e308, math.inf],
    [1.0, math.nan, 1.0],
    [True, 1, 1.0, False, 0, 0.0, -0.0],
    ["a", "a", "b,c", "a"],
    ["", "", "x"],
])
def test_distinct_values_keep_signs_types_and_errors(column):
    table = Table(columns=("value", "row"))
    table.rows = [(value, row) for row, value in enumerate(column)]
    assert outcome(write_csv, table) == outcome(column_pass_csv, table)


def test_column_passes_raise_at_the_first_bad_cell_in_row_order():
    table = Table(columns=("a", "b"))
    table.add(1.0, math.inf)
    table.add(math.nan, 2.0)
    with pytest.raises(ValidationError, match="non-finite value inf"):
        write_csv(table)
    table = Table(columns=("a", "b"))
    table.add(1.0, np.float64("nan"))
    with pytest.raises(ValidationError, match=r"non-finite value np\.float64\(nan\)"):
        write_csv(table)


def test_csv_wrong_row_width_rejected():
    table = Table(columns=("a", "b"))
    with pytest.raises(ValidationError, match="columns"):
        table.add(1.0)


def test_json_round_trip_and_schema_version():
    document = {"command": "check", "values": [0.5, -1.25e-13], "ok": True}
    text = write_json(document)
    parsed = json.loads(text)
    assert list(parsed)[0] == "schema_version"
    assert parsed["schema_version"] == SCHEMA_VERSION
    assert write_json(parsed) == text


def test_json_rejects_nan():
    with pytest.raises(ValueError):
        write_json({"bad": math.nan})


def test_svg_is_well_formed_xml_with_polylines():
    x = [0.0, 0.5, 1.0, 1.5, 2.0]
    series = [
        ("doublet:0:I", [1.5, 1.45, 1.3, 1.1, 1.0]),
        ("doublet:0:II", [0.5, 0.55, 0.7, 0.9, 1.0]),
    ]
    text = svg_line_plot(x, series, "levels", "rho", "Re E", markers=[(2.0, 1.0)])
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    ns = {"s": "http://www.w3.org/2000/svg"}
    polylines = root.findall(".//s:polyline", ns)
    assert len(polylines) == 2
    assert root.findall(".//s:circle", ns)
    labels = [t.text for t in root.findall(".//s:text", ns)]
    assert "doublet:0:I" in labels and "rho" in labels


def test_svg_widens_a_degenerate_range():
    # one x value and a constant series: the x scale widens to [x, x + 1],
    # the y range pads by 0.05 on each side, so the point sits at mid height
    text = svg_line_plot([0.5], [("flat", [2.0])], "t", "x", "y")
    ns = {"s": "http://www.w3.org/2000/svg"}
    (polyline,) = ET.fromstring(text).findall(".//s:polyline", ns)
    assert polyline.get("points") == "56.00,240.00"


def test_svg_rejects_empty_series():
    with pytest.raises(ValidationError):
        svg_line_plot([0.0, 1.0], [], "t", "x", "y")
    with pytest.raises(ValidationError):
        svg_line_plot([], [("a", [])], "t", "x", "y")
    with pytest.raises(ValidationError, match="finite y value"):
        svg_line_plot([0.0, 1.0], [("a", [math.nan, math.inf])], "t", "x", "y")
