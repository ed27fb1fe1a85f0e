"""Canonical result serialization: CSV tables, JSON, and static SVG plots.

Numbers are written with `repr(float(x))` -- the shortest decimal string
that parses back to the same binary64 value -- so reading a file and
re-serializing it reproduces the bytes exactly.  That property is what the
figure-regression workflow diffs against, and the round-trip is covered by
tests rather than promised.

CSV dialect: '.' decimal point, ',' separator, one header row, and
'#'-prefixed comment rows (used for sweep events and status trailers).
`write_csv` formats each distinct value of a column once (a mostly distinct
float column cell by cell); a column with a bad cell goes row by row instead.
JSON documents always carry schema_version = 1.  SVG is produced by a tiny
string emitter, one element writer (`_element`), on purpose: the plots are
static artifacts and a plotting library would be a contract risk, not a saving.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

from .errors import ValidationError

SCHEMA_VERSION = 1


def format_number(value) -> str:
    """Shortest round-tripping decimal form of a float (canonical)."""
    as_float = float(value)
    if not math.isfinite(as_float):
        raise ValidationError(f"cannot serialize non-finite value {value!r}")
    return repr(as_float)


_CSV_STRUCTURE = re.compile(r"[,\n\r#]")


def format_cell(value) -> str:
    # floats first: they are nearly every cell of a table
    if isinstance(value, float):
        return format_number(value)
    if isinstance(value, str):
        if _CSV_STRUCTURE.search(value):
            raise ValidationError(f"cell {value!r} contains CSV structure characters")
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format_number(value)


@dataclass
class Table:
    """A small column-labeled table plus trailing comment lines."""

    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    comments: list[str] = field(default_factory=list)

    def add(self, *cells):
        if len(cells) != len(self.columns):
            raise ValidationError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(tuple(cells))


def _format_column(column: tuple):
    """The column's cells formatted, each distinct value once where that is exact:
    in a column of one builtin type, equal cells are equal strings but for the
    signed zeros (True == 1 == 1.0 share a dict key, so mixed columns do not)."""
    kinds = set(map(type, column))
    if len(kinds) == 1 and kinds <= {float, str, int, bool}:
        distinct = set(column)
        # `repr` alone formats finite floats (an overflowing sum only means `format_cell`)
        finite = kinds == {float} and math.isfinite(sum(distinct))
        if finite and 2 * len(distinct) > len(column):  # mostly distinct: a lookup costs more
            return map(repr, column)
        try:
            formatted = dict(zip(distinct, map(repr if finite else format_cell, distinct)))
        except ValidationError:
            pass  # the row-order pass below raises it from the first bad cell
        else:
            if 0.0 in formatted and float in kinds:  # 0.0 == -0.0: zeros take their own repr
                return [formatted[value] if value else repr(value) for value in column]
            return map(formatted.__getitem__, column)
    return map(format_cell, column)


def write_csv(table: Table) -> str:
    # a bad cell's column is a lazy map, run row by row: the error names the first in row order
    columns = [_format_column(column) for column in zip(*table.rows)]
    lines = [",".join(table.columns), *map(",".join, zip(*columns))]
    return "\n".join(lines + [f"# {comment}" for comment in table.comments]) + "\n"


def write_json(document: dict) -> str:
    """Canonical JSON: schema_version injected first, two-space indent."""
    body = {"schema_version": SCHEMA_VERSION}
    body.update(document)
    return json.dumps(body, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# SVG emitter

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

_WIDTH, _HEIGHT = 720, 480
_MARGIN = 56


def _coord(value: float) -> str:
    return f"{value:.2f}"


def _scale(lo: float, hi: float, pix_lo: float, pix_hi: float):
    """The map from [lo, hi] onto pixels.  An empty span widens to lo + 1.0;
    one that lo + 1.0 cannot widen, at |lo| above 2**53, maps to the middle."""
    if hi <= lo:
        hi = lo + 1.0
    return lambda value: pix_lo + ((value - lo) / (hi - lo) if hi > lo else 0.5) * (pix_hi - pix_lo)


def _element(tag: str, body: str | None = None, **attrs) -> str:
    """One SVG element: attributes in call order but those set to None, `_` in
    a name written `-` (`font_family` is `font-family`), self-closing without a
    body.  Nothing is escaped."""
    pairs = (f'{name.replace("_", "-")}="{value}"' for name, value in attrs.items() if value is not None)
    head = " ".join([tag, *pairs])
    return f"<{head}/>" if body is None else f"<{head}>{body}</{tag}>"


def _label(body, x, y, size: int, anchor: str | None = None, **after) -> str:
    """A sans-serif text element."""
    return _element(
        "text", body, x=x, y=y, text_anchor=anchor, font_family="sans-serif", font_size=size, **after
    )


def svg_line_plot(
    x_values,
    series: list[tuple[str, list[float]]],
    title: str,
    x_label: str,
    y_label: str,
    markers: list[tuple[float, float]] | None = None,
) -> str:
    """A multi-polyline plot with axes, tick extremes, legend, and markers.

    `series` holds (label, y-values) pairs over the shared x grid; markers
    are (x, y) points drawn as circles (event locations).
    """
    xs = [float(x) for x in x_values]
    if not xs or not series:
        raise ValidationError("plot needs at least one x value and one series")
    all_y = [float(y) for _, ys in series for y in ys if math.isfinite(y)]
    if not all_y:
        raise ValidationError("plot needs at least one finite y value")
    x_scale = _scale(min(xs), max(xs), _MARGIN, _WIDTH - _MARGIN)
    pad = 0.05 * (max(all_y) - min(all_y) or 1.0)
    y_scale = _scale(min(all_y) - pad, max(all_y) + pad, _HEIGHT - _MARGIN, _MARGIN)

    # axes, their labels and the extreme tick labels
    x0, y0 = _MARGIN, _HEIGHT - _MARGIN
    x1, y1 = _WIDTH - _MARGIN, _MARGIN
    parts = [
        _element("rect", width=_WIDTH, height=_HEIGHT, fill="white"),
        _label(title, _WIDTH // 2, 24, 16, "middle"),
        _element("line", x1=x0, y1=y0, x2=x1, y2=y0, stroke="black"),
        _element("line", x1=x0, y1=y0, x2=x0, y2=y1, stroke="black"),
        _label(x_label, (x0 + x1) // 2, _HEIGHT - 12, 13, "middle"),
        _label(y_label, 16, (y0 + y1) // 2, 13, "middle", transform=f"rotate(-90 16 {(y0 + y1) // 2})"),
    ]
    for value, px in ((min(xs), x0), (max(xs), x1)):
        parts.append(_label(format_number(value), px, y0 + 18, 11, "middle"))
    for value in (min(all_y), max(all_y)):
        parts.append(_label(format_number(value), x0 - 6, _coord(y_scale(value)), 11, "end"))
    # polylines and legend
    for index, (label, ys) in enumerate(series):
        color = _PALETTE[index % len(_PALETTE)]
        points = " ".join(
            f"{_coord(x_scale(x))},{_coord(y_scale(float(y)))}"
            for x, y in zip(xs, ys)
            if math.isfinite(float(y))
        )
        parts.append(_element("polyline", points=points, fill="none", stroke=color, stroke_width=1.5))
        parts.append(_label(label, x1 - 150, _MARGIN + 16 * index, 11, fill=color))
    for mx, my in markers or []:
        parts.append(
            _element("circle", cx=_coord(x_scale(mx)), cy=_coord(y_scale(my)), r=4, fill="none",
                     stroke="black", stroke_width=1.5)
        )
    body = "\n".join(["", *parts, ""])
    svg = _element("svg", body, xmlns="http://www.w3.org/2000/svg", width=_WIDTH, height=_HEIGHT,
                   viewBox=f"0 0 {_WIDTH} {_HEIGHT}")
    return svg + "\n"
