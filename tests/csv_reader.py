"""Reader for the CSV dialect that `qjc.output.write_csv` writes.

The program only writes CSV; the tests read it back to check columns and
round trips.
"""

from qjc.errors import ValidationError
from qjc.output import Table


def read_csv(text: str) -> Table:
    """Parse the dialect written by `write_csv`; cells come back as strings."""
    lines = text.splitlines()
    if not lines:
        raise ValidationError("empty CSV document")
    table = Table(columns=tuple(lines[0].split(",")))
    for line in lines[1:]:
        if not line.strip():
            continue
        if line.startswith("#"):
            table.comments.append(line[1:].strip())
            continue
        cells = tuple(line.split(","))
        if len(cells) != len(table.columns):
            raise ValidationError(
                f"row {line!r} has {len(cells)} cells, expected {len(table.columns)}"
            )
        table.rows.append(cells)
    return table
