"""The one CSV writer, and so the one place that knows the format: header
first, LF line endings, strings verbatim, numbers to 9 significant digits."""

from typing import Iterable, Sequence

NUMBER = "%.9g"


def write_csv(destination, header: str, rows: Iterable[Sequence]) -> None:
    """Write header and rows; the first row's field types fix every row's."""
    rows = list(rows)
    template = ",".join("%s" if isinstance(field, str) else NUMBER
                        for field in (rows[0] if rows else ()))
    lines = [header] + [template % tuple(row) for row in rows]
    with open(destination, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
