"""Machine-readable experiment reports with byte-deterministic output.

A report is metadata (command, parameters, seed, tool version) plus ordered
rows.  CSV and JSON renderings of the same report carry the same content;
rendering the same report twice yields identical bytes (no timestamps, keys
sorted, fixed format version).

Parameter values and row cells are scalars: str, int, bool, Fraction, float
or None; any other value, a container included, raises ``TypeError``.  JSON
rows rely on it: one call of the C JSON encoder writes every row with one key
per line, and only the rows' braces are re-indented, which matches
``json.dumps(..., indent=2)`` for flat rows only.
"""

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction

from . import __version__

FORMAT_VERSION = 1

__all__ = ["FORMAT_VERSION", "ExperimentReport"]


def _plain(value):
    kind = type(value)
    if kind is str or kind is int:
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return str(value)
    if value is None or isinstance(value, (int, float, str)):
        return value
    raise TypeError(f"report value {value!r} is not a scalar")


# the list of rows, keys sorted, each key and each row after the first on its
# own line at the depth of a row's keys in the indented body; to_json moves
# the braces to their own lines
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))
# rows per encoder call: a call costs about a microsecond to set up, and
# the row dicts of one call are alive at once
_ROWS_PER_CALL = 512
_ROW_BREAK = "\n    },\n    {\n      "


def _row_lines(columns, rows):
    """The JSON rows between the first row's opening brace and the last
    row's closing one."""
    # each call encodes '[{' + rows + '}]'; cells are scalars and an encoded
    # string holds no newline, so '},\n      {' always ends one row and
    # starts the next
    return _ROW_BREAK.join(
        _ROW_ENCODER.encode([{col: _plain(row[col]) for col in columns}
                             for row in rows[start:start + _ROWS_PER_CALL]])[2:-2]
        .replace("},\n      {", _ROW_BREAK)
        for start in range(0, len(rows), _ROWS_PER_CALL))


@dataclass(frozen=True)
class ExperimentReport:
    command: str
    parameters: dict
    columns: tuple
    rows: tuple
    seed: int = None

    def metadata(self):
        return {
            "command": self.command,
            "format_version": FORMAT_VERSION,
            "parameters": {str(k): _plain(v) for k, v in self.parameters.items()},
            "seed": self.seed,
            "version": __version__,
        }

    def to_csv(self):
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["# " + json.dumps(self.metadata(), sort_keys=True)])
        writer.writerow(self.columns)
        columns = self.columns
        writer.writerows([_plain(row[col]) for col in columns] for row in self.rows)
        return out.getvalue()

    def to_json(self):
        body = {"metadata": self.metadata(), "columns": list(self.columns), "rows": []}
        text = json.dumps(body, sort_keys=True, indent=2)
        if not self.rows:
            return text + "\n"
        # "rows" sorts last, so the body ends with its empty list: '[]\n}'
        head, rows = text[:-4] + "[\n    ", self.rows
        if not self.columns:  # rows without cells
            return head + ",\n    ".join(["{}"] * len(rows)) + "\n  ]\n}\n"
        return "".join((head, "{\n      ", _row_lines(self.columns, rows), "\n    }\n  ]\n}\n"))

    def render(self, fmt):
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unknown format {fmt!r}")
