"""Machine-readable experiment reports with byte-deterministic output.

A report is metadata (command, parameters, seed, tool version) plus ordered
rows.  CSV and JSON renderings of the same report carry the same content;
rendering the same report twice yields identical bytes (no timestamps, keys
sorted, fixed format version).

Parameter values and row cells are scalars: str, int, bool, Fraction, float
or None; any other value, a container included, raises ``TypeError``.

Rows are rendered a column at a time, ``_CHUNK`` rows at once: a column whose
cells all have exactly one of the types str, int, bool or Fraction is
converted by one C-level ``map``, any other cell by cell through ``_plain``.
JSON fills one ``%`` template per row, built from the sorted column names;
for flat rows that is ``json.dumps(..., indent=2, sort_keys=True)``.
"""

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from . import __version__
from .errors import InvalidParams

FORMAT_VERSION = 1

__all__ = ["FORMAT_VERSION", "ExperimentReport"]

# rows converted at once: a chunk's converted columns are alive together
_CHUNK = 512


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


def _json_cell(value):
    return json.dumps(_plain(value))


# the conversion of a column whose cells all have one type; None keeps it
_CSV_CELLS = {str: None, int: None, bool: {True: "true", False: "false"}.__getitem__,
              Fraction: str}
# a Fraction's str holds digits, '-' and '/' only: nothing to escape
_JSON_CELLS = {str: encode_basestring_ascii, int: int.__repr__,
               bool: {True: '"true"', False: '"false"'}.__getitem__,
               Fraction: '"%s"'.__mod__}


def _columns(rows, columns, by_type, per_cell):
    """Each column of ``rows``, converted with ``by_type`` when its cells
    share one type it lists, else with ``per_cell``, chunk by chunk."""
    for start in range(0, len(rows), _CHUNK):
        chunk = rows[start:start + _CHUNK]
        converted = []
        for column in columns:
            cells = list(map(itemgetter(column), chunk))
            kinds = set(map(type, cells))
            convert = by_type.get(kinds.pop(), per_cell) if len(kinds) == 1 else per_cell
            converted.append(cells if convert is None else map(convert, cells))
        yield converted


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
        if not self.columns:  # rows without cells
            writer.writerows([()] * len(self.rows))
        for converted in _columns(self.rows, self.columns, _CSV_CELLS, _plain):
            writer.writerows(zip(*converted))
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
        keys = sorted(set(self.columns))
        row = "{\n      %s\n    }" % ",\n      ".join(
            encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys)
        chunks = (",\n    ".join(map(row.__mod__, zip(*converted)))
                  for converted in _columns(rows, keys, _JSON_CELLS, _json_cell))
        return "".join((head, ",\n    ".join(chunks), "\n  ]\n}\n"))

    def render(self, fmt):
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise InvalidParams(f"unknown format {fmt!r}")
