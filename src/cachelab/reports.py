"""Machine-readable experiment reports with byte-deterministic output.

A report is metadata (command, parameters, seed, tool version) plus a table
held as columns: a mapping from each column name, in order, to the sequence
of its cells, every column of one length.  CSV and JSON renderings of the
same report carry the same content; rendering the same report twice yields
identical bytes (no timestamps, keys sorted, fixed format version).

Parameter values and cells are scalars: str, int, bool, Fraction, float or
None.  A container raises ``TypeError``; a float infinity or NaN, which JSON
cannot carry, raises ``InvalidParams``.

The table is rendered ``_CHUNK`` rows at a time, so the converted cells of
one slice of rows are alive at once.  Each column slice gets one type test.
A slice whose cells all have exactly one of the types str, int or bool is
converted by one C-level ``map``.  A ``Fraction`` slice is too, through a
dict keyed by ``id()`` that converts each distinct cell object once per
render: a cost column is filled by few objects, the engine's shared zero
first among them.  Any other slice is converted cell by cell through
``_plain``.  JSON fills one ``%`` template per row, built from the sorted
column names; for flat rows that is ``json.dumps(..., indent=2,
sort_keys=True)``.

The row input, a tuple of column names plus one dict per row keyed by
them, is also accepted.  It is turned into columns once, when the report is
built, so both inputs share one render path.
"""

import csv
import io
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
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
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        raise InvalidParams(f"report value {value!r} is not finite: JSON has no infinity "
                            "or NaN")
    if value is None or isinstance(value, (int, str)):
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


@dataclass(frozen=True)
class ExperimentReport:
    """``columns`` maps each column name, in order, to the sequence of its
    cells.  The row input passes a tuple of names as ``columns`` and one
    dict per row, keyed by those names, as ``rows``; a name may repeat there.
    """

    command: str
    parameters: dict
    columns: Mapping
    rows: tuple = None
    seed: int = None
    # CSV header (names in order), cells by name, and row count
    _table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rows is None:
            if not isinstance(self.columns, Mapping):
                raise TypeError("report columns map each name to its cells")
            cells = dict(self.columns)
            lengths = set(map(len, cells.values()))
            if len(lengths) > 1:
                raise InvalidParams(f"report columns differ in length: {sorted(lengths)}")
            table = (tuple(cells), cells, lengths.pop() if lengths else 0)
        else:
            rows = self.rows
            cells = {name: list(map(itemgetter(name), rows)) for name in self.columns}
            table = (tuple(self.columns), cells, len(rows))
        object.__setattr__(self, "_table", table)

    def _chunks(self, names, by_type, per_cell):
        """The cells of the columns ``names``, ``_CHUNK`` rows at a time, each
        column slice converted with ``by_type`` when its cells share one type
        it lists, else with ``per_cell``."""
        _, cells, length = self._table
        done = {}  # id of a Fraction cell -> its conversion in this render
        for start in range(0, length, _CHUNK):
            converted = []
            for name in names:
                column = cells[name][start:start + _CHUNK]
                kinds = set(map(type, column))
                kind = kinds.pop() if len(kinds) == 1 else None
                convert = by_type.get(kind, per_cell)
                if kind is Fraction:
                    ids = list(map(id, column))
                    fresh = dict(zip(ids, column))
                    for key in fresh.keys() - done.keys():
                        done[key] = convert(fresh[key])
                    column, convert = ids, done.__getitem__
                converted.append(column if convert is None else map(convert, column))
            yield converted

    def metadata(self):
        return {
            "command": self.command,
            "format_version": FORMAT_VERSION,
            "parameters": {str(k): _plain(v) for k, v in self.parameters.items()},
            "seed": self.seed,
            "version": __version__,
        }

    def to_csv(self):
        header, _, length = self._table
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["# " + json.dumps(self.metadata(), sort_keys=True)])
        writer.writerow(header)
        if not header:  # rows without cells
            writer.writerows([()] * length)
        for converted in self._chunks(header, _CSV_CELLS, _plain):
            writer.writerows(zip(*converted))
        return out.getvalue()

    def to_json(self):
        header, cells, length = self._table
        body = {"metadata": self.metadata(), "columns": list(header), "rows": []}
        text = json.dumps(body, sort_keys=True, indent=2)
        if not length:
            return text + "\n"
        # "rows" sorts last, so the body ends with its empty list: '[]\n}'
        head = text[:-4] + "[\n    "
        if not cells:  # rows without cells
            return head + ",\n    ".join(["{}"] * length) + "\n  ]\n}\n"
        keys = sorted(cells)
        row = "{\n      %s\n    }" % ",\n      ".join(
            encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys)
        chunks = (",\n    ".join(map(row.__mod__, zip(*converted)))
                  for converted in self._chunks(keys, _JSON_CELLS, _json_cell))
        return "".join((head, ",\n    ".join(chunks), "\n  ]\n}\n"))

    def render(self, fmt):
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise InvalidParams(f"unknown format {fmt!r}")
