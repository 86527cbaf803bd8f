"""The report renderers as they stood before rows went through the C JSON
encoder: the reference.

``to_csv`` and ``to_json`` render an ``ExperimentReport`` (they take it as
``self``, so a test can also install them as its methods) with the
pure-Python ``json.dumps(..., indent=2)`` and one ``writerow`` per row.  They
read a report a row at a time through ``row_view``.  The report tests require
``cachelab.reports`` to produce the same bytes.
"""

import csv
import io
import json
from fractions import Fraction

from cachelab.reports import FORMAT_VERSION
from cachelab import __version__


def _plain(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


def row_view(report):
    """The column names and row dicts of ``report``: the rows it was given as
    its row input, else its columns read back one dict per row."""
    if report.rows is not None:
        return report.columns, report.rows
    names = tuple(report.columns)
    return names, [dict(zip(names, cells)) for cells in zip(*report.columns.values())]


def metadata(self):
    return {
        "command": self.command,
        "format_version": FORMAT_VERSION,
        "parameters": _plain(self.parameters),
        "seed": self.seed,
        "version": __version__,
    }


def to_csv(self):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["# " + json.dumps(metadata(self), sort_keys=True)])
    columns, rows = row_view(self)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_plain(row[col]) for col in columns])
    return out.getvalue()


def to_json(self):
    columns, rows = row_view(self)
    body = {
        "metadata": metadata(self),
        "columns": list(columns),
        "rows": [{col: _plain(row[col]) for col in columns} for row in rows],
    }
    return json.dumps(body, sort_keys=True, indent=2) + "\n"
