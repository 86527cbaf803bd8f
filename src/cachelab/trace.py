"""Trace file format: UTF-8 text, one request per line, ``<id> <size> <cost>``.

Fields are whitespace-separated; ``#`` starts a full-line comment and blank
lines are skipped.  Costs accept integer, decimal, or ``p/q`` literals and
are parsed exactly.  Serialization normalizes costs to their canonical
Fraction form, so serialize(parse(text)) is idempotent after the first pass.

An id is non-empty, holds no whitespace (line breaks included) and does not
start with ``#``; serialization refuses any other id with ``InvalidParams``,
because it would reload as a comment, as extra requests or not at all.
Both ways, ``core.validated`` refuses an id with two (size, cost) pairs.
"""

from fractions import Fraction

from .core import FileSpec, validated
from .errors import InvalidParams, ParseError

__all__ = [
    "parse_trace",
    "serialize_trace",
    "load_trace",
    "save_trace",
    "paging_sequence",
    "is_paging_sequence",
]


def parse_trace(text):
    """Parse trace text into a request sequence: the tuple of FileSpec that
    ``validated`` returns, so no entry point checks it again.

    Each distinct stripped line is parsed and checked once; its repeats
    append the same ``FileSpec`` object, so a bad line raises at its first
    occurrence.
    """
    seq = []
    specs = {}  # stripped line -> its FileSpec
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        g = specs.get(line)
        if g is None:
            if not line or line.startswith("#"):
                continue
            g = specs[line] = _parse_line(line_no, raw, line)
        seq.append(g)
    return validated(seq)


def _parse_line(line_no, raw, line):
    """The FileSpec of one stripped request line; errors name ``line_no``."""
    fields = line.split()
    if len(fields) != 3:
        raise ParseError(line_no, f"expected '<id> <size> <cost>', got {raw!r}")
    file_id, size_text, cost_text = fields
    try:
        size = int(size_text)
    except ValueError:
        raise ParseError(line_no, f"size {size_text!r} is not an integer") from None
    try:
        cost = Fraction(cost_text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(line_no, f"cost {cost_text!r} is not a rational literal") from None
    try:
        return FileSpec(file_id, size, cost)
    except InvalidParams as exc:
        raise ParseError(line_no, str(exc)) from None


def serialize_trace(seq):
    """Trace text for ``seq``; ``ConsistencyError`` (through ``validated``)
    where ``parse_trace`` would refuse the text."""
    seq = validated(seq)
    for g in seq:
        if g.id.split() != [g.id] or g.id.startswith("#"):
            raise InvalidParams(f"file id {g.id!r} is empty, holds whitespace or starts with #")
    lines = [f"{g.id} {g.size} {g.cost}" for g in seq]
    return "\n".join(lines) + ("\n" if lines else "")


def load_trace(path):
    """``parse_trace`` of the UTF-8 file at ``path``; bytes that are not UTF-8
    raise ``ParseError`` naming their line."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # a stand-in character ends the text on the bad bytes' line
        line_no = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise ParseError(line_no, f"{data[exc.start:exc.end]!r} is not UTF-8") from None
    return parse_trace(text)


def save_trace(seq, path):
    """Write ``serialize_trace(seq)`` to ``path``, untouched if that raises."""
    text = serialize_trace(seq)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def paging_sequence(items):
    """Wrap a paging trace (ids only) as a unit-size, unit-cost sequence:
    the tuple that ``validated`` returns, with one ``FileSpec`` per id."""
    ids = [str(x) for x in items]
    specs = {fid: FileSpec(fid, 1, Fraction(1)) for fid in ids}
    return validated([specs[fid] for fid in ids])


def is_paging_sequence(seq):
    """True when every request has size 1 and cost 1 (vacuously for [])."""
    return all(g.size == 1 and g.cost == 1 for g in seq)
