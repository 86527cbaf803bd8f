"""Report rendering against ``reports_reference``, the renderers as they
stood before JSON rows went through the C encoder, reading a report a row at
a time.

Every report must render to the reference's bytes in CSV and in JSON: random
reports of scalar cells, in the column form and in the row input, and
the output of every CLI command.  A container value, which the reference
would render nested, must raise instead, and so must a float infinity or NaN,
which JSON cannot carry.
"""

import enum
import math
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

import reports_reference as reference
from cachelab import (CacheLabError, FileSpec, InvalidParams, LandlordPolicy, load_trace,
                      run_trace, save_trace)
from cachelab.cli import main
from cachelab.reports import ExperimentReport

# substrings a JSON or CSV writer must escape or quote, and separators of
# the JSON row layout
SPECIALS = ['"', "\\", "}", "{", '{"', "},\n      {", ",", ": ", "\n", "\r\n", "\t", "\x00",
            "\x1f", "\x7f", "\u00e9", "\u00a0", "\u2028", "\U0001f600", "[", "]", " "]

strings = st.one_of(
    st.text(max_size=8),
    st.lists(st.one_of(st.sampled_from(SPECIALS), st.text(max_size=2)), max_size=6).map("".join),
)
scalars = st.one_of(
    strings,
    st.integers(),
    st.booleans(),
    st.fractions(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -1.7976931348623157e308]),
    st.none(),
)


@st.composite
def reports(draw):
    """A report of scalar cells, given as columns or as the row input."""
    columns = tuple(draw(st.lists(strings, unique=True, max_size=5)))
    rows = draw(st.lists(st.lists(scalars, min_size=len(columns), max_size=len(columns)),
                         max_size=6))
    command, parameters = draw(strings), draw(st.dictionaries(strings, scalars, max_size=4))
    seed = draw(st.none() | st.integers())
    if draw(st.booleans()):
        table = {name: [row[j] for row in rows] for j, name in enumerate(columns)}
        return ExperimentReport(command, parameters, table, seed=seed)
    return ExperimentReport(command, parameters, columns,
                            tuple(dict(zip(columns, row)) for row in rows), seed=seed)


def assert_matches_reference(report):
    assert report.to_csv() == reference.to_csv(report)
    assert report.to_json() == reference.to_json(report)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(reports())
def test_random_reports_match_reference(report):
    assert_matches_reference(report)


@pytest.mark.parametrize("columns,rows", [
    ((), ()),                         # no columns, no rows
    ((), ({}, {})),                   # rows without cells
    (("a", "b"), ()),                 # columns, no rows
    (("a",), ({"a": ""},)),           # one empty string
])
def test_empty_reports_match_reference(columns, rows):
    assert_matches_reference(ExperimentReport("empty", {}, columns, rows))


@pytest.mark.parametrize("count", [511, 512, 513, 1024, 1537])
def test_long_reports_match_reference(count):
    """Rows are rendered a chunk at a time: reports around and past a chunk
    boundary, with cells the encoders must escape and quote."""
    columns = ("a", '}x"', "c")
    rows = tuple({"a": i, '}x"': SPECIALS[i % len(SPECIALS)], "c": Fr(i, 7)}
                 for i in range(count))
    assert_matches_reference(ExperimentReport("long", {}, columns, rows))


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Name(str):
    pass


# cells of one type for a whole column (each converted by one map, or cell by
# cell for types without a column conversion), and a column of every type
LONG_COLUMNS = {
    "bool": lambda i: i % 3 == 0,
    "int": lambda i: (i - 700) * 10 ** (i % 25),
    "str": lambda i: SPECIALS[i % len(SPECIALS)] + str(i),
    "Fraction": lambda i: Fr(i - 600, i % 9 + 1),
    "float": lambda i: [5e-324, -1.7976931348623157e308, 1e-7, -0.0, 0.0, 1e300, i / 7][i % 7],
    "None": lambda i: None,
    "IntEnum": lambda i: Level.HIGH if i % 2 else Level.LOW,
    "str subclass": lambda i: Name(SPECIALS[i % len(SPECIALS)]),
    "mixed": lambda i: [i, str(i), i % 2 == 1, Fr(i, 3), i / 3, None, Level.LOW,
                        Name("n")][i % 8],
}


@pytest.mark.parametrize("kind", sorted(LONG_COLUMNS))
def test_long_columns_of_each_cell_type_match_reference(kind):
    cell = LONG_COLUMNS[kind]
    columns = ("z", "cell", "a")
    rows = tuple({"z": i, "cell": cell(i), "a": "|".join(SPECIALS[:i % 4])}
                 for i in range(1100))
    assert_matches_reference(ExperimentReport("long", {}, columns, rows))


@pytest.mark.parametrize("columns", [
    ("%", "%s", 'a"b'),
    ("%s", "b", "%", "%%s", "%(x)s"),
    ("b", "a", "b"),                  # a repeated name: one JSON key
    ("a", "a"),
    ("%", "%"),
])
def test_column_names_match_reference(columns):
    for count in (1, 600):
        rows = tuple({name: [i, f"{name}{i}", Fr(i, 4)][j % 3]
                      for j, name in enumerate(columns)} for i in range(count))
        assert_matches_reference(ExperimentReport("names", {}, columns, rows))


@pytest.mark.parametrize("cell", [lambda i: i, lambda i: f"s{i}", lambda i: i % 2 == 0,
                                  lambda i: Fr(i, 3)])
@pytest.mark.parametrize("value", [[1], {"a": 1}, (Fr(1, 2),)])
def test_container_after_a_uniform_column_raises(cell, value):
    rows = [{"x": cell(i), "y": i} for i in range(600)]
    rows[-1] = {"x": value, "y": 599}
    report = ExperimentReport("c", {}, ("x", "y"), tuple(rows))
    for render in (report.to_csv, report.to_json):
        with pytest.raises(TypeError, match="not a scalar"):
            render()


SHARED = Fr(7, 3)

# cells by column: every type at once, a Fraction column in which equal values
# are distinct objects and one object repeats, and columns holding Fraction(1),
# 1 and True, which hash alike, mixed in one column and each in its own
COLUMN_CELLS = {
    "mixed": LONG_COLUMNS["mixed"],
    "Fraction": lambda i: SHARED if i % 3 == 0 else Fr(7, 3) if i % 3 == 1 else Fr(-i, 6),
    "alike": lambda i: [Fr(1), 1, True][i % 3],
    "Fraction ones": lambda i: Fr(1),
    "int ones": lambda i: 1,
    "trues": lambda i: True,
    "str": LONG_COLUMNS["str"],
}


def column_table(count):
    return {name: [cell(i) for i in range(count)] for name, cell in COLUMN_CELLS.items()}


@pytest.mark.parametrize("count", [0, 1, 511, 512, 513, 1100])
def test_column_reports_match_reference(count):
    table = column_table(count)
    fractions = table["Fraction"]
    if count > 3:  # one object repeats, and an equal value is another object
        assert fractions[0] is fractions[3] is SHARED
        assert fractions[1] == SHARED and fractions[1] is not SHARED
    report = ExperimentReport("columns", {"one": Fr(1), "int": 1, "true": True}, table)
    assert_matches_reference(report)


@pytest.mark.parametrize("count", [0, 1, 511, 512, 513, 1100])
def test_row_input_renders_as_its_columns(count):
    """The row input, a tuple of names and one dict per row, gives the bytes
    of the column input with the same content."""
    table = column_table(count)
    names = tuple(table)
    rows = tuple(dict(zip(names, cells)) for cells in zip(*table.values()))
    by_rows = ExperimentReport("columns", {"p": Fr(1, 2)}, names, rows, seed=3)
    by_columns = ExperimentReport("columns", {"p": Fr(1, 2)}, table, seed=3)
    for fmt in ("csv", "json"):
        assert by_rows.render(fmt) == by_columns.render(fmt)


def test_columns_of_different_lengths_are_refused():
    with pytest.raises(InvalidParams, match="differ in length"):
        ExperimentReport("c", {}, {"a": [1, 2], "b": [1]})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", ["parameter", "float column", "mixed column", "row input"])
def test_non_finite_floats_are_refused(value, where):
    """JSON has no infinity or NaN, so a report refuses them in either format,
    as a parameter or as a cell, past a chunk boundary too."""
    if where == "row input":
        report = ExperimentReport("x", {"p": 1.5}, ("v",), ({"v": value},))
    else:
        cells = [i / 7 if where == "float column" else [i, i / 7, "s"][i % 3]
                 for i in range(600)]
        if where == "parameter":
            parameters = {"p": value}
        else:
            parameters, cells[-1] = {}, value
        report = ExperimentReport("x", parameters, {"v": cells})
    for fmt in ("csv", "json"):
        with pytest.raises(InvalidParams, match="not finite"):
            report.render(fmt)
    assert issubclass(InvalidParams, CacheLabError)


def test_unknown_format_is_refused():
    report = ExperimentReport("r", {}, ("a",), ({"a": 1},))
    with pytest.raises(InvalidParams, match="unknown format 'xml'"):
        report.render("xml")
    assert issubclass(InvalidParams, ValueError)


@pytest.mark.parametrize("value", [[1, 2], (Fr(1, 2),), {"a": 1}, {1}, frozenset(), []])
@pytest.mark.parametrize("where", ["row", "parameter"])
def test_container_values_raise(value, where):
    report = ExperimentReport("c", {"p": value} if where == "parameter" else {}, ("x",),
                              ({"x": value if where == "row" else 1},))
    for render in (report.to_csv, report.to_json):
        with pytest.raises(TypeError, match="not a scalar"):
            render()


@pytest.fixture
def traces(tmp_path):
    """A general trace with ids the encoders must escape, a paging trace and
    a trace of zero-cost files (its sweep ratios are infinite)."""
    ids = ['a"b', "c\\d", "}x", '{"y', "é", "z"]
    pool = [FileSpec(fid, size, cost) for fid, size, cost in
            zip(ids, [2, 1, 2, 1, 3, 1], [Fr(4), Fr(1, 3), Fr(0), Fr(7, 2), Fr(5, 4), Fr(2)])]
    general = [pool[i] for i in (0, 1, 2, 0, 3, 4, 1, 5, 2, 4, 0, 3)]
    paths = {"general": tmp_path / "g.trace", "paging": tmp_path / "p.trace",
             "free": tmp_path / "f.trace"}
    save_trace(general, str(paths["general"]))
    paths["paging"].write_text("".join(f"{x} 1 1\n" for x in "abcabdcdaeb"))
    paths["free"].write_text("".join(f"{x} 1 0\n" for x in "abcab"))
    return {name: str(path) for name, path in paths.items()}


COMMANDS = {
    "run": ["run", "--trace", "{general}", "--cache-size", "4"],
    "run-half": ["run", "--trace", "{general}", "--cache-size", "4", "--lambda", "1/2",
                 "--selector", "fifo"],
    "sweep": ["sweep", "--trace", "{general}", "--range", "5", "--epsilon", "1/10",
              "--delta", "1/5"],
    "sweep-paging": ["sweep", "--trace", "{paging}", "--range", "5", "--epsilon", "1/10",
                     "--delta", "1/5", "--alg", "marking", "--seed", "3"],
    "sweep-free": ["sweep", "--trace", "{free}", "--range", "3", "--epsilon", "1/10",
                   "--delta", "1/5", "--alg", "lru"],
    "opt": ["opt", "--trace", "{general}", "--cache-size", "4"],
    "opt-paging": ["opt", "--trace", "{paging}", "--cache-size", "2"],
    "audit": ["audit", "--trace", "{general}", "--cache-size", "5", "--handicap", "4"],
    "gen": ["gen", "--epsilon", "1/8", "--delta", "1/4", "--range", "12", "--out", "{gen}"],
    "bounds": ["bounds", "--epsilon", "1/100", "--delta", "1/10", "--range", "400"],
    "bounds-floats": ["bounds", "--epsilon", "1/3", "--delta", "1/4", "--alpha", "0.5",
                      "--beta", "1.25"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_reports_match_reference(command, fmt, traces, tmp_path, capsys, monkeypatch):
    argv = [arg.format(gen=tmp_path / "adv.trace", **traces) for arg in COMMANDS[command]]
    argv += ["--format", fmt]
    code = main(argv)
    got = capsys.readouterr().out
    assert code == 0 and got
    monkeypatch.setattr(ExperimentReport, "to_csv", reference.to_csv)
    monkeypatch.setattr(ExperimentReport, "to_json", reference.to_json)
    assert main(argv) == code
    assert capsys.readouterr().out == got


def long_trace(path, seed=19, count=3000):
    """A seeded general trace past several render chunks, with ids the
    encoders must escape or quote; ``save_trace`` refuses whitespace."""
    rng = random.Random(seed)
    marks = ['"', "\\", "}", "{", ",", "%", "%s", "é", "\u2603", "\U0001f600", "'"]
    pool = [FileSpec(f"{rng.choice(marks)}{i}{rng.choice(marks)}", rng.randint(1, 8),
                     Fr(rng.randint(1, 20), rng.randint(1, 4))) for i in range(40)]
    save_trace(rng.choices(pool, k=count), str(path))
    return str(path)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_run_matches_the_row_input_of_the_benchmark(fmt, tmp_path, capsys):
    """The benchmark's traced ``hot_set`` op renders ``cachelab run`` from one
    dict per request: it must write the command's bytes."""
    trace = long_trace(tmp_path / "long.trace")
    assert main(["run", "--trace", trace, "--cache-size", "64", "--lambda", "1/2",
                 "--format", fmt]) == 0
    seq = load_trace(trace)
    report = run_trace(seq, 64, LandlordPolicy(Fr(1, 2)))
    rows = tuple({"index": i, "id": g.id, "hit": out.was_hit,
                  "cost_paid": out.retrieval_cost_paid,
                  "rent_rounds": len(out.rent_rounds), "evicted": "|".join(out.evicted)}
                 for i, (g, out) in enumerate(zip(seq, report.outcomes)))
    params = {"trace": trace, "cache_size": 64,
              "total_cost": report.total_cost, "faults": report.fault_count,
              "lambda": Fr(1, 2), "selector": "lru", "greediness": "until-room"}
    names = ("index", "id", "hit", "cost_paid", "rent_rounds", "evicted")
    assert ExperimentReport("run", params, names, rows).render(fmt) == capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("lam", ["1", "1/2"])
def test_cli_run_over_a_long_trace_matches_reference(lam, fmt, tmp_path, capsys, monkeypatch):
    argv = ["run", "--trace", long_trace(tmp_path / "long.trace"), "--cache-size", "64",
            "--lambda", lam, "--format", fmt]
    assert main(argv) == 0
    got = capsys.readouterr().out
    assert got.count("|") > 100  # requests that evict several files
    monkeypatch.setattr(ExperimentReport, "to_csv", reference.to_csv)
    monkeypatch.setattr(ExperimentReport, "to_json", reference.to_json)
    assert main(argv) == 0
    assert capsys.readouterr().out == got
