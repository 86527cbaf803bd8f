"""Report rendering against ``reports_reference``, the renderers as they
stood before JSON rows went through the C encoder.

Every report must render to the reference's bytes in CSV and in JSON: random
reports of scalar cells, and the output of every CLI command.  A container
value, which the reference would render nested, must raise instead.
"""

import enum
import math
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

import reports_reference as reference
from cachelab import FileSpec, InvalidParams, save_trace
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
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0]),
    st.none(),
)


@st.composite
def reports(draw):
    columns = tuple(draw(st.lists(strings, unique=True, max_size=5)))
    rows = draw(st.lists(st.lists(scalars, min_size=len(columns), max_size=len(columns)),
                         max_size=6))
    return ExperimentReport(
        command=draw(strings),
        parameters=draw(st.dictionaries(strings, scalars, max_size=4)),
        columns=columns,
        rows=tuple(dict(zip(columns, row)) for row in rows),
        seed=draw(st.none() | st.integers()),
    )


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
    "float": lambda i: [math.inf, -math.inf, math.nan, -0.0, 0.0, 1e300, i / 7][i % 7],
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
