import codecs
import contextlib
import csv
import io
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from decimal import Decimal
from fractions import Fraction as Fr
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cachelab import (
    ConsistencyError,
    EvictionGreediness,
    EvictionSelector,
    FileSpec,
    InvalidParams,
    ParseError,
    belady_opt,
    is_paging_sequence,
    load_trace,
    opt_cost,
    paging_sequence,
    parse_trace,
    replay_witness,
    save_trace,
    serialize_trace,
    simulate_paging,
    validated,
)
import cachelab
from cachelab import cli, offline
from cachelab.cli import main
from test_analysis import count_checks
from test_offline import wide_trace
from test_offline_differential import desk_instance


def reference_parse(text):
    """``parse_trace`` as it stood before it parsed each distinct line once:
    every line parsed on its own, then ``validated`` as its precondition."""
    seq = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ParseError(line_no, f"expected '<id> <size> <cost>', got {raw!r}")
        file_id, size_text, cost_text = fields
        try:
            size = int(size_text)
        except ValueError:
            raise ParseError(line_no, f"size {size_text!r} is not an integer") from None
        try:
            cost = Fr(cost_text)
        except (ValueError, ZeroDivisionError):
            raise ParseError(line_no, f"cost {cost_text!r} is not a rational literal") from None
        try:
            seq.append(FileSpec(file_id, size, cost))
        except InvalidParams as exc:
            raise ParseError(line_no, str(exc)) from None
    return validated(seq)


def strict_json(text):
    """``json.loads`` refusing NaN and Infinity, which JSON does not have."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def parse_result(parse, text):
    try:
        return parse(text)
    except (ParseError, ConsistencyError) as exc:  # a list, unlike any parsed trace
        return [type(exc), str(exc), getattr(exc, "line_no", None)]


def spellings(cost):
    """Literals that parse to ``cost``: canonical, scaled p/q, decimal."""
    out = [str(cost), f"{cost.numerator * 2}/{cost.denominator * 2}",
           f"{cost.numerator}/{cost.denominator}",
           format(Decimal(cost.numerator) / Decimal(cost.denominator), "f")]
    if cost.denominator == 1:
        out.append(f"{cost.numerator}.0")
    return out


BOM = codecs.BOM_UTF8

BAD_LINES = ["a 1", "b x 1", "c 1 y", "d 0 1", "e 1 -1", "f 1 1/0", "g 1 1 1", "h 1.5 1"]


@st.composite
def trace_texts(draw):
    """Trace text whose repeated requests differ in whitespace and in how
    the size and cost are spelled, with comments, blank lines, sometimes a
    bad line (maybe repeated) and sometimes a conflicting redefinition."""
    pool = [(f"f{i}", draw(st.integers(1, 4)),
             Fr(draw(st.integers(0, 9)), draw(st.sampled_from([1, 2, 4]))))
            for i in range(draw(st.integers(1, 5)))]
    pad = st.sampled_from(["", " ", "  ", "\t", " \t"])
    gap = st.sampled_from([" ", "  ", "\t", " \t "])
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(pad) + "#" + draw(st.sampled_from(["", " note", "f0 1 1"])))
        elif kind == 1:
            lines.append(draw(pad))
        else:
            fid, size, cost = draw(st.sampled_from(pool))
            size_text = draw(st.sampled_from([str(size), f"0{size}", f"+{size}"]))
            cost_text = draw(st.sampled_from(spellings(cost)))
            lines.append(draw(pad) + draw(gap).join([fid, size_text, cost_text]) + draw(pad))
    extra = draw(st.sampled_from(["", "bad", "conflict"]))
    if extra and lines:
        if extra == "bad":
            line = draw(st.sampled_from(BAD_LINES))
        else:
            fid, size, cost = pool[0]
            line = f"{fid} {size + 1} {cost}"
        for _ in range(draw(st.integers(1, 3))):
            lines.insert(draw(st.integers(0, len(lines))), line)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


class TestParse:
    def test_three_records(self):
        seq = parse_trace("a 2 4\nb 1 1\nc 2 3")
        assert [(g.id, g.size, g.cost) for g in seq] == [
            ("a", 2, Fr(4)), ("b", 1, Fr(1)), ("c", 2, Fr(3))]

    def test_comments_and_blanks(self):
        seq = parse_trace("# comment\n\na 1 1\n   \n# more\n")
        assert len(seq) == 1

    def test_rational_and_decimal_costs(self):
        seq = parse_trace("a 1 2/3\nb 1 0.25\nc 1 7")
        assert [g.cost for g in seq] == [Fr(2, 3), Fr(1, 4), Fr(7)]

    def test_conflicting_cost_is_rejected(self):
        with pytest.raises(ConsistencyError):
            parse_trace("a 2 4\na 2 5")

    def test_conflicting_size_is_rejected(self):
        with pytest.raises(ConsistencyError):
            parse_trace("a 2 4\na 3 4")

    @pytest.mark.parametrize("bad,line", [
        ("a 2", 1), ("a two 4", 1), ("a 2 4\nb 1 x", 2), ("a 0 1", 1), ("a 1 -2", 1),
    ])
    def test_malformed_lines_carry_line_numbers(self, bad, line):
        with pytest.raises(ParseError) as err:
            parse_trace(bad)
        assert err.value.line_no == line

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(trace_texts())
    def test_matches_line_by_line_reference(self, text):
        got = parse_result(parse_trace, text)
        assert got == parse_result(reference_parse, text)
        if isinstance(got, tuple):
            assert validated(got) is got
            assert all(type(g.cost) is Fr for g in got)

    def test_bad_line_reports_its_first_occurrence(self):
        text = "a 1 1\nb 0 1\na 1 1\n b 0 1\nb 0 1\n"
        with pytest.raises(ParseError) as err:
            parse_trace(text)
        assert err.value.line_no == 2

    def test_each_distinct_line_is_parsed_once(self):
        rng = random.Random(64)
        pool = [FileSpec(f"f{i}", rng.randint(1, 8), Fr(rng.randint(1, 20), rng.randint(1, 4)))
                for i in range(64)]
        seq = pool + [rng.choice(pool) for _ in range(5000 - len(pool))]
        rng.shuffle(seq)
        parsed = parse_trace(serialize_trace(seq))
        assert parsed == tuple(seq)
        assert len({id(g) for g in parsed}) == 64

    def test_round_trip_idempotent_after_normalization(self):
        text = "a 1 0.5\nb 2 3\nc 1 7/2\n"
        once = serialize_trace(parse_trace(text))
        assert once == "a 1 1/2\nb 2 3\nc 1 7/2\n"
        assert serialize_trace(parse_trace(once)) == once

    @pytest.mark.parametrize("bad_id", [
        "#x", "", " ", "a b", "a\nb 1 1\nc", "a\tb", "a\r", "\u2028a", "a\x1c", "\ufeffa",
    ])
    def test_ids_that_cannot_round_trip_are_refused(self, bad_id):
        # written raw, "#x" would reload as a comment, "a\nb 1 1\nc" as
        # extra requests and "\ufeffa", first, as "a"; the others not at all
        with pytest.raises(InvalidParams):
            serialize_trace([FileSpec(bad_id, 1, 1), FileSpec("y", 1, 1)])

    def test_ids_of_any_other_form_round_trip(self):
        seq = [FileSpec(fid, 1, 1) for fid in ("a#", "x-1", "é", "\x00", "1/2", "\ufeffa")]
        assert parse_trace(serialize_trace(seq)) == tuple(seq)

    def test_loaded_trace_is_the_checked_tuple(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("a 2 4\nb 1 1\na 2 4\n")
        for seq in (parse_trace(path.read_text()), load_trace(str(path))):
            assert seq == (FileSpec("a", 2, Fr(4)), FileSpec("b", 1, Fr(1)),
                           FileSpec("a", 2, Fr(4)))
            assert validated(seq) is seq

    @pytest.mark.parametrize("data, line", [
        (b"a 1 1\n\xff\xfe 1 1\n", 2), (b"\xc3", 1), (b"# \x80\na 1 1\n", 1),
        (b"a 1 1\r\nb 1 1\rc\xe9 1 1\n", 3), (b"a 1 1\n\n\nb\x00 1 1\xed\xa0\x80\n", 4)])
    def test_bytes_that_are_not_utf8_are_refused_by_line(self, data, line, tmp_path):
        path = tmp_path / "t.trace"
        path.write_bytes(data)
        with pytest.raises(ParseError) as err:
            load_trace(str(path))
        assert err.value.line_no == line and err.value.reason.endswith("is not UTF-8")

    def test_one_leading_byte_order_mark_is_dropped(self, tmp_path):
        # an editor's mark is not part of the first id; a U+FEFF elsewhere is
        path = tmp_path / "t.trace"
        for data, ids in ((BOM + b"a 1 1\na 1 1\n" + BOM + b"a 1 1\n", ["a", "a", "\ufeffa"]),
                          (BOM + BOM + b"a 1 1\n", ["\ufeffa"])):
            path.write_bytes(data)
            for seq in (load_trace(str(path)), parse_trace(data.decode("utf-8"))):
                assert [g.id for g in seq] == ids
        # the offsets of the refusal index the bytes past the mark
        path.write_bytes(BOM + b"a 1 1\n\xff 1 1\n")
        with pytest.raises(ParseError, match=r"^line 2: b'\\xff' is not UTF-8$"):
            load_trace(str(path))

    @pytest.mark.parametrize("later", [FileSpec("a", 3, Fr(1)), FileSpec("a", 1, Fr(2))],
                             ids=["size", "cost"])
    def test_an_inconsistent_sequence_is_neither_serialized_nor_saved(self, later, tmp_path):
        # written, it would be a trace that load_trace refuses
        bad = [FileSpec("a", 1, Fr(1)), FileSpec("b", 1, Fr(5)), later]
        with pytest.raises(ConsistencyError, match=r"^request 2: file 'a' seen as"):
            serialize_trace(bad)
        kept, fresh = tmp_path / "kept.trace", tmp_path / "fresh.trace"
        kept.write_text("b 1 1\n")
        for path in (kept, fresh):
            with pytest.raises(ConsistencyError, match=r"^request 2: "):
                save_trace(iter(bad), str(path))
        with pytest.raises(InvalidParams):
            save_trace([FileSpec("a b", 1, Fr(1))], str(kept))
        assert kept.read_text() == "b 1 1\n"
        assert not fresh.exists()


def test_is_paging_sequence():
    assert is_paging_sequence([])
    assert is_paging_sequence(paging_sequence("abca"))
    assert is_paging_sequence(parse_trace("a 1 1\nb 1 1.0\nc 1 2/2\n"))
    unit = FileSpec("u", 1, Fr(1))
    assert not is_paging_sequence([unit, FileSpec("w", 2, Fr(1))])
    assert not is_paging_sequence([unit, FileSpec("c", 1, Fr(1, 2))])
    assert not is_paging_sequence([FileSpec("z", 1, Fr(0))])


def test_paging_sequence_is_a_checked_tuple_with_one_filespec_per_id():
    seq = paging_sequence(["a", "b", "a", 3, "3"])
    assert isinstance(seq, tuple) and validated(seq) is seq
    assert [g.id for g in seq] == ["a", "b", "a", "3", "3"]
    assert seq[0] is seq[2] and seq[3] is seq[4] and seq[0] == FileSpec("a", 1, Fr(1))


def child_env(**extra):
    """The environment for a child ``python -m cachelab`` that imports this
    package, with ``extra`` set."""
    src = str(Path(cachelab.__file__).parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


# ids a file cache meets as paths and URLs: none of them ASCII, and two not Latin-1
NON_ASCII_TRACE = "café 1 1\nnaïve 2 3\nΩ 1 1/2\ncafé 1 1\n文件 2 2\nnaïve 2 3\nb 1 1\n"


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text("a 2 4\nb 1 1\nc 2 3\na 2 4\n")
    return str(path)


@pytest.fixture
def paging_file(tmp_path):
    path = tmp_path / "p.trace"
    path.write_text("".join(f"{x} 1 1\n" for x in "abcabdcd"))
    return str(path)


class TestCli:
    def test_run_csv(self, trace_file, capsys):
        assert main(["run", "--trace", trace_file, "--cache-size", "3"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[1] == "index,id,hit,cost_paid,rent_rounds,evicted"
        assert lines[2] == "0,a,false,4,0,"
        assert "total_cost" in lines[0]

    def test_run_is_byte_deterministic(self, trace_file, capsys):
        main(["run", "--trace", trace_file, "--cache-size", "3", "--format", "json"])
        first = capsys.readouterr().out
        main(["run", "--trace", trace_file, "--cache-size", "3", "--format", "json"])
        assert capsys.readouterr().out == first

    def test_run_policy_flags(self, trace_file, capsys):
        code = main(["run", "--trace", trace_file, "--cache-size", "3",
                     "--lambda", "1/2", "--selector", "fifo", "--greediness", "all-zero"])
        assert code == 0

    def test_opt_json(self, trace_file, capsys):
        assert main(["opt", "--trace", trace_file, "--cache-size", "4",
                     "--format", "json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["metadata"]["parameters"]["min_cost"] == "8"

    def test_audit_clean_run_exits_zero(self, trace_file, capsys):
        code = main(["audit", "--trace", trace_file, "--cache-size", "4",
                     "--handicap", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "landlord_retrieve" in out

    def test_sweep(self, paging_file, capsys):
        code = main(["sweep", "--trace", paging_file, "--range", "4",
                     "--epsilon", "1/10", "--delta", "1/5", "--alg", "fwf"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1] == "k,alg_cost,opt_cost,ratio,total_request_cost,bad"
        assert len(lines) == 6

    def test_sweep_inapplicable_k_flagged(self, trace_file, capsys):
        code = main(["sweep", "--trace", trace_file, "--range", "3",
                     "--epsilon", "1/10", "--delta", "1/5"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[2].startswith("1,") and lines[2].endswith("inapplicable")

    @pytest.mark.parametrize("text", ["", "z 1 0\ny 1 0\nz 1 0\nx 1 0\ny 1 0\n"],
                             ids=["empty", "all-cost-0"])
    def test_sweep_writes_strict_json_when_the_optimum_costs_nothing(
            self, text, tmp_path, capsys):
        path = tmp_path / "free.trace"
        path.write_text(text)
        argv = ["sweep", "--trace", str(path), "--range", "3",
                "--epsilon", "1/10", "--delta", "1/5", "--alg", "lru"]
        assert main([*argv, "--format", "json"]) == 0
        rows = strict_json(capsys.readouterr().out)["rows"]
        assert [row["ratio"] for row in rows] == ["inf"] * 3
        assert main(argv) == 0  # csv writes the float inf as the same text
        lines = capsys.readouterr().out.splitlines()[2:]
        assert [line.split(",")[3] for line in lines] == ["inf"] * 3

    def test_sweep_marking_needs_seed(self, paging_file, capsys):
        code = main(["sweep", "--trace", paging_file, "--range", "4",
                     "--epsilon", "1/10", "--delta", "1/5", "--alg", "marking"])
        assert code == 2
        code = main(["sweep", "--trace", paging_file, "--range", "4",
                     "--epsilon", "1/10", "--delta", "1/5", "--alg", "marking",
                     "--seed", "7"])
        assert code == 0

    @pytest.mark.parametrize("alg", ["landlord", "lru", "opt"])
    @pytest.mark.parametrize("range_", [str(2 ** 16 + 1), "1000000000", str(10 ** 309)])
    def test_sweep_refuses_a_range_past_its_limit(self, trace_file, paging_file, alg, range_,
                                                  capsys):
        for path in (trace_file, paging_file):
            started = time.process_time()
            assert main(["sweep", "--trace", path, "--range", range_, "--epsilon", "1/10",
                         "--delta", "1/5", "--alg", alg]) == 2
            assert time.process_time() - started < 1
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert "past the limit" in lines[0]

    def test_gen_writes_trace_and_report(self, tmp_path, capsys):
        out_path = str(tmp_path / "adv.trace")
        code = main(["gen", "--epsilon", "1/8", "--delta", "1/4", "--range", "6",
                     "--out", out_path, "--format", "json"])
        assert code == 0
        body = json.loads(capsys.readouterr().out)
        assert body["metadata"]["parameters"]["violations"] == 0
        seq = parse_trace(open(out_path).read())
        assert len(seq) == 10
        assert is_paging_sequence(seq)

    @pytest.mark.parametrize("alg", ["landlord", "lru", "fifo", "fwf", "opt", "marking"])
    def test_sweep_runs_on_gen_output(self, alg, tmp_path, capsys):
        out_path = str(tmp_path / "adv.trace")
        flags = ["--epsilon", "1/8", "--delta", "1/4", "--range", "40"]
        assert main(["gen", *flags, "--out", out_path]) == 0
        items = [g.id for g in parse_trace(open(out_path).read())]
        assert len(items) == 120
        capsys.readouterr()
        seed = ["--seed", "7"] if alg == "marking" else []
        assert main(["sweep", "--trace", out_path, *flags, "--alg", alg, *seed]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[2:]]
        assert [int(row[0]) for row in rows] == list(range(1, 41))
        for k, alg_cost, opt_cost, *_ in rows:
            k = int(k)
            assert Fr(opt_cost) == belady_opt(items, k)
            if alg == "opt":
                assert alg_cost == opt_cost
            else:  # landlord's default policy flags are LRU's
                paging_alg = "lru" if alg == "landlord" else alg
                faults, _ = simulate_paging(items, k, paging_alg, seed=7 if seed else None)
                assert Fr(alg_cost) == faults

    def test_sweep_checks_epsilon_and_delta_before_any_cost(self, trace_file, paging_file,
                                                            capsys, monkeypatch):
        optima = []
        real = offline.opt_costs_by_k

        def counted(seq, ks):
            optima.append(ks)
            return real(seq, ks)
        for module in (offline, cachelab.analysis):
            monkeypatch.setattr(module, "opt_costs_by_k", counted)
        for path in (trace_file, paging_file):
            for alg in ("opt", "lru"):
                for epsilon, delta in (("2", "1/5"), ("1/10", "0")):
                    assert main(["sweep", "--trace", path, "--range", "4", "--epsilon", epsilon,
                                 "--delta", delta, "--alg", alg]) == 2
                    captured = capsys.readouterr()
                    assert captured.out == "" and captured.err.startswith("error: ")
                    assert len(captured.err.splitlines()) == 1
        assert optima == []

    @pytest.mark.parametrize("alg, flags, named", [
        ("lru", ["--seed", "5"], "--seed"),
        ("fifo", ["--selector", "pessimal", "--lambda", "1/2"], "--lambda"),
        ("opt", ["--greediness", "all-zero"], "--greediness"),
        ("landlord", ["--seed", "1"], "--seed"),
        ("marking", ["--seed", "1", "--selector", "lru"], "--selector"),
        ("fwf", ["--lambda", "1"], "--lambda")])
    def test_sweep_refuses_a_flag_its_alg_does_not_read(self, alg, flags, named, paging_file,
                                                        capsys):
        argv = ["sweep", "--trace", paging_file, "--range", "4", "--epsilon", "1/10",
                "--delta", "1/5", "--alg", alg]
        assert main([*argv, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --alg {alg} does not read {named}\n"

    @pytest.mark.parametrize("command", [["run"], ["audit", "--handicap", "2"],
                                         ["sweep", "--range", "4", "--epsilon", "1/10",
                                          "--delta", "1/5", "--alg", "landlord"]])
    def test_policy_is_refused_before_the_trace_is_read(self, command, tmp_path, capsys):
        """A bad --lambda with a trace that does not exist: every command that
        takes the policy flags names the lambda, not the file."""
        argv = [command[0], "--trace", str(tmp_path / "missing.trace"), *command[1:]]
        if command[0] != "sweep":
            argv += ["--cache-size", "3"]
        assert main([*argv, "--lambda", "3/2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: refresh_lambda must lie in [0, 1]\n"

    def test_sweep_policy_flags_at_their_defaults_change_no_byte(self, trace_file, capsys):
        """A policy flag left out and the same flag given at its default write
        the same bytes, each flag alone and all three together: in a landlord
        sweep, and in run and audit too."""
        defaults = [["--lambda", "1"], ["--selector", "lru"], ["--greediness", "until-room"]]
        for command in (["sweep", "--range", "4", "--epsilon", "1/10", "--delta", "1/5"],
                        ["run", "--cache-size", "3"],
                        ["audit", "--cache-size", "3", "--handicap", "2"]):
            argv = [command[0], "--trace", trace_file, *command[1:], "--format", "json"]
            assert main(argv) == 0
            left_out = capsys.readouterr().out
            for flags in [*defaults, [flag for pair in defaults for flag in pair]]:
                alg = ["--alg", "landlord"] if command[0] == "sweep" else []
                assert main([*argv, *alg, *flags]) == 0
                assert capsys.readouterr().out == left_out, (command[0], flags)
            if command[0] == "sweep":  # the lru preset is the same policy
                assert main([*argv, "--alg", "lru"]) == 0
                parameters = json.loads(capsys.readouterr().out)["metadata"]["parameters"]
                assert parameters == {**json.loads(left_out)["metadata"]["parameters"],
                                      "alg": "lru"}

    @pytest.mark.parametrize("trace", ["trace_file", "paging_file"])
    def test_sweep_records_the_policy_that_ran(self, trace, request, capsys):
        """A sweep records the Landlord policy its --alg ran: the policy flags'
        for landlord, the preset for lru, fifo and fwf (on a paging trace the
        direct simulator runs the same policy), and null for marking and opt."""
        path = request.getfixturevalue(trace)
        recorded = {
            "landlord": ("1/2", "fifo", "all-zero"), "lru": ("1", "lru", "until-room"),
            "fifo": ("0", "fifo", "until-room"), "fwf": ("0", "fifo", "all-zero"),
            "marking": (None, None, None), "opt": (None, None, None)}
        for alg, knobs in recorded.items():
            if alg == "marking" and trace == "trace_file":
                continue  # marking is refused on a general trace
            flags = {"landlord": ["--lambda", "1/2", "--selector", "fifo",
                                  "--greediness", "all-zero"],
                     "marking": ["--seed", "3"]}.get(alg, [])
            for fmt in ("json", "csv"):
                assert main(["sweep", "--trace", path, "--range", "4", "--epsilon", "1/10",
                             "--delta", "1/5", "--alg", alg, *flags, "--format", fmt]) == 0
                out = capsys.readouterr().out
                if fmt == "json":
                    parameters = json.loads(out)["metadata"]["parameters"]
                else:  # the metadata line is one CSV cell: '# ' and the JSON
                    cell = next(csv.reader(io.StringIO(out)))[0]
                    parameters = json.loads(cell[2:])["parameters"]
                assert (parameters["lambda"], parameters["selector"],
                        parameters["greediness"]) == knobs, (alg, fmt)

    def test_sweep_opt_computes_each_optimum_once(self, tmp_path, capsys, monkeypatch):
        """``--alg opt`` shares one Belady run per k between the algorithm and
        the baseline, and tests the paging shape once per sweep."""
        out_path = str(tmp_path / "adv.trace")
        flags = ["--epsilon", "1/8", "--delta", "1/4", "--range", "40"]
        assert main(["gen", *flags, "--out", out_path]) == 0
        capsys.readouterr()
        calls = {"belady_opt": 0, "is_paging_sequence": 0}

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(offline, "belady_opt", counted(belady_opt))
        for module in (offline, cli):
            monkeypatch.setattr(module, "is_paging_sequence", counted(is_paging_sequence))
        assert main(["sweep", "--trace", out_path, *flags, "--alg", "opt"]) == 0
        assert calls == {"belady_opt": 40, "is_paging_sequence": 1}

    def test_opt_scans_a_paging_trace_once(self, tmp_path, capsys, monkeypatch):
        """``cachelab opt`` tests the paging shape once, then runs Belady,
        whose schedule is the report's rows."""
        rng = random.Random(11)
        items = [str(rng.randrange(5)) for _ in range(24)]
        path = tmp_path / "p.trace"
        path.write_text(serialize_trace(paging_sequence(items)))
        scans = []

        def counted(seq):
            scans.append(len(seq))
            return is_paging_sequence(seq)

        for module in (offline, cli):
            monkeypatch.setattr(module, "is_paging_sequence", counted)
        assert main(["opt", "--trace", str(path), "--cache-size", "2", "--format", "json"]) == 0
        assert scans == [24]
        body = json.loads(capsys.readouterr().out)
        min_cost = body["metadata"]["parameters"]["min_cost"]
        assert min_cost == str(belady_opt(items, 2))
        schedule = [(row["index"], tuple(filter(None, row["evicted"].split("|"))))
                    for row in body["rows"]]
        assert replay_witness(paging_sequence(items), 2, schedule) == Fr(min_cost)
        assert len(schedule) == Fr(min_cost)  # one row per miss

    @pytest.mark.parametrize("command", [
        ["run", "--cache-size", "3"],
        ["opt", "--cache-size", "4"],
        ["audit", "--cache-size", "4", "--handicap", "3"],
        *(["sweep", "--range", "4", "--epsilon", "1/10", "--delta", "1/5", "--alg", alg]
          for alg in ("landlord", "lru", "opt")),
    ], ids=["run", "opt", "audit", "sweep-landlord", "sweep-lru", "sweep-opt"])
    @pytest.mark.parametrize("trace", ["trace_file", "paging_file"])
    def test_each_command_checks_its_trace_once(self, command, trace, request, capsys,
                                                monkeypatch):
        """The loaded trace comes back checked, and no later step checks it again."""
        path = request.getfixturevalue(trace)
        length = len(load_trace(path))
        checks = count_checks(monkeypatch)
        assert main([command[0], "--trace", path, *command[1:]]) == 0
        assert checks == [length]

    def test_bounds(self, capsys):
        code = main(["bounds", "--epsilon", "1/100", "--delta", "1/10",
                     "--range", "400"])
        assert code == 0
        out = capsys.readouterr().out
        assert "deterministic" in out and "technical_ratio" in out and "lower" in out

    @pytest.mark.parametrize("delta, lower", [
        # a float rounds this delta to 1/2, outside the formula's domain;
        # exactly, it lies inside, where log2(1/(2*(1/4))) / (8 * 0.5) = 0.25
        ("49999999999999999999/100000000000000000000", 0.25),
        ("1/2", None), ("1", None), ("1/4", 0.5)])
    def test_bounds_lower_row_follows_the_formulas_exact_domain(self, delta, lower, capsys):
        assert main(["bounds", "--epsilon", "1/4", "--delta", delta, "--format", "json"]) == 0
        rows = {row["bound"]: row["value"] for row in strict_json(capsys.readouterr().out)["rows"]}
        assert rows.get("lower") == lower

    def test_bounds_json_is_strict_json(self, capsys):
        argv = ["bounds", "--epsilon", "1/100", "--delta", "1/10", "--range", "400",
                "--alpha", "0.5", "--beta", "1.25", "--format", "json"]
        assert main(argv) == 0
        body = strict_json(capsys.readouterr().out)
        assert [row["bound"] for row in body["rows"]] == [
            "deterministic", "randomized", "lower", "technical_ratio", "technical_log"]
        assert body["metadata"]["parameters"]["alpha"] == 0.5

    @pytest.mark.parametrize("flags", [
        ["--alpha", "nan"], ["--beta", "nan"], ["--alpha", "inf"], ["--beta=-inf"],
        ["--alpha", "1e308"],         # finite, but the randomized bound overflows
        ["--epsilon", "1e-310"],      # a float, but e/epsilon overflows
        ["--epsilon", "1e-400"],      # positive, but 0.0 as a float
        ["--delta", "1e-400"],
        ["--range", "0"], ["--range", "-5"],
        ["--range", str(10 ** 309)],  # an int, but delta * n overflows a float
    ])
    def test_bounds_refuses_values_without_a_finite_report(self, flags, capsys):
        argv = ["bounds", "--epsilon", "1/100", "--delta", "1/10", "--range", "400",
                "--format", "json", *flags]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("epsilon", ["1e-310", "1e-400"])
    def test_gen_refuses_an_epsilon_too_small_for_a_float(self, epsilon, tmp_path, capsys):
        out = tmp_path / "adv.trace"
        assert main(["gen", "--epsilon", epsilon, "--delta", "1/5", "--range", "40",
                     "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.exists()

    def test_gen_refuses_at_once_a_pair_that_no_range_supports(self, tmp_path, capsys):
        # c = log2(5/4) / 3.92 < 1/4: the level growth exceeds 2
        out = tmp_path / "adv.trace"
        start = time.perf_counter()
        assert main(["gen", "--epsilon", "2/5", "--delta", "49/100", "--range", "10",
                     "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("epsilon,range_", [
        ("1/8", "1000000000"),       # 3 * 10**9 requests
        ("1/1000000000000", "1000"),  # 6,291,456,000 requests
    ])
    def test_gen_refuses_a_trace_too_long_to_build(self, epsilon, range_, tmp_path):
        # in a child under an address-space limit, so that a generator that
        # builds the plan it is given fails with MemoryError instead of
        # exhausting the host
        out = tmp_path / "adv.trace"
        proc = subprocess.run(
            [sys.executable, "-m", "cachelab", "gen", "--epsilon", epsilon,
             "--delta", "1/4", "--range", range_, "--out", str(out)],
            capture_output=True, text=True, env=child_env(), timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "limit" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reports_are_the_same_utf8_bytes_whatever_the_stream_encoding(self, fmt,
                                                                          tmp_path):
        """A report's stdout bytes, non-ASCII ids and all, are the same under a
        UTF-8, a Latin-1 and an ASCII stream, and equal its ``--out`` bytes."""
        trace = tmp_path / "u.trace"
        trace.write_bytes(NON_ASCII_TRACE.encode("utf-8"))
        on_trace = ["--trace", str(trace)]
        pair = ["--epsilon", "1/8", "--delta", "1/4"]
        commands = {
            "run": ["run", *on_trace, "--cache-size", "3"],
            "sweep": ["sweep", *on_trace, "--range", "4", *pair],
            "opt": ["opt", *on_trace, "--cache-size", "3"],
            "audit": ["audit", *on_trace, "--cache-size", "3", "--handicap", "2"],
            "bounds": ["bounds", *pair, "--range", "40"],
            "gen": ["gen", *pair, "--range", "40", "--out", str(tmp_path / "adv.trace")],
        }
        for name, argv in commands.items():
            argv = [*argv, "--format", fmt]
            outs = set()
            for encoding in ("utf-8", "latin-1", "ascii"):
                proc = subprocess.run([sys.executable, "-m", "cachelab", *argv],
                                      capture_output=True, timeout=120,
                                      env=child_env(PYTHONIOENCODING=encoding))
                assert (proc.returncode, proc.stderr) == (0, b""), (name, encoding)
                outs.add(proc.stdout)
            assert len(outs) == 1, name
            (out,) = outs
            if name != "gen":
                dest = tmp_path / f"{name}.{fmt}"
                assert main([*argv, "--out", str(dest)]) == 0
                assert dest.read_bytes() == out, name
            if name in ("run", "opt") and fmt == "csv":  # ids and evicted ids as cells
                assert "naïve".encode("utf-8") in out

    def test_underflowing_epsilon_is_named_exactly(self, capsys):
        assert main(["bounds", "--epsilon", "1e-400", "--delta", "1/10"]) == 2
        err = capsys.readouterr().err
        assert f"epsilon = {Fr(1, 10 ** 400)} is too small" in err
        assert "0.0" not in err

    def test_parse_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.trace"
        path.write_text("a 2\n")
        assert main(["run", "--trace", str(path), "--cache-size", "3"]) == 2

    def test_missing_file_exits_two(self, capsys):
        assert main(["run", "--trace", "/nonexistent", "--cache-size", "3"]) == 2

    def test_out_directory_exits_two(self, trace_file, tmp_path, capsys):
        code = main(["run", "--trace", trace_file, "--cache-size", "3",
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "--cache-size", "3"])  # --trace missing
        assert err.value.code == 2

    def test_parser_is_built_once_and_a_refused_argv_leaves_it_unchanged(
            self, trace_file, tmp_path, capsys):
        cli.build_parser.cache_clear()  # the first call below builds it afresh
        good = ["run", "--trace", trace_file, "--cache-size", "3", "--lambda", "1/2",
                "--format", "json", "--out"]
        assert main(good + [str(tmp_path / "alone.json")]) == 0
        with pytest.raises(SystemExit) as err:
            main(["run", "--trace", trace_file, "--cache-size", "3", "--lambda", "x/y"])
        assert err.value.code == 2
        assert main(good + [str(tmp_path / "after.json")]) == 0
        assert cli.build_parser() is cli.build_parser()
        alone = (tmp_path / "alone.json").read_bytes()
        assert b'"lambda": "1/2"' in alone
        assert (tmp_path / "after.json").read_bytes() == alone

    def test_out_file(self, trace_file, tmp_path, capsys):
        dest = tmp_path / "report.csv"
        code = main(["run", "--trace", trace_file, "--cache-size", "3",
                     "--out", str(dest)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert dest.read_text().splitlines()[1].startswith("index,")

    def test_opt_audit_and_sweep_serve_a_40_request_general_trace(self, tmp_path, capsys):
        # twelve files of sizes 1-3, 40 requests: the exact search's work
        # budget, not the trace's length, decides
        seq = desk_instance(1)
        path = tmp_path / "desk.trace"
        path.write_text(serialize_trace(seq))
        trace = ["--trace", str(path)]
        assert main(["opt", *trace, "--cache-size", "9", "--format", "json"]) == 0
        body = strict_json(capsys.readouterr().out)
        schedule = [(row["index"], tuple(filter(None, row["evicted"].split("|"))))
                    for row in body["rows"]]
        min_cost = Fr(body["metadata"]["parameters"]["min_cost"])
        assert replay_witness(seq, 9, schedule) == min_cost
        assert main(["audit", *trace, "--cache-size", "9", "--handicap", "7"]) == 0
        assert main(["sweep", *trace, "--range", "9", "--epsilon", "1/10",
                     "--delta", "1/5", "--alg", "opt"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[-9:]]
        assert [Fr(row[2]) for row in rows[2:]] == [
            opt_cost(seq, k).min_cost for k in range(3, 10)]
        assert rows[-1][2] == str(min_cost)

    @pytest.mark.parametrize("command", [
        ["run", "--cache-size", "3"], ["opt", "--cache-size", "3"],
        ["audit", "--cache-size", "3"],
        ["sweep", "--range", "3", "--epsilon", "1/10", "--delta", "1/5"]],
        ids=["run", "opt", "audit", "sweep"])
    def test_a_trace_that_is_not_utf8_exits_two(self, command, tmp_path, capsys):
        path = tmp_path / "bad.trace"
        path.write_bytes(b"a 1 1\n\xff\xfe 1 1\n")
        assert main([command[0], "--trace", str(path), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: b'\\xff' is not UTF-8\n"

    def test_request_too_large_exits_two(self, tmp_path):
        path = tmp_path / "big.trace"
        path.write_text("a 5 1\n")
        assert main(["run", "--trace", str(path), "--cache-size", "3"]) == 2


class TestExitOneOnViolations:
    def test_audit_exit_code_reflects_verdicts(self, monkeypatch, trace_file):
        import cachelab.cli as cli_mod

        real = cli_mod.analysis.audit_landlord

        def broken(*args, **kwargs):
            audit = real(*args, **kwargs)
            import dataclasses
            return dataclasses.replace(audit, all_satisfied=False)

        monkeypatch.setattr(cli_mod.analysis, "audit_landlord", broken)
        code = main(["audit", "--trace", trace_file, "--cache-size", "4"])
        assert code == 1


# --- the CLI contract under any argv -----------------------------------

def values(valid, invalid):
    """Flag values, three valid ones drawn for each invalid one."""
    return st.sampled_from(valid * 3 + invalid)


SIZES = values([str(k) for k in range(1, 9)], ["0", "-1", "x"])
RATIONALS = values(["1/10", "1/5", "1/4", "1/2", "1"], ["0", "-1", "3/2", "1e-400", "x"])
FLOATS = values(["0", "0.5", "1.25"], ["-1", "nan", "inf", "1e308"])
POLICY_FLAGS = {
    "--lambda": values(["1", "0", "1/2", "1/3", "2/3", "5/7", "99/100"], ["2", "-1/2"]),
    "--selector": values([e.value for e in EvictionSelector], ["all", "x"]),
    "--greediness": st.sampled_from([e.value for e in EvictionGreediness]),
}
# per subcommand: the flags it requires and the flags it may take
COMMANDS = {
    "run": ({"--cache-size": SIZES}, POLICY_FLAGS),
    # a range past 65,536 sizes is refused by name
    "sweep": ({"--range": values([str(k) for k in range(1, 9)] + ["240"],
                                 ["0", "-1", "x", "1000000000", str(10 ** 309)]),
               "--epsilon": RATIONALS, "--delta": RATIONALS},
              {"--alg": st.sampled_from(["landlord", "lru", "fifo", "fwf", "marking", "opt"]),
               "--seed": st.integers(0, 9).map(str), **POLICY_FLAGS}),
    "opt": ({"--cache-size": SIZES}, {}),
    "audit": ({"--cache-size": SIZES}, {"--handicap": SIZES, **POLICY_FLAGS}),
    # every plan of range 10**9 is past advgen.MAX_LENGTH
    "gen": ({"--epsilon": RATIONALS, "--delta": RATIONALS,
             "--range": values([str(k) for k in range(1, 9)] + ["1000000000"],
                               ["0", "-1", "x"])}, {}),
    # a range past a float's, 10**309, is refused by name
    "bounds": ({"--epsilon": RATIONALS, "--delta": RATIONALS},
               {"--alpha": FLOATS, "--beta": FLOATS,
                "--range": values([str(k) for k in range(1, 9)] + ["240", "1000000000"],
                                  ["0", "-1", "x", str(10 ** 309)])}),
}


# spliced into a trace file: bytes that are not UTF-8, NUL and line breaks
RAW_BYTES = [b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b"\x00", b"\r", b"\n"]


@st.composite
def contract_traces(draw):
    """Trace file bytes: general traces of up to 13 files and 60 requests,
    which the exact search serves, paging traces, or a wide general trace of
    12 files on which it runs out of work budget at k = 6.  Ids may be
    non-ASCII; any trace may have up to two of ``RAW_BYTES`` spliced in and
    a leading byte-order mark."""
    kind = draw(st.sampled_from(["general", "general", "paging", "wide"]))
    if kind == "wide":
        text = serialize_trace(wide_trace(170))
    elif kind == "paging":
        text = serialize_trace(paging_sequence(
            draw(st.lists(st.sampled_from(["a", "b", "c", "d", "e", "é", "Ω", "文件"]),
                          max_size=60))))
    else:
        stems = st.sampled_from(["f", "é", "Ω", "文件"])
        pool = [FileSpec(f"{draw(stems)}{i}", draw(st.integers(1, 4)),
                         Fr(draw(st.integers(0, 9)), draw(st.integers(1, 3))))
                for i in range(draw(st.integers(1, 13)))]
        text = serialize_trace(draw(st.lists(st.sampled_from(pool), max_size=60)))
    data = text.encode("utf-8")
    splices = draw(st.lists(st.tuples(st.integers(0, len(data)), st.sampled_from(RAW_BYTES)),
                            max_size=2))
    for at, raw in sorted(splices, reverse=True):
        data = data[:at] + raw + data[at:]
    return BOM + data if draw(st.booleans()) else data


@st.composite
def invocations(draw):
    """``(argv without file arguments, trace file bytes or None, format)``."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    argv = [command]
    for flag, choices in required.items():
        argv += [flag, draw(choices)]
    chosen = draw(st.lists(st.sampled_from(sorted(optional)), unique=True)) if optional else []
    for flag in chosen:
        argv += [flag, draw(optional[flag])]
    fmt = draw(st.sampled_from(["csv", "json"]))
    trace = None if command in ("gen", "bounds") else draw(contract_traces())
    return argv + ["--format", fmt], trace, fmt


def run_cli(argv):
    """``main(argv)``'s exit code, stdout and stderr.  Stdout is the UTF-8 of
    the bytes a pipe gets; its text layer is ASCII, so a report written as
    text in any other encoding fails here."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="ascii"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the argv
            code = exc.code
    out.flush()
    return code, out.buffer.getvalue().decode("utf-8"), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(invocations())
def test_cli_contract_under_any_argv(invocation):
    """Every subcommand exits 0, 1 or 2; exit 2 writes no report and one
    ``error:`` line, and a report is strict JSON or CSV whose metadata and
    header parse."""
    argv, trace, fmt = invocation
    with tempfile.TemporaryDirectory() as scratch:
        if trace is not None:
            path = f"{scratch}/t.trace"
            with open(path, "wb") as handle:
                handle.write(trace)
            argv = [*argv, "--trace", path]
        if argv[0] == "gen":
            argv = [*argv, "--out", f"{scratch}/adv.trace"]
        code, out, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1, err
        return
    if fmt == "json":
        strict_json(out)
        return
    lines = list(csv.reader(out.splitlines()))
    assert len(lines) >= 2 and len(lines[0]) == 1 and lines[0][0].startswith("# ")
    strict_json(lines[0][0][2:])
    header = lines[1]
    assert header and all(header) and len(set(header)) == len(header)
    assert all(len(row) == len(header) for row in lines[2:])
