"""Command line interface: subcommands, formats, exit codes, start-up cost."""

import argparse
import io
import json
import os
import sys

import pytest

from gemkit import TABLE1, cli
from gemkit.cli import main, read_records

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
CODES_FILE = os.path.join(DATA_DIR, "table1_codes.tsv")
GOLDEN_INVARIANTS = os.path.join(DATA_DIR, "table1_invariants.jsonl")
GOLDEN_CANON = os.path.join(DATA_DIR, "table1_canon.tsv")
#: Lets a child interpreter import gemkit from this checkout.
SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=os.path.join(DATA_DIR, "..", "..", "src"))

BASE1 = "DABCFEFEABDCCDEFAB"


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def list_read_records(path):
    """The reader as it was before it streamed: the whole input read at once
    and split with ``str.splitlines``."""
    if path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    records = []
    for line in lines:
        if not line.strip() or line.startswith("#"):
            continue
        if "\t" in line:
            name, code = line.split("\t", 1)
            records.append((name, code))
        else:
            records.append((None, line))
    return records


#: Every line break of ``str.splitlines``, mixed into one input.
SEPARATED = (
    "# head\r\nalpha\tAAA\rBAABBA\x0bb\tAAA\x0c#c\x1cAAA\x1dn\tBAABBA\x1e"
    "\x85x\tAAA\u2028 \u2029y\tAAA\tz\r\n\r\nBAABBA\n\rlast\tAAA"
)


class TestReadRecords:
    def test_names_comments_and_blanks(self, tmp_path):
        f = tmp_path / "codes.txt"
        f.write_text("# comment\n\nalpha\tAAA\nBAABBA\r\n  \n", encoding="utf-8")
        assert list(read_records(str(f))) == [("alpha", "AAA"), (None, "BAABBA")]

    def test_stdin_dash(self, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("AAA\n"))
        assert list(read_records("-")) == [(None, "AAA")]

    def test_empty_name_prefix_is_no_name(self, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("\tAAA\nx\tAAA\n"))
        assert list(read_records("-")) == [(None, "AAA"), ("x", "AAA")]

    def test_streams_one_record_at_a_time(self, tmp_path):
        f = tmp_path / "codes.txt"
        f.write_text("AAA\nBAABBA\n", encoding="utf-8")
        records = read_records(str(f))
        assert next(records) == (None, "AAA")
        assert next(records) == (None, "BAABBA")

    @pytest.mark.parametrize("newline", ["", "\n", "\r\n", "\r"])
    def test_file_matches_the_list_reader_on_every_separator(self, tmp_path, newline):
        f = tmp_path / "codes.txt"
        with open(f, "w", encoding="utf-8", newline=newline) as fh:
            fh.write(SEPARATED)
        want = list_read_records(str(f))
        assert len(want) == 9
        assert list(read_records(str(f))) == want

    def test_stdin_matches_the_list_reader_on_every_separator(self, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(SEPARATED))
        want = list_read_records("-")
        monkeypatch.setattr(sys, "stdin", io.StringIO(SEPARATED))
        assert list(read_records("-")) == want

    def test_stdin_bytes_match_the_list_reader(self, monkeypatch):
        # a real standard input is a text wrapper over bytes, which keeps \r
        def stdin():
            raw = io.BytesIO(SEPARATED.encode("utf-8"))
            return io.TextIOWrapper(raw, encoding="utf-8", newline="\n")

        monkeypatch.setattr(sys, "stdin", stdin())
        want = list_read_records("-")
        monkeypatch.setattr(sys, "stdin", stdin())
        assert list(read_records("-")) == want

    @pytest.mark.parametrize("command", ["validate", "invariants", "canon"])
    def test_output_is_unchanged_on_every_separator(self, capsys, tmp_path, command):
        f = tmp_path / "codes.txt"
        f.write_text(SEPARATED + "\nbad\tAB\n", encoding="utf-8")
        rc, out, err = run(capsys, [command, str(f)])
        record = getattr(cli, "_%s_record" % command)
        want = {True: "", False: ""}
        for ok, line in map(record, list_read_records(str(f))):
            want[ok or command == "validate"] += line + "\n"
        assert (rc, out, err) == (1, want[True], want[False])

    def test_bad_utf8_after_many_records_exits_2(self, capsys, tmp_path):
        # records decoded before the bad bytes are already printed
        f = tmp_path / "late.txt"
        f.write_bytes(b"AAA\n" * 5000 + b"\xff\n")
        rc, out, err = run(capsys, ["validate", str(f)])
        assert rc == 2 and "can't decode byte 0xff" in err
        assert set(out.splitlines()) <= {"OK\t-\tAAA"}

    def test_missing_file_exits_before_any_output(self, capsys, tmp_path):
        rc, out, err = run(capsys, ["canon", str(tmp_path / "missing.txt")])
        assert rc == 2 and out == ""
        assert err.startswith("[Errno 2] No such file or directory")


class TestValidate:
    def test_all_good(self, capsys, tmp_path):
        f = tmp_path / "ok.txt"
        f.write_text("one\tAAA\nBAABBA\n", encoding="utf-8")
        rc, out, err = run(capsys, ["validate", str(f)])
        assert rc == 0
        assert out.splitlines() == ["OK\tone\tAAA", "OK\t-\tBAABBA"]

    def test_failure_sets_exit_code(self, capsys, tmp_path):
        f = tmp_path / "mixed.txt"
        f.write_text("good\tAAA\nbad\tAB\n", encoding="utf-8")
        rc, out, err = run(capsys, ["validate", str(f)])
        assert rc == 1 and err == ""
        lines = out.splitlines()
        assert lines[0].startswith("OK\tgood")
        assert lines[1].startswith("ERROR\tbad\tAB\tBadLengthError")

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("AAA\n"))
        rc, out, _ = run(capsys, ["validate", "-"])
        assert rc == 0 and out == "OK\t-\tAAA\n"

    def test_empty_name_prefix_prints_as_no_name(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("\tAAA\n"))
        rc, out, err = run(capsys, ["validate", "-"])
        assert (rc, out, err) == (0, "OK\t-\tAAA\n", "")

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        rc, _, err = run(capsys, ["validate", str(tmp_path / "absent.txt")])
        assert rc == 2 and err


class TestInvariants:
    def test_golden_corpus_byte_exact(self, capsys):
        assert list(read_records(CODES_FILE)) == [(row.name, row.code) for row in TABLE1]
        rc, out, err = run(capsys, ["invariants", CODES_FILE])
        assert rc == 0 and err == ""
        with open(GOLDEN_INVARIANTS, "r", encoding="utf-8") as fh:
            assert out == fh.read()

    def test_golden_canon_byte_exact(self, capsys):
        # no row code is canonical; 23 rows have a double edge, 11 only a
        # bicolored 4-cycle
        rc, out, err = run(capsys, ["canon", CODES_FILE])
        assert rc == 0 and err == ""
        with open(GOLDEN_CANON, "r", encoding="utf-8") as fh:
            assert out == fh.read()
        canon = [line.split("\t")[1] for line in out.splitlines()]
        assert not {row.code for row in TABLE1} & set(canon)
        assert sorted(code[:2] for code in canon) == ["AC"] * 12 + ["AD"] * 11 + ["BA"] * 11

    def test_json_fields(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("AAA\n"))
        rc, out, _ = run(capsys, ["invariants", "-"])
        assert rc == 0
        rec = json.loads(out)
        assert rec == {
            "name": None,
            "code": "AAA",
            "order": 2,
            "bipartite": True,
            "closed": True,
            "boundary": [],
            "h1": {"rank": 0, "torsion": []},
            "six_regular": False,
        }

    def test_empty_name_prefix_is_null(self, capsys, monkeypatch):
        # as validate prints "-" and canon the bare code for the same line
        monkeypatch.setattr(sys, "stdin", io.StringIO("\tAAA\n"))
        rc, out, err = run(capsys, ["invariants", "-"])
        assert rc == 0 and err == ""
        rec = json.loads(out)
        assert rec["name"] is None and rec["code"] == "AAA"
        assert out.startswith('{"name":null,')

    @pytest.mark.parametrize("command", ["invariants", "canon"])
    def test_empty_name_prefix_failure_names_the_code(self, capsys, monkeypatch, command):
        monkeypatch.setattr(sys, "stdin", io.StringIO("\tAB\n"))
        rc, out, err = run(capsys, [command, "-"])
        assert (rc, out) == (1, "")
        assert err == "AB: BadLengthError: code has 2 entries, not divisible by 3\n"

    @pytest.mark.parametrize("command", ["invariants", "canon"])
    def test_bad_codes_go_to_stderr(self, capsys, monkeypatch, command):
        monkeypatch.setattr(sys, "stdin", io.StringIO("AAA\nAB\n"))
        rc, out, err = run(capsys, [command, "-"])
        assert rc == 1
        assert len(out.splitlines()) == 1
        assert err == "AB: BadLengthError: code has 2 entries, not divisible by 3\n"


def test_huge_numeric_token_fails_only_its_record(capsys, tmp_path):
    f = tmp_path / "big.txt"
    f.write_text("ok\tAAA\nbig\t%s,1,1\nok2\tAAA\n" % ("9" * 5000), encoding="utf-8")
    rc, out, err = run(capsys, ["validate", str(f)])
    assert rc == 1
    assert [line.split("\t")[0] for line in out.splitlines()] == ["OK", "ERROR", "OK"]
    rc, out, err = run(capsys, ["invariants", str(f)])
    assert rc == 1
    assert [json.loads(line)["name"] for line in out.splitlines()] == ["ok", "ok2"]
    assert err == "big: BadCharError: token of 5000 digits is too long\n"


class TestCanon:
    def test_names_preserved(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("s3\tAAA\nBAABBA\n"))
        rc, out, _ = run(capsys, ["canon", "-"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "s3\tAAA"
        assert "\t" not in lines[1]

    def test_empty_name_prefix_prints_the_bare_code(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("\tBAABBA\n"))
        rc, out, err = run(capsys, ["canon", "-"])
        assert (rc, out, err) == (0, "ABBABA\n", "")

    def test_canonical_is_idempotent_through_cli(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(BASE1 + "\n"))
        rc, first, _ = run(capsys, ["canon", "-"])
        monkeypatch.setattr(sys, "stdin", io.StringIO(first))
        rc, second, _ = run(capsys, ["canon", "-"])
        assert rc == 0 and first == second

    def test_disconnected_code_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("ABABAB\n"))
        rc, out, err = run(capsys, ["canon", "-"])
        assert rc == 1 and out == "" and "NotConnectedError" in err


class TestCover:
    def test_empty_solution_set(self, capsys):
        rc, out, _ = run(capsys, ["cover", "--code", "AAA", "--degree", "2"])
        assert rc == 0
        assert json.loads(out) == {"base_code": "AAA", "n": 2, "solutions": []}

    def test_solution_record_shape(self, capsys):
        rc, out, _ = run(
            capsys, ["cover", "--code", BASE1, "--degree", "2", "--limit", "2"]
        )
        assert rc == 0
        rec = json.loads(out)
        assert rec["base_code"] == BASE1 and rec["n"] == 2
        assert len(rec["solutions"]) == 2
        for sol in rec["solutions"]:
            assert sol["admissible"] is True
            assert set(sol) == {
                "voltages",
                "derived_code",
                "admissible",
                "boundary",
                "h1",
            }
            # 12-vertex base: 24 edges, 11 in the tree, 13 free
            assert len(sol["voltages"]) == 13
            for vertex, color, value in sol["voltages"]:
                assert 0 <= vertex < 12 and color in (0, 1, 2, 3)
                assert 0 <= value < 2
            derived = sol["derived_code"]
            assert len(derived) == 3 * 12  # order 24 letter code
            assert all(s["orientable"] and s["euler"] == 0 for s in sol["boundary"])

    def test_derived_code_round_trips(self, capsys):
        from gemkit import parse_code

        rc, out, _ = run(capsys, ["cover", "--code", BASE1, "--degree", "3"])
        rec = json.loads(out)
        g = parse_code(rec["solutions"][0]["derived_code"])
        assert g.order == 36

    def test_bad_base_code(self, capsys):
        rc, _, err = run(capsys, ["cover", "--code", "AB", "--degree", "2"])
        assert rc == 2 and "bad base code" in err

    def test_bad_degree(self, capsys):
        rc, _, err = run(capsys, ["cover", "--code", "AAA", "--degree", "0"])
        assert rc == 2 and err

    def test_zero_limit_reports_no_solution(self, capsys):
        rc, out, _ = run(
            capsys, ["cover", "--code", BASE1, "--degree", "2", "--limit", "0"]
        )
        assert rc == 0 and json.loads(out)["solutions"] == []

    def test_negative_limit_is_usage_error(self, capsys):
        rc, out, err = run(
            capsys, ["cover", "--code", BASE1, "--degree", "2", "--limit", "-1"]
        )
        assert rc == 2 and out == "" and "negative" in err

    def test_records_stream_as_computed(self, monkeypatch):
        import gemkit.cli as cli

        buf = io.StringIO()
        seen = []
        build = cli.derived_graph

        def spy(va):
            seen.append(buf.getvalue())
            return build(va)

        monkeypatch.setattr(sys, "stdout", buf)
        monkeypatch.setattr(cli, "derived_graph", spy)
        rc = main(["cover", "--code", BASE1, "--degree", "3", "--limit", "2"])
        assert rc == 0 and len(seen) == 2
        head = '{"base_code":"%s","n":3,"solutions":[' % BASE1
        first = json.dumps(json.loads(buf.getvalue())["solutions"][0], separators=(",", ":"))
        # the first record is on stdout before the second graph is built
        assert seen == [head, head + first]
        assert buf.getvalue().endswith("}]}\n")

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_limit_pulls_no_table_past_it(self, capsys, monkeypatch, k):
        import gemkit.coverings as coverings

        solve = coverings._voltage_tables

        def stub(base, n):
            for i, va in enumerate(solve(base, n)):
                if i == k:
                    raise AssertionError("table %d pulled under --limit %d" % (i + 1, k))
                yield va

        monkeypatch.setattr(coverings, "_voltage_tables", stub)
        rc, out, _ = run(
            capsys, ["cover", "--code", BASE1, "--degree", "3", "--limit", str(k)]
        )
        assert rc == 0 and len(json.loads(out)["solutions"]) == k

    def test_cap_admits_every_documented_degree(self):
        from gemkit.coverings import DERIVED_ORDER_CAP

        # degree 40 over the order-12 covering bases is the largest in use
        assert DERIVED_ORDER_CAP >= 12 * 40

    def test_derived_order_at_cap_runs(self, capsys, monkeypatch):
        import gemkit.cli as cli

        monkeypatch.setattr(cli, "DERIVED_ORDER_CAP", 24)
        rc, out, _ = run(capsys, ["cover", "--code", BASE1, "--degree", "2"])
        assert rc == 0 and len(json.loads(out)["solutions"]) == 1

    def test_derived_order_above_cap_is_refused_before_solving(
        self, capsys, monkeypatch
    ):
        import gemkit.cli as cli

        def must_not_run(*args, **kwargs):
            raise AssertionError("solver or derived graph reached above the cap")

        monkeypatch.setattr(cli, "_solutions", must_not_run)
        monkeypatch.setattr(cli, "derived_graph", must_not_run)
        rc, out, err = run(
            capsys, ["cover", "--code", BASE1, "--degree", "1000000000"]
        )
        assert rc == 2 and out == "" and "exceeds the cap" in err
        monkeypatch.setattr(cli, "DERIVED_ORDER_CAP", 24)
        rc, out, err = run(capsys, ["cover", "--code", BASE1, "--degree", "3"])
        assert rc == 2 and out == "" and "derived order 36 exceeds the cap 24" in err


class TestCensus:
    def test_order_four_output(self, capsys):
        rc, out, _ = run(capsys, ["census", "--order", "4"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[:3] == [
            "#gemkit-census v1",
            "#order=4",
            "#opts=bipartite,connected",
        ]
        assert [ln.split("\t")[0] for ln in lines[3:]] == ["ABABBA", "ABBABA"]
        for ln in lines[3:]:
            payload = json.loads(ln.split("\t", 1)[1])
            assert payload["order"] == 4

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        # `gemkit census ... > FILE` holds exactly the bytes written to stdout
        import subprocess

        rc, out, _ = run(capsys, ["census", "--order", "6"])
        assert rc == 0
        target = tmp_path / "census6.txt"
        with open(target, "wb") as fh:
            subprocess.run(
                [sys.executable, "-m", "gemkit", "census", "--order", "6"],
                stdout=fh,
                env=SUBPROCESS_ENV,
                check=True,
            )
        assert target.read_bytes() == out.encode("utf-8")

    def test_classifies_each_written_line_once(self, capsys, monkeypatch):
        import gemkit.census as census_mod

        real, calls = census_mod.classify, []

        def counted(code):
            calls.append(code)
            return real(code)

        monkeypatch.setattr(census_mod, "classify", counted)
        rc, out, _ = run(capsys, ["census", "--order", "8"])
        assert rc == 0
        written = [ln.split("\t")[0] for ln in out.splitlines()[3:]]
        assert calls == written and len(calls) == 47
        assert written == sorted(census_mod.enumerate_gems(8))

    def test_max_results_is_gone(self, capsys):
        # the census is written whole; its head is `gemkit census ... | head`
        with pytest.raises(SystemExit) as exc:
            main(["census", "--help"])
        assert exc.value.code == 0
        assert "max-results" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["census", "--order", "6", "--max-results", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --max-results 1" in captured.err

    def test_out_is_gone(self, capsys, tmp_path):
        # the census goes to stdout; a file of it is `gemkit census ... > FILE`
        with pytest.raises(SystemExit) as exc:
            main(["census", "--help"])
        assert exc.value.code == 0
        assert "--out" not in capsys.readouterr().out
        target = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main(["census", "--order", "6", "--out", str(target)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --out" in captured.err
        assert not target.exists()

    def test_large_order_needs_opt_in(self, capsys):
        rc, out, err = run(capsys, ["census", "--order", "12"])
        assert rc == 2 and out == "" and "--allow-large" in err

    def test_cap_is_a_hard_stop(self, capsys):
        rc, _, err = run(capsys, ["census", "--order", "14", "--allow-large"])
        assert rc == 2 and "cap" in err

    def test_odd_order_rejected(self, capsys):
        # build_census refuses the order before write_census writes the header
        for order in ("5", "0", "-2"):
            rc, out, err = run(capsys, ["census", "--order", order])
            assert (rc, out, err) == (2, "", "order must be a positive even integer\n")


class TestTable1:
    def test_full_run(self, capsys):
        rc, out, _ = run(capsys, ["table1"])
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 35
        assert all(ln.startswith("PASS\t") for ln in lines[:34])
        assert lines[34] == "canonical codes distinct: yes"

    def test_failed_row(self, capsys, monkeypatch):
        import gemkit.census as census_mod
        from gemkit.data import TABLE1

        real = census_mod.verify_table1
        bad = TABLE1[0]._replace(boundary_count=3)
        monkeypatch.setattr(census_mod, "verify_table1", lambda: real([bad]))
        rc, out, _ = run(capsys, ["table1"])
        assert rc == 1
        assert out == (
            "FAIL\t%s\t2 boundary components, expected 3; "
            "H1 is not free of rank 3: {'rank': 2, 'torsion': []}\n"
            "canonical codes distinct: yes\n" % bad.name
        )


#: Every subcommand with its help string, in the order ``gemkit --help`` lists them.
SUBCOMMANDS = (
    ("validate", "check every code in a file parses"),
    ("invariants", "print one invariant JSON record per code"),
    ("canon", "print the canonical code of every input code"),
    ("cover", "solve for admissible cyclic coverings"),
    ("census", "enumerate one order up to isomorphism"),
    ("table1", "verify the bundled order-14 table"),
)


class TestParser:
    def test_help_lists_subcommands_in_order(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        # whitespace collapsed: argparse may wrap and indent differently
        text = " ".join(capsys.readouterr().out.split())
        assert "{%s}" % ",".join(name for name, _ in SUBCOMMANDS) in text
        at = [text.index("%s %s" % pair) for pair in SUBCOMMANDS]
        assert at == sorted(at)

    @pytest.mark.parametrize("name", ["validate", "invariants", "canon"])
    def test_record_subcommand_usage(self, name):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert sub.choices[name].format_usage() == "usage: gemkit %s [-h] file\n" % name

    def test_record_function_is_read_when_the_parser_is_built(self, capsys, monkeypatch):
        # a tracer rebinds the module's record functions before calling main
        seen = []

        def traced(record):
            seen.append(record)
            return cli._validate_record(record)

        monkeypatch.setattr(cli, "_canon_record", traced)
        monkeypatch.setattr(sys, "stdin", io.StringIO("AAA\n"))
        rc, out, _ = run(capsys, ["canon", "-"])
        assert rc == 0 and out == "OK\t-\tAAA\n" and seen == [(None, "AAA")]


class TestEntryPoints:
    def test_module_and_console_entry(self, capsys, monkeypatch):
        import gemkit.__main__  # importable without running

        from gemkit.cli import main_entry

        monkeypatch.setattr(sys, "argv", ["gemkit", "table1"])
        with pytest.raises(SystemExit) as exc:
            main_entry()
        assert exc.value.code == 0
        capsys.readouterr()

    def test_start_up_imports_no_process_machinery(self):
        import subprocess

        # every subcommand pays for what importing the CLI pulls in
        probe = (
            "import sys, gemkit.cli; gemkit.cli.build_parser(); "
            "print('multiprocessing' in sys.modules, "
            "'concurrent.futures' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env=SUBPROCESS_ENV,
        )
        assert proc.stdout == "False False\n"

    def test_closed_pipe_exits_141_without_traceback(self):
        import subprocess

        # order 10 prints about 85 KB, more than a pipe buffer holds, so the
        # child is still writing when the read end closes
        with subprocess.Popen(
            [sys.executable, "-m", "gemkit", "census", "--order", "10"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=SUBPROCESS_ENV,
        ) as proc:
            assert proc.stdout.readline() == b"#gemkit-census v1\n"
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == 141
        assert err == b""

    def test_broken_pipe_exits_quietly(self):
        import subprocess

        # enough records to overrun the pipe buffer after head has left
        feeder = "yes AAA | head -n 5000 | %s -m gemkit invariants - | head -n 1"
        proc = subprocess.run(
            feeder % sys.executable,
            shell=True,
            capture_output=True,
            text=True,
            check=False,
            env=SUBPROCESS_ENV,
        )
        assert proc.returncode == 0  # head's status ends the pipeline
        assert json.loads(proc.stdout)["code"] == "AAA"
        assert "Traceback" not in proc.stderr
        assert "BrokenPipeError" not in proc.stderr
        assert "Exception ignored" not in proc.stderr
