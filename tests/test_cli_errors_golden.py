"""The CLI's error contract pinned in full: exit code, stdout and stderr of
each usage error and failed check, recorded before the subcommands handed
their usage errors to ``main``.

``data/cli_errors_golden.json`` lists one run per record.  ``{tmp}`` in its
arguments and stderr stands for the test's temporary directory, which holds
``bad-utf8.txt`` (the single byte 0xff) and no ``missing`` entry.  For an
argument list that argparse itself refuses, the exit code is that of its
``SystemExit``.
"""

import json
import os
import subprocess
import sys

import pytest

from gemkit.cli import main

GOLDEN_ERRORS = os.path.join(os.path.dirname(__file__), "data", "cli_errors_golden.json")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

with open(GOLDEN_ERRORS, encoding="utf-8") as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"])[:40])
def test_error_output_is_byte_identical(capsys, tmp_path, case):
    (tmp_path / "bad-utf8.txt").write_bytes(b"\xff")
    tmp = str(tmp_path)
    try:
        rc = main([arg.replace("{tmp}", tmp) for arg in case["argv"]])
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err.replace(tmp, "{tmp}")) == (
        case["exit"],
        case["stdout"],
        case["stderr"],
    )


def test_refused_order_creates_no_out_file(tmp_path):
    # `gemkit census --order 7 > FILE`: the shell makes FILE, gemkit writes
    # no byte to it and makes no file of its own
    target = tmp_path / "census.txt"
    with open(target, "wb") as out:
        proc = subprocess.run(
            [sys.executable, "-m", "gemkit", "census", "--order", "7"],
            stdout=out,
            stderr=subprocess.PIPE,
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
    assert proc.returncode == 2
    assert proc.stderr == b"order must be a positive even integer\n"
    assert target.read_bytes() == b""
    assert os.listdir(tmp_path) == ["census.txt"]
