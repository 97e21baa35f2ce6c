"""The CLI's error contract pinned in full: exit code, stdout and stderr of
each usage error and failed check, recorded before the subcommands handed
their usage errors to ``main``.

``data/cli_errors_golden.json`` lists one run per record.  ``{tmp}`` in its
arguments and stderr stands for the test's temporary directory, which holds
``bad-utf8.txt`` (the single byte 0xff) and no ``missing`` entry.
"""

import json
import os

import pytest

from gemkit.cli import main

GOLDEN_ERRORS = os.path.join(os.path.dirname(__file__), "data", "cli_errors_golden.json")

with open(GOLDEN_ERRORS, encoding="utf-8") as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"])[:40])
def test_error_output_is_byte_identical(capsys, tmp_path, case):
    (tmp_path / "bad-utf8.txt").write_bytes(b"\xff")
    tmp = str(tmp_path)
    rc = main([arg.replace("{tmp}", tmp) for arg in case["argv"]])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err.replace(tmp, "{tmp}")) == (
        case["exit"],
        case["stdout"],
        case["stderr"],
    )


def test_refused_order_creates_no_out_file(capsys, tmp_path):
    target = tmp_path / "census.txt"
    assert main(["census", "--order", "7", "--out", str(target)]) == 2
    assert capsys.readouterr().err == "order must be a positive even integer\n"
    assert not target.exists()
