"""The package's exports and the README's promises about them: ``from
gemkit import *`` gives every name of ``__all__`` once, every entry point
the README lists under "Other entry points" is re-exported from ``gemkit``,
and its quick start gives the results written in its comments."""

import ast
import os
import re

import gemkit

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def readme():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def test_readme_entry_points_are_exported():
    listed = readme().split("Other entry points:", 1)[1].split("All are re-exported", 1)[0]
    names = re.findall(r"`(\w+)`", listed)
    assert len(names) >= 17
    assert [n for n in names if n not in gemkit.__all__] == []
    assert all(hasattr(gemkit, n) for n in names)


def test_star_import_gives_all_without_duplicates():
    namespace = {}
    exec("from gemkit import *", namespace)
    assert len(set(gemkit.__all__)) == len(gemkit.__all__)
    assert sorted(n for n in namespace if n != "__builtins__") == sorted(gemkit.__all__)


def shows(value, comment):
    """Whether ``comment``, less a trailing remark in parentheses, is the
    value's str or repr; a quoted string ending ``...'`` gives a prefix."""
    want = comment.split(" (")[0].strip()
    if want.endswith("...'"):
        return repr(value).startswith(want[:-4])
    return want in (str(value), repr(value))


def test_readme_quick_start_gives_its_comments():
    section = readme().split("## Quick start (library)", 1)[1]
    source = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = source.splitlines()
    namespace = {}
    shown = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), README, "eval"), namespace)
            shown.append((value, lines[stmt.end_lineno - 1].split("#", 1)[1].strip()))
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), README, "exec"), namespace)
    assert [c.split(" (")[0] for _, c in shown] == [
        "Z^2",
        "True",
        "'ADEBCGFBEFGA...'",
        "36",
        "{'rank': 4, 'torsion': []}",
    ]
    assert [c for v, c in shown if not shows(v, c)] == []
