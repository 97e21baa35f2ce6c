"""The README's promise about the package namespace: every entry point it
lists under "Other entry points" is re-exported from ``gemkit``."""

import os
import re

import gemkit

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_readme_entry_points_are_exported():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    listed = text.split("Other entry points:", 1)[1].split("All are re-exported", 1)[0]
    names = re.findall(r"`(\w+)`", listed)
    assert len(names) >= 17
    assert [n for n in names if n not in gemkit.__all__] == []
    assert all(hasattr(gemkit, n) for n in names)
