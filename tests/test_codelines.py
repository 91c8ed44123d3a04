"""tools/codelines.py: the code-line count the design notes quote."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "codelines.py"

# six code lines: `def f(x):`, both lines of the string that is no
# docstring, `return x`, `class C:` and `y = 1`
_FIXTURE = '''"""Module docstring,
over two lines."""

# a comment


def f(x):
    """Function docstring."""
    # an indented comment
    text = """a string
that is no docstring"""
    return x  # a trailing comment


class C:
    """Class docstring,

    with a blank line."""

    y = 1
'''


def test_codelines_counts_only_code_per_file_and_in_total(tmp_path):
    (tmp_path / "a.py").write_text(_FIXTURE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not python\n", encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True, text=True, check=True
    )
    rows = [line.split(None, 1) for line in done.stdout.splitlines()]
    assert rows == [
        ["6", str(tmp_path / "a.py")],
        ["1", str(tmp_path / "b.py")],
        ["7", "total"],
    ]
