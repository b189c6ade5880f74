"""The repository's own tools, run as their usage says."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Each code line ends in "# code"; the rest are docstrings, comments or blanks.
MODULE = '''"""Module docstring,
over two lines."""

import os  # code
# a comment


class Thing:  # code
    """Class docstring."""

    size = 1  # code

    def method(self):  # code
        """Method docstring,
        over two lines.
        """
        text = """a string that is  # code
        not a docstring"""  # code
        """A string that is not first."""  # code
        return (text,  # code
                os.sep)  # code


async def run():  # code
    """Async function docstring."""
    return 1  # code
'''


def test_code_lines_counts_all_but_docstrings_comments_and_blanks(tmp_path):
    (tmp_path / "a.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nx = {\n    1: 2,\n}\n',
                                   encoding="utf-8")
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert MODULE.count("# code") == 11
    assert out == "a.py\t11\nb.py\t3\ntotal\t14\n"
