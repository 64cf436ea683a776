"""tools/code_lines.py on a small synthetic package: what counts as a code line."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

MODULE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


def area(r):
    """Function docstring."""
    return math.pi * r * r


class Shape:
    """Class docstring."""

    NOTE = """a string that is not a docstring,
    over two lines"""

    def scaled(self, k):
        return area(
            k,
        )
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only():
    # import, def, return, class, the two lines of NOTE, def, and the
    # three lines of the call
    assert _tool().code_lines(MODULE) == 10


def test_module_lines_sum_to_the_total(tmp_path, capsys):
    tool = _tool()
    (tmp_path / "shapes.py").write_text(MODULE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert tool.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = {name: int(n) for n, name in map(str.split, lines)}
    assert counts == {"empty.py": 0, "shapes.py": 10, "total": 10}
    assert sum(n for name, n in counts.items() if name != "total") == counts["total"]
