"""The public surface is what the lab uses.

Every optional parameter of a function in ``schlichtlab.__all__`` must be
passed by at least one call in ``src/``, ``demos/``, ``bench/`` or the
acceptance suite; a parameter that no caller sets is a knob that changes
nothing, so it goes or becomes a constant.  Call sites are found by name in
each file's syntax tree.  The benchmark files are read here, never changed.

The CLI reaches no underscore-prefixed name of another module: what it runs
is the public surface too.
"""

import ast
import inspect
from collections import defaultdict
from pathlib import Path

import pytest

import schlichtlab

ROOT = Path(__file__).resolve().parent.parent
CALLER_FILES = [
    *sorted((ROOT / "src").rglob("*.py")),
    *sorted((ROOT / "demos").glob("*.py")),
    *sorted((ROOT / "bench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]

FUNCTIONS = sorted(name for name in schlichtlab.__all__
                   if inspect.isfunction(getattr(schlichtlab, name)))


def _call_sites():
    """Per called name: the keywords some call passes, and the most
    arguments one call passes by position."""
    keywords, positional = defaultdict(set), defaultdict(int)
    for path in CALLER_FILES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            keywords[name].update(k.arg for k in node.keywords if k.arg is not None)
            count = sum(not isinstance(a, ast.Starred) for a in node.args)
            positional[name] = max(positional[name], count)
    return keywords, positional


KEYWORDS, POSITIONAL = _call_sites()


def test_the_scan_sees_the_callers():
    # make_schlicht("rotation", {"theta": ...}, order=...) and friends
    assert len(FUNCTIONS) > 30
    assert "order" in KEYWORDS["make_schlicht"]
    assert POSITIONAL["make_schlicht"] == 3


@pytest.mark.parametrize("name", FUNCTIONS)
def test_every_optional_parameter_is_passed(name):
    params = list(inspect.signature(getattr(schlichtlab, name)).parameters.values())
    unset = [p.name for i, p in enumerate(params)
             if p.default is not p.empty
             and p.name not in KEYWORDS[name]
             and not (p.kind is not p.KEYWORD_ONLY and i < POSITIONAL[name])]
    assert unset == [], f"no caller passes {name}({', '.join(unset)})"


def _private_reaches(path: Path) -> list:
    """The ``module._name`` attributes and ``from module import _name`` imports
    in ``path`` that reach an underscore-prefixed name of another module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    reaches = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr.startswith("_")
               and isinstance(node.value, ast.Name) and node.value.id in imported]
    reaches += [f"from {'.' * node.level}{node.module or ''} import {alias.name}"
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names
                if alias.name.startswith("_")]
    return sorted(reaches)


def test_cli_stays_on_the_public_surface(tmp_path):
    assert _private_reaches(ROOT / "src" / "schlichtlab" / "cli.py") == []
    # the scan finds both spellings
    probe = tmp_path / "probe.py"
    probe.write_text("from . import lab\nfrom .lab import _run_audit\nlab._audit_members([], None)\n")
    assert _private_reaches(probe) == ["from .lab import _run_audit", "lab._audit_members"]
