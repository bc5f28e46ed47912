"""Module boundaries: no callselect module imports or reaches into another
callselect module's underscore names, so each module's private layout is
known to that module alone. oracles.py replays forest's bootstrap draws
and split rule on purpose, so it alone may use forest's."""

import ast
from pathlib import Path

import pytest

import callselect

_SRC = Path(callselect.__file__).parent
_ALLOWED = {("oracles", "forest")}  # (module, the module whose private names it may use)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _imported_module(node: ast.ImportFrom) -> str | None:
    """The callselect module an ImportFrom reads from ("" for the package), or None."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "callselect":
        return node.module.partition(".")[2]
    return None


def private_uses(source: str, module: str) -> list[tuple[int, str, str]]:
    """(line, other module, name) for each underscore name of another
    callselect module that module's source imports or reaches into."""
    tree = ast.parse(source)
    aliases: dict[str, str] = {}  # local name -> the callselect module it names
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (base := _imported_module(node)) is not None:
            for alias in node.names:
                if base == "":  # from . import x: x is a module
                    aliases[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    uses.append((node.lineno, base, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("callselect.") and alias.asname:
                    aliases[alias.asname] = alias.name.partition(".")[2]
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not _private(node.attr):
            continue
        value = node.value
        if isinstance(value, ast.Name) and value.id in aliases:
            uses.append((node.lineno, aliases[value.id], node.attr))
        elif (isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name)
              and value.value.id == "callselect"):  # import callselect.x; callselect.x._y
            uses.append((node.lineno, value.attr, node.attr))
    return sorted(use for use in uses if use[1] != module and (module, use[1]) not in _ALLOWED)


def test_no_module_uses_another_modules_private_names():
    found = {path.name: private_uses(path.read_text(encoding="utf-8"), path.stem)
             for path in sorted(_SRC.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {}
    assert len(found) >= 10  # the walk saw the package


@pytest.mark.parametrize("source, module, want", [
    ("from .forest import _Draws, train", "evaluate", [(1, "forest", "_Draws")]),
    ("from callselect.ingest import _cut", "cli", [(1, "ingest", "_cut")]),
    ("from . import ingest\ningest._read_span(p, 0, None)", "split", [(2, "ingest", "_read_span")]),
    ("from . import ingest as ig\nig._BLOCK", "cli", [(2, "ingest", "_BLOCK")]),
    ("import callselect.ingest as ig\nig._BLOCK", "cli", [(2, "ingest", "_BLOCK")]),
    ("import callselect.ingest\ncallselect.ingest._cut(p)", "cli", [(2, "ingest", "_cut")]),
    ("from .forked import _can_fork", "ingest", [(1, "forked", "_can_fork")]),
    ("from .forest import _Draws, _gini", "oracles", []),  # the one exception
    ("from .ingest import _cut\n_cut(p)", "ingest", []),  # its own names
    ("from . import ingest\ningest.__name__, ingest.Corpus", "cli", []),
    ("from collections import _chain\nimport os\nos._exit(0)", "cli", []),
], ids=["from-import", "absolute-from-import", "attribute", "aliased-module",
        "import-as", "dotted-attribute", "fork-gate", "oracles-forest", "own-module",
        "public-and-dunder", "other-package"])
def test_guard_finds_each_way_in(source, module, want):
    assert private_uses(source, module) == want
