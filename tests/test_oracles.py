"""tests/oracles.py stays independent of the package internals: from
skewopt it imports only the public names of skewopt.__all__, each of which
must resolve on the package, and it reads no single-underscore attribute."""

from __future__ import annotations

import ast
from pathlib import Path

import skewopt


def imports_past_the_api(source: str) -> list[str]:
    """Each skewopt import in the source other than a public name taken by
    `from skewopt import`: the bare package (whose attributes reach the
    submodules), a submodule, a private name or a name outside __all__."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "skewopt"]
        elif not isinstance(node, ast.ImportFrom) or not node.module:
            continue
        elif node.module.startswith("skewopt."):
            found.append(node.module)
        elif node.module == "skewopt":
            found += [a.name for a in node.names
                      if a.name.startswith("_") or a.name not in skewopt.__all__]
    return found


def private_attributes(source: str) -> list[str]:
    """Each attribute read like `x._name`: one leading underscore, not a
    dunder."""
    return [node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and node.attr.startswith("_") and not node.attr.startswith("__")]


def test_oracles_import_only_public_names():
    source = Path(__file__).with_name("oracles.py").read_text(encoding="utf-8")
    assert "from skewopt import" in source
    assert imports_past_the_api(source) == []
    assert private_attributes(source) == []


def test_import_check_flags_internals():
    assert imports_past_the_api("from skewopt import Graph\nimport numpy") == []
    for line, flagged in (
        ("import skewopt", "skewopt"),
        ("import skewopt.search as s", "skewopt.search"),
        ("from skewopt.search import census", "skewopt.search"),
        ("from skewopt import search", "search"),
        ("from skewopt import _colouring", "_colouring"),
        ("from skewopt import Graph, gram", "gram"),
        ("def f():\n    from skewopt import *", "*"),
    ):
        assert imports_past_the_api(line) == [flagged], line
    assert private_attributes("og.arcs\ng.__class__.__name__\nf(g).adj") == []
    for line, flagged in (
        ("og._sign", "_sign"),
        ("sign = og._sign.get((u, v))", "_sign"),
        ("g._bits[0] & 1", "_bits"),
        ("getattr(g, 'x')._connected", "_connected"),
    ):
        assert private_attributes(line) == [flagged], line


def test_all_names_resolve_sorted_and_unique():
    # a stale entry would break only `from skewopt import *`
    names = skewopt.__all__
    assert [name for name in names if not hasattr(skewopt, name)] == []
    assert names == sorted(set(names))
