"""Every module of the package uses what it imports.

Each src/imfield module except the package's __init__ (which re-exports)
is parsed with ast; a name an import binds that no expression of the
module reads is an unused import. Standard library only, so it runs
wherever the tests do.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "imfield"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imports(tree):
    """{bound name: line} of the module's imports, __future__ aside."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _parse(name):
    return ast.parse((SRC / name).read_text(), filename=name)


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_every_import(name):
    tree = _parse(name)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = {k: line for k, line in _imports(tree).items() if k not in read}
    assert not unused, f"{name}: unused imports {unused}"


def test_gkl_reduce_extracts_in_the_karp_frame():
    # scatter feeds the weighted field straight into the batched extraction;
    # the sampled-data API and the trace half-length are not its business
    bound = _imports(_parse("scatter.py"))
    for name in ("ImSamples", "RayGeometry", "extract_all",
                 "schedule_abscissas", "_trace_half_length"):
        assert name not in bound
