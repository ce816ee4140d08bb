"""Every module of the package uses what it imports and defines.

Each src/imfield module except the package's __init__ (which re-exports)
is parsed with ast; a name an import binds that no expression of the
module reads is an unused import. A module-level private function or
class that nothing in src/imfield references outside its own body has
outlived its callers. Standard library only, so it runs wherever the
tests do.
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


def test_line_reconstruction_reads_through_one_sampling_plan():
    # the CLI and gkl_reduce hand propagate a sampler of Im psi; neither
    # synthesizes ray samples nor runs the pairs-then-lattice plan itself
    cli_bound = _imports(_parse("cli.py"))
    for name in ("sample_im_on_ray", "RayGeometry", "_line_data",
                 "reconstruct_from_im"):
        assert name not in cli_bound
    scatter_bound = _imports(_parse("scatter.py"))
    for name in ("_line_farfield", "_karp_line_traces", "_shared_gap"):
        assert name not in scatter_bound


def test_propagate_places_the_karp_frame():
    # samplers take points of the line; propagate places the Karp frame
    # and sizes the quadrature from the trace's extent for every caller
    for name in ("_foot", "HalfPlaneSpec"):
        assert name not in _imports(_parse("scatter.py"))
    for name in ("LineTrace", "propagate_halfplane", "_window_half_length"):
        assert name not in _imports(_parse("cli.py"))


def _names_read(node):
    """Names node reads, as a bare name or an attribute, or imports."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def test_every_private_definition_is_referenced():
    defs, reads = [], []  # (module, name, index of the defining node)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=path.name).body:
            reads.append(_names_read(node))
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                defs.append((path.name, node.name, len(reads) - 1))
    assert len(defs) > 50  # the walk found the package's privates
    orphans = [(mod, name) for mod, name, own in defs
               if not any(name in names for k, names in enumerate(reads)
                          if k != own)]
    assert not orphans, f"private definitions nothing references: {orphans}"
