"""Module boundaries: no weakgordon module reads a private name of another.

The |mu| sweep, for one, stays behind `measure.SlidingMass`; a layer that
needs more of another exposes it under a public name.
"""

import ast
from pathlib import Path

import weakgordon

PACKAGE = Path(weakgordon.__file__).parent


def private_reads(source):
    """Names `module._name` of sibling modules that the source reads, by
    `from . import module` then `module._name`, or by
    `from .module import _name`."""
    tree = ast.parse(source)
    modules, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    reads.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            reads.append(f"{modules[node.value.id]}.{node.attr}")
    return reads


def test_no_module_reads_a_private_name_of_another():
    found = {path.name: private_reads(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: reads for name, reads in found.items() if reads} == {}


def test_private_reads_are_found():
    source = ("from . import measure as me\nfrom . import poly\n"
              "from .seminorm import _l1, window_seminorm\n"
              "x = me._abs_segments(s) + poly.MAX_PANELS + poly._MAX_PANELS\n"
              "y = mu._norm_unif\n")
    assert sorted(private_reads(source)) == [
        "measure._abs_segments", "poly._MAX_PANELS", "seminorm._l1"]
