"""Module boundaries: no weakgordon module reads a private name of another,
and only `measure_io.rewrite` opens a file for writing.

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


WRITE_MODES = set("wax+")


def file_writes(source):
    """Calls that open a file for writing, as `function: call`: `os.open`,
    `open` (or a `.open` method) with a mode that writes or one not given
    as a literal, `write_text` and `write_bytes`."""
    tree = ast.parse(source)
    owner = {id(node): fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        method = isinstance(func, ast.Attribute)
        name = func.attr if method else getattr(func, "id", None)
        if method and isinstance(func.value, ast.Name) and func.value.id == "os":
            writes = name == "open"
        elif name == "open":
            pos = 0 if method else 1  # path.open(mode), open(path, mode)
            modes = [*node.args[pos:pos + 1], *(k.value for k in node.keywords if k.arg == "mode")]
            writes = any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
                         or WRITE_MODES & set(m.value) for m in modes)
        else:
            writes = name in ("write_text", "write_bytes")
        if writes:
            found.append(f"{owner.get(id(node), '<module>')}: {ast.unparse(node)}")
    return found


def test_only_rewrite_opens_files_for_writing():
    writers = {f"{path.stem}.{call.split(':')[0]}" for path in sorted(PACKAGE.glob("*.py"))
               for call in file_writes(path.read_text())}
    assert writers == {"measure_io.rewrite"}


def test_file_writes_are_found():
    source = ("import os\n"
              "def load(path):\n    return open(path), open(path, 'rb'), p.open(mode='r')\n"
              "def dump(path, mode):\n"
              "    open(path, 'w')\n    open(path, mode=mode)\n    p.open('a')\n"
              "    os.open(path, os.O_RDONLY)\n    p.write_text('x')\n"
              "open('log', 'x+')\n")
    assert sorted(file_writes(source)) == [
        "<module>: open('log', 'x+')", "dump: open(path, 'w')", "dump: open(path, mode=mode)",
        "dump: os.open(path, os.O_RDONLY)", "dump: p.open('a')", "dump: p.write_text('x')"]
