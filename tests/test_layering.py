"""Module boundaries: no weakgordon module reads a private name of another,
only `measure` constructs a `Segment`, only `measure_io.rewrite` opens a
file for writing, and every error class is raised somewhere and caught by
`cli.run`, which maps it to its exit code.

The |mu| sweep, for one, stays behind `measure.SlidingMass`; a layer that
needs more of another exposes it under a public name, as `span_pieces` is
for the propagator's walk.  Segment cuts stay in the measure layer: the
others walk what it yields (`span_pieces`, `affine_products`,
`cumulative_pieces`) or build measures through `make_measure`.
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


def segment_constructions(source):
    """Calls that construct a measure Segment: `Segment(...)` or
    `module.Segment(...)`, as source text."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == "Segment"
                 or getattr(node.func, "attr", None) == "Segment")]


def test_only_measure_constructs_segments():
    found = {path.name: segment_constructions(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "measure.py"}
    assert {name: calls for name, calls in found.items() if calls} == {}
    assert segment_constructions((PACKAGE / "measure.py").read_text())


def test_segment_constructions_are_found():
    source = ("from . import measure as me\nfrom .measure import Segment\n"
              "a = Segment(0.0, 1.0, (1.0,))\nb = me.Segment(s0, s1, c)\n"
              "c = poly.Piece(0.0, 1.0, (1.0,))\nd = me.make_measure((), segs, w)\n")
    assert segment_constructions(source) == ["Segment(0.0, 1.0, (1.0,))",
                                             "me.Segment(s0, s1, c)"]


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


def _name(node):
    """The last part of a dotted name: `ValidationError` for
    `errors.ValidationError`."""
    return ast.unparse(node).rsplit(".", 1)[-1]


def unmapped_errors(sources, cli_source):
    """The subclasses of WeakGordonError that the sources define and no
    `raise` of theirs names, and those that no except clause of the CLI's
    `run` catches by their own name or a base's: two sets of class names."""
    trees = [ast.parse(source) for source in sources]
    bases = {node.name: [_name(b) for b in node.bases] for tree in trees
             for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}

    def lineage(name):
        return {name}.union(*(lineage(b) for b in bases.get(name, ())))

    classes = {name: lineage(name) for name in bases
               if name != "WeakGordonError" and "WeakGordonError" in lineage(name)}
    raised = {_name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
              for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and node.exc is not None}
    run = next(node for node in ast.walk(ast.parse(cli_source))
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    caught = {_name(t) for node in ast.walk(run) if isinstance(node, ast.ExceptHandler)
              and node.type is not None
              for t in (node.type.elts if isinstance(node.type, ast.Tuple) else [node.type])}
    return ({name for name in classes if name not in raised},
            {name for name, names in classes.items() if not names & caught})


def test_every_error_is_raised_and_has_an_exit_code():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unmapped_errors(sources, (PACKAGE / "cli.py").read_text()) == (set(), set())


def test_unraised_and_unmapped_errors_are_found():
    errors = ("class WeakGordonError(Exception):\n    pass\n"
              "class DomainError(WeakGordonError, ValueError):\n    pass\n"
              "class SpecError(errors.DomainError):\n    pass\n"
              "class UnusedError(WeakGordonError):\n    pass\n"
              "class LostError(WeakGordonError, RuntimeError):\n    pass\n"
              "class Unrelated(ValueError):\n    pass\n")
    library = ("def f(x):\n    if x:\n        raise errors.DomainError('x')\n"
               "    raise SpecError('y') from None\n"
               "def g():\n    raise LostError\n")
    cli = ("def run():\n    try:\n        f(1)\n    except (DomainError, OSError):\n"
           "        return 2\n    except ValueError:\n        return 3\n"
           "def other():\n    try:\n        g()\n    except LostError:\n        pass\n")
    assert unmapped_errors([errors, library], cli) == ({"UnusedError"},
                                                       {"UnusedError", "LostError"})
