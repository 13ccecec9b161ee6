"""Measure specification files.

Format (JSON document):

    {"window": [lo, hi],
     "atoms": [{"x": ..., "re": ..., "im": ...}, ...],
     "segments": [{"a": ..., "b": ..., "coeffs": [[re, im], ...]}, ...],
     "periodic": {"period": p}}          # optional

Every number is read as a double, integers too, and checked by one rule
(`_reals`): true/false, NaN/Infinity and literals beyond float range are
rejected, as are overlapping segments, with line-anchored messages.  A
list is checked in bulk; its failing element is looked for only then.
With "periodic" the atoms/segments are the base on [0, p).  The writer
gives the text of json.dumps(..., indent=1), with shortest-repr floats.
"""

from __future__ import annotations

import json
import math
import re
from functools import partial
from itertools import chain, islice
from operator import lt

import numpy as np

from . import measure as me
from .errors import ValidationError


class SpecFileError(ValidationError):
    """Measure file failed to parse or validate."""


# integers decode as floats, so a document's numbers are floats (or bools)
_DECODER = json.JSONDecoder(parse_int=float, parse_constant=lambda name: _err(
    f"non-finite literal {name} is not allowed"))
_GAP = re.compile(r"[\s,]*")  # between the elements of an array


def _line_of_token(text, pattern):
    m = re.search(pattern, text)
    return m and text.count("\n", 0, m.start()) + 1


def _line_of_element(text, key, index):
    """Line of the index-th element, of any type, of the array under `key`: the
    decoder skips the elements before it, with their nested brackets and strings."""
    m = re.search(r'"%s"\s*:\s*\[' % re.escape(key), text)
    if not m:
        return None
    pos = _GAP.match(text, m.end()).end()
    try:
        for _ in range(index):
            pos = _GAP.match(text, _DECODER.raw_decode(text, pos)[1]).end()
    except ValueError:
        return None
    return text.count("\n", 0, pos) + 1


def _err(msg, line=None):
    """Raise SpecFileError; `line` may be a callable, so that locating the
    element (a scan of the text) happens only on this error path."""
    line = line() if callable(line) else line
    raise SpecFileError(msg if line is None else f"line {line}: {msg}")


def _finite(vals):
    return {float}.issuperset(map(type, vals)) and all(map(math.isfinite, vals))


def _reals(obj, keys, where, line):
    """The entries `keys` (field names or list indices) of `where`, by the
    one rule for every number of a measure file: a finite float (a literal
    beyond float range decodes to inf; true and false are bools)."""
    for key in keys:
        if (named := isinstance(key, str)) and key not in obj:
            _err(f"{where}: missing field '{key}'", line)
        if type(v := obj[key]) is not float or not math.isfinite(v):
            what = f"{where}: field '{key}'" if named else f"{where}[{key}]"
            _err(f"{what} {'is not finite' if type(v) is float else 'must be a number'}", line)
    return [obj[key] for key in keys]


def _reject(text, key, raw):
    """Raise the first failing check of the list `key`, atoms or segments."""
    if not isinstance(raw, list):
        _err(f"field '{key}' must be a list", _line_of_token(text, f'"{key}"'))
    for i, item in enumerate(raw):
        line, where = partial(_line_of_element, text, key, i), f"{key}[{i}]"
        if not isinstance(item, dict):
            _err(f"{where} must be an object", line)
        if key == "atoms":
            _reals(item, ["x", *(k for k in ("re", "im") if k in item)], where, line)
            if "re" not in item and "im" not in item:
                _err(f"{where}: needs 're' and/or 'im'", line)
            continue
        a, b = _reals(item, ("a", "b"), where, line)
        coeffs = item.get("coeffs")
        if not isinstance(coeffs, list) or not coeffs:
            _err(f"{where}: 'coeffs' must be a nonempty list", line)
        if len(coeffs) > me.MAX_DEGREE + 1:
            _err(f"{where}: degree {len(coeffs) - 1} exceeds cap {me.MAX_DEGREE}", line)
        for k, c in enumerate(coeffs):
            if not isinstance(c, list) or len(c) != 2:
                _err(f"{where}: coeffs entries must be [re, im]", line)
            _reals(c, (0, 1), f"{where}: coeffs[{k}]", line)
        if not a < b:
            _err(f"{where}: need a < b, got [{a}, {b}]", line)


def parse_measure(text: str):
    """Parse a measure spec; returns LocalMeasure or PeriodicMeasure."""
    try:
        doc = _DECODER.decode(text)
    except SpecFileError as e:
        _err(str(e), _line_of_token(text, r"NaN|Infinity|-Infinity"))
    except json.JSONDecodeError as e:
        raise SpecFileError(f"line {e.lineno}: {e.msg}") from e
    if not isinstance(doc, dict):
        _err("top level must be an object")

    win, line = doc.get("window"), partial(_line_of_token, text, r'"window"')
    if not isinstance(win, list) or len(win) != 2:
        _err("field 'window' must be [lo, hi]", line)
    lo, hi = _reals(win, (0, 1), "window", line)

    # each list is checked in bulk for what _reject checks element by element; an
    # object with 'x' and 're' and/or 'im' gives three values, anything else fewer or raises
    raw = doc.get("atoms", [])
    try:
        flat = [v for a in raw if "re" in a or "im" in a
                for v in (a["x"], a.get("re", 0.0), a.get("im", 0.0))]
    except (TypeError, KeyError):
        flat = None
    if type(raw) is not list or flat is None or len(flat) != 3 * len(raw) or not _finite(flat):
        _reject(text, "atoms", raw)
    atoms = list(zip(flat[::3], map(complex, flat[1::3], flat[2::3])))

    raw = doc.get("segments", [])
    try:
        ends = [v for s in raw for v in (s["a"], s["b"])]
        coeffs = [s["coeffs"] for s in raw]
        entries = list(chain.from_iterable(coeffs))
        nums = list(chain.from_iterable(entries))
    except (TypeError, KeyError):
        nums = None
    if type(raw) is not list or nums is None or not (
            _finite(ends) and {list}.issuperset(map(type, coeffs))
            and all(map(range(1, me.MAX_DEGREE + 2).__contains__, map(len, coeffs)))
            and {list}.issuperset(map(type, entries)) and {2}.issuperset(map(len, entries))
            and _finite(nums) and all(map(lt, ends[::2], ends[1::2]))):
        _reject(text, "segments", raw)
    cs = map(complex, nums[::2], nums[1::2])
    segments = [(a, b, tuple(islice(cs, len(c))))
                for a, b, c in zip(ends[::2], ends[1::2], coeffs)]

    # make_measure's overlap rule, checked here to anchor the message to a line
    order = sorted(range(len(segments)), key=lambda i: segments[i][0])
    for i, j in zip(order[:-1], order[1:]):
        if me.segments_overlap(segments[i][1], segments[j][0]):
            _err(f"segments[{i}] and segments[{j}] overlap", _line_of_element(text, "segments", j))
    for i, (x, _w) in enumerate(atoms):
        if not lo <= x <= hi:
            _err(f"atoms[{i}]: position {x} outside window [{lo}, {hi}]",
                 _line_of_element(text, "atoms", i))

    try:
        mu = me.make_measure(atoms, segments, (lo, hi))
    except ValidationError as e:
        raise SpecFileError(str(e)) from e

    if "periodic" in doc:
        per, line = doc["periodic"], partial(_line_of_token, text, r'"periodic"')
        if not isinstance(per, dict) or "period" not in per:
            _err("'periodic' must be an object with field 'period'", line)
        (p,) = _reals(per, ("period",), "periodic", line)
        if not p > 0:
            _err(f"period must be positive, got {p}", line)
        try:
            return me.PeriodicMeasure(me.LocalMeasure(mu.atoms, mu.segments, (0.0, p)), p)
        except ValidationError as e:
            _err(str(e), line)
    return mu


def load_measure(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_measure(fh.read())


_ATOM = '\n  {\n   "x": %r,\n   "re": %r,\n   "im": %r\n  }'
_SEGMENT = ['\n  {\n   "a": %r,\n   "b": %r,\n   "coeffs": ['
            + ",".join(['\n    [\n     %r,\n     %r\n    ]'] * n)
            + ("\n   ]" if n else "]") + "\n  }" for n in range(me.MAX_DEGREE + 2)]


def dump_measure(obj, path):
    """Write obj in the file format: one %-template over its numbers as floats."""
    base = obj.base if isinstance(obj, me.PeriodicMeasure) else obj
    vals = [base.lo, base.hi, *chain.from_iterable((x, w.real, w.imag) for x, w in base.atoms)]
    segs = base.segments
    parts = iter(np.array([c for s in segs for c in s.coeffs], dtype=complex).view(float).tolist())
    for s in segs:
        vals += (s.start, s.end, *islice(parts, 2 * len(s.coeffs)))
    atoms, segments = [_ATOM] * len(base.atoms), [_SEGMENT[len(s.coeffs)] for s in segs]
    text = '{\n "window": [\n  %r,\n  %r\n ]' + "".join(
        f',\n "{key}": [' + ",".join(items) + ("\n ]" if items else "]")
        for key, items in (("atoms", atoms), ("segments", segments)))
    if base is not obj:
        vals.append(obj.period)
        text += ',\n "periodic": {\n  "period": %r\n }'
    with open(path, "w", encoding="utf-8") as fh:
        fh.write((text + "\n}\n") % tuple(map(float, vals)))
