"""Measure specification files.

Format (JSON document):

    {"window": [lo, hi],
     "atoms": [{"x": ..., "re": ..., "im": ...}, ...],
     "segments": [{"a": ..., "b": ..., "coeffs": [[re, im], ...]}, ...],
     "periodic": {"period": p}}          # optional

All reals are IEEE double decimal literals, checked by one rule (`_real`):
true/false, NaN/Infinity, literals that overflow and overlapping segments
are rejected with line-anchored messages.  With "periodic" present
the atoms/segments describe the base on [0, p).
"""

from __future__ import annotations

import json
import math
import re
from functools import partial

from . import measure as me
from .errors import ValidationError


class SpecFileError(ValidationError):
    """Measure file failed to parse or validate."""


_DECODER = json.JSONDecoder()
_GAP = re.compile(r"[\s,]*")  # between the elements of an array


def _line_of_offset(text, offset):
    return text.count("\n", 0, offset) + 1


def _line_of_token(text, pattern):
    m = re.search(pattern, text)
    if m:
        return _line_of_offset(text, m.start())
    return None


def _line_of_element(text, key, index):
    """Line of the index-th element, of any type, of the array under `key`.
    The decoder skips the elements before it, so brackets nested in them or
    inside their strings are not counted."""
    m = re.search(r'"%s"\s*:\s*\[' % re.escape(key), text)
    if not m:
        return None
    pos = _GAP.match(text, m.end()).end()
    try:
        for _ in range(index):
            pos = _GAP.match(text, _DECODER.raw_decode(text, pos)[1]).end()
    except ValueError:
        return None
    return _line_of_offset(text, pos)


def _err(msg, line=None):
    """Raise SpecFileError; `line` may be a callable, so that locating the
    element (a scan of the text) happens only on this error path."""
    if callable(line):
        line = line()
    if line is not None:
        raise SpecFileError(f"line {line}: {msg}")
    raise SpecFileError(msg)


def _real(v, where, key, line):
    """v, the entry `key` (a field name or a list index) of `where`, as a
    float.  The one rule for every number of a measure file: an int or a
    float, not a bool (JSON true and false are ints to Python), and finite
    (a literal such as 1e400 decodes to inf)."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        problem = "must be a number"
    elif not math.isfinite(v):
        problem = "is not finite"
    else:
        return float(v)
    what = f"{where}: field '{key}'" if isinstance(key, str) else f"{where}[{key}]"
    _err(f"{what} {problem}", line)


def _field(obj, key, where, line):
    if key not in obj:
        _err(f"{where}: missing field '{key}'", line)
    return _real(obj[key], where, key, line)


def parse_measure(text: str):
    """Parse a measure spec; returns LocalMeasure or PeriodicMeasure."""

    def reject_constant(name):
        line = _line_of_token(text, r"NaN|Infinity|-Infinity")
        _err(f"non-finite literal {name} is not allowed", line)

    try:
        doc = json.loads(text, parse_constant=reject_constant)
    except SpecFileError:
        raise
    except json.JSONDecodeError as e:
        raise SpecFileError(f"line {e.lineno}: {e.msg}") from e
    if not isinstance(doc, dict):
        _err("top level must be an object")

    win = doc.get("window")
    line = partial(_line_of_token, text, r'"window"')
    if not isinstance(win, list) or len(win) != 2:
        _err("field 'window' must be [lo, hi]", line)
    lo, hi = (_real(v, "window", k, line) for k, v in enumerate(win))

    atoms = []
    for i, a in enumerate(doc.get("atoms", [])):
        line = partial(_line_of_element, text, "atoms", i)
        if not isinstance(a, dict):
            _err(f"atoms[{i}] must be an object", line)
        x = _field(a, "x", f"atoms[{i}]", line)
        re_w = _field(a, "re", f"atoms[{i}]", line) if "re" in a else 0.0
        im_w = _field(a, "im", f"atoms[{i}]", line) if "im" in a else 0.0
        if "re" not in a and "im" not in a:
            _err(f"atoms[{i}]: needs 're' and/or 'im'", line)
        atoms.append((x, complex(re_w, im_w)))

    segments = []
    for i, s in enumerate(doc.get("segments", [])):
        line = partial(_line_of_element, text, "segments", i)
        if not isinstance(s, dict):
            _err(f"segments[{i}] must be an object", line)
        a = _field(s, "a", f"segments[{i}]", line)
        b = _field(s, "b", f"segments[{i}]", line)
        coeffs = s.get("coeffs")
        if not isinstance(coeffs, list) or not coeffs:
            _err(f"segments[{i}]: 'coeffs' must be a nonempty list", line)
        if len(coeffs) > me.MAX_DEGREE + 1:
            _err(
                f"segments[{i}]: degree {len(coeffs) - 1} exceeds cap {me.MAX_DEGREE}",
                line,
            )
        parsed = []
        for k, c in enumerate(coeffs):
            if not isinstance(c, list) or len(c) != 2:
                _err(f"segments[{i}]: coeffs entries must be [re, im]", line)
            where = f"segments[{i}]: coeffs[{k}]"
            parsed.append(complex(_real(c[0], where, 0, line), _real(c[1], where, 1, line)))
        if not a < b:
            _err(f"segments[{i}]: need a < b, got [{a}, {b}]", line)
        segments.append((a, b, tuple(parsed)))

    # make_measure's overlap rule, checked here to anchor the message to a line
    order = sorted(range(len(segments)), key=lambda i: segments[i][0])
    for i, j in zip(order[:-1], order[1:]):
        if me.segments_overlap(segments[i][1], segments[j][0]):
            _err(
                f"segments[{i}] and segments[{j}] overlap",
                _line_of_element(text, "segments", j),
            )
    for i, (x, _w) in enumerate(atoms):
        if not lo <= x <= hi:
            _err(
                f"atoms[{i}]: position {x} outside window [{lo}, {hi}]",
                _line_of_element(text, "atoms", i),
            )

    try:
        mu = me.make_measure(atoms, segments, (lo, hi))
    except ValidationError as e:
        raise SpecFileError(str(e)) from e

    if "periodic" in doc:
        per = doc["periodic"]
        line = _line_of_token(text, r'"periodic"')
        if not isinstance(per, dict) or "period" not in per:
            _err("'periodic' must be an object with field 'period'", line)
        p = _field(per, "period", "periodic", line)
        if not p > 0:
            _err(f"period must be positive, got {p}", line)
        try:
            return me.PeriodicMeasure(
                me.LocalMeasure(mu.atoms, mu.segments, (0.0, p)), p
            )
        except ValidationError as e:
            _err(str(e), line)
    return mu


def load_measure(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_measure(fh.read())


def measure_to_dict(obj):
    if isinstance(obj, me.PeriodicMeasure):
        d = measure_to_dict(obj.base)
        d["periodic"] = {"period": obj.period}
        return d
    return {
        "window": [obj.lo, obj.hi],
        "atoms": [{"x": x, "re": w.real, "im": w.imag} for x, w in obj.atoms],
        "segments": [
            {
                "a": s.start,
                "b": s.end,
                "coeffs": [[complex(c).real, complex(c).imag] for c in s.coeffs],
            }
            for s in obj.segments
        ],
    }


def dump_measure(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(measure_to_dict(obj), fh, indent=1)
        fh.write("\n")
