"""Rejections of `measure_io.parse_measure`: one test per branch, with the
line of the message where it is line-anchored."""

import json

import pytest

from weakgordon import measure as me
from weakgordon import measure_io as mio
from weakgordon.measure_io import SpecFileError


def rejects(text, message):
    with pytest.raises(SpecFileError) as ei:
        mio.parse_measure(text)
    assert str(ei.value) == message


# ---------------------------------------------------------------------------
# every number goes through one rule: int or float, not bool, finite

VALID = {"window": [0, 4],
         "atoms": [{"x": 1, "re": 0.5, "im": 0.25}],
         "segments": [{"a": 2, "b": 3, "coeffs": [[1, 0], [0.5, -0.5]]}],
         "periodic": {"period": 4}}


def _with(path, value):
    doc = json.loads(json.dumps(VALID))
    *keys, last = path
    node = doc
    for k in keys:
        node = node[k]
    node[last] = value
    return doc


NUMBERS = {
    ("window", 0): "window[0]",
    ("window", 1): "window[1]",
    ("atoms", 0, "x"): "atoms[0]: field 'x'",
    ("atoms", 0, "re"): "atoms[0]: field 're'",
    ("atoms", 0, "im"): "atoms[0]: field 'im'",
    ("segments", 0, "a"): "segments[0]: field 'a'",
    ("segments", 0, "b"): "segments[0]: field 'b'",
    ("segments", 0, "coeffs", 1, 0): "segments[0]: coeffs[1][0]",
    ("segments", 0, "coeffs", 1, 1): "segments[0]: coeffs[1][1]",
    ("periodic", "period"): "periodic: field 'period'",
}


def test_valid_file_parses():
    P = mio.parse_measure(json.dumps(VALID))
    assert P.period == 4.0 and P.base.atoms == ((1.0, 0.5 + 0.25j),)
    assert P.base.segments[0].coeffs == (1 + 0j, 0.5 - 0.5j)


@pytest.mark.parametrize("path", sorted(NUMBERS, key=str))
@pytest.mark.parametrize("value", [True, False])
def test_bool_is_not_a_number(path, value):
    with pytest.raises(SpecFileError, match="must be a number") as ei:
        mio.parse_measure(json.dumps(_with(path, value)))
    assert NUMBERS[path] in str(ei.value)


@pytest.mark.parametrize("path", sorted(NUMBERS, key=str))
def test_overflowing_literal_is_not_finite(path):
    text = json.dumps(_with(path, 12345.0)).replace("12345.0", "1e400")
    with pytest.raises(SpecFileError, match="is not finite") as ei:
        mio.parse_measure(text)
    assert NUMBERS[path] in str(ei.value)


def test_bool_window_and_coefficients_are_rejected():
    # once read as the density 1 on (0, 1]
    rejects('{"window": [false, true],\n'
            ' "segments": [{"a": 0, "b": 1, "coeffs": [[true, false]]}]}',
            "line 1: window[0] must be a number")
    rejects('{"window": [0, 1],\n'
            ' "segments": [{"a": 0, "b": 1, "coeffs": [[true, false]]}]}',
            "line 2: segments[0]: coeffs[0][0] must be a number")


# ---------------------------------------------------------------------------
# the shape of the document


def test_top_level_not_an_object():
    rejects("[0, 1]", "top level must be an object")


@pytest.mark.parametrize("window", ["[0]", "[0, 1, 2]", '"0, 1"', "{}"])
def test_malformed_window(window):
    rejects('{"atoms": [],\n "window": %s}' % window, "line 2: field 'window' must be [lo, hi]")


def test_missing_window():
    rejects('{"atoms": []}', "field 'window' must be [lo, hi]")


def test_atom_not_an_object():
    rejects('{"window": [0, 1],\n "atoms": [{"x": 0.5, "re": 1},\n  [0.5, 1]]}',
            "line 3: atoms[1] must be an object")


def test_non_object_before_an_object():
    # the line is that of the element itself, not of the next object
    rejects('{"window": [0, 1],\n "atoms": [5,\n  {"x": 0.5, "re": 1}]}',
            "line 2: atoms[0] must be an object")


def test_segment_not_an_object():
    rejects('{"window": [0, 1],\n "segments": [{"a": 0, "b": 1, "coeffs": [[1, 0]]},\n  3]}',
            "line 3: segments[1] must be an object")


def test_braces_in_strings_do_not_move_the_line():
    rejects('{"window": [0, 1],\n "atoms": [{"x": 0.5, "re": 1, "tag": "}{["},\n'
            '  {"x": 2, "re": 1}]}',
            "line 3: atoms[1]: position 2.0 outside window [0.0, 1.0]")


def test_atom_without_weight():
    rejects('{"window": [0, 1],\n "atoms": [\n  {"x": 0.5}]}',
            "line 3: atoms[0]: needs 're' and/or 'im'")


def test_missing_field():
    rejects('{"window": [0, 1],\n "atoms": [\n  {"re": 1}]}',
            "line 3: atoms[0]: missing field 'x'")


def test_field_not_a_number():
    rejects('{"window": [0, 1],\n "segments": [\n  {"a": "0", "b": 1, "coeffs": [[1, 0]]}]}',
            "line 3: segments[0]: field 'a' must be a number")


@pytest.mark.parametrize("coeffs", ["[]", '"1"', "null"])
def test_coeffs_not_a_nonempty_list(coeffs):
    rejects('{"window": [0, 1],\n "segments": [\n  {"a": 0, "b": 1, "coeffs": %s}]}' % coeffs,
            "line 3: segments[0]: 'coeffs' must be a nonempty list")


def test_degree_above_cap():
    coeffs = json.dumps([[1, 0]] * (me.MAX_DEGREE + 2))
    rejects('{"window": [0, 1],\n "segments": [\n  {"a": 0, "b": 1, "coeffs": %s}]}' % coeffs,
            f"line 3: segments[0]: degree {me.MAX_DEGREE + 1} exceeds cap {me.MAX_DEGREE}")


@pytest.mark.parametrize("entry", ["[1]", "[1, 0, 0]", "1", '{"re": 1}'])
def test_malformed_coefficient_entry(entry):
    rejects('{"window": [0, 1],\n "segments": [\n  {"a": 0, "b": 1, "coeffs": [[1, 0], %s]}]}'
            % entry, "line 3: segments[0]: coeffs entries must be [re, im]")


@pytest.mark.parametrize("a, b", [(1, 1), (1, 0.5)])
def test_segment_not_increasing(a, b):
    rejects('{"window": [0, 1],\n "segments": [\n  {"a": %r, "b": %r, "coeffs": [[1, 0]]}]}'
            % (a, b), f"line 3: segments[0]: need a < b, got [{float(a)}, {float(b)}]")


def test_atom_outside_window():
    rejects('{"window": [0, 1],\n "atoms": [{"x": 0.5, "re": 1},\n  {"x": 1.5, "re": 1}]}',
            "line 3: atoms[1]: position 1.5 outside window [0.0, 1.0]")


# ---------------------------------------------------------------------------
# periodic measures


def test_periodic_without_period():
    rejects('{"window": [0, 1],\n "atoms": [{"x": 0.5, "re": 1}],\n "periodic": {}}',
            "line 3: 'periodic' must be an object with field 'period'")


@pytest.mark.parametrize("period", [0, -1.5])
def test_period_not_positive(period):
    rejects('{"window": [0, 1],\n "atoms": [{"x": 0.5, "re": 1}],\n'
            ' "periodic": {"period": %r}}' % period,
            f"line 3: period must be positive, got {float(period)}")


def test_base_atom_outside_period():
    rejects('{"window": [0, 2],\n "atoms": [{"x": 1.5, "re": 1}],\n'
            ' "periodic": {"period": 1}}',
            "line 3: base atom at 1.5 outside [0, 1.0)")
