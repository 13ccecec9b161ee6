"""Rejections of `measure_io.parse_measure`: one test per branch, with the
line of the message where it is line-anchored."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakgordon import cli
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


# ---------------------------------------------------------------------------
# integer literals beyond float range, of any length: read as floats, so
# as infinite, and rejected at their element's line

BEYOND_RANGE = "1" + "0" * 400
BEYOND_DIGIT_LIMIT = "9" * 5000


@pytest.mark.parametrize("path", sorted(NUMBERS, key=str))
def test_integer_beyond_float_range_is_not_finite(path):
    text = json.dumps(_with(path, 12345.0)).replace("12345.0", BEYOND_RANGE)
    with pytest.raises(SpecFileError, match="is not finite") as ei:
        mio.parse_measure(text)
    assert NUMBERS[path] in str(ei.value)


def test_integer_beyond_digit_limit_is_not_finite():
    rejects('{"window": [0, 1],\n "atoms": [{"x": 0.5, "re": 1},\n  {"x": 0.5, "re": %s}]}'
            % BEYOND_DIGIT_LIMIT, "line 3: atoms[1]: field 're' is not finite")


@pytest.mark.parametrize("key", ["atoms", "segments"])
@pytest.mark.parametrize("value", ["5", "null", '"ab"', "{}"])
def test_list_field_not_a_list(key, value):
    rejects('{"window": [0, 1],\n "%s": %s}' % (key, value), f"line 2: field '{key}' must be a list")


# ---------------------------------------------------------------------------
# every rejection reaches the command line as exit code 2 with its message

MALFORMED = [
    ('{"window": [0, 1],\n "atoms": }', "line 2: Expecting value"),
    ('{"window": [0, 1],\n "atoms": [{"x": NaN, "re": 1}]}',
     "line 2: non-finite literal NaN is not allowed"),
    ('{"window": [false, true],\n "segments": []}', "line 1: window[0] must be a number"),
    ('{"window": [0, 1],\n "segments": [{"a": 0, "b": 1, "coeffs": [[true, false]]}]}',
     "line 2: segments[0]: coeffs[0][0] must be a number"),
    ('{"window": [0, 1],\n "atoms": [{"x": 1e400, "re": 1}]}',
     "line 2: atoms[0]: field 'x' is not finite"),
    ('{"window": [0, 1],\n "atoms": [{"x": %s, "re": 1}]}' % BEYOND_RANGE,
     "line 2: atoms[0]: field 'x' is not finite"),
    ('{"window": [0, 1],\n "atoms": [{"x": 0.5, "re": %s}]}' % BEYOND_DIGIT_LIMIT,
     "line 2: atoms[0]: field 're' is not finite"),
    ("[0, 1]", "top level must be an object"),
    ('{"atoms": [],\n "window": [0]}', "line 2: field 'window' must be [lo, hi]"),
    ('{"window": [0, 1],\n "atoms": 5}', "line 2: field 'atoms' must be a list"),
    ('{"window": [0, 1],\n "atoms": [5,\n  {"x": 0.5, "re": 1}]}',
     "line 2: atoms[0] must be an object"),
    ('{"window": [0, 1],\n "segments": [{"a": 0, "b": 1, "coeffs": [[1, 0]]},\n  3]}',
     "line 3: segments[1] must be an object"),
    ('{"window": [0, 1],\n "atoms": [\n  {"x": 0.5}]}',
     "line 3: atoms[0]: needs 're' and/or 'im'"),
    ('{"window": [0, 1],\n "atoms": [\n  {"re": 1}]}', "line 3: atoms[0]: missing field 'x'"),
    ('{"window": [0, 1],\n "segments": [\n  {"a": "0", "b": 1, "coeffs": [[1, 0]]}]}',
     "line 3: segments[0]: field 'a' must be a number"),
    ('{"window": [0, 1],\n "segments": [\n  {"a": 0, "b": 1, "coeffs": []}]}',
     "line 3: segments[0]: 'coeffs' must be a nonempty list"),
    ('{"window": [0, 1],\n "segments": [\n  {"a": 0, "b": 1, "coeffs": %s}]}'
     % json.dumps([[1, 0]] * (me.MAX_DEGREE + 2)),
     f"line 3: segments[0]: degree {me.MAX_DEGREE + 1} exceeds cap {me.MAX_DEGREE}"),
    ('{"window": [0, 1],\n "segments": [\n  {"a": 0, "b": 1, "coeffs": [[1, 0], [1]]}]}',
     "line 3: segments[0]: coeffs entries must be [re, im]"),
    ('{"window": [0, 1],\n "segments": [\n  {"a": 1, "b": 0.5, "coeffs": [[1, 0]]}]}',
     "line 3: segments[0]: need a < b, got [1.0, 0.5]"),
    ('{"window": [0, 3],\n "segments": [{"a": 0, "b": 2, "coeffs": [[1, 0]]},\n'
     '  {"a": 1, "b": 3, "coeffs": [[1, 0]]}]}', "line 3: segments[0] and segments[1] overlap"),
    ('{"window": [0, 1],\n "atoms": [{"x": 0.5, "re": 1},\n  {"x": 1.5, "re": 1}]}',
     "line 3: atoms[1]: position 1.5 outside window [0.0, 1.0]"),
    ('{"window": [0, 1],\n "atoms": [{"x": 0.5, "re": 1}],\n "periodic": {}}',
     "line 3: 'periodic' must be an object with field 'period'"),
    ('{"window": [0, 1],\n "atoms": [{"x": 0.5, "re": 1}],\n "periodic": {"period": -1.5}}',
     "line 3: period must be positive, got -1.5"),
    ('{"window": [0, 2],\n "atoms": [{"x": 1.5, "re": 1}],\n "periodic": {"period": 1}}',
     "line 3: base atom at 1.5 outside [0, 1.0)"),
    ('{"window": [-1, 1],\n "atoms": [{"x": 0.0, "im": 1.7976931348623157e308},\n'
     '  {"x": -0.0, "im": 1.7976931348623157e308}]}',
     "atoms at one position sum to a non-finite weight"),
    ('{"window": [0, 2],\n "segments": [{"a": 0, "b": 1, "coeffs": [[1.7976931348623157e308, 0]]},\n'
     '  {"a": 0.9999999999999999, "b": 2, "coeffs": [[1.7976931348623157e308, 0]]}]}',
     "overlapping segments sum to a non-finite coefficient"),
]


@pytest.mark.parametrize("text, message", MALFORMED, ids=[m for _, m in MALFORMED])
def test_malformed_file_exits_2(text, message, tmp_path, capsys):
    rejects(text, message)
    path = tmp_path / "bad.json"
    path.write_text(text)
    rc = cli.run(["seminorm", "--measure", str(path), "--interval", "0,1"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# the writer: the text of json.dumps(..., indent=1), and read back unchanged


def reference_text(obj):
    base = obj.base if isinstance(obj, me.PeriodicMeasure) else obj
    doc = {
        "window": [base.lo, base.hi],
        "atoms": [{"x": x, "re": w.real, "im": w.imag} for x, w in base.atoms],
        "segments": [{"a": s.start, "b": s.end,
                      "coeffs": [[complex(c).real, complex(c).imag] for c in s.coeffs]}
                     for s in base.segments],
    }
    if base is not obj:
        doc["periodic"] = {"period": obj.period}
    return json.dumps(doc, indent=1) + "\n"


NASTY = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
         1e300, -1e300, 1.7976931348623157e308, 0.1, -1 / 3]
reals = st.one_of(st.sampled_from(NASTY), st.floats(allow_nan=False, allow_infinity=False))
weights = st.builds(complex, reals, reals)


@st.composite
def measures(draw):
    """Local measures on a window of about ±1e300, or periodic ones, with
    the nasty numbers as positions, breakpoints, weights and coefficients."""
    lo, hi = -1.7e300, 1.7e300
    if periodic := draw(st.booleans()):
        lo, hi = 0.0, draw(st.sampled_from([5e-324, 1e-300, 1.0, 1e300]))
    inside = reals.filter(lambda x: lo <= x < hi)
    # distinct positions: make_measure sums the weights of atoms at one position
    atoms = draw(st.lists(st.tuples(inside, weights), max_size=4, unique_by=lambda a: a[0]))
    cuts = sorted(set(draw(st.lists(inside, max_size=6))))
    segments = [(a, b, tuple(draw(st.lists(weights, min_size=1, max_size=me.MAX_DEGREE + 1))))
                for a, b in zip(cuts[::2], cuts[1::2])]
    mu = me.make_measure(atoms, segments, (lo, hi))
    return me.PeriodicMeasure(mu, hi) if periodic else mu


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mu=measures())
@example(mu=me.make_measure((), (), (-0.0, 5e-324)))
@example(mu=me.make_measure([(-0.0, -0.0 + 1e-300j)], [(1e-300, 1e300, (-1e300, 5e-324j))],
                            (-1e300, 1e300)))
def test_writer_is_indent_one_json(mu, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "written.json"
    mio.dump_measure(mu, path)
    text = path.read_text()
    assert text == reference_text(mu)
    assert mio.parse_measure(text) == mu
