"""poly.abs_pieces, the one root split behind |mu| and |phi - c|,
poly.real_roots_in against an exact reference, and poly.shift_origin
against its former Horner form."""

import math
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakgordon import poly

U = Fraction(1, 2**53)


@st.composite
def polys_on_intervals(draw):
    """A real polynomial of degree 0-6 in t - t0 on [t0, t1]: random
    coefficients, or a product of linear factors whose roots include double
    roots, clusters, roots on the interval ends and roots an ulp from them."""
    t0 = draw(st.floats(-5.0, 5.0))
    L = draw(st.one_of(st.floats(1e-9, 1e-6), st.floats(1e-3, 4.0)))
    deg = draw(st.integers(0, 6))
    if draw(st.booleans()):
        coeffs = tuple(draw(st.lists(st.floats(-2.0, 2.0), min_size=deg + 1,
                                     max_size=deg + 1)))
    else:
        coeffs = (draw(st.sampled_from([-1.5, -0.25, 0.5, 2.0])),)
        special = [0.0, L, 0.5 * L, math.ulp(L), -math.ulp(L),
                   math.nextafter(L, 0.0), math.nextafter(L, math.inf)]
        root = st.one_of(st.sampled_from(special), st.floats(0.0, L))
        roots = draw(st.lists(root, min_size=deg, max_size=deg))
        shape = draw(st.sampled_from(["free", "double", "cluster"]))
        if deg >= 2 and shape == "double":
            roots[1] = roots[0]
        elif deg >= 2 and shape == "cluster":
            spread = draw(st.sampled_from([1e-12, 1e-8, 1e-4])) * L
            roots[1:] = [roots[0] + spread * draw(st.floats(-1.0, 1.0)) for _ in roots[1:]]
        for r in roots:
            coeffs = poly.multiply(coeffs, (-r, 1.0))
    return coeffs, t0, t0 + L


@settings(max_examples=300, deadline=None, derandomize=True)
@given(polys_on_intervals())
# -1.5 (x - L/2)^2: root isolation misses the double root at the midpoint,
# where p is at rounding level with the wrong sign
@example(((-1.108883328145071, 2.5793991488078043, -1.5), 0.0, 1.7195994325385362))
# a subnormal constant, whose integral underflows to -0.0
@example(((-5e-324,), 0.0, 7.530081855694316e-07))
def test_abs_pieces_tile_and_integrate(case):
    coeffs, t0, t1 = case
    L = t1 - t0
    scale = sum(abs(c) * max(1.0, L) ** k for k, c in enumerate(coeffs))
    pieces = poly.abs_pieces(coeffs, t0, t1)
    assert pieces and pieces[0].start == t0
    assert pieces[-1].end == t0 + L
    for p, q in zip(pieces[:-1], pieces[1:]):
        assert p.end == q.start
    total = 0.0
    for p in pieces:
        h = p.end - p.start
        assert h > 0
        for x in (0.0, 0.5 * h, h):
            assert poly.evaluate(p.coeffs, x) >= -1e-12 * scale
        total += poly.integral(p.coeffs, 0.0, h)
    assert abs(total - poly.integral_abs(coeffs, 0.0, L)) <= 1e-12 * scale * max(1.0, L)


# ---------------------------------------------------------------------------
# real_roots_in against exact arithmetic on the given floats


def _value(P, x):
    """P(x) exactly, for Fraction coefficients P and a float x."""
    acc, x = Fraction(0), Fraction(x)
    for c in reversed(P):
        acc = acc * x + c
    return acc


def _derivative(P):
    return [k * c for k, c in enumerate(P)][1:]


def _bits(x):
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _float(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _sign_changes(P, lo, hi):
    """The odd-order roots of P in (lo, hi), 0 <= lo, each given as the
    nearer of the two adjacent floats that bracket its sign change (or as
    itself when P is 0 there), plus the exact zeros at the critical points.
    The critical points come from the same recursion on P', and between
    two of them P changes sign at most once."""
    if len(P) <= 1:
        return []
    xs = [lo] + _sign_changes(_derivative(P), lo, hi) + [hi]
    vs = [_value(P, x) for x in xs]
    out = []
    for i in range(len(xs) - 1):
        if i and vs[i] == 0:
            out.append(xs[i])
        if vs[i] * vs[i + 1] < 0:
            a, b, va = _bits(xs[i]), _bits(xs[i + 1]), vs[i]
            while b - a > 1:
                m = (a + b) // 2
                vm = _value(P, _float(m))
                if vm == 0:
                    a = b = m
                elif (vm < 0) == (va < 0):
                    a = m
                else:
                    b = m
            xa, xb = _float(a), _float(b)
            out.append(xa if abs(_value(P, xa)) <= abs(_value(P, xb)) else xb)
    return out


def _rounding_bound(P, x):
    """The Horner rounding bound (2n + 1) 2^-53 sum |c_k| |x|^k, exact, plus
    a few units of the smallest subnormal for values that underflow."""
    return (2 * len(P) - 1) * U * _value([abs(c) for c in P], abs(x)) + Fraction(1, 2**1070)


def _radius(P, r, E):
    """How far a root at r can move when P changes by E near r: the least
    (k! E / |P^(k)(r)|)^(1/k) over k >= 1."""
    best, D = math.inf, P
    for k in range(1, len(P)):
        D = _derivative(D)
        d = abs(_value(D, r))
        if d:
            best = min(best, float(min(math.factorial(k) * E / d, 2**1000)) ** (1.0 / k))
    return best


def _check_roots(coeffs, L):
    got = poly.real_roots_in(coeffs, 0.0, L)
    assert got == sorted(set(got)) and all(0.0 < x < L for x in got)
    P = [Fraction(c) for c in poly.trim(coeffs)]
    if len(P) == 1:
        assert got == []
        return
    # every reported root is a root of P changed by at most 4 rounding bounds
    for x in got:
        assert abs(_value(P, x)) <= 4 * _rounding_bound(P, x), x
    # every exact sign change is reported, up to the distance a change of P
    # by 4 rounding bounds can move it; one that close to an end may go
    for r in _sign_changes(P, 0.0, L):
        reach = 2.0 * _radius(P, r, 4 * _rounding_bound(P, r)) + 4.0 * math.ulp(r)
        near = [abs(x - r) for x in got] + [r, L - r]
        assert min(near) <= reach, (r, got)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(polys_on_intervals())
# two roots 5e-14 apart on an interval of 1e-9, once merged by an absolute
# 1e-13 window
@example(((-3.7503750000000006e-19, 1.5000750000000001e-09, -1.5), 0.0, 1e-09))
# roots only fixed up to underflow: a1^2 underflows in the discriminant, and
# the cubic underflows to 0 at its critical point
@example(((0.0, 4.584131173062446e-291, -1.5), 0.0, 3.7173134727721125e-07))
@example(((0.0, 0.0, 4.584131173062446e-291, -1.5), 0.0, 3.7173134727721125e-07))
# a root at 2.2e-44 on a branch of length 1e-9: Newton must close it to a few
# ulp of the root, not of the branch
@example(((0.0, 2.2291582307378574e-44, -1.0, 1.0), 0.0, 1e-09))
def test_real_roots_match_exact_sign_changes(case):
    coeffs, t0, t1 = case
    _check_roots(coeffs, t1 - t0)


def test_ill_scaled_leading_term_root_to_a_few_ulp():
    # a cubic term 3.3e-10 against O(1) others: the former companion-matrix
    # path returned 0.6455135210872953, some 32,000 ulp off
    coeffs = (-0.1908630374133519, 0.12318714468604242, 0.2672122748659079, 3.3e-10)
    (x,) = poly.real_roots_in(coeffs, 0.0, 2.0)
    assert abs(x - 0.6455135210908729) <= 4 * math.ulp(x)
    _check_roots(coeffs, 2.0)


def test_tangency_is_taken_at_the_critical_point():
    # t^3 (a - b t): p = 2.2e-13 at its critical point 1.4304e-4, which a
    # rounding bound scaled from the interval ends would call a double root
    coeffs = poly.multiply((0.0, 0.0, 0.0, 1.0), (0.3056039957987375, -1602.353597630367))
    (x,) = poly.real_roots_in(coeffs, 0.0, 2.8935e-4)
    assert x == pytest.approx(1.9072194567458674e-4, rel=4e-16)
    _check_roots(coeffs, 2.8935e-4)


def test_double_root_is_one_root_and_end_roots_are_dropped():
    # (x - 1/3)^2 (x - 0.75) (x - (1 - 2^-53)) on (0, 1): the double root is
    # a tangency, the root an ulp below the end is within rounding of it
    coeffs = (1.0,)
    for r in (1.0 / 3.0, 1.0 / 3.0, 0.75, 1.0 - 2.0**-53):
        coeffs = poly.multiply(coeffs, (-r, 1.0))
    got = poly.real_roots_in(coeffs, 0.0, 1.0)
    assert got == [pytest.approx(1.0 / 3.0, abs=1e-7), pytest.approx(0.75, rel=1e-15)]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_rising_objective_is_the_shifted_value_and_slope(sign):
    # the Newton objective of root isolation (level 0) and of the median's
    # branch crossings: sign (p - level) and sign p' from one Horner loop
    c, level = (0.3, -1.2, 0.5, 2.0, -0.7), 0.25
    f = poly.rising_objective(c, level, sign)
    assert f(0.0) == (sign * (c[0] - level), sign * c[1])
    for y in (-1.5, 0.3, 2.0):
        v, dv = f(y)
        assert v == pytest.approx(sign * (poly.evaluate(c, y) - level), rel=1e-14)
        assert dv == pytest.approx(sign * poly.evaluate(poly.derivative(c), y), rel=1e-14)


def _horner_shift(coeffs, d):
    """The former `poly.shift_origin`: Horner in (y + d), out <- out (y + d)
    + c_k, skipping zero terms.  The reference the synthetic division must
    equal."""
    n = len(coeffs)
    out = [0 * coeffs[0]] * n
    for k in range(n - 1, -1, -1):
        new = [0 * coeffs[0]] * n
        for j in range(n):
            if out[j] == 0:
                continue
            if j + 1 < n:
                new[j + 1] += out[j]
            new[j] += out[j] * d
        new[0] += coeffs[k]
        out = new
    return tuple(out)


_SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


@st.composite
def shift_cases(draw):
    """Degree 0-8, real or complex, with zeros and -0.0 among the parts;
    d of either sign, or a zero."""
    part = st.one_of(_SIGNED_ZEROS, st.floats(-1e3, 1e3))
    deg = draw(st.integers(0, 8))
    coeffs = draw(st.lists(part, min_size=deg + 1, max_size=deg + 1))
    if draw(st.booleans()):
        coeffs = [complex(re, draw(part)) for re in coeffs]
    return tuple(coeffs), draw(st.one_of(_SIGNED_ZEROS, st.floats(-10.0, 10.0)))


def _parts(coeffs):
    return [x for c in coeffs for x in ((c.real, c.imag) if isinstance(c, complex) else (c,))]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(shift_cases())
def test_taylor_shift_equals_the_horner_form(case):
    coeffs, d = case
    got, want = poly.shift_origin(coeffs, d), _horner_shift(coeffs, d)
    assert got == want
    # only the sign of a zero may differ, and only where a part is zero
    if all(_parts(coeffs)):
        assert list(map(_bits, _parts(got))) == list(map(_bits, _parts(want)))
