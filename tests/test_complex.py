"""Complex densities: the Gauss rule of poly.integral_abs and everything on it.

The reference integrates |p| with the 24-point Gauss-Legendre rule on panels
graded geometrically towards each critical point of |p|^2, found with
np.polynomial and not with weakgordon, so it resolves kinks and near-zeros
of |p| to rounding level.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakgordon import measure as me
from weakgordon import poly
from weakgordon import seminorm as sn
from weakgordon.errors import ToleranceError

from test_median import measure_windows

_GX, _GW = np.polynomial.legendre.leggauss(24)


def reference_integral_abs(coeffs, x0, x1, levels=45):
    p = np.polynomial.Polynomial(np.asarray(coeffs, dtype=complex))
    sq = np.polynomial.Polynomial(p.coef.real) ** 2 + np.polynomial.Polynomial(p.coef.imag) ** 2
    d = sq.deriv()
    crit = []
    if np.any(d.coef):
        crit = [r.real for r in d.roots() if abs(r.imag) < 1e-7 and x0 < r.real < x1]
    pts = sorted({x0, x1, *crit})
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        m = 0.5 * (a + b)
        for towards, away in ((a, m), (b, m)):
            edges = sorted({towards + (away - towards) * 2.0**-k for k in range(levels)} | {towards})
            for u, v in zip(edges[:-1], edges[1:]):
                h = 0.5 * (v - u)
                total += h * np.dot(_GW, np.abs(p(h * _GX + (u + h))))
    return total


def reference_window_upper(mu, res):
    """int |phi - c| over the witness window at the reported c."""
    wlo, whi = res.witness_window
    c = complex(res.minimizer_c) - sn._phi_offset(mu, wlo)
    return sum(
        reference_integral_abs(poly.add(coeffs, (-c,)), 0.0, t1 - t0)
        for t0, t1, coeffs in me.cumulative_pieces(mu, wlo, whi)
    )


# ---------------------------------------------------------------------------
# poly.integral_abs against the reference


@st.composite
def complex_polys(draw):
    """A complex polynomial of degree 0-3 on [0, L]: random coefficients, or
    a real linear factor times a complex one, so |p| has a zero (a kink)
    inside or at an end of the interval, or a double zero."""
    L = draw(st.one_of(st.floats(1e-9, 1e-6), st.floats(1e-3, 4.0)))
    part = st.floats(-2.0, 2.0)
    cpx = st.builds(complex, part, part)
    if draw(st.booleans()):
        deg = draw(st.integers(0, 3))
        return tuple(draw(st.lists(cpx, min_size=deg + 1, max_size=deg + 1))), L
    coeffs = tuple(draw(st.lists(cpx, min_size=1, max_size=2)))
    root = draw(st.one_of(st.sampled_from([0.0, L, 0.5 * L]), st.floats(0.0, L)))
    for _ in range(draw(st.integers(1, 2))):
        coeffs = poly.multiply(coeffs, (-root, 1.0))
    return coeffs, L


@settings(max_examples=200, deadline=None, derandomize=True)
@given(complex_polys())
# |p| = sqrt((x - 1)^2 + 1e-12): a near-zero, bending on a 1e-6 scale
@example(((-1 + 1e-6j, 1.0), 2.0))
# a zero of p inside the interval
@example(((-0.6 - 1.2j, 2.0 + 4.0j), 1.0))
def test_integral_abs_matches_reference(case):
    coeffs, L = case
    got = poly.integral_abs(coeffs, 0.0, L)
    ref = reference_integral_abs(coeffs, 0.0, L)
    scale = L * sum(abs(c) * max(1.0, L) ** k for k, c in enumerate(coeffs))
    assert abs(got - ref) <= 1e-12 * max(ref, 1e-300) + 1e-15 * scale


@settings(max_examples=60, deadline=None, derandomize=True)
@given(complex_polys())
def test_gauss_integral_rows_match_scalar_calls(case):
    # an array-valued fn integrates each row as its own scalar call does,
    # with every row held to the relative test
    coeffs, L = case
    rows, ok = poly.gauss_integral(coeffs, 0.0, L, lambda v: np.array([np.abs(v), 1.0 + v.real]),
                                   poly.MAX_PANELS)
    assert ok
    for row, fn in zip(rows, (np.abs, lambda v: 1.0 + v.real)):
        ref, ok = poly.gauss_integral(coeffs, 0.0, L, fn, poly.MAX_PANELS)
        assert ok and row == pytest.approx(ref, rel=1e-12, abs=1e-300)


def test_constant_closed_form_on_a_subnormal_stretch():
    # the Gauss panels of a 2.2e-311-long stretch never agree
    h = 2.225073858507e-311
    assert poly.integral_abs((3 - 4j,), 0.0, h) == 5.0 * h
    assert poly.integral_abs((0.5 + 1j, 0.0), 1.0, 3.0) == abs(0.5 + 1j) * 2.0


def test_near_zero_closed_form():
    # int_0^2 sqrt((x - 1)^2 + e^2) dx = sqrt(1 + e^2) + e^2 asinh(1 / e)
    e = 1e-6
    exact = math.sqrt(1 + e * e) + e * e * math.asinh(1 / e)
    assert poly.integral_abs((-1 + 1e-6j, 1.0), 0.0, 2.0) == pytest.approx(exact, rel=1e-14)


# |rho| = sqrt(2) |x - 2| is linear, so the rule is exact without a bisection,
# also on stretches that end at the zero far from the local origin, where
# nodes rounded to the spacing of floats at |x| used to bisect until the
# panel budget ran out
_LINEAR_ZERO_AT_2 = ((0.0, 2.0, (-2 - 2j, 1 + 1j)),)


def test_total_variation_next_to_far_zero(monkeypatch):
    monkeypatch.setattr(poly, "MAX_PANELS", 0)
    mu = me.make_measure([], _LINEAR_ZERO_AT_2, (0, 2))
    h = 2.0 - 1.9999
    got = me.total_variation(mu, (1.9999, 2.0))
    assert got == pytest.approx(math.sqrt(2) * h * h / 2, rel=1e-14)


def test_norm_unif_candidate_next_to_far_zero(monkeypatch):
    # the atom puts a candidate window (0.9999, 1.9999], whose mass takes
    # the tail integral of |rho| over (1.9999, 2]; the sup is at (0, 1]
    monkeypatch.setattr(poly, "MAX_PANELS", 0)
    mu = me.make_measure([(0.9999, 0.5)], _LINEAR_ZERO_AT_2, (0, 3))
    assert me.norm_unif(mu, 1.0) == pytest.approx(1.5 * math.sqrt(2) + 0.5, rel=1e-14)


# ---------------------------------------------------------------------------
# phase rotation: a rotated real measure takes the complex paths


def _rotate(mu, theta):
    u = cmath.exp(1j * theta)
    return me.LocalMeasure(
        tuple((x, w * u) for x, w in mu.atoms),
        tuple(me.Segment(s.start, s.end, tuple(c * u for c in s.coeffs)) for s in mu.segments),
        mu.window,
    )


@settings(max_examples=120, deadline=None, derandomize=True)
@given(measure_windows(), st.floats(1e-3, math.pi / 2), st.sampled_from([0.5, 1.0, 2.0, 4.0]))
def test_phase_rotation_matches_real_path(case, theta, r):
    mu = case[0]
    rot = _rotate(mu, theta)
    scale = max(1.0, me.total_variation(mu))
    assert abs(me.total_variation(rot) - me.total_variation(mu)) <= 1e-12 * scale
    assert abs(me.norm_unif(rot, r) - me.norm_unif(mu, r)) <= 1e-12 * scale / r


def test_phase_rotation_edge_corpus():
    # atoms on the window edges and on density breakpoints, a 1e-9 segment,
    # a cubic with an interior maximum of |rho| and a sign change
    mu = me.make_measure(
        [(-2.0, 0.4), (2.0, -0.3), (-0.5, 0.7), (0.25, -0.2)],
        ((-1.5, -0.5, (0.3, 1.0)), (-0.5, 0.25, (0.1, 0.0, -1.5, 0.8)),
         (0.9, 0.9 + 1e-9, (5.0, 1.0, -2.0, 1.0)), (1.0, 1.9, (-0.5,))),
        (-2, 2),
    )
    for theta in (1e-3, 0.7, math.pi / 2):
        rot = _rotate(mu, theta)
        scale = me.total_variation(mu)
        assert abs(me.total_variation(rot) - scale) <= 1e-12 * scale
        for r in (0.3, 1.0, 2.5, 4.0):
            assert abs(me.norm_unif(rot, r) - me.norm_unif(mu, r)) <= 1e-12 * scale / r


# ---------------------------------------------------------------------------
# complex window seminorms: the reported upper is the integral at its c


@settings(max_examples=40, deadline=None, derandomize=True)
@given(measure_windows(complex_=True))
def test_complex_window_upper_is_its_integral(case):
    mu, wlo, whi = case
    res = sn.window_seminorm(mu, 0.5 * (wlo + whi))
    ref = reference_window_upper(mu, res)
    assert abs(res.upper - ref) <= 1e-12 * max(ref, 1e-300)
    # a window whose pieces are real is exact: lower == upper
    assert res.lower in (0.5 * res.upper, res.upper)


def test_named_measure_upper_is_its_integral():
    # the former panel-doubling quadrature stopped unconverged here and
    # reported 1.0470214294876496, 1.03e-7 below the integral at its own c
    mu = me.make_measure(
        [(-1.15, 0.68 - 0.51j), (1.17, -0.99 - 0.88j), (-1.58, 0.86 + 0.63j)],
        ((-1.3, 0.7, (-0.86 - 0.68j,)),),
        (-3, 3),
    )
    res = sn.window_seminorm(mu, 0.0)
    ref = reference_window_upper(mu, res)
    assert res.upper >= ref * (1 - 1e-12)
    assert res.upper == pytest.approx(ref, rel=1e-12)


def _part(mu, part):
    return me.make_measure(
        [(x, part(w)) for x, w in mu.atoms],
        [(s.start, s.end, tuple(part(c) for c in s.coeffs)) for s in mu.segments],
        mu.window,
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(measure_windows(complex_=True))
def test_complex_bracket_holds_the_part_values(case):
    # S(Re mu) and S(Im mu) are exact real window values; the bracket
    # [M/2, M] holds max(S(Re mu), S(Im mu)) however far Weiszfeld got
    mu, wlo, whi = case
    a = 0.5 * (wlo + whi)
    res = sn.window_seminorm(mu, a)
    m = max(sn.window_seminorm(_part(mu, lambda v: v.real), a).upper,
            sn.window_seminorm(_part(mu, lambda v: v.imag), a).upper)
    assert res.lower <= m * (1 + 1e-12)
    assert m <= res.upper * (1 + 1e-12)


def test_node_cap_raises_instead_of_a_wide_bracket():
    # a complex window brackets its value in [M/2, M], so the gap of an
    # interval of length 3 at tol 1e-3 stays open: the cap of 10 nodes ends
    # the refinement with a ToleranceError, not with a bracket wider than tol
    mu = me.make_measure([(-1.0, 0.5), (0.5, -0.25 + 0.1j)],
                         [(-2.5, -1.0, (0.3, 0.1 + 0.2j, -0.2, 0.05)), (0.0, 1.25, (0.7,))],
                         (-3, 3))
    with pytest.raises(ToleranceError, match="after 10 refinement nodes"):
        sn.interval_seminorm(mu, (-1.5, 1.5), 1e-3, max_nodes=10)
