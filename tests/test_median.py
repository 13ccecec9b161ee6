"""The exact median sweep against the 90-step bisection it replaced, and
the homogeneity N(lambda mu) = |lambda| N(mu) of window values.

`_bisection_median` is the former implementation, kept here only as the
oracle: it bisects on the sublevel measure, re-isolating the roots of every
piece at each of its 90 steps, then snaps to a representation value within
1e-9 (an absolute rule the sweep no longer has).  Its staircase shortcut,
which accepted a level 1e-15 short of half, is left out, so step functions
are bisected too.  It returns the bisection value and the snapped one: c is
compared with the first, since the snap can move off the smallest median
(phi = -t on (0, 1) over the window (-0.999999999999, 1.000000000001) snaps
-1.0000889e-12 to 0.0), and the L1 value with the second.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakgordon import measure as me
from weakgordon import poly
from weakgordon import seminorm as sn

from test_poly import check_branches


def _bisection_sublevel(pieces, c):
    total = 0.0
    for t0, t1, coeffs in pieces:
        L = t1 - t0
        if len(poly.trim(coeffs)) == 1:
            if coeffs[0] <= c:
                total += L
            continue
        shifted = poly.add(coeffs, (-c,))
        pts = [0.0] + poly.real_roots_in(shifted, 0.0, L) + [L]
        for a, b in zip(pts[:-1], pts[1:]):
            if b <= a:
                continue
            if poly.evaluate(shifted, 0.5 * (a + b)) <= 0:
                total += b - a
    return total


def _value_range(pieces):
    vmin, vmax = math.inf, -math.inf
    for t0, t1, coeffs in pieces:
        L = t1 - t0
        xs = [0.0, L] + poly.real_roots_in(poly.derivative(coeffs), 0.0, L)
        for x in xs:
            v = poly.evaluate(coeffs, x)
            vmin, vmax = min(vmin, v), max(vmax, v)
    return vmin, vmax


def _bisection_median(pieces, half):
    """(bisection value, snapped value) of the former smallest median."""
    vmin, vmax = _value_range(pieces)
    lo_c, hi_c = vmin, vmax
    for _ in range(90):
        mid = 0.5 * (lo_c + hi_c)
        if _bisection_sublevel(pieces, mid) >= half:
            hi_c = mid
        else:
            lo_c = mid
    c = hi_c
    candidates = set()
    for t0, t1, coeffs in pieces:
        candidates.add(poly.evaluate(coeffs, 0.0))
        candidates.add(poly.evaluate(coeffs, t1 - t0))
        if len(poly.trim(coeffs)) == 1:
            candidates.add(coeffs[0])
    scale_ref = max(1.0, abs(vmin), abs(vmax))
    for v in sorted(candidates):
        if abs(v - c) <= 1e-9 * scale_ref and _bisection_sublevel(pieces, v) >= half:
            if v <= c or abs(sn._l1(pieces, v) - sn._l1(pieces, c)) <= 1e-12 * scale_ref:
                return c, v
    return c, c


def _real(pieces):
    return [(t0, t1, poly.to_real(c)) for t0, t1, c in pieces]


def _real_parts(mu, wlo, whi):
    """The real cumulative piece lists _window_value hands to the median:
    the measure's own for a real measure, else its Re and Im parts."""
    pieces = me.cumulative_pieces(mu, wlo, whi)
    if mu.is_real():
        return [_real(pieces)]
    return [
        _real([(t0, t1, tuple(getattr(v, part) for v in c)) for t0, t1, c in pieces])
        for part in ("real", "imag")
    ]


def _check_against_bisection(mu, wlo, whi):
    half = 0.5 * (whi - wlo)
    for pieces in _real_parts(mu, wlo, whi):
        if not pieces:
            continue
        parts = sn._monotone_parts(pieces)
        c_new = sn._smallest_median(parts, half)
        c_old, c_snapped = _bisection_median(pieces, half)
        vmin, vmax = _value_range(pieces)
        scale = max(1.0, abs(vmin), abs(vmax))
        assert abs(c_new - c_old) <= 1e-12 * max(1.0, abs(c_old)), (c_new, c_old)
        assert abs(sn._l1(pieces, c_new) - sn._l1(pieces, c_snapped)) <= 1e-12 * scale
        assert sn._sublevel(parts, c_new)[0] >= half


# ---------------------------------------------------------------------------
# named edge cases


EDGE_CASES = {
    "zero measure": (me.zero_measure((-2, 2)), -1.0, 1.0),
    "single dirac, plateau at the median": (me.dirac(0.0, 1.0, (-2, 2)), -1.0, 1.0),
    "dirac off-centre window": (me.dirac(0.3, 1.0, (-2, 2)), -0.7, 1.3),
    "atoms on both window edges": (
        me.make_measure([(-1.0, 0.5), (1.0, -0.7), (0.2, 0.3)], (), (-2, 2)), -1.0, 1.0),
    "atom on a density breakpoint": (
        me.make_measure([(0.25, -0.4)], ((-0.5, 0.25, (0.3, 1.0)),
                                          (0.25, 0.9, (0.1, 0.0, -1.5))), (-2, 2)),
        -1.0, 1.0),
    "segment 1e-9 long": (
        me.make_measure([(0.1, 0.2)], ((0.3, 0.3 + 1e-9, (5.0, 1.0, -2.0, 1.0)),), (-2, 2)),
        -1.0, 1.0),
    "dipole, flat median set": (
        me.make_measure([(-0.25, 1.0), (0.25, -1.0)], (), (-2, 2)), -1.0, 1.0),
    "lebesgue": (me.lebesgue((-2, 2)), -1.0, 1.0),
    "cubic density": (
        me.make_measure((), ((-1.0, 1.0, (0.2, -1.0, 0.5, 1.5)),), (-2, 2)), -1.0, 1.0),
    "complex density and atom": (
        me.make_measure([(0.4, 0.3 - 0.6j)],
                        ((-0.8, 0.6, (0.5 + 0.2j, -1.0 + 0.7j, 0.3j)),), (-2, 2)),
        -1.0, 1.0),
    "mollified difference": (
        (lambda mu: me.subtract(mu, me.mollify(mu, 4)))(
            me.make_measure([(0.0, 0.7)], ((-1.2, -0.4, (0.3, 0.1)),), (-3, 3))),
        -1.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_cases_match_bisection(name):
    _check_against_bisection(*EDGE_CASES[name])


def _check_branches_and_l1(mu, wlo, whi):
    """Every piece's branches pass `check_branches`, and the L1 value summed
    over the median's parts is the reference `_l1` within a few ulps of
    the window's scale, at the median and at levels around phi."""
    half = 0.5 * (whi - wlo)
    for pieces in _real_parts(mu, wlo, whi):
        for t0, t1, coeffs in pieces:
            check_branches(coeffs, 0.0, t1 - t0)
        if not pieces:
            continue
        parts = sn._monotone_parts(pieces)
        vmin, vmax = _value_range(pieces)
        for c in (sn._smallest_median(parts, half), vmin, vmax, 0.5 * (vmin + vmax),
                  vmin - 1.0, 0.25 * vmin + 0.75 * vmax):
            scale = (max(abs(vmin), abs(vmax)) + abs(c)) * (whi - wlo)
            assert abs(sn._l1_parts(parts, c) - sn._l1(pieces, c)) <= 8 * 2.0**-52 * scale


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_case_branches_and_l1_parts(name):
    _check_branches_and_l1(*EDGE_CASES[name])


def test_real_window_never_integrates_abs(monkeypatch):
    # the median's split also gives the value: no second root isolation
    def refuse(*args):
        raise AssertionError("poly.integral_abs on a real window")

    monkeypatch.setattr(poly, "integral_abs", refuse)
    for name in ("atom on a density breakpoint", "cubic density", "mollified difference"):
        assert sn._window_value(*EDGE_CASES[name])[0] > 0.0


def _exact_window_value(mu, wlo, whi):
    """min_c int |phi - c| over [wlo, whi] in exact arithmetic, for a real
    measure of atoms and degree-0 densities: phi is then piecewise linear,
    so a median and the value are rational.

    phi = mu((wlo, t]) (a constant offset moves neither).  On each stretch
    between cuts it is a + b s, s in [0, t1 - t0].  The sublevel measure S
    is linear between consecutive stretch-end values v, so a median is the
    first v with S(v) >= half when S(v-) <= half, else the point where the
    line from (v_prev, S(v_prev)) to (v, S(v-)) meets half.
    """
    lo, hi = Fraction(wlo), Fraction(whi)
    atoms = [(Fraction(x), Fraction(complex(w).real)) for x, w in mu.atoms if wlo < x < whi]
    segs = [(max(Fraction(g.start), lo), min(Fraction(g.end), hi),
             Fraction(complex(g.coeffs[0]).real)) for g in mu.segments]
    segs = [(s, e, r) for s, e, r in segs if e > s]
    cuts = sorted({lo, hi} | {x for x, _ in atoms} | {v for s, e, _ in segs for v in (s, e)})
    lines, level = [], Fraction(0)
    for t0, t1 in zip(cuts, cuts[1:]):
        level += sum(w for x, w in atoms if x == t0)
        slope = sum(r for s, e, r in segs if s <= t0 and t1 <= e)
        lines.append((level, slope, t1 - t0))
        level += slope * (t1 - t0)

    def below(c, strict):
        total = Fraction(0)
        for a, b, L in lines:
            if b == 0:
                total += L if (a < c if strict else a <= c) else 0
            else:
                x = min(max((c - a) / b, Fraction(0)), L)
                total += x if b > 0 else L - x
        return total

    half = (hi - lo) / 2
    vs = sorted({a for a, _, _ in lines} | {a + b * L for a, b, L in lines})
    j = next(j for j, v in enumerate(vs) if below(v, False) >= half)
    c = vs[j]
    if below(c, True) > half:
        s_prev, s_next = below(vs[j - 1], False), below(c, True)
        c = vs[j - 1] + (half - s_prev) * (c - vs[j - 1]) / (s_next - s_prev)
    total = Fraction(0)
    for a, b, L in lines:
        f0, f1 = a - c, a + b * L - c
        if f0 * f1 >= 0:
            total += abs(f0 + f1) * L / 2
        else:
            x = -f0 / b
            total += (abs(f0) * x + abs(f1) * (L - x)) / 2
    return total


def _check_exact_value(mu, wlo, whi):
    """|value - exact| <= 1e-15 2 |mu|(W), plus 16 units of the smallest
    subnormal for values whose products underflow (a 1e-224 density on a
    1e-224 stretch has the exact value 3e-448)."""
    value = sn._window_value(mu, wlo, whi)[0]
    bound = 2.0 * me.total_variation(mu, (wlo, whi))
    exact = _exact_window_value(mu, wlo, whi)
    slack = Fraction(1e-15) * Fraction(bound) + Fraction(1, 2**1070)
    assert abs(Fraction(value) - exact) <= slack, (value, float(exact))


FLAT_EDGE_CASES = ["atoms on both window edges", "dipole, flat median set",
                   "dirac off-centre window", "lebesgue",
                   "single dirac, plateau at the median", "zero measure"]


@pytest.mark.parametrize("name", FLAT_EDGE_CASES)
def test_flat_edge_case_values_are_exact(name):
    _check_exact_value(*EDGE_CASES[name])


@pytest.mark.parametrize("lead", [4.8e-89, 5e-324])
def test_negligible_leading_term_keeps_the_root(lead):
    # a cubic term below rounding on the interval moves no root: it is
    # trimmed, down to a subnormal one (5e-324), and the quadratic left over
    # keeps the root
    assert poly.real_roots_in((-0.25, 0.0, 0.5, lead), 0.0, 1.0) == [pytest.approx(math.sqrt(0.5))]


# ---------------------------------------------------------------------------
# randomized corpora


def _check_median_properties(mu, wlo, whi):
    """What makes c the smallest median, checked without the oracle."""
    half = 0.5 * (whi - wlo)
    for pieces in _real_parts(mu, wlo, whi):
        if not pieces:
            continue
        parts = sn._monotone_parts(pieces)
        c = sn._smallest_median(parts, half)
        vmin, vmax = _value_range(pieces)
        scale = max(1.0, abs(vmin), abs(vmax))
        assert sn._sublevel(parts, c)[0] >= half
        # smallest, up to the rounding of S on steep branches
        assert sn._sublevel(parts, c - 1e-12 * scale)[0] < half
        best = sn._l1(pieces, c)
        for h in (1e-6, 1e-3, 0.1):
            for d in (-h * scale, h * scale):
                assert best <= sn._l1(pieces, c + d) + 1e-12 * scale


def _coeffs(draw, deg, complex_, part):
    re = draw(st.lists(part, min_size=deg + 1, max_size=deg + 1))
    if not complex_:
        return tuple(re)
    im = draw(st.lists(part, min_size=deg + 1, max_size=deg + 1))
    return tuple(complex(a, b) for a, b in zip(re, im))


ANY_FLOAT = st.floats(-2.0, 2.0)
# coefficients 0 or of size 1e-3 to 2: a corpus without the ill-scaled
# leading terms and 1e-300-scale values that ANY_FLOAT reaches
WELL_SCALED = st.one_of(st.just(0.0), st.floats(1e-3, 2.0), st.floats(-2.0, -1e-3))


@st.composite
def measure_windows(draw, complex_=False, coefficient=ANY_FLOAT, max_degree=3):
    """A measure on (-2, 2) and a window [a-1, a+1] inside it, with atoms on
    the window edges and on density breakpoints, ~1e-9 segments, densities
    of degree 0 to max_degree and the zero measure all in reach."""
    a = draw(st.floats(-0.9, 0.9))
    wlo, whi = a - 1.0, a + 1.0
    n_seg = draw(st.integers(0, 3))
    cuts = sorted(draw(st.lists(st.floats(-1.95, 1.95), min_size=2 * n_seg,
                                max_size=2 * n_seg)))
    segments = []
    for s, e in zip(cuts[0::2], cuts[1::2]):
        if draw(st.booleans()):
            e = min(e, s + draw(st.floats(5e-10, 2e-9)))
        if e > s:
            deg = draw(st.integers(0, max_degree))
            segments.append((s, e, _coeffs(draw, deg, complex_, coefficient)))
    special = [wlo, whi] + [x for s, e, _ in segments for x in (s, e)]
    position = st.one_of(st.sampled_from(special), st.floats(-2.0, 2.0))
    weight = st.floats(-1.5, 1.5)
    if complex_:
        weight = st.builds(complex, weight, weight)
    atoms = draw(st.lists(st.tuples(position, weight), max_size=4))
    return me.make_measure(atoms, segments, (-2, 2)), wlo, whi


@settings(max_examples=150, deadline=None, derandomize=True)
@given(measure_windows())
def test_real_measures_match_bisection(case):
    _check_against_bisection(*case)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(measure_windows(complex_=True))
def test_complex_parts_match_bisection(case):
    _check_against_bisection(*case)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(measure_windows())
def test_real_branches_and_l1_parts(case):
    _check_branches_and_l1(*case)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(measure_windows(complex_=True))
def test_complex_part_branches_and_l1_parts(case):
    _check_branches_and_l1(*case)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(measure_windows(max_degree=0))
def test_flat_window_values_are_exact(case):
    _check_exact_value(*case)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(measure_windows())
def test_real_median_properties(case):
    _check_median_properties(*case)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(measure_windows(complex_=True))
def test_complex_part_median_properties(case):
    _check_median_properties(*case)


# ---------------------------------------------------------------------------
# homogeneity of window values


SCALES = (1e-12, 2.0**-40, 1e-6, 1e6, 1e12)
# the smallest median of this density, 1.2e-10 s, lies within 1e-9 of its
# top level 0.834 s when s = 1e-12: a snap with an absolute threshold moved
# c there, off every median, and reported 1.182 s in place of 0.486 s
SNAP_EXAMPLE = (me.make_measure((), [(0.0, 0.834, (1.0,))], (-2, 2)),
                -0.99999999988, 1.00000000012)


def _times(mu, lam):
    return me.make_measure([(x, lam * w) for x, w in mu.atoms],
                           [(s.start, s.end, tuple(lam * c for c in s.coeffs))
                            for s in mu.segments], mu.window)


def _check_homogeneity(mu, wlo, whi):
    """N(lam mu) = lam N(mu) within 1e-9 of 2 |mu|(window), the bound on N:
    equal values for real measures, overlapping brackets [M/2, M] for
    complex ones.  Values next to the underflow threshold (the corpus
    reaches 1e-300-sized coefficients) carry absolute rounding of a few
    2^-1074 in mu and in lam mu; the smallest normal float, at the scale of
    mu, covers it."""
    lo, up = sn._window_value(mu, wlo, whi)[:2]
    bound = 2.0 * me.total_variation(mu, (wlo, whi))
    for lam in SCALES:
        slack = 1e-9 * bound + 2.0**-1022 * max(1.0, 1.0 / lam)
        lo_s, up_s = (v / lam for v in sn._window_value(_times(mu, lam), wlo, whi)[:2])
        if mu.is_real():
            assert abs(lo_s - lo) <= slack, (lam, lo_s, lo)
            assert lo_s == up_s
        else:
            assert lo_s <= up + slack and lo <= up_s + slack, (lam, (lo_s, up_s), (lo, up))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(measure_windows())
@example(SNAP_EXAMPLE)
def test_real_window_values_are_homogeneous(case):
    _check_homogeneity(*case)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(measure_windows(complex_=True))
def test_complex_window_brackets_are_homogeneous(case):
    _check_homogeneity(*case)
