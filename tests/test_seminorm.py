"""Window and interval seminorms.

`_bnb_interval_seminorm` is a copy of the branch-and-bound the event sweep
replaced, kept here only as the oracle: breakpoint candidates, then
refinement pruned by the global Lipschitz constant |mu|(I), the sliding
unit-mass bound and the sliding sup of |phi - c|.  `_staircase_max` is
the per-cell form of the exact staircase cells, kept as the oracle of the
batched `_staircase_cells`.
"""

import heapq
import math
import tracemalloc
from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakgordon import measure as me
from weakgordon import seminorm as sn
from weakgordon.errors import DomainError, ToleranceError

from conftest import random_affine_test_function, random_measure


class TestWindowSeminorm:
    def test_lebesgue(self):
        r = sn.window_seminorm(me.lebesgue((-5, 5)), 0.0)
        assert r.lower == r.upper == pytest.approx(1.0, abs=1e-12)
        assert abs(r.minimizer_c) < 1e-12

    def test_dirac(self):
        r = sn.window_seminorm(me.dirac(0.0, 1.0, (-2, 2)), 0.0)
        assert r.upper == pytest.approx(1.0, abs=1e-12)

    def test_two_atom_dipole(self):
        eps = 0.25
        mu = me.make_measure([(eps, 1.0), (-eps, -1.0)], (), (-2, 2))
        r = sn.window_seminorm(mu, 0.0)
        assert r.upper == pytest.approx(2 * eps, abs=1e-12)
        assert r.minimizer_c == pytest.approx(1.0)

    def test_zero(self):
        r = sn.window_seminorm(me.zero_measure((-2, 2)), 0.0)
        assert r.upper == 0.0

    def test_window_outside(self):
        with pytest.raises(DomainError):
            sn.window_seminorm(me.lebesgue((0, 1)), 5.0)


class TestIntervalSeminorm:
    def test_example_quadrupole(self):
        for eps in (0.1, 0.25):
            mu = me.make_measure(
                [(0.0, 1.0), (eps, -1.0), (2.0, 1.0), (2.0 + eps, -1.0)], (), (-3, 5)
            )
            r = sn.interval_seminorm(mu, (-3, 5), tol=1e-9)
            assert r.lower == pytest.approx(eps, abs=1e-9)
            assert r.upper == pytest.approx(eps, abs=1e-9)

    def test_integer_comb(self):
        comb = me.make_measure([(n, 1.0) for n in range(-10, 11)], (), (-10, 10))
        r = sn.interval_seminorm(comb, (-9, 9), tol=1e-9)
        assert r.lower == pytest.approx(1.0, abs=1e-9)
        assert r.upper == pytest.approx(1.0, abs=1e-9)

    def test_zero_difference(self):
        lam = me.lebesgue((-3, 3))
        r = sn.interval_seminorm(me.subtract(lam, lam), (-3, 3), tol=1e-9)
        assert r.upper == 0.0

    def test_short_interval_uses_own_length(self):
        # |I| < 2: same median formula on the shorter window
        mu = me.dirac(0.0, 1.0, (-2, 2))
        r = sn.interval_seminorm(mu, (-0.5, 0.5), tol=1e-9)
        # peak of an admissible tent inside [-0.5, 0.5] is 0.5
        assert r.upper == pytest.approx(0.5, abs=1e-12)

    def test_translation_bound(self, rng):
        # the assertion uses the achieved lower bound, so a coarse certified
        # gap keeps the test honest and fast
        for _ in range(25):
            mu = random_measure(rng, window=(-6, 6), max_atoms=6)
            h = float(rng.uniform(0.02, 0.95))
            nu = me.subtract(mu, me.translate(mu, h))
            r = sn.interval_seminorm(nu, (-6, 6 - h), tol=2e-2)
            assert r.lower <= 3 * h * me.norm_unif(mu) + 1e-10


class TestTestFunctional:
    def test_unit_tent_on_dirac(self):
        u = me.PiecewiseAffine((-1.0, 0.0, 1.0), (0.0, 1.0, 0.0))
        assert sn.test_functional(me.dirac(0.0, 1.0, (-2, 2)), u) == 1.0

    def test_unit_tent_on_lebesgue(self):
        u = me.PiecewiseAffine((-1.0, 0.0, 1.0), (0.0, 1.0, 0.0))
        assert sn.test_functional(me.lebesgue((-2, 2)), u) == pytest.approx(1.0)

    def test_quadrupole_witness(self):
        eps = 0.25
        mu = me.make_measure(
            [(0.0, 1.0), (eps, -1.0), (2.0, 1.0), (2.0 + eps, -1.0)], (), (-3, 5)
        )
        u = me.PiecewiseAffine((0.0, eps, 2.0, 2.0 + eps), (0.0, -eps, eps, 0.0))
        assert sn.test_functional(mu, u) == pytest.approx(2 * eps, abs=1e-14)

    def test_oracle_consistency(self, rng):
        for _ in range(30):
            mu = random_measure(rng, window=(-6, 6))
            a = float(rng.uniform(-4.5, 4.5))
            u = random_affine_test_function(rng, a)
            r = sn.interval_seminorm(mu, (a - 1.5, a + 1.5), tol=1e-3)
            assert abs(sn.test_functional(mu, u)) <= r.upper + 1e-10


class TestMedianProperties:
    def test_median_optimality(self, rng):
        for _ in range(8):
            mu = random_measure(rng, window=(-4, 4))
            res = sn.window_seminorm(mu, 0.0)
            pieces = sn._real_pieces(me.cumulative_pieces(mu, -1.0, 1.0))
            c_opt = complex(res.minimizer_c - sn._phi_offset(mu, -1.0)).real
            best = sn._l1_real(pieces, c_opt)
            for c in rng.uniform(-3, 3, 25):
                assert sn._l1_real(pieces, float(c)) >= best - 1e-11

    def test_c0_bounded_by_unif(self, rng):
        # |c_{mu,0}| <= ||mu||_unif for windows centred at 0
        for _ in range(20):
            mu = random_measure(rng, window=(-4, 4))
            res = sn.window_seminorm(mu, 0.0)
            assert abs(res.minimizer_c) <= me.norm_unif(mu) + 1e-10

    def test_smallest_median_tiebreak(self):
        # flat minimiser set [-1, 0] for a single dirac: report the smallest
        res = sn.window_seminorm(me.dirac(0.0, 1.0, (-2, 2)), 0.0)
        assert res.minimizer_c == pytest.approx(-1.0)


class TestPaperChains:
    def test_est_1(self, rng):
        # int_k^{k+1} |phi - c_0| <= 2 max(k+1, -k) ||mu||_[alpha, beta]
        for _ in range(10):
            mu = random_measure(rng, window=(-6, 6))
            alpha, beta = -3, 3
            c0 = sn.window_seminorm(mu, 0.0).minimizer_c
            bound_norm = sn.interval_seminorm(mu, (alpha, beta), tol=5e-2).upper
            for k in range(alpha, beta):
                pieces = me.cumulative_pieces(mu, float(k), float(k + 1))
                off = sn._phi_offset(mu, float(k))
                val = sn._l1_complex(pieces, complex(c0) - off)
                assert val <= 2 * max(k + 1, -k) * bound_norm + 1e-9

    def test_norm_spt(self, rng):
        # |int u dmu| <= n^2 ||mu||_[-n, n] for spt u in [-n, n]; a loose
        # certified gap only weakens the upper side, never falsifies it
        for _ in range(15):
            n = int(rng.integers(2, 5))
            mu = random_measure(rng, window=(-6, 6))
            u = random_affine_test_function(rng, 0.0, diam=2.0 * n - 0.2, n_kinks=5)
            r = sn.interval_seminorm(mu, (-n, n), tol=5e-2)
            assert abs(sn.test_functional(mu, u)) <= n * n * r.upper + 1e-10

    def test_lipschitz_multiplier_bound(self, rng):
        # ||psi mu||_I <= (sup|psi| + sup|psi'|) ||mu||_{I cap spt psi}
        for _ in range(10):
            mu = random_measure(rng, window=(-6, 6), max_segments=0)
            psi = me.PiecewiseAffine((-3.0, -1.0, 1.0, 3.0), (0.0, 1.0, 1.0, 0.0))
            prod = me.multiply_lipschitz(mu, psi)
            lhs = sn.interval_seminorm(prod, (-5, 5), tol=2e-2)
            rhs = sn.interval_seminorm(mu, (-3, 3), tol=2e-2)
            factor = psi.sup_norm() + psi.slope_sup()
            assert lhs.lower <= factor * rhs.upper + 1e-10


class TestComplexBracket:
    def test_bracket_order(self, rng):
        for _ in range(6):
            mu = random_measure(rng, window=(-4, 4), complex_weights=True)
            r = sn.window_seminorm(mu, 0.0)
            assert 0.0 <= r.lower <= r.upper
            assert r.upper <= 2 * r.lower + 1e-9

    def test_real_functional_within_bracket(self, rng):
        for _ in range(10):
            mu = random_measure(rng, window=(-4, 4), complex_weights=True)
            u = random_affine_test_function(rng, 0.0)
            r = sn.window_seminorm(mu, 0.0)
            assert abs(sn.test_functional(mu, u)) <= r.upper + 1e-9


    def test_lipschitz_bounds_complex_density(self):
        # rho = (t - 2) + i on (0, 4]: |Re| + |Im| integrates to 4 + 4, the
        # atom at 1 adds |3 + 4i| = 5 and the atom at lo = -1 lies outside
        # (lo, hi]; quadrature |rho| gives only 2 sqrt(5) + asinh(2) + 5
        mu = me.make_measure(
            [(-1.0, 2.0), (1.0, 3 + 4j)], ((0.0, 4.0, (-2 + 1j, 1.0)),), (-2, 6)
        )
        r = sn.interval_seminorm(mu, (-1.0, 5.0), tol=50.0)
        tv = me.total_variation(mu, (-1.0, 5.0))
        assert tv == pytest.approx(5.0 + 2.0 * math.sqrt(5.0) + math.asinh(2.0))
        assert r.certificate.lipschitz == pytest.approx(13.0, rel=1e-14)
        assert r.certificate.lipschitz >= tv


class TestMollifierDistance:
    def test_distance_decreasing_to_zero(self, rng):
        # the atom pattern matters: the distance scales like
        # 0.2734/n * (atom mass per window), so the corpus keeps that below 1
        mu = me.make_measure(
            [(0.0, 0.7)], ((-1.2, -0.4, (0.3, 0.1)),), (-3, 3)
        )
        prev = math.inf
        for n in (4, 16, 64, 256):
            mol, err = me.mollify_with_error(mu, n)
            nu = me.subtract(mu, mol)
            c = sn.window_seminorm(nu, 0.0).minimizer_c
            ub = sn.sliding_l1_sup(nu, complex(c).real, (nu.lo, nu.hi), 2.0) + err
            assert ub <= prev + 1e-12
            prev = ub
        assert prev < 1e-3


# ---------------------------------------------------------------------------
# the event sweep against the branch-and-bound it replaced


def _bnb_interval_seminorm(mu, interval, tol, max_nodes=60000):
    """(lower, upper) of the former branch-and-bound, |I| > 2 only."""
    lo, hi = float(interval[0]), float(interval[1])
    a_lo, a_hi = lo + 1.0, hi - 1.0
    atoms = [(x, abs(w)) for x, w in mu.atoms if lo <= x <= hi]
    pieces = [p for p in me._abs_segments(mu) if p.end > lo and p.start < hi]
    abs_oracle = sn._PieceOracle(atoms, pieces)
    K = me.total_variation(mu, (lo, hi))
    cands = {a_lo, a_hi}
    for b in mu.breakpoints():
        for a in (b - 1.0, b, b + 1.0):
            if a_lo <= a <= a_hi:
                cands.add(a)
    cand = sorted(cands)
    evals = {}

    def evaluate(a):
        if a not in evals:
            evals[a] = sn._window_value(mu, a - 1.0, a + 1.0)
        return evals[a]

    best_lower, best_a = max((evaluate(a)[0], a) for a in cand)
    slide_oracles = {}

    def node_bound(a1, a2, cutoff):
        b = max(evaluate(a1)[1], evaluate(a2)[1]) + K * (a2 - a1) / 2.0
        if b <= cutoff:
            return b
        span_lo, span_hi = max(mu.lo, a1 - 1.0), min(mu.hi, a2 + 1.0)
        if span_hi - span_lo >= 1.0:
            b = min(b, abs_oracle.sliding_sup(span_lo, span_hi, 1.0))
        if b <= cutoff:
            return b
        c = complex(evals[best_a][2]).real
        if c not in slide_oracles:
            slide_oracles[c] = sn._PieceOracle([], sn._l1_pieces(mu, c, lo, hi))
        return min(b, slide_oracles[c].sliding_sup(a1 - 1.0, a2 + 1.0, 2.0))

    heap = [(-node_bound(a1, a2, best_lower + tol), k, a1, a2)
            for k, (a1, a2) in enumerate(zip(cand[:-1], cand[1:])) if a2 - a1 > 1e-14]
    heapq.heapify(heap)
    counter, settled, nodes = len(heap), best_lower, 0
    while heap:
        neg_b, _, a1, a2 = heapq.heappop(heap)
        bound = min(-neg_b, node_bound(a1, a2, best_lower + tol))
        if bound <= best_lower + tol:
            settled = max(settled, min(bound, best_lower + tol))
            continue
        nodes += 1
        if nodes > max_nodes:
            raise ToleranceError("oracle node cap")
        mid = 0.5 * (a1 + a2)
        if evaluate(mid)[0] > best_lower:
            best_lower, best_a = evaluate(mid)[0], mid
        for x1, x2 in ((a1, mid), (mid, a2)):
            if x2 - x1 <= 1e-13 * max(1.0, abs(x1)):
                settled = max(settled, bound)
                continue
            heapq.heappush(heap, (-node_bound(x1, x2, best_lower + tol), counter, x1, x2))
            counter += 1
    vlo, vup, _ = evaluate(best_a)
    return vlo, max(vup, settled, best_lower)


def _eps(mu, interval):
    return 1e-14 * max(1.0, me.total_variation(mu, interval))


def _check_exact(mu, interval):
    """Atom-only real measures: a bracket of rounding width, no refined
    node, inside the oracle's bracket."""
    r = sn.interval_seminorm(mu, interval, tol=1e-6)
    lo, up = _bnb_interval_seminorm(mu, interval, tol=1e-10)
    eps = _eps(mu, interval)
    assert r.upper - r.lower <= eps
    assert r.certificate.grid_step == 0.0
    assert r.certificate.error_bound == r.upper - r.lower
    assert lo - eps <= r.lower <= r.upper <= up + eps, ((r.lower, r.upper), (lo, up))
    return r


@st.composite
def atom_measures(draw, segments=False):
    """Up to 8 atoms on (-4, 4), some on a grid of step 1/4 (so atoms sit 2
    apart and on the window edges of events), an interval of length 2-8
    and, with `segments`, up to two density segments of degree 0-2."""
    grid = st.integers(-16, 16).map(lambda k: 0.25 * k)
    position = st.one_of(grid, st.floats(-4.0, 4.0))
    weight = st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.5, 1.5))
    atoms = draw(st.lists(st.tuples(position, weight), min_size=1, max_size=8))
    segs = []
    if segments:
        for _ in range(draw(st.integers(1, 2))):
            a = 0.25 * draw(st.integers(-16, 10))
            b = a + draw(st.sampled_from([0.25, 0.5, 1.5]))
            if all(b <= s or a >= e for s, e, _ in segs):
                deg = draw(st.integers(0, 2))
                segs.append((a, b, tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=deg + 1,
                                                       max_size=deg + 1)))))
    mu = me.make_measure(atoms, segs, (-4, 4))
    lo = draw(st.one_of(grid, st.floats(-4.0, 2.0)).filter(lambda x: x <= 2.0))
    hi = min(4.0, lo + draw(st.floats(2.0 + 1e-9, 8.0)))
    return mu, (lo, hi)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(atom_measures())
def test_sweep_matches_branch_and_bound_on_atoms(case):
    _check_exact(*case)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(atom_measures(segments=True))
def test_sweep_brackets_the_sup_on_mixed_measures(case):
    # both brackets are certified, so each holds the sup: they overlap
    mu, interval = case
    r = sn.interval_seminorm(mu, interval, tol=1e-6)
    lo, up = _bnb_interval_seminorm(mu, interval, tol=1e-8)
    eps = _eps(mu, interval)
    assert 0.0 <= r.lower <= r.upper <= r.lower + 1e-6 + eps
    assert r.lower <= up + eps and lo <= r.upper + eps
    # the witness is a window of the interval and lower its value there
    w = sn.window_seminorm(mu, 0.5 * (r.witness_window[0] + r.witness_window[1]))
    assert w.lower == pytest.approx(r.lower, abs=eps)


class TestEventEdges:
    def test_atoms_on_window_edges_at_an_event(self):
        # at a = 0 the atoms at -1 and 1 sit on the edges of (a - 1, a + 1]:
        # the staircase jumps there, N does not
        mu = me.make_measure([(-1.0, 0.7), (0.5, -1.1), (1.0, 0.4), (3.0, 0.9)], (), (-3, 5))
        r = _check_exact(mu, (-2.0, 4.0))
        K = me.total_variation(mu, (-2.0, 4.0))
        for a in (0.0, 2.0):
            n = sn.window_seminorm(mu, a).upper
            for h in (1e-9, -1e-9):
                assert abs(sn.window_seminorm(mu, a + h).upper - n) <= K * 1e-9 + 1e-15
            assert n <= r.upper

    def test_two_atoms_exactly_two_apart(self):
        # no window holds both inside: N peaks at |w| over each atom
        mu = me.make_measure([(0.0, 0.8), (2.0, -1.3)], (), (-2, 4))
        r = _check_exact(mu, (-1.5, 3.5))
        assert r.lower == pytest.approx(1.3, abs=1e-15)
        assert sn.window_seminorm(mu, 1.0).upper == 0.0

    def test_tied_levels(self):
        # levels 0, 1, 0, 1, 0: every median candidate appears twice
        mu = me.make_measure([(0.0, 1.0), (0.5, -1.0), (1.0, 1.0), (1.5, -1.0)], (), (-2, 4))
        r = _check_exact(mu, (-2.0, 4.0))
        assert r.lower == pytest.approx(1.0, abs=1e-15)

    def test_window_with_zero_net_mass(self):
        # a dipole: any window holding both atoms has phi = 0 off a length
        # 1/2 step of height 1, so N = 1/2 there and nowhere more
        mu = me.make_measure([(0.0, 1.0), (0.5, -1.0)], (), (-3, 3))
        r = _check_exact(mu, (-3.0, 3.0))
        assert r.lower == pytest.approx(0.5, abs=1e-15)

    def test_empty_cells(self):
        # atoms on the interval ends are never inside a window: N = 0
        mu = me.make_measure([(-3.0, 1.0), (3.0, -2.0)], (), (-3, 3))
        r = sn.interval_seminorm(mu, (-3.0, 3.0))
        assert (r.lower, r.upper, r.certificate.error_bound) == (0.0, 0.0, 0.0)
        # far-apart atoms leave empty cells between them
        mu = me.make_measure([(0.0, 0.6), (5.0, -0.9)], (), (-2, 7))
        r = _check_exact(mu, (-2.0, 7.0))
        assert r.lower == pytest.approx(0.9, abs=1e-15)
        assert sn.window_seminorm(mu, 2.5).upper == 0.0


# ---------------------------------------------------------------------------
# the batched staircase kernel against the per-cell form it replaced


def _staircase_max(xs, ws, a1, a2):
    """(max, argmax) of N(a) over one exact cell, one level at a time."""
    m = 0.5 * (a1 + a2)
    i0, i1 = bisect_right(xs, m - 1.0), bisect_left(xs, m + 1.0)
    if i0 == i1:
        return 0.0, a1
    levels = [0.0]
    for w in ws[i0:i1]:
        levels.append(levels[-1] + w)
    gaps = [x1 - x0 for x0, x1 in zip(xs[i0:i1 - 1], xs[i0 + 1:i1])]
    inner = [sum(abs(v - c) * g for v, g in zip(levels[1:-1], gaps)) for c in levels]
    at_ends = []
    for a in (a1, a2):
        first = max(xs[i0] - (a - 1.0), 0.0)
        last = max(a + 1.0 - xs[i1 - 1], 0.0)
        at_ends.append([f + abs(levels[0] - c) * first + abs(levels[-1] - c) * last
                        for f, c in zip(inner, levels)])
    t, value = sn._envelope_max(*at_ends)
    return value, min(a1 + t * (a2 - a1), a2)


def _event_cells(xs, lo, hi):
    """The cells of a in [lo + 1, hi - 1] between events a +- 1 = atom."""
    events = sorted({lo + 1.0, hi - 1.0} | {a for x in xs for a in (x - 1.0, x + 1.0)
                                            if lo + 1.0 <= a <= hi - 1.0})
    return list(zip(events[:-1], events[1:]))


def _assert_matches_oracle(xs, ws, cells):
    got = sn._staircase_cells(xs, ws, cells)
    assert repr(got) == repr([_staircase_max(xs, ws, a1, a2) for a1, a2 in cells])


@st.composite
def staircase_cases(draw):
    """Atoms on (-4, 4): none, one, or up to 400 (K up to ~200 in a
    window), a dense cluster next to sparse ones so K is mixed within one
    call; positions on a grid of step 1/4 (atoms at a +- 1 on cell ends)
    or anywhere; weights +-1 (tied levels, zero-net windows) or any.  The
    cells are the event cells of an interval, at most 24 of them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([0, 1, 2, 5, 12, 40, 400]))
    spread = rng.uniform(-4.0, 4.0, n)
    cluster = rng.uniform(-0.5, 0.5, n) + draw(st.sampled_from([-2.0, 0.0, 1.75]))
    xs = np.where(rng.random(n) < 0.5, spread, cluster)
    xs = np.where(rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0])), np.round(4.0 * xs) / 4.0, xs)
    if draw(st.booleans()):
        ws = rng.choice([-1.0, 1.0], n)
    else:
        ws = rng.uniform(-1.5, 1.5, n)
    mu = me.make_measure(list(zip(xs.tolist(), ws.tolist())), (), (-4, 4))
    xs = [x for x, _ in mu.atoms]
    ws = [w.real for _, w in mu.atoms]
    lo = draw(st.sampled_from([-4.0, -3.0, -2.75]))
    cells = _event_cells(xs, lo, draw(st.sampled_from([4.0, 2.5, lo + 2.5])))
    if len(cells) > 24:
        cells = [cells[k] for k in sorted(rng.choice(len(cells), 24, replace=False))]
    return xs, ws, cells


@settings(max_examples=60, deadline=None, derandomize=True)
@given(staircase_cases())
def test_staircase_cells_match_the_per_cell_form(case):
    _assert_matches_oracle(*case)


class TestStaircaseCells:
    def test_named_cells(self):
        # no atoms; one atom; atoms at a +- 1 on the cell ends; tied levels
        # 0, 1, 0, 1, 0; a dipole with zero net mass; a zero-length cell
        tied = ([0.0, 0.5, 1.0, 1.5], [1.0, -1.0, 1.0, -1.0])
        for xs, ws in (([], []), ([0.3], [0.8]), ([-1.0, 0.5, 1.0, 3.0], [0.7, -1.1, 0.4, 0.9]),
                       tied, ([0.0, 0.5], [1.0, -1.0])):
            cells = _event_cells(xs, -3.0, 4.0) + [(0.25, 0.25)]
            _assert_matches_oracle(xs, ws, cells)
        assert sn._staircase_cells([], [], [(0.0, 1.0)]) == [(0.0, 0.0)]
        assert sn._staircase_cells([0.0], [1.0], []) == []

    def test_blocks_split_cells(self, monkeypatch):
        # mixed K across block boundaries: blocks of one to three cells
        rng = np.random.default_rng(7)
        xs = sorted(np.concatenate([rng.uniform(-4, 4, 10), rng.uniform(0, 0.4, 30)]).tolist())
        ws = rng.uniform(-1, 1, 40).tolist()
        cells = _event_cells(xs, -4.0, 4.0)
        for block in (1, 40, 100):
            monkeypatch.setattr(sn, "_CELL_BLOCK", block)
            _assert_matches_oracle(xs, ws, cells)

    def test_dense_windows_stay_small(self):
        # 4,000 atoms on [0, 4]: K ~ 2,000 per window.  A (cell, level, gap)
        # block would take gigabytes; levels summed one gap at a time keep
        # the kernel to a few (cell, level) arrays.
        rng = np.random.default_rng(3)
        xs = np.sort(rng.uniform(0.0, 4.0, 4000)).tolist()
        ws = rng.uniform(-1.0, 1.0, 4000).tolist()
        cells = [c for c in _event_cells(xs, 0.0, 4.0) if 1.9 < c[0] < 2.1][:20]
        tracemalloc.start()
        try:
            got = sn._staircase_cells(xs, ws, cells)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cells) == 20
        assert peak <= 16 * 2**20, peak
        for k in (0, 19):
            assert repr(got[k]) == repr(_staircase_max(xs, ws, *cells[k]))


# ---------------------------------------------------------------------------
# invariances of the interval seminorm, exact on atom-only measures


@settings(max_examples=60, deadline=None, derandomize=True)
@given(atom_measures(), st.floats(-3.0, 3.0))
def test_interval_seminorm_translation_covariance(case, s):
    mu, (lo, hi) = case
    r = sn.interval_seminorm(mu, (lo, hi))
    t = sn.interval_seminorm(me.translate(mu, s), (lo - s, hi - s))
    eps = _eps(mu, (lo, hi))
    assert abs(t.lower - r.lower) <= eps and abs(t.upper - r.upper) <= eps


@settings(max_examples=60, deadline=None, derandomize=True)
@given(atom_measures(), st.floats(-4.0, 4.0))
def test_interval_seminorm_homogeneity(case, lam):
    mu, interval = case
    r = sn.interval_seminorm(mu, interval)
    scaled = me.make_measure([(x, lam * w) for x, w in mu.atoms], (), mu.window)
    t = sn.interval_seminorm(scaled, interval)
    eps = _eps(scaled, interval)
    assert abs(t.lower - abs(lam) * r.lower) <= eps
    assert abs(t.upper - abs(lam) * r.upper) <= eps


def test_complex_abs_pieces_do_not_overlap():
    # rho = 1 + i (t - 1) on (0, 4]: |Re rho| + |Im rho| comes as one piece
    # on each side of t = 1, so the oracle's sliding sup sees both parts
    mu = me.make_measure((), ((0.0, 4.0, (1 - 1j, 1j)),), (0, 4))
    pieces = me._abs_segments(mu)
    assert [(p.start, p.end) for p in pieces] == [(0.0, 1.0), (1.0, 4.0)]
    oracle = sn._PieceOracle([], pieces)
    assert oracle.mass(2.0, 4.0) == pytest.approx(2.0 + 4.0, rel=1e-14)
    assert oracle.sliding_sup(2.0, 4.0, 1.0) == pytest.approx(1.0 + 2.5, rel=1e-14)
