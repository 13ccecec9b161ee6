"""Window and interval seminorms.

`_bnb_interval_seminorm` is a copy of the branch-and-bound the event sweep
replaced, kept here only as the oracle: breakpoint candidates, then
refinement pruned by the global Lipschitz constant |mu|(I), the sliding
unit-mass bound and the sliding sup of |phi - c|.  `_staircase_max` is
the per-cell form of the exact staircase cells, with its own envelope walk
`_walk_one_cell`, kept as the oracle of the batched `_staircase_cells` and
`_envelope_walk`.
"""

import heapq
import math
import tracemalloc
from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakgordon import measure as me
from weakgordon import poly
from weakgordon import seminorm as sn
from weakgordon.errors import DomainError, ToleranceError

from conftest import random_affine_test_function, random_measure
from test_median import EDGE_CASES, measure_windows


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

    def test_zero_measure_takes_the_sweep(self):
        # the witness is the sweep's window at the first cell end, the one
        # cell is exact and the certificate's zeros are floats
        r = sn.interval_seminorm(me.zero_measure((-3, 3)), (-3, 3))
        cert = sn.SeminormCertificate(0.0, 0.0, 0.0)
        assert repr(r) == repr(sn.SeminormResult(0.0, 0.0, 0j, (-3.0, -1.0), cert,
                                                 sn.SeminormStats(exact_cells=1)))

    def test_short_interval_uses_own_length(self):
        # |I| < 2: same median formula on the shorter window
        mu = me.dirac(0.0, 1.0, (-2, 2))
        r = sn.interval_seminorm(mu, (-0.5, 0.5), tol=1e-9)
        # peak of an admissible tent inside [-0.5, 0.5] is 0.5
        assert r.upper == pytest.approx(0.5, abs=1e-12)

    def test_window_built_from_its_ends_is_one_window(self):
        # near 2**17, (a + 1) - (a - 1) rounds up to 2 + 3e-11: the interval
        # is still the one window at a, not a sweep (whose certificate holds
        # |mu|(I) as its Lipschitz constant)
        S = 2.0**17
        mu = me.make_measure([(S - 0.7, 0.6), (S + 0.2, -0.9), (S + 1.1, 0.5)],
                             ((S - 1.5, S + 1.5, (0.3, -0.2)),), (S - 4, S + 4))
        longer = 0
        for a in np.random.default_rng(1).uniform(S - 2.0, S + 2.0, 300).tolist():
            longer += (a + 1.0) - (a - 1.0) > 2.0
            r = sn.interval_seminorm(mu, (a - 1.0, a + 1.0))
            assert repr(r) == repr(sn.window_seminorm(mu, a))
        assert longer > 0

    def test_tol_must_be_positive(self):
        # NaN too: a `tol <= 0` test lets it by, and no node closes under it
        mu = me.dirac(0.0, 1.0, (-3, 3))
        for tol in (0.0, -1e-8, math.nan):
            with pytest.raises(DomainError, match="tol must be positive"):
                sn.interval_seminorm(mu, (-3, 3), tol=tol)

    def test_each_node_prunes_once(self, monkeypatch):
        # every refined node is bounded once, at its turn: no sliding-sup
        # query (the unit-mass or the |phi - c| prune) is asked twice
        mu = me.make_measure(
            [(-1.3, 0.6), (0.4, -0.9), (2.2, 0.5)],
            [(-2.0, 1.0, (0.3, -0.2, 0.1)), (1.5, 3.5, (-0.4,))],
            (-4, 5),
        )
        queries = []
        sliding_sup = me.SlidingMass.sliding_sup

        def spy(oracle, lo, hi, width):
            queries.append((oracle, lo, hi, width))
            return sliding_sup(oracle, lo, hi, width)

        monkeypatch.setattr(me.SlidingMass, "sliding_sup", spy)
        r = sn.interval_seminorm(mu, (-3.0, 4.0), tol=1e-6)
        assert queries and len(set(queries)) == len(queries)
        assert (r.lower, r.upper) == pytest.approx((0.8111991666666665, 0.8111998240693409),
                                                   abs=1e-15)

    def test_translation_bound(self, rng):
        # the assertion uses the achieved lower bound, so a coarse certified
        # gap keeps the test honest and fast
        for _ in range(25):
            mu = random_measure(rng, window=(-6, 6), max_atoms=6)
            h = float(rng.uniform(0.02, 0.95))
            nu = me.subtract(mu, me.translate(mu, h))
            r = sn.interval_seminorm(nu, (-6, 6 - h), tol=2e-2)
            assert r.lower <= 3 * h * me.norm_unif(mu) + 1e-10

    def test_masses_round_relative_to_the_interval(self):
        # rho = 2.3 + 0.7 (t - 0.1)^3 on (0.1, 50], |mu| about 1.1e6 there,
        # against |mu|((0.1, 3.3]) = 7.36 + 0.175 * 3.2^4: the sweep of
        # I = (0.1, 3.3) sums the segment cut to I only, so its masses round
        # relative to |mu|(I), not to the mass of the whole segment
        mu = me.make_measure((), ((0.1, 50.0, (2.3, 0.0, 0.0, 0.7)),), (-60, 60))
        sweep = me.abs_mass(mu, 0.1, 3.3)
        assert sweep.mass(0.1, 3.3) == pytest.approx(25.71008, rel=1e-14)
        # the sup over a in [0.1, 2.3] of the mass of (a, a + 1] is at a = 2.3
        assert sweep.sliding_sup(0.1, 3.3, 1.0) == pytest.approx(
            2.3 + 0.175 * (3.2**4 - 2.2**4), rel=1e-14)
        r = sn.interval_seminorm(mu, (0.1, 3.3), tol=1e-3)
        assert r.certificate.lipschitz == pytest.approx(me.total_variation(mu, (0.1, 3.3)),
                                                        rel=1e-14)


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

    def test_is_the_mass_of_the_product(self, rng):
        # the integral of u against mu is the total mass of u mu; densities
        # of degree <= 2 keep the products cubic, so none is resampled
        for _ in range(30):
            mu = random_measure(rng, window=(-3, 3), max_segments=3, complex_weights=True,
                                density_degree=2)
            u = random_affine_test_function(rng, float(rng.uniform(-1.5, 1.5)))
            prod = me.multiply_lipschitz(mu, u)
            mass = (sum(w for _, w in prod.atoms)
                    + sum(s.integral_over(s.start, s.end) for s in prod.segments))
            assert abs(sn.test_functional(mu, u) - mass) <= 1e-12 * me.total_variation(prod)


class TestMedianProperties:
    def test_median_optimality(self, rng):
        for _ in range(8):
            mu = random_measure(rng, window=(-4, 4))
            res = sn.window_seminorm(mu, 0.0)
            pieces = sn._real_pieces(me.cumulative_pieces(mu, -1.0, 1.0))
            c_opt = complex(res.minimizer_c - sn._phi_offset(mu, -1.0)).real
            best = sn._l1(pieces, c_opt)
            for c in rng.uniform(-3, 3, 25):
                assert sn._l1(pieces, float(c)) >= best - 1e-11

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
                val = sn._l1(pieces, complex(c0) - off)
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
    pieces = [p for p in me._abs_segments(mu.segments) if p.end > lo and p.start < hi]
    abs_oracle = me.SlidingMass(atoms, pieces)
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
            slide_oracles[c] = me.SlidingMass([], sn._l1_pieces(mu, c, lo, hi))
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
    vlo, vup, *_ = evaluate(best_a)
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


def _walk_one_cell(A, B):
    """(t, value, vertices passed) maximising min_k (A[k] + t (B[k] - A[k]))
    over t in [0, 1], one cell at a time: walk the vertices of the concave
    minimum to the right from t = 0 until the active slope is no longer
    positive."""
    slopes = [b - a for a, b in zip(A, B)]
    k = min(range(len(A)), key=A.__getitem__)
    t, vertices = 0.0, 0
    while slopes[k] > 0.0:
        # the first crossing to the right (at t itself on a tie), by the
        # flattest line among equal crossings; none: k stays minimal to t = 1
        crossings = [((A[j] - A[k]) / (slopes[k] - s), s, j)
                     for j, s in enumerate(slopes) if s < slopes[k]]
        tc, _, j = min(crossings, default=(1.0, 0.0, k))
        if tc >= 1.0:
            t = 1.0
            break
        t, k = max(t, tc), j
        vertices += 1
    return t, min(a + t * s for a, s in zip(A, slopes)), vertices


def _staircase_max(xs, ws, a1, a2):
    """(max, argmax, envelope vertices) of N(a) over one exact cell, one
    level at a time."""
    m = 0.5 * (a1 + a2)
    i0, i1 = bisect_right(xs, m - 1.0), bisect_left(xs, m + 1.0)
    if i0 == i1:
        return 0.0, a1, 0
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
    t, value, vertices = _walk_one_cell(*at_ends)
    return value, min(a1 + t * (a2 - a1), a2), vertices


def _event_cells(xs, lo, hi):
    """The cells of a in [lo + 1, hi - 1] between events a +- 1 = atom."""
    events = sorted({lo + 1.0, hi - 1.0} | {a for x in xs for a in (x - 1.0, x + 1.0)
                                            if lo + 1.0 <= a <= hi - 1.0})
    return list(zip(events[:-1], events[1:]))


def _assert_matches_oracle(xs, ws, cells):
    got, vertices = sn._staircase_cells(xs, ws, cells)
    want = [_staircase_max(xs, ws, a1, a2) for a1, a2 in cells]
    assert repr(got) == repr([w[:2] for w in want])
    assert vertices == sum(w[2] for w in want)


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


# (A, B, t, vertices passed) of named envelope walks
NAMED_WALKS = [
    # every slope positive: the lowest line stays lowest, up to t = 1
    ([1.0, 2.0, 3.0], [2.0, 4.0, 5.0], 1.0, 0),
    # a zero-slope level: the walk stops at the leftmost point of the plateau
    ([1.0, 2.0, 4.0], [3.0, 2.0, 5.0], 0.5, 1),
    # three lines cross at t = 1/2: the flattest is taken, no second step
    ([0.0, 0.5, 1.5, 9.0], [2.0, 1.5, 0.5, 9.0], 0.5, 1),
    # two equal lines cross the first at once: the first of them is taken
    ([0.0, 0.25, 0.25], [1.0, 0.25, 0.25], 0.25, 1),
    # two lowest lines at t = 0: from the first, a vertex at t = 0 itself
    ([0.0, 0.0, 1.0], [2.0, 1.0, 0.0], 0.5, 2),
    # three lines through (0.45, 0.7): the second crossing rounds to the
    # left of the first, and t stays where it is
    ([-0.15500000000000003, 0.38499999999999995, 0.88],
     [1.7449999999999999, 1.085, 0.48], 0.45000000000000007, 2),
]


class TestStaircaseCells:
    def test_named_cells(self):
        # no atoms; one atom; atoms at a +- 1 on the cell ends; tied levels
        # 0, 1, 0, 1, 0; a dipole with zero net mass; a zero-length cell
        tied = ([0.0, 0.5, 1.0, 1.5], [1.0, -1.0, 1.0, -1.0])
        for xs, ws in (([], []), ([0.3], [0.8]), ([-1.0, 0.5, 1.0, 3.0], [0.7, -1.1, 0.4, 0.9]),
                       tied, ([0.0, 0.5], [1.0, -1.0])):
            cells = _event_cells(xs, -3.0, 4.0) + [(0.25, 0.25)]
            _assert_matches_oracle(xs, ws, cells)
        assert sn._staircase_cells([], [], [(0.0, 1.0)]) == ([(0.0, 0.0)], 0)
        assert sn._staircase_cells([0.0], [1.0], []) == ([], 0)
        # cells that see no atom in one block with cells that see several
        xs, ws = [0.0, 0.25, 0.5, 3.0], [0.7, -1.1, 0.4, 0.9]
        _assert_matches_oracle(xs, ws, [(-0.5, -0.25), (1.6, 1.9), (5.5, 6.0), (-0.25, 0.0)])

    @pytest.mark.parametrize("A, B, t, vertices", NAMED_WALKS)
    def test_named_walks(self, A, B, t, vertices):
        want = _walk_one_cell(A, B)
        assert want[0] == t and want[2] == vertices
        got = sn._envelope_walk(np.array([A]), np.subtract([B], [A]))
        assert repr((got[0].item(), got[1].item(), got[2])) == repr(want)

    def test_named_walks_in_one_padded_block(self):
        # every named walk and a one-line cell as the rows of one block
        cases = [(A, B) for A, B, _, _ in NAMED_WALKS] + [([0.0], [0.0])]
        A = np.full((len(cases), max(len(a) for a, _ in cases)), np.inf)
        S = np.zeros_like(A)
        for r, (a, b) in enumerate(cases):
            A[r, :len(a)] = a
            S[r, :len(a)] = np.subtract(b, a)
        t, value, vertices = sn._envelope_walk(A, S)
        want = [_walk_one_cell(a, b) for a, b in cases]
        assert repr(list(zip(t.tolist(), value.tolist()))) == repr([w[:2] for w in want])
        assert vertices == sum(w[2] for w in want)

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
            got = sn._staircase_cells(xs, ws, cells)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cells) == 20
        assert peak <= 16 * 2**20, peak
        for k in (0, 19):
            assert repr(got[k]) == repr(_staircase_max(xs, ws, *cells[k])[:2])


# ---------------------------------------------------------------------------
# invariances of the interval seminorm, exact on atom-only measures


@settings(max_examples=60, deadline=None, derandomize=True)
@given(atom_measures(), st.floats(-3.0, 3.0))
# translated by 1, both atoms land on -1.0 and must merge into one
@example((me.make_measure([(0.0, -1.0), (1.1754943508222875e-38, -1.0)], (), (-3, 3)),
          (-3.0, 3.0)), 1.0)
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


def _overlap(r, lower, upper, eps):
    assert lower <= r.upper + eps and r.lower <= upper + eps, ((r.lower, r.upper), (lower, upper))


# on densities the brackets are certified to tol, not exact: they overlap

@settings(max_examples=40, deadline=None, derandomize=True)
@given(atom_measures(segments=True), st.floats(-3.0, 3.0))
def test_density_brackets_are_translation_covariant(case, s):
    mu, (lo, hi) = case
    r = sn.interval_seminorm(mu, (lo, hi), tol=1e-6)
    t = sn.interval_seminorm(me.translate(mu, s), (lo - s, hi - s), tol=1e-6)
    _overlap(r, t.lower, t.upper, 1e-12 * max(1.0, me.total_variation(mu, (lo, hi))))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(atom_measures(segments=True), st.sampled_from([1e-12, 2.0**-40, 1e-6, -3.0, 1e6, 1e12]))
def test_density_brackets_are_scale_covariant(case, lam):
    mu, interval = case
    r = sn.interval_seminorm(mu, interval, tol=1e-6)
    scaled = me.make_measure([(x, lam * w) for x, w in mu.atoms],
                             [(s.start, s.end, tuple(lam * c for c in s.coeffs))
                              for s in mu.segments], mu.window)
    t = sn.interval_seminorm(scaled, interval, tol=1e-6 * abs(lam))
    _overlap(r, t.lower / abs(lam), t.upper / abs(lam),
             1e-12 * max(1.0, me.total_variation(mu, interval)))


def test_complex_abs_pieces_do_not_overlap():
    # rho = 1 + i (t - 1) on (0, 4]: |Re rho| + |Im rho| comes as one piece
    # on each side of t = 1, so the oracle's sliding sup sees both parts
    mu = me.make_measure((), ((0.0, 4.0, (1 - 1j, 1j)),), (0, 4))
    pieces = me._abs_segments(mu.segments)
    assert [(p.start, p.end) for p in pieces] == [(0.0, 1.0), (1.0, 4.0)]
    oracle = me.SlidingMass([], pieces)
    assert oracle.mass(2.0, 4.0) == pytest.approx(2.0 + 4.0, rel=1e-14)
    assert oracle.sliding_sup(2.0, 4.0, 1.0) == pytest.approx(1.0 + 2.5, rel=1e-14)


# ---------------------------------------------------------------------------
# window values under the sliding unit-mass bound of the prune


def _check_unit_mass_bound(mu, wlo, whi):
    """The real N and the complex upper M on [wlo, whi] = [a - 1, a + 1] are
    at most sup_t |mu|((t, t + 1]) over the window, within 1e-12 relative:
    int |phi - phi(a)| over the window is at most
    int_0^1 |mu|((a - 1 + s, a + s]) ds, and the unit-mass prune of
    `interval_seminorm` relies on it."""
    upper = sn._window_value(mu, wlo, whi)[1]
    bound = me.abs_mass(mu, wlo, whi).sliding_sup(wlo, whi, 1.0)
    assert upper <= bound * (1.0 + 1e-12), (upper, bound)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(measure_windows())
def test_real_window_under_unit_mass_bound(case):
    _check_unit_mass_bound(*case)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(measure_windows(complex_=True))
def test_complex_window_under_unit_mass_bound(case):
    _check_unit_mass_bound(*case)


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_windows_under_unit_mass_bound(name):
    _check_unit_mass_bound(*EDGE_CASES[name])


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_test_functionals_under_the_window_value(name):
    # u vanishes at the ends of its support [a - 1, a + 1] and has slopes
    # <= 1, so |int u dmu| = |int u' (phi - c)| <= int |phi - c| for every c
    mu, wlo, whi = EDGE_CASES[name]
    a = 0.5 * (wlo + whi)
    bound = sn.window_seminorm(mu, a).upper + 1e-12 * max(1.0, me.total_variation(mu, (wlo, whi)))
    rng = np.random.default_rng(7)
    for _ in range(20):
        assert abs(sn.test_functional(mu, random_affine_test_function(rng, a))) <= bound


# ---------------------------------------------------------------------------
# translation covariance on the edge corpus


def _check_translation_covariance(mu, wlo, whi, tol=1e-6):
    """The brackets of mu(. + p) at a - p overlap those of mu at a within
    B = K delta + 1e-12 |mu|(I), for shifts p that take the window
    [wlo, whi] = [a - 1, a + 1] across, onto or next to +-2**17: to centre
    2**17, to lower end 2**17 and to upper end -2**17.  The brackets are
    the window bracket at a and, for real measures, the interval bracket
    over I = (wlo - 0.1, whi + 0.1).

    Translating rounds every position once and the window ends twice, so
    they move by delta <= 2 ulp(2**17 + 4) = 5.8e-11 relative to each other.
    Moving a window end by delta changes int |phi - c| by at most
    |mu|(I) delta, an atom by |w| delta, a segment end by sup |rho| delta
    on the segment and, through its mass, sup |rho| 2 delta on the rest of
    a window of length <= 2.2; N = min_c is as Lipschitz as each integral,
    and the interval value is a sup of window values.  So
    K = 4 |mu|(I) + 8 sum sup |rho| bounds the change with room, and
    1e-12 |mu|(I) covers the arithmetic.  A complex interval bracket over
    more than 2 cannot close yet (ROADMAP item 1), so complex measures
    compare windows only."""
    tv = me.total_variation(mu)
    K = 4.0 * tv + 8.0 * sum(poly.sup_abs_on(s.coeffs, 0.0, s.end - s.start)
                             for s in mu.segments)
    B = K * 2.0 * math.ulp(2.0**17 + 4.0) + 1e-12 * tv
    a = 0.5 * (wlo + whi)

    def brackets(nu, p):
        yield sn.window_seminorm(nu, a - p)
        if mu.is_real():
            yield sn.interval_seminorm(nu, (wlo - 0.1 - p, whi + 0.1 - p), tol)

    unmoved = list(brackets(mu, 0.0))
    for p in (a - 2.0**17, wlo - 2.0**17, whi + 2.0**17):
        for before, after in zip(unmoved, brackets(me.translate(mu, p), p)):
            _overlap(before, after.lower, after.upper, B)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(measure_windows())
def test_real_brackets_are_translation_covariant(case):
    _check_translation_covariance(*case)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(measure_windows(complex_=True))
def test_complex_brackets_are_translation_covariant(case):
    _check_translation_covariance(*case)


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_brackets_are_translation_covariant(name):
    _check_translation_covariance(*EDGE_CASES[name])


@pytest.mark.parametrize("mu, c", [
    (me.make_measure([(0.2, 0.5j)], (), (-2.0, 2.0)), 0.0),
    (me.make_measure([(0.2, 0.5)], [(-1.0, 1.0, (0.3, 0.1))], (-2.0, 2.0)), 0.5 + 1e-3j),
], ids=["complex-measure", "complex-constant"])
def test_raise_paths(mu, c):
    with pytest.raises(DomainError) as info:
        sn.sliding_l1_sup(mu, c, (-1.0, 1.0), 1.0)
    assert str(info.value) == "|phi - c| pieces need a real measure and constant"
