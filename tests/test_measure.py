import hashlib
import math
from bisect import bisect_left, bisect_right
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakgordon import measure as me
from weakgordon import measure_io
from weakgordon import poly
from weakgordon import propagator as pr
from weakgordon import seminorm as sn
from weakgordon.errors import (
    DomainError,
    ResourceError,
    ToleranceError,
    ValidationError,
)

import mollify_oracle as mo
from conftest import random_measure


class TestMakeMeasure:
    def test_dirac_representation(self):
        mu = me.make_measure([(0.0, 1.0 + 0j)], (), (-2, 2))
        assert mu.atoms == ((0.0, 1.0 + 0j),)

    def test_lebesgue_restriction(self):
        mu = me.make_measure((), ((-5.0, 5.0, (1.0,)),), (-5, 5))
        assert len(mu.segments) == 1

    def test_coincident_atoms_cancel(self):
        mu = me.make_measure([(1.0, 1.0), (1.0, -1.0)], (), (-2, 2))
        assert mu.atoms == ()

    def test_overlap_rejected(self):
        with pytest.raises(ValidationError):
            me.make_measure((), ((0.0, 2.0, (1.0,)), (1.0, 3.0, (1.0,))), (0, 3))

    def test_atom_outside_window_rejected(self):
        with pytest.raises(ValidationError):
            me.make_measure([(5.0, 1.0)], (), (-1, 1))

    def test_atoms_summing_past_float_range_rejected(self):
        # 0.0 and -0.0 are one position: the weights sum to infj
        big = 1.7976931348623157e308j
        with pytest.raises(ValidationError, match="non-finite weight"):
            me.make_measure([(0.0, big), (-0.0, big)], (), (-1, 1))

    def test_segments_summing_past_float_range_rejected(self):
        # an overlap within the slack of `segments_overlap` is summed
        big = (1.7976931348623157e308,)
        with pytest.raises(ValidationError, match="non-finite coefficient"):
            me.make_measure((), ((0.0, 1.0, big), (1.0 - 1e-16, 2.0, big)), (0, 2))


class TestPhi:
    def test_lebesgue(self):
        lam = me.lebesgue((-5, 5))
        assert me.phi(lam, 0.7) == pytest.approx(0.7, abs=1e-15)

    def test_two_atom_indicator(self):
        # phi of delta_eps - delta_{-eps} is 1 off [-eps, eps)
        eps = 0.25
        mu = me.make_measure([(eps, 1.0), (-eps, -1.0)], (), (-2, 2))
        for t, expect in [(-1.0, 1.0), (-0.25, 0.0), (0.0, 0.0), (0.2, 0.0), (0.25, 1.0), (1.5, 1.0)]:
            assert me.phi(mu, t) == expect

    def test_integer_comb_negative(self):
        comb = me.make_measure([(n, 1.0) for n in range(-3, 4)], (), (-3, 3))
        assert me.phi(comb, -0.5) == -1.0

    def test_outside_window(self):
        with pytest.raises(DomainError):
            me.phi(me.lebesgue((-1, 1)), 2.0)

    def test_cocycle(self, rng):
        for _ in range(20):
            mu = random_measure(rng)
            s, t = sorted(rng.uniform(-5.5, 5.5, 2))
            direct = me._mass(mu, s, t)
            assert me.phi(mu, t) - me.phi(mu, s) == pytest.approx(
                complex(direct), abs=1e-12
            )


class TestRestrictTranslateScale:
    def test_restrict_half_open(self):
        mu = me.make_measure([(0.0, 1.0), (2.0, 1.0)], (), (-1, 3))
        assert me.restrict(mu, (0.0, 1.0)).atoms == ()

    def test_translate_dirac(self):
        t = me.translate(me.dirac(0.0), 1.0)
        assert t.atoms[0][0] == -1.0

    def test_translate_lebesgue_invariant(self):
        lam = me.lebesgue((-5, 5))
        t = me.translate(lam, 2.0)
        assert t.segments[0].coeffs == (1.0 + 0j,)
        assert t.window == (-7.0, 3.0)

    def test_translate_merges_colliding_atoms(self):
        # 0 and the smallest normal double both land on -1.0: one atom of
        # weight -2, read as make_measure builds it by every later layer
        mu = me.make_measure([(0.0, -1.0), (1.1754943508222875e-38, -1.0)], (), (-3, 3))
        t = me.translate(mu, 1.0)
        ref = me.make_measure([(-1.0, -2.0)], (), (-4, 2))
        assert t.atoms == ((-1.0, -2.0 + 0j),) == ref.atoms
        assert sn.window_seminorm(t, -0.25).upper == 0.5
        T = pr.transfer_matrix(t, 0.5, -2.0, 0.0).entries
        assert T[1, 1] == -1.2409683025078424
        assert T.tobytes() == pr.transfer_matrix(ref, 0.5, -2.0, 0.0).entries.tobytes()

    def test_translate_carries_a_collapsing_segment_as_an_atom(self):
        # (0, 1e-17] lands on -0.5 twice over: its mass 1e-17 becomes an
        # atom at the new end, and the other segment keeps its bytes
        mu = me.make_measure([], [(0.0, 1e-17, (1.0,)), (0.2, 0.9, (1.0,))], (-1.5, 3))
        t = me.translate(mu, 0.5)
        assert t.atoms == ((-0.5, 1e-17 + 0j),)
        assert t.segments == (me.Segment(0.2 - 0.5, 0.9 - 0.5, (1.0 + 0j,)),)

    def test_scale_carries_a_collapsing_segment_as_an_atom(self):
        # (1.75, 1.75 + ulp] divided by 1.7 rounds to one point: an atom of
        # r times the segment's mass
        x1 = math.nextafter(1.75, 2.0)
        mu = me.make_measure([], [(0.5, 1.0, (1.0, 1.0)), (1.75, x1, (2.0,))], (0, 2))
        s = me.scale(mu, 1.7)
        assert s.atoms == ((x1 / 1.7, 1.7 * mu.segments[1].integral_over(1.75, x1)),)
        assert s.segments == me.scale(me.restrict(mu, (0.0, 1.0)), 1.7).segments

    def test_scale_dirac(self):
        s = me.scale(me.dirac(1.0), 2.0)
        assert s.atoms == ((0.5, 2.0 + 0j),)

    def test_scale_lebesgue(self):
        s = me.scale(me.lebesgue((0, 1)), 3.0)
        assert s.segments[0].coeffs == (9.0 + 0j,)
        assert s.window == (0.0, 1.0 / 3.0)

    def test_scale_identity(self, rng):
        mu = random_measure(rng)
        assert me.scale(mu, 1.0) == mu

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            me.scale(me.dirac(0.0), -1.0)

    @given(
        p=st.floats(-3, 3, allow_nan=False),
        q=st.floats(-3, 3, allow_nan=False),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_translate_composition(self, p, q, seed):
        mu = random_measure(np.random.default_rng(seed))
        lhs = me.translate(me.translate(mu, p), q)
        rhs = me.translate(mu, p + q)
        # positions agree exactly when (x - p) - q == x - (p + q) in floats;
        # compare with zero tolerance on the measure data, tiny on positions
        assert len(lhs.atoms) == len(rhs.atoms)
        for (x1, w1), (x2, w2) in zip(lhs.atoms, rhs.atoms):
            assert abs(x1 - x2) <= 1e-12 and w1 == w2

    @given(
        r=st.floats(0.25, 4.0, allow_nan=False),
        s=st.floats(0.25, 4.0, allow_nan=False),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_scale_composition(self, r, s, seed):
        mu = random_measure(np.random.default_rng(seed))
        lhs = me.scale(me.scale(mu, r), s)
        rhs = me.scale(mu, r * s)
        assert len(lhs.atoms) == len(rhs.atoms)
        for (x1, w1), (x2, w2) in zip(lhs.atoms, rhs.atoms):
            assert abs(x1 - x2) <= 1e-12 * max(1, abs(x1))
            assert abs(w1 - w2) <= 1e-12 * abs(w1)


class TestTotalVariation:
    def test_two_diracs(self):
        mu = me.make_measure([(0.0, 1.0), (1.0, -1.0)], (), (-1, 2))
        assert me.total_variation(mu, (-1, 2)) == 2.0

    def test_lebesgue(self):
        assert me.total_variation(me.lebesgue((-5, 5)), (0, 3)) == pytest.approx(3.0)

    def test_signed_density(self):
        mu = me.make_measure((), ((-1.0, 1.0, (-1.0, 1.0)),), (-1, 1))  # rho = t
        assert me.total_variation(mu, (-1, 1)) == pytest.approx(1.0, abs=1e-14)

    def test_additivity_half_open(self, rng):
        for _ in range(20):
            mu = random_measure(rng)
            a, m_, b = sorted(rng.uniform(-5.5, 5.5, 3))
            total = me.total_variation(mu, (a, b))
            split = me.total_variation(mu, (a, m_)) + me.total_variation(mu, (m_, b))
            assert total == pytest.approx(split, abs=1e-11)


class TestNormUnif:
    def test_integer_comb(self):
        comb = me.make_measure([(n, 1.0) for n in range(-10, 11)], (), (-10, 10))
        assert me.norm_unif(comb, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_lebesgue_any_r(self):
        lam = me.lebesgue((-5, 5))
        for r in (0.5, 1.0, 3.0):
            assert me.norm_unif(lam, r) == pytest.approx(1.0, abs=1e-14)

    def test_r_exceeds_window(self):
        with pytest.raises(DomainError):
            me.norm_unif(me.lebesgue((0, 1)), 2.0)

    def test_interior_max_of_density(self):
        # tent density peaking mid-window: the sup needs the interior critical point
        mu = me.make_measure(
            (), ((0.0, 1.0, (0.0, 1.0)), (1.0, 2.0, (1.0, -1.0))), (0, 2)
        )
        # mass of (a, a+1] maximal at a = 0.5: integral = 3/4
        assert me.norm_unif(mu, 1.0) == pytest.approx(0.75, abs=1e-13)

    def test_double_root_at_segment_midpoint(self):
        # -1.5 (x - L/2)^2 on (0, L]: root isolation misses the double root,
        # and the sign taken at the midpoint alone once made |rho| = rho,
        # so the norm came out 0; the best window is (0, 1]
        L = 1.7195994325385362
        mu = me.make_measure(
            (), ((0.0, L, (-1.108883328145071, 2.5793991488078043, -1.5)),), (0, 3)
        )
        r = 0.5 * L
        assert me.norm_unif(mu, 1.0) == pytest.approx(0.5 * ((1 - r) ** 3 + r**3), rel=1e-9)

    def test_complex_density_fallback(self):
        mu = me.make_measure((), ((0.0, 2.0, (1.0 + 1.0j,)),), (0, 2))
        assert me.norm_unif(mu, 1.0) == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_complex_interior_max_matches_real_modulus(self):
        # |rho| = sqrt(5) (x - x^2/2): the complex search must find the same
        # interior maximum as the exact real path, within its 1e-11 tolerance
        s5 = math.sqrt(5.0)
        cplx = me.make_measure([(0.3, 0.2j)], ((0.0, 2.0, (0, 2 + 1j, -1 - 0.5j)),), (0, 2))
        real = me.make_measure([(0.3, 0.2)], ((0.0, 2.0, (0, s5, -s5 / 2)),), (0, 2))
        assert me.norm_unif(cplx, 1.0) == pytest.approx(me.norm_unif(real, 1.0), abs=1e-10)

    def test_open_quadrature_at_panel_cap_raises(self, monkeypatch):
        # |rho| = sqrt((x - 1)^2 + 1e-12) bends on a 1e-6 scale at x = 1,
        # which the Gauss rule resolves only by bisecting towards it
        monkeypatch.setattr(poly, "MAX_PANELS", 3)
        mu = me.make_measure((), ((0.0, 2.0, (-1 + 1e-6j, 1)),), (0, 2))
        with pytest.raises(ToleranceError):
            me.norm_unif(mu, 1.0)


def _sliding_sup_oracle(sweep, lo, hi, width):
    """The per-candidate form of `SlidingMass.sliding_sup`: each candidate
    window, then each interior root, read through a cum of atoms and pieces
    together, four reads per candidate in sorted order."""
    width = min(width, hi - lo)
    xs, starts, ends, pieces = sweep._xs, sweep._starts, sweep._ends, sweep._pieces
    first, last = bisect_right(xs, lo), bisect_right(xs, hi)

    def cum(x, side=bisect_right):
        i = bisect_right(starts, x)
        total = sweep._piece_prefix[i]
        if i:
            p = pieces[i - 1]
            if x < p.end:
                total -= sweep._integral(p.coeffs, x - p.start, p.end - p.start)
        return sweep._atom_prefix[side(xs, x, first, last)] + total

    p0, p1 = bisect_right(ends, lo), bisect_left(starts, hi)
    a_lo, a_hi = lo, hi - width
    candidates = {a_lo, a_hi}
    for b in {lo, hi}.union(xs[first:last], starts[p0:p1], ends[p0:p1]):
        for a in (b, b - width):
            if a_lo - 1e-15 <= a <= a_hi + 1e-15:
                candidates.add(min(max(a, a_lo), a_hi))
    cand = sorted(candidates)
    best = 0.0
    for a in cand:
        best = max(best, cum(a + width) - cum(a))
        best = max(best, cum(a + width, bisect_left) - cum(a, bisect_left))
    if p1 > p0:
        def density_at(x):
            i = bisect_right(starts, x)
            if i > 0 and pieces[i - 1].start <= x <= pieces[i - 1].end:
                return pieces[i - 1].coeffs, pieces[i - 1].start
            return (0.0,), x

        f = poly.abs_sq if sweep._modulus else poly.to_real
        for a0, a1 in zip(cand[:-1], cand[1:]):
            if a1 - a0 <= 1e-14:
                continue
            mid = 0.5 * (a0 + a1)
            cl, ol = density_at(mid)
            cr, orr = density_at(mid + width)
            if len(poly.trim(cl)) == 1 and len(poly.trim(cr)) == 1:
                continue
            pl = poly.shift_origin(f(cl), a0 - ol)
            pr_ = poly.shift_origin(f(cr), a0 + width - orr)
            for root in poly.real_roots_in(poly.add(pr_, poly.negate(pl)), 0.0, a1 - a0):
                a = a0 + root
                best = max(best, cum(a + width) - cum(a))
    return best


@st.composite
def sliding_cases(draw):
    """A sweep on a span [lo, hi] of length 3.5 to 6, at 0 or shifted by
    2**17, and a width (the whole span among them).  Atoms: on lo, on hi,
    on lo + width and hi - width, on a quarter grid or anywhere, some of
    mass 0.  Pieces: none, nonnegative real ones (`poly.abs_pieces`), or
    complex densities whose modulus is integrated, some of them humps."""
    shift = draw(st.sampled_from([0.0, 2.0**17]))
    lo = shift + draw(st.sampled_from([-3.0, -2.5]))
    hi = shift + draw(st.sampled_from([1.0, 2.0, 3.0]))
    width = draw(st.sampled_from([0.5, 1.0, 2.0, hi - lo]))
    spots = [lo, hi, lo + width, hi - width]
    place = st.one_of(st.sampled_from(spots), st.integers(0, 4 * int(hi - lo)).map(
        lambda k: lo + 0.25 * k), st.floats(lo, hi))
    masses = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
    atoms = sorted(dict(draw(st.lists(st.tuples(place, masses), max_size=8))).items())
    kind = draw(st.sampled_from(["atoms", "real", "complex"]))
    cuts = sorted(set(draw(st.lists(st.sampled_from(spots + [lo + 1.0, lo + 1.5, hi - 0.75]),
                                    min_size=2, max_size=5))))
    pieces = []
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        if kind == "atoms" or not draw(st.booleans()):
            continue
        deg = draw(st.integers(0, 3))
        re = tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=deg + 1, max_size=deg + 1)))
        if draw(st.booleans()):
            # a hump x (L - x): the sup of a narrower window is interior
            re = (0.0, t1 - t0, -1.0)
        if kind == "real":
            pieces.extend(poly.abs_pieces(re, t0, t1))
        else:
            im = draw(st.lists(st.floats(-1.0, 1.0), min_size=deg + 1, max_size=deg + 1))
            pieces.append(me.Segment(t0, t1, tuple(complex(a, b) for a, b in zip(re, im))))
    return me.SlidingMass(atoms, pieces, modulus=kind == "complex"), lo, hi, width


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sliding_cases())
# atoms where a density starts and one width on: the sup, 2, is the limit
# window [-2, -1), which only the reads that leave out an atom on a window
# end find; (-2, -1] holds 1.5 and the closed [-2, -1] would hold 2.5
@example((me.SlidingMass([(-2.0, 1.0), (-1.0, 0.5)], [poly.Piece(-2.0, 1.0, (1.0,))]),
          -3.0, 1.0, 1.0))
def test_sliding_sup_matches_the_per_candidate_form(case):
    sweep, lo, hi, width = case
    assert repr(sweep.sliding_sup(lo, hi, width)) == repr(_sliding_sup_oracle(sweep, lo, hi, width))
    with pytest.raises(DomainError, match="exceeds window span"):
        sweep.sliding_sup(lo, hi, 1.01 * (hi - lo))


class TestNormUnifMemo:
    @pytest.fixture
    def sweeps(self, monkeypatch):
        calls = []
        sweep = me.SlidingMass.sliding_sup

        def counted(oracle, lo, hi, width):
            calls.append(width)
            return sweep(oracle, lo, hi, width)

        monkeypatch.setattr(me.SlidingMass, "sliding_sup", counted)
        return calls

    def test_one_sweep_per_measure_and_r(self, rng, sweeps):
        mu = random_measure(rng, window=(-6, 6), density_degree=2)
        for x in np.linspace(-5.0, 5.0, 21):
            pr.gronwall_bound(mu, x, 1.0)
            pr.sharp_growth_bound(mu, x, 1.0, 0.5)
        assert sweeps == [1.0]
        value = me.norm_unif(mu, 2.0)
        assert sweeps == [1.0, 2.0]
        assert me.norm_unif(mu, 2.0) == value and len(sweeps) == 2
        twin = me.make_measure(mu.atoms, mu.segments, mu.window)
        assert twin == mu and twin is not mu
        assert me.norm_unif(twin) == me.norm_unif(mu)
        assert sweeps == [1.0, 2.0, 1.0]

    def test_new_measures_sweep_afresh(self, sweeps):
        mu = me.make_measure([(0.5, 2.0)], ((-2.0, 1.0, (0.25, 0.1)),), (-3, 3))
        first = me.norm_unif(mu)
        shifted = pr.spectral_shift(mu, 1.5 - 2j)
        moved = me.translate(mu, 0.75)
        for new in (shifted, moved):
            fresh = me.make_measure(new.atoms, new.segments, new.window)
            assert me.norm_unif(new) == me.norm_unif(fresh)
        assert me.norm_unif(shifted) != first
        assert len(sweeps) == 5


class TestMollify:
    def test_dirac_returns_kernel(self):
        n = 8
        mol = me.mollify(me.dirac(0.0, 1.0, (-1, 1)), n)
        c = 35.0 / 32.0
        for x in np.linspace(-1 / n + 1e-9, 1 / n - 1e-9, 17):
            got = sum(
                s.density_at(x) for s in mol.segments if s.start < x <= s.end
            )
            assert abs(got - n * c * (1 - (n * x) ** 2) ** 3) < 1e-6

    def test_zero(self):
        assert me.mollify(me.zero_measure((-1, 1)), 4).is_zero()

    def test_unif_contraction(self, rng):
        for _ in range(5):
            mu = random_measure(rng, window=(-4, 4), max_atoms=4)
            for n in (4, 16):
                mol, err = me.mollify_with_error(mu, n)
                assert me.norm_unif(mol) <= me.norm_unif(mu) + err + 1e-12

    def test_mass_control(self, rng):
        # |mollify(mu, n)|(I) <= |mu|(I enlarged by 2/n)
        for _ in range(5):
            mu = random_measure(rng, window=(-4, 4))
            for n in (8, 32):
                mol, err = me.mollify_with_error(mu, n)
                a, b = sorted(rng.uniform(-3.5, 3.5, 2))
                if b - a < 0.2:
                    continue
                lhs = me.total_variation(mol, (max(a, mol.lo), min(b, mol.hi)))
                rhs = me.total_variation(mu, (a - 2.0 / n, b + 2.0 / n))
                assert lhs <= rhs + err * (b - a) + 1e-10

    def test_margin_error(self):
        with pytest.raises(DomainError):
            me.mollify(me.dirac(0.0, 1.0, (-0.1, 0.1)), 4)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_sup_error_bound_holds(self, rng, n):
        # the Hermite density within err (plus rounding) of the exact psi_n * mu
        for k in range(4):
            mu = random_measure(rng, window=(-4, 4), max_atoms=4, complex_weights=k % 2 == 1,
                                density_degree=3)
            mol, err = me.mollify_with_error(mu, n)
            rounding = 1e-12 * n * me.total_variation(mu)
            for s in mol.segments:
                for frac in (0.25, 0.5, 0.75):
                    x = s.start + frac * (s.end - s.start)
                    exact, _ = mo.value_and_slope(mu, n, x)
                    assert abs(s.density_at(x) - exact) <= err + rounding

    @pytest.mark.parametrize("shift", [0.0, 2.0**17])
    def test_cuts_that_round_apart_leave_no_gap(self, shift):
        # at n = 3 the cuts a + 1/3 and (a + 2/3) - 1/3 round apart (by
        # 5.6e-17 at 0 and 2.9e-11 at 2**17); the atom at a + 0.3 keeps the
        # density nonzero between them, so neither a gap nor a cell that
        # short, with coefficients up to 2.4e15, may appear
        a = shift + 0.1
        mu = me.make_measure([(a, 1.0), (a + 0.3, 0.25), (a + 2 / 3, -0.5)], (),
                             (a - 2.0, a + 3.0))
        segs = me.mollify(mu, 3).segments
        assert all(p.end == q.start for p, q in zip(segs, segs[1:]))
        assert min(s.end - s.start for s in segs) > 1e-3
        assert max(abs(c) for s in segs for c in s.coeffs) < 1e3

    def test_bytes_are_pinned(self, tmp_path):
        mu = me.make_measure(
            [(-0.7, 0.6), (0.25, -0.4 + 0.3j), (0.25 + 1 / 64, 0.2)],
            [(-1.5, -0.3, (0.5, -0.25, 0.125, -0.0625)), (0.1, 1.3, (0.2j, 0.3))],
            (-3.0, 3.0))
        path = tmp_path / "mollified.json"
        measure_io.dump_measure(me.mollify(mu, 64), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "00e8cb49c842ea849fad049ba5e8855bc466128011a32d831043776dc562ef4d")


def _hexes(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def _segment_hexes(segments):
    return [(s.start.hex(), s.end.hex(), [_hexes(c) for c in s.coeffs]) for s in segments]


@st.composite
def mollify_cases(draw):
    """A measure on (-4, 4), at 0 or shifted by 2**17, and an order n.
    Atoms anywhere, on a quarter grid, or 1/(2n), 1/n or 2/n from another
    atom or a segment end, so on or near cuts (cell edges, which are nodes);
    segments of degree 0 to 3 with ends anywhere or 1/(2n) or 1/n from an
    atom, inside or on the edge of its kernel zone.  Weights and densities
    are real or complex, some parts signed zeros."""
    n = draw(st.sampled_from([1, 2, 3, 7, 64]))
    shift = draw(st.sampled_from([0.0, 2.0**17]))
    complex_ = draw(st.booleans())
    half = 1.0 / n
    part = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-2.0, 2.0))

    def value():
        return complex(draw(part), draw(part) if complex_ else 0.0)

    steps = [0.0, 0.5 * half, half, -half, 2.0 * half]
    atoms, segments, marks = [], [], [draw(st.floats(-1.5, 1.5))]
    for lo, hi in ((-1.9, -0.05), (0.05, 1.9)):
        if draw(st.booleans()):
            near = st.tuples(st.sampled_from(marks), st.sampled_from(steps)).map(sum)
            a, b = sorted(min(max(draw(st.one_of(st.floats(lo, hi), near)), lo), hi)
                          for _ in range(2))
            if b - a > 1e-3:
                segments.append((a, b, tuple(value() for _ in range(draw(st.integers(1, 4))))))
                marks += [a, b]
    for _ in range(draw(st.integers(0, 4))):
        p = draw(st.one_of(st.floats(-1.8, 1.8), st.integers(-7, 7).map(lambda k: 0.25 * k),
                           st.tuples(st.sampled_from(marks), st.sampled_from(steps)).map(sum)))
        if -1.8 <= p <= 1.8:
            atoms.append((p, value()))
            marks.append(p)
    mu = me.make_measure([(p + shift, w) for p, w in atoms],
                         [(a + shift, b + shift, c) for a, b, c in segments],
                         (shift - 4.0, shift + 4.0))
    return mu, n


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mollify_cases())
def test_mollify_matches_the_scalar_sum(case):
    # the node pass against the per-node sum it replaced (tests/mollify_oracle.py):
    # every node's (f, f'), every segment and err have the same bits
    mu, n = case
    mol, err = me.mollify_with_error(mu, n)
    ref, ref_err, cells = mo.mollify_with_error(mu, n)
    assert err.hex() == ref_err.hex()
    assert _segment_hexes(mol.segments) == _segment_hexes(ref.segments)
    # and at the nodes themselves: the cells', and points on and next to the
    # atoms, the segment ends and the edges of their kernel zones
    half, kernels = 1.0 / n, me._kernels(n)
    points = [x + d for x in mu.breakpoints() for d in (0.0, -half, half)]
    points += [math.nextafter(x, s) for x in points for s in (-math.inf, math.inf)]
    points = np.array(sorted(x for x in set(points) if mol.lo <= x <= mol.hi))
    if len(points):
        cells.append((points, [mo.value_and_slope(mu, n, t) for t in points.tolist()]))
    for x, values in cells:
        f, df = me._mollified_nodes(mu, half, kernels, x)
        assert list(zip(map(_hexes, f), map(_hexes, df))) == [
            (_hexes(v), _hexes(d)) for v, d in values]


_PART = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([-1.5, 0.0, 2.0**17]),
       st.lists(st.tuples(st.floats(1e-3, 2.0), _PART, _PART, _PART, _PART), min_size=2, max_size=6))
def test_hermite_segments_match_the_scalar_cubic(x0, rows):
    # signed zeros included: the coefficients are written to measure files
    x = np.array(list(accumulate((r[0] for r in rows), initial=x0))[1:])
    f, df = (np.array([complex(r[k], r[k + 1]) for r in rows]) for k in (1, 3))
    assert _segment_hexes(me._hermite_segments(x, f, df)) == _segment_hexes(
        mo.hermite_segments(x, f, df))


class TestMultiplyLipschitz:
    def test_identity_plateau(self, rng):
        mu = random_measure(rng, window=(-4, 4))
        psi = me.PiecewiseAffine((-4.0, 4.0), (1.0, 1.0))
        out = me.multiply_lipschitz(mu, psi)
        assert out.atoms == mu.atoms
        for s1, s2 in zip(out.segments, mu.segments):
            assert s1.start == pytest.approx(s2.start)
            ref = np.linspace(s1.start, s1.end, 5)[1:-1]
            assert np.allclose(
                [s1.density_at(x) for x in ref], [s2.density_at(x) for x in ref]
            )

    def test_tent_on_dirac(self):
        mu = me.dirac(0.0, 1.0, (-2, 2))
        psi = me.PiecewiseAffine((-1.0, 0.0, 1.0), (0.0, 1.0, 0.0))
        assert me.multiply_lipschitz(mu, psi).atoms == ((0.0, 1.0 + 0j),)

    def test_numpy_breakpoints_give_python_scalars(self):
        # a psi built from NumPy scalars computes in Python scalars, so the
        # product holds no np.float64 end or np.complex128 weight
        mu = me.make_measure([(0.0, 1.0)], [(-0.5, 0.5, (0.5, 0.25))], (-2, 2))
        psi = me.PiecewiseAffine(tuple(np.array([-1.0, 0.0, 1.0])),
                                 (np.float64(0.0), np.complex128(1.0 + 0.5j), np.float32(0.0)))
        assert list(map(type, psi.xs + psi.ys)) == [float] * 4 + [complex, float]
        out = me.multiply_lipschitz(mu, psi)
        assert [tuple(map(type, a)) for a in out.atoms] == [(float, complex)]
        assert {type(v) for s in out.segments for v in (s.start, s.end)} == {float}
        assert {type(c) for s in out.segments for c in s.coeffs} == {complex}

    def test_degree_bump_resampled(self):
        # cubic density times a genuine slope: degree 4 product gets resampled
        mu = me.make_measure((), ((0.0, 1.0, (0.0, 0.0, 0.0, 1.0)),), (-1, 2))
        psi = me.PiecewiseAffine((-1.0, 2.0), (0.0, 3.0))
        out = me.multiply_lipschitz(mu, psi)
        x = 0.625
        truth = (x**3) * (1.0 + x)
        got = sum(s.density_at(x) for s in out.segments if s.start < x <= s.end)
        assert abs(got - truth) < 1e-10


    def test_resampled_pieces_tile_their_cell(self, monkeypatch):
        # the last Hermite piece ends at b itself: a + (b - a) * n / n misses
        # b by an ulp in some cells, and the products of adjacent cubics then
        # overlapped (summed by the overlay) or left a gap
        rng = np.random.default_rng(8)
        missed = 0
        for _ in range(200):
            a = float(rng.uniform(-3.0, 3.0))
            b = a + float(rng.uniform(0.01, 2.0))
            pieces = me._cubic_resample(a, b, tuple(complex(v) for v in rng.uniform(-1, 1, 5)))
            n = len(pieces)
            missed += a + (b - a) * n / n != b
            assert pieces[0].start == a and pieces[-1].end == b
            assert all(p.end == q.start for p, q in zip(pieces, pieces[1:]))
        assert missed
        monkeypatch.setattr(me, "_overlay_segments", None)  # canonical input skips it
        for _ in range(20):
            ends = np.sort(rng.uniform(-1.0, 1.0, 4)).tolist()
            segs = [(x0, x1, tuple(rng.uniform(-1, 1, 4))) for x0, x1 in zip(ends, ends[1:])]
            out = me.multiply_lipschitz(me.make_measure((), segs, (-1, 1)),
                                        me.PiecewiseAffine((-1.0, 1.0), (0.5, 3.0)))
            assert [s.start for s in out.segments][1:] == [s.end for s in out.segments][:-1]


def overlay_segments_scan(segments):
    """The former overlay: a scan of every segment for every cell."""
    segments = [s for s in segments if any(s.coeffs)]
    ordered = sorted(segments, key=lambda s: s.start)
    if all(p.end <= q.start for p, q in zip(ordered, ordered[1:])):
        return tuple(ordered)
    cuts = sorted({s.start for s in segments} | {s.end for s in segments})
    out = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        total = None
        for s in segments:
            if s.start <= a and b <= s.end:
                c = poly.shift_origin(s.coeffs, a - s.start)
                total = c if total is None else poly.add(total, c)
        if total is not None and any(v != 0 for v in total):
            out.append(me.Segment(a, b, poly.trim(total)))
    return tuple(out)


@st.composite
def overlapping_segments(draw):
    """Segments with shared, nested and chained ends, zero and cancelling
    pieces and up to four layers, in any order."""
    ends = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0]), st.floats(-1.0, 1.0))
    coeff = st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-2.0, 2.0),
                      st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
    segs = []
    for _ in range(draw(st.integers(1, 8))):
        a, b = sorted((draw(ends), draw(ends)))
        if b > a:
            coeffs = tuple(draw(st.lists(coeff, min_size=1, max_size=4)))
            segs.append(me.Segment(a, b, coeffs))
            if draw(st.integers(0, 4)) == 0:
                segs.append(me.Segment(a, b, poly.negate(coeffs)))
    return segs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(overlapping_segments())
def test_overlay_sweep_matches_the_scan(segments):
    assert repr(me._overlay_segments(segments)) == repr(overlay_segments_scan(segments))


class TestPeriodic:
    def test_materialize_dirac_comb(self):
        P = me.PeriodicMeasure(me.make_measure([(0.0, 1.0)], (), (0, 1)), 1.0)
        mat = me.materialize_periodic(P, (-2.5, 2.5))
        assert [x for x, _ in mat.atoms] == [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_materialize_lebesgue(self):
        P = me.PeriodicMeasure(me.make_measure((), ((0.0, 1.0, (1.0,)),), (0, 1)), 1.0)
        mat = me.materialize_periodic(P, (-3, 3))
        assert me.total_variation(mat, (-3, 3)) == pytest.approx(6.0, abs=1e-12)
        xs = np.linspace(-2.9, 2.9, 23)
        for x in xs:
            d = sum(s.density_at(x) for s in mat.segments if s.start < x <= s.end)
            assert d == pytest.approx(1.0, abs=1e-13)

    def test_period_shift_invariance(self, rng):
        p = 2.0
        base = me.make_measure([(0.5, 1.0), (1.25, -0.5)], (), (0, p))
        P = me.PeriodicMeasure(base, p)
        mat = me.materialize_periodic(P, (0.0, 3 * p))
        shifted = me.translate(mat, p)
        inner = (0.0, 2 * p)
        d = me.subtract(me.restrict(mat, inner), me.restrict(shifted, inner))
        assert not d.atoms and not d.segments

    def test_fold_round_trip(self, rng):
        P = me.PeriodicMeasure(me.make_measure([(0.25, 1.0)], (), (0, 1)), 1.0)
        mat = me.materialize_periodic(P, (-2, 2))
        F = me.fold_into_period(me.restrict(mat, (0.0, 1.0)), 1.0)
        assert F.base.atoms == ((0.25, 1.0 + 0j),)


def test_slack_overlap_reads_as_one_density():
    # make_measure accepts an overlap of one ulp and stores the sum there;
    # the primitive and the propagation walk read the same density 3
    mu = me.make_measure([], [(0, 1.0000000000000002, (1,)), (1, 2, (2,))], (-1, 3))
    assert [(s.start, s.end, s.coeffs) for s in mu.segments] == [
        (0.0, 1.0, (1,)), (1.0, 1.0000000000000002, (3,)), (1.0000000000000002, 2.0, (2,))]
    slopes = {t0: coeffs[1] if len(coeffs) > 1 else 0j
              for t0, _, coeffs in me.cumulative_pieces(mu, -1.0, 3.0)}
    pieces = sorted(slopes)
    factors, _, marks, _ = pr._walk(mu, 0.0, -1.0, 3.0, 1e-8)
    assert len(factors) == len(slopes) == 5 and not marks
    for F, x0, x1 in zip(factors, pieces, pieces[1:] + [3.0]):
        assert F == pr._const_factor(slopes[x0], x1 - x0)
    assert slopes[1.0] == 3


def _constructed_measures(seed):
    """One measure from each LocalMeasure constructor, built from atoms
    given out of order, and a translate whose atoms collide."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-3.5, 3.5, 12)
    atoms = [(float(x), float(w)) for x, w in zip(xs, rng.uniform(-1.0, 1.0, 12))]
    mu = me.make_measure(atoms[::-1], ((-1.0, 0.5, (0.3, -0.2)),), (-4, 4))
    nu = me.make_measure(atoms[::2] + [(0.7, 0.4), (-2.2, -0.9)], (), (-4, 4))
    psi = me.PiecewiseAffine((-3.0, -1.0, 2.0), (0.0, 1.0, 0.0))
    P = me.PeriodicMeasure(me.make_measure([(1.5, 1.0), (0.25, -0.5), (1.0, 0.2)], (), (0, 2)), 2.0)
    return {
        "make_measure": mu,
        "restrict": me.restrict(mu, (-2.0, 3.0)),
        "translate": me.translate(mu, 1.3),
        "colliding translate": me.translate(
            me.make_measure([(0.0, -1.0), (1.1754943508222875e-38, -1.0), (2.0, 0.5)], (), (-3, 3)),
            1.0),
        "scale": me.scale(mu, 0.7),
        "negate": me.negate(mu),
        "add_measures": me.add_measures(mu, nu),
        "multiply_lipschitz": me.multiply_lipschitz(mu, psi),
        "materialize_periodic": me.materialize_periodic(P, (-5.0, 5.0)),
        "fold_into_period": me.fold_into_period(mu, 1.5).base,
        "mollify": me.mollify(mu, 4),
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_constructors_sort_atoms_by_position(seed):
    # every operation returns the canonical form, which atoms_in and
    # segments_meeting search by bisection
    for name, m in _constructed_measures(seed).items():
        xs = [x for x, _ in m.atoms]
        assert all(x < y for x, y in zip(xs, xs[1:])), name
        assert all(w != 0 for _, w in m.atoms), name
        assert all(any(s.coeffs) for s in m.segments), name
        assert all(s.end <= t.start for s, t in zip(m.segments, m.segments[1:])), name
        assert name == "mollify" or xs, name


_UNIT = me.dirac(0.5, 1.0, (0.0, 1.0))
_COMB = me.make_measure([(0.0, 1.0)], (), (0.0, 1.0))


@pytest.mark.parametrize("call, error, message", [
    (lambda: me.Segment(1.0, 1.0, (1.0,)), ValidationError, "segment [1.0, 1.0] is empty"),
    (lambda: me.Segment(0.0, 1.0, (1.0,) * 5), ValidationError,
     "segment degree 4 exceeds cap 3"),
    (lambda: me.make_measure(), ValidationError, "window is required"),
    (lambda: me.make_measure((), (), (1, 1)), ValidationError, "invalid window [1.0, 1.0]"),
    (lambda: me.make_measure([(math.nan, 1.0)], (), (0, 1)), ValidationError,
     "atom with non-finite position or weight"),
    (lambda: me.make_measure((), [(0.0, 2.0, (1.0,))], (0, 1)), ValidationError,
     "segment [0.0, 2.0] outside window [0.0, 1.0]"),
    (lambda: me.make_measure((), [(0.0, 1.0, (math.inf,))], (0, 1)), ValidationError,
     "segment with non-finite coefficient"),
    (lambda: me.add_measures(_UNIT, me.translate(_UNIT, -2.0)), DomainError,
     "measure windows do not overlap"),
    (lambda: me.norm_unif(_UNIT, 0.0), DomainError, "r must be positive, got 0.0"),
    (lambda: me.PiecewiseAffine((0.0,), (1.0,)), ValidationError,
     "need matching xs/ys with at least two points"),
    (lambda: me.PiecewiseAffine((0.0, 0.0), (1.0, 1.0)), ValidationError,
     "breakpoints must be strictly increasing"),
    (lambda: me.mollify_with_error(_UNIT, 0), DomainError,
     "mollification order must be a positive integer, got 0"),
    (lambda: me.PeriodicMeasure(_COMB, 0.0), ValidationError, "period must be positive, got 0.0"),
    (lambda: me.PeriodicMeasure(me.lebesgue((0.0, 1.0)), 0.5), ValidationError,
     "base segment [0.0, 1.0] outside [0, 0.5]"),
    (lambda: me.materialize_periodic(me.PeriodicMeasure(_COMB, 1.0), (1.0, 1.0)), DomainError,
     "invalid window (1.0, 1.0)"),
    (lambda: me.materialize_periodic(me.PeriodicMeasure(me.dirac(0.0, 1.0, (0.0, 1e-5)), 1e-5),
                                     (-1.0, 1.0)), ResourceError,
     "window (-1.0, 1.0) needs 2e+05 shifts of period 1e-05 with 1 atoms and segments each, "
     "budget 200000"),
    # (1 - 0) / 5e-324 is past the float range
    (lambda: me.materialize_periodic(me.PeriodicMeasure(me.dirac(0.0, 1.0, (0.0, 5e-324)), 5e-324),
                                     (0.0, 1.0)), ResourceError,
     "window (0.0, 1.0) needs inf shifts of period 5e-324 with 1 atoms and segments each, "
     "budget 200000"),
    # an empty base still walks every shift
    (lambda: me.materialize_periodic(me.PeriodicMeasure(me.zero_measure((0.0, 1e-6)), 1e-6),
                                     (0.0, 1.0)), ResourceError,
     "window (0.0, 1.0) needs 1e+06 shifts of period 1e-06 with 0 atoms and segments each, "
     "budget 200000"),
    (lambda: me.fold_into_period(_UNIT, -1.0), DomainError, "period must be positive, got -1.0"),
], ids=["segment-empty", "segment-degree", "no-window", "empty-window", "atom-nan",
        "segment-outside", "segment-inf", "disjoint-windows", "norm-unif-r", "affine-one-point",
        "affine-unsorted", "mollify-order", "period-zero", "base-segment-outside",
        "materialize-empty-window", "materialize-budget", "materialize-subnormal-period",
        "materialize-empty-base", "fold-period"])
def test_raise_paths(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_resample_cell_count():
    # t^3 times a ramp takes 500 Hermite cells; by the Chebyshev bound no
    # degree-4 piece takes more than 1,682 (`measure._cubic_resample`)
    mu = me.make_measure((), [(0.0, 1.0, (0.0, 0.0, 0.0, 1.0))], (0.0, 1.0))
    ramp = me.PiecewiseAffine((0.0, 1.0), (0.0, 1.0))
    assert len(me.multiply_lipschitz(mu, ramp).segments) == 500
