import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakgordon import measure as me
from weakgordon import poly
from weakgordon import propagator as pr
from weakgordon import seminorm as sn
from weakgordon.errors import DomainError, ToleranceError, ValidationError

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
        monkeypatch.setattr(poly, "_MAX_PANELS", 3)
        mu = me.make_measure((), ((0.0, 2.0, (-1 + 1e-6j, 1)),), (0, 2))
        with pytest.raises(ToleranceError):
            me.norm_unif(mu, 1.0)


class TestNormUnifMemo:
    @pytest.fixture
    def sweeps(self, monkeypatch):
        calls = []
        sweep = me._sliding_sup

        def counted(*args, **kwargs):
            calls.append(args[4])
            return sweep(*args, **kwargs)

        monkeypatch.setattr(me, "_sliding_sup", counted)
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
    factors, marks, _ = pr._walk(mu, 0.0, -1.0, 3.0, 1e-8)
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
