import math

import pytest

from weakgordon import measure as me
from weakgordon import seminorm as sn
from weakgordon.errors import DomainError

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
