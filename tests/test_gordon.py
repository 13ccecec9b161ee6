import math

import pytest

from weakgordon import gordon as go
from weakgordon import measure as me
from weakgordon import propagator as pr
from weakgordon import seminorm as sn
from weakgordon.errors import DomainError

from conftest import random_measure, random_periodic


class TestTranslationDefect:
    def test_periodic_vanishes_exactly_dyadic(self):
        # dyadic positions translate exactly, so cancellation is bitwise
        P = me.PeriodicMeasure(me.make_measure([(0.25, 1.0)], (), (0, 1)), 1.0)
        mu = me.materialize_periodic(P, (-4, 8))
        d = go.translation_defect(mu, 1.0, tol=1e-10)
        assert d.upper == 0.0

    def test_periodic_vanishes_up_to_rounding(self):
        P = me.PeriodicMeasure(me.make_measure([(0.3, 1.0)], (), (0, 1)), 1.0)
        mu = me.materialize_periodic(P, (-4, 8))
        d = go.translation_defect(mu, 1.0, tol=1e-10)
        assert d.upper <= 1e-12

    def test_comb_near_integer_shift(self):
        comb = me.make_measure([(n, 1.0) for n in range(-8, 17)], (), (-8, 16))
        h = 0.2
        d = go.translation_defect(comb, 2.0 + h, tol=1e-3)
        assert d.lower <= 3 * h * 1.0 + 1e-10

    def test_segment_narrower_than_the_shift_spacing(self):
        # (0, 1e-17] collapses to one point when translated by 0.5; it is
        # carried as an atom of its mass rather than rejected
        mu = me.make_measure([], [(0.0, 1e-17, (1.0,)), (0.2, 0.9, (1.0,))], (-1.5, 3))
        d = go.translation_defect(mu, 0.5)
        assert (d.lower, d.upper) == (0.18, 0.18)

    def test_window_requirement(self):
        with pytest.raises(DomainError):
            go.translation_defect(me.lebesgue((-1, 1)), 1.0)


class TestRatioAndEstimate:
    def test_ratio_periodic_zero(self):
        P = me.PeriodicMeasure(me.make_measure([(0.5, 1.0)], (), (0, 1)), 1.0)
        mu = me.materialize_periodic(P, (-4, 8))
        assert go.gordon_ratio(mu, 2.0, C=0.5, tol=1e-10) == 0.0

    def test_ratio_c_zero_is_defect(self, rng):
        mu = random_measure(rng, window=(-4, 8), max_atoms=5)
        d = go.translation_defect(mu, 2.0, tol=1e-4)
        assert go.gordon_ratio(mu, 2.0, C=0.0, tol=1e-4) == pytest.approx(d.upper, rel=1e-6)

    def test_ratio_past_float_range_is_inf(self):
        # e^(C p) times the defect would overflow: the ratio is +inf
        mu = me.make_measure([(0.0, 1.0)], (), (-3, 6))
        assert go.translation_defect(mu, 2.0).upper == 1.0
        assert go.gordon_ratio(mu, 2.0, C=400.0) == math.inf

    def test_periodic_flagged_infinite(self):
        P = me.PeriodicMeasure(me.make_measure([(0.5, 1.0)], (), (0, 1)), 1.0)
        mu = me.materialize_periodic(P, (-8, 16))
        rows, c_est = go.estimate_C_mu(mu, [1.0, 2.0, 4.0], tol=1e-9)
        assert all(fl for _, _, _, fl in rows)
        assert c_est is None

    def test_single_defect_rates_decay(self):
        # lambda + delta_0: the lone defect never decays, rates -> 0
        mu = me.add_measures(me.lebesgue((-14, 20)), me.dirac(0.0, 1.0, (-14, 20)))
        rows, c_est = go.estimate_C_mu(mu, [2.0, 4.0, 6.0], tol=1e-6)
        for p, d, rate, fl in rows:
            assert not fl
            assert d.lower == pytest.approx(1.0, abs=1e-6)
            assert abs(rate) < 1e-5
        assert abs(c_est) < 1e-5

    def test_exclusion_report_lambda_profile(self):
        mu = me.add_measures(me.lebesgue((-14, 20)), me.dirac(0.0, 1.0, (-14, 20)))
        rep = go.exclusion_bound(mu, [2.0, 4.0], [1.0, 2.0, 4.0], C=0.1, tol=1e-6)
        # the Lebesgue part keeps the whole profile pinned at >= 1
        assert all(v >= 1.0 - 1e-9 for _, v in rep.r_profile)
        assert rep.E_mu_estimate <= rep.C_mu_estimate**2

    def test_report_determinism(self, rng):
        mu = random_measure(rng, window=(-10, 20), max_atoms=5)
        rep1 = go.exclusion_bound(mu, [2.0, 4.0], [1.0, 3.0], C=0.2, tol=1e-4)
        rep2 = go.exclusion_bound(mu, [2.0, 4.0], [1.0, 3.0], C=0.2, tol=1e-4)
        assert rep1.row_table() == rep2.row_table()
        assert rep1.r_profile == rep2.r_profile


class TestPeriodicApproximant:
    def test_periodic_measure_reproduced(self):
        # the overlapping ramp weights sum to 1 only up to an ulp, so the
        # reproduction is exact up to rounding dust
        p = 3.0
        P = me.PeriodicMeasure(me.make_measure([(0.7, 1.0), (2.1, -0.5)], (), (0, p)), p)
        mu = me.materialize_periodic(P, (-2 * p, 3 * p))
        # a = p/2: psi is a tent with no plateau
        for a in (1.0, p / 2):
            approx = go.periodic_approximant(mu, p, a=a)
            mat = me.materialize_periodic(approx, (-p, 2 * p))
            diff = me.subtract(me.restrict(mat, (-p, 2 * p)), me.restrict(mu, (-p, 2 * p)))
            assert all(abs(w) <= 1e-12 for _, w in diff.atoms)
            assert not diff.segments

    def test_agreement_on_plateau(self, rng):
        for _ in range(10):
            mu = random_measure(rng, window=(-8, 16), max_atoms=8)
            p, a = 6.0, 1.5
            approx = go.periodic_approximant(mu, p, a)
            mat = me.materialize_periodic(approx, (-8, 16))
            inner = (a, p - a)
            diff = me.subtract(me.restrict(mat, inner), me.restrict(mu, inner))
            assert not diff.atoms
            for s in diff.segments:
                assert all(abs(c) < 1e-12 for c in s.coeffs)

    def test_unif_norm_inflation(self, rng):
        for _ in range(10):
            mu = random_measure(rng, window=(-8, 16), max_atoms=6)
            p, a = 6.0, 1.5
            approx = go.periodic_approximant(mu, p, a)
            mat = me.materialize_periodic(approx, (-8, 16))
            assert me.norm_unif(mat) <= (1 + 1 / (2 * a)) * me.norm_unif(mu) + 1e-10

    def test_equiv_gordon_two_sided(self, rng):
        # forward: ||mu - mu_m||_[-p,2p] <= 6 (1 + 1/(2a)) ||mu - mu(.+p)||_[-p,p]
        # backward: ||mu - mu(.+p)||_[-p,p] <= 2 ||mu - mu_m||_[-p,2p]
        for _ in range(8):
            mu = random_measure(rng, window=(-14, 28), max_atoms=8)
            p, a = 7.0, 2.0
            approx = go.periodic_approximant(mu, p, a)
            mat = me.materialize_periodic(approx, (-14, 28))
            d_m = sn.interval_seminorm(
                me.subtract(mu, mat), (-p, 2 * p), tol=2e-2
            )
            d_t = go.translation_defect(mu, p, tol=2e-2)
            assert d_m.lower <= 6 * (1 + 1 / (2 * a)) * d_t.upper + 1e-9
            assert d_t.lower <= 2 * d_m.upper + 1e-9

    def test_parameter_validation(self, rng):
        mu = random_measure(rng, window=(-8, 16))
        with pytest.raises(DomainError):
            go.periodic_approximant(mu, 6.0, a=4.0)


_ATOM = me.dirac(0.0, 1.0, (-2.0, 4.0))


@pytest.mark.parametrize("call, message", [
    (lambda: go.translation_defect(_ATOM, 0.0), "period must be positive, got 0.0"),
    (lambda: go.estimate_C_mu(_ATOM, []), "empty period list"),
    (lambda: go.exclusion_bound(_ATOM, [1.0], []), "empty r grid"),
    (lambda: go.periodic_approximant(_ATOM, 2.0, 0.0), "need 0 < a <= p/2, got a=0.0, p=2.0"),
], ids=["defect-period", "no-periods", "no-r-grid", "approximant-ramp"])
def test_raise_paths(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


class TestScalingCovariance:
    def test_defect_scaling_bound(self, rng):
        # defect(scale(mu, r), p/r) <= (r+1)^2 defect(mu, p)
        for _ in range(6):
            mu = random_measure(rng, window=(-10, 20), max_atoms=6)
            p = 4.0
            r = float(rng.uniform(0.5, 2.0))
            lhs = go.translation_defect(me.scale(mu, r), p / r, tol=2e-2)
            rhs = go.translation_defect(mu, p, tol=2e-2)
            assert lhs.lower <= (r + 1) ** 2 * rhs.upper + 1e-9


class TestThreePoint:
    def test_free_constant(self):
        P = me.PeriodicMeasure(me.make_measure((), (), (0, 1)), 1.0)
        lhs, rhs, ok = go.periodic_three_point_check(P, 0.0, (1.0, 0.0))
        assert ok and lhs == pytest.approx(1.0) and rhs == pytest.approx(2.0)

    def test_random_periodic(self, rng):
        for _ in range(25):
            P = random_periodic(rng)
            z = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            init = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), complex(rng.uniform(-1, 1)))
            lhs, rhs, ok = go.periodic_three_point_check(P, z, init)
            assert ok, (lhs, rhs, P)

    def test_scale_free(self, rng, monkeypatch):
        # initial data scaled by 2^+-60 scale lhs and rhs exactly, and the
        # slack is relative, so the flag does not move
        cases = [(random_periodic(rng), complex(rng.uniform(-2, 2), rng.uniform(-1, 1)),
                  (complex(rng.uniform(-1, 1)), complex(rng.uniform(-1, 1), 0.5)))
                 for _ in range(5)]
        free = me.PeriodicMeasure(me.make_measure((), (), (0, 1)), 1.0)
        for P, z, (u0, du0) in cases + [(free, 0.0, (1.0, 0.0))]:
            ref = go.periodic_three_point_check(P, z, (u0, du0))
            for f in (2.0**60, 2.0**-60):
                lhs, rhs, ok = go.periodic_three_point_check(P, z, (f * u0, f * du0))
                assert (lhs, rhs, ok) == (f * ref[0], f * ref[1], ref[2])
        # states damped to a quarter (u = 1 on the free line): rhs = 0.5 < 1
        # fails at every scale, also at 2^-60, where an absolute slack would
        # pass it
        def damped(*args):
            tr = propagate(*args)
            return pr.SolutionTrace(tr.grid, 0.25 * tr.u, 0.25 * tr.du, tr.jump_log)

        propagate = go.propagate
        monkeypatch.setattr(go, "propagate", damped)
        for f in (1.0, 2.0**60, 2.0**-60):
            assert go.periodic_three_point_check(free, 0.0, (f, 0.0)) == (f, 0.5 * f, False)

    def test_periodized_dirac_negative_energy(self):
        P = me.PeriodicMeasure(me.make_measure([(0.4, 1.3)], (), (0, 2)), 2.0)
        lhs, rhs, ok = go.periodic_three_point_check(P, -1.5, (0.0, 1.0))
        assert ok
