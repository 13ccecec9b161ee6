import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from weakgordon import constructions as cons
from weakgordon import gordon as go
from weakgordon import measure as me
from weakgordon import seminorm as sn
from weakgordon.errors import DomainError, ResourceError


class TestLiouville:
    def test_convergent_recurrence(self):
        L = cons.liouville_alpha(4)
        a = L.partial_quotients
        p = [c.numerator for c in L.convergents]
        q = [c.denominator for c in L.convergents]
        for m in range(2, len(p)):
            assert p[m] == a[m] * p[m - 1] + (p[m - 2] if m >= 2 else 0)
            assert q[m] == a[m] * q[m - 1] + (q[m - 2] if m >= 2 else 0)

    def test_exact_certificates(self):
        L = cons.liouville_alpha(4)
        alpha = L.alpha
        for m, conv in enumerate(L.convergents[:-1], start=1):
            assert abs(alpha - conv) * (m ** conv.denominator) <= 1

    def test_denominators_increase(self):
        L = cons.liouville_alpha(5)
        qs = [c.denominator for c in L.convergents]
        assert all(b > a for a, b in zip(qs[1:], qs[2:]))

    def test_bit_budget(self):
        with pytest.raises(ResourceError):
            cons.liouville_alpha(7)

    def test_needs_two_levels(self):
        with pytest.raises(DomainError):
            cons.liouville_alpha(1)


class TestQuasiperiodic:
    @staticmethod
    def _unit_comb():
        return me.PeriodicMeasure(me.make_measure([(0.0, 1.0)], (), (0, 1)), 1.0)

    def test_degenerate_alpha_one(self):
        L = cons.liouville_alpha(4)
        L = dataclasses.replace(L, convergents=L.convergents[:1])
        q = cons.quasiperiodic_measure(self._unit_comb(), self._unit_comb(), L, (-3, 3))
        assert q.alpha_proxy == 1
        assert all(w == 2.0 for _, w in q.measure.atoms)

    def test_integer_shift_leaves_part1_fixed(self):
        L = cons.liouville_alpha(4)
        conv = L.convergents[1]
        p_m = float(conv.numerator)
        win = (-p_m - 1.0, 2 * p_m + 1.0)
        q = cons.quasiperiodic_measure(self._unit_comb(), self._unit_comb(), L, win)
        d1 = me.subtract(q.part1, me.translate(q.part1, p_m))
        inner = (-p_m, p_m)
        r = sn.interval_seminorm(me.restrict(d1, inner), inner, tol=1e-9)
        assert r.upper <= 1e-12

    def test_defect_bound(self):
        L = cons.liouville_alpha(4)
        conv = L.convergents[1]
        p_m, q_m = conv.numerator, conv.denominator
        win = (-float(p_m) - 1.0, 2.0 * p_m + 1.0)
        q = cons.quasiperiodic_measure(self._unit_comb(), self._unit_comb(), L, win)
        d = go.translation_defect(q.measure, float(p_m), tol=1e-8)
        eps = abs(Fraction(p_m) - L.alpha * q_m)
        bound = 3.0 * float(eps) * me.norm_unif(q.part2)
        assert d.upper <= bound + 1e-9


class TestInteriorSolution:
    def test_interpolation_ends(self):
        assert cons.interior_solution(1.0, 0.5, 2.0, 0.0) == pytest.approx(1.0)
        assert cons.interior_solution(1.0, 0.5, 2.0, 2.0) == pytest.approx(0.5)

    def test_symmetric_cosh(self):
        for t in (0.0, 0.3, 1.0, 1.62, 2.0):
            expect = math.cosh(t - 1.0) / math.cosh(1.0)
            assert cons.interior_solution(1.0, 1.0, 2.0, t) == pytest.approx(expect, abs=1e-14)

    def test_positivity_in_regime(self, rng):
        for _ in range(30):
            L = float(rng.uniform(0.5, 8.0))
            b = float(rng.uniform(0.2, 3.0))
            ratio = math.exp(float(rng.uniform(-L, L)))
            c = b * ratio
            ts = np.linspace(0.0, L, 33)
            assert all(cons.interior_solution(b, c, L, float(t)) > 0 for t in ts)

    def test_huge_arc_no_overflow(self):
        v = cons.interior_solution(1.0, 0.125, 5000.0, 2500.0)
        assert 0.0 <= v < 1.0


class TestMassDifference:
    def test_symmetric_zero(self):
        assert cons.mass_difference(1.3, 1.3, 2.0) == 0.0

    def test_paper_values(self):
        for m, l in ((2, 8.0), (3, 16.0)):
            expect = (2.0 * 2.0**-m - 2.0 * 2.0**m) / (math.exp(l) - math.exp(-l))
            assert cons.mass_difference(1.0, 2.0**-m, l) == pytest.approx(expect, rel=1e-13)

    def test_finite_difference_jump_oracle(self):
        # build the four-point configuration with a/b = d/c and recover the
        # jump quotients from one-sided derivatives of the arcs
        b, c, L, l = 1.0, 0.4, 2.5, 1.25
        a = 1.7 * b
        d = 1.7 * c
        left_q = cons.interior_derivative(a, b, l, l) / b     # u'(0-)/u(0)
        mid0_q = cons.interior_derivative(b, c, L, 0.0) / b   # u'(0+)/u(0)
        midL_q = cons.interior_derivative(b, c, L, L) / c     # u'(L-)/u(L)
        right_q = cons.interior_derivative(c, d, l, 0.0) / c  # u'(L+)/u(L)
        measured = (mid0_q - left_q) - (right_q - midL_q)
        assert measured == pytest.approx(cons.mass_difference(b, c, L), abs=1e-10)


class TestSharpnessConstruction:
    def test_schedule_follows_rule(self):
        lengths, periods = cons.gap_lengths(4)
        p_prev = 0
        for m, (l, p) in enumerate(zip(lengths, periods), start=1):
            assert l == cons.GAP_FACTOR * m * (2 * (m - 1) * p_prev + m)
            assert p == 2 * (m - 1) * p_prev + l
            p_prev = p

    def test_eigenfunction_values(self):
        S = cons.sharpness_construction(3)
        idx = {x: i for i, x in enumerate(S.support)}
        assert S.u_on_support[idx[S.periods[0]]] == 0.5
        assert S.u_on_support[idx[2 * S.periods[1]]] == 2.0**-4

    def test_lk_condition_ratio_decreasing(self):
        S = cons.sharpness_construction(3)
        ratios = []
        p_prev = 0.0
        for m in range(1, 4):
            ratios.append(
                (2 * (m - 1) * p_prev + m * math.log(2.0)) / S.lengths[m - 1]
            )
            p_prev = S.periods[m - 1]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_masses_bounded_by_two(self):
        S = cons.sharpness_construction(3)
        assert all(abs(m) <= 2.0 for m in S.masses)

    def test_mass_difference_matches_closed_form(self):
        S = cons.sharpness_construction(3)
        idx = {x: i for i, x in enumerate(S.support)}
        for m in (2, 3):
            s_m, t_m = S.s_points[m - 1], S.t_points[m - 1]
            measured = S.masses[idx[s_m] - 1] - S.masses[idx[t_m] - 1]
            closed = cons.mass_difference(
                S.u_on_support[idx[s_m]], S.u_on_support[idx[t_m]], S.lengths[m - 1]
            )
            assert abs(measured - closed) <= 1e-10

    def test_l2_proxy_summable(self):
        # partial sums of u^2 weighted by local spacing shrink per level
        S = cons.sharpness_construction(3)
        xs, us = S.support, S.u_on_support
        sums = []
        prev_span = 0.0
        for m in range(1, 4):
            span = m * S.periods[m - 1]
            total = 0.0
            for x, u in zip(xs, us):
                if prev_span < abs(x) <= span:
                    total += u * u
            sums.append(total)
            prev_span = span
        assert sums[1] / sums[0] < 1.0 and sums[2] / sums[1] < 1.0

    def test_budget(self):
        with pytest.raises(ResourceError):
            cons.sharpness_construction(6)

    @pytest.mark.parametrize("m_max", [0, -1])
    def test_no_levels_is_outside_the_domain(self, m_max):
        with pytest.raises(DomainError, match="at least 1"):
            cons.sharpness_construction(m_max)


class TestTwoAtomDefect:
    def test_identity_against_seminorm(self, rng):
        # || a (delta_x - delta_y) || = |a| when |x - y| >= 2
        for _ in range(10):
            a = float(rng.uniform(0.1, 2.0))
            x = float(rng.uniform(-3, 0))
            y = x + float(rng.uniform(2.0, 4.0))
            mu = me.make_measure([(x, a), (y, -a)], (), (x - 3, y + 3))
            r = sn.interval_seminorm(mu, (x - 2, y + 2), tol=1e-9)
            assert r.lower == pytest.approx(a, abs=1e-9)


class TestSharpnessReport:
    def test_rows_and_monotone_ratio(self):
        S = cons.sharpness_construction(3)
        rep = cons.sharpness_report(S, 0.9)
        assert [r.m for r in rep.rows] == [1, 2, 3]
        lw = [r.log_weighted_ratio for r in rep.rows]
        assert lw[0] > lw[1] > lw[2]

    def test_defect_brackets_match_closed_form(self):
        S = cons.sharpness_construction(3)
        rep = cons.sharpness_report(S, 0.5)
        for r in rep.rows:
            if r.m >= 2:
                formula = abs(r.mass_diff_closed)
                lo, hi = r.measured_defect
                assert lo - 1e-12 <= formula <= hi + 1e-12

    def test_paper_bound_dominates(self):
        S = cons.sharpness_construction(3)
        rep = cons.sharpness_report(S, 0.5)
        for r in rep.rows:
            assert r.log_defect <= r.log_paper_bound + 1e-12

    def test_residual_small(self):
        S = cons.sharpness_construction(3)
        rep = cons.sharpness_report(S, 0.9)
        assert rep.eigen_residual <= 1e-8

    def test_residual_detects_corruption(self):
        import dataclasses

        S = cons.sharpness_construction(2)
        atoms = list(S.measure.atoms)
        i = len(atoms) // 2
        atoms[i] = (atoms[i][0], atoms[i][1] + 1e-5)
        bad = dataclasses.replace(
            S, measure=me.make_measure(atoms, (), S.measure.window)
        )
        assert cons.eigen_residual(bad, (-50, 50)) > 1e-7

    def test_estimates(self):
        S = cons.sharpness_construction(3)
        rep = cons.sharpness_report(S, 0.9)
        assert rep.C_mu_estimate >= 0.95
        assert 0.0 < rep.E_mu_estimate <= rep.C_mu_estimate**2

    def test_report_deterministic(self):
        S1 = cons.sharpness_construction(3)
        S2 = cons.sharpness_construction(3)
        r1 = cons.sharpness_report(S1, 0.9)
        r2 = cons.sharpness_report(S2, 0.9)
        assert r1 == r2

    def test_trace_window(self):
        S = cons.sharpness_construction(2)
        ts, us = cons.eigenfunction_trace(S, (-S.periods[0], S.periods[0]), step=0.05)
        assert us[np.argmin(np.abs(ts))] == pytest.approx(1.0)
        assert np.all(us > 0)

    @staticmethod
    def _check_trace(S, win, step=0.01):
        """The trace has the bits of `S.state_at`, or raises where it does."""
        ts = np.arange(win[0], win[1] + step / 2, step).tolist()
        try:
            ref = [S.state_at(t)[0] for t in ts]
        except DomainError:
            with pytest.raises(DomainError):
                cons.eigenfunction_trace(S, win, step)
            return
        got_ts, us = cons.eigenfunction_trace(S, win, step)
        assert got_ts.tolist() == ts and repr(us.tolist()) == repr(ref)

    @pytest.mark.parametrize("m_max", [1, 2, 3, 4])
    def test_trace_matches_state_at(self, m_max):
        S = cons.sharpness_construction(m_max)
        p = S.periods[0]
        # windows from, to and between support points
        for win in ((-p, p), (S.support[1], S.support[2]), (S.support[0] + 0.3, S.support[2])):
            for step in (0.05, 0.01, 0.37):
                self._check_trace(S, win, step)
        if m_max >= 2:
            # the plot window of the CLI
            self._check_trace(S, (-2.0 * S.periods[1], 2.0 * S.periods[1]))

    def test_trace_outside_the_support(self):
        S = cons.sharpness_construction(2)
        for win in ((S.support[0] - 0.5, 0.0), (0.0, S.support[-1] + 0.5)):
            with pytest.raises(DomainError):
                cons.eigenfunction_trace(S, win, 0.25)

    def test_propagation_reproduces_first_level(self):
        # one short leg 0 -> p_1 is well conditioned (amplification e^{p_1});
        # longer legs are verified by the re-anchored residual instead
        from weakgordon import propagator as pr

        S = cons.sharpness_construction(3)
        u0, du0 = S.state_at(0.0)
        grid = np.array([0.0, S.periods[0]])
        tr = pr.propagate(S.measure, -1.0, 0.0, (u0, du0), grid)
        assert abs(tr.u[1] - 0.5) <= 1e-10


_S2 = cons.sharpness_construction(2)
_COMB2 = me.PeriodicMeasure(me.make_measure([(0.0, 1.0)], (), (0, 2)), 2.0)


@pytest.mark.parametrize("call, message", [
    (lambda: cons.quasiperiodic_measure(_COMB2, _COMB2, cons.liouville_alpha(2), (-1, 1)),
     "base1 must have period 1"),
    (lambda: cons.interior_solution(1.0, 1.0, 0.0, 0.0), "arc length must be positive, got 0.0"),
    (lambda: cons.mass_difference(-1.0, 1.0, 1.0), "need b, c, L > 0"),
    (lambda: cons.eigen_residual(_S2, (_S2.support[0], 0.0)),
     f"window {(_S2.support[0], 0.0)} not strictly inside the construction"),
    (lambda: cons.sharpness_report(_S2, 1.5), "need 0 < C < 1, got 1.5"),
    # t_1 = 5 is then the outermost support point, which carries no atom
    (lambda: cons.sharpness_report(cons.sharpness_construction(1), 0.9),
     "the sharpness report needs m_max >= 2, got 1"),
], ids=["quasiperiodic-base1", "arc-length", "mass-difference", "residual-window",
        "report-weight", "report-one-level"])
def test_raise_paths(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message
