"""The Newton geometric median of complex windows against the Weiszfeld
iteration it replaced.

`_weiszfeld` is a copy of the former implementation, kept here only as the
oracle: from the componentwise median it steps c <- int phi / |phi - c| /
int 1 / |phi - c| (64 unchecked panel bisections per pass), scores every
iterate by the converged L1 integral and keeps the best.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from weakgordon import cli
from weakgordon import measure as me
from weakgordon import measure_io as mio
from weakgordon import poly
from weakgordon import seminorm as sn
from weakgordon.errors import ToleranceError

from test_median import ANY_FLOAT, WELL_SCALED, measure_windows


def _inv_abs(v):
    return 1.0 / np.maximum(np.abs(v), 1e-300)


def _weiszfeld(pieces, c0, iters=120):
    c = complex(c0)
    best_c, best_v = c, sn._l1(pieces, c)
    scale_ref = max(1.0, abs(c0))
    for _ in range(iters):
        num = 0j
        den = 0.0
        for t0, t1, coeffs in pieces:
            q, L = poly.add(coeffs, (-c,)), t1 - t0
            num += poly.gauss_integral(q, 0.0, L, lambda v: (v + c) * _inv_abs(v), 64)[0]
            den += float(poly.gauss_integral(q, 0.0, L, _inv_abs, 64)[0])
        if den <= 0:
            break
        c_new = num / den
        v_new = sn._l1(pieces, c_new)
        if v_new < best_v:
            best_c, best_v = c_new, v_new
        if abs(c_new - c) <= 1e-12 * scale_ref:
            c = c_new
            break
        c = c_new
    return best_c, best_v


def _c_med(pieces, wlo, whi):
    half = 0.5 * (whi - wlo)
    return complex(*(
        sn._smallest_median(sn._real_pieces(
            [(t0, t1, tuple(getattr(v, part) for v in c)) for t0, t1, c in pieces]), half)
        for part in ("real", "imag")))


def _check_against_weiszfeld(mu, wlo, whi):
    pieces = me.cumulative_pieces(mu, wlo, whi)
    lower, upper, c, _ = sn._window_value(mu, wlo, whi)
    if not pieces or all(poly.is_real(k) for _, _, k in pieces):
        return
    c_med = _c_med(pieces, wlo, whi)
    m_old = min(_weiszfeld(pieces, c_med)[1], sn._l1(pieces, c_med))
    assert upper <= m_old * (1 + 1e-9)
    assert lower == 0.5 * upper
    assert upper == sn._l1(pieces, c - sn._phi_offset(mu, wlo))


# ---------------------------------------------------------------------------
# the derandomized corpus against the oracle


@settings(max_examples=30, deadline=None, derandomize=True)
@given(measure_windows(complex_=True, coefficient=WELL_SCALED))
def test_not_above_weiszfeld_well_scaled(case):
    _check_against_weiszfeld(*case)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(measure_windows(complex_=True, coefficient=ANY_FLOAT))
def test_not_above_weiszfeld_any_float(case):
    _check_against_weiszfeld(*case)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(measure_windows(complex_=True, coefficient=ANY_FLOAT))
def test_no_runtime_warning_on_any_float(case):
    # 1e-300-scale and subnormal inputs: the steering integrals and the 2x2
    # Newton solve must neither overflow nor divide by zero
    mu, wlo, whi = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lower, upper, _, _ = sn._window_value(mu, wlo, whi)
    assert 0.0 <= lower <= upper


# ---------------------------------------------------------------------------
# named cases


def test_point_term_holding_more_than_half():
    # phi is the level w on [-0.6, 0.6], more than half the window, then a
    # segment from w: the subgradient test settles c = w at once, and
    # M = 0.4 |w| + |rho| 0.4^2 / 2
    w, rho = 0.3 + 0.4j, 0.5 - 0.2j
    mu = me.make_measure([(-0.6, w)], [(0.6, 1.0, (rho,))], (-2, 2))
    res = sn.window_seminorm(mu, 0.0)
    pieces = me.cumulative_pieces(mu, -1.0, 1.0)
    level = [k[0] for _, _, k in pieces if len(poly.trim(k)) == 1 and k[0] != 0][0]
    assert res.minimizer_c == level + sn._phi_offset(mu, -1.0)
    assert res.upper == pytest.approx(0.4 * abs(w) + 0.08 * abs(rho), rel=1e-15)
    assert res.lower == 0.5 * res.upper
    assert res.stats == sn.SeminormStats(median_steps=0, l1_evaluations=1)


def test_subnormal_stretch_gives_a_bracket():
    # the constant stretch (0, 2.2e-311] used to keep its Gauss panels
    # apart until the bisection budget ran out
    density = [(-1.0, 0.0, (0, 0, 0, 1j))]
    res = sn.window_seminorm(me.make_measure([(2.225073858507e-311, 1)], density, (-2, 2)), 0.0)
    ref = sn.window_seminorm(me.make_measure([(0.0, 1)], density, (-2, 2)), 0.0)
    assert res.lower == 0.5 * res.upper
    assert res.upper == pytest.approx(ref.upper, rel=1e-12)


# the benchmark's complex window: the complex0.json template of the
# density-seminorm workload over [a, a + 2]
BENCH_COMPLEX0 = me.make_measure(
    [(2.550497602489684, -0.6009771509997105 + 0.27556433185489854j)],
    [(-1.5819874907655953, 4.718012509234405, (-0.06876232874734037 + 0.3648235973082654j,))],
    (-5.0, 8.0),
)
BENCH_A = 0.8141686439069109


def test_benchmark_complex_window_bytes(tmp_path, capsys):
    mio.dump_measure(BENCH_COMPLEX0, str(tmp_path / "complex0.json"))
    argv = ["--meta", str(tmp_path / "meta.json"), "seminorm",
            "--measure", str(tmp_path / "complex0.json"),
            "--interval", f"{BENCH_A!r},{BENCH_A + 2.0!r}", "--tol", "0.0001"]
    assert cli.run(argv) == 0
    out = capsys.readouterr().out.split()
    assert out[:2] == ["0.25977181516192449", "0.51954363032384898"]
    stats = json.loads((tmp_path / "meta.json").read_text())["stats"]
    res = sn.interval_seminorm(BENCH_COMPLEX0, (BENCH_A, BENCH_A + 2.0), 1e-4)
    assert sn.SeminormStats(**stats) == res.stats
    assert res.stats.median_steps > 0 and res.stats.l1_evaluations > res.stats.median_steps


def test_real_measure_stats_are_zero(tmp_path):
    mio.dump_measure(me.make_measure([(0.3, 0.5)], [(-0.5, 0.5, (0.2, 1.0))], (-2, 2)),
                     str(tmp_path / "real.json"))
    argv = ["--meta", str(tmp_path / "meta.json"), "seminorm",
            "--measure", str(tmp_path / "real.json"), "--interval", "-2,2",
            "--csv", str(tmp_path / "scan.csv")]
    assert cli.run(argv) == 0
    stats = json.loads((tmp_path / "meta.json").read_text())["stats"]
    assert stats == {"median_steps": 0, "l1_evaluations": 0, "exact_cells": 0,
                     "envelope_vertices": 0}


# the complex density and atom of test_median's edge corpus: c_med is not
# the geometric median, so the solver has candidates to score
_MOVING = me.make_measure([(0.4, 0.3 - 0.6j)],
                          ((-0.8, 0.6, (0.5 + 0.2j, -1.0 + 0.7j, 0.3j)),), (-2, 2))


def test_candidate_that_raises_is_no_decrease(monkeypatch):
    pieces = me.cumulative_pieces(_MOVING, -1.0, 1.0)
    c_med = _c_med(pieces, -1.0, 1.0)
    m_med = sn._l1(pieces, c_med)
    at_c_med = {poly.trim(poly.add(k, (-c_med,))) for _, _, k in pieces}
    free = sn.window_seminorm(_MOVING, 0.0)
    assert free.upper < m_med
    integral_abs = poly.integral_abs

    def only_at_c_med(coeffs, x0, x1):
        if poly.trim(coeffs) not in at_c_med:
            raise ToleranceError("patched")
        return integral_abs(coeffs, x0, x1)

    monkeypatch.setattr(poly, "integral_abs", only_at_c_med)
    res = sn.window_seminorm(_MOVING, 0.0)
    assert res.upper == m_med and res.lower == 0.5 * m_med
    assert res.minimizer_c == c_med + sn._phi_offset(_MOVING, -1.0)
    assert res.stats.median_steps == 0 and res.stats.l1_evaluations > 1


def test_score_at_c_med_still_raises(monkeypatch):
    def always(coeffs, x0, x1):
        raise ToleranceError("patched")

    monkeypatch.setattr(poly, "integral_abs", always)
    with pytest.raises(ToleranceError):
        sn.window_seminorm(_MOVING, 0.0)


def test_minimizer_c_is_a_python_complex():
    real = me.make_measure([(0.3, 0.5), (-1.2, -0.4)], [(-0.5, 0.5, (0.2, 1.0))], (-3, 3))
    results = [
        sn.window_seminorm(real, 0.0),
        sn.window_seminorm(_MOVING, 0.0),
        sn.interval_seminorm(real, (-1.0, 1.0)),
        sn.interval_seminorm(real, (-2.5, 2.5), tol=1e-3),
        sn.interval_seminorm(_MOVING, (-1.0, 1.0)),
        sn.interval_seminorm(_MOVING, (-1.5, 1.5), tol=10.0),
        sn.interval_seminorm(me.zero_measure((-2, 2)), (-2.0, 2.0)),
    ]
    for res in results:
        assert type(res.minimizer_c) is complex
