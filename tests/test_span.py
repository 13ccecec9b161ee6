"""The one span rule, `LocalMeasure.check_span`: a span needs lo <= hi, may
overhang the window by 1e-12 * max(1, |window ends|) at either end, and the
measure is zero on the overhang.

Each of the 13 entry points that asks whether a span lies inside the window
calls it.  Per entry point: a span past the slack raises, a span within it
returns, and where the former checks returned the result is pinned to the
digest they gave: on the exact window at all 13, and on a 5e-13 overhang at
the 5 that returned there (7 checks allowed an absolute 1e-12, but
window_seminorm and interval_seminorm then met the strict check of phi).
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from weakgordon import cli
from weakgordon import gordon as go
from weakgordon import measure as me
from weakgordon import propagator as pr
from weakgordon import seminorm as sn
from weakgordon.errors import DomainError

Z = 0.7 + 0.2j
# an overhang within the absolute 1e-12 of the former checks
FORMER = 5e-13


def _measure(lo, hi):
    """Atoms on both window ends and inside, a quadratic density over the
    whole window."""
    return me.make_measure([(lo, 0.25), (0.3, -0.7), (hi, 0.4)],
                           ((lo, hi, (0.5, -0.1, 0.02)),), (lo, hi))


def _tent(lo, hi):
    return me.PiecewiseAffine((lo, 0.5 * (lo + hi), hi), (0.0, 1.0, 0.0))


# name: (the span the entry point checks, the call).  translation_defect checks
# [-p, p] on mu - mu(. + p), whose window [mu.lo, mu.hi - p] has scale 1
# like mu's here (p < 1/2), so both slacks are 1e-12.
ENTRY_POINTS = {
    "phi": ((-2.5, 3.5), lambda mu: (me.phi(mu, -2.5), me.phi(mu, 3.5))),
    "restrict": ((-2.5, 3.5), lambda mu: me.restrict(mu, (-2.5, 3.5))),
    "total_variation": ((-2.5, 3.5), lambda mu: me.total_variation(mu, (-2.5, 3.5))),
    "cumulative_pieces": ((-2.5, 3.5), lambda mu: me.cumulative_pieces(mu, -2.5, 3.5)),
    "window_seminorm": ((-0.5, 1.5), lambda mu: sn.window_seminorm(mu, 0.5)),
    "interval_seminorm": (
        (-2.5, 3.5), lambda mu: sn.interval_seminorm(mu, (-2.5, 3.5), 1e-6)),
    "test_functional": ((-2.5, 3.5), lambda mu: sn.test_functional(mu, _tent(-2.5, 3.5))),
    "transfer_matrix": ((-2.5, 3.5), lambda mu: pr.transfer_matrix(mu, Z, -2.5, 3.5)),
    "transfer_steps": ((-2.5, 3.5), lambda mu: pr.transfer_steps(mu, Z, [-2.5, 0.5, 3.5])),
    "propagate": ((-2.5, 3.5), lambda mu: pr.propagate(
        mu, Z, 0.5, (1.0, 0.0), np.linspace(-2.5, 3.5, 13))),
    "solution_difference": ((-1.0, 1.0), lambda mu: pr.solution_difference(
        mu, _measure(-3.0, 3.0), Z, (1.0, 0.5), np.linspace(-1.0, 1.0, 5))),
    "translation_defect": ((-0.4, 0.8), lambda mu: go.translation_defect(mu, 0.4, 1e-6)),
    "periodic_approximant": (
        (-0.5, 2.5), lambda mu: go.periodic_approximant(mu, 2.0, 0.5)),
}

# sha256 of `_plain` of each result, from the former checks; those of the
# three seminorm results were taken again when their stats gained the
# exact-cell and envelope-vertex counts (both 0 here): without those two
# fields they are the former digests
EXACT_WINDOW = {
    "cumulative_pieces": "4546c88d964082d1",
    "interval_seminorm": "23238e4e2b1b56b2",
    "periodic_approximant": "b9ca1be199b65a45",
    "phi": "1fe12beb70d74671",
    "propagate": "163e1ab75e39598d",
    "restrict": "db72e87ccae6dd7e",
    "solution_difference": "78fa3d8b4a5ee5ea",
    "test_functional": "6f21710f8012eefc",
    "total_variation": "a088fac4d44900ac",
    "transfer_matrix": "b3c71bb01b97f9e0",
    "transfer_steps": "2ce5c7e6a2438a69",
    "translation_defect": "21a3a36fd98432b0",
    "window_seminorm": "60e063a5d38b1e37",
}
FORMER_OVERHANG = {
    "cumulative_pieces": "5d520ebe35f25d13",
    "propagate": "3bc6859a5b490d76",
    "test_functional": "2fa7df9cf665f233",
    "transfer_matrix": "6900d0f98dab6287",
    "transfer_steps": "887395dbd91bcd05",
}


def _plain(x):
    """x as nested tuples of Python numbers and strings, exact under repr."""
    if isinstance(x, np.ndarray):
        return _plain(x.tolist())
    if dataclasses.is_dataclass(x):
        return tuple(_plain(getattr(x, f.name)) for f in dataclasses.fields(x) if f.compare)
    if isinstance(x, (list, tuple)):
        return tuple(map(_plain, x))
    return x


def _digest(name, lo_cut, hi_cut):
    """Digest of the entry point on a window cut lo_cut, hi_cut inside its span."""
    (lo, hi), call = ENTRY_POINTS[name]
    result = call(_measure(lo + lo_cut, hi - hi_cut))
    return hashlib.sha256(repr(_plain(result)).encode()).hexdigest()[:16]


def _slack(name):
    lo, hi = ENTRY_POINTS[name][0]
    return 1e-12 * max(1.0, abs(lo), abs(hi))


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_exact_window_keeps_its_bytes(name):
    assert _digest(name, 0.0, 0.0) == EXACT_WINDOW[name]


@pytest.mark.parametrize("name", sorted(FORMER_OVERHANG))
def test_former_overhang_keeps_its_bytes(name):
    assert _digest(name, FORMER, FORMER) == FORMER_OVERHANG[name]


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_overhang_within_the_slack_returns(name):
    # past the former absolute 1e-12 wherever the window scale exceeds 1
    cut = 0.9 * _slack(name)
    _digest(name, cut, cut)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("side", ["lo", "hi"])
def test_overhang_past_the_slack_raises(name, side):
    cut = 2.0 * _slack(name)
    with pytest.raises(DomainError, match="not inside window"):
        _digest(name, cut if side == "lo" else 0.0, cut if side == "hi" else 0.0)


def test_nan_span_raises():
    with pytest.raises(DomainError):
        me.cumulative_pieces(_measure(-1.0, 1.0), float("nan"), 0.5)


# entry points whose span's ends are the caller's, in the caller's order
REVERSIBLE = {
    "restrict": lambda mu, lo, hi: me.restrict(mu, (lo, hi)),
    "total_variation": lambda mu, lo, hi: me.total_variation(mu, (lo, hi)),
    "cumulative_pieces": lambda mu, lo, hi: me.cumulative_pieces(mu, lo, hi),
    "interval_seminorm": lambda mu, lo, hi: sn.interval_seminorm(mu, (lo, hi), 1e-6),
}


@pytest.mark.parametrize("name", sorted(REVERSIBLE))
@pytest.mark.parametrize("lo, hi", [(1.0, -1.0), (2.0, -2.0), (0.5, 0.5 - 1e-9)])
def test_reversed_span_raises(name, lo, hi):
    # both ends lie in the window; only their order is wrong
    with pytest.raises(DomainError, match="not inside window"):
        REVERSIBLE[name](_measure(-2.0, 2.0), lo, hi)


# ---------------------------------------------------------------------------
# reproducers: spans built from the window's own ends


def _window_family(lo):
    """One atom at lo + 0.7 plus the density 0.3 + 0.1 (t - lo) on [lo, lo + 4]."""
    return me.make_measure([(lo + 0.7, 1.0)], ((lo, lo + 4.0, (0.3, 0.1)),), (lo, lo + 4.0))


def _check_whole_window(lows, tol=1e-6):
    for lo in lows:
        mu = _window_family(lo)
        res = sn.interval_seminorm(mu, mu.window, tol)
        assert res.upper - res.lower <= tol, lo


def test_whole_window_rounded_lows():
    # the first window a - 1 with a = lo + 1 can round an ulp below lo
    _check_whole_window([round(-5.0 + 5.0 * k / 500, digits)
                         for k in range(500) for digits in (1, 2, 3, 17)])


def test_whole_window_lows_across_a_power_of_two():
    # lo + 1 crosses 2**17, where an ulp (2.9e-11) is past an absolute 1e-12
    _check_whole_window([2.0**17 - 1 + k * 2.5e-4 for k in range(1, 4000, 2)])


PERIODIC = """{"window": [0, 1],
 "atoms": [{"x": 0.25, "re": 1.0, "im": 0.0}],
 "segments": [{"a": 0, "b": 1, "coeffs": [[0.5, 0.0]]}],
 "periodic": {"period": 1.0}}
"""


@pytest.mark.parametrize("interval", ["-0.3,3.7", "-0.2,3.7"])
def test_cli_periodic_file_on_its_own_window(tmp_path, monkeypatch, capsys, interval):
    # the periodic file is materialized exactly on the interval
    monkeypatch.chdir(tmp_path)
    (tmp_path / "per.json").write_text(PERIODIC)
    assert cli.run(["seminorm", "--measure", "per.json", "--interval", interval]) == 0
    lower, upper = map(float, capsys.readouterr().out.split()[:2])
    assert 0.0 <= upper - lower <= 1e-9


def test_sliding_sup_takes_a_unit_span_across_a_power_of_two():
    # (lo, lo + 1) near 2**17 can be 1.5e-11 shorter than the width 1:
    # `SlidingMass.sliding_sup` allows the same relative slack
    for k in range(1000):
        lo = 2.0**17 - 0.5 + k * 1e-3
        assert sn.sliding_l1_sup(_window_family(lo), 0.0, (lo, lo + 1.0), 1.0) > 0.0
