"""Translation-defect scans, Gordon weight estimation and the
eigenvalue-exclusion report.

The weight of a measure is estimated from log-rates of translation defects,
-(1/p) ln ||mu - mu(.+p)||_[-p,p]; the exclusion radius combines the squared
weight estimate with the scaled uniform-norm profile inf_r ||mu||_{unif,r}.
Estimates are finite-sample statistics; the full rate table always ships
with the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measure as me
from .errors import DomainError
from .propagator import propagate
from .seminorm import SeminormResult, interval_seminorm

TAIL_PERIODS = 3  # rate statistic uses the largest K periods


@dataclass(frozen=True)
class GordonRow:
    p: float
    defect: SeminormResult
    ratio_at_C: float
    log_rate: float
    flagged: bool  # defect = 0: rate +inf, excluded from arithmetic


@dataclass(frozen=True)
class GordonReport:
    rows: tuple
    C_mu_estimate: float
    E_mu_estimate: float
    r_profile: tuple
    all_weights_admissible: bool  # True when some defect vanished exactly

    def row_table(self):
        return [
            (r.p, r.defect.lower, r.defect.upper, r.ratio_at_C, r.log_rate)
            for r in self.rows
        ]


def translation_defect(mu: me.LocalMeasure, p: float, tol: float = 1e-9) -> SeminormResult:
    """||mu - mu(. + p)||_{[-p, p]} as a certified bracket."""
    if not p > 0:
        raise DomainError(f"period must be positive, got {p}")
    nu = me.subtract(mu, me.translate(mu, p))
    # nu's window is [mu.lo, mu.hi - p], so this asks for mu on [-p, 2p], with
    # the slack that interval_seminorm then applies to nu
    nu.check_span(-p, p, "[-p, p] of mu - mu(. + p)")
    return interval_seminorm(nu, (-p, p), tol)


def _weighted_ratio(C, p, defect_upper):
    if defect_upper <= 0.0:
        return 0.0
    expo = C * p + math.log(defect_upper)
    if expo > 700.0:
        return math.inf
    return math.exp(expo)


def gordon_ratio(mu: me.LocalMeasure, p: float, C: float, tol: float = 1e-9) -> float:
    """e^{Cp} ||mu - mu(.+p)||_{[-p,p]} (upper bracket side)."""
    return _weighted_ratio(C, p, translation_defect(mu, p, tol).upper)


def estimate_C_mu(mu: me.LocalMeasure, periods, tol: float = 1e-9):
    """Per-period log rates and the running-max tail statistic.

    Returns (rows, C_estimate).  The estimate is the max of
    -(1/p) ln defect over the TAIL_PERIODS largest periods with nonzero
    defect; exactly vanishing defects are flagged (rate +inf) and excluded.
    A None estimate means every tail defect vanished (periodic case: weak
    Gordon with every weight).
    """
    if not periods:
        raise DomainError("empty period list")
    rows = []
    for p in sorted(float(p) for p in periods):
        d = translation_defect(mu, p, tol)
        if d.upper <= 0.0:
            rows.append((p, d, math.inf, True))
        else:
            rows.append((p, d, -math.log(d.upper) / p, False))
    tail = rows[-TAIL_PERIODS:]
    finite = [r[2] for r in tail if not r[3]]
    c_est = max(finite) if finite else None
    return rows, c_est


def exclusion_bound(
    mu: me.LocalMeasure,
    periods,
    r_grid,
    C: float | None = None,
    tol: float = 1e-9,
) -> GordonReport:
    """Assemble the full report: defects, rates, weighted ratios, the
    uniform-norm profile and the exclusion radius estimate
    E = C^2 - min_r ||mu||_{unif,r}."""
    raw_rows, c_est = estimate_C_mu(mu, periods, tol)
    profile = tuple((float(r), me.norm_unif(mu, float(r))) for r in r_grid)
    if not profile:
        raise DomainError("empty r grid")
    inf_proxy = min(v for _, v in profile)
    periodic = c_est is None
    if periodic:
        c_val = math.inf
        e_val = math.inf  # no eigenvalues at all (every weight admissible)
    else:
        c_val = c_est
        e_val = c_est * c_est - inf_proxy
    c_used = C if C is not None else (c_val if math.isfinite(c_val) else 0.0)
    rows = tuple(
        GordonRow(p, d, _weighted_ratio(c_used, p, d.upper), rate, fl)
        for p, d, rate, fl in raw_rows
    )
    return GordonReport(rows, c_val, e_val, profile, periodic)


# ---------------------------------------------------------------------------
# periodic approximants


def periodic_approximant(mu: me.LocalMeasure, p: float, a: float) -> me.PeriodicMeasure:
    """The cut-and-fold periodic approximant sum_k (psi mu)(. + k p).

    psi is the plateau function: 1 on [a, p-a], support [-a, p+a], slopes
    1/(2a); its period shifts sum to 1, so a p-periodic mu is reproduced.
    """
    if not (0 < a <= p / 2):
        raise DomainError(f"need 0 < a <= p/2, got a={a}, p={p}")
    mu.check_span(-a, p + a, "[-a, p+a]")
    if a == p / 2:
        psi = me.PiecewiseAffine((-a, a, p + a), (0.0, 1.0, 0.0))
    else:
        psi = me.PiecewiseAffine((-a, a, p - a, p + a), (0.0, 1.0, 1.0, 0.0))
    cut = me.multiply_lipschitz(me.restrict(mu, (-a - 0.0, p + a)), psi)
    return me.fold_into_period(cut, p)


def periodic_three_point_check(P: me.PeriodicMeasure, z, initial):
    """Lemma-style estimate for periodic potentials: the state norm at 0 is
    at most twice the largest state norm at t in {-p, p, 2p}.

    Returns (lhs, rhs, pass); the comparison allows a 1e-9 relative slack.
    """
    p = P.period
    mat = me.materialize_periodic(P, (-p - 0.5, 2 * p + 0.5))
    grid = np.array([-p, 0.0, p, 2 * p])
    tr = propagate(mat, z, 0.0, initial, grid)
    norms = {t: math.hypot(abs(u), abs(du)) for t, u, du in zip(tr.grid, tr.u, tr.du)}
    lhs = math.hypot(abs(complex(initial[0])), abs(complex(initial[1])))
    rhs = 2.0 * max(norms[-p], norms[p], norms[2 * p])
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-9)
