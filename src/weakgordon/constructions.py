"""Concrete constructions: quasiperiodic Liouville measures and the
sharpness measure whose operator attains the exclusion radius.

The sharpness eigenfunction is fixed on a discrete self-similar support set
(values are exact powers of two), continued between support points by
u'' = u arcs, and the pure-point potential is recovered from the derivative
jumps.  The gap schedule grows fast enough that the weighted translation
ratios decay already at weight C = 0.9 for the first three levels; see the
module functions for the closed forms used in the report.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import measure as me
from .errors import DomainError, ResourceError
from .propagator import transfer_matrix
from .seminorm import interval_seminorm

# l_m = GAP_FACTOR * m * (2(m-1) p_{m-1} + m): keeps the gap-to-period ratio
# below 1/(GAP_FACTOR m) and the weighted ratios decreasing at C = 0.9
GAP_FACTOR = 5

MAX_LEVELS = 5


# ---------------------------------------------------------------------------
# Liouville number via explosive continued fractions


@dataclass(frozen=True)
class LiouvilleAlpha:
    partial_quotients: tuple
    convergents: tuple  # Fractions p_m / q_m, m = 1..levels
    B: float

    @property
    def alpha(self) -> Fraction:
        """The working rational proxy: the highest stored convergent."""
        return self.convergents[-1]

    def approximation_certificate(self):
        """Exact-rational check |alpha - p_m/q_m| * m^(q_m) <= B for m < M."""
        alpha = self.alpha
        out = []
        for m, conv in enumerate(self.convergents[:-1], start=1):
            err = abs(alpha - conv)
            bound = err * (m ** conv.denominator)
            out.append((m, conv, bound, bound <= Fraction(int(self.B))))
        return out


def liouville_alpha(levels: int, bit_budget: int = 1_000_000) -> LiouvilleAlpha:
    """Continued fraction [0; a_1, a_2, ...] with a_1 = 1 and
    a_{m+1} = max(1, m^(q_m)), in exact integer arithmetic.

    The defining inequality |alpha - p_m/q_m| <= m^(-q_m) follows from
    |alpha - p_m/q_m| <= 1/(q_m q_{m+1}) <= 1/a_{m+1}, so B = 1.
    """
    if levels < 2:
        raise DomainError(f"need at least 2 levels, got {levels}")
    quotients = [1]
    # p_0/q_0 = 0/1; p_1/q_1 = 1/a_1
    p_prev, q_prev = 0, 1
    p_cur, q_cur = 1, quotients[0]
    convergents = [Fraction(p_cur, q_cur)]
    for m in range(1, levels):
        if q_cur.bit_length() >= 64:
            raise ResourceError(
                f"denominator q_{m} already has {q_cur.bit_length()} bits; "
                f"the next partial quotient would dwarf any budget"
            )
        bits_next = float(q_cur) * math.log2(max(m, 2))
        if bits_next > bit_budget:
            raise ResourceError(
                f"partial quotient at level {m + 1} needs ~{bits_next:.0f} bits, "
                f"budget {bit_budget}"
            )
        a = max(1, m**q_cur)
        quotients.append(a)
        p_cur, p_prev = a * p_cur + p_prev, p_cur
        q_cur, q_prev = a * q_cur + q_prev, q_cur
        convergents.append(Fraction(p_cur, q_cur))
    return LiouvilleAlpha(tuple(quotients), tuple(convergents), 1.0)


@dataclass(frozen=True)
class QuasiperiodicMeasure:
    measure: me.LocalMeasure
    alpha_proxy: Fraction
    part1: me.LocalMeasure  # the period-1 part on the window
    part2: me.LocalMeasure  # the alpha-periodic part on the window


def quasiperiodic_measure(
    base1: me.PeriodicMeasure,
    base2: me.PeriodicMeasure,
    alpha: LiouvilleAlpha,
    window,
    level: int | None = None,
    atom_budget: int = 200_000,
) -> QuasiperiodicMeasure:
    """mu = mu1 + mu2 with mu1 period-1 and mu2 rescaled to period alpha.

    alpha enters only through its exact rational proxy (a convergent); the
    proxy actually used is recorded in the result.
    """
    if abs(base1.period - 1.0) > 1e-12:
        raise DomainError("base1 must have period 1")
    proxy = alpha.convergents[-1 if level is None else level - 1]
    target = float(proxy)
    r = base2.period / target
    base2_scaled = me.PeriodicMeasure(me.scale(base2.base, r), base2.period / r)
    lo, hi = window
    n_copies = (hi - lo) * (1.0 + 1.0 / target)
    n_atoms = (len(base1.base.atoms) + len(base2.base.atoms)) * n_copies
    if n_atoms > atom_budget:
        raise ResourceError(
            f"window {window} needs ~{n_atoms:.0f} atoms, budget {atom_budget}"
        )
    m1 = me.materialize_periodic(base1, window)
    m2 = me.materialize_periodic(base2_scaled, window)
    return QuasiperiodicMeasure(me.add_measures(m1, m2), proxy, m1, m2)


# ---------------------------------------------------------------------------
# hyperbolic arcs: u'' = u between support points


def _arc_denominator(L):
    return -math.expm1(-2.0 * L)  # 1 - e^{-2L}, stable for all L > 0


def interior_solution(b: float, c: float, L: float, t: float) -> float:
    """The unique u'' = u interpolant with u(0) = b, u(L) = c, at 0 <= t <= L.

    Evaluated in the overflow-free form alpha e^{t-L} + beta e^{-t}.
    """
    if not (L > 0):
        raise DomainError(f"arc length must be positive, got {L}")
    alpha, beta = _arc_coefficients(b, c, L)
    return alpha * math.exp(t - L) + beta * math.exp(-t)


def interior_derivative(b: float, c: float, L: float, t: float) -> float:
    alpha, beta = _arc_coefficients(b, c, L)
    return alpha * math.exp(t - L) - beta * math.exp(-t)


def _arc_coefficients(b, c, L):
    """(alpha, beta) of the arc alpha e^{t-L} + beta e^{-t} from b to c."""
    d, e = _arc_denominator(L), math.exp(-L)
    return (c - e * b) / d, (b - c * e) / d


def _q_left(b: float, c: float, L: float) -> float:
    """u'(0+)/u(0) for the arc from b to c over length L.

    Scale invariant in (b, c); shared by every mass computation so that the
    mirror identity q_right(b,c,L) = -q_left(c,b,L) holds exactly in floats.
    """
    e = math.exp(-L)
    return (2.0 * (c / b) * e - (1.0 + e * e)) / (1.0 - e * e)


def mass_difference(b: float, c: float, L: float) -> float:
    """mu({0}) - mu({L}) for the four-point interchange configuration:
    (2 c/b - 2 b/c) / (e^L - e^{-L}), evaluated overflow-free."""
    if not (b > 0 and c > 0 and L > 0):
        raise DomainError("need b, c, L > 0")
    return 2.0 * (c / b - b / c) * math.exp(-L) / _arc_denominator(L)


def log_interchange_defect(m: int, l_m: float) -> float:
    """ln of (2*2^m - 2*2^-m) / (e^{l_m} - e^{-l_m}), valid for huge l_m."""
    return math.log(2.0 * 2.0**m - 2.0 * 2.0**-m) - l_m - math.log1p(
        -math.exp(-2.0 * l_m)
    )


# ---------------------------------------------------------------------------
# the sharpness construction


@dataclass(frozen=True)
class SharpnessConstruction:
    m_max: int
    lengths: tuple        # l_1..l_m_max
    periods: tuple        # p_1..p_m_max
    support: tuple        # ordered integer positions
    u_on_support: tuple   # exact powers of two
    masses: tuple         # derivative-jump masses at interior support points
    measure: me.LocalMeasure
    s_points: tuple       # s_m = (m-1) p_{m-1}
    t_points: tuple       # t_m = s_m + l_m

    def state_at(self, t: float):
        """(u(t), u'(t+)) of the eigenfunction, overflow-free."""
        xs = self.support
        us = self.u_on_support
        if t < xs[0] or t > xs[-1]:
            raise DomainError(f"t={t} outside the constructed support range")
        i = bisect_right(xs, t)
        if i > 0 and xs[i - 1] == t:
            x = xs[i - 1]
            u = us[i - 1]
            if i < len(xs):
                du = _q_left(u, us[i], xs[i] - x) * u
            else:
                du = -u  # decaying continuation beyond the last point
            return u, du
        x0, x1 = xs[i - 1], xs[i]
        b, c = us[i - 1], us[i]
        return (
            interior_solution(b, c, x1 - x0, t - x0),
            interior_derivative(b, c, x1 - x0, t - x0),
        )


def gap_lengths(m_max: int, gap_factor: int = GAP_FACTOR):
    """The (l_m, p_m) schedule: l_m = gap_factor*m*(2(m-1)p_{m-1} + m)."""
    lengths, periods = [], []
    p_prev = 0
    for m in range(1, m_max + 1):
        l = gap_factor * m * (2 * (m - 1) * p_prev + m)
        p = 2 * (m - 1) * p_prev + l
        lengths.append(l)
        periods.append(p)
        p_prev = p
    return lengths, periods


def sharpness_construction(m_max: int, gap_factor: int = GAP_FACTOR) -> SharpnessConstruction:
    """Build the pure-point measure with eigenvalue -1.

    The eigenfunction is pinned to u(j p_m + t) = 2^{-m|j|} u(t) on the
    self-similar support; atom masses are the u'-jump ratios computed from
    the shared arc-slope helper, so equal local geometries give bitwise
    equal masses.
    """
    if not (1 <= m_max <= MAX_LEVELS):
        raise ResourceError(f"m_max must be in [1, {MAX_LEVELS}], got {m_max}")
    lengths, periods = gap_lengths(m_max, gap_factor)

    exps = {0: 0}  # position -> exponent e with u = 2^{-e}
    for m in range(1, m_max + 1):
        p = periods[m - 1]
        prev = dict(exps)
        for j in range(-m, m + 1):
            for t, e in prev.items():
                x = j * p + t
                if abs(x) <= m * p and x not in exps:
                    exps[x] = m * abs(j) + e
    xs = sorted(exps)
    us = [2.0 ** (-exps[x]) for x in xs]

    masses = []
    for i in range(1, len(xs) - 1):
        m_val = _q_left(us[i], us[i + 1], xs[i + 1] - xs[i]) + _q_left(
            us[i], us[i - 1], xs[i] - xs[i - 1]
        )
        masses.append(m_val)
    atoms = [
        (float(x), m_val) for x, m_val in zip(xs[1:-1], masses) if m_val != 0.0
    ]
    window = (float(xs[0]), float(xs[-1]))
    measure = me.make_measure(atoms, (), window)

    # s_m = (m-1) * p_{m-1} with p_0 = 0
    s_list = []
    p_list = [0] + periods
    for m in range(1, m_max + 1):
        s_list.append(float((m - 1) * p_list[m - 1]))
    t_list = [s + l for s, l in zip(s_list, lengths)]
    return SharpnessConstruction(
        m_max,
        tuple(float(l) for l in lengths),
        tuple(float(p) for p in periods),
        tuple(float(x) for x in xs),
        tuple(us),
        tuple(masses),
        measure,
        tuple(s_list),
        tuple(t_list),
    )


# ---------------------------------------------------------------------------
# the sharpness report


@dataclass(frozen=True)
class SharpnessRow:
    m: int
    l: float
    p: float
    log_defect: float          # ln of the two-atom interchange value
    log_paper_bound: float     # ln(4) + m ln 2 - l_m
    log_weighted_ratio: float  # C p_m + log_defect
    measured_defect: tuple     # (lower, upper) bracket or None (m = 1)
    mass_diff_measured: float
    mass_diff_closed: float


@dataclass(frozen=True)
class SharpnessReport:
    C: float
    rows: tuple
    eigen_residual: float
    residual_window: tuple
    C_mu_estimate: float
    E_mu_estimate: float
    r_profile: tuple
    rate_tail: tuple  # (m, p_m, rate) closed-form tail beyond m_max


def eigen_residual(S: SharpnessConstruction, window, step: float = 0.5) -> float:
    """Sup over consecutive grid pairs of the re-anchored one-step
    propagation mismatch at z = -1.

    Each step starts from the closed-form state, crosses the constructed
    atoms, and is compared with the closed-form state at the next point;
    global propagation over the full window would condition like e^{|I|}
    and is not a meaningful check.
    """
    a, b = window
    if a <= S.support[0] or b >= S.support[-1]:
        # the outermost support points carry no atom in the truncation (their
        # outward arcs live at the next level), so the check must stay inside
        raise DomainError(f"window {window} not strictly inside the construction")
    grid = set(np.arange(a, b + step / 2, step).tolist())
    grid.update(x for x in S.support if a <= x <= b)
    grid.update(x + 0.5 for x in S.support if a <= x + 0.5 <= b)
    pts = sorted(grid)
    worst = 0.0
    for g0, g1 in zip(pts[:-1], pts[1:]):
        u0, du0 = S.state_at(g0)
        u1, du1 = S.state_at(g1)
        T = transfer_matrix(S.measure, -1.0, g0, g1)
        prop = T.entries @ np.array([u0, du0], dtype=complex)
        worst = max(worst, abs(prop[0] - u1), abs(prop[1] - du1))
    return worst


def rate_tail(m_from: int, m_to: int, gap_factor: int = GAP_FACTOR):
    """Closed-form Gordon rates -(1/p_m) ln defect_m for the gap schedule,
    m >= 2, evaluated in log space (valid far beyond materialisable m)."""
    out = []
    lengths, periods = gap_lengths(m_to, gap_factor)
    for m in range(max(m_from, 2), m_to + 1):
        l, p = lengths[m - 1], periods[m - 1]
        if p > 1e280:
            break
        out.append((m, float(p), -log_interchange_defect(m, float(l)) / p))
    return out


def sharpness_report(
    S: SharpnessConstruction,
    C: float,
    r_grid=None,
    tol: float = 1e-9,
    tail_to: int = 40,
) -> SharpnessReport:
    """Per-level defect table, eigen-residual and exclusion ingredients.

    Defect/rate columns for m >= 2 use the proven interchange closed form in
    log space (the materialised cross-check is the measured_defect bracket);
    the m = 1 row uses the constructed jump difference directly, since the
    four-point interchange hypothesis fails there.
    """
    if not 0 < C < 1:
        raise DomainError(f"need 0 < C < 1, got {C}")
    idx = {x: i for i, x in enumerate(S.support)}
    rows = []
    for m in range(1, S.m_max + 1):
        l, p = S.lengths[m - 1], S.periods[m - 1]
        s_m, t_m = S.s_points[m - 1], S.t_points[m - 1]
        d_meas = S.masses[idx[s_m] - 1] - S.masses[idx[t_m] - 1]
        d_closed = mass_difference(
            S.u_on_support[idx[s_m]], S.u_on_support[idx[t_m]], l
        )
        if m == 1:
            log_defect = math.log(abs(d_meas)) if d_meas != 0 else -math.inf
        else:
            log_defect = log_interchange_defect(m, l)
        # measured seminorm of mu - mu(.+p_m): the paper-identity interval for
        # m >= 2; for m = 1 that interval has empty interior, so the weak
        # Gordon definition interval [-p, p] is used instead
        nu = me.subtract(S.measure, me.translate(S.measure, p))
        iv = (-m * p, (m - 1) * p) if m >= 2 else (-p, p)
        meas = interval_seminorm(nu, iv, tol)
        rows.append(
            SharpnessRow(
                m,
                l,
                p,
                log_defect,
                math.log(4.0) + m * math.log(2.0) - l,
                C * p + log_defect,
                (meas.lower, meas.upper),
                d_meas,
                d_closed,
            )
        )

    half = 2 * S.periods[1] if S.m_max >= 2 else S.periods[0]
    half = min(half, S.support[-1] - 1.0)
    res_win = (-half, half)
    resid = eigen_residual(S, res_win)

    tail = rate_tail(2, tail_to)
    rates = [r for _, _, r in tail]
    if rows and math.isfinite(rows[0].log_defect):
        rates.append(-rows[0].log_defect / rows[0].p)
    c_est = max(rates)
    if r_grid is None:
        r_grid = [1.0] + [float(p) for p in S.periods[: min(2, S.m_max)]]
    profile = tuple((float(r), me.norm_unif(S.measure, float(r))) for r in r_grid)
    e_est = c_est * c_est - min(v for _, v in profile)
    return SharpnessReport(
        C, tuple(rows), resid, res_win, c_est, e_est, profile, tuple(tail)
    )


def eigenfunction_trace(S: SharpnessConstruction, window, step: float = 0.01):
    """Sampled (t, u(t)) arrays for plotting, with the values of `S.state_at`.

    The arc coefficients alpha, beta of `interior_solution` come once per
    arc; the samples then find their arcs by one search.  A sample on a support point takes its pinned value.  The
    sample exponentials go through `math.exp`, whose last bits can differ
    from `np.exp`.
    """
    a, b = window
    ts = np.arange(a, b + step / 2, step)
    xs = np.asarray(S.support)
    outside = (ts < xs[0]) | (ts > xs[-1])
    if outside.any():
        raise DomainError(f"t={ts[outside.argmax()]} outside the constructed support range")
    us = S.u_on_support
    alphas, betas = zip(*(_arc_coefficients(u0, u1, x1 - x0) for x0, x1, u0, u1
                          in zip(S.support, S.support[1:], us, us[1:])))
    i = np.searchsorted(xs, ts, "right") - 1
    arc = np.minimum(i, len(alphas) - 1)
    t = ts - xs[arc]
    n = ts.size
    values = (np.take(alphas, arc) * np.fromiter(map(math.exp, t - np.diff(xs)[arc]), float, n)
              + np.take(betas, arc) * np.fromiter(map(math.exp, -t), float, n))
    pinned = xs[i] == ts
    values[pinned] = np.take(us, i[pinned])
    return ts, values
