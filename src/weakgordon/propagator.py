"""Transfer matrices and solution traces for -u'' + u mu = z u.

State convention: the canonical state at t is (u(t), u'(t+)) with the
right-continuous derivative.  An atom of weight w at x contributes the exact
factor [[1, 0], [w, 1]]; a constant effective potential q = rho - z over
length h contributes the even-in-sqrt(q) hyperbolic rotation; non-constant
polynomial pieces use a two-point Gauss Magnus step (4th order).  All factors
are traceless-exponentials or exact unipotents, so the Wronskian certificate
accumulates only factor-level rounding.

One walker, `_walk`, turns the stretch between two points into a flat list
of span factors plus a short list of marks: the atoms and the sample points,
each with the number of factors that precede it.  To the left the factors
are inverted and reversed.  Atom and constant factors are scalar closed
forms; only a walk with Magnus steps touches NumPy, evaluating all of them
in one pass (`_magnus_factors`).  A factor is a 4-tuple (F00, F01, F10, F11)
of Python complex numbers, and the grid enters as Python floats, so the
folds between marks are scalar arithmetic: `_transfer_along` folds the walk
into matrices, `transfer_matrix` included; `propagate` folds it into a
state vector and logs the atom jumps.  Both count what the walks applied
(`WalkStats`).
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import measure as me
from . import poly
from .errors import DomainError, ToleranceError
from .seminorm import interval_seminorm, window_seminorm

_SQRT3 = math.sqrt(3.0)
_EYE = (1 + 0j, 0j, 0j, 1 + 0j)
# n! as floats, the divisors of the cosh / sinh series of `_even_funcs`
_FACTORIALS = tuple(float(math.factorial(n)) for n in range(14))


@dataclass(frozen=True)
class WalkStats:
    """The factors a walk applied: atom jumps, closed-form constant pieces
    and Magnus steps.  Deterministic counts, no timings."""

    atoms: int = 0
    constant: int = 0
    magnus: int = 0

    def __add__(self, other):
        return WalkStats(self.atoms + other.atoms, self.constant + other.constant,
                         self.magnus + other.magnus)


@dataclass(frozen=True)
class TransferMatrix:
    entries: np.ndarray
    source: float
    target: float
    det_defect: float
    stats: WalkStats = WalkStats()

    def __matmul__(self, other):
        if abs(other.target - self.source) > 1e-12:
            raise DomainError("transfer matrices do not chain")
        return TransferMatrix(
            self.entries @ other.entries,
            other.source,
            self.target,
            self.det_defect + other.det_defect,
            self.stats + other.stats,
        )


@dataclass(frozen=True)
class SolutionTrace:
    grid: np.ndarray
    u: np.ndarray
    du: np.ndarray
    jump_log: tuple
    stats: WalkStats = WalkStats()


def spectral_shift(mu: me.LocalMeasure, z: complex) -> me.LocalMeasure:
    """The measure mu - z*lambda on mu's window (folds the spectral
    parameter into the potential)."""
    if z == 0:
        return mu
    lam = me.make_measure((), ((mu.lo, mu.hi, (-complex(z),)),), mu.window)
    return me.add_measures(mu, lam)


def _even_funcs(w2):
    """(cosh(sqrt(w2)), sinh(sqrt(w2))/sqrt(w2)) as even functions of w2."""
    if abs(w2) < 1e-4:
        c = 1.0 + 0j
        s = 1.0 + 0j
        term = 1.0 + 0j
        for k in range(1, 7):
            term = term * w2
            c += term / _FACTORIALS[2 * k]
            s += term / _FACTORIALS[2 * k + 1]
        return c, s
    r = cmath.sqrt(complex(w2))
    return cmath.cosh(r), cmath.sinh(r) / r


def _even_funcs_array(w2):
    """`_even_funcs` over a complex array, with the same series branch."""
    c = np.ones_like(w2)
    s = np.ones_like(w2)
    small = np.abs(w2) < 1e-4
    ws = w2[small]
    cs, ss, term = c[small], s[small], np.ones_like(ws)
    for k in range(1, 7):
        term = term * ws
        cs += term / _FACTORIALS[2 * k]
        ss += term / _FACTORIALS[2 * k + 1]
    c[small], s[small] = cs, ss
    big = ~small
    r = np.sqrt(w2[big])
    c[big], s[big] = np.cosh(r), np.sinh(r) / r
    return c, s


def _const_factor(q, h):
    w2 = q * h * h
    c, s = _even_funcs(w2)
    return (c, h * s, q * h * s, c)


def _magnus_factors(segments, runs, z):
    """4th-order Magnus steps across density pieces, all in one NumPy pass.

    A run (i, k, x0, h, n) is n steps of length h on segments[k], the first
    from the local offset x0 in that segment's variable (i is where the
    walk puts them).  Returns one factor per step, in order.
    """
    _, seg, x0, h, n = (np.array(v) for v in zip(*runs))
    step = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)  # step of its run
    h = np.repeat(h, n)
    x0 = np.repeat(x0, n) + step * h
    padded = [tuple(s.coeffs) + (0j,) * (me.MAX_DEGREE + 1 - len(s.coeffs)) for s in segments]
    coeffs = np.array(padded, dtype=complex)[np.repeat(seg, n)]

    def q_at(t):
        acc = coeffs[:, -1]
        for k in range(me.MAX_DEGREE - 1, -1, -1):
            acc = acc * t + coeffs[:, k]
        return acc - z

    q1 = q_at(x0 + (0.5 - _SQRT3 / 6.0) * h)
    q2 = q_at(x0 + (0.5 + _SQRT3 / 6.0) * h)
    qbar = 0.5 * (q1 + q2)
    delta = (_SQRT3 / 12.0) * h * h * (q1 - q2)
    # Omega = [[delta, h], [h*qbar, -delta]]; Omega^2 = (delta^2 + h^2 qbar) I
    w2 = delta * delta + h * h * qbar
    c, s = _even_funcs_array(w2)
    sh, sd = s * h, s * delta
    return list(zip((c + sd).tolist(), sh.tolist(), (sh * qbar).tolist(), (c - sd).tolist()))


def _inv_unimodular(F):
    return (F[3], -F[1], -F[2], F[0])


def _walk(mu, z, a, b, tol, markers=(), backward=False):
    """The one factor walk over [a, b], from a up to b or, with `backward`,
    from b down to a.

    Returns the span factors in walking order, the marks (i, x, w) and the
    walk's `WalkStats`.  A mark comes after the first i factors: an atom of
    weight w at x in (a, b], or a marker x with w None.  Walking left
    reverses the factors and inverts them, so a consumer always applies F
    on the left, and a marker at an atom sees (u(x), u'(x+)) both ways.
    """
    segments = mu.segments_meeting(a, b)
    atoms = dict(mu.atoms_in(a, b))
    samples = {x for x in markers if a <= x <= b}
    cut = sorted({a, b} | {max(s.start, a) for s in segments} | {min(s.end, b) for s in segments}
                 | atoms.keys() | samples)
    # a segment's constant density, or None where it needs Magnus steps
    consts = [c[0] if len(c) == 1 else None for c in (poly.trim(s.coeffs) for s in segments)]
    factors, marks = [], [(0, a, None)] if a in samples else []
    runs = []  # Magnus steps, as runs (first factor, segment, offset, step, count)
    k, last, root = 0, len(segments), tol**0.25
    for x0, x1 in zip(cut, cut[1:]):
        # segment ends are cuts: the covering segment is the first not ended
        while k < last and segments[k].end <= x0:
            k += 1
        h = x1 - x0
        if k == last or segments[k].start > x0:
            factors.append(_const_factor(-z, h))
        elif (q := consts[k]) is not None:
            factors.append(_const_factor(q - z, h))
        else:
            n = math.ceil(h / root) if h > root else 1
            runs.append((len(factors), k, x0 - segments[k].start, h / n, n))
            factors.extend(repeat(None, n))
        if x1 in atoms:
            marks.append((len(factors), x1, atoms[x1]))
        if x1 in samples:
            marks.append((len(factors), x1, None))
    steps = 0
    if runs:
        magnus = _magnus_factors(segments, runs, z)
        for i, _, _, _, n in runs:
            factors[i:i + n] = magnus[steps:steps + n]
            steps += n
    stats = WalkStats(len(atoms), len(factors) - steps, steps)
    if backward:
        n = len(factors)
        factors = list(map(_inv_unimodular, reversed(factors)))
        marks = [(n - i, x, w) for i, x, w in reversed(marks)]
    return factors, marks, stats


def transfer_matrix(mu, z, s, t, tol: float = 1e-8) -> TransferMatrix:
    """T(t, s) carrying (u(s), u'(s+)) to (u(t), u'(t+)).

    det_defect accumulates |det F - 1| over the elementary factors; each
    factor is an exact unipotent or a closed-form traceless exponential, so
    the certificate stays at rounding level per unit length.
    """
    if tol <= 0:
        raise DomainError(f"tol must be positive, got {tol}")
    lo, hi = min(s, t), max(s, t)
    if lo < mu.lo - 1e-12 or hi > mu.hi + 1e-12:
        raise DomainError(f"path [{lo}, {hi}] outside window {mu.window}")
    tmats, defect, stats = _transfer_along(mu, z, s, [t], tol)
    a, b, c, d = tmats[t]
    return TransferMatrix(np.array([[a, b], [c, d]]), s, t, defect, stats)


def propagate(mu, z, s, initial, grid, tol: float = 1e-8) -> SolutionTrace:
    """Solution trace with u(s) = initial[0], u'(s+) = initial[1].

    The grid must lie inside the window; s need not be a grid point.
    """
    grid = np.sort(np.asarray(grid, dtype=float), kind="stable")
    xs = grid.tolist()
    if not xs:
        raise DomainError("empty grid")
    if xs[0] < mu.lo - 1e-12 or xs[-1] > mu.hi + 1e-12:
        raise DomainError("grid not inside measure window")
    if not (xs[0] <= s <= xs[-1]):
        raise DomainError("s must lie in the grid range")
    s = float(s)
    state0 = (complex(initial[0]), complex(initial[1]))
    u, du = [0j] * len(xs), [0j] * len(xs)
    jumps, stats = [], WalkStats()
    k = bisect_left(xs, s)
    for side, backward in ((range(k, len(xs)), False), (range(k - 1, -1, -1), True)):
        if not side:
            continue
        markers = [xs[i] for i in side]
        factors, marks, walk_stats = _walk(mu, z, *sorted((s, markers[-1])), tol, markers, backward)
        stats += walk_stats
        v, dv = state0
        done = idx = 0
        for i, x, w in marks:
            for f00, f01, f10, f11 in factors[done:i]:
                v, dv = f00 * v + f01 * dv, f10 * v + f11 * dv
            done = i
            if w is not None:
                # walking left removes the jump; u'(x-) = u'(x+) - w u(x)
                jump = w * v
                jumps.append((x, w, jump))
                dv = dv - jump if backward else dv + jump
                continue
            while idx < len(markers) and abs(markers[idx] - x) <= 1e-12:
                u[side[idx]], du[side[idx]] = v, dv
                idx += 1
    jumps.sort(key=lambda j: j[0])
    return SolutionTrace(grid, np.array(u), np.array(du), tuple(jumps), stats)


def dirichlet_neumann(mu, z, s, t, tol: float = 1e-8):
    """(u_N(t,s), d1 u_N(t+,s), u_D(t,s), d1 u_D(t+,s)): the transfer columns."""
    T = transfer_matrix(mu, z, s, t, tol).entries
    return T[0, 0], T[1, 0], T[0, 1], T[1, 1]


# ---------------------------------------------------------------------------
# growth and derivative bounds


def gronwall_bound(mu, t, initial_norm: float) -> float:
    """Upper bound for |u(t)| + |u'(t+)| given |u(0)| + |u'(0+)|,
    with rate omega = ||mu||_unif + 1."""
    omega = me.norm_unif(mu) + 1.0
    return float(initial_norm) * math.exp(omega * (abs(t) + 1.0))


def sharp_growth_bound(mu, t, u0, du0) -> float:
    """Bound on (w^2 |u(t)|^2 + |u'(t+)|^2)^(1/2) with w = ||mu||_unif^(1/2).

    For mu = 0 the solution is affine and |u'| is constant; the exponential
    path is not taken.
    """
    w = math.sqrt(me.norm_unif(mu))
    if w == 0.0:
        return abs(complex(du0))
    amp = math.sqrt(w * w * abs(complex(u0)) ** 2 + abs(complex(du0)) ** 2)
    return amp * math.exp(w * (abs(t) + 0.5))


@dataclass(frozen=True)
class DerivativeChain:
    l2_du: float
    sup_du: float
    sup_u: float
    l2_u: float
    m_mu: float
    du_sup_bound: float
    holds: tuple


def derivative_sup_bound(mu, trace: SolutionTrace, interval) -> DerivativeChain:
    """Grid-resolved check of ||u'||_2 <= ||u'||_inf <= M ||u||_inf
    <= sqrt(3) M^(3/2) ||u||_2 on a unit interval, M = ||mu||_unif + 2.

    Sampled sup/L2 norms carry the trace resolution; the comparisons allow
    a 1e-9 relative slack for that.
    """
    a, b = float(interval[0]), float(interval[1])
    if abs((b - a) - 1.0) > 1e-9:
        raise DomainError(f"interval {interval} must have unit length")
    sel = (trace.grid >= a - 1e-12) & (trace.grid <= b + 1e-12)
    if not np.any(sel):
        raise DomainError("interval not resolved by the trace grid")
    xs = trace.grid[sel]
    us = trace.u[sel]
    dus = trace.du[sel]
    sup_u = float(np.max(np.abs(us)))
    sup_du = float(np.max(np.abs(dus)))
    for x, w, jump in trace.jump_log:
        if a <= x <= b:
            i = int(np.argmin(np.abs(xs - x)))
            if abs(xs[i] - x) <= 1e-12:
                sup_du = max(sup_du, abs(dus[i] - jump))  # left derivative
    l2_u = float(np.sqrt(np.trapezoid(np.abs(us) ** 2, xs)))
    l2_du = float(np.sqrt(np.trapezoid(np.abs(dus) ** 2, xs)))
    m = me.norm_unif(mu) + 2.0
    slack = 1.0 + 1e-9
    holds = (
        l2_du <= sup_du * slack + 1e-12,
        sup_du <= m * sup_u * slack + 1e-12,
        m * sup_u <= math.sqrt(3.0) * m**1.5 * l2_u * slack + 1e-12,
    )
    return DerivativeChain(l2_du, sup_du, sup_u, l2_u, m, m * sup_u, holds)


@dataclass(frozen=True)
class StabilityBound:
    constant: float
    c: float
    omega: float
    nu_norm: float
    u2_sup: float

    def __call__(self, t):
        return (
            self.constant
            * self.c
            * math.exp(self.omega * abs(t))
            * self.u2_sup
            * self.nu_norm
        )


def stability_bound(
    mu1,
    mu2,
    z,
    alpha: int,
    beta: int,
    u2_sup: float,
    c: float | None = None,
    omega: float | None = None,
    tol: float = 1e-6,
) -> StabilityBound:
    """Dominating function for |u1 - u2| on [alpha, beta] under the matched
    initial condition, from the weak seminorm of nu = mu1 - mu2.

    The constant is assembled as C0 * sum_{k>=1} 2k e^{-omega(k-1)} with
    C0 = 1 + (||mu2 - z lambda||_unif + 2)/omega; defaults (c, omega) =
    (e^omega, ||mu1 - z lambda||_unif + 1) always satisfy the exponential
    Dirichlet-derivative bound.
    """
    if not (float(alpha).is_integer() and float(beta).is_integer()):
        raise DomainError("alpha, beta must be integers")
    alpha, beta = int(alpha), int(beta)
    if alpha > -1 or beta < 1:
        raise DomainError("need alpha <= -1 and beta >= 1")
    if omega is None:
        omega = me.norm_unif(spectral_shift(mu1, z)) + 1.0
    if c is None:
        c = math.exp(omega)
    nu = me.subtract(mu1, mu2)
    nu_norm = interval_seminorm(nu, (alpha, beta), tol).upper
    m2 = me.norm_unif(spectral_shift(mu2, z))
    c0 = 1.0 + (m2 + 2.0) / omega
    big_c = c0 * 2.0 / (1.0 - math.exp(-omega)) ** 2
    return StabilityBound(big_c, c, omega, nu_norm, u2_sup)


# ---------------------------------------------------------------------------
# difference of solutions: matched initial condition and reconstruction


@dataclass(frozen=True)
class SolutionDifference:
    grid: np.ndarray
    v: np.ndarray
    v_reconstructed: np.ndarray
    u2_initial: tuple
    c_matching: complex
    max_mismatch: float


def _transfer_along(mu, z, base, points, tol):
    """T(x, base) for every x in sorted(points), one walk each direction,
    the summed |det F - 1| over the factors applied and the walks' stats."""
    points = sorted(set(float(p) for p in points) | {float(base)})
    out = {base: _EYE}
    defect, stats = 0.0, WalkStats()
    k = bisect_left(points, base)
    for side, backward in ((points[k + 1:], False), (points[:k][::-1], True)):
        if not side:
            continue
        factors, marks, walk_stats = _walk(mu, z, *sorted((float(base), side[-1])), tol, side,
                                           backward)
        stats += walk_stats
        t00, t01, t10, t11 = _EYE
        done = 0
        for i, x, w in marks:
            run, done = factors[done:i], i
            if w is not None:
                F = (1 + 0j, 0j, complex(w), 1 + 0j)
                run.append(_inv_unimodular(F) if backward else F)
            for f00, f01, f10, f11 in run:
                t00, t01, t10, t11 = (f00 * t00 + f01 * t10, f00 * t01 + f01 * t11,
                                      f10 * t00 + f11 * t10, f10 * t01 + f11 * t11)
                defect += abs(f00 * f11 - f01 * f10 - 1.0)
            if w is None:
                out[x] = (t00, t01, t10, t11)
    return out, defect, stats


_GL16 = np.polynomial.legendre.leggauss(16)
_GL8 = np.polynomial.legendre.leggauss(8)


def _panels(a, b, cuts):
    """Gauss panels over [a, b] split at interior cuts.

    Each panel carries a 16-point rule plus an 8-point companion whose
    disagreement estimates the quadrature error."""
    out = []
    pts = [a] + [c for c in sorted(set(cuts)) if a < c < b] + [b]
    for x0, x1 in zip(pts[:-1], pts[1:]):
        if x1 <= x0:
            continue
        n = max(1, int(math.ceil((x1 - x0) / 2.0)))
        for k in range(n):
            p0 = x0 + (x1 - x0) * k / n
            p1 = x0 + (x1 - x0) * (k + 1) / n
            half, mid = 0.5 * (p1 - p0), 0.5 * (p0 + p1)
            out.append(
                (
                    p0,
                    p1,
                    half * _GL16[0] + mid,
                    half * _GL16[1],
                    half * _GL8[0] + mid,
                    half * _GL8[1],
                )
            )
    return out


def _quad_nodes(a, b, cuts):
    """16-point Gauss nodes/weights over [a, b] split at interior cuts."""
    ps = _panels(a, b, cuts)
    if not ps:
        return np.array([]), np.array([])
    return np.concatenate([p[2] for p in ps]), np.concatenate([p[3] for p in ps])


def solution_difference(mu1, mu2, z, u1_initial, grid, tol: float = 1e-8):
    """Difference v = u1 - u2 under the matched initial condition
    u2(0) = u1(0), u2'(0+) = u1'(0+) + c u1(0) with c = c_{nu,0},
    together with its variation-of-constants reconstruction.
    """
    nu = me.subtract(mu1, mu2)
    if nu.lo > -1.0 or nu.hi < 1.0:
        raise DomainError("need [-1, 1] inside the common window for c_{nu,0}")
    c = window_seminorm(nu, 0.0).minimizer_c
    grid = np.asarray(sorted(float(g) for g in grid), dtype=float)
    if not (grid[0] <= 0.0 <= grid[-1]):
        raise DomainError("0 must lie in the grid range")
    tr1 = propagate(mu1, z, 0.0, u1_initial, grid, tol)
    u2_init = (complex(u1_initial[0]), complex(u1_initial[1]) + c * complex(u1_initial[0]))
    tr2 = propagate(mu2, z, 0.0, u2_init, grid, tol)
    v = tr1.u - tr2.u

    cuts = set(grid.tolist()) | {0.0} | set(mu1.breakpoints()) | set(mu2.breakpoints())
    panels = _panels(grid[0], grid[-1], cuts)
    node_list = sorted(
        set(np.concatenate([p[2] for p in panels]).tolist())
        | set(np.concatenate([p[4] for p in panels]).tolist())
        | set(grid.tolist())
    )
    tmats = _transfer_along(mu1, z, 0.0, node_list, tol)[0]
    tr2n = propagate(mu2, z, 0.0, u2_init, np.array(node_list), tol)
    u2v = dict(zip(node_list, tr2n.u))
    du2v = dict(zip(node_list, tr2n.du))
    phi_nu = {x: me.phi(nu, x) for x in node_list}

    def integrand(x, Tt_inv):
        # the second column of T1(s, t) = T1(s, 0) T1(t, 0)^-1
        t00, t01, t10, t11 = tmats[x]
        dud = t10 * Tt_inv[1] + t11 * Tt_inv[3]       # d1 u_D(s+, t)
        uD_ts = -(t00 * Tt_inv[1] + t01 * Tt_inv[3])  # u_D(t, s) = -u_D(s, t)
        return (-dud * u2v[x] + uD_ts * du2v[x]) * (c - phi_nu[x])

    def panel_sum(a, b, Tt_inv):
        # grid points and 0 are panel boundaries, so [a, b] is panel-aligned;
        # the 8-point companion rule estimates the quadrature error
        total = 0j
        err_est = 0.0
        for p0, p1, xs, ws, xs8, ws8 in panels:
            if p0 < a - 1e-12 or p1 > b + 1e-12:
                continue
            full = sum(w * integrand(x, Tt_inv) for x, w in zip(xs, ws))
            rough = sum(w * integrand(x, Tt_inv) for x, w in zip(xs8, ws8))
            total += full
            err_est += abs(full - rough)
        return total, err_est

    v_rec = np.zeros_like(v)
    scale = max(1.0, float(np.max(np.abs(v))))
    for i, t in enumerate(grid):
        if t == 0.0:
            v_rec[i] = 0.0
            continue
        a, b = (0.0, t) if t > 0 else (t, 0.0)
        Tt_inv = _inv_unimodular(tmats[t])
        total, err_est = panel_sum(a, b, Tt_inv)
        if err_est > max(tol, 1e-12) * scale * 100.0:
            raise ToleranceError(
                f"variation-of-constants quadrature error {err_est:.2e} "
                f"exceeds tolerance at t={t}"
            )
        v_rec[i] = total if t > 0 else -total
    mism = float(np.max(np.abs(v - v_rec))) if len(grid) else 0.0
    return SolutionDifference(grid, v, v_rec, u2_init, c, mism)


def variation_of_constants_value(mu1, mu2, z, tr1: SolutionTrace, tr2: SolutionTrace, s, t, tol=1e-8):
    """First component of T1(t,s) v(s) + int_s^t T1(t,r)(0, u2(r)) dnu(r),
    the variation-of-constants identity anchored at s."""
    nu = me.subtract(mu1, mu2)
    i_s = int(np.argmin(np.abs(tr1.grid - s)))
    if abs(tr1.grid[i_s] - s) > 1e-12:
        raise DomainError("s must be a trace grid point")
    v_s = np.array([tr1.u[i_s] - tr2.u[i_s], tr1.du[i_s] - tr2.du[i_s]])
    T_ts = transfer_matrix(mu1, z, s, t, tol).entries
    total = (T_ts @ v_s)[0]
    a, b = (s, t) if t >= s else (t, s)
    sign = 1.0 if t >= s else -1.0

    xs, ws = _quad_nodes(a, b, nu.breakpoints())
    node_list = sorted(set(xs.tolist()) | {float(a), float(b)} |
                       {x for x, _ in nu.atoms_in(a, b)})
    tmats = _transfer_along(mu1, z, 0.0, node_list + [t, 0.0], tol)[0]
    prop_nodes = np.array(sorted(set(node_list) | {float(tr2.grid[0])}))
    tr2n = propagate(mu2, z, tr2.grid[0], (tr2.u[0], tr2.du[0]), prop_nodes, tol)
    u2v = dict(zip(tr2n.grid.tolist(), tr2n.u))
    Tt_inv = _inv_unimodular(tmats[t])

    def uD_t_r(r):
        t00, t01, _, _ = tmats[r]
        return -(t00 * Tt_inv[1] + t01 * Tt_inv[3])

    for x, w in nu.atoms_in(a, b):
        total += sign * w * uD_t_r(x) * u2v[x]
    dens = 0j
    for x, w in zip(xs, ws):
        # Gauss nodes lie inside the panels, so at most one segment holds x
        rho = sum(seg.density_at(x) for seg in nu.segments_meeting(x, x))
        if rho != 0:
            dens += w * rho * uD_t_r(x) * u2v[x]
    total += sign * dens
    return total
