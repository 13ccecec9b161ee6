"""Transfer matrices and solution traces for -u'' + u mu = z u.

State convention: the canonical state at t is (u(t), u'(t+)) with the
right-continuous derivative.  An atom of weight w at x is one rule, the jump
u'(x+) - u'(x-) = w u(x) with u continuous, applied where the walk marks it.
A constant effective potential q = rho - z over length h gives the
even-in-sqrt(q) hyperbolic rotation; a non-constant polynomial piece gives
two-point Gauss Magnus steps (4th order).  Every factor is a traceless
exponential, so the Wronskian certificate accumulates only factor-level
rounding.

One walker, `_walk`, turns the stretch between two points into a flat list
of factors, one per cell, plus marks at the atoms and sample points; its
z-independent plan is kept on the measure, and per z it gathers each cell's
factor from a pool of the distinct ones.  A factor is a 4-tuple (F00, F01,
F10, F11) of Python complex numbers and the grid enters as Python floats, so
the folds are scalar arithmetic.  Each call makes one walk and folds it both
ways from its base's mark: `_transfer_along` into matrices, `transfer_matrix`
included, and `propagate` into the state after every cell.  Both apply each
atom's jump at its mark and count what the walk applied (`WalkStats`).

Both variation-of-constants checks, `solution_difference` (the by-parts
form) and `variation_of_constants_value` (the direct form), share one
set-up, `_voc_setup`: Gauss panels cut at every kink of u_D(t, .) and u2,
with T1 and u2 at their nodes from one walk of mu1 and one of mu2.
"""

from __future__ import annotations

import cmath
import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import count, repeat
from operator import itemgetter

import numpy as np

from . import measure as me
from .errors import DomainError, ResourceError, ToleranceError, check_tol
from .seminorm import interval_seminorm, window_seminorm

_SQRT3 = math.sqrt(3.0)
_EYE = (1 + 0j, 0j, 0j, 1 + 0j)
# n! as floats, the divisors of the cosh / sinh series of `_even_funcs`
_FACTORIALS = tuple(float(math.factorial(n)) for n in range(14))


@dataclass(frozen=True)
class WalkStats:
    """The factors a walk applied: atom jumps, closed-form constant pieces,
    Magnus steps and the runs they were folded into.  Deterministic counts."""

    atoms: int = 0
    constant: int = 0
    magnus: int = 0
    runs: int = 0

    def __add__(self, other):
        return WalkStats(self.atoms + other.atoms, self.constant + other.constant,
                         self.magnus + other.magnus, self.runs + other.runs)


@dataclass(frozen=True)
class TransferMatrix:
    entries: np.ndarray
    source: float
    target: float
    det_defect: float
    stats: WalkStats = WalkStats()

    def __matmul__(self, other):
        if abs(other.target - self.source) > me.span_slack(other.target, self.source):
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


def _magnus_steps(plan, z):
    """The entry arrays of the plan's 4th-order Magnus steps at z, in one
    NumPy pass (its temporaries are freed before the product tree starts)."""
    h = plan.h
    q1, q2 = plan.p1 - z, plan.p2 - z
    qbar = 0.5 * (q1 + q2)
    delta = (_SQRT3 / 12.0) * h * h * (q1 - q2)
    del q1, q2
    # Omega = [[delta, h], [h*qbar, -delta]]; Omega^2 = (delta^2 + h^2 qbar) I
    w2 = delta * delta + h * h * qbar
    c, s = _even_funcs_array(w2)
    sh, sd = s * h, s * delta
    return c + sd, sh, sh * qbar, c - sd


@dataclass(frozen=True)
class _MagnusPlan:
    """The z-independent part of `_magnus_factors`: p at both Gauss nodes
    of every step, the step lengths, each cell's first step and the product
    tree (its size, where each step goes, and per level the cut and the
    cells whose products are done)."""

    p1: np.ndarray
    p2: np.ndarray
    h: np.ndarray
    first: np.ndarray
    steps: int
    tree: tuple


def _magnus_plan(segments, seg, x0, x1, root):
    """The `_MagnusPlan` of the cells, one pass over their columns.

    Cell j runs from x0[j] to x1[j] on segments[seg[j]] in n = ceil((x1 -
    x0) / root) equal steps, at least one.  A product tree pads each cell
    with identities to its own power of two, and every cell goes up one
    level per pass; when every cell is one step the tree has height 0 and
    its product is the step itself.  More than `_MAX_MAGNUS_STEPS` steps in
    all raise ResourceError, counted before any step array is made.
    """
    seg, x0, length = np.array(seg), np.array(x0), np.array(x1) - x0
    x0 = x0 - np.array([s.start for s in segments])[seg]  # local offsets
    n = np.maximum(np.ceil(length / root), 1.0)
    total = n.sum()  # as a float: a count past int64 must not wrap before the check
    if total > _MAX_MAGNUS_STEPS:
        raise ResourceError(f"the walk needs {total:.3g} Magnus steps, budget {_MAX_MAGNUS_STEPS}")
    n = n.astype(np.int64)
    h, steps = length / n, int(total)
    padded = [tuple(s.coeffs) + (0j,) * (me.MAX_DEGREE + 1 - len(s.coeffs)) for s in segments]
    coeffs = np.array(padded, dtype=complex).T.copy()  # by degree: gathers from contiguous rows
    first = np.cumsum(n) - n
    step = np.arange(steps) - np.repeat(first, n)  # step of its cell
    h = np.repeat(h, n)
    piece, x0 = np.repeat(seg, n), np.repeat(x0, n) + step * h

    def p_at(t):  # the density at offset t of each step's piece
        acc = coeffs[-1][piece]
        for k in range(me.MAX_DEGREE - 1, -1, -1):
            acc = acc * t + coeffs[k][piece]
        return acc

    p1, p2 = p_at(x0 + (0.5 - _SQRT3 / 6.0) * h), p_at(x0 + (0.5 + _SQRT3 / 6.0) * h)
    # the largest padded size first, so each cell starts at a multiple of its size
    size = 1 << np.frexp(n - 1)[1]
    order = np.argsort(-size, kind="stable")
    size, ends = size[order], np.cumsum(size[order])
    start = np.empty_like(ends)
    start[order] = ends - size
    down, ends = (-size).tolist(), ends.tolist()
    levels, done, width = [], len(n), 1
    while True:
        # the cells of padded size width are down to their product, at the end
        live = bisect_left(down, -width)
        cut = ends[live - 1] // width if live else 0
        levels.append((cut, order[live:done] if live < done else None))
        if not live:
            return _MagnusPlan(p1, p2, h, first, steps,
                               (ends[-1], np.repeat(start, n) + step, tuple(levels)))
        done, width = live, 2 * width


def _magnus_factors(plan, z):
    """The Magnus steps of each cell at z, folded into one factor F_n ...
    F_1.  Returns the factors and each cell's summed |det F - 1|."""
    F = _magnus_steps(plan, z)
    defects = np.add.reduceat(np.abs(F[0] * F[3] - F[1] * F[2] - 1.0), plan.first).tolist()
    size, pos, levels = plan.tree
    level = [np.full(size, pad, dtype=complex) for pad in (1, 0, 0, 1)]
    for entries, f in zip(level, F):
        entries[pos] = f
    del F
    out = [np.empty(len(plan.first), dtype=complex) for _ in range(4)]
    for cut, done in levels:
        if done is not None:
            for product, entries in zip(out, level):
                product[done] = entries[cut:]
        if not cut:
            return list(zip(*(product.tolist() for product in out))), defects
        # each pair: the later factor b times the earlier a
        (a00, b00), (a01, b01), (a10, b10), (a11, b11) = ((e[0:cut:2], e[1:cut:2]) for e in level)
        level = [b00 * a00 + b01 * a10, b00 * a01 + b01 * a11,
                 b10 * a00 + b11 * a10, b10 * a01 + b11 * a11]


def _inv_unimodular(F):
    return (F[3], -F[1], -F[2], F[0])


@dataclass(frozen=True)
class _WalkPlan:
    """The z-independent part of a walk over [a, b] (see `_walk`): for each
    cell in walking order its index into the per-z pool, the distinct
    (density or None, length) of the constant cells, the `_MagnusPlan` of
    the Magnus cells, the marks walking right and the `WalkStats`."""

    source: list
    consts: list
    magnus: _MagnusPlan | None
    marks: tuple
    stats: WalkStats


def _walk_plan(mu, a, b, tol, samples):
    """The `_WalkPlan` over [a, b] with the sorted samples in it."""
    j = 1 if samples and samples[0] == a else 0
    marks = [(0, a, None)] if j else []
    # a constant cell's source is the number of its (segment or None, length),
    # one hash per piece; a Magnus cell's is None until the constants are counted
    source, keys, numbers = [], {}, {}
    segments, seg, starts, ends = {}, [], [], []  # the Magnus cells as columns
    for x0, x1, s, w in me.span_pieces(mu, a, b):
        j1, i = bisect_left(samples, x1, j), len(source)
        inner = samples[j:j1]  # the samples inside the piece cut it into cells
        if inner:
            marks += zip(range(i + 1, i + 1 + len(inner)), inner, repeat(None))
        pts = [x0, *inner, x1]
        if s is not None and any(s.coeffs[1:]):
            source += [None] * (len(pts) - 1)
            seg += [segments.setdefault(s, len(segments))] * (len(pts) - 1)
            starts += pts[:-1]
            ends += pts[1:]
        else:
            d = numbers.setdefault(s, len(numbers))
            source += [keys.setdefault((d, y - x), len(keys)) for x, y in zip(pts, pts[1:])]
        if w is not None:
            marks.append((len(source), x1, w))
        j = j1
        if j < len(samples) and samples[j] == x1:
            marks.append((len(source), x1, None))
            j += 1
    magnus = _magnus_plan(list(segments), seg, starts, ends, tol**0.25) if starts else None
    # the pool holds the constants, then the Magnus cells in walking order
    cells = count(len(keys))
    source = [next(cells) if k is None else k for k in source]
    stats = WalkStats(len(marks) - len(samples), len(source) - len(starts),
                      magnus.steps if starts else 0, len(starts))
    density = [None if s is None else s.coeffs[0] for s in numbers]
    return _WalkPlan(source, [(density[d], h) for d, h in keys], magnus, tuple(marks), stats)


# the walk plans a measure keeps (`LocalMeasure.walk_plans`), oldest dropped first
_PLANS_KEPT = 8
# the most Magnus steps of one call's walk: their arrays take about 200 bytes a step
_MAX_MAGNUS_STEPS = 1_000_000


def _walk(mu, z, a, b, tol, markers=()):
    """The one factor walk from a up to b.

    It runs in two stages.  The plan (`_walk_plan`) is all that does not
    depend on z, kept on mu for its path, tol and samples (the markers in
    [a, b]): the loop over the pieces between a, b, the segment ends and
    the atoms, where the samples inside a piece cut it into cells; the
    marks; each cell's index into the pool; the Magnus cells as columns
    with p at every step's Gauss nodes (`_magnus_plan`).  Per z the walk
    makes the pool, one constant factor per distinct (density, length) and
    then the product of each Magnus cell's steps (`_magnus_factors`), and
    gathers the factors from it, one per cell; every factor has the bits of
    a walk from scratch.

    Returns the factors in walking order, an iterator over their step
    defects (a Magnus cell's summed |det F - 1|, else None) that gathers
    them only as it is read, the marks (i, x, w) and the `WalkStats`.  A
    mark follows the first i factors: an atom of weight w at x, which is no
    factor but the jump u'(x+) - u'(x-) = w u(x), or a sample x (w None).
    At one x the atom comes first, so a sample sees (u(x), u'(x+)).  A fold
    from a sample's mark goes right over the factors after it and left over
    those before it, in reverse and each as its inverse (F11, -F01, -F10,
    F00), removing an atom's jump after the samples at its x.
    """
    samples = sorted(dict.fromkeys(markers))  # linear for markers in either order
    samples = samples[bisect_left(samples, a):bisect_right(samples, b)]
    # the bytes tell 0.0 from -0.0, which the marks carry
    key = array("d", (a, b, tol, *samples)).tobytes()
    plan = mu.walk_plans.get(key)
    if plan is None:
        plan = _walk_plan(mu, a, b, tol, samples)
        if len(mu.walk_plans) >= _PLANS_KEPT:
            del mu.walk_plans[next(iter(mu.walk_plans))]
        mu.walk_plans[key] = plan
    pool = [_const_factor(-z if d is None else d - z, h) for d, h in plan.consts]
    defects = [None] * len(pool)
    if plan.magnus is not None:
        F, d = _magnus_factors(plan.magnus, z)
        pool += F
        defects += d
    factors = list(map(pool.__getitem__, plan.source))
    return factors, map(defects.__getitem__, plan.source), plan.marks, plan.stats


def transfer_matrix(mu, z, s, t, tol: float = 1e-8) -> TransferMatrix:
    """T(t, s) carrying (u(s), u'(s+)) to (u(t), u'(t+)).

    det_defect accumulates |det F - 1| over the elementary factors, each
    Magnus step rather than the run it is folded into; each factor is a
    closed-form traceless exponential and each atom a jump (no factor), so
    the certificate stays at rounding level per unit length.
    """
    check_tol(tol)
    mu.check_span(min(s, t), max(s, t), "path")
    tmats, defect, stats = _transfer_along(mu, z, s, [t], tol)
    a, b, c, d = tmats[t]
    return TransferMatrix(np.array([[a, b], [c, d]]), s, t, defect, stats)


def transfer_steps(mu, z, points, tol: float = 1e-8):
    """T(x1, x0) as a 2x2 array for each pair x0 < x1 of consecutive points,
    from one forward walk whose fold restarts at every point: each is the
    product of the factors of transfer_matrix(mu, z, x0, x1), in its order."""
    check_tol(tol)
    xs = sorted(set(map(float, points)))
    if not xs:
        raise DomainError("no points")
    mu.check_span(xs[0], xs[-1], "points")
    tmats = _transfer_along(mu, z, xs[0], xs[1:], tol, restart=True)[0]
    return [np.array([[a, b], [c, d]]) for a, b, c, d in map(tmats.get, xs[1:])]


def propagate(mu, z, s, initial, grid, tol: float = 1e-8) -> SolutionTrace:
    """Solution trace with u(s) = initial[0], u'(s+) = initial[1].

    The grid must lie inside the window; s need not be a grid point.  One
    walk over the grid, with s a sample, is folded from s's mark leftward
    and rightward, recording the state after every cell; each grid point
    reads the state at its mark, and each atom applies its jump at its own.
    """
    check_tol(tol)
    grid = np.sort(np.asarray(grid, dtype=float), kind="stable")
    xs = grid.tolist()
    if not xs:
        raise DomainError("empty grid")
    mu.check_span(xs[0], xs[-1], "grid")
    if not (xs[0] <= s <= xs[-1]):
        raise DomainError("s must lie in the grid range")
    s = float(s)
    state0 = (complex(initial[0]), complex(initial[1]))
    factors, _, marks, stats = _walk(mu, z, xs[0], xs[-1], tol, [s, *xs])
    k = bisect_right(marks, s, key=itemgetter(1)) - 1  # s's sample, after any atom at s
    base = marks[k][0]
    # walking left, each factor applies as its inverse and an atom's jump is
    # removed after the samples at its x have read the state; an atom at s
    # is logged at s, where the leftward path starts (0.0 may meet -0.0)
    (v, dv), left, jumps, done = state0, [state0], [], base
    for i, x, w in [*(m for m in reversed(marks[:k]) if m[2] is not None), (0, None, None)]:
        for f00, f01, f10, f11 in reversed(factors[i:done]):
            v, dv = f11 * v + -f01 * dv, -f10 * v + f00 * dv
            left.append((v, dv))
        if w is not None:
            done, jump = i, w * v
            jumps.insert(0, (s if x == s else x, w, jump))
            dv = dv - jump
    # walking right, an atom's jump replaces the state recorded at its cell
    (v, dv), right, done = state0, [], base
    for i, x, w in [*(m for m in marks[k + 1:] if m[2] is not None), (len(factors), None, None)]:
        for f00, f01, f10, f11 in factors[done:i]:
            v, dv = f00 * v + f01 * dv, f10 * v + f11 * dv
            right.append((v, dv))
        if w is not None:
            done, jump = i, w * v
            jumps.append((x, w, jump))
            dv = dv + jump
            right[-1] = (v, dv)
    states, at = left[::-1] + right, {x: i for i, x, w in marks if w is None}
    u, du = zip(*[states[at[x]] for x in xs])
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
    a 1e-9 relative slack for that.  Grid points and atoms are matched to
    the interval up to its `measure.span_slack`.
    """
    a, b = float(interval[0]), float(interval[1])
    if abs((b - a) - 1.0) > 1e-9:
        raise DomainError(f"interval {interval} must have unit length")
    room = me.span_slack(a, b)
    sel = (trace.grid >= a - room) & (trace.grid <= b + room)
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
            if abs(xs[i] - x) <= room:
                sup_du = max(sup_du, abs(dus[i] - jump))  # left derivative
    l2_u = float(np.sqrt(np.trapezoid(np.abs(us) ** 2, xs)))
    l2_du = float(np.sqrt(np.trapezoid(np.abs(dus) ** 2, xs)))
    m = me.norm_unif(mu) + 2.0
    slack = 1.0 + 1e-9
    holds = (
        l2_du <= sup_du * slack,
        sup_du <= m * sup_u * slack,
        m * sup_u <= math.sqrt(3.0) * m**1.5 * l2_u * slack,
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


def stability_bound(mu1, mu2, z, alpha: int, beta: int, u2_sup: float,
                    tol: float = 1e-6) -> StabilityBound:
    """Dominating function for |u1 - u2| on [alpha, beta] under the matched
    initial condition, from the weak seminorm of nu = mu1 - mu2.

    The constant is assembled as C0 * sum_{k>=1} 2k e^{-omega(k-1)} with
    C0 = 1 + (||mu2 - z lambda||_unif + 2)/omega, where (c, omega) =
    (e^omega, ||mu1 - z lambda||_unif + 1) satisfy the exponential
    Dirichlet-derivative bound; the result records both.
    """
    if not (float(alpha).is_integer() and float(beta).is_integer()):
        raise DomainError("alpha, beta must be integers")
    alpha, beta = int(alpha), int(beta)
    if alpha > -1 or beta < 1:
        raise DomainError("need alpha <= -1 and beta >= 1")
    omega = me.norm_unif(spectral_shift(mu1, z)) + 1.0
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


def _transfer_along(mu, z, base, points, tol, restart=False):
    """T(x, base) for every x in sorted(points), one walk folded from base's
    mark rightward, then leftward; the summed |det F - 1| over the elementary
    factors and the walk's stats.  With `restart`, T(x, the point before x)."""
    points = sorted(set(float(p) for p in points) | {float(base)})
    factors, defects, marks, stats = _walk(mu, z, points[0], points[-1], tol, points)
    defects = list(defects)
    k = bisect_right(marks, base, key=itemgetter(1)) - 1  # base's sample, after any atom there
    out, defect = {base: _EYE}, 0.0
    for left in (False, True):
        (t00, t01, t10, t11), done = _EYE, marks[k][0]
        for i, x, w in reversed(marks[:k]) if left else marks[k + 1:]:
            cells = (zip(map(_inv_unimodular, reversed(factors[i:done])), reversed(defects[i:done]))
                     if left else zip(factors[done:i], defects[done:i]))
            for (f00, f01, f10, f11), d in cells:
                t00, t01, t10, t11 = (f00 * t00 + f01 * t10, f00 * t01 + f01 * t11,
                                      f10 * t00 + f11 * t10, f10 * t01 + f11 * t11)
                defect += abs(f00 * f11 - f01 * f10 - 1.0) if d is None else d
            done = i
            if w is not None:  # the jump `propagate` applies, on both columns
                if left:
                    t10, t11 = t10 - w * t00, t11 - w * t01
                else:
                    t10, t11 = t10 + w * t00, t11 + w * t01
                continue
            out[x] = (t00, t01, t10, t11)
            if restart:
                t00, t01, t10, t11 = _EYE
    return out, defect, stats


_GL16 = np.polynomial.legendre.leggauss(16)
_GL8 = np.polynomial.legendre.leggauss(8)


def _voc_setup(mu1, mu2, z, anchor, state, a, b, points, tol):
    """The one variation-of-constants set-up over [a, b], anchor in [a, b].

    Panels of length at most 2 are cut at a, b, the anchor, the points and
    the breakpoints of mu1 and mu2, where u_D(t, .) and u2 have kinks.
    Returns the panel edges, the 16-point rule and its 8-point companion
    (node and weight arrays, one row per panel) and a dict x -> (T1(x,
    anchor) entries, u2(x), u2'(x+)) over every node, edge and point, from
    one walk of mu1 and one propagation of mu2 from `state` at the anchor.
    """
    check_tol(tol)
    inner = {x for x in mu1.breakpoints() + mu2.breakpoints() if a < x < b}
    cuts = sorted({a, b, anchor, *points} | inner)
    edges = []
    for x0, x1 in zip(cuts, cuts[1:]):
        n = max(1, math.ceil((x1 - x0) / 2.0))  # (x1 - x0) / 2 may round to 0
        edges += [x0 + (x1 - x0) * k / n for k in range(n)]
    edges = np.array(edges + cuts[-1:])
    half, mid = 0.5 * np.diff(edges)[:, None], 0.5 * (edges[:-1] + edges[1:])[:, None]
    rules = [(half * x + mid, half * w) for x, w in (_GL16, _GL8)]
    nodes = sorted({*edges.tolist(), *points, *(x for xs, _ in rules for x in xs.ravel().tolist())})
    tmats = _transfer_along(mu1, z, anchor, nodes, tol)[0]
    tr2 = propagate(mu2, z, anchor, state, nodes, tol)
    return edges, rules, {x: (*tmats[x], u, du) for x, u, du in zip(nodes, tr2.u, tr2.du)}


def _gather(at, xs):
    """The set-up's (T00, T01, T10, T11, u2, u2') at the nodes xs, as six
    arrays of xs's shape."""
    return np.array([at[x] for x in xs.ravel().tolist()], dtype=complex).T.reshape(6, *xs.shape)


def solution_difference(mu1, mu2, z, u1_initial, grid, tol: float = 1e-8):
    """Difference v = u1 - u2 under the matched initial condition
    u2(0) = u1(0), u2'(0+) = u1'(0+) + c u1(0) with c = c_{nu,0},
    together with its variation-of-constants reconstruction.  Both read
    T1(t, 0) and u2 off the one set-up, so u1(t) = T1(t, 0) u1(0).
    """
    grid = np.sort(np.asarray(grid, dtype=float))
    if not len(grid):
        raise DomainError("empty grid")
    if not (grid[0] <= 0.0 <= grid[-1]):
        raise DomainError("0 must lie in the grid range")
    nu = me.subtract(mu1, mu2)
    nu.check_span(-1.0, 1.0, "the window of c_{nu,0}")
    c = window_seminorm(nu, 0.0).minimizer_c
    u0, du0 = complex(u1_initial[0]), complex(u1_initial[1])
    u2_init = (u0, du0 + c * u0)
    pts = grid.tolist()
    edges, rules, at = _voc_setup(mu1, mu2, z, 0.0, u2_init, pts[0], pts[-1], pts, tol)
    t00, t01, _, _, u2, _ = _gather(at, grid)
    v = t00 * u0 + t01 * du0 - u2

    # the by-parts integrand is A P1 + B P2, with (A, B) = (-T01, T00) the
    # second column of T1(t, 0)^-1: two sums per panel and rule
    sums = []
    for xs, ws in rules:
        r00, r01, r10, r11, u2, du2 = _gather(at, xs)
        g = c - np.array([me.phi(nu, x) for x in xs.ravel().tolist()]).reshape(xs.shape)
        sums.append((ws * (-(r10 * u2 + r00 * du2) * g)).sum(1))
        sums.append((ws * (-(r11 * u2 + r01 * du2) * g)).sum(1))
    p1, p2, q1, q2 = sums
    # the panels between 0 and t; grid points and 0 are edges
    k, k0 = np.searchsorted(edges, grid), np.searchsorted(edges, 0.0)
    p = np.arange(len(edges) - 1)
    between = (np.minimum(k, k0)[:, None] <= p) & (p < np.maximum(k, k0)[:, None])
    A, B = -t01, t00
    v_rec = np.where(grid < 0, -1.0, 1.0) * (A * (between * p1).sum(1) + B * (between * p2).sum(1))
    # the 8-point companion estimates each panel's quadrature error
    err = (between * np.abs(A[:, None] * (p1 - q1) + B[:, None] * (p2 - q2))).sum(1)
    scale = max(1.0, float(np.max(np.abs(v))))
    bad = err > max(tol, 1e-12) * scale * 100.0
    if bad.any():
        i = int(np.argmax(bad))
        raise ToleranceError(
            f"variation-of-constants quadrature error {err[i]:.2e} "
            f"exceeds tolerance at t={grid[i]}"
        )
    return SolutionDifference(grid, v, v_rec, u2_init, c, float(np.max(np.abs(v - v_rec))))


def variation_of_constants_value(mu1, mu2, z, tr1: SolutionTrace, tr2: SolutionTrace, s, t, tol=1e-8):
    """First component of T1(t,s) v(s) + int_s^t T1(t,r)(0, u2(r)) dnu(r),
    the variation-of-constants identity anchored at s, which must be a grid
    point of tr1, and of tr2 at the same index, up to the
    `measure.span_slack` of [s, t]."""
    nu = me.subtract(mu1, mu2)
    i_s = int(np.argmin(np.abs(tr1.grid - s)))
    room = me.span_slack(s, t)
    if abs(tr1.grid[i_s] - s) > room:
        raise DomainError("s must be a trace grid point")
    if i_s >= len(tr2.grid) or abs(tr2.grid[i_s] - s) > room:
        raise DomainError("s must be a grid point of tr2 at its index in tr1")
    s, t = float(s), float(t)
    a, b = min(s, t), max(s, t)
    _, ((xs, ws), _), at = _voc_setup(mu1, mu2, z, s, (tr2.u[i_s], tr2.du[i_s]), a, b, (), tol)
    T00, T01 = at[t][:2]
    total = T00 * (tr1.u[i_s] - tr2.u[i_s]) + T01 * (tr1.du[i_s] - tr2.du[i_s])
    sign = 1.0 if t >= s else -1.0
    # u_D(t, r) = T1(t, r)_01 with T1(t, r) = T1(t, s) T1(r, s)^-1
    for x, w in nu.atoms_in(a, b):
        r00, r01, _, _, u2, _ = at[x]
        total += sign * w * (T01 * r00 - T00 * r01) * u2
    r00, r01, _, _, u2, _ = _gather(at, xs)
    # Gauss nodes lie inside the panels, so at most one segment holds x
    rho = np.array([sum(seg.density_at(x) for seg in nu.segments_meeting(x, x))
                    for x in xs.ravel().tolist()], dtype=complex).reshape(xs.shape)
    return total + sign * (ws * rho * (T01 * r00 - T00 * r01) * u2).sum()
