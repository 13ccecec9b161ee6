"""Weak Gordon seminorm ||mu||_I via the primitive characterisation.

For a real measure on a window [a-1, a+1] the seminorm equals
min_c int |phi_mu - c| dt, with any Lebesgue median of phi_mu as minimiser;
the tie-break is the smallest median.  For complex measures only the
two-sided bracket [M/2, M] is available, where M = min over complex c, the
geometric median of the curve phi.  M comes from damped Newton steps
started at the componentwise median c_med (`_geometric_median`): constant
pieces of phi are point terms in closed form, the others are steered by
one unchecked Gauss pass for the gradient and Hessian.  The solver stops
when the Newton decrement reaches the rounding level of M, or at a point
term that passes the subgradient test.  Every reported M is a converged
`poly.integral_abs` of |phi - c| at the reported c, and M/2 is a lower
bound because c_med alone proves it, however far the solver got.

The smallest median comes from one sweep: each polynomial piece of phi is
split once, at its critical points, into monotone branches and constant
steps, so the sublevel measure S(c) = |{phi <= c}| is a sum of branch
inverses (closed form up to degree 2, bracketed Newton above).  A binary
search over the sorted branch-end values finds the bracket where S crosses
half the window length; inside it the closed form (every active branch
affine) or Newton on S, with S' = sum 1/|phi'|, closes the bracket to 2 ulp.
That c is the reported median, with no threshold that could move it, so a
real window value is homogeneous: N(lambda mu) = |lambda| N(mu).  The split
is `poly.branches`, and the value int |phi - c| is summed over its branches.

Interval seminorms (|I| > 2) take a certified supremum over all admissible
windows in one sweep over the window centres a, cut at the events where
a - 1 or a + 1 meets a breakpoint.  On a cell where a real measure's
windows meet only atoms, phi is a staircase whose level lengths are affine
in a, so N(a) is the minimum of one affine function per level: concave,
with its maximum at a vertex of the envelope, found exactly.  The exact
cells of a sweep are evaluated together: one NumPy pass gives the level
distances of every cell, and their envelope walks step together, one
vertex per round.  The other cells (touching a density, or of a complex
measure) are refined by branch-and-bound over one list of nodes, taken
breadth first.  Each node is bounded once, at its turn, against the cutoff
of that moment: by the Lipschitz constant |mu|((a1-1, a2+1]) local to the
node, then, while the bound is above the cutoff, by the sliding unit-mass
bound ||mu||_{[a-1,a+1]} <= sup_t |mu|((t, t+1]) and by the sliding sup of
|phi - c|.  Each of these masses and sliding sups is a query to a
`measure.SlidingMass`: one of |mu| per call (`measure.abs_mass`), and one
on the nonnegative pieces of |phi - c| (`_l1_pieces`) per incumbent c.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from . import measure as me
from . import poly
from .errors import DomainError, ToleranceError, check_tol


@dataclass(frozen=True)
class SeminormCertificate:
    grid_step: float
    lipschitz: float
    error_bound: float


@dataclass(frozen=True)
class SeminormStats:
    """Work of a seminorm query, in deterministic counts (no timings):
    - the complex geometric-median solver's accepted Newton steps and
      converged L1 scores of |phi - c| (the score at the componentwise
      median included), summed over windows; 0 for real measures;
    - the exact staircase cells of an interval sweep and the lower-envelope
      vertices their walks passed; 0 for a single window."""

    median_steps: int = 0
    l1_evaluations: int = 0
    exact_cells: int = 0
    envelope_vertices: int = 0

    def __add__(self, other):
        return SeminormStats(self.median_steps + other.median_steps,
                             self.l1_evaluations + other.l1_evaluations,
                             self.exact_cells + other.exact_cells,
                             self.envelope_vertices + other.envelope_vertices)


@dataclass(frozen=True)
class SeminormResult:
    lower: float
    upper: float
    minimizer_c: complex
    witness_window: tuple
    certificate: SeminormCertificate
    stats: SeminormStats = SeminormStats()

    @property
    def width(self):
        return self.upper - self.lower


def _phi_offset(mu, wlo):
    """phi_mu(wlo) when 0 lies in the measure window, else 0 (c is then
    reported relative to the cumulative from the window edge)."""
    if mu.lo <= 0.0 <= mu.hi:
        return me.phi(mu, wlo)
    return 0j


# ---------------------------------------------------------------------------
# exact real median (one sweep over monotone branches) and L1 distance


def _l1(pieces, c):
    """int |phi - c| over the pieces of phi, real or complex."""
    return sum(
        poly.integral_abs(poly.add(coeffs, (-c,)), 0.0, t1 - t0)
        for t0, t1, coeffs in pieces
    )


def _l1_parts(parts, c):
    """int |phi - c| over the monotone parts of a real phi."""
    return sum(br.integral_abs(c) for *_, br in parts)


def _monotone_parts(pieces):
    """(vlo, vhi, length, branch) for the `poly.branches` of the real part
    of each piece, in piece order: steps (vlo == vhi) and monotone
    branches."""
    return [(min(br.va, br.vb), max(br.va, br.vb), br.xb - br.xa, br)
            for t0, t1, coeffs in pieces for br in poly.branches(coeffs, 0.0, t1 - t0)]


def _sublevel(parts, c):
    """Lebesgue measure S(c) of {phi <= c} and its derivative in c."""
    total = slope = 0.0
    for vlo, vhi, length, br in parts:
        if c >= vhi:
            total += length
        elif c > vlo:
            x, dp = br.crossing(c)
            total += x - br.xa if br.vb > br.va else br.xb - x
            slope += 1.0 / abs(dp) if dp else math.inf
    return total, slope


def _smallest_median(parts, half):
    """Smallest c with lebesgue{phi <= c} >= half (the lower quantile), from
    the `_monotone_parts` of phi.

    Binary search over the sorted branch-end values finds the bracket where
    S crosses half; inside it S is a sum of branch inverses, solved by
    bracketed Newton from the closed form when every active branch is
    affine.  A step function ends at a level of the search, a constant phi
    at its one event.
    """
    events = sorted({v for vlo, vhi, _, _ in parts for v in (vlo, vhi)})
    i, j, s_lo = -1, len(events) - 1, 0.0
    while j - i > 1:
        m = (i + j) // 2
        s = _sublevel(parts, events[m])[0]
        if s >= half:
            j = m
        else:
            i, s_lo = m, s
    c = events[j]
    if j > 0:
        lo = events[j - 1]
        # steps (vlo == vhi) cannot span [lo, c]
        active = [br for vlo, vhi, _, br in parts if vlo <= lo and vhi >= c]
        below = math.nextafter(c, lo)
        # S jumps past half at c (a step there) unless it already holds below
        if active and below > lo and _sublevel(parts, below)[0] >= half:
            if all(len(br.coeffs) == 2 for br in active):
                x0 = lo + (half - s_lo) / sum(1.0 / abs(br.coeffs[1]) for br in active)
            else:
                x0 = 0.5 * (lo + below)

            def excess(y):
                s, ds = _sublevel(parts, y)
                return s - half, ds

            c = poly.bracketed_newton(excess, lo, below, x0)
    return c


# ---------------------------------------------------------------------------
# complex case: geometric median of phi


# panel bisections of the unchecked Gauss pass that steers the Newton
# solver, and the cap on its steps
_STEER_PANELS = 64
_MAX_NEWTON = 100
_EPS = math.ulp(1.0)


# The rows of the steering integrands are shifted to lie between one and
# three times a positive weight (1 or 1/|v|): each row then has the size of
# its weight's integral, and the relative test of `gauss_integral`, applied
# row by row, needs no row to resolve a cancellation.


def _unit(v):
    """Rows 2 + u_x, 2 + u_y of u = v / |v| at the nodes (u = 0 where v is)."""
    inv = 1.0 / np.maximum(np.abs(v), 1e-300)
    return np.array([2.0 + v.real * inv, 2.0 + v.imag * inv])


def _unit_and_curvature(v):
    """The rows of `_unit`, then 1 / |v|, (1 + u_y^2) / |v| and
    (1 + u_x u_y) / |v|: the trace, h_xx and -h_xy of (I - u u^T) / |v|
    each shifted by the trace."""
    inv = 1.0 / np.maximum(np.abs(v), 1e-300)
    ux, uy = v.real * inv, v.imag * inv
    return np.array([2.0 + ux, 2.0 + uy, inv, (1.0 + uy * uy) * inv, (1.0 + ux * uy) * inv])


def _steer_integral(q, fn, max_panels):
    """int_0^1 fn(q(x)) dx by `gauss_integral` on halves of the stretches
    between the critical points of |q|^2, each half in a variable that starts
    at its critical point.  Next to a point of the curve close to c, u turns
    at a rate up to |q'| / |q|; nodes rounded to the spacing of floats at the
    far end of a stretch would put noise above the relative test into every
    panel there."""
    total = 0.0
    for a, b in pairwise(poly.abs_critical_points(q, 0.0, 1.0)):
        m = 0.5 * (a + b)
        if m > a:
            total = total + poly.gauss_integral(
                poly.shift_origin(q, a), 0.0, m - a, fn, max_panels)[0]
        if b > m:
            flip = tuple(v if k % 2 == 0 else -v for k, v in enumerate(poly.shift_origin(q, b)))
            total = total + poly.gauss_integral(flip, 0.0, b - m, fn, max_panels)[0]
    return total


def _newton_terms(points, curves, c, fn, max_panels):
    """(gradient, Hessian (h_xx, h_xy, h_yy), w) of
    F(c) = sum_k w_k |y_k - c| + sum L int_0^1 |q - c| at c, the gradient
    as a complex number; w is the weight of a point term at c itself, which
    is left out of both.  The curves (q, L) are taken on [0, 1] and the
    integrals are `_steer_integral` passes of fn (`_unit`: the gradient
    only) with at most max_panels bisections."""
    g, h, w_at = 0j, [0.0, 0.0, 0.0], 0.0
    for y, w in points.items():
        d = y - c
        if d == 0:
            w_at = w
            continue
        r = max(abs(d), 1e-300)
        ux, uy = d.real / r, d.imag / r
        g -= w * complex(ux, uy)
        h[0] += w * uy * uy / r
        h[1] -= w * ux * uy / r
        h[2] += w * ux * ux / r
    for q, L in curves:
        v = (L * _steer_integral(poly.add(q, (-c,)), fn, max_panels)).tolist()
        g -= complex(v[0] - 2.0 * L, v[1] - 2.0 * L)
        if len(v) > 2:
            trace, hxx = v[2], v[3] - v[2]
            h[0] += hxx
            h[1] += trace - v[4]
            h[2] += trace - hxx
    return g, h, w_at


def _directions(g, h, w_at, reach):
    """[(step, decrease)] from c, each step at most `reach` long, with the
    decrease of F to first order along it, -g.step - w_at |step|.

    The Newton step comes first, then the Weiszfeld step -g / tr H.  Along
    -g instead, where the cone of a point term of weight w_at (one that
    fails the subgradient test) cuts the slope to |g| - w_at, or where the
    Hessian is singular: the Newton step on the curvature along -g, then
    the whole reach.  A curve through c makes int 1 / |q - c| diverge
    across it and leaves out the curvature along it, so there the Newton
    step can be far too short or undefined, and the line search backtracks
    from the reach.  The Hessian is normalised by its trace before it is
    inverted, so its 2x2 determinant cannot overflow."""
    s = h[0] + h[2]
    if not 0.0 < s < math.inf or g == 0:
        return []
    a, b, d = h[0] / s, h[1] / s, h[2] / s
    det = a * d - b * b
    if w_at or det <= 1e-14:
        e = -g / abs(g)
        curv = s * (a * e.real * e.real + 2.0 * b * e.real * e.imag + d * e.imag * e.imag)
        steps = [e * ((abs(g) - w_at) / curv)] if curv > 0.0 else []
        steps.append(e * reach)
    else:
        steps = [complex(b * g.imag - d * g.real, b * g.real - a * g.imag) / (s * det), -g / s]
    out = []
    for x in steps:
        if abs(x) > reach:
            x *= reach / abs(x)
        out.append((x, -(g.real * x.real + g.imag * x.imag) - w_at * abs(x)))
    return out


def _geometric_median(pieces, c, f):
    """(c, F(c), steps, scores): a minimiser of F(c) = int |phi - c| over
    the window by damped Newton from (c, f), f = F(c) converged.

    Constant pieces of phi are point terms y_k, their lengths summed per
    level, taken in closed form; the other pieces give their gradient and
    Hessian from one `gauss_integral` pass of _STEER_PANELS unchecked
    bisections, since those values only steer.
    - Every candidate is scored by the converged `_l1`, and a score
      that raises ToleranceError reads as no decrease, so the F returned is
      a converged integral at the c returned.
    - A step is accepted on a strict decrease.  The steps of `_directions`
      (Newton first) backtrack in turn; when all fail, the gradient is
      recomputed converged, and from then on the solver steers by converged
      gradients, since next to the curve the unchecked one can point the
      wrong way.  When that fails too, the solver stops.
    - A point term within reach of the Newton step is scored as a
      candidate first, once per point term: Newton only creeps up on a cone.
    - It stops when the Newton decrement reaches the rounding level of F,
      at a point term of weight w whose rest passes the subgradient test
      |grad| <= w (Vardi and Zhang, PNAS 97, 2000), or after _MAX_NEWTON
      steps.
    `steps` counts accepted steps, `scores` converged L1 scores.
    """
    points, curves = {}, []
    for t0, t1, coeffs in pieces:
        q = poly.trim(coeffs)
        if len(q) == 1:
            y = complex(q[0])
            points[y] = points.get(y, 0.0) + (t1 - t0)
        else:
            curves.append((q, t1 - t0))
    size = max([abs(y - c) for y in points]
               + [poly.sup_abs_on(poly.add(q, (-c,)), 0.0, L) for q, L in curves])
    if not size > 0.0:
        return c, f, 0, 0
    # steer in units of the data's distance from c, a power of two, and
    # each curve on [0, 1]: 1e-308-sized values then neither under- nor
    # overflow u and 1 / |q - c|, nor a long coefficient over a 1e-179
    # stretch |q|^2.  The minimiser lies in the hull of phi, within 2 size
    # of every point of it.
    unit = math.ldexp(1.0, math.frexp(size)[1])
    steer_points = {y / unit: w for y, w in points.items()}
    steer_curves = [(tuple(v * L**k / unit for k, v in enumerate(q)), L) for q, L in curves]

    def terms(fn, max_panels):
        return _newton_terms(steer_points, steer_curves, c / unit, fn, max_panels)

    def directions(g, h, w_at):
        return [(unit * x, unit * decrease)
                for x, decrease in _directions(g, h, w_at, 2.0 * size / unit)]

    tried = set()
    steps = scores = 0

    def score(x):
        nonlocal scores
        scores += 1
        try:
            return _l1(pieces, x)
        except ToleranceError:
            return math.inf

    def search(step, decrease):
        # backtrack until F decreases or the decrease expected falls below
        # the rounding level of F: to the minimiser of the parabola through
        # f, the slope and F at the step, kept within [0.1, 0.5] of the step
        t = 1.0
        while t * decrease > 4.0 * _EPS * f:
            x = c + t * step
            if x == c:
                return None
            fx = score(x)
            if fx < f:
                return x, fx
            t *= max(0.1, 0.5 * t * decrease / (fx - f + t * decrease))
        return None

    def descend(moves):
        for step, decrease in moves:
            found = search(step, decrease)
            if found:
                return found
        return None

    exact = False
    for _ in range(_MAX_NEWTON):
        g, h, w_at = terms(_unit_and_curvature, _STEER_PANELS)
        if exact:
            g = terms(_unit, poly.MAX_PANELS)[0]
        if w_at and abs(g) <= w_at:
            break
        moves = directions(g, h, w_at)
        if not moves or not w_at and 0.5 * moves[0][1] <= 4.0 * _EPS * f:
            break
        found = None
        near = min(points, key=lambda y: abs(y - c), default=None)
        if near is not None and near not in tried and abs(near - c) <= abs(moves[0][0]):
            tried.add(near)
            fy = score(near)
            if fy < f:
                found = near, fy
        found = found or descend(moves)
        if not found and not exact:
            # next to the curve the unchecked gradient can point the wrong
            # way: from here on steer by the converged one
            exact = True
            g = terms(_unit, poly.MAX_PANELS)[0]
            found = descend(directions(g, h, w_at))
        if not found:
            break
        c, f = found
        steps += 1
    return c, f, steps, scores


# ---------------------------------------------------------------------------
# single-window evaluation


def _window_value(mu, wlo, whi):
    """Seminorm of mu on the window [wlo, whi] (length <= 2).

    Returns (lower, upper, minimizer_c_phi, SeminormStats).  Real measures:
    exact value.  Complex: bracket [M/2, M].
    """
    pieces = me.cumulative_pieces(mu, wlo, whi)
    if not pieces:
        return 0.0, 0.0, 0j, SeminormStats()
    offset = _phi_offset(mu, wlo)
    half = 0.5 * (whi - wlo)
    re_parts = _monotone_parts(pieces)
    if all(poly.is_real(c) for _, _, c in pieces):
        c = _smallest_median(re_parts, half)
        val = _l1_parts(re_parts, c)
        return val, val, complex(c) + offset, SeminormStats()
    im_pieces = [(t0, t1, tuple(float(v.imag) for v in c)) for t0, t1, c in pieces]
    c_med = complex(_smallest_median(re_parts, half),
                    _smallest_median(_monotone_parts(im_pieces), half))
    m_med = _l1(pieces, c_med)
    c_best, m_best, steps, scores = _geometric_median(pieces, c_med, m_med)
    # M/2 is a lower bound however far the solver got: c_med takes the
    # exact medians S of Re phi and Im phi, so
    # M <= int |phi - c_med| <= S(Re mu) + S(Im mu) <= 2 min_c int |phi - c|
    return 0.5 * m_best, m_best, complex(c_best + offset), SeminormStats(steps, scores + 1)


def window_seminorm(mu: me.LocalMeasure, a: float) -> SeminormResult:
    """Seminorm on the window [a-1, a+1] via the median characterisation."""
    wlo, whi = a - 1.0, a + 1.0
    mu.check_span(wlo, whi, "window")
    lo, up, c, stats = _window_value(mu, wlo, whi)
    cert = SeminormCertificate(0.0, 0.0, up - lo)
    return SeminormResult(lo, up, c, (wlo, whi), cert, stats)


# ---------------------------------------------------------------------------
# interval seminorm: one event sweep, exact staircase cells, refined others


# padded (cell, level) entries per block of `_staircase_cells`: bounds its
# memory whatever the number of atoms a window meets
_CELL_BLOCK = 1 << 16


def _staircase_cells(xs, ws, cells):
    """([(max, argmax) of N(a) over each cell [a1, a2]], envelope vertices
    passed) for a real measure whose windows (a - 1, a + 1) meet only atoms
    inside each cell, the same ones (xs, ws sorted by position) for every a
    of that cell.

    phi is then a staircase whose level lengths are affine in a: the first
    shrinks and the last grows at unit rate.  A median is a level, so each
    level c_k gives an affine f_k(a) = int |phi - c_k| and N = min_k f_k is
    concave and piecewise linear: its maximum is at a cell end or where two
    f_k cross, a vertex of the lower envelope (`_envelope_walk`).

    The level distances f_k at both cell ends come from one NumPy pass over
    blocks of cells, levels padded with zero weights to the largest window.
    The sums over the gaps between atoms run in level order, one gap at a
    time, so every f_k has the bits of the sequential sum.  All cells of a
    block then walk their envelopes together.
    """
    xs, ws = np.asarray(xs, dtype=float), np.asarray(ws, dtype=float)
    ends = np.asarray(cells, dtype=float).reshape(-1, 2).T
    m = 0.5 * (ends[0] + ends[1])
    i0 = np.searchsorted(xs, m - 1.0, "right")
    counts = np.searchsorted(xs, m + 1.0, "left") - i0
    kmax = int(counts.max(initial=0))
    block = max(1, _CELL_BLOCK // (kmax + 1))
    t, value, vertices = np.zeros(len(m)), np.zeros(len(m)), 0
    for s in range(0, len(m), block):
        part = slice(s, s + block)
        at_a1, at_a2 = _level_distances(xs, ws, i0[part], counts[part], kmax, ends[:, part])
        # a cell with K atoms has the levels 0..K; the padding is never a line
        A = np.where(np.arange(kmax + 1) <= counts[part, None], at_a1, np.inf)
        t[part], value[part], passed = _envelope_walk(A, at_a2 - at_a1)
        vertices += passed
    arg = ends[0] + t * (ends[1] - ends[0])
    arg = np.where(ends[1] < arg, ends[1], arg)
    return list(zip(value.tolist(), arg.tolist())), vertices


def _envelope_walk(A, S):
    """(t, value, vertices passed) of the lines A[c, k] + t S[c, k] of each
    cell c (A = +inf on padding): value = max over t in [0, 1] of their
    minimum, reached at t.

    The minimum of lines is concave, so each cell walks the vertices of its
    lower envelope to the right, from the lowest line at t = 0 (the first
    on a tie), while the active slope is positive.  A move goes to the first
    crossing to the right (at t itself on a tie), by the flattest line, then
    the first, among equal crossings; a crossing at t >= 1, or none, ends
    the walk at t = 1.  Each move passes to a line of strictly smaller
    slope, so a cell of K + 1 lines moves at most K times.  All cells walk
    together, one move per round, the finished ones dropped.
    """
    rows = np.arange(len(A))
    k = A.argmin(axis=1)
    a_k, s_k = A[rows, k], S[rows, k]
    t, vertices = np.zeros(len(A)), 0
    live = np.flatnonzero(s_k > 0.0)
    a_k, s_k = a_k[live, None], s_k[live, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        while live.size:
            A_l, S_l = A[live], S[live]
            # only flatter lines cross to the right; the quotients of the
            # others (x / 0 and 0 / 0 among them) are dropped
            tc = (A_l - a_k) / (s_k - S_l)
            tc[S_l >= s_k] = np.inf
            first = np.minimum.reduce(tc, axis=1, keepdims=True)
            # argmin takes the first of the flattest among the first crossings
            j = np.where(tc == first, S_l, np.inf).argmin(axis=1)
            first = first[:, 0]
            moves = first < 1.0
            # t = max(t, tc), or 1 where the walk stops; t < 1 before
            t[live] = np.minimum(np.maximum(t[live], first), 1.0)
            vertices += int(np.count_nonzero(moves))
            rows = np.arange(live.size)
            a_k, s_k = A_l[rows, j], S_l[rows, j]
            moves &= s_k > 0.0
            live, a_k, s_k = live[moves], a_k[moves, None], s_k[moves, None]
    return t, (A + t[:, None] * S).min(axis=1), vertices


def _level_distances(xs, ws, i0, counts, kmax, ends):
    """f_k at the two ends (first axis) of each cell (second axis) for each
    level k (last axis); a cell with K atoms uses levels 0..K, the rest is
    padding."""
    if kmax == 0:
        return np.zeros((2, len(i0), 1))
    # rows: atoms (levels) of the windows, columns: cells
    j = np.arange(kmax)[:, None]
    idx = i0 + j
    inside = j < counts
    levels = np.zeros((kmax + 1, len(i0)))
    np.cumsum(np.where(inside, ws.take(idx, mode="clip"), 0.0), axis=0, out=levels[1:])
    xl = xs.take(idx, mode="clip")
    inner = np.zeros_like(levels)
    for level, gap in zip(levels[1:-1], np.where(inside[1:], xl[1:] - xl[:-1], 0.0)):
        inner += np.abs(level - levels) * gap
    first = np.maximum(xl[0] - (ends - 1.0), 0.0)[:, None]
    last = np.maximum(ends + 1.0 - xs.take(i0 + counts - 1, mode="clip"), 0.0)[:, None]
    return (inner + np.abs(levels[0] - levels) * first
            + np.abs(levels[-1] - levels) * last).transpose(0, 2, 1)


def interval_seminorm(
    mu: me.LocalMeasure,
    interval,
    tol: float = 1e-9,
    max_nodes: int = 60000,
) -> SeminormResult:
    """Certified sup of window seminorms over all length-min(2,|I|) windows
    inside I.

    One sweep over the cells of a in [lo+1, hi-1] between events: the ends
    and every a with a - 1 or a + 1 on a breakpoint of mu.
    - A cell of a real measure whose windows meet no density is exact: its
      maximum comes in closed form from `_staircase_cells`, which
      evaluates all exact cells together.
    - Every other cell (one touching a density, or any cell of a complex
      measure) is a root node of a branch-and-bound refinement.  The nodes
      form one list, walked in order, to which each split appends its two
      halves: breadth first.  A node [a1, a2] is bounded once, at its turn,
      against the cutoff best lower + tol of that moment: by the Lipschitz
      constant |mu|((a1-1, a2+1]), local to the node, then, while still
      above the cutoff, by the sliding unit-mass bound and, for real
      measures, by the sliding sup of |phi - c| at the incumbent's c.  A
      node above the cutoff is split at its midpoint; `max_nodes` caps the
      splits.  The masses and unit-mass sups are queries to one
      `measure.SlidingMass` of |mu| (`measure.abs_mass`, where a complex
      density counts with |Re rho| + |Im rho| >= |rho|), the |phi - c|
      sups to one built on `_l1_pieces` per incumbent c.

    `lower` is the window value at the witness a*, whose window [a* - 1,
    a* + 1] is `witness_window` (I itself when |I| <= 2), for the zero
    measure too; `upper` is the largest of `lower`, the exact cell maxima
    and the settled node bounds.  So upper - lower <= tol (plus the complex
    bracket width), and it is 0 up to rounding when every cell is exact.
    The certificate holds the narrowest node of the list as `grid_step` (0
    when no cell is refined), |mu|(I) as `lipschitz` (the global bound) and
    upper - lower as `error_bound`.
    `stats` sums the work of the window evaluations and counts the exact
    cells and the envelope vertices their walks passed.
    """
    check_tol(tol)
    lo, hi = float(interval[0]), float(interval[1])
    mu.check_span(lo, hi, "interval")
    length = hi - lo
    # one window when I is 2 long up to the rounding of its ends
    if length <= 2.0 + me.span_slack(lo, hi):
        vlo, vup, c, stats = _window_value(mu, lo, hi)
        return SeminormResult(
            vlo, vup, c, (lo, hi), SeminormCertificate(0.0, 0.0, vup - vlo), stats
        )

    a_lo, a_hi = lo + 1.0, hi - 1.0
    abs_sweep = me.abs_mass(mu, lo, hi)

    breakpoints = mu.breakpoints()
    events = {a_lo, a_hi}
    for b in breakpoints:
        for a in (b - 1.0, b + 1.0):
            if a_lo <= a <= a_hi:
                events.add(a)
    events = sorted(events)

    real_measure = mu.is_real()
    xs, ws = [x for x, _ in mu.atoms], [w.real for _, w in mu.atoms]
    exact, refined = [], []
    for a1, a2 in zip(events[:-1], events[1:]):
        if real_measure and not mu.segments_meeting(a1 - 1.0, a2 + 1.0):
            exact.append((a1, a2))
        else:
            refined.append((a1, a2))
    exact_best, exact_a = -math.inf, a_lo
    maxima, vertices = _staircase_cells(xs, ws, exact)
    for v, a in maxima:
        if v > exact_best:
            exact_best, exact_a = v, a
    # the refinement also starts from the windows centred on breakpoints
    refined = [(x1, x2) for a1, a2 in refined for x1, x2 in pairwise(
        [a1] + breakpoints[bisect_right(breakpoints, a1):bisect_left(breakpoints, a2)] + [a2])]

    evals = {}

    def evaluate(a):
        if a not in evals:
            evals[a] = _window_value(mu, a - 1.0, a + 1.0)
        return evals[a]

    best_lower = -math.inf
    best_a = a_lo
    points = {a for cell in refined for a in cell}
    if exact_best > -math.inf:
        points.add(exact_a)
    for a in sorted(points):
        vlo = evaluate(a)[0]
        if vlo > best_lower:
            best_lower, best_a = vlo, a

    # one (c, sweep) of |phi - c| for the slide bound, rebuilt when the
    # incumbent's c changes: an old c is never used again
    slide = (None, None)
    settled_bound = best_lower
    splits = 0
    # breadth first: the loop also walks the children appended to `refined`
    for a1, a2 in refined:
        cutoff = best_lower + tol
        # |dN/da| <= |mu((a-1, a+1])| <= |mu|((a1-1, a2+1]) on the node
        lip = abs_sweep.mass(a1 - 1.0, a2 + 1.0)
        bound = max(evaluate(a1)[1], evaluate(a2)[1]) + lip * (a2 - a1) / 2.0
        if bound > cutoff:
            # the span (a1 - 1, a2 + 1) is at least 2 long: it holds a unit window
            span_lo, span_hi = max(mu.lo, a1 - 1.0), min(mu.hi, a2 + 1.0)
            bound = min(bound, abs_sweep.sliding_sup(span_lo, span_hi, 1.0))
        if bound > cutoff and real_measure:
            # N(a) <= int_{a-1}^{a+1} |phi - c| for any fixed c; use the witness c
            c = complex(evals[best_a][2]).real
            if slide[0] != c:
                slide = c, me.SlidingMass([], _l1_pieces(mu, c, lo, hi))
            bound = min(bound, slide[1].sliding_sup(a1 - 1.0, a2 + 1.0, 2.0))
        if bound <= cutoff:
            settled_bound = max(settled_bound, min(bound, cutoff))
            continue
        splits += 1
        if splits > max_nodes:
            raise ToleranceError(
                f"interval_seminorm: gap {bound - best_lower:.3e} > tol {tol:.3e} "
                f"after {max_nodes} refinement nodes"
            )
        mid = 0.5 * (a1 + a2)
        vlo = evaluate(mid)[0]
        if vlo > best_lower:
            best_lower, best_a = vlo, mid
        for x1, x2 in ((a1, mid), (mid, a2)):
            if x2 - x1 <= 1e-13 * max(1.0, abs(x1)):
                settled_bound = max(settled_bound, bound)
            else:
                refined.append((x1, x2))

    vlo, vup, c, _ = evaluate(best_a)
    upper = max(vup, settled_bound, best_lower, exact_best)
    grid_step = min((a2 - a1 for a1, a2 in refined), default=0.0)
    cert = SeminormCertificate(grid_step, abs_sweep.mass(lo, hi), upper - vlo)
    swept = SeminormStats(exact_cells=len(exact), envelope_vertices=vertices)
    stats = sum((v[3] for v in evals.values()), swept)
    return SeminormResult(vlo, upper, c, (best_a - 1.0, best_a + 1.0), cert, stats)


# ---------------------------------------------------------------------------
# the test functional (lower-bound oracle)


def test_functional(mu: me.LocalMeasure, u: me.PiecewiseAffine) -> complex:
    """Exact integral of the piecewise-affine u against mu."""
    slo, shi = u.support
    mu.check_span(slo, shi, "support of u")
    total = 0j
    for x, w in mu.atoms:
        total += w * u(x)
    for a, b, prod in me.affine_products(mu, u):
        total += poly.integral(prod, 0.0, b - a)
    return complex(total)


def _l1_pieces(mu, c, lo, hi):
    """|phi_mu - c| over [lo, hi] as nonnegative poly.abs_pieces (real
    measures and constants only)."""
    pieces = me.cumulative_pieces(mu, lo, hi)
    c_s = complex(c) - _phi_offset(mu, lo)
    if any(not poly.is_real(k) for _, _, k in pieces) or abs(c_s.imag) > 0:
        raise DomainError("|phi - c| pieces need a real measure and constant")
    out = []
    for t0, t1, coeffs in pieces:
        out.extend(poly.abs_pieces(poly.add(poly.to_real(coeffs), (-c_s.real,)), t0, t1))
    return out


def sliding_l1_sup(mu: me.LocalMeasure, c: complex, span, window_length: float):
    """Exact sup over a of int_a^{a+L} |phi_mu(t) - c| dt within the span.

    A rigorous upper bound for every window seminorm in the span (the
    minimising constant can only do better than the fixed c).  Real measures
    only.
    """
    lo, hi = float(span[0]), float(span[1])
    return me.SlidingMass([], _l1_pieces(mu, c, lo, hi)).sliding_sup(lo, hi, window_length)
