"""Weak Gordon seminorm ||mu||_I via the primitive characterisation.

For a real measure on a window [a-1, a+1] the seminorm equals
min_c int |phi_mu - c| dt, with any Lebesgue median of phi_mu as minimiser;
the tie-break is the smallest median.  For complex measures only the
two-sided bracket [M/2, M] is available, where M = min over complex c.  M
is the better of the componentwise median and Weiszfeld iterations from
it; every reported M is a converged `poly.integral_abs` of |phi - c|.

The smallest median comes from one sweep: each polynomial piece of phi is
split once, at its critical points, into monotone branches and constant
steps, so the sublevel measure S(c) = |{phi <= c}| is a sum of branch
inverses (closed form up to degree 2, bracketed Newton above).  A binary
search over the sorted branch-end values finds the bracket where S crosses
half the window length; inside it the closed form (every active branch
affine) or Newton on S, with S' = sum 1/|phi'|, closes the bracket to 2 ulp.

Interval seminorms (|I| > 2) take a certified supremum over all admissible
windows in one sweep over the window centres a, cut at the events where
a - 1 or a + 1 meets a breakpoint.  On a cell where a real measure's
windows meet only atoms, phi is a staircase whose level lengths are affine
in a, so N(a) is the minimum of one affine function per level: concave,
with its maximum at a vertex of the envelope, found exactly.  The exact
cells of a sweep are evaluated together: one NumPy pass gives the level
distances of every cell, and only the envelope walk runs per cell.  The other
cells (touching a density, or of a complex measure) are refined by
branch-and-bound, pruned by the Lipschitz constant |mu|((a1-1, a2+1]) local
to each node, by the sliding unit-mass bound
||mu||_{[a-1,a+1]} <= sup_t |mu|((t, t+1]) and by the sliding sup of
|phi - c|.  Both sliding sups run over nonnegative pieces from
`poly.abs_pieces`.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from . import measure as me
from . import poly
from .errors import DomainError, ToleranceError


@dataclass(frozen=True)
class SeminormCertificate:
    grid_step: float
    lipschitz: float
    error_bound: float


@dataclass(frozen=True)
class SeminormResult:
    lower: float
    upper: float
    minimizer_c: complex
    witness_window: tuple
    certificate: SeminormCertificate

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


def _real_pieces(pieces):
    return [(t0, t1, poly.to_real(c)) for t0, t1, c in pieces]


def _l1_real(pieces, c):
    total = 0.0
    for t0, t1, coeffs in pieces:
        shifted = poly.add(coeffs, (-c,))
        total += poly.integral_abs(shifted, 0.0, t1 - t0)
    return total


def _bracketed_newton(f, lo, hi, x):
    """Crossing of an increasing f with f(lo) < 0 <= f(hi); f returns
    (value, slope) and x is the first probe.

    A Newton step that leaves the bracket, or is longer than half the step
    before last, falls back to bisection.  Every probe is kept an ulp inside
    the bracket, so the bracket shrinks at each step, and a converged Newton
    iterate is followed by a probe on the other side: it closes to 2 ulp.
    Returns its right end.
    """
    tol = 2.0 * math.ulp(max(abs(lo), abs(hi)))
    gap = 0.5 * tol
    step = step_old = hi - lo
    while hi - lo > tol:
        x = min(max(x, lo + gap), hi - gap)
        v, dv = f(x)
        if v == 0.0:
            return x
        if v < 0.0:
            lo = x
        else:
            hi = x
        newton = x - v / dv if dv > 0.0 else math.nan
        if lo <= newton <= hi and abs(2.0 * v) <= abs(step_old * dv):
            step_old, step = step, newton - x
            x = newton
        else:
            step_old, step = step, 0.5 * (hi - lo)
            x = lo + step
    return hi


class _Branch(namedtuple("_Branch", "coeffs deriv xa xb va vb")):
    """A piece of phi on [xa, xb] (local coordinates), strictly monotone
    there, with end values va = p(xa) and vb = p(xb)."""

    def crossing(self, c):
        """(x, p'(x)) with p(x) = c, for c strictly between va and vb:
        closed form up to degree 2, bracketed Newton above."""
        p = self.coeffs
        if len(p) == 2:
            x = (c - p[0]) / p[1]
        elif len(p) == 3:
            a0 = p[0] - c
            disc = max(p[1] * p[1] - 4.0 * p[2] * a0, 0.0)
            q = -0.5 * (p[1] + math.copysign(math.sqrt(disc), p[1]))
            roots = (q / p[2], a0 / q) if q != 0.0 else (0.0,)
            x = min(roots, key=lambda r: max(self.xa - r, r - self.xb))
        else:
            sign = 1.0 if self.vb > self.va else -1.0

            def f(y):
                return (sign * (poly.evaluate(p, y) - c),
                        sign * poly.evaluate(self.deriv, y))

            x = _bracketed_newton(
                f, self.xa, self.xb,
                self.xa + (self.xb - self.xa) * (c - self.va) / (self.vb - self.va),
            )
        x = min(max(x, self.xa), self.xb)
        return x, poly.evaluate(self.deriv, x)


def _monotone_parts(pieces):
    """Split each real piece once, at its critical points.

    Returns (vlo, vhi, length, branch) in piece order.  Constant pieces and
    flat stretches are steps (vlo == vhi, branch None); the rest are
    monotone branches.
    """
    parts = []
    for t0, t1, coeffs in pieces:
        p = poly.trim(coeffs)
        L = t1 - t0
        if len(p) == 1:
            parts.append((p[0], p[0], L, None))
            continue
        d = poly.derivative(p)
        xs = [0.0] + poly.real_roots_in(d, 0.0, L) + [L]
        vs = [poly.evaluate(p, x) for x in xs]
        for xa, xb, va, vb in zip(xs[:-1], xs[1:], vs[:-1], vs[1:]):
            if xb <= xa:
                continue
            if va == vb:
                parts.append((va, va, xb - xa, None))
            else:
                parts.append(
                    (min(va, vb), max(va, vb), xb - xa, _Branch(p, d, xa, xb, va, vb))
                )
    return parts


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


def _smallest_median(pieces, half):
    """Smallest c with lebesgue{phi <= c} >= half (the lower quantile).

    Binary search over the sorted branch-end values finds the bracket where
    S crosses half; inside it S is a sum of branch inverses, solved by
    bracketed Newton from the closed form when every active branch is
    affine.
    """
    parts = _monotone_parts(pieces)
    vmin = min(vlo for vlo, _, _, _ in parts)
    vmax = max(vhi for _, vhi, _, _ in parts)
    if vmax - vmin <= 0:
        return vmin
    if all(br is None for _, _, _, br in parts):
        # no branch: S is a staircase, accumulated in sorted order
        items = sorted((v, L) for v, _, L, _ in parts)
        acc = 0.0
        for v, L in items:
            acc += L
            if acc >= half - 1e-15:
                return v
        return items[-1][0]
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
        active = [br for vlo, vhi, _, br in parts if br is not None and vlo <= lo and vhi >= c]
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

            c = _bracketed_newton(excess, lo, below, x0)
    # snap to a representation value when that is also a valid median
    candidates = set()
    for t0, t1, coeffs in pieces:
        candidates.add(poly.evaluate(coeffs, 0.0))
        candidates.add(poly.evaluate(coeffs, t1 - t0))
        if len(poly.trim(coeffs)) == 1:
            candidates.add(coeffs[0])
    scale_ref = max(1.0, abs(vmin), abs(vmax))
    for v in sorted(candidates):
        if abs(v - c) <= 1e-9 * scale_ref and _sublevel(parts, v)[0] >= half:
            if v <= c or abs(_l1_real(pieces, v) - _l1_real(pieces, c)) <= 1e-12 * scale_ref:
                return v
    return c


# ---------------------------------------------------------------------------
# complex case: geometric median of phi


def _inv_abs(v):
    return 1.0 / np.maximum(np.abs(v), 1e-300)


def _l1_complex(pieces, c):
    return sum(
        poly.integral_abs(poly.add(coeffs, (-c,)), 0.0, t1 - t0)
        for t0, t1, coeffs in pieces
    )


def _weiszfeld(pieces, c0, iters=120):
    c = complex(c0)
    best_c, best_v = c, _l1_complex(pieces, c)
    scale_ref = max(1.0, abs(c0))
    for _ in range(iters):
        num = 0j
        den = 0.0
        # the weights only steer c and every candidate is scored by a
        # converged _l1_complex, so 64 unchecked panel bisections will do
        for t0, t1, coeffs in pieces:
            q, L = poly.add(coeffs, (-c,)), t1 - t0
            num += poly.gauss_integral(q, 0.0, L, lambda v: (v + c) * _inv_abs(v), 64)[0]
            den += float(poly.gauss_integral(q, 0.0, L, _inv_abs, 64)[0])
        if den <= 0:
            break
        c_new = num / den
        v_new = _l1_complex(pieces, c_new)
        if v_new < best_v:
            best_c, best_v = c_new, v_new
        if abs(c_new - c) <= 1e-12 * scale_ref:
            c = c_new
            break
        c = c_new
    return best_c, best_v


# ---------------------------------------------------------------------------
# single-window evaluation


def _window_value(mu, wlo, whi):
    """Seminorm of mu on the window [wlo, whi] (length <= 2).

    Returns (lower, upper, minimizer_c_phi).  Real measures: exact value.
    Complex: bracket [M/2, M].
    """
    pieces = me.cumulative_pieces(mu, wlo, whi)
    if not pieces:
        return 0.0, 0.0, 0j
    offset = _phi_offset(mu, wlo)
    half = 0.5 * (whi - wlo)
    real = all(poly.is_real(c, 0.0) for _, _, c in pieces)
    if real:
        rp = _real_pieces(pieces)
        c = _smallest_median(rp, half)
        val = _l1_real(rp, c)
        return val, val, complex(c) + offset
    re_pieces = [(t0, t1, tuple(v.real for v in c)) for t0, t1, c in pieces]
    im_pieces = [(t0, t1, tuple(v.imag for v in c)) for t0, t1, c in pieces]
    c_med = complex(
        _smallest_median(_real_pieces(re_pieces), half),
        _smallest_median(_real_pieces(im_pieces), half),
    )
    m_med = _l1_complex(pieces, c_med)
    c_w, m_w = _weiszfeld(pieces, c_med)
    if m_w < m_med:
        c_best, m_best = c_w, m_w
    else:
        c_best, m_best = c_med, m_med
    # M/2 is a lower bound whether or not Weiszfeld converged: c_med takes
    # the exact medians S of Re phi and Im phi, so
    # M <= int |phi - c_med| <= S(Re mu) + S(Im mu) <= 2 min_c int |phi - c|
    return 0.5 * m_best, m_best, c_best + offset


def window_seminorm(mu: me.LocalMeasure, a: float) -> SeminormResult:
    """Seminorm on the window [a-1, a+1] via the median characterisation."""
    wlo, whi = a - 1.0, a + 1.0
    if wlo < mu.lo - 1e-12 or whi > mu.hi + 1e-12:
        raise DomainError(f"window [{wlo}, {whi}] not inside {mu.window}")
    lo, up, c = _window_value(mu, wlo, whi)
    cert = SeminormCertificate(0.0, 0.0, up - lo)
    return SeminormResult(lo, up, c, (wlo, whi), cert)


# ---------------------------------------------------------------------------
# interval seminorm: one event sweep, exact staircase cells, refined others


def _envelope_max(A, B):
    """(t, value) maximising min_k (A[k] + t (B[k] - A[k])) over t in [0, 1].

    The minimum of lines is concave, so walk its vertices to the right from
    t = 0 until the active slope is no longer positive.  Each step passes to
    a line of strictly smaller slope, so the walk takes at most K steps.
    """
    slopes = [b - a for a, b in zip(A, B)]
    k = min(range(len(A)), key=A.__getitem__)
    t = 0.0
    while slopes[k] > 0.0:
        # the first crossing to the right (at t itself on a tie), by the
        # flattest line among equal crossings; none: k stays minimal to t = 1
        crossings = [((A[j] - A[k]) / (slopes[k] - s), s, j)
                     for j, s in enumerate(slopes) if s < slopes[k]]
        tc, _, j = min(crossings, default=(1.0, 0.0, k))
        if tc >= 1.0:
            t = 1.0
            break
        t, k = max(t, tc), j
    return t, min(a + t * s for a, s in zip(A, slopes))


# padded (cell, level) entries per block of `_staircase_cells`: bounds its
# memory whatever the number of atoms a window meets
_CELL_BLOCK = 1 << 16


def _staircase_cells(xs, ws, cells):
    """[(max, argmax) of N(a) over each cell [a1, a2]] of a real measure whose
    windows (a - 1, a + 1) meet only atoms inside each cell, the same ones
    (xs, ws sorted by position) for every a of that cell.

    phi is then a staircase whose level lengths are affine in a: the first
    shrinks and the last grows at unit rate.  A median is a level, so each
    level c_k gives an affine f_k(a) = int |phi - c_k| and N = min_k f_k is
    concave and piecewise linear: its maximum is at a cell end or where two
    f_k cross, a vertex of the lower envelope (`_envelope_max`, per cell).

    The level distances f_k at both cell ends come from one NumPy pass over
    blocks of cells, levels padded with zero weights to the largest window.
    The sums over the gaps between atoms run in level order, one gap at a
    time, so every f_k has the bits of the sequential sum.
    """
    xs, ws = np.asarray(xs, dtype=float), np.asarray(ws, dtype=float)
    ends = np.asarray(cells, dtype=float).reshape(-1, 2).T
    m = 0.5 * (ends[0] + ends[1])
    i0 = np.searchsorted(xs, m - 1.0, "right")
    counts = np.searchsorted(xs, m + 1.0, "left") - i0
    kmax = int(counts.max(initial=0))
    block = max(1, _CELL_BLOCK // (kmax + 1))
    out = []
    for s in range(0, len(m), block):
        part = slice(s, s + block)
        at_a1, at_a2 = _level_distances(xs, ws, i0[part], counts[part], kmax,
                                        ends[:, part]).tolist()
        for k, a1, a2, fa, fb in zip(counts[part].tolist(), *ends[:, part].tolist(),
                                     at_a1, at_a2):
            if k == 0:
                out.append((0.0, a1))
                continue
            t, value = _envelope_max(fa[:k + 1], fb[:k + 1])
            out.append((value, min(a1 + t * (a2 - a1), a2)))
    return out


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


class _PieceOracle:
    """Cached nonnegative piece decomposition of |mu| answering the queries
    of the refinement: the mass of a span (the local Lipschitz constant) and
    sliding-window mass suprema over subspans (the prunes)."""

    def __init__(self, atoms, pieces):
        # both come sorted from a canonical measure; the pieces do not
        # overlap, so their ends are sorted too
        self.atoms, self.pieces = atoms, pieces
        self._xs = [x for x, _ in atoms]
        self._ends = [s.end for s in pieces]

    def _meeting(self, lo, hi):
        """(piece, a, b) for each piece meeting (lo, hi), clipped to [a, b]."""
        for s in self.pieces[bisect_right(self._ends, lo):]:
            if s.start >= hi:
                break
            a, b = max(s.start, lo), min(s.end, hi)
            if b > a:
                yield s, a, b

    def mass(self, lo, hi):
        """|mu|((lo, hi]); for a complex density the bound that integrates
        |Re rho| + |Im rho|."""
        atoms = self.atoms[bisect_right(self._xs, lo):bisect_right(self._xs, hi)]
        return sum(m for _, m in atoms) + sum(
            poly.integral(s.coeffs, a - s.start, b - s.start) for s, a, b in self._meeting(lo, hi))

    def sliding_sup(self, lo, hi, width):
        atoms = self.atoms[bisect_left(self._xs, lo):bisect_right(self._xs, hi)]
        subset = [poly.Piece(a, b, poly.shift_origin(s.coeffs, a - s.start))
                  for s, a, b in self._meeting(lo, hi)]
        return me._sliding_sup(atoms, subset, lo, hi, width)


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
      measure) is a root node of a branch-and-bound refinement.  A node
      [a1, a2] is bounded by the Lipschitz constant |mu|((a1-1, a2+1]),
      local to the node, by the sliding unit-mass bound and, for real
      measures, by the sliding sup of |phi - c|.

    `lower` is the window value at the witness a*; `upper` is the largest of
    `lower`, the exact cell maxima and the settled node bounds.  So
    upper - lower <= tol (plus the complex bracket width), and it is 0 up to
    rounding when every cell is exact.  The certificate holds the narrowest
    refined node as `grid_step` (0 when no cell is refined), |mu|(I) as
    `lipschitz` (the global bound) and upper - lower as `error_bound`.
    """
    if tol <= 0:
        raise DomainError(f"tol must be positive, got {tol}")
    lo, hi = float(interval[0]), float(interval[1])
    if lo < mu.lo - 1e-12 or hi > mu.hi + 1e-12:
        raise DomainError(f"interval {interval} not inside window {mu.window}")
    length = hi - lo
    if mu.is_zero():
        return SeminormResult(0.0, 0.0, 0j, (lo, hi), SeminormCertificate(0, 0, 0))
    if length <= 2.0 + 1e-14:
        vlo, vup, c = _window_value(mu, lo, hi)
        return SeminormResult(
            vlo, vup, c, (lo, hi), SeminormCertificate(0.0, 0.0, vup - vlo)
        )

    a_lo, a_hi = lo + 1.0, hi - 1.0
    atoms = [(x, abs(w)) for x, w in mu.atoms_in(lo, hi)]
    pieces = [p for p in me._abs_segments(mu.segments_meeting(lo, hi))
              if p.end > lo and p.start < hi]
    abs_oracle = _PieceOracle(atoms, pieces)
    # quadrature |rho| is an estimate; |Re rho| + |Im rho| >= |rho| bounds
    K = me.total_variation(mu, (lo, hi)) if mu.has_real_density() else abs_oracle.mass(lo, hi)

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
        if real_measure and next(abs_oracle._meeting(a1 - 1.0, a2 + 1.0), None) is None:
            exact.append((a1, a2))
        else:
            refined.append((a1, a2))
    exact_best, exact_a = -math.inf, a_lo
    for v, a in _staircase_cells(xs, ws, exact):
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
        vlo, vup, _ = evaluate(a)
        if vlo > best_lower:
            best_lower, best_a = vlo, a

    def unit_bound(a1, a2):
        span_lo = max(mu.lo, a1 - 1.0)
        span_hi = min(mu.hi, a2 + 1.0)
        if span_hi - span_lo < 1.0:
            return math.inf
        return abs_oracle.sliding_sup(span_lo, span_hi, 1.0)

    slide_oracles = {}

    def slide_bound(a1, a2):
        # N(a) <= int_{a-1}^{a+1} |phi - c| for any fixed c; use the witness c
        if not real_measure:
            return math.inf
        c = complex(evals[best_a][2]).real
        if c not in slide_oracles:
            slide_oracles[c] = _PieceOracle([], _l1_pieces(mu, c, lo, hi))
        return slide_oracles[c].sliding_sup(a1 - 1.0, a2 + 1.0, 2.0)

    def node_bound(a1, a2, cutoff):
        # |dN/da| <= |mu((a-1, a+1])| <= |mu|((a1-1, a2+1]) on the node
        lip = abs_oracle.mass(a1 - 1.0, a2 + 1.0)
        b = max(evaluate(a1)[1], evaluate(a2)[1]) + lip * (a2 - a1) / 2.0
        if b <= cutoff:
            return b
        b = min(b, unit_bound(a1, a2))
        if b <= cutoff:
            return b
        return min(b, slide_bound(a1, a2))

    heap = []
    min_h = math.inf
    for counter, (a1, a2) in enumerate(refined):
        b = node_bound(a1, a2, best_lower + tol)
        min_h = min(min_h, a2 - a1)
        heap.append((-b, counter, a1, a2))
    heapq.heapify(heap)
    counter = len(heap)

    settled_bound = best_lower
    nodes = 0
    while heap:
        neg_b, _, a1, a2 = heapq.heappop(heap)
        bound = -neg_b
        # bounds only improve as the incumbent does; recheck before splitting
        bound = min(bound, node_bound(a1, a2, best_lower + tol))
        if bound <= best_lower + tol:
            settled_bound = max(settled_bound, min(bound, best_lower + tol))
            continue
        nodes += 1
        if nodes > max_nodes:
            raise ToleranceError(
                f"interval_seminorm: gap {bound - best_lower:.3e} > tol {tol:.3e} "
                f"after {max_nodes} refinement nodes"
            )
        mid = 0.5 * (a1 + a2)
        vlo, vup, _ = evaluate(mid)
        if vlo > best_lower:
            best_lower, best_a = vlo, mid
        for x1, x2 in ((a1, mid), (mid, a2)):
            if x2 - x1 <= 1e-13 * max(1.0, abs(x1)):
                settled_bound = max(settled_bound, bound)
                continue
            b = node_bound(x1, x2, best_lower + tol)
            min_h = min(min_h, x2 - x1)
            heapq.heappush(heap, (-b, counter, x1, x2))
            counter += 1

    vlo, vup, c = evaluate(best_a)
    upper = max(vup, settled_bound, best_lower, exact_best)
    grid_step = min_h if refined else 0.0
    cert = SeminormCertificate(grid_step, K, upper - vlo)
    return SeminormResult(vlo, upper, c, (best_a - 1.0, best_a + 1.0), cert)


# ---------------------------------------------------------------------------
# the test functional (lower-bound oracle)


def test_functional(mu: me.LocalMeasure, u: me.PiecewiseAffine) -> complex:
    """Exact integral of the piecewise-affine u against mu."""
    slo, shi = u.support
    if slo < mu.lo - 1e-12 or shi > mu.hi + 1e-12:
        raise DomainError(f"support of u {u.support} not inside {mu.window}")
    total = 0j
    for x, w in mu.atoms:
        total += w * u(x)
    for s in mu.segments_meeting(slo, shi):
        for x0, x1, y0, slope in u.pieces():
            a, b = max(s.start, x0), min(s.end, x1)
            if b <= a:
                continue
            dens = poly.shift_origin(s.coeffs, a - s.start)
            aff = (y0 + slope * (a - x0), slope)
            total += poly.integral(poly.multiply(dens, aff), 0.0, b - a)
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
    return me._sliding_sup([], _l1_pieces(mu, c, lo, hi), lo, hi, window_length)
