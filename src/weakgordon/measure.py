"""Finite representation of complex local measures on a working window.

A measure is a list of atoms (position, complex weight) plus piecewise
polynomial density segments of degree <= 3, in one canonical form that
every operation returns: atoms at strictly increasing positions with
nonzero weights, segments sorted, disjoint and nonzero.  So what meets a
span is found by bisection (`atoms_in`, `segments_meeting`).  All interval
restrictions use the half-open convention (lo, hi], which keeps the primitive
phi(t) = mu((0, t]) and restriction exactly consistent.  A real |density|
is split into nonnegative pieces by `poly.abs_pieces` (`_abs_segments`); a
complex one is integrated by `poly.integral_abs`, whose Gauss rule is exact
up to its 1e-13 quadrature tolerance.  Every |mu| mass and sliding-window
mass supremum, here and in the seminorm layer, is read from one sweep,
`SlidingMass`, which builds its prefix sums once; `abs_mass` builds it for
|mu| on a span.  Only this layer makes Segments: a span cut is
`_clipped_segments`, a cut at a piecewise-affine function's pieces is
`affine_products`, and Hermite cubics come from `_hermite_segments`; the
pieces of a span between its ends, atoms and segment ends are walked by
`span_pieces`, for `cumulative_pieces` and the propagator's walk.

Mollification values the nodes of each Hermite cell in one NumPy pass
(`_mollified_nodes`), which rounds exactly as the per-node scalar sum:
complex values go as two real parts, and divisions part by part.

Everything here is immutable and pure, but for two caches on a measure that
are not part of its value (`_norm_unif`, `walk_plans`); values can be shared
freely.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from itertools import accumulate
from operator import attrgetter, itemgetter, le, lt

import numpy as np

from . import poly
from .errors import DomainError, ResourceError, ValidationError

MAX_DEGREE = 3

# normalisation of the bump (1 - x^2)^3 on (-1, 1):  integral = 32/35
MOLLIFIER_NORM = 35.0 / 32.0

# the most copies of base atoms and segments `materialize_periodic` makes
ATOM_BUDGET = 200_000

_POS, _WEIGHT = itemgetter(0), itemgetter(1)
_START, _END, _COEFFS = attrgetter("start"), attrgetter("end"), attrgetter("coeffs")


def segments_overlap(end, start):
    """Whether a segment from `start` overlaps one ending at `end` by more
    than the slack 1e-15 * max(1, |end|); overlaps within it are summed."""
    return start < end - 1e-15 * max(1.0, abs(end))


def span_slack(a, b):
    """The rounding room of a span built from the ends a and b, at their
    scale: 1e-12 * max(1, |a|, |b|).  A span may overhang the window by it,
    and lengths and chained ends that agree up to it are taken as equal."""
    return 1e-12 * max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class Segment:
    """Density piece rho(t) = sum coeffs[k] * (t - start)^k on (start, end]."""

    start: float
    end: float
    coeffs: tuple

    def __post_init__(self):
        if not self.start < self.end:
            raise ValidationError(f"segment [{self.start}, {self.end}] is empty")
        if len(self.coeffs) > MAX_DEGREE + 1:
            raise ValidationError(
                f"segment degree {len(self.coeffs) - 1} exceeds cap {MAX_DEGREE}"
            )

    def density_at(self, t):
        return poly.evaluate(self.coeffs, t - self.start)

    def integral_over(self, a, b):
        a = max(a, self.start)
        b = min(b, self.end)
        if b <= a:
            return 0.0
        return poly.integral(self.coeffs, a - self.start, b - self.start)

    def abs_integral_over(self, a, b):
        a = max(a, self.start)
        b = min(b, self.end)
        return poly.integral_abs(self.coeffs, a - self.start, b - self.start)


@dataclass(frozen=True)
class LocalMeasure:
    """Atoms + polynomial density segments, authoritative on `window`.

    The one place that makes the canonical form: atoms at one position are
    summed, overlapping segments too, and zeros dropped.  Canonical input
    passes C-level checks and is kept as given.
    """

    atoms: tuple
    segments: tuple
    window: tuple
    # norm_unif by r, filled by norm_unif; not part of the value
    _norm_unif: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the propagator's last few walk plans by path; not part of the value
    walk_plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        atoms, segs = self.atoms, self.segments
        xs = list(map(_POS, atoms))
        if not all(map(lt, xs, xs[1:])) or not all(map(_WEIGHT, atoms)):
            merged = {}
            for x, w in sorted(atoms, key=_POS):
                merged[x] = merged.get(x, 0j) + w
            object.__setattr__(self, "atoms", tuple(filter(_WEIGHT, merged.items())))
        if not all(map(le, map(_END, segs), map(_START, segs[1:]))) or not all(
            map(any, map(_COEFFS, segs))
        ):
            object.__setattr__(self, "segments", _overlay_segments(segs))

    def atoms_in(self, a, b):
        """The atoms with position in (a, b]."""
        atoms = self.atoms
        return atoms[bisect_right(atoms, a, key=_POS):bisect_right(atoms, b, key=_POS)]

    def segments_meeting(self, a, b):
        """The segments with end > a and start < b: those meeting (a, b),
        or for a == b the one holding a in its interior."""
        segs = self.segments
        return segs[bisect_right(segs, a, key=_END):bisect_left(segs, b, key=_START)]

    def check_span(self, lo, hi, what):
        """Raise DomainError unless lo <= hi and [lo, hi] lies in the window
        up to an overhang of its `span_slack`, where the measure is 0."""
        wlo, whi = self.window
        slack = span_slack(wlo, whi)
        if not (wlo - slack <= lo <= hi <= whi + slack):
            raise DomainError(f"{what} [{lo}, {hi}] not inside window [{wlo}, {whi}]")

    @property
    def lo(self):
        return self.window[0]

    @property
    def hi(self):
        return self.window[1]

    def is_real(self):
        return all(w.imag == 0 for _, w in self.atoms) and self.has_real_density()

    def is_zero(self):
        return not self.atoms and not self.segments

    def has_real_density(self):
        return all(poly.is_real(s.coeffs) for s in self.segments)

    def breakpoints(self):
        """Positions where the representation changes: atoms and segment ends."""
        pts = set()
        for x, _ in self.atoms:
            pts.add(x)
        for s in self.segments:
            pts.add(s.start)
            pts.add(s.end)
        return sorted(pts)


def make_measure(atoms=(), segments=(), window=None) -> LocalMeasure:
    """Validate a measure and return it in canonical form.

    Overlapping segments are a validation error, up to the slack of
    `segments_overlap`, within which they are summed.
    """
    if window is None:
        raise ValidationError("window is required")
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi or not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"invalid window [{lo}, {hi}]")

    atom_list = []
    for x, w in atoms:
        x = float(x)
        w = complex(w)
        if not (math.isfinite(x) and cmath.isfinite(w)):
            raise ValidationError("atom with non-finite position or weight")
        if not lo <= x <= hi:
            raise ValidationError(f"atom at {x} outside window [{lo}, {hi}]")
        atom_list.append((x, w))

    seg_list = []
    for s in segments:
        if isinstance(s, Segment):
            seg = s
        else:
            start, end, coeffs = s
            seg = Segment(float(start), float(end), poly.as_complex(tuple(coeffs)))
        if not (lo <= seg.start and seg.end <= hi):
            raise ValidationError(
                f"segment [{seg.start}, {seg.end}] outside window [{lo}, {hi}]"
            )
        if not all(map(cmath.isfinite, seg.coeffs)):
            raise ValidationError("segment with non-finite coefficient")
        if any(c != 0 for c in seg.coeffs):
            seg_list.append(seg)
    seg_list.sort(key=_START)
    for a, b in zip(seg_list[:-1], seg_list[1:]):
        if segments_overlap(a.end, b.start):
            raise ValidationError(
                f"segments [{a.start}, {a.end}] and [{b.start}, {b.end}] overlap"
            )
    atoms, segs = tuple(atom_list), tuple(seg_list)
    mu = LocalMeasure(atoms, segs, (lo, hi))
    # sums of finite values can overflow; LocalMeasure keeps canonical input as given
    if mu.atoms is not atoms and not all(map(cmath.isfinite, map(_WEIGHT, mu.atoms))):
        raise ValidationError("atoms at one position sum to a non-finite weight")
    if mu.segments is not segs and not all(
            map(cmath.isfinite, (c for s in mu.segments for c in s.coeffs))):
        raise ValidationError("overlapping segments sum to a non-finite coefficient")
    return mu


def zero_measure(window) -> LocalMeasure:
    return make_measure((), (), window)


def lebesgue(window) -> LocalMeasure:
    """The Lebesgue measure restricted to the window."""
    lo, hi = window
    return make_measure((), ((lo, hi, (1.0,)),), window)


def dirac(x, weight=1.0, window=None) -> LocalMeasure:
    if window is None:
        window = (x - 1.0, x + 1.0)
    return make_measure(((x, weight),), (), window)


# ---------------------------------------------------------------------------
# elementary operations


def _mass(mu, a, b):
    """mu((a, b])."""
    return sum((w for _, w in mu.atoms_in(a, b)), 0j) + sum(
        (s.integral_over(a, b) for s in mu.segments_meeting(a, b)), 0j
    )


def phi(mu: LocalMeasure, t: float) -> complex:
    """The primitive phi(t) = mu((0, t]) for t >= 0, -mu((t, 0]) for t < 0."""
    mu.check_span(min(t, 0.0), max(t, 0.0), "phi span")
    if t >= 0:
        return _mass(mu, 0.0, t)
    return -_mass(mu, t, 0.0)


def restrict(mu: LocalMeasure, interval) -> LocalMeasure:
    """Restriction to the half-open interval (lo, hi]."""
    a, b = float(interval[0]), float(interval[1])
    mu.check_span(a, b, "restriction")
    return LocalMeasure(mu.atoms_in(a, b), _clipped_segments(mu, a, b), mu.window)


def _clipped_segments(mu, a, b):
    """The segments of mu cut to [a, b], each re-expanded at its new start."""
    segs = []
    for s in mu.segments_meeting(a, b):
        s0, s1 = max(s.start, a), min(s.end, b)
        if s1 > s0:
            segs.append(Segment(s0, s1, poly.shift_origin(s.coeffs, s0 - s.start)))
    return tuple(segs)


def translate(mu: LocalMeasure, p: float) -> LocalMeasure:
    """The translate mu(. + p): new measure at t equals mu at t + p.

    A segment narrower than the float spacing at its new place, whose ends
    round together there, becomes an atom of its mass at its new end."""
    atoms, segs = [(x - p, w) for x, w in mu.atoms], []
    for s in mu.segments:
        start, end = s.start - p, s.end - p
        if start < end:
            segs.append(Segment(start, end, s.coeffs))
        else:
            atoms.append((end, s.integral_over(s.start, s.end)))
    return LocalMeasure(tuple(atoms), tuple(segs), (mu.lo - p, mu.hi - p))


def scale(mu: LocalMeasure, r: float) -> LocalMeasure:
    """The scaled measure mu_r := r * mu(r .), window scaled by 1/r.

    A segment whose ends round together at their new place becomes an atom
    of its mass (times r) at its new end, as in `translate`."""
    if not r > 0:
        raise DomainError(f"scale factor must be positive, got {r}")
    atoms, segs = [(x / r, r * w) for x, w in mu.atoms], []
    for s in mu.segments:
        start, end = s.start / r, s.end / r
        if start < end:
            segs.append(Segment(start, end, tuple(c * r ** (k + 2) for k, c in enumerate(s.coeffs))))
        else:
            atoms.append((end, r * s.integral_over(s.start, s.end)))
    return LocalMeasure(tuple(atoms), tuple(segs), (mu.lo / r, mu.hi / r))


def negate(mu: LocalMeasure) -> LocalMeasure:
    atoms = tuple((x, -w) for x, w in mu.atoms)
    segs = tuple(Segment(s.start, s.end, poly.negate(s.coeffs)) for s in mu.segments)
    return LocalMeasure(atoms, segs, mu.window)


def _overlay_segments(segments):
    """Nonzero segments sorted by start; where any overlap, the sum of all
    of them (in the given order), cut at every start and end.

    One sweep over the cuts: a segment is active from its start to its end,
    so the active ones are exactly those covering the cell after a cut.
    """
    segments = [s for s in segments if any(s.coeffs)]
    by_start = sorted(range(len(segments)), key=lambda i: segments[i].start)
    ordered = [segments[i] for i in by_start]
    if all(map(le, map(_END, ordered), map(_START, ordered[1:]))):
        return tuple(ordered)
    cuts = sorted({s.start for s in segments} | {s.end for s in segments})
    out, active, k = [], [], 0
    for a, b in zip(cuts[:-1], cuts[1:]):
        active = [i for i in active if segments[i].end > a]
        while k < len(by_start) and ordered[k].start <= a:
            insort(active, by_start[k])
            k += 1
        total = None
        for i in active:  # in the given order
            s = segments[i]
            c = poly.shift_origin(s.coeffs, a - s.start)
            total = c if total is None else poly.add(total, c)
        if total is not None and any(v != 0 for v in total):
            out.append(Segment(a, b, poly.trim(total)))
    return tuple(out)


def add_measures(m1: LocalMeasure, m2: LocalMeasure) -> LocalMeasure:
    """Sum on the intersection of the two windows."""
    lo, hi = max(m1.lo, m2.lo), min(m1.hi, m2.hi)
    if not lo < hi:
        raise DomainError("measure windows do not overlap")
    atoms, segs = (), ()
    for m in (m1, m2):
        # atoms on the closed window [lo, hi]
        atoms += m.atoms[bisect_left(m.atoms, lo, key=_POS):bisect_right(m.atoms, hi, key=_POS)]
        segs += _clipped_segments(m, lo, hi)
    return LocalMeasure(atoms, segs, (lo, hi))


def subtract(m1: LocalMeasure, m2: LocalMeasure) -> LocalMeasure:
    return add_measures(m1, negate(m2))


def total_variation(mu: LocalMeasure, interval=None) -> float:
    """|mu|((a, b]): atom moduli plus integrals of |density|.

    Real densities are split at their roots (exact); genuinely complex
    coefficients go through the Gauss rule of `poly.integral_abs`.
    """
    a, b = mu.window if interval is None else map(float, interval)
    mu.check_span(a, b, "interval")
    total = sum(abs(w) for _, w in mu.atoms_in(a, b))
    total += sum(s.abs_integral_over(a, b) for s in mu.segments_meeting(a, b))
    return float(total)


# ---------------------------------------------------------------------------
# absolute-value decomposition and sliding-window mass suprema


def _abs_segments(segments):
    """|density| of the segments as nonnegative, non-overlapping
    poly.abs_pieces.  A complex density gives |Re rho| + |Im rho|, which
    bounds |rho| above: one polynomial on each piece between the cuts of
    |Re rho| and |Im rho|."""
    out = []
    for s in segments:
        if poly.is_real(s.coeffs):
            out.extend(poly.abs_pieces(poly.to_real(s.coeffs), s.start, s.end))
            continue
        parts = [poly.abs_pieces(tuple(getattr(c, part) for c in s.coeffs), s.start, s.end)
                 for part in ("real", "imag")]
        cuts = sorted({p.start for pieces in parts for p in pieces} | {s.start, s.end})
        for a, b in zip(cuts[:-1], cuts[1:]):
            m = 0.5 * (a + b)
            total = (0.0,)
            for pieces in parts:
                for p in pieces:
                    if p.start <= m <= p.end:
                        total = poly.add(total, poly.shift_origin(p.coeffs, a - p.start))
                        break
            out.append(poly.Piece(a, b, total))
    return out


class SlidingMass:
    """The one sweep of a nonnegative measure: atoms (pos, mass >= 0) and
    pieces (start, end, coeffs), both sorted by position, the pieces
    disjoint.  The pieces are nonnegative polynomials or, with `modulus`,
    complex densities rho of which |rho| is integrated (exact up to the
    quadrature of `poly.integral_abs`).  The prefix sums of the atom and
    piece masses are built once; `mass` and `sliding_sup` read them."""

    def __init__(self, atoms, pieces, modulus=False):
        self._xs = [x for x, _ in atoms]
        self._pieces = pieces
        self._starts = [p.start for p in pieces]
        self._ends = [p.end for p in pieces]
        self._modulus = modulus
        self._integral = integral = poly.integral_abs if modulus else poly.integral
        self._atom_prefix = list(accumulate((m for _, m in atoms), initial=0.0))
        self._piece_prefix = list(accumulate(
            (integral(p.coeffs, 0.0, p.end - p.start) for p in pieces), initial=0.0))

    def _piece_cum(self):
        """cum(x) = mass of the pieces on (-inf, x]: the prefix sum up to
        the piece holding x, less that piece's part beyond x."""
        starts, pieces = self._starts, self._pieces
        piece_prefix, integral = self._piece_prefix, self._integral

        def cum(x):
            i = bisect_right(starts, x)
            total = piece_prefix[i]
            if i:
                p = pieces[i - 1]
                if x < p.end:
                    total -= integral(p.coeffs, x - p.start, p.end - p.start)
            return total

        return cum

    def mass(self, lo, hi):
        """The mass of (lo, hi]."""
        xs, atom_prefix, cum = self._xs, self._atom_prefix, self._piece_cum()
        return ((atom_prefix[bisect_right(xs, hi)] + cum(hi))
                - (atom_prefix[bisect_right(xs, lo)] + cum(lo)))

    def sliding_sup(self, lo, hi, width):
        """Exact sup over a in [lo, hi - width] of the mass of (a, a + width].

        The candidates are the ends of that range and every a in it with a
        or a + width on an atom, a piece end or an end of the span; between
        candidates the window mass is smooth in a, and the interior zeros
        of its derivative are added.  A candidate reads the pieces' cum
        once at each end and the atoms' prefix sums twice: for (a, a + width]
        and, leaving out an atom on either end, for [a, a + width), the
        limit of the windows just left of a.  The sup is the largest mass
        (0 for none), so the candidates are sorted only for the root
        search."""
        span = hi - lo
        # a span built from its ends rounds at their scale
        if width > span + span_slack(lo, hi):
            raise DomainError(f"width {width} exceeds window span {span}")
        width = min(width, span)
        xs, starts, pieces = self._xs, self._starts, self._pieces
        atom_prefix, cum = self._atom_prefix, self._piece_cum()
        # half-open convention: an atom exactly at lo can never fall in (a, a+w]
        first, last = bisect_right(xs, lo), bisect_right(xs, hi)
        p0, p1 = bisect_right(self._ends, lo), bisect_left(starts, hi)

        a_lo, a_hi = lo, hi - width
        candidates = {a_lo, a_hi}
        for b in {lo, hi}.union(xs[first:last], starts[p0:p1], self._ends[p0:p1]):
            for a in (b, b - width):
                if a_lo <= a <= a_hi:
                    candidates.add(a)

        best = 0.0
        for a in candidates:
            b = a + width
            at_b, at_a = cum(b), cum(a)
            best = max(best,
                       (atom_prefix[bisect_right(xs, b, first, last)] + at_b)
                       - (atom_prefix[bisect_right(xs, a, first, last)] + at_a),
                       (atom_prefix[bisect_left(xs, b, first, last)] + at_b)
                       - (atom_prefix[bisect_left(xs, a, first, last)] + at_a))

        if p1 > p0:
            # between candidates the window mass g is smooth in a; add the
            # interior zeros of g'(a) = f(a + width) - f(a), with f = |rho| for
            # a modulus: there |rho(a + width)|^2 = |rho(a)|^2
            def density_at(x):
                i = bisect_right(starts, x)
                if i > 0 and pieces[i - 1].start <= x <= pieces[i - 1].end:
                    return pieces[i - 1].coeffs, pieces[i - 1].start
                return (0.0,), x

            f = poly.abs_sq if self._modulus else poly.to_real
            cand = sorted(candidates)
            for a0, a1 in zip(cand[:-1], cand[1:]):
                if a1 - a0 <= 1e-14:
                    continue
                mid = 0.5 * (a0 + a1)
                cl, ol = density_at(mid)
                cr, orr = density_at(mid + width)
                if len(poly.trim(cl)) == 1 and len(poly.trim(cr)) == 1:
                    continue  # window mass is affine in a: endpoints suffice
                # express both sides around a0
                pl = poly.shift_origin(f(cl), a0 - ol)
                pr = poly.shift_origin(f(cr), a0 + width - orr)
                diff = poly.add(pr, poly.negate(pl))
                for root in poly.real_roots_in(diff, 0.0, a1 - a0):
                    a = a0 + root
                    b = a + width
                    best = max(best, (atom_prefix[bisect_right(xs, b, first, last)] + cum(b))
                               - (atom_prefix[bisect_right(xs, a, first, last)] + cum(a)))
        return best


def abs_mass(mu, lo, hi):
    """`SlidingMass` of |mu| on (lo, hi]: the atoms' |w| and the nonnegative
    pieces of `_abs_segments`, so a complex density counts with
    |Re rho| + |Im rho| >= |rho|.  The segments are cut to [lo, hi] first:
    the prefix sums then add up |mu|((lo, hi]) and nothing outside it, so
    every mass read from them rounds relative to that."""
    atoms = [(x, abs(w)) for x, w in mu.atoms_in(lo, hi)]
    return SlidingMass(atoms, _abs_segments(_clipped_segments(mu, lo, hi)))


def norm_unif(mu: LocalMeasure, r: float = 1.0) -> float:
    """The scaled uniform norm (1/r) sup_a |mu|((a, a+r]) over the window.

    The sup ranges over a with (a, a+r] inside the working window.  One
    candidate-and-critical-point sweep, `SlidingMass.sliding_sup`, serves
    both cases: exact on the pieces of `abs_mass` for real densities, exact
    up to the Gauss rule of `poly.integral_abs` on |rho| (`modulus`) for
    complex ones.  The value is kept on `mu`, so each r is swept once per
    measure.
    """
    if not r > 0:
        raise DomainError(f"r must be positive, got {r}")
    lo, hi = mu.window
    if hi - lo < r:
        raise DomainError(f"r={r} larger than window length {hi - lo}")
    if r not in mu._norm_unif:
        if mu.has_real_density():
            sweep = abs_mass(mu, lo, hi)
        else:
            atoms = [(x, abs(w)) for x, w in mu.atoms_in(lo, hi)]
            sweep = SlidingMass(atoms, mu.segments, modulus=True)
        mu._norm_unif[r] = sweep.sliding_sup(lo, hi, r) / r
    return mu._norm_unif[r]


# ---------------------------------------------------------------------------
# span and cumulative primitive pieces (shared with seminorm and propagator)


def span_pieces(mu: LocalMeasure, a: float, b: float):
    """The pieces of mu between consecutive cuts x0 < x1 of [a, b], cut at
    a, b, the atoms and the segment ends: yields (x0, x1, the segment on
    (x0, x1) or None, the weight of the atom at x1 or None)."""
    atoms = dict(mu.atoms_in(a, b))
    segs = mu.segments_meeting(a, b)
    cuts = sorted({a, b} | atoms.keys() | {max(s.start, a) for s in segs}
                  | {min(s.end, b) for s in segs})
    k = 0
    for x0, x1 in zip(cuts, cuts[1:]):
        # segment ends are cuts: the covering segment is the first not ended
        while k < len(segs) and segs[k].end <= x0:
            k += 1
        covered = k < len(segs) and segs[k].start <= x0
        yield x0, x1, segs[k] if covered else None, atoms.get(x1)


def cumulative_pieces(mu: LocalMeasure, wlo: float, whi: float):
    """Right-continuous S(t) = mu((wlo, t]) as polynomial pieces.

    Returns a list of (t0, t1, coeffs) with S(t) = poly(t - t0) on [t0, t1),
    covering [wlo, whi).  Degree <= 4.
    """
    mu.check_span(wlo, whi, "span")
    pieces, cum = [], 0j
    for t0, t1, s, w in span_pieces(mu, wlo, whi):
        if s is None:
            coeffs = (cum,)
        else:
            density = poly.shift_origin(s.coeffs, t0 - s.start)
            coeffs = poly.add((cum,), poly.antiderivative(density))
        pieces.append((t0, t1, poly.trim(coeffs)))
        cum = poly.evaluate(coeffs, t1 - t0)
        if w is not None:
            cum += w
    return pieces


# ---------------------------------------------------------------------------
# piecewise affine functions (test functions u and Lipschitz multipliers psi)


@dataclass(frozen=True)
class PiecewiseAffine:
    """Continuous piecewise-affine function, zero outside its breakpoint span."""

    xs: tuple
    ys: tuple

    def __post_init__(self):
        # Python scalars, so no NumPy scalar reaches the measures made with it
        object.__setattr__(self, "xs", tuple(map(float, self.xs)))
        object.__setattr__(self, "ys", tuple(
            complex(y) if isinstance(y, (complex, np.complexfloating)) else float(y)
            for y in self.ys))
        if len(self.xs) != len(self.ys) or len(self.xs) < 2:
            raise ValidationError("need matching xs/ys with at least two points")
        if any(b <= a for a, b in zip(self.xs[:-1], self.xs[1:])):
            raise ValidationError("breakpoints must be strictly increasing")

    @property
    def support(self):
        return (self.xs[0], self.xs[-1])

    def __call__(self, t):
        if t < self.xs[0] or t > self.xs[-1]:
            return 0.0
        i = min(bisect_right(self.xs, t), len(self.xs) - 1)
        x0, x1 = self.xs[i - 1], self.xs[i]
        y0, y1 = self.ys[i - 1], self.ys[i]
        return y0 + (y1 - y0) * (t - x0) / (x1 - x0)

    def sup_norm(self):
        return max(abs(y) for y in self.ys)

    def slope_sup(self):
        return max(abs(slope) for *_, slope in self.pieces())

    def pieces(self):
        """Affine pieces as (x0, x1, value_at_x0, slope)."""
        out = []
        for x0, x1, y0, y1 in zip(self.xs[:-1], self.xs[1:], self.ys[:-1], self.ys[1:]):
            out.append((x0, x1, y0, (y1 - y0) / (x1 - x0)))
        return out


def multiply_lipschitz(mu: LocalMeasure, psi: PiecewiseAffine) -> LocalMeasure:
    """The measure psi * mu.

    Atom weights are multiplied by psi(position).  Segment polynomials are
    multiplied by the affine pieces (degree bump +1); degree-4 products are
    re-approximated by subdivided Hermite cubics at 1e-12 relative accuracy.
    """
    atoms = tuple((x, psi(x) * w) for x, w in mu.atoms)
    segs = []
    for a, b, prod in affine_products(mu, psi):
        if len(prod) <= MAX_DEGREE + 1:
            segs.append(Segment(a, b, prod))
        else:
            segs += _cubic_resample(a, b, prod)
    return LocalMeasure(atoms, tuple(segs), mu.window)


def affine_products(mu: LocalMeasure, u: PiecewiseAffine):
    """The density of mu times u: for each density segment and affine piece
    of u that meet, (a, b, p) with (a, b) their overlap and p, in t - a, the
    segment's polynomial times the piece (trimmed, degree <= MAX_DEGREE + 1)."""
    pieces = u.pieces()
    for s in mu.segments_meeting(*u.support):
        for x0, x1, y0, slope in pieces:
            a, b = max(s.start, x0), min(s.end, x1)
            if a < b:
                base = poly.shift_origin(s.coeffs, a - s.start)
                yield a, b, poly.trim(poly.multiply(base, (y0 + slope * (a - x0), slope)))


# relative accuracy of the Hermite cubics of `_cubic_resample`
_RESAMPLE_REL_TOL = 1e-12


def _cubic_resample(a, b, coeffs):
    """Approximate a real/complex polynomial piece of degree exactly 4 (a
    trimmed product of `affine_products`) by Hermite cubics.

    The cell count needs no budget: on an interval of length L a quartic
    with leading coefficient c4 has sup |p| >= |c4| L^4 / 128 (Chebyshev),
    so h >= L (1e-12 / 8)^(1/4) and n <= 1,682 cells, which T4 mapped to
    [0, L] takes at every L."""
    scale_ref = max(poly.sup_abs_on(coeffs, 0.0, b - a), 1e-300)
    f4 = 24.0 * abs(coeffs[4])
    h = (384.0 * _RESAMPLE_REL_TOL * scale_ref / f4) ** 0.25
    n = max(1, int(math.ceil((b - a) / h)))
    d = poly.derivative(coeffs)
    # the last node is b itself, so the pieces end where the next segment begins
    nodes = [a + (b - a) * k / n for k in range(n)] + [b]
    return _hermite_segments(
        np.array(nodes), np.array([poly.evaluate(coeffs, x - a) for x in nodes]),
        np.array([poly.evaluate(d, x - a) for x in nodes]))


def _times(k, re, im):
    """k * (re + i im) for a real k, as Python forms it: the product with
    the complex (k, 0), whose zero terms keep Python's signed zeros."""
    return k * re - 0.0 * im, k * im + 0.0 * re


def _over(re, im, h):
    """(re + i im) / h for h > 0, as Python's complex quotient by (h, 0)
    forms it, part by part; NumPy's would multiply by a reciprocal."""
    return (re + im * 0.0) / h, (im - re * 0.0) / h


def _complex(re, im):
    """The complex array re + i im, each part with its bits; re + 1j * im
    would turn a -0.0 real part into +0.0."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def _hermite_segments(nodes, f, df):
    """The Hermite cubic Segments between consecutive nodes, from the
    arrays of nodes and of complex values and slopes at them.  Each
    coefficient has the bits of the scalar cubic matching the values and
    slopes at both ends, signed zeros included."""
    h = np.diff(nodes)
    (f0, f1), (d0, d1) = ((v[:-1], v[1:]) for v in (f, df))
    f0r, f0i, f1r, f1i = f0.real, f0.imag, f1.real, f1.imag
    d0r, d0i, d1r, d1i = d0.real, d0.imag, d1.real, d1.imag
    # c2 = (3 (f1 - f0) / h - 2 d0 - d1) / h
    ur, ui = _over(*_times(3.0, f1r - f0r, f1i - f0i), h)
    vr, vi = _times(2.0, d0r, d0i)
    c2 = _over(ur - vr - d1r, ui - vi - d1i, h)
    # c3 = (2 (f0 - f1) / h + d0 + d1) / h^2
    ur, ui = _over(*_times(2.0, f0r - f1r, f0i - f1i), h)
    c3 = _over(ur + d0r + d1r, ui + d0i + d1i, h * h)
    coeffs = zip(f0.tolist(), d0.tolist(), _complex(*c2).tolist(), _complex(*c3).tolist())
    return [Segment(x0, x1, c if c[-1] else poly.trim(c))
            for x0, x1, c in zip(nodes[:-1].tolist(), nodes[1:].tolist(), coeffs)]


# ---------------------------------------------------------------------------
# mollification


def _kernels(n):
    """The coefficients of psi_n(x) = n * c * (1 - (nx)^2)^3 on (-1/n, 1/n)
    and of psi_n', low-order first, as the columns of a 7 x 2 array."""
    n2 = float(n) * float(n)
    base = (1.0, 0.0, -3.0 * n2, 0.0, 3.0 * n2 * n2, 0.0, -n2 * n2 * n2)
    kern = tuple(n * MOLLIFIER_NORM * c for c in base)
    return np.array([kern, poly.derivative(kern) + (0.0,)]).T


# the divisors of the antiderivative of a kernel times a density of degree
# MAX_DEGREE, whose product has degree 6 + MAX_DEGREE
_DIVISORS = np.arange(1.0, MAX_DEGREE + 8.0)


def _horner(coeffs, x):
    """Horner's rule at x over the first axis of coeffs, low order first."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


def _mollified_nodes(mu, half, kernels, x):
    """Exact (psi_n * mu)(x) and its derivative at the sorted nodes x (one
    Hermite cell's), as two complex arrays, with half = 1/n and the
    `_kernels` of n.

    One array pass per atom and segment that meets the nodes' kernel zone
    (x - 1/n, x + 1/n): each term is masked to the nodes whose zone the
    piece meets, and the terms are summed, at each node, in the order and
    with the roundings of the per-node scalar sum: atoms, then segments, by
    position; a segment's Taylor shift to x, its product with the kernel
    and the antiderivative, expanded in the kernel variable v = y - x so
    that every term stays O(n).  Expanding the ~n^7-sized kernel
    coefficients around a distant origin would cancel catastrophically.
    The real and imaginary parts go separately (a real measure's imaginary
    parts are all zero and skipped): a complex times a real is a product
    of parts, and a quotient by the integer k is part / k, where NumPy's
    complex quotient would multiply by a reciprocal.  For finite values the
    zero terms of Python's complex arithmetic only change the sign of
    zeros, which the sums, started at +0, drop.
    """
    xm, xp = x - half, x + half
    # the exact test is on v = x - p; the wider span only has to hold those atoms
    atoms = mu.atoms_in(x[0] - 2.0 * half, x[-1] + 2.0 * half)
    segs = mu.segments_meeting(xm[0], xp[-1])
    coeffs = [s.coeffs + (0j,) * (MAX_DEGREE + 1 - len(s.coeffs)) for s in segs]
    complex_ = any(w.imag for _, w in atoms) or any(c.imag for cs in coeffs for c in cs)
    parts = 2 if complex_ else 1
    # f and f', each by part
    acc = np.zeros((2, parts, len(x)))
    if atoms:
        w = np.array([(w.real, w.imag) for _, w in atoms])[:, :parts, None]
        v = x - np.array([p for p, _ in atoms])[:, None]
        k = _horner(kernels[:, :, None, None], v)[:, :, None] * w
        terms = np.where(((-half < v) & (v < half))[:, None], k, 0.0)
        for i in range(len(atoms)):
            acc += terms[:, i]
    if segs:
        c = np.array(coeffs)
        c = np.stack((c.real, c.imag), axis=-1)[:, :, :parts, None]
        start = np.array([s.start for s in segs])[:, None]
        end = np.array([s.end for s in segs])[:, None]
        # rho(x + v) in v: the synthetic division of `poly.shift_origin`
        d = (x - start)[:, None]
        rho = [c[:, j] for j in range(MAX_DEGREE + 1)]
        for i in range(MAX_DEGREE):
            for j in range(MAX_DEGREE - 1, i - 1, -1):
                rho[j] = rho[j] + d * rho[j + 1]
        rho = np.stack(np.broadcast_arrays(*rho))[:, None]
        # psi_n(x - y) = psi_n(v) (even), psi_n'(x - y) = -psi_n'(v)
        prod = np.zeros((len(_DIVISORS), 2) + rho.shape[2:])
        for i, k in enumerate(kernels[:, :, None, None, None]):
            prod[i:i + MAX_DEGREE + 1] += k * rho
        prod /= _DIVISORS[:, None, None, None, None]
        # (y1 - x, y0 - x), with (y0, y1) the segment's part of the zone
        ends = (np.stack((np.minimum(end, xp), np.maximum(start, xm))) - x)[:, :, None]
        value = _horner(prod[:, :, None], ends) * ends
        terms = np.where(((end > xm) & (start < xp))[:, None], value[:, 0] - value[:, 1], 0.0)
        terms[1] *= -1.0
        for i in range(len(segs)):
            acc += terms[:, i]
    if not complex_:
        acc = np.concatenate((acc, np.zeros_like(acc)), axis=1)
    return _complex(*acc[0]), _complex(*acc[1])


def mollify(mu: LocalMeasure, n: int) -> LocalMeasure:
    measure, _ = mollify_with_error(mu, n)
    return measure


def mollify_with_error(mu: LocalMeasure, n: int):
    """Absolutely continuous psi_n * mu as piecewise cubics.

    Returns (measure, sup_error_bound).  The cells are cut at every atom and
    segment end +- 1/n; a cut within 1e-15 * max(1, |x|) of the one before
    it is dropped, so they tile the window.  Cells whose kernel zone is
    covered by a single polynomial piece (or nothing) are exact; the rest
    are Hermite cubic interpolants on a grid of width ~0.0187/n, giving a
    sup error of at most 1e-7 * n * (local mass), from |f''''| <= 315 n^5
    |mu|(zone) and the h^4/384 Hermite bound.  The bound covers the
    interpolation only, not the rounding of the node values: those come
    from one array pass per cell (`_mollified_nodes`) that rounds exactly
    as the scalar sum at each node, divisions done part by part.
    """
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"mollification order must be a positive integer, got {n}")
    half = 1.0 / n
    lo, hi = mu.lo + half, mu.hi - half
    if not lo < hi:
        raise DomainError("window too small for mollification margins")

    kernels = _kernels(n)

    bps = {lo, hi} | {x + d for x in mu.breakpoints() for d in (-half, half)}
    # cuts that should coincide, like (x + 2/n) - 1/n and x + 1/n, can round
    # apart: a cut within the slack of `segments_overlap` of the one before
    # it is dropped, not the cell between them, so the cells tile [lo, hi]
    cuts = []
    for b in sorted(b for b in bps if lo <= b <= hi):
        if not cuts or b - cuts[-1] > 1e-15 * max(1.0, abs(b)):
            cuts.append(b)
    cuts[-1] = hi

    h_interp = 0.018684 / n
    segs = []
    err_bound = 0.0
    for x0, x1 in zip(cuts[:-1], cuts[1:]):
        z0, z1 = x0 - half, x1 + half
        zone_atoms = [a for a in mu.atoms_in(z0, z1) if a[0] < z1]
        zone_segs = mu.segments_meeting(z0, z1)
        if not zone_atoms and not zone_segs:
            continue
        cover = zone_segs[0] if len(zone_segs) == 1 and not zone_atoms else None
        if cover is not None and cover.start <= z0 and z1 <= cover.end:
            # fully interior: psi_n * rho = rho + rho'' / (18 n^2), exact cubic
            local = poly.shift_origin(cover.coeffs, x0 - cover.start)
            corr = poly.scale_coeffs(
                poly.derivative(poly.derivative(local)), 1.0 / (18.0 * n * n)
            )
            segs.append(Segment(x0, x1, poly.trim(poly.add(local, corr))))
            continue
        zone_tv = sum(abs(w) for _, w in zone_atoms) + sum(
            s.abs_integral_over(z0, z1) for s in zone_segs
        )
        m = max(1, int(math.ceil((x1 - x0) / h_interp)))
        cell_h = (x1 - x0) / m
        err_bound = max(
            err_bound, (cell_h**4) / 384.0 * 315.0 * (float(n) ** 5) * zone_tv
        )
        # the last node is x1 itself, so the cell's pieces end where the next begins
        nodes = np.append(x0 + cell_h * np.arange(m), x1)
        segs += _hermite_segments(nodes, *_mollified_nodes(mu, half, kernels, nodes))
    return LocalMeasure((), tuple(segs), (lo, hi)), err_bound


# ---------------------------------------------------------------------------
# periodic measures


@dataclass(frozen=True)
class PeriodicMeasure:
    """A base measure on [0, p) repeated with period p."""

    base: LocalMeasure
    period: float

    def __post_init__(self):
        p = self.period
        if not p > 0:
            raise ValidationError(f"period must be positive, got {p}")
        for x, _ in self.base.atoms:
            if not 0.0 <= x < p:
                raise ValidationError(f"base atom at {x} outside [0, {p})")
        for s in self.base.segments:
            if s.start < 0.0 or s.end > p:
                raise ValidationError(
                    f"base segment [{s.start}, {s.end}] outside [0, {p}]"
                )


def materialize_periodic(P: PeriodicMeasure, window) -> LocalMeasure:
    """Union of all period shifts of the base intersecting the window.

    Raises ResourceError when the shifts it walks, about (hi - lo) / p + 6,
    times the base's atoms and segments (at least one, as an empty base
    still walks its shifts) exceed `ATOM_BUDGET`.  The count is a float, so
    a period far below the window's scale raises too."""
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise DomainError(f"invalid window {window}")
    p = P.period
    items = len(P.base.atoms) + len(P.base.segments)
    shifts = (hi - lo) / p + 6.0
    if shifts * max(items, 1) > ATOM_BUDGET:
        raise ResourceError(
            f"window {window} needs {shifts:.3g} shifts of period {p} with {items} "
            f"atoms and segments each, budget {ATOM_BUDGET}")
    k0 = int(math.floor((lo - p) / p)) - 1
    k1 = int(math.ceil(hi / p)) + 1
    atoms = []
    segs = []
    for k in range(k0, k1 + 1):
        off = k * p
        for x, w in P.base.atoms:
            y = x + off
            if lo < y <= hi:
                atoms.append((y, w))
        for s in P.base.segments:
            a, b = max(s.start + off, lo), min(s.end + off, hi)
            if b > a:
                segs.append(Segment(a, b, poly.shift_origin(s.coeffs, a - (s.start + off))))
    return LocalMeasure(tuple(atoms), tuple(segs), (lo, hi))


def fold_into_period(mu: LocalMeasure, p: float) -> PeriodicMeasure:
    """Sum of all period shifts folded onto [0, p).

    Folded positions x - k p of the same point differ by a few ulps across
    copies, so atoms within 8 eps of the folding scale are identified (the
    smallest position represents the cluster).
    """
    if not p > 0:
        raise DomainError(f"period must be positive, got {p}")
    span = max(abs(mu.lo), abs(mu.hi), p)
    tol = 8.0 * 2.220446049250313e-16 * span
    folded = []
    for x, w in mu.atoms:
        y = x - p * math.floor(x / p)
        if y >= p:  # floating wrap
            y -= p
        folded.append((y, w))
    folded.sort(key=_POS)
    atoms = []
    cluster_rep = None
    for y, w in folded:
        if cluster_rep is None or y - cluster_rep > tol:
            cluster_rep = y
        atoms.append((cluster_rep, w))
    segs = []
    for s in mu.segments:
        k0 = int(math.floor(s.start / p))
        k1 = int(math.ceil(s.end / p))
        for k in range(k0, k1 + 1):
            a, b = max(s.start, k * p), min(s.end, (k + 1) * p)
            if b > a:
                shifted = poly.shift_origin(s.coeffs, a - s.start)
                segs.append(Segment(a - k * p, min(b - k * p, p), shifted))
    base = LocalMeasure(tuple(atoms), tuple(segs), (0.0, p))
    return PeriodicMeasure(base, p)
