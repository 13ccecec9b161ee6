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
up to its 1e-13 quadrature tolerance.

Everything here is immutable and pure; values can be shared freely.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter, le, lt

from . import poly
from .errors import DomainError, RepresentationError, ValidationError

MAX_DEGREE = 3

# normalisation of the bump (1 - x^2)^3 on (-1, 1):  integral = 32/35
MOLLIFIER_NORM = 35.0 / 32.0

_POS, _WEIGHT = itemgetter(0), itemgetter(1)
_START, _END, _COEFFS = attrgetter("start"), attrgetter("end"), attrgetter("coeffs")


def segments_overlap(end, start):
    """Whether a segment from `start` overlaps one ending at `end` by more
    than the slack 1e-15 * max(1, |end|); overlaps within it are summed."""
    return start < end - 1e-15 * max(1.0, abs(end))


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
        if b <= a:
            return 0.0
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

    @property
    def lo(self):
        return self.window[0]

    @property
    def hi(self):
        return self.window[1]

    def is_real(self, tol=0.0):
        return all(abs(w.imag) <= tol for _, w in self.atoms) and all(
            poly.is_real(s.coeffs, tol) for s in self.segments
        )

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
    return LocalMeasure(tuple(atom_list), tuple(seg_list), (lo, hi))


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
    lo, hi = mu.window
    if not (lo <= t <= hi):
        raise DomainError(f"t={t} outside window [{lo}, {hi}]")
    if not (lo <= 0.0 <= hi):
        raise DomainError("phi requires 0 in the window")
    if t >= 0:
        return _mass(mu, 0.0, t)
    return -_mass(mu, t, 0.0)


def restrict(mu: LocalMeasure, interval) -> LocalMeasure:
    """Restriction to the half-open interval (lo, hi]."""
    a, b = float(interval[0]), float(interval[1])
    if a < mu.lo or b > mu.hi:
        raise DomainError(f"restriction {interval} not inside window {mu.window}")
    segs = []
    for s in mu.segments_meeting(a, b):
        s0, s1 = max(s.start, a), min(s.end, b)
        if s1 > s0:
            segs.append(Segment(s0, s1, poly.shift_origin(s.coeffs, s0 - s.start)))
    return LocalMeasure(mu.atoms_in(a, b), tuple(segs), mu.window)


def translate(mu: LocalMeasure, p: float) -> LocalMeasure:
    """The translate mu(. + p): new measure at t equals mu at t + p."""
    atoms = tuple((x - p, w) for x, w in mu.atoms)
    segs = tuple(Segment(s.start - p, s.end - p, s.coeffs) for s in mu.segments)
    return LocalMeasure(atoms, segs, (mu.lo - p, mu.hi - p))


def scale(mu: LocalMeasure, r: float) -> LocalMeasure:
    """The scaled measure mu_r := r * mu(r .), window scaled by 1/r."""
    if not r > 0:
        raise DomainError(f"scale factor must be positive, got {r}")
    atoms = tuple((x / r, r * w) for x, w in mu.atoms)
    segs = tuple(
        Segment(
            s.start / r,
            s.end / r,
            tuple(c * r ** (k + 2) for k, c in enumerate(s.coeffs)),
        )
        for s in mu.segments
    )
    return LocalMeasure(atoms, segs, (mu.lo / r, mu.hi / r))


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
    atoms = ()
    segs = []
    for m in (m1, m2):
        # atoms on the closed window [lo, hi]
        atoms += m.atoms[bisect_left(m.atoms, lo, key=_POS):bisect_right(m.atoms, hi, key=_POS)]
        for s in m.segments_meeting(lo, hi):
            a, b = max(s.start, lo), min(s.end, hi)
            segs.append(Segment(a, b, poly.shift_origin(s.coeffs, a - s.start)))
    return LocalMeasure(atoms, tuple(segs), (lo, hi))


def subtract(m1: LocalMeasure, m2: LocalMeasure) -> LocalMeasure:
    return add_measures(m1, negate(m2))


def total_variation(mu: LocalMeasure, interval=None) -> float:
    """|mu|((a, b]): atom moduli plus integrals of |density|.

    Real densities are split at their roots (exact); genuinely complex
    coefficients go through the Gauss rule of `poly.integral_abs`.
    """
    if interval is None:
        a, b = mu.window
    else:
        a, b = float(interval[0]), float(interval[1])
        if a < mu.lo or b > mu.hi:
            raise DomainError(f"interval {interval} not inside window {mu.window}")
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


def _sliding_sup(atom_items, segs, lo, hi, width, modulus=False):
    """Exact sup over a in [lo, hi - width] of `mass((a, a + width])` for a
    nonnegative measure given by atoms (pos, mass>=0) and segments: nonneg
    polynomial pieces or, with `modulus`, complex densities rho of which
    |rho| is integrated (exact up to the quadrature of `poly.integral_abs`).
    Both come sorted by position, the segments disjoint."""
    span = hi - lo
    if width > span + 1e-12:
        raise DomainError(f"width {width} exceeds window span {span}")
    width = min(width, span)
    mass = poly.integral_abs if modulus else lambda c, x0, x1: poly.integral(c, x0, x1).real

    # half-open convention: an atom exactly at lo can never fall in (a, a+w]
    atom_items = [(x, m) for x, m in atom_items if lo < x <= hi]
    jump_pos = [x for x, _ in atom_items]
    jump_prefix = [0.0]
    for _, m in atom_items:
        jump_prefix.append(jump_prefix[-1] + m)

    seg_start = [s.start for s in segs]
    seg_prefix = [0.0]
    for s in segs:
        a, b = max(s.start, lo), min(s.end, hi)
        full = mass(s.coeffs, a - s.start, b - s.start) if b > a else 0.0
        seg_prefix.append(seg_prefix[-1] + full)

    def _seg_cum(x):
        i = bisect_right(seg_start, x)
        total = seg_prefix[i]
        if i > 0:
            s = segs[i - 1]
            a, b = max(s.start, lo), min(s.end, hi)
            if b > a and x < b:
                total -= mass(s.coeffs, max(a, min(x, b)) - s.start, b - s.start)
        return total

    def cum(x):
        # mass of (lo, x]
        return jump_prefix[bisect_right(jump_pos, x)] + _seg_cum(x)

    def cum_left(x):
        # mass of (lo, x)
        return jump_prefix[bisect_left(jump_pos, x)] + _seg_cum(x)

    bps = sorted(
        {lo, hi} | set(jump_pos) | set(seg_start) | {s.end for s in segs}
    )
    candidates = set()
    a_lo, a_hi = lo, hi - width
    for b in bps:
        for a in (b, b - width):
            if a_lo - 1e-15 <= a <= a_hi + 1e-15:
                candidates.add(min(max(a, a_lo), a_hi))
    candidates.add(a_lo)
    candidates.add(a_hi)
    cand = sorted(candidates)

    best = 0.0
    for a in cand:
        best = max(best, cum(a + width) - cum(a))
        best = max(best, cum_left(a + width) - cum_left(a))

    if segs:
        # between candidates the window mass g is smooth in a; add the
        # interior zeros of g'(a) = f(a + width) - f(a), with f = |rho| for
        # a modulus: there |rho(a + width)|^2 = |rho(a)|^2
        def density_at(x):
            i = bisect_right(seg_start, x)
            if i > 0 and segs[i - 1].start <= x <= segs[i - 1].end:
                return segs[i - 1].coeffs, segs[i - 1].start
            return (0.0,), x

        for a0, a1 in zip(cand[:-1], cand[1:]):
            if a1 - a0 <= 1e-14:
                continue
            mid = 0.5 * (a0 + a1)
            cl, ol = density_at(mid)
            cr, orr = density_at(mid + width)
            if len(poly.trim(cl)) == 1 and len(poly.trim(cr)) == 1:
                continue  # window mass is affine in a: endpoints suffice
            # express both sides around a0
            f = poly.abs_sq if modulus else poly.to_real
            pl = poly.shift_origin(f(cl), a0 - ol)
            pr = poly.shift_origin(f(cr), a0 + width - orr)
            diff = poly.add(pr, poly.negate(pl))
            for root in poly.real_roots_in(diff, 0.0, a1 - a0):
                a = a0 + root
                best = max(best, cum(a + width) - cum(a))
    return best


def norm_unif(mu: LocalMeasure, r: float = 1.0) -> float:
    """The scaled uniform norm (1/r) sup_a |mu|((a, a+r]) over the window.

    The sup ranges over a with (a, a+r] inside the working window.  One
    candidate-and-critical-point sweep (`_sliding_sup`) serves both cases:
    exact for real densities, exact up to the Gauss rule of
    `poly.integral_abs` for complex ones.  The value is kept on `mu`, so
    each r is swept once per measure.
    """
    if not r > 0:
        raise DomainError(f"r must be positive, got {r}")
    lo, hi = mu.window
    if hi - lo < r:
        raise DomainError(f"r={r} larger than window length {hi - lo}")
    if r not in mu._norm_unif:
        atoms = [(x, abs(w)) for x, w in mu.atoms]
        if mu.has_real_density():
            value = _sliding_sup(atoms, _abs_segments(mu.segments), lo, hi, r) / r
        else:
            value = _sliding_sup(atoms, mu.segments, lo, hi, r, modulus=True) / r
        mu._norm_unif[r] = value
    return mu._norm_unif[r]


# ---------------------------------------------------------------------------
# cumulative primitive pieces (shared with the seminorm layer)


def cumulative_pieces(mu: LocalMeasure, wlo: float, whi: float):
    """Right-continuous S(t) = mu((wlo, t]) as polynomial pieces.

    Returns a list of (t0, t1, coeffs) with S(t) = poly(t - t0) on [t0, t1),
    covering [wlo, whi).  Degree <= 4.
    """
    if wlo < mu.lo - 1e-12 or whi > mu.hi + 1e-12:
        raise DomainError(f"[{wlo}, {whi}] not inside window {mu.window}")
    atom_map = dict(mu.atoms_in(wlo, whi))
    segs = mu.segments_meeting(wlo, whi)
    cuts = sorted({wlo, whi} | atom_map.keys() | {max(s.start, wlo) for s in segs}
                  | {min(s.end, whi) for s in segs})
    pieces = []
    cum = 0j
    k = 0
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        if t0 in atom_map:
            cum += atom_map[t0]
        # segment ends are cuts: the covering segment is the first not ended
        while k < len(segs) and segs[k].end <= t0:
            k += 1
        if k == len(segs) or segs[k].start > t0:
            coeffs = (cum,)
        else:
            density = poly.shift_origin(segs[k].coeffs, t0 - segs[k].start)
            coeffs = poly.add((cum,), poly.antiderivative(density))
        pieces.append((t0, t1, poly.trim(coeffs)))
        cum = poly.evaluate(coeffs, t1 - t0)
    return pieces


# ---------------------------------------------------------------------------
# piecewise affine functions (test functions u and Lipschitz multipliers psi)


@dataclass(frozen=True)
class PiecewiseAffine:
    """Continuous piecewise-affine function, zero outside its breakpoint span."""

    xs: tuple
    ys: tuple

    def __post_init__(self):
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
        return max(
            abs(y1 - y0) / (x1 - x0)
            for (x0, x1, y0, y1) in zip(self.xs[:-1], self.xs[1:], self.ys[:-1], self.ys[1:])
        )

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
    cuts_psi = list(psi.xs)
    for s in mu.segments_meeting(psi.xs[0], psi.xs[-1]):
        cuts = sorted({s.start, s.end} | {c for c in cuts_psi if s.start < c < s.end})
        for a, b in zip(cuts[:-1], cuts[1:]):
            mid = 0.5 * (a + b)
            if mid < psi.xs[0] or mid > psi.xs[-1]:
                continue  # outside support, psi = 0
            i = min(bisect_right(psi.xs, mid), len(psi.xs) - 1)
            x0 = psi.xs[i - 1]
            y0 = psi.ys[i - 1]
            slope = (psi.ys[i] - y0) / (psi.xs[i] - x0)
            base = poly.shift_origin(s.coeffs, a - s.start)
            affine = (y0 + slope * (a - x0), slope)
            prod = poly.trim(poly.multiply(base, affine))
            if len(prod) <= MAX_DEGREE + 1:
                segs.append(Segment(a, b, prod))
            else:
                segs.extend(_cubic_resample(a, b, prod))
    return LocalMeasure(atoms, tuple(segs), mu.window)


def _cubic_resample(a, b, coeffs, rel_tol=1e-12, budget=16384):
    """Approximate a real/complex degree-4 polynomial piece by Hermite cubics."""
    scale_ref = max(poly.sup_abs_on(coeffs, 0.0, b - a), 1e-300)
    c4 = coeffs[4] if len(coeffs) > 4 else 0.0
    f4 = 24.0 * abs(c4)
    if f4 == 0.0:
        return [Segment(a, b, poly.trim(coeffs[:4]))]
    h = (384.0 * rel_tol * scale_ref / f4) ** 0.25
    n = max(1, int(math.ceil((b - a) / h)))
    if n > budget:
        raise RepresentationError(
            f"degree reduction needs {n} cells, budget {budget}"
        )
    d = poly.derivative(coeffs)
    out = []
    # the last node is b itself, so the pieces end where the next segment begins
    nodes = [a + (b - a) * k / n for k in range(n)] + [b]
    for x0, x1 in zip(nodes, nodes[1:]):
        f0 = poly.evaluate(coeffs, x0 - a)
        f1 = poly.evaluate(coeffs, x1 - a)
        d0 = poly.evaluate(d, x0 - a)
        d1 = poly.evaluate(d, x1 - a)
        out.append(Segment(x0, x1, poly.trim(poly.hermite_cubic(x0, x1, f0, d0, f1, d1))))
    return out


# ---------------------------------------------------------------------------
# mollification


def _kernel_coeffs(n):
    """psi_n(x) = n * c * (1 - (nx)^2)^3 on (-1/n, 1/n), low-order first."""
    n2 = float(n) * float(n)
    base = (1.0, 0.0, -3.0 * n2, 0.0, 3.0 * n2 * n2, 0.0, -n2 * n2 * n2)
    return tuple(n * MOLLIFIER_NORM * c for c in base)


def _mollified_value_and_slope(mu, n, x, kern, kern_d):
    """Exact (psi_n * mu)(x) and its derivative.

    Segment convolutions are expanded in the kernel variable v = y - x, so
    every term stays O(n); expanding the ~n^7-sized kernel coefficients
    around a distant origin would cancel catastrophically.
    """
    half = 1.0 / n
    f = 0j
    df = 0j
    # the exact test is on v; the wider span only has to hold those atoms
    for p, w in mu.atoms_in(x - 2.0 * half, x + 2.0 * half):
        v = x - p
        if -half < v < half:
            f += w * poly.evaluate(kern, v)
            df += w * poly.evaluate(kern_d, v)
    for s in mu.segments_meeting(x - half, x + half):
        ya, yb = max(s.start, x - half), min(s.end, x + half)
        # psi_n(x - y) = psi_n(v) (even), psi_n'(x - y) = -psi_n'(v)
        rho_x = poly.shift_origin(s.coeffs, x - s.start)  # rho(x + v) in v
        f += poly.integral(poly.multiply(kern, rho_x), ya - x, yb - x)
        df -= poly.integral(poly.multiply(kern_d, rho_x), ya - x, yb - x)
    return f, df


def mollify(mu: LocalMeasure, n: int) -> LocalMeasure:
    measure, _ = mollify_with_error(mu, n)
    return measure


def mollify_with_error(mu: LocalMeasure, n: int):
    """Absolutely continuous psi_n * mu as piecewise cubics.

    Returns (measure, sup_error_bound).  Cells whose kernel zone is covered by
    a single polynomial piece (or nothing) are exact; the rest are Hermite
    cubic interpolants on a grid of width ~0.0187/n, giving a sup error of at
    most 1e-7 * n * (local mass), from |f''''| <= 315 n^5 |mu|(zone) and the
    h^4/384 Hermite bound.
    """
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"mollification order must be a positive integer, got {n}")
    half = 1.0 / n
    lo, hi = mu.lo + half, mu.hi - half
    if not lo < hi:
        raise DomainError("window too small for mollification margins")
    if mu.is_zero():
        return zero_measure((lo, hi)), 0.0

    kern = _kernel_coeffs(n)
    kern_d = poly.derivative(kern)

    bps = {lo, hi} | {x + d for x in mu.breakpoints() for d in (-half, half)}
    cuts = sorted(b for b in bps if lo <= b <= hi)

    h_interp = 0.018684 / n
    segs = []
    err_bound = 0.0
    for x0, x1 in zip(cuts[:-1], cuts[1:]):
        if x1 - x0 <= 1e-15:
            continue
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
        nodes = [x0 + cell_h * k for k in range(m)] + [x1]
        vals = [_mollified_value_and_slope(mu, n, x, kern, kern_d) for x in nodes]
        for a, b, (f0, d0), (f1, d1) in zip(nodes, nodes[1:], vals, vals[1:]):
            segs.append(Segment(a, b, poly.trim(poly.hermite_cubic(a, b, f0, d0, f1, d1))))
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
    """Union of all period shifts of the base intersecting the window."""
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise DomainError(f"invalid window {window}")
    p = P.period
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
