"""Low-degree polynomial helpers.

Polynomials are tuples of coefficients (c0, c1, ..., cn), low order first,
in a local variable x, so p(x) = sum c_k x^k.  Everything the measure layer
needs (evaluation, Taylor shifts, antiderivatives, root isolation, integrals
of |p|) stays closed-form for real coefficients; complex |p| is integrated
by one adaptive Gauss-Legendre rule (`gauss_integral`).
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import ToleranceError

# a polynomial in t - start on [start, end]; |p| pieces may exceed the
# measure-density degree cap, so these are not measure Segments
Piece = namedtuple("Piece", "start end coeffs")

_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)

# panel bisections integral_abs may make before it gives up
MAX_PANELS = 2000


def trim(coeffs):
    """Drop trailing (near-)zero leading coefficients; keep at least one."""
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def evaluate(coeffs, x):
    """Horner evaluation; x may be a scalar or ndarray."""
    acc = coeffs[-1]
    if isinstance(x, np.ndarray):
        dtype = complex if any(isinstance(c, complex) for c in coeffs) else float
        acc = np.full_like(x, acc, dtype=dtype)
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def is_real(coeffs):
    return all(getattr(c, "imag", 0.0) == 0 for c in coeffs)


def to_real(coeffs):
    return tuple(float(getattr(c, "real", c)) for c in coeffs)


def add(a, b):
    n = max(len(a), len(b))
    return tuple(
        (a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)
    )


def negate(a):
    return tuple(-c for c in a)


def scale_coeffs(a, s):
    return tuple(c * s for c in a)


def multiply(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def shift_origin(coeffs, d):
    """Re-expand p(x) as q(y) with x = y + d, i.e. q(y) = p(y + d).

    Used when a segment's local origin moves from t0 to t0 + d.  Repeated
    synthetic division by (x - d): pass i leaves q's coefficient i in c[i].
    """
    c = list(coeffs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += d * c[j + 1]
    return tuple(c)


def antiderivative(coeffs):
    return (0,) + tuple(c / (k + 1) for k, c in enumerate(coeffs))


def derivative(coeffs):
    if len(coeffs) == 1:
        return (0 * coeffs[0],)
    return tuple(c * k for k, c in enumerate(coeffs) if k >= 1)


def integral(coeffs, x0, x1):
    """Exact definite integral of p over [x0, x1] (local coordinates)."""
    F = antiderivative(coeffs)
    return evaluate(F, x1) - evaluate(F, x0)


def bracketed_newton(f, lo, hi, x):
    """Crossing of an increasing f with f(lo) < 0 <= f(hi); f returns
    (value, slope) and x is the first probe.

    A Newton step that leaves the bracket, or is longer than half the step
    before last, falls back to bisection.  Every probe is kept an ulp of the
    bracket's larger end inside it, so the bracket shrinks at each step, and
    a converged Newton iterate is followed by a probe on the other side: it
    closes to 2 ulp of its current ends, also for a crossing far below the
    first bracket's scale.  Returns its right end.
    """
    step = step_old = hi - lo
    while hi - lo > 2.0 * (gap := math.ulp(max(abs(lo), abs(hi)))):
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


def rising_objective(coeffs, level, sign):
    """y -> (sign (p(y) - level), sign p'(y)), value and slope from one
    Horner loop: the objective `bracketed_newton` takes on a monotone
    branch of p, with sign making it rise."""
    high = [sign * v for v in reversed(coeffs)]
    high[-1] = sign * (coeffs[0] - level)
    lead, rest = high[0], high[1:]

    def f(y):
        v, dv = lead, 0.0
        for a in rest:
            v, dv = v * y + a, dv * y + v
        return v, dv

    return f


def real_roots_in(coeffs, lo, hi):
    """Real roots of a real-coefficient polynomial inside (lo, hi), sorted.

    Degrees 1 and 2 are closed form.  Above, the roots of p' (found the
    same way) cut (lo, hi) into monotone branches; a branch whose end values
    have opposite signs holds exactly one root, which `bracketed_newton`
    closes.  Above degree 2, p(x) counts as zero when it is within the
    Horner rounding bound (2n + 1) 2^-53 sum |c_k| |x|^k at x:
    - tangency rule: a critical point where p is zero is a (double) root;
    - end rule: roots are taken on the open interval, and an end where p
      is zero starts or ends no sign change, so a root within rounding of
      lo or hi is dropped.
    """
    c = to_real(trim(coeffs))
    # a leading term below the rounding of the others on the interval moves
    # no root inside it: drop it, so that the closed forms and the branch
    # ends see the polynomial's numerical degree
    R = max(abs(lo), abs(hi))
    while (
        len(c) > 1
        and math.isfinite(R)
        and abs(c[-1]) * R ** (len(c) - 1)
        <= 2.0**-53 * sum(abs(v) * R**k for k, v in enumerate(c[:-1]))
    ):
        c = c[:-1]
    return _roots_in(c, lo, hi)


def _roots_in(c, lo, hi):
    """`real_roots_in` of a trimmed real c, recursing on p' above degree 2
    (privately, so that only outside calls reach the public name)."""
    deg = len(c) - 1
    if deg > 2:
        d = derivative(c)
        xs = [lo] + _roots_in(d, lo, hi) + [hi]
        absc = tuple(map(abs, c))
        vs = []
        for x in xs:
            v = evaluate(c, x)
            vs.append(0.0 if abs(v) <= (2 * deg + 1) * 2.0**-53 * evaluate(absc, abs(x)) else v)
        roots = []
        for i, (xa, xb, va, vb) in enumerate(zip(xs, xs[1:], vs, vs[1:])):
            if i and va == 0.0:
                roots.append(xa)
            if va < 0.0 < vb or vb < 0.0 < va:
                f = rising_objective(c, 0.0, 1.0 if vb > 0.0 else -1.0)
                roots.append(bracketed_newton(f, xa, xb, xa + (xb - xa) * va / (va - vb)))
        return roots
    if deg == 0:
        return []
    if deg == 1:
        raw = [-c[0] / c[1]]
    else:
        a2, a1, a0 = c[2], c[1], c[0]
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc < 0.0:
            raw = []
        elif disc == 0.0:
            raw = [-a1 / (2.0 * a2)]
        else:
            sq = math.sqrt(disc)
            q = -0.5 * (a1 + math.copysign(sq, a1))
            raw = [q / a2, a0 / q]  # |q| >= sqrt(disc) / 2 > 0
    return sorted({x for x in raw if lo < x < hi})


def abs_pieces(coeffs, t0, t1):
    """|p| on [t0, t1] as nonnegative Pieces, for real p in the local
    variable t - t0.

    Splits at the real roots, takes each piece's sign from the largest of
    |p| at its ends and midpoint, and re-expands the signed polynomial at
    the piece start, so each Piece is in global coordinates with its own
    local origin.  (The midpoint alone can give the wrong sign: a double
    root there that root isolation misses leaves p at rounding level.)
    """
    pts = [0.0] + real_roots_in(coeffs, 0.0, t1 - t0) + [t1 - t0]
    out = []
    for x0, x1 in zip(pts[:-1], pts[1:]):
        g0, g1 = t0 + x0, t0 + x1
        if x1 <= x0 or g1 <= g0:
            continue
        vals = [evaluate(coeffs, x) for x in (x0, 0.5 * (x0 + x1), x1)]
        sign = 1.0 if max(vals, key=abs) >= 0 else -1.0
        out.append(Piece(g0, g1, trim(shift_origin(tuple(sign * c for c in coeffs), x0))))
    return out


def integral_abs(coeffs, x0, x1):
    """Integral of |p(x)| over [x0, x1].

    Real coefficients: exact root splitting.  Complex coefficients: a
    constant in closed form, else `gauss_integral` of |p| to 1e-13
    relative; raises ToleranceError when it is still open after
    MAX_PANELS bisections.
    """
    if x1 <= x0:
        return 0.0
    c = trim(coeffs)
    if is_real(c):
        cr = to_real(c)
        pts = [x0] + real_roots_in(cr, x0, x1) + [x1]
        total = 0.0
        for a, b in zip(pts[:-1], pts[1:]):
            if b <= a:
                continue
            total += abs(integral(cr, a, b))
        return total
    if len(c) == 1:
        # the Gauss panels of a stretch of subnormal length never agree
        return float(abs(c[0])) * (x1 - x0)
    val, converged = gauss_integral(c, x0, x1, np.abs, MAX_PANELS)
    if not converged:
        raise ToleranceError(f"integral_abs: open after {MAX_PANELS} panel bisections")
    return float(val)


def abs_sq(coeffs):
    """|p(x)|^2 for real x, as a real polynomial."""
    re = to_real(coeffs)
    im = tuple(float(getattr(v, "imag", 0.0)) for v in coeffs)
    return add(multiply(re, re), multiply(im, im))


def abs_critical_points(coeffs, x0, x1):
    """x0, the critical points of |p|^2 inside (x0, x1), and x1, sorted:
    every kink and every extremum of |p| is one of them."""
    return [x0] + real_roots_in(derivative(abs_sq(trim(coeffs))), x0, x1) + [x1]


def _gauss(coeffs, fn, a, b):
    h = 0.5 * (b - a)
    return h * np.dot(_GL_W, fn(evaluate(coeffs, h * _GL_X + (a + h))).T)


def gauss_integral(coeffs, x0, x1, fn, max_panels):
    """(integral of fn(p(x)) over [x0, x1], converged) for a vectorised fn.

    fn maps the node values to one value per node, or to an array with one
    row per integrand (then the integral is an array and every entry must
    pass the test below).

    Splits at `abs_critical_points` and applies the 24-point Gauss-Legendre
    rule to each stretch in its own local variable: node rounding then scales
    with the stretch, on which a polynomial cannot be small against its
    coefficients, and not with |x|, which can stall the test below near a
    zero far from the origin.  A panel that differs from its two halves by
    more than its length's share of 1e-13 of the estimate is bisected, at
    most `max_panels` times.
    """
    pts = abs_critical_points(coeffs, x0, x1)
    todo = []
    for a, b in zip(pts[:-1], pts[1:]):
        if b > a:
            q = shift_origin(coeffs, a)
            todo.append((q, 0.0, b - a, _gauss(q, fn, 0.0, b - a)))
    tol = 1e-13 * sum(abs(t[-1]) for t in todo) / (x1 - x0)
    total, splits = 0.0, 0
    while todo:
        q, a, b, whole = todo.pop()
        m = 0.5 * (a + b)
        left, right = _gauss(q, fn, a, m), _gauss(q, fn, m, b)
        if np.all(abs(left + right - whole) <= tol * (b - a)) or not a < m < b:
            total += left + right
        elif splits == max_panels:
            return total + whole + sum(t[-1] for t in todo), False
        else:
            splits += 1
            todo += [(q, a, m, left), (q, m, b, right)]
    return total, True


def sup_abs_on(coeffs, x0, x1):
    """sup of |p| on [x0, x1]; exact via critical points for real p,
    critical points of |p|^2 otherwise."""
    c = trim(coeffs)
    if is_real(c):
        cr = to_real(c)
        xs = [x0, x1] + real_roots_in(derivative(cr), x0, x1)
        return max(abs(evaluate(cr, x)) for x in xs)
    return max(abs(evaluate(c, x)) for x in abs_critical_points(c, x0, x1))


def as_complex(coeffs):
    return tuple(complex(c) for c in coeffs)

