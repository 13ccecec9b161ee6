"""The per-node scalar mollifier sum and the scalar Hermite cubics in their
former form, kept as oracles for `measure`'s node pass and its array
Hermite segments.

`value_and_slope` is (psi_n * mu)(x) and its derivative at one node, summed
atom by atom and segment by segment in Python complex arithmetic;
`hermite_segments` forms each cubic from the values and slopes at its two
ends.  `mollify_with_error` runs `measure.mollify_with_error` with both in
place of the array code: it shares the cells and the error bound, and
differs only in how the nodes are valued and the cubics formed, so the
array code must reproduce its bytes.  It also returns each Hermite cell's
nodes with their scalar values.
"""

import numpy as np

from weakgordon import measure as me
from weakgordon import poly


def value_and_slope(mu, n, x):
    """Exact (psi_n * mu)(x) and its derivative.

    Segment convolutions are expanded in the kernel variable v = y - x, so
    every term stays O(n); expanding the ~n^7-sized kernel coefficients
    around a distant origin would cancel catastrophically.
    """
    kern = tuple(me._kernels(n)[:, 0].tolist())
    kern_d = poly.derivative(kern)
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


def hermite_cubic(x0, x1, f0, d0, f1, d1):
    """Cubic matching values/derivatives at both ends, coefficients in (x - x0)."""
    h = x1 - x0
    c0 = f0
    c1 = d0
    c2 = (3 * (f1 - f0) / h - 2 * d0 - d1) / h
    c3 = (2 * (f0 - f1) / h + d0 + d1) / (h * h)
    return (c0, c1, c2, c3)


def hermite_segments(nodes, f, df):
    """The Hermite cubic Segments between consecutive nodes, one scalar
    cubic each, from the values f and slopes df at the nodes."""
    nodes, f, df = (np.asarray(v).tolist() for v in (nodes, f, df))
    return [me.Segment(x0, x1, poly.trim(hermite_cubic(x0, x1, f0, d0, f1, d1)))
            for x0, x1, f0, d0, f1, d1 in zip(nodes, nodes[1:], f, df, f[1:], df[1:])]


def mollify_with_error(mu, n):
    """(measure, err, cells) of `measure.mollify_with_error` with the node
    values from `value_and_slope` and the cubics from `hermite_segments`;
    cells lists each Hermite cell's node array with its (f, f') pairs."""
    cells = []

    def nodes(mu, half, kernels, x):
        values = [value_and_slope(mu, n, t) for t in x.tolist()]
        cells.append((x, values))
        return [v for v, _ in values], [d for _, d in values]

    saved = me._mollified_nodes, me._hermite_segments
    me._mollified_nodes, me._hermite_segments = nodes, hermite_segments
    try:
        mol, err = me.mollify_with_error(mu, n)
    finally:
        me._mollified_nodes, me._hermite_segments = saved
    return mol, err, cells
