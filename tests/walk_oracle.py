"""The event-tuple factor walk, its folds and the row-wise CSV writer in
their former form, kept as oracles for the flat walk and the column writer.

`_factor_events` lists ('span', x0, x1, segment), ('atom', x, w) and
('sample', x) events; `_span_factors` turns a span into factors with None
placeholders for Magnus steps, which `_walk` fills from one batched kernel
call over runs (coeffs, x0, h, n).  `propagate` and `transfer_along` fold
those events exactly as the library did, so the flat walk must reproduce
their bytes.
"""

import math
from itertools import islice

import numpy as np

from weakgordon import measure as me
from weakgordon import poly
from weakgordon import propagator as pr

_SQRT3 = math.sqrt(3.0)


def magnus_factors(runs, z):
    """The batched Magnus kernel over runs (coeffs, x0, h, n)."""
    if not runs:
        return []
    counts = np.array([n for _, _, _, n in runs])
    h = np.repeat([run[2] for run in runs], counts)
    k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    x0 = np.repeat([run[1] for run in runs], counts) + k * h
    padded = [tuple(c) + (0j,) * (me.MAX_DEGREE + 1 - len(c)) for c, _, _, _ in runs]
    coeffs = np.repeat(np.array(padded, dtype=complex), counts, axis=0)

    def q_at(t):
        acc = coeffs[:, -1]
        for k in range(me.MAX_DEGREE - 1, -1, -1):
            acc = acc * t + coeffs[:, k]
        return acc - z

    q1 = q_at(x0 + (0.5 - _SQRT3 / 6.0) * h)
    q2 = q_at(x0 + (0.5 + _SQRT3 / 6.0) * h)
    qbar = 0.5 * (q1 + q2)
    delta = (_SQRT3 / 12.0) * h * h * (q1 - q2)
    w2 = delta * delta + h * h * qbar
    c, s = pr._even_funcs_array(w2)
    sh, sd = s * h, s * delta
    return list(zip((c + sd).tolist(), sh.tolist(), (sh * qbar).tolist(), (c - sd).tolist()))


def factor_events(mu, z, a, b, markers=()):
    """Ordered events from a up to b: ('span', x0, x1, segment),
    ('atom', x, w), ('sample', x)."""
    segments = mu.segments_meeting(a, b)
    atom_map = dict(mu.atoms_in(a, b))
    marker_set = {x for x in markers if a <= x <= b}
    cut = sorted({a, b} | {max(s.start, a) for s in segments} | {min(s.end, b) for s in segments}
                 | atom_map.keys() | marker_set)
    events = []
    if cut[0] in marker_set and cut[0] not in atom_map:
        events.append(("sample", cut[0]))
    k = 0
    for x0, x1 in zip(cut[:-1], cut[1:]):
        while k < len(segments) and segments[k].end <= x0:
            k += 1
        covering = k < len(segments) and segments[k].start <= x0
        events.append(("span", x0, x1, segments[k] if covering else None))
        if x1 in atom_map:
            events.append(("atom", x1, atom_map[x1]))
        if x1 in marker_set:
            events.append(("sample", x1))
    return events


def span_factors(z, x0, x1, segment, tol, runs):
    """Factors for the atom-free stretch (x0, x1); a Magnus step is None
    and its run appended to `runs`."""
    if segment is None:
        return [pr._const_factor(-z, x1 - x0)]
    c = poly.trim(segment.coeffs)
    if len(c) == 1:
        return [pr._const_factor(c[0] - z, x1 - x0)]
    step = min(x1 - x0, tol**0.25)
    n = max(1, int(math.ceil((x1 - x0) / step)))
    runs.append((segment.coeffs, x0 - segment.start, (x1 - x0) / n, n))
    return [None] * n


def walk(mu, z, a, b, tol, markers=(), backward=False):
    """('factor', F), ('atom', x, w) and ('sample', x) from a up to b or,
    with `backward`, inverted from b down to a."""
    runs = []
    events = []
    for ev in factor_events(mu, z, a, b, markers):
        if ev[0] == "span":
            events.extend(("factor", F) for F in span_factors(z, *ev[1:], tol, runs))
        else:
            events.append(ev)
    magnus = iter(magnus_factors(runs, z))
    events = [("factor", next(magnus)) if ev[1] is None else ev for ev in events]
    if not backward:
        return events
    return [("factor", pr._inv_unimodular(ev[1])) if ev[0] == "factor" else ev
            for ev in reversed(events)]


def propagate(mu, z, s, initial, grid, tol=1e-8):
    """(grid, u, du, jump_log) of the former `propagate`."""
    grid = np.asarray(sorted(float(g) for g in grid), dtype=float)
    state0 = (complex(initial[0]), complex(initial[1]))
    u = np.zeros(grid.size, dtype=complex)
    du = np.zeros(grid.size, dtype=complex)
    jumps = []
    right = [i for i in range(grid.size) if grid[i] >= s]
    left = [i for i in range(grid.size) if grid[i] < s]
    for side, backward in ((right, False), (left[::-1], True)):
        if not side:
            continue
        v, dv = state0
        a, b = sorted((s, grid[side[-1]]))
        idx = 0
        for ev in walk(mu, z, a, b, tol, [grid[i] for i in side], backward):
            if ev[0] == "factor":
                f00, f01, f10, f11 = ev[1]
                v, dv = f00 * v + f01 * dv, f10 * v + f11 * dv
            elif ev[0] == "atom":
                jump = ev[2] * v
                jumps.append((ev[1], ev[2], jump))
                dv = dv - jump if backward else dv + jump
            else:
                while idx < len(side) and abs(grid[side[idx]] - ev[1]) <= 1e-12:
                    u[side[idx]] = v
                    du[side[idx]] = dv
                    idx += 1
    jumps.sort(key=lambda j: j[0])
    return grid, u, du, tuple(jumps)


def transfer_along(mu, z, base, points, tol):
    """T(x, base) for every x in sorted(points) and the summed det defect
    of the former `_transfer_along`."""
    points = sorted(set(float(p) for p in points) | {float(base)})
    out = {base: pr._EYE}
    defect = 0.0
    right = [p for p in points if p > base]
    left = [p for p in points if p < base]
    for side, backward in ((right, False), (left[::-1], True)):
        if not side:
            continue
        t00, t01, t10, t11 = pr._EYE
        a, b = sorted((base, side[-1]))
        for ev in walk(mu, z, a, b, tol, side, backward):
            if ev[0] == "sample":
                out[ev[1]] = (t00, t01, t10, t11)
                continue
            if ev[0] == "factor":
                F = ev[1]
            else:
                F = (1 + 0j, 0j, complex(ev[2]), 1 + 0j)
                if backward:
                    F = pr._inv_unimodular(F)
            f00, f01, f10, f11 = F
            t00, t01, t10, t11 = (f00 * t00 + f01 * t10, f00 * t01 + f01 * t11,
                                  f10 * t00 + f11 * t10, f10 * t01 + f11 * t11)
            defect += abs(F[0] * F[3] - F[1] * F[2] - 1.0)
    return out, defect


def transfer_matrix(mu, z, s, t, tol=1e-8):
    """(entries, det_defect) of the former `transfer_matrix`."""
    tmats, defect = transfer_along(mu, z, s, [t], tol)
    a, b, c, d = tmats[t]
    return np.array([[a, b], [c, d]]), defect


def _row_format(kinds):
    cells = ["%s" if issubclass(k, str) else "%.17g %.17g" if issubclass(k, complex) else "%.17g"
             for k in kinds]
    return ",".join(cells) + "\n"


def write_csv_rows(path, header, rows, footer_lines=(), block=4096):
    """The former row-wise CSV writer: one %-format per row type signature."""
    formats = {}
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        while chunk := list(islice(rows, block)):
            fmts, cells = [], []
            for row in chunk:
                kinds = tuple(map(type, row))
                if kinds not in formats:
                    formats[kinds] = (_row_format(kinds), any(issubclass(k, complex) for k in kinds))
                fmt, split = formats[kinds]
                fmts.append(fmt)
                if split:
                    cells.extend(p for v in row
                                 for p in ((v.real, v.imag) if isinstance(v, complex) else (v,)))
                else:
                    cells.extend(row)
            fh.write("".join(fmts) % tuple(cells))
        for line in footer_lines:
            fh.write(line + "\n")
