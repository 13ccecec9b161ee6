"""Command-line front end.

Subcommands: seminorm, propagate, gordon-scan, quasiperiodic, sharpness,
mollify.  Every run writes a machine-readable meta.json sidecar with the
tool version, parameters and certificates.  Outputs are decimal text at 17
significant digits, so identical configurations give byte-identical files.

Exit codes: 0 success, 2 parse/validation error or a file that cannot be
read or written (OSError), 3 numerical-tolerance failure, 4 resource budget
exceeded (including RepresentationError).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict
from itertools import chain, repeat

import click
import numpy as np

from . import __version__
from . import constructions as cons
from . import gordon as go
from . import measure as me
from . import measure_io as mio
from .errors import (
    DomainError,
    RepresentationError,
    ResourceError,
    ToleranceError,
    ValidationError,
)
from .propagator import propagate
from .seminorm import interval_seminorm, window_seminorm


def _fmt(x) -> str:
    if isinstance(x, complex):
        return f"{_fmt(x.real)} {_fmt(x.imag)}"
    return "%.17g" % float(x)


def _column(cells):
    """The %-format of a CSV column and its cell lists: text as is, numbers
    as `_fmt` prints them, a column with complex cells as two numbers.  A
    numeric array is told by its dtype; other cells are scanned."""
    if isinstance(cells, np.ndarray):
        if cells.dtype.kind in "biuf":
            return "%.17g", [cells.tolist()]
        if cells.dtype.kind == "c":
            return "%.17g %.17g", [cells.real.tolist(), cells.imag.tolist()]
    cells = cells.tolist() if isinstance(cells, np.ndarray) else list(cells)
    if all(map(isinstance, cells, repeat(str))):
        return "%s", [cells]
    if any(map(isinstance, cells, repeat(complex))):
        return "%.17g %.17g", [[v.real for v in cells], [v.imag for v in cells]]
    return "%.17g", [cells]


# rows formatted by one %-format at a time: large enough to pay for the
# format, small enough that the block's text stays a few hundred kB
_CSV_BLOCK = 4096


def _write_csv(path, header, columns, footer_lines=()):
    """A CSV table given by its columns: the format is chosen once per
    column, and each block of rows interleaves the cells of the columns."""
    fmts, cells = [], []
    for fmt, parts in map(_column, columns):
        fmts.append(fmt)
        cells.extend(parts)
    row = ",".join(fmts) + "\n"
    with mio.rewrite(path) as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, len(cells[0]) if cells else 0, _CSV_BLOCK):
            block = tuple(chain.from_iterable(zip(*(c[i:i + _CSV_BLOCK] for c in cells))))
            fh.write(row * (len(block) // len(cells)) % block)
        for line in footer_lines:
            fh.write(line + "\n")


def _write_meta(ctx, subcommand, params, certificates, stats=None):
    path = ctx.obj.get("meta") or "meta.json"
    doc = {
        "tool": "weakgordon",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": params,
        "certificates": certificates,
    }
    if stats is not None:
        doc["stats"] = stats
    # one write: json.dump would hand the file one call per token
    with mio.rewrite(path) as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _load_local(path, window=None):
    obj = mio.load_measure(path)
    if isinstance(obj, me.PeriodicMeasure):
        if window is None:
            raise ValidationError(
                f"{path} is periodic; this operation needs a concrete window"
            )
        return me.materialize_periodic(obj, window)
    return obj


def _parse_pair(s, name):
    parts = s.split(",")
    if len(parts) != 2:
        raise ValidationError(f"--{name} expects two comma-separated values")
    return float(parts[0]), float(parts[1])


def _parse_list(s, name):
    try:
        return [float(v) for v in s.split(",") if v.strip()]
    except ValueError as e:
        raise ValidationError(f"--{name}: {e}") from e


@click.group()
@click.option("--meta", type=click.Path(), default=None, help="meta sidecar path")
@click.version_option(__version__)
@click.pass_context
def main(ctx, meta):
    """Weak Gordon seminorms and eigenvalue-exclusion certificates."""
    ctx.ensure_object(dict)
    ctx.obj["meta"] = meta


@main.command("seminorm")
@click.option("--measure", "measure_path", required=True, type=click.Path(exists=True))
@click.option("--interval", required=True, help="a,b")
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--window-at", "window_at", type=float, default=None,
              help="evaluate the single window [a-1, a+1] instead of the sup")
@click.option("--csv", "csv_path", type=click.Path(), default=None,
              help="dump a -> N(a) samples")
@click.pass_context
def seminorm_cmd(ctx, measure_path, interval, tol, window_at, csv_path):
    """Certified seminorm over an interval; prints
    `lower upper c_re c_im witness_a`."""
    a, b = _parse_pair(interval, "interval")
    mu = _load_local(measure_path, (a, b))
    if window_at is not None:
        res = window_seminorm(mu, window_at)
    else:
        res = interval_seminorm(mu, (a, b), tol)
    witness_a = 0.5 * (res.witness_window[0] + res.witness_window[1])
    click.echo(
        f"{_fmt(res.lower)} {_fmt(res.upper)} {_fmt(res.minimizer_c.real)} "
        f"{_fmt(res.minimizer_c.imag)} {_fmt(witness_a)}"
    )
    stats = res.stats
    if csv_path:
        if b - a > 2.0:
            centers = sorted(
                set(np.linspace(a + 1.0, b - 1.0, 201).tolist())
                | {c for bp in mu.breakpoints() for c in (bp - 1.0, bp, bp + 1.0)
                   if a + 1.0 <= c <= b - 1.0}
            )
            ws = [window_seminorm(mu, c) for c in centers]
        else:
            centers = [0.5 * (a + b)]
            ws = [res if window_at is None else interval_seminorm(mu, (a, b), tol)]
        _write_csv(csv_path, ["a", "N_lower", "N_upper"],
                   [centers, [w.lower for w in ws], [w.upper for w in ws]])
        stats = sum((w.stats for w in ws if w is not res), stats)
    _write_meta(
        ctx,
        "seminorm",
        {"measure": str(measure_path), "interval": [a, b], "tol": tol,
         "window_at": window_at},
        {"lower": res.lower, "upper": res.upper,
         "grid_step": res.certificate.grid_step,
         "lipschitz": res.certificate.lipschitz,
         "error_bound": res.certificate.error_bound},
        asdict(stats),
    )


@main.command("propagate")
@click.option("--measure", "measure_path", required=True, type=click.Path(exists=True))
@click.option("--z", required=True, help="re,im")
@click.option("--from", "s_from", required=True, type=float)
@click.option("--init", required=True, help="u0re,u0im,du0re,du0im")
@click.option("--grid", required=True, help="a:b:step")
@click.option("--tol", type=float, default=1e-8, show_default=True)
@click.option("--out", required=True, type=click.Path())
@click.pass_context
def propagate_cmd(ctx, measure_path, z, s_from, init, grid, tol, out):
    """Propagate an initial state along a grid; writes t,u_re,u_im,du_re,du_im."""
    zr, zi = _parse_pair(z, "z")
    parts = [float(v) for v in init.split(",")]
    if len(parts) != 4:
        raise ValidationError("--init expects u0re,u0im,du0re,du0im")
    gp = grid.split(":")
    if len(gp) != 3:
        raise ValidationError("--grid expects a:b:step")
    ga, gb, gs = float(gp[0]), float(gp[1]), float(gp[2])
    if gs <= 0 or gb <= ga:
        raise ValidationError("--grid needs a < b and step > 0")
    pts = np.arange(ga, gb + gs / 2, gs)
    mu = _load_local(measure_path, (min(ga, s_from) - 0.5, max(gb, s_from) + 0.5))
    tr = propagate(
        mu, complex(zr, zi), s_from, (complex(parts[0], parts[1]), complex(parts[2], parts[3])),
        pts, tol,
    )
    _write_csv(out, ["t", "u_re", "u_im", "du_re", "du_im"],
               [tr.grid, tr.u.real, tr.u.imag, tr.du.real, tr.du.imag])
    _write_meta(
        ctx,
        "propagate",
        {"measure": str(measure_path), "z": [zr, zi], "from": s_from,
         "init": parts, "grid": [ga, gb, gs], "tol": tol, "out": str(out)},
        {"jumps": len(tr.jump_log)},
        asdict(tr.stats),
    )


@main.command("gordon-scan")
@click.option("--measure", "measure_path", required=True, type=click.Path(exists=True))
@click.option("--periods", required=True, help="p1,p2,...")
@click.option("--C", "weight", type=float, default=None, help="Gordon weight for ratios")
@click.option("--r-grid", "r_grid", required=True, help="r1,r2,...")
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--out", required=True, type=click.Path())
@click.pass_context
def gordon_scan_cmd(ctx, measure_path, periods, weight, r_grid, tol, out):
    """Translation-defect scan with C_mu / E_mu estimates."""
    ps = _parse_list(periods, "periods")
    rs = _parse_list(r_grid, "r-grid")
    if not ps:
        raise ValidationError("--periods must be nonempty")
    pmax = max(ps)
    mu = _load_local(measure_path, (-pmax - 1.0, 2.0 * pmax + 1.0))
    rep = go.exclusion_bound(mu, ps, rs, C=weight, tol=tol)
    footer = [
        f"C_mu,{_fmt(rep.C_mu_estimate)}",
        f"E_mu,{_fmt(rep.E_mu_estimate)}",
    ]
    _write_csv(
        out,
        ["p", "defect_lo", "defect_hi", "ratio", "log_rate"],
        zip(*rep.row_table()),
        footer,
    )
    _write_meta(
        ctx,
        "gordon-scan",
        {"measure": str(measure_path), "periods": ps, "C": weight,
         "r_grid": rs, "tol": tol, "out": str(out)},
        {
            "C_mu": rep.C_mu_estimate if math.isfinite(rep.C_mu_estimate) else "inf",
            "E_mu": rep.E_mu_estimate if math.isfinite(rep.E_mu_estimate) else "inf",
            "defect_brackets": [[r.defect.lower, r.defect.upper] for r in rep.rows],
        },
    )


@main.command("quasiperiodic")
@click.option("--alpha-levels", "levels", type=int, default=4, show_default=True)
@click.option("--base1", required=True, type=click.Path(exists=True))
@click.option("--base2", required=True, type=click.Path(exists=True))
@click.option("--m", "m_level", type=int, default=2, show_default=True,
              help="convergent level supplying the test period")
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--out", required=True, type=click.Path())
@click.pass_context
def quasiperiodic_cmd(ctx, levels, base1, base2, m_level, tol, out):
    """Quasiperiodic example: rational-approximation certificates and the
    translation-defect bound at the level-m convergent period."""
    b1 = mio.load_measure(base1)
    b2 = mio.load_measure(base2)
    if not isinstance(b1, me.PeriodicMeasure) or not isinstance(b2, me.PeriodicMeasure):
        raise ValidationError("base1/base2 must be periodic measure files")
    alpha = cons.liouville_alpha(levels)
    conv = alpha.convergents[m_level - 1]
    p_m = float(conv.numerator)
    window = (-p_m - 1.0, 2.0 * p_m + 1.0)
    q = cons.quasiperiodic_measure(b1, b2, alpha, window)
    defect = go.translation_defect(q.measure, p_m, tol)
    eps = abs(alpha.alpha * conv.denominator - conv.numerator)
    bound = 3.0 * float(eps) * me.norm_unif(q.part2)
    # rounding slack relative to the compared values, so the flag is scale-free
    dominance_cap = bound + defect.width + 1e-12 * max(bound, defect.upper)
    rows = []
    for mm, cv, cert, ok in alpha.approximation_certificate():
        rows.append((mm, float(cv.numerator), float(cv.denominator), float(cert),
                     "1" if ok else "0"))
    footer = [
        f"defect_lo,{_fmt(defect.lower)}",
        f"defect_hi,{_fmt(defect.upper)}",
        f"defect_bound,{_fmt(bound)}",
        f"dominates,{1 if defect.upper <= dominance_cap else 0}",
    ]
    _write_csv(out, ["m", "p", "q", "certificate", "cert_ok"], zip(*rows), footer)
    _write_meta(
        ctx,
        "quasiperiodic",
        {"alpha_levels": levels, "base1": str(base1), "base2": str(base2),
         "m": m_level, "tol": tol, "out": str(out)},
        {"alpha_proxy": str(q.alpha_proxy), "period": p_m,
         "defect": [defect.lower, defect.upper], "bound": bound},
    )


@main.command("sharpness")
@click.option("--m-max", "m_max", type=int, default=3, show_default=True)
@click.option("--C", "weight", type=float, default=0.9, show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--out", required=True, type=click.Path())
@click.option("--plot", "plot_path", type=click.Path(), default=None,
              help="CSV of the eigenfunction on the first two level windows")
@click.pass_context
def sharpness_cmd(ctx, m_max, weight, tol, out, plot_path):
    """Sharpness construction report: defects, weighted ratios, residuals."""
    S = cons.sharpness_construction(m_max)
    rep = cons.sharpness_report(S, weight, tol=tol)
    rows = [
        (
            r.m,
            r.l,
            r.p,
            r.log_defect,
            r.log_paper_bound,
            r.log_weighted_ratio,
            r.measured_defect[0],
            r.measured_defect[1],
            r.mass_diff_measured,
            r.mass_diff_closed,
        )
        for r in rep.rows
    ]
    footer = [
        f"C_mu,{_fmt(rep.C_mu_estimate)}",
        f"E_mu,{_fmt(rep.E_mu_estimate)}",
        f"eigen_residual,{_fmt(rep.eigen_residual)}",
    ]
    _write_csv(
        out,
        ["m", "l", "p", "log_defect", "log_paper_bound", "log_weighted_ratio",
         "defect_lo", "defect_hi", "mass_diff_measured", "mass_diff_closed"],
        zip(*rows),
        footer,
    )
    if plot_path:
        win = (
            (-2.0 * S.periods[1], 2.0 * S.periods[1])
            if m_max >= 2
            else (-S.periods[0], S.periods[0])
        )
        ts, us = cons.eigenfunction_trace(S, win, step=0.01)
        _write_csv(plot_path, ["t", "u"], [ts, us])
    _write_meta(
        ctx,
        "sharpness",
        {"m_max": m_max, "C": weight, "tol": tol, "out": str(out),
         "plot": plot_path and str(plot_path)},
        {"C_mu_estimate": rep.C_mu_estimate, "E_mu_estimate": rep.E_mu_estimate,
         "eigen_residual": rep.eigen_residual,
         "residual_window": list(rep.residual_window),
         "r_profile": [list(x) for x in rep.r_profile]},
    )


@main.command("mollify")
@click.option("--measure", "measure_path", required=True, type=click.Path(exists=True))
@click.option("--n", "order", required=True, type=int)
@click.option("--out", required=True, type=click.Path())
@click.pass_context
def mollify_cmd(ctx, measure_path, order, out):
    """Write the mollified measure (piecewise-cubic density) as JSON."""
    mu = _load_local(measure_path)
    mol, err = me.mollify_with_error(mu, order)
    mio.dump_measure(mol, out)
    _write_meta(
        ctx,
        "mollify",
        {"measure": str(measure_path), "n": order, "out": str(out)},
        {"sup_error_bound": err, "segments": len(mol.segments)},
    )


def run(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        main.main(args=argv, standalone_mode=False, obj={})
        return 0
    except click.exceptions.Exit as e:
        return e.exit_code
    except click.exceptions.Abort:
        return 2
    except click.ClickException as e:
        e.show()
        return 2
    except (ValidationError, DomainError) as e:
        click.echo(f"error: {e}", err=True)
        return 2
    except ToleranceError as e:
        click.echo(f"tolerance failure: {e}", err=True)
        return 3
    except (ResourceError, RepresentationError) as e:
        click.echo(f"resource budget exceeded: {e}", err=True)
        return 4
    except OSError as e:
        click.echo(f"error: {e}", err=True)
        return 2


if __name__ == "__main__":
    sys.exit(run())
