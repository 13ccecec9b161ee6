"""Weak Gordon seminorms and eigenvalue-exclusion certificates.

The command line, `weakgordon [--meta PATH] COMMAND [OPTIONS]`, with the
subcommands seminorm, propagate, gordon-scan, quasiperiodic, sharpness and
mollify.  One table, `_COMMANDS`, holds each subcommand's function and its
options (destination, converter, default or `_REQUIRED`, help text); a list
option's converter is its form, such as "a,b" or "a:b:step".  One parser,
`_parse`, reads argv against it.  An option is `--name value` or
`--name=value`; the value is the next token whatever it starts with, so
`--interval -1,1` works, and a later repeat of an option wins.  Every number
must be finite.  `--help` (on the group and on each subcommand) and
`--version` are built from the table and the command docstrings, with a list
option's form as its metavar.

A command takes the parsed values and returns its certificates and work
counts; `run` then writes the machine-readable meta.json sidecar with the
tool version, the parameters (every option of the table, named without its
dashes and with `_` for `-`, with its parsed value), the certificates and the
counts.  Outputs are decimal text at 17 significant digits, so identical
configurations give byte-identical files.

Exit codes: 0 success (also after --help and --version), 2 a usage error
(one `Error: ...` line on stderr), a validation error or a file that cannot
be read or written (OSError), 3 numerical-tolerance failure, 4 resource
budget exceeded (ResourceError or MemoryError).
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict
from itertools import chain

import numpy as np

from . import __version__
from . import constructions as cons
from . import gordon as go
from . import measure as me
from . import measure_io as mio
from .errors import (
    DomainError,
    ResourceError,
    ToleranceError,
    ValidationError,
    check_tol,
)
from .propagator import propagate
from .seminorm import SeminormStats, interval_seminorm, window_seminorm


def _fmt(x) -> str:
    return "%.17g" % float(x)


# rows formatted by one %-format at a time: large enough to pay for the
# format, small enough that the block's text stays a few hundred kB
_CSV_BLOCK = 4096


def _write_csv(path, header, columns, footer_lines=()):
    """A CSV table given by its columns of real numbers, each cell printed
    as `%.17g`: each block of rows interleaves the cells of the columns."""
    cells = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    row = ",".join(["%.17g"] * len(cells)) + "\n"
    with mio.rewrite(path) as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, len(cells[0]) if cells else 0, _CSV_BLOCK):
            block = tuple(chain.from_iterable(zip(*(c[i:i + _CSV_BLOCK] for c in cells))))
            fh.write(row * (len(block) // len(cells)) % block)
        for line in footer_lines:
            fh.write(line + "\n")


def _write_meta(meta, subcommand, params, certificates, stats):
    doc = {
        "tool": "weakgordon",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": params,
        "certificates": certificates,
    }
    if stats is not None:
        doc["stats"] = asdict(stats)
    # one write: json.dump would hand the file one call per token
    with mio.rewrite(meta or "meta.json") as fh:
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


def _finite(text):
    """A number, which must be finite: nan and ±inf are refused."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text!r} is not a finite number")
    return x


def _tol(text):
    """A tolerance: positive, with `check_tol`'s message also for nan, and finite."""
    tol = float(text)
    check_tol(tol)
    return _finite(tol)


def _floats(value, name, form):
    """The finite numbers of the value of list option `name` in its form:
    "p1,p2,..." is a comma list whose empty items are skipped, and a fixed
    form such as "a,b" or "a:b:step" gives the value its shape."""
    sep = ":" if ":" in form else ","
    parts = value.split(sep)
    if form.endswith("..."):
        parts = [v for v in parts if v.strip()]
    elif len(parts) != form.count(sep) + 1:
        raise ValidationError(f"{name} expects {form}")
    try:
        return [_finite(v) for v in parts]
    except ValueError as e:
        raise ValidationError(f"{name}: {e}") from e


def seminorm_cmd(measure_path, interval, tol, window_at, csv_path):
    """Certified seminorm over an interval; prints
    `lower upper c_re c_im witness_a`."""
    a, b = interval
    mu = _load_local(measure_path, (a, b))
    mu.check_span(a, b, "interval")
    if window_at is not None:
        res = window_seminorm(mu, window_at)
    else:
        res = interval_seminorm(mu, (a, b), tol)
    witness_a = 0.5 * (res.witness_window[0] + res.witness_window[1])
    print(f"{_fmt(res.lower)} {_fmt(res.upper)} {_fmt(res.minimizer_c.real)} "
          f"{_fmt(res.minimizer_c.imag)} {_fmt(witness_a)}")
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
    return ({"lower": res.lower, "upper": res.upper,
             "grid_step": res.certificate.grid_step,
             "lipschitz": res.certificate.lipschitz,
             "error_bound": res.certificate.error_bound}, stats)


def propagate_cmd(measure_path, z, s_from, init, grid, tol, out):
    """Propagate an initial state along a grid; writes t,u_re,u_im,du_re,du_im."""
    ga, gb, gs = grid
    if gs <= 0 or gb <= ga:
        raise ValidationError("--grid needs a < b and step > 0")
    pts = np.arange(ga, gb + gs / 2, gs)
    mu = _load_local(measure_path, (min(ga, s_from) - 0.5, max(gb, s_from) + 0.5))
    tr = propagate(mu, complex(*z), s_from, (complex(*init[:2]), complex(*init[2:])), pts, tol)
    _write_csv(out, ["t", "u_re", "u_im", "du_re", "du_im"],
               [tr.grid, tr.u.real, tr.u.imag, tr.du.real, tr.du.imag])
    return {"jumps": len(tr.jump_log)}, tr.stats


def gordon_scan_cmd(measure_path, periods, weight, r_grid, tol, out):
    """Translation-defect scan with C_mu / E_mu estimates."""
    if not periods:
        raise ValidationError("--periods must be nonempty")
    pmax = max(periods)
    mu = _load_local(measure_path, (-pmax - 1.0, 2.0 * pmax + 1.0))
    rep = go.exclusion_bound(mu, periods, r_grid, C=weight, tol=tol)
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
    return ({
        "C_mu": rep.C_mu_estimate if math.isfinite(rep.C_mu_estimate) else "inf",
        "E_mu": rep.E_mu_estimate if math.isfinite(rep.E_mu_estimate) else "inf",
        "defect_brackets": [[r.defect.lower, r.defect.upper] for r in rep.rows],
    }, sum((r.defect.stats for r in rep.rows), SeminormStats()))


def quasiperiodic_cmd(levels, base1, base2, m_level, tol, out):
    """Quasiperiodic example: rational-approximation certificates and the
    translation-defect bound at the level-m convergent period."""
    b1 = mio.load_measure(base1)
    b2 = mio.load_measure(base2)
    if not isinstance(b1, me.PeriodicMeasure) or not isinstance(b2, me.PeriodicMeasure):
        raise ValidationError("base1/base2 must be periodic measure files")
    alpha = cons.liouville_alpha(levels)
    if not 1 <= m_level <= len(alpha.convergents):
        raise ValidationError(
            f"--m must be in [1, {len(alpha.convergents)}], got {m_level}")
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
                     1 if ok else 0))
    footer = [
        f"defect_lo,{_fmt(defect.lower)}",
        f"defect_hi,{_fmt(defect.upper)}",
        f"defect_bound,{_fmt(bound)}",
        f"dominates,{1 if defect.upper <= dominance_cap else 0}",
    ]
    _write_csv(out, ["m", "p", "q", "certificate", "cert_ok"], zip(*rows), footer)
    return ({"alpha_proxy": str(q.alpha_proxy), "period": p_m,
             "defect": [defect.lower, defect.upper], "bound": bound}, defect.stats)


def sharpness_cmd(m_max, weight, tol, out, plot_path):
    """Sharpness construction report: defects, weighted ratios, residuals."""
    S = cons.sharpness_construction(m_max)
    rep = cons.sharpness_report(S, weight, tol=tol)
    rows = [(r.m, r.l, r.p, r.log_defect, r.log_paper_bound, r.log_weighted_ratio,
             *r.measured_defect, r.mass_diff_measured, r.mass_diff_closed) for r in rep.rows]
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
        half = 2.0 * S.periods[1]
        ts, us = cons.eigenfunction_trace(S, (-half, half), step=0.01)
        _write_csv(plot_path, ["t", "u"], [ts, us])
    return ({"C_mu_estimate": rep.C_mu_estimate, "E_mu_estimate": rep.E_mu_estimate,
             "eigen_residual": rep.eigen_residual,
             "residual_window": list(rep.residual_window),
             "r_profile": [list(x) for x in rep.r_profile]}, None)


def mollify_cmd(measure_path, order, out):
    """Write the mollified measure (piecewise-cubic density) as JSON."""
    mu = _load_local(measure_path)
    mol, err = me.mollify_with_error(mu, order)
    mio.dump_measure(mol, out)
    return {"sup_error_bound": err, "segments": len(mol.segments)}, None


def _existing(path):
    """An input path, which must exist."""
    if not os.path.exists(path):
        raise ValueError(f"Path {path!r} does not exist.")
    return path


_REQUIRED = object()  # the default of an option that must be given

# option -> (destination, converter, default or _REQUIRED, help).  The
# converter of a list option is its form, read by `_floats`; a str value
# passes through os.fspath, which only marks it a path in --help.
_GROUP = {"--meta": ("meta", os.fspath, None, "meta sidecar path")}
_COMMANDS = {
    "seminorm": (seminorm_cmd, {
        "--measure": ("measure_path", _existing, _REQUIRED, ""),
        "--interval": ("interval", "a,b", _REQUIRED, ""),
        "--tol": ("tol", _tol, 1e-9, ""),
        "--window-at": ("window_at", _finite, None,
                        "evaluate the single window [a-1, a+1] instead of the sup"),
        "--csv": ("csv_path", os.fspath, None, "dump a -> N(a) samples"),
    }),
    "propagate": (propagate_cmd, {
        "--measure": ("measure_path", _existing, _REQUIRED, ""),
        "--z": ("z", "re,im", _REQUIRED, ""),
        "--from": ("s_from", _finite, _REQUIRED, ""),
        "--init": ("init", "u0re,u0im,du0re,du0im", _REQUIRED, ""),
        "--grid": ("grid", "a:b:step", _REQUIRED, ""),
        "--tol": ("tol", _tol, 1e-8, ""),
        "--out": ("out", os.fspath, _REQUIRED, ""),
    }),
    "gordon-scan": (gordon_scan_cmd, {
        "--measure": ("measure_path", _existing, _REQUIRED, ""),
        "--periods": ("periods", "p1,p2,...", _REQUIRED, ""),
        "--C": ("weight", _finite, None, "Gordon weight for ratios"),
        "--r-grid": ("r_grid", "r1,r2,...", _REQUIRED, ""),
        "--tol": ("tol", _tol, 1e-9, ""),
        "--out": ("out", os.fspath, _REQUIRED, ""),
    }),
    "quasiperiodic": (quasiperiodic_cmd, {
        "--alpha-levels": ("levels", int, 4, ""),
        "--base1": ("base1", _existing, _REQUIRED, ""),
        "--base2": ("base2", _existing, _REQUIRED, ""),
        "--m": ("m_level", int, 2, "convergent level supplying the test period"),
        "--tol": ("tol", _tol, 1e-9, ""),
        "--out": ("out", os.fspath, _REQUIRED, ""),
    }),
    "sharpness": (sharpness_cmd, {
        "--m-max": ("m_max", int, 3, ""),
        "--C": ("weight", _finite, 0.9, ""),
        "--tol": ("tol", _tol, 1e-9, ""),
        "--out": ("out", os.fspath, _REQUIRED, ""),
        "--plot": ("plot_path", os.fspath, None,
                   "CSV of the eigenfunction on the first two level windows"),
    }),
    "mollify": (mollify_cmd, {
        "--measure": ("measure_path", _existing, _REQUIRED, ""),
        "--n": ("order", int, _REQUIRED, ""),
        "--out": ("out", os.fspath, _REQUIRED, ""),
    }),
}
_METAVAR = {_finite: "FLOAT", _tol: "FLOAT", int: "INTEGER", os.fspath: "PATH",
            _existing: "PATH"}


class _UsageError(Exception):
    """A malformed command line (exit 2)."""


def _parse(argv):
    """The subcommand, its keyword arguments, its sidecar parameters and the
    --meta path read from argv, or None once --help or --version has been
    answered.  Group options come before the subcommand, the subcommand's
    after it."""
    args, command, spec, raw, meta = list(argv), None, _GROUP, {}, None
    while args or command is None:
        if not args or not args[0].startswith("-"):
            if command is not None:
                raise _UsageError(f"Got unexpected extra argument ({args[0]})")
            if not args:
                raise _UsageError("Missing command.")
            command = args.pop(0)
            if command not in _COMMANDS:
                raise _UsageError(f"No such command {command!r}.")
            meta, spec, raw = raw.get("--meta"), _COMMANDS[command][1], {}
            continue
        name, eq, value = args.pop(0).partition("=")
        if name == "--help" or name == "--version" and command is None:
            print(_help(command) if name == "--help" else f"weakgordon, version {__version__}")
            return None
        if name not in spec:
            raise _UsageError(f"No such option {name!r}.")
        if not eq:
            if not args:
                raise _UsageError(f"Option {name!r} requires an argument.")
            value = args.pop(0)
        raw[name] = value
    kwargs, params = {}, {}
    for name, (dest, convert, default, _) in spec.items():
        if name not in raw:
            if default is _REQUIRED:
                raise _UsageError(f"Missing option {name!r}.")
            value = default
        else:
            try:
                value = (_floats(raw[name], name, convert) if isinstance(convert, str)
                         else convert(raw[name]))
            except (ValidationError, DomainError):
                raise  # `_floats`' and `check_tol`'s own messages
            except ValueError as e:
                why = e if convert is _existing else (
                    f"{raw[name]!r} is not a valid {_METAVAR[convert].lower()}.")
                raise _UsageError(f"Invalid value for {name!r}: {why}") from None
        kwargs[dest] = params[name[2:].replace("-", "_")] = value
    return command, kwargs, params, meta


def _help(command):
    """The --help text of the group (command None) or of one subcommand."""
    if command is None:
        usage, doc, spec = "[OPTIONS] COMMAND [ARGS]...", __doc__.partition("\n")[0], _GROUP
    else:
        usage, (fn, spec) = f"{command} [OPTIONS]", _COMMANDS[command]
        doc = "\n  ".join(line.strip() for line in fn.__doc__.splitlines())
    rows = []
    for name, (_, convert, default, text) in spec.items():
        mark = ("[required]" if default is _REQUIRED else
                "" if default is None else f"[default: {default}]")
        rows.append((f"{name} {_METAVAR.get(convert, convert)}",
                     "  ".join(filter(None, (text, mark)))))
    if command is None:
        rows.append(("--version", "Show the version and exit."))
    rows.append(("--help", "Show this message and exit."))
    width = max(len(a) for a, _ in rows)
    lines = [f"Usage: weakgordon {usage}", "", "  " + doc, "", "Options:",
             *(f"  {a:<{width}}  {b}".rstrip() for a, b in rows)]
    if command is None:
        lines += ["", "Commands:", *(f"  {name:<13}  {' '.join(fn.__doc__.split())}"
                                    for name, (fn, _) in _COMMANDS.items())]
    return "\n".join(lines)


def run(argv=None) -> int:
    """Entry point with the documented exit-code mapping; argv defaults to
    sys.argv[1:], as the console script calls it."""
    try:
        call = _parse(sys.argv[1:] if argv is None else argv)
        if call is not None:
            command, kwargs, params, meta = call
            _write_meta(meta, command, params, *_COMMANDS[command][0](**kwargs))
        return 0
    except _UsageError as e:
        print(f"Error: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(file=sys.stderr)
        return 2
    except (ValidationError, DomainError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ToleranceError as e:
        print(f"tolerance failure: {e}", file=sys.stderr)
        return 3
    except (ResourceError, MemoryError) as e:
        print(f"resource budget exceeded: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(run())
