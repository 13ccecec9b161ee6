"""The benchmark workloads: seeded inputs, op lists and per-op output checks.

Every input comes from a template corpus drawn with the fixed CORPUS_SEED.
The measures are the template ones. The run seed moves the query points
whose cost is stable under a small change (window centres, interval
positions of atom-only queries, spectral parameters z, initial data, the
weight C, perturbation atoms) by up to POS_JITTER, and scales values by up
to 1 +- REL_JITTER. Branch-and-bound queries on density measures, complex
windows and the window of mu - mu_n keep their template inputs: their cost
is chaotic in the input, and a 1-2 % jitter moved single branch-and-bound
ops by up to 7x.

Measures are scaled to ||mu||_unif <= UNIF_CAP the way the test corpus does
it (tests/conftest.py, random_measure(unif_cap=...)); complex measures use
the total variation, an upper bound for ||mu||_unif, because norm_unif on
complex densities bisects with quadrature and takes seconds.

An op is one certified result: one `weakgordon.cli.run(argv)` call or one
library certificate. Its `run` is timed; its `check` validates the output
and returns the bytes that identify it (a CSV, a JSON file, the CLI's
stdout, or the digits of a library result).
"""

from __future__ import annotations

import io
import json
import math
import zlib
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

CORPUS_SEED = 20240817
POS_JITTER = 0.01
REL_JITTER = 0.02
UNIF_CAP = 3.0

DENSITY = {
    "window": (-5.0, 8.0), "core": (-3.0, 6.0), "atoms": 4, "segments": 3,
    "degrees": (0, 1, 2), "real_measures": 4, "complex_measures": 2,
    "complex_atoms": 1, "complex_segments": 1, "complex_degrees": (0,),
    "dense_measures": 3, "dense_atoms": 10, "dense_segments": 8,
    "seminorm_tol": 1e-4, "window_ops": 92, "interval_ops": 3, "interval_length": (2.0, 4.0),
    "gordon_ops": 1, "periods": "1,2,3", "r_grid": "1,2", "gordon_tol": 1e-4,
    "mollify_ops": 1, "mollify_n": 64, "complex_ops": 1,
    "known_defect": {"length": 3.0, "tol": 1e-3, "max_nodes": 10},
}
POINT_MASS = {
    "window": (-20.0, 40.0), "atoms": 120, "measures": 3,
    "gordon_ops": 1, "periods": "2,4,6,8", "r_grid": "1,2,4", "gordon_tol": 1e-6,
    "seminorm_ops": 48, "seminorm_length": (2.0, 4.0), "seminorm_tol": 1e-6,
    "sharpness_ops": 1, "m_max": 4, "sharpness_C": 0.9,
    "quasi_ops": 50, "quasi_m": 3, "base_atoms": 1,
}
SPECTRAL = {
    "window": (-6.0, 6.0), "core": (-5.7, 5.7), "atoms": 20, "segments": 4,
    "degrees": (3,), "measures": 3,
    "propagate_ops": 30, "grid": "-5:5:0.01", "z_re": (-4.0, 8.0), "z_im": (0.0, 1.0),
    "dn_ops": 150, "path": (-5.5, 5.5), "transfer_ops": 10,
    "growth_ops": 6, "growth_points": 21, "stability_ops": 4, "stability_grid": 17,
}
PARAMS = {"density-seminorm": DENSITY, "point-mass": POINT_MASS, "spectral-sweep": SPECTRAL}


class CheckError(Exception):
    """An op's output failed its check."""


def need(cond, msg):
    if not cond:
        raise CheckError(msg)


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bytes]
    output: str  # what check() returns: "csv", "json", "stdout" or "value"


@dataclass
class Workload:
    ops: list
    params: dict
    probe: Callable[[], dict] | None = None  # the known-defect probe


class Draw:
    """Template values from a corpus stream, each moved by a seeded jitter.

    Each input family draws from its own named stream, so changing the
    count of one family leaves the inputs of every other family alone.
    """

    def __init__(self, seed, stream):
        key = zlib.crc32(stream.encode())
        self.base = np.random.default_rng([CORPUS_SEED, key])
        self.jit = np.random.default_rng([abs(seed), key])

    def point(self, lo, hi, n=None, fixed=False):
        v = self.base.uniform(lo, hi, n)
        if fixed:
            return v
        return v + self.jit.uniform(-POS_JITTER, POS_JITTER, np.shape(v))

    def value(self, lo, hi, n=None, fixed=False):
        v = self.base.uniform(lo, hi, n)
        if fixed:
            return v
        return v * (1.0 + self.jit.uniform(-REL_JITTER, REL_JITTER, np.shape(v)))


def _digits(*xs):
    parts = []
    for x in xs:
        x = complex(x)
        parts.append("%.17g %.17g" % (x.real, x.imag))
    return ",".join(parts).encode()


def _capped(me, atoms, segments, window):
    mu = me.make_measure(atoms, segments, window)
    nrm = me.norm_unif(mu) if mu.is_real() else me.total_variation(mu)
    if nrm <= UNIF_CAP:
        return mu
    s = UNIF_CAP / nrm
    return me.make_measure(
        [(x, w * s) for x, w in mu.atoms],
        [(g.start, g.end, tuple(c * s for c in g.coeffs)) for g in mu.segments],
        window,
    )


def _measure(me, d, window, core, n_atoms, n_segments, degrees, complex_=False):
    """Template atoms in the core plus one density piece per equal slot."""
    lo, hi = core
    xs = d.point(lo, hi, n_atoms, fixed=True)
    ws = d.value(-0.8, 0.8, n_atoms, fixed=True)
    if complex_:
        ws = ws + 1j * d.value(-0.8, 0.8, n_atoms, fixed=True)
    segments = []
    slot = (hi - lo) / max(n_segments, 1)
    for i in range(n_segments):
        a = d.point(lo + (i + 0.05) * slot, lo + (i + 0.25) * slot, fixed=True)
        deg = degrees[i % len(degrees)]
        c = d.value(-0.5, 0.5, deg + 1, fixed=True)
        if complex_:
            c = c + 1j * d.value(-0.5, 0.5, deg + 1, fixed=True)
        segments.append((float(a), float(a + 0.7 * slot), tuple(complex(v) for v in c)))
    atoms = [(float(x), complex(w)) for x, w in zip(xs, ws)]
    return _capped(me, atoms, segments, window)


class _Cli:
    """Runs `weakgordon.cli.run(argv)` in-process inside the work directory."""

    def __init__(self, wg, workdir):
        self.wg = wg
        self.dir = workdir

    def path(self, name):
        return str(self.dir / name)

    def op(self, kind, argv, check, output):
        argv = ["--meta", self.path("meta.json"), *argv]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.wg.cli.run(argv)
            return rc, out.getvalue(), err.getvalue()

        def checked(res):
            rc, out, err = res
            need(rc == 0, f"exit code {rc}: {err.strip()[:200]}")
            return check(out)

        return Op(kind, run, checked, output)

    def read(self, name):
        return (self.dir / name).read_bytes()

    def meta(self):
        return json.loads(self.read("meta.json"))["certificates"]

    def csv(self, name):
        """(raw bytes, rows of the table body, footer key -> value)."""
        raw = self.read(name)
        lines = raw.decode().splitlines()
        width = len(lines[0].split(","))
        rows, footer = [], {}
        for line in lines[1:]:
            cells = line.split(",")
            if len(cells) == width:
                rows.append([float(v) for v in cells])
            else:
                footer[cells[0]] = float(cells[1])
        return raw, rows, footer


def _bracket_check(tol, complex_):
    def check(out):
        lo, up = (float(v) for v in out.split()[:2])
        need(0.0 <= lo <= up, f"bracket [{lo}, {up}] is not ordered")
        if complex_:
            need(up <= 2.0 * lo, f"complex bracket [{lo}, {up}] wider than [M/2, M]")
        else:
            need(up - lo <= tol, f"bracket width {up - lo:.3e} > tol {tol:.1e}")
        return out.encode()
    return check


def _seminorm_op(cli, kind, measure, a, b, tol, complex_):
    return cli.op(kind, ["seminorm", "--measure", cli.path(measure),
                         "--interval", f"{a!r},{b!r}", "--tol", repr(tol)],
                  _bracket_check(tol, complex_), "stdout")


def _gordon_check(cli, tol):
    def check(_out):
        raw, rows, footer = cli.csv("scan.csv")
        need(rows and {"C_mu", "E_mu"} <= set(footer), "gordon-scan table incomplete")
        for p, lo, hi, _ratio, _rate in rows:
            need(lo <= hi, f"defect bracket at p={p} is not ordered")
            need(hi - lo <= tol, f"defect width {hi - lo:.3e} at p={p} > tol {tol:.1e}")
        return raw
    return check


# ---------------------------------------------------------------------------
# density-seminorm


def _density(wg, seed, cli, tiny):
    P = DENSITY
    me, sn = wg.measure, wg.seminorm
    n = (lambda k: 1) if tiny else (lambda k: k)
    d = Draw(seed, "density-measures")
    real = [
        _measure(me, d, P["window"], P["core"], P["atoms"], P["segments"], P["degrees"])
        for _ in range(P["real_measures"])
    ]
    cplx = [
        _measure(me, d, P["window"], P["core"], P["complex_atoms"], P["complex_segments"],
                 P["complex_degrees"], complex_=True)
        for _ in range(P["complex_measures"])
    ]
    d = Draw(seed, "density-dense")
    dense = [
        _measure(me, d, P["window"], P["core"], P["dense_atoms"], P["dense_segments"],
                 P["degrees"])
        for _ in range(P["dense_measures"])
    ]
    for stem, mus in (("real", real), ("complex", cplx), ("dense", dense)):
        for i, mu in enumerate(mus):
            wg.measure_io.dump_measure(mu, cli.path(f"{stem}{i}.json"))
    lo, hi = P["window"]
    tol = P["seminorm_tol"]
    ops = []
    d = Draw(seed, "density-windows")
    for k in range(n(P["window_ops"])):
        a = float(d.point(lo + 0.5, hi - 2.5))
        ops.append(_seminorm_op(cli, "seminorm-window", f"dense{k % len(dense)}.json",
                                a, a + 2.0, tol, False))
    d = Draw(seed, "density-intervals")
    for k in range(n(P["interval_ops"])):
        length = float(d.value(*P["interval_length"], fixed=True))
        a = float(d.point(lo + 0.5, hi - 0.5 - length, fixed=True))
        ops.append(_seminorm_op(cli, "seminorm-interval", f"real{k % len(real)}.json",
                                a, a + length, tol, False))
    for k in range(n(P["gordon_ops"])):
        ops.append(cli.op(
            "gordon-scan", ["gordon-scan", "--measure", cli.path(f"real{k % len(real)}.json"),
                            "--periods", P["periods"], "--r-grid", P["r_grid"],
                            "--tol", repr(P["gordon_tol"]), "--out", cli.path("scan.csv")],
            _gordon_check(cli, P["gordon_tol"]), "csv"))

    order = P["mollify_n"]
    d = Draw(seed, "density-mollify")
    for k in range(n(P["mollify_ops"])):
        i = (k + 1) % len(real)
        mu = real[i]
        mol, _err = me.mollify_with_error(mu, order)
        diff = me.subtract(mu, mol)
        err_cap = 1e-7 * order * me.total_variation(mu) * (1.0 + 1e-12)

        def mollify_check(_out, err_cap=err_cap):
            err = cli.meta()["sup_error_bound"]
            need(0.0 <= err <= err_cap, f"mollify error bound {err:.3e} > {err_cap:.3e}")
            return cli.read("mollified.json")

        ops.append(cli.op(
            "mollify", ["mollify", "--measure", cli.path(f"real{i}.json"), "--n", str(order),
                        "--out", cli.path("mollified.json")],
            mollify_check, "json"))

        a = float(d.point(P["core"][0] + 1.5, P["core"][1] - 1.5, fixed=True))
        shared = {}

        def window_run(diff=diff, a=a, shared=shared):
            shared["res"] = sn.window_seminorm(diff, a)
            return shared["res"]

        def window_check(res):
            need(0.0 <= res.lower == res.upper, f"real window value [{res.lower}, {res.upper}]")
            return _digits(res.lower, res.upper, res.minimizer_c)

        def sliding_run(diff=diff, a=a, shared=shared):
            return sn.sliding_l1_sup(diff, shared["res"].minimizer_c, (a - 1.5, a + 1.5), 2.0)

        def sliding_check(value, shared=shared):
            floor = shared["res"].upper
            need(value >= floor - 1e-12 * max(1.0, floor),
                 f"sliding L1 sup {value!r} below the window value {floor!r} inside it")
            return _digits(value)

        ops.append(Op("window_seminorm", window_run, window_check, "value"))
        ops.append(Op("sliding_l1_sup", sliding_run, sliding_check, "value"))

    d = Draw(seed, "density-complex")
    for k in range(n(P["complex_ops"])):
        a = float(d.point(P["core"][0], P["core"][1] - 2.0, fixed=True))
        ops.append(_seminorm_op(cli, "seminorm-complex", f"complex{k % len(cplx)}.json",
                                a, a + 2.0, tol, True))

    kd = P["known_defect"]
    d = Draw(seed, "density-defect")
    a = float(d.point(P["core"][0], P["core"][1] - kd["length"], fixed=True))

    def probe():
        """Complex interval of length 3: the prune test compares the upper
        bound M with best_lower = M/2, so the gap never closes below tol."""
        try:
            res = sn.interval_seminorm(cplx[0], (a, a + kd["length"]), kd["tol"],
                                       max_nodes=kd["max_nodes"])
        except wg.errors.ToleranceError as e:
            return {"reproduced": True, "error": str(e)}
        _bracket_check(kd["tol"], True)(f"{res.lower!r} {res.upper!r}")
        return {"reproduced": False, "bracket": [res.lower, res.upper]}

    return ops, probe


# ---------------------------------------------------------------------------
# point-mass


def _point_mass(wg, seed, cli, tiny):
    P = POINT_MASS
    me = wg.measure
    n = (lambda k: 1) if tiny else (lambda k: k)
    lo, hi = P["window"]
    d = Draw(seed, "point-mass-measures")
    for i in range(P["measures"]):
        mu = _measure(me, d, P["window"], (lo, hi), P["atoms"], 0, (0,))
        wg.measure_io.dump_measure(mu, cli.path(f"atoms{i}.json"))
    ops = []

    d = Draw(seed, "point-mass-intervals")
    for k in range(n(P["seminorm_ops"])):
        length = float(d.value(*P["seminorm_length"]))
        a = float(d.point(lo + 1.0, hi - 1.0 - length))
        ops.append(_seminorm_op(cli, "seminorm-interval", f"atoms{k % P['measures']}.json",
                                a, a + length, P["seminorm_tol"], False))

    for k in range(n(P["gordon_ops"])):
        ops.append(cli.op(
            "gordon-scan", ["gordon-scan", "--measure", cli.path(f"atoms{k % P['measures']}.json"),
                            "--periods", P["periods"], "--r-grid", P["r_grid"],
                            "--tol", repr(P["gordon_tol"]), "--out", cli.path("scan.csv")],
            _gordon_check(cli, P["gordon_tol"]), "csv"))

    def sharpness_check(_out):
        cert = cli.meta()
        need(cert["eigen_residual"] <= 1e-8, f"eigen residual {cert['eigen_residual']:.3e}")
        raw, rows, footer = cli.csv("sharpness.csv")
        need(len(rows) == P["m_max"] and "eigen_residual" in footer, "sharpness table incomplete")
        for row in rows:
            need(row[6] <= row[7] and row[7] - row[6] <= 1e-9,
                 f"measured defect bracket [{row[6]}, {row[7]}] at m={row[0]:g}")
        return raw + cli.read("trace.csv")

    d = Draw(seed, "point-mass-sharpness")
    for k in range(n(P["sharpness_ops"])):
        weight = float(d.value(P["sharpness_C"], P["sharpness_C"]))
        ops.append(cli.op(
            "sharpness", ["sharpness", "--m-max", str(P["m_max"]), "--C", repr(weight),
                          "--out", cli.path("sharpness.csv"), "--plot", cli.path("trace.csv")],
            sharpness_check, "csv"))

    def quasi_check(_out):
        raw, rows, footer = cli.csv("quasi.csv")
        need(all(r[4] == 1.0 for r in rows), "a rational-approximation certificate failed")
        need(footer["defect_lo"] <= footer["defect_hi"], "defect bracket is not ordered")
        need(footer["dominates"] == 1.0, "translation defect exceeds its quasiperiodic bound")
        return raw

    d = Draw(seed, "point-mass-bases")
    for k in range(n(P["quasi_ops"])):
        for b in (1, 2):
            xs = d.point(0.0, 0.999, P["base_atoms"], fixed=True)
            ws = d.value(-0.8, 0.8, P["base_atoms"], fixed=True)
            base = me.make_measure([(float(x), float(w)) for x, w in zip(xs, ws)], (), (0.0, 1.0))
            wg.measure_io.dump_measure(me.PeriodicMeasure(base, 1.0), cli.path(f"base{k}_{b}.json"))
        ops.append(cli.op(
            "quasiperiodic", ["quasiperiodic", "--base1", cli.path(f"base{k}_1.json"),
                              "--base2", cli.path(f"base{k}_2.json"), "--m", str(P["quasi_m"]),
                              "--out", cli.path("quasi.csv")],
            quasi_check, "csv"))
    return ops, None


# ---------------------------------------------------------------------------
# spectral-sweep


def _spectral(wg, seed, cli, tiny):
    P = SPECTRAL
    me, pr = wg.measure, wg.propagator
    n = (lambda k: 1) if tiny else (lambda k: k)
    d = Draw(seed, "spectral-measures")
    mus = [
        _measure(me, d, P["window"], P["core"], P["atoms"], P["segments"], P["degrees"])
        for _ in range(P["measures"])
    ]
    for i, mu in enumerate(mus):
        wg.measure_io.dump_measure(mu, cli.path(f"spectral{i}.json"))
    n_grid = round((5.0 - -5.0) / 0.01) + 1

    def z_value(d):
        return complex(float(d.point(*P["z_re"])), float(d.point(*P["z_im"])))

    ops = []

    def trace_check(_out):
        raw, rows, _ = cli.csv("trace.csv")
        need(len(rows) == n_grid, f"trace has {len(rows)} rows, expected {n_grid}")
        need(all(math.isfinite(v) for r in rows for v in r), "trace has non-finite values")
        return raw

    d = Draw(seed, "spectral-propagate")
    for k in range(n(P["propagate_ops"])):
        z = z_value(d)
        init = [float(v) for v in d.value(-1.0, 1.0, 2)]
        ops.append(cli.op(
            "propagate", ["propagate", "--measure", cli.path(f"spectral{k % len(mus)}.json"),
                          "--z", f"{z.real!r},{z.imag!r}", "--from", "0",
                          "--init", f"{init[0]!r},0,{init[1]!r},0", "--grid", P["grid"],
                          "--out", cli.path("trace.csv")],
            trace_check, "csv"))

    s, t = P["path"]
    d = Draw(seed, "spectral-dn")
    for k in range(n(P["dn_ops"])):
        mu, z = mus[k % len(mus)], z_value(d)

        def dn_check(res):
            uN, duN, uD, duD = (complex(v) for v in res)
            size = max(1.0, abs(uN * duD) + abs(uD * duN))
            wronskian = uN * duD - uD * duN
            need(all(map(math.isfinite, (abs(uN), abs(duN), abs(uD), abs(duD)))),
                 "non-finite Dirichlet/Neumann values")
            need(abs(wronskian - 1.0) <= 1e-10 * (t - s) * size,
                 f"Wronskian defect {abs(wronskian - 1.0):.3e} at scale {size:.3e}")
            return _digits(*res)

        ops.append(Op("dirichlet_neumann",
                      lambda mu=mu, z=z: pr.dirichlet_neumann(mu, z, s, t), dn_check, "value"))

    d = Draw(seed, "spectral-transfer")
    for k in range(n(P["transfer_ops"])):
        mu, z = mus[k % len(mus)], z_value(d)

        def tm_check(T):
            need(T.det_defect <= 1e-10 * abs(t - s), f"det_defect {T.det_defect:.3e}")
            return _digits(*T.entries.ravel(), T.det_defect)

        ops.append(Op("transfer_matrix",
                      lambda mu=mu, z=z: pr.transfer_matrix(mu, z, s, t), tm_check, "value"))

    grid21 = np.linspace(-5.0, 5.0, P["growth_points"])
    rates = [math.sqrt(me.norm_unif(mu)) for mu in mus]
    d = Draw(seed, "spectral-growth")
    for k in range(n(P["growth_ops"])):
        mu, w = mus[k % len(mus)], rates[k % len(mus)]
        u0, du0 = (complex(v) for v in d.value(-1.0, 1.0, 2))

        def growth_run(mu=mu, u0=u0, du0=du0):
            tr = pr.propagate(mu, 0.0, 0.0, (u0, du0), grid21)
            bounds = [(pr.gronwall_bound(mu, x, abs(u0) + abs(du0)),
                       pr.sharp_growth_bound(mu, x, u0, du0)) for x in tr.grid]
            return tr, bounds

        def growth_check(res, w=w):
            tr, bounds = res
            for x, u, du, (g, sharp) in zip(tr.grid, tr.u, tr.du, bounds):
                need(abs(u) + abs(du) <= g + 1e-9, f"Gronwall bound fails at t={x}")
                need(math.sqrt(w * w * abs(u) ** 2 + abs(du) ** 2) <= sharp + 1e-9,
                     f"sharp growth bound fails at t={x}")
            return _digits(*tr.u, *tr.du, *(v for b in bounds for v in b))

        ops.append(Op("growth_bounds", growth_run, growth_check, "value"))

    sd_grid = np.linspace(-2.0, 2.0, P["stability_grid"])
    d = Draw(seed, "spectral-stability")
    for k in range(n(P["stability_ops"])):
        mu1 = mus[k % len(mus)]
        bump = [(float(x), complex(w)) for x, w in
                zip(d.point(-1.9, 1.9, 3), d.value(-0.05, 0.05, 3))]
        mu2 = me.add_measures(mu1, me.make_measure(bump, (), P["window"]))
        u0, du0 = (complex(v) for v in d.value(-1.0, 1.0, 2))

        def stability_run(mu1=mu1, mu2=mu2, u0=u0, du0=du0):
            sd = pr.solution_difference(mu1, mu2, 0.0, (u0, du0), sd_grid)
            u2 = pr.propagate(mu2, 0.0, 0.0, sd.u2_initial, sd_grid)
            bound = pr.stability_bound(mu1, mu2, 0.0, -2, 2, float(np.max(np.abs(u2.u))),
                                       tol=1e-3)
            return sd, bound

        def stability_check(res):
            sd, bound = res
            scale = max(1.0, float(np.max(np.abs(sd.v))))
            need(sd.max_mismatch <= 1e-6 * scale,
                 f"variation-of-constants mismatch {sd.max_mismatch:.3e}")
            for x, v in zip(sd.grid, sd.v):
                need(abs(v) <= bound(x) + 1e-9, f"stability bound fails at t={x}")
            return _digits(*sd.v, *sd.v_reconstructed, bound.nu_norm, bound.constant)

        ops.append(Op("stability", stability_run, stability_check, "value"))
    return ops, None


_BUILDERS = {"density-seminorm": _density, "point-mass": _point_mass, "spectral-sweep": _spectral}
NAMES = tuple(_BUILDERS)


def build(name, seed, wg, workdir, tiny=False):
    """Generate the inputs of one workload, write its measure files into
    workdir and return its op list. `wg` holds the imported weakgordon
    modules; ops look functions up on them at call time."""
    ops, probe = _BUILDERS[name](wg, seed, _Cli(wg, workdir), tiny)
    return Workload(ops, PARAMS[name], probe)
