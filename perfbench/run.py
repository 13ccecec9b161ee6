"""weakgordon benchmark: seeded workloads driven in-process, with output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The program is imported from ./src, in this
process, with no threads. A run sets up SETUP_REPS times (fresh import of
weakgordon, input generation, measure files, one checked warm-up op), then
runs passes over the workload's op list until S seconds have gone; every op
of every pass is timed and its output checked. `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, with times scaled to nominal host
speed by the reference kernel of hostspeed.py, sampled between the ops;
`--trace 1` runs untraced passes for half the time and traced passes for the
rest, and reports the per-layer metrics. The last stdout line is the JSON result; a record with the op
counts, output digests and machine facts goes to perfbench/_work/.

`--smoke` runs every workload once at tiny sizes, traced and untraced, and
checks that each declared metric is printed with its unit and that every
traced function was called. It is the benchmark's own test.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

# One thread: the benchmark measures the serial program, and an idle BLAS
# pool on a shared 2-CPU machine only adds scheduling noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_REPS = 5
MODULES = ("cli", "errors", "measure", "measure_io", "propagator", "seminorm")


def import_program():
    """Import weakgordon afresh from ./src and return its modules."""
    for name in [n for n in sys.modules if n == "weakgordon" or n.startswith("weakgordon.")]:
        del sys.modules[name]
    importlib.import_module("weakgordon")
    return SimpleNamespace(**{m: importlib.import_module(f"weakgordon.{m}") for m in MODULES})


def run_pass(ops, tracer=None):
    """Run every op once. Per op: latency of the call, time to a checked
    result (call plus output check), and the sha256 of the checked output.
    After each op, untimed, the reference kernel samples the host's speed;
    `scale` turns the pass's times into times at nominal host speed."""
    from hostspeed import HostSpeed
    from workloads import CheckError

    lat, done, failures, outputs = [], [], [], []
    speed = HostSpeed()
    gc.collect()  # each pass starts from the same collector state
    start, cpu = time.perf_counter(), time.process_time()
    for k, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            res = tracer.run_op(k, op.kind, op.run) if tracer else op.run()
        except Exception as e:  # a raising op is a failed op; the pass goes on
            lat.append(time.perf_counter() - t0)
            done.append(lat[-1])
            failures.append((k, op.kind, traceback.format_exception_only(e)[-1].strip()))
            outputs.append(None)
            speed.sample(done[-1])
            continue
        lat.append(time.perf_counter() - t0)
        try:
            outputs.append(hashlib.sha256(op.check(res)).hexdigest())
        except (CheckError, ValueError, KeyError, IndexError, OSError) as e:
            failures.append((k, op.kind, f"check: {type(e).__name__}: {e}"))
            outputs.append(None)
        done.append(time.perf_counter() - t0)
        speed.sample(done[-1])
    return SimpleNamespace(wall=time.perf_counter() - start, cpu=time.process_time() - cpu,
                           scale=speed.scale(), kernel_calls=len(speed.samples),
                           lat=lat, done=done, failures=failures, outputs=outputs)


def run_for(ops, seconds, tracer=None, after=None):
    """Passes until `seconds` have gone, starting no pass that would end
    mostly after that; at least one."""
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start
                         + 0.5 * statistics.median(p.wall for p in passes) < seconds):
        passes.append(run_pass(ops, tracer))
        if after:
            after()
    return passes


def op_medians(passes, field, scaled=False):
    """Each op's median over the passes of one per-op time list; `scaled`
    takes each pass's times at nominal host speed."""
    return [statistics.median(getattr(p, field)[k] * (p.scale if scaled else 1.0) for p in passes)
            for k in range(len(getattr(passes[0], field)))]


def list_time(passes, scaled=False):
    """Time to finish the op list with outputs checked: the sum over ops of
    each op's median over the passes, so that with three or more passes a
    slow spell on the shared CPUs within one pass does not move it."""
    return sum(op_medians(passes, "done", scaled))


def end_to_end_times(passes, setup_s, scaled):
    """List time, op latency percentiles over the per-op medians, set-up."""
    lat = op_medians(passes, "lat", scaled)
    return {
        "wall_s": list_time(passes, scaled),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3 if len(lat) > 1 else lat[0] * 1e3,
        "setup_s": statistics.median(setup_s),
    }


def layer_metrics(tr):
    """Per-pass layer figures from the spans of one traced pass."""
    from tracer import TRACED

    calls = tr.calls()
    self_s = tr.layer_self_s()
    windows = calls["measure.cumulative_pieces"]
    intervals = calls["seminorm.interval_seminorm"]
    norms = calls["measure.norm_unif"]
    out = {
        "poly.real_roots_in.calls": calls["poly.real_roots_in"],
        "poly.real_roots_in.per_window": calls["poly.real_roots_in"] / windows if windows else 0.0,
        "seminorm.interval_seminorm.calls": intervals,
        "seminorm.window_seminorm.calls": calls["seminorm.window_seminorm"],
        "seminorm.windows_per_interval": (
            tr.count_under("measure.cumulative_pieces", "seminorm.interval_seminorm") / intervals
            if intervals else 0.0),
        "measure.cumulative_pieces.calls": windows,
        "measure.norm_unif.calls": norms,
        "measure.norm_unif.repeat_ratio": norms / len(tr.norm_unif_keys) if norms else 0.0,
        "measure.mollify_with_error.s": tr.inclusive_s("measure.mollify_with_error"),
        "propagator.transfer_matrix.calls": calls["propagator.transfer_matrix"],
        "propagator.propagate.calls": calls["propagator.propagate"],
        "gordon.translation_defect.calls": calls["gordon.translation_defect"],
        "constructions.eigen_residual.calls": calls["constructions.eigen_residual"],
        "cli.run.calls": calls["cli.run"],
        "measure_io.calls": tr.layer_entries("measure_io"),
    }
    for layer in TRACED:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return out, {"calls": calls, "parents": tr.parents()}


def machine_facts():
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "load1_at_start": os.getloadavg()[0]}


def bench(args, spec):
    from hostspeed import HostSpeed
    from workloads import CORPUS_SEED, NAMES, build

    if args.workload not in NAMES:
        sys.exit(f"unknown workload {args.workload!r}; choose from {', '.join(NAMES)}")
    facts = machine_facts()
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    setup_s, setup_scale = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wg = import_program()
        wl = build(args.workload, args.seed, wg, workdir, args.tiny)
        run_pass(wl.ops[:1])  # warm-up; a failing op shows again in the passes
        setup_s.append(time.perf_counter() - t0)
        speed = HostSpeed()
        speed.sample(setup_s[-1])
        setup_scale.append(speed.scale())

    passes = run_for(wl.ops, args.seconds / 2 if args.trace else args.seconds)
    traced, layer, alias_misses = [], [], []
    if args.trace:
        from tracer import Tracer

        tr = Tracer()
        alias_misses = tr.install()

        def collect():
            layer.append(layer_metrics(tr))
            if len(layer) == 1:
                tr.save(WORK / f"spans-{args.workload}.npz")
            tr.reset()

        try:
            traced = run_for(wl.ops, args.seconds / 2, tr, collect)
        finally:
            tr.uninstall()
    try:
        probe = wl.probe() if wl.probe else None
    except Exception as e:  # any outcome other than the documented two is reported
        probe = {"unexpected": traceback.format_exception_only(e)[-1].strip()}

    everything = passes + traced
    attempted = sum(len(p.lat) for p in everything)
    failures = [f for p in everything for f in p.failures]
    reference = passes[0].outputs
    diverged = sorted({wl.ops[k].kind for p in everything[1:]
                       for k, out in enumerate(p.outputs) if out != reference[k]})
    correct = (not failures and not diverged and not alias_misses
               and (probe is None or "unexpected" not in probe))

    raw = end_to_end_times(passes, setup_s, False)
    norm = end_to_end_times(passes, [t * f for t, f in zip(setup_s, setup_scale)], True)
    if args.trace:
        counts, spans = layer[0]
        values = dict(counts)
        for key in counts:
            if key.endswith("_s") or key.endswith(".s"):
                values[key] = statistics.median(m[key] for m, _ in layer)
        values["trace.overhead_ratio"] = list_time(traced) / raw["wall_s"]
        declared = spec["per_layer"]
    else:
        values = {
            "wall_norm_s": norm["wall_s"],
            "op_p50_norm_ms": norm["op_p50_ms"],
            "op_p90_norm_ms": norm["op_p90_ms"],
            "pass_ratio": 1.0 - len(failures) / attempted,
            "setup_s": norm["setup_s"],
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    kinds, kind_lat = {}, {}
    for k, op in enumerate(wl.ops):
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
        kind_lat.setdefault(op.kind, []).extend(p.lat[k] for p in passes)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "machine": facts,
        "generator": {"corpus_seed": CORPUS_SEED, **wl.params},
        "ops_per_pass": len(wl.ops), "op_kinds": kinds,
        "op_kind_median_ms": {k: statistics.median(v) * 1e3 for k, v in kind_lat.items()},
        "passes": len(passes), "traced_passes": len(traced),
        "pass_wall_s": [p.wall for p in passes], "traced_pass_wall_s": [p.wall for p in traced],
        "pass_cpu_s": [p.cpu for p in passes], "op_done_s": [p.done for p in passes],
        "setup_s": setup_s, "attempted": attempted, "failed": len(failures),
        "fail_ratio": len(failures) / attempted, "failures": failures[:50],
        "outputs_diverged": diverged, "alias_misses": alias_misses,
        "known_defect": probe,
        "outputs_sha256": [
            {"op": k, "kind": op.kind, "output": op.output, "sha256": digest}
            for k, (op, digest) in enumerate(zip(wl.ops, reference))
            if op.output in ("csv", "json")],
        "raw": raw,
        "pass_scale": [p.scale for p in passes], "pass_kernel_calls": [p.kernel_calls for p in passes],
        "setup_scale": setup_scale,
        "metrics": metrics,
    }
    if args.trace:
        record.update(spans)
    record_path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine  " + "  ".join(f"{k} {v}" for k, v in facts.items()))
    print(f"ops      {len(wl.ops)} per pass ({', '.join(f'{k} {v}' for k, v in kinds.items())}); "
          f"{len(passes)} untraced + {len(traced)} traced passes; {attempted} attempted, "
          f"{len(failures)} failed, fail_ratio {len(failures) / attempted:.4g}")
    print(f"raw      wall_s {raw['wall_s']:.6g} s  op_p50_ms {raw['op_p50_ms']:.6g} ms  "
          f"op_p90_ms {raw['op_p90_ms']:.6g} ms  setup_s {raw['setup_s']:.6g} s  "
          f"(median pass factor to nominal host speed "
          f"{statistics.median(p.scale for p in passes):.4g})")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for f in failures[:5]:
        print(f"FAILED op {f[0]} ({f[1]}): {f[2]}")
    if diverged:
        print(f"OUTPUT MISMATCH between passes in: {', '.join(diverged)}")
    if alias_misses:
        print(f"UNTRACED ALIASES: {', '.join(alias_misses)}")
    if probe is not None:
        state = "still raises" if probe.get("reproduced") else "no longer reproduces"
        print(f"known defect (complex interval_seminorm, length 3): {state}: {probe}")
    print(f"record   {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


def smoke(spec):
    from tracer import TRACED
    from workloads import NAMES

    problems, called = [], {}
    for name in NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", "1", "--seconds", "0", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{name} trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            res = json.loads(lines[-1])
            declared = spec["per_layer" if trace else "end_to_end"]
            if set(res) != {"correct", "attempted", "failed", "metrics"} or not res["correct"]:
                problems.append(f"{name} trace {trace}: result {lines[-1][:300]}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace {trace}: metrics {sorted(got)} != {sorted(want)}")
            if trace:
                record = json.loads((WORK / f"{name}-seed1-trace1.json").read_text())
                for fn, n in record["calls"].items():
                    called[fn] = called.get(fn, 0) + n
            print(f"smoke {name} trace {trace}: {res['attempted']} ops, correct {res['correct']}")
    never = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns
             if not called.get(f"{layer}.{fn}")]
    if never:
        problems.append(f"traced functions never called: {', '.join(never)}")
    for p in problems:
        print("SMOKE FAILURE:", p)
    print("smoke", "failed" if problems else "passed")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="one op of each kind (smoke mode)")
    ap.add_argument("--smoke", action="store_true", help="run the benchmark's own test")
    args = ap.parse_args()

    if not (ROOT / "src" / "weakgordon" / "__init__.py").is_file():
        sys.exit(f"weakgordon sources not found under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.smoke:
        return smoke(spec)
    if not args.workload:
        ap.error("--workload is required")
    bench(args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
