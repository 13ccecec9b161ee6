"""Span tracer for the weakgordon layers, installed from outside the library.

`install` replaces each traced public function by a recording wrapper, in
its own module and in every `weakgordon` namespace that bound the same
function object (`from .seminorm import interval_seminorm` in `gordon`,
`propagator`, `constructions` and `cli`, the package re-exports, ...).
A span is (name, start, end, parent span, op id). Spans stay in memory in
flat arrays and are written out once, at the end of a run.

Self time of a span is its duration minus the durations of its direct child
spans. Calls are single-threaded and properly nested, so children never
overlap and their summed duration is the time they cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# The public functions through which work enters each layer. The arithmetic
# helpers of `poly` (evaluate, add, trim, shift_origin, ...) are left out:
# they run millions of times per pass, so their time counts toward the
# calling layer instead. Private helpers count toward their public caller.
TRACED = {
    "cli": ("run",),
    "measure_io": ("load_measure", "dump_measure"),
    "gordon": ("translation_defect", "estimate_C_mu", "exclusion_bound"),
    "constructions": (
        "liouville_alpha", "quasiperiodic_measure", "sharpness_construction",
        "sharpness_report", "eigen_residual", "eigenfunction_trace",
    ),
    "seminorm": ("interval_seminorm", "window_seminorm", "sliding_l1_sup"),
    "propagator": (
        "transfer_matrix", "propagate", "dirichlet_neumann", "gronwall_bound",
        "sharp_growth_bound", "stability_bound", "solution_difference",
        "spectral_shift",
    ),
    "measure": (
        "make_measure", "add_measures", "subtract", "translate", "scale",
        "phi", "total_variation", "norm_unif", "cumulative_pieces",
        "mollify_with_error", "materialize_periodic",
    ),
    "poly": ("real_roots_in", "integral_abs"),
}
OP_LAYER = "op"  # root span of one benchmark op; its self time is harness work


class Tracer:
    def __init__(self):
        self.names = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
        self._restore = []
        self.reset()

    def reset(self):
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.self_s = defaultdict(float)
        self.norm_unif_keys = set()
        self._stack = []  # [span index, summed child duration]
        self._op = -1

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid):
        i = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op.append(self._op)
        frame = [i, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, nid, t0, t1):
        self._stack.pop()
        d = t1 - t0
        self.start[frame[0]] = t0
        self.end[frame[0]] = t1
        self.self_s[nid] += d - frame[1]
        if self._stack:
            self._stack[-1][1] += d

    def wrap(self, name, fn):
        nid = self._name_id(name)
        perf = time.perf_counter
        watch_norm = name == "measure.norm_unif"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if watch_norm:
                r = args[1] if len(args) > 1 else kwargs.get("r", 1.0)
                self.norm_unif_keys.add((hash(args[0]), float(r)))
            frame = self._open(nid)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, nid, t0, perf())

        return traced

    def run_op(self, op_id, kind, fn):
        """Run fn() as the root span of one op."""
        nid = self._name_id(f"{OP_LAYER}.{kind}")
        self._op = op_id
        frame = self._open(nid)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self._close(frame, nid, t0, time.perf_counter())
            self._op = -1

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced function and rebind all of its aliases.

        Returns the names of bindings that still point at an original
        function afterwards; an empty list is the alias self-check passing.
        """
        mods = {n: m for n, m in sys.modules.items()
                if m is not None and (n == "weakgordon" or n.startswith("weakgordon."))}
        originals = {}
        for layer, fns in TRACED.items():
            mod = mods[f"weakgordon.{layer}"]
            for fn_name in fns:
                orig = getattr(mod, fn_name)
                originals[id(orig)] = (orig, self.wrap(f"{layer}.{fn_name}", orig))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))
        return [f"{n}.{attr}" for n, mod in mods.items()
                for attr, value in vars(mod).items() if id(value) in originals]

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    # -- summaries ---------------------------------------------------------

    def calls(self):
        """Calls per traced name in the spans recorded since the last reset."""
        counts = np.bincount(np.frombuffer(self.name, dtype=np.int32),
                             minlength=len(self.names))
        return {n: int(c) for n, c in zip(self.names, counts)}

    def parents(self):
        """For each span name, how many of its spans each parent name opened."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
        pairs, counts = np.unique(np.stack([name, parent_name], axis=1), axis=0,
                                  return_counts=True)
        out = defaultdict(dict)
        for (c, p), n in zip(pairs.tolist(), counts.tolist()):
            out[self.names[c]][self.names[p] if p >= 0 else "root"] = n
        return dict(out)

    def layer_self_s(self):
        out = defaultdict(float)
        for nid, s in self.self_s.items():
            out[self.names[nid].split(".", 1)[0]] += s
        return dict(out)

    def layer_entries(self, layer):
        """Spans of `layer` whose parent span belongs to another layer."""
        in_layer = np.array([n.split(".", 1)[0] == layer for n in self.names])
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        mine = in_layer[name]
        parent_in = np.zeros_like(mine)
        has_parent = parent >= 0
        parent_in[has_parent] = in_layer[name[parent[has_parent]]]
        return int(np.count_nonzero(mine & ~parent_in))

    def count_under(self, child, ancestor):
        """Spans named `child` with a span named `ancestor` above them."""
        if child not in self.names or ancestor not in self.names:
            return 0
        cid, aid = self.names.index(child), self.names.index(ancestor)
        total = 0
        for i in np.flatnonzero(np.frombuffer(self.name, dtype=np.int32) == cid):
            p = self.parent[i]
            while p >= 0 and self.name[p] != aid:
                p = self.parent[p]
            total += p >= 0
        return total

    def inclusive_s(self, name):
        if name not in self.names:
            return 0.0
        sel = np.frombuffer(self.name, dtype=np.int32) == self.names.index(name)
        return float(np.sum(np.frombuffer(self.end)[sel] - np.frombuffer(self.start)[sel]))

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )
