"""Per-layer spans for the traced benchmark pass.

Every span is recorded by a wrapper that this file installs around one
public function of the package, from the outside: no file under src/
carries tracing code.  A module that imported a function by name holds
its own reference (cli.verify_inequality, forge.eval_jet, ...), so the
wrapper replaces every binding of the original object in every loaded
normfam module, and `uninstall` puts the originals back.

Spans stay in memory as dicts (name, start, end, parent index, count)
and are reduced to the per-layer metrics only after the pass.
"""

import functools
import os
import sys
import time
from collections import defaultdict

from normfam import analysis, cli, cpoly, forge, kernels, storage

KERNELS = ("h_log", "ratio_log", "fk", "sphder_log")
ANALYSIS = (
    "max_modulus_check",
    "verify_inequality",
    "verify_node_jets",
    "marty_probe",
    "lemma2_probe",
)


def _points(args):
    return len(args[-1])  # every grid kernel takes its points last


def _size_of(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


# (owner, attribute, span name, count taken from the call's arguments)
TARGETS = (
    [
        (forge, "estimate_m", "forge.estimate_m", None),
        (forge, "estimate_c", "forge.estimate_c", None),
        (forge, "build_p", "forge.build_p", None),
        # the record invariant gate: every construct and every load runs it
        (forge.CounterexampleFunction, "__post_init__", "forge.gate", None),
        (cpoly, "hermite_interpolate", "cpoly.hermite_interpolate", None),
        (cpoly, "eval_jet", "cpoly.eval_jet", None),
        (storage, "save_function", "storage.save", lambda a: _size_of(a[-1])),
        (storage, "load_function", "storage.load", lambda a: _size_of(a[0])),
        (cli, "cmd_grid", "cli.cmd_grid", lambda a: _size_of(a[0].export)),
    ]
    + [(analysis, f, f"analysis.{f}", None) for f in ANALYSIS]
    + [(kernels, f, f"kernels.{f}", _points) for f in KERNELS]
)

# name and unit of every per-layer metric, in report order
METRICS = (
    [
        ("forge.estimate_m_s", "s"),
        ("forge.estimate_m_points", "count"),
        ("forge.estimate_c_s", "s"),
        ("forge.estimate_c_points", "count"),
        ("forge.build_p_s", "s"),
        ("cpoly.hermite_interpolate_s", "s"),
        ("forge.gate_s", "s"),
        ("cpoly.eval_jet_calls", "count"),
        ("cpoly.eval_jet_s", "s"),
    ]
    + [(f"analysis.{f}_s", "s") for f in ANALYSIS]
    + [(f"kernels.{f}_ns_per_point", "ns") for f in KERNELS]
    + [(f"kernels.{f}_points", "count") for f in KERNELS]
    + [
        ("storage.save_s", "s"),
        ("storage.bytes_written", "B"),
        ("storage.load_s", "s"),
        ("storage.bytes_read", "B"),
        ("cli.csv_write_s", "s"),
        ("cli.csv_bytes", "B"),
        ("trace.overhead_s", "s"),
    ]
)


class Tracer:
    """Installs span wrappers, records spans, reduces them to metrics."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._undo = []

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "count": 0,
            }
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
                if count is not None:
                    span["count"] = count(args)

        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "normfam"]
        for owner, attr, name, count in TARGETS:
            original = getattr(owner, attr, None)
            if original is None:  # the layer is gone; its metrics read 0
                continue
            wrapped = self._wrap(name, original, count)
            for holder in [owner] + modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._undo.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def metrics(self, overhead_s):
        """Per-layer metrics of the recorded spans, keyed like METRICS.

        Times are inclusive except storage.load_s (the gate and anything
        else traced below the load is taken out) and cli.csv_write_s (the
        self time of cmd_grid: what is left after load and kernels).
        Kernel points are also credited to the estimate_* span above them.
        """
        total, self_time, child_time = (defaultdict(float) for _ in range(3))
        calls, counts, under = (defaultdict(int) for _ in range(3))
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        for i, s in enumerate(self.spans):
            name, dur = s["name"], s["end"] - s["start"]
            total[name] += dur
            self_time[name] += dur - child_time[i]
            calls[name] += 1
            counts[name] += s["count"]
            if name.startswith("kernels."):
                p = s["parent"]
                while p is not None:
                    if self.spans[p]["name"].startswith("forge.estimate_"):
                        under[self.spans[p]["name"]] += s["count"]
                    p = self.spans[p]["parent"]
        out = {
            "forge.estimate_m_s": total["forge.estimate_m"],
            "forge.estimate_m_points": under["forge.estimate_m"],
            "forge.estimate_c_s": total["forge.estimate_c"],
            "forge.estimate_c_points": under["forge.estimate_c"],
            "forge.build_p_s": total["forge.build_p"],
            "cpoly.hermite_interpolate_s": total["cpoly.hermite_interpolate"],
            "forge.gate_s": total["forge.gate"],
            "cpoly.eval_jet_calls": calls["cpoly.eval_jet"],
            "cpoly.eval_jet_s": total["cpoly.eval_jet"],
            "storage.save_s": total["storage.save"],
            "storage.bytes_written": counts["storage.save"],
            "storage.load_s": self_time["storage.load"],
            "storage.bytes_read": counts["storage.load"],
            "cli.csv_write_s": self_time["cli.cmd_grid"],
            "cli.csv_bytes": counts["cli.cmd_grid"],
            "trace.overhead_s": overhead_s,
        }
        for f in ANALYSIS:
            out[f"analysis.{f}_s"] = total[f"analysis.{f}"]
        for f in KERNELS:
            points = counts[f"kernels.{f}"]
            out[f"kernels.{f}_points"] = points
            out[f"kernels.{f}_ns_per_point"] = (
                1e9 * total[f"kernels.{f}"] / points if points else 0.0
            )
        return out
