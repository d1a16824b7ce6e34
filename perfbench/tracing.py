"""Spans and counts around dephaser's public entry points, installed from outside.

``install(tracer)`` replaces each entry point in ENTRY_POINTS, in every
loaded dephaser module that holds it, with a wrapper that records one
span: name, start, end and the enclosing span.  Spans stay in memory in
flat arrays and are written out once, at the end of a run.  A layer's
self time is the time of its spans minus the time of their child spans.
Nothing under ``src/`` changes; tracing is used only in traced runs.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import statistics
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute); "Class.method" wraps a method on the class.
ENTRY_POINTS = [
    ("spectral.L", "dephaser.spectral", "BrownianCorrelation.__call__"),
    ("spectral.correlation_function", "dephaser.spectral", "correlation_function"),
    ("_quadrature.integrate_finite", "dephaser._quadrature", "integrate_finite"),
    ("_quadrature.integrate_to_inf", "dephaser._quadrature", "integrate_to_inf"),
    ("_quadrature.integrate_fourier_tail", "dephaser._quadrature", "integrate_fourier_tail"),
    ("dynamics.two_time_map", "dephaser.dynamics", "two_time_map"),
    ("dynamics.propagate_two_time", "dephaser.dynamics", "propagate_two_time"),
    ("dynamics.propagate_single", "dephaser.dynamics", "propagate_single"),
    ("dynamics.LiouvilleOp", "dephaser.dynamics", "LiouvilleOp.__init__"),
    ("dynamics.DensityMatrix2", "dephaser.dynamics", "DensityMatrix2.__post_init__"),
    ("dynamics.trace_distance", "dephaser.dynamics", "trace_distance"),
    ("dynamics.trace_distance_eigen", "dephaser.dynamics", "trace_distance_eigen"),
    ("measures.decay_exponent", "dephaser.measures", "decay_exponent"),
    ("measures.decay_exponent_rate", "dephaser.measures", "decay_exponent_rate"),
    ("measures.non_markovianity", "dephaser.measures", "non_markovianity"),
    ("response.echo_response", "dephaser.response", "echo_response"),
    ("cli.cmd_gfun", "dephaser.cli", "cmd_gfun"),
    ("cli.cmd_trdist", "dephaser.cli", "cmd_trdist"),
    ("cli.cmd_measure", "dephaser.cli", "cmd_measure"),
    ("cli.cmd_echo", "dephaser.cli", "cmd_echo"),
    ("cli.cmd_figures", "dephaser.cli", "cmd_figures"),
    ("cli.emit", "dephaser.cli", "_emit"),
]
ENGINES = {
    "analytic": "BrownianMatsubara",
    "hight": "HighTemperatureBrownian",
    "freq-quad": "FrequencyQuadrature",
    "time-quad": "TimeDomainQuadrature",
}
for _engine, _cls in ENGINES.items():
    for _meth, _span in (("__init__", "init"), ("g", "g"), ("gdot", "gdot")):
        ENTRY_POINTS.append((f"dephasing.{_engine}.{_span}", "dephaser.dephasing", f"{_cls}.{_meth}"))


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        # spans are recorded only while the timed operations run, not during checks
        self.active = False

    def reset(self):
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self.stack.clear()
        self.counts.clear()

    def _id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def add(self, name, start, end):
        """Record a span timed by the caller, such as the import of the CLI."""
        self.name_id.append(self._id(name))
        self.parent.append(-1)
        self.start.append(start)
        self.end.append(end)

    def wrap(self, name, fn, after=None):
        nid = self._id(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(clock())
            end.append(0.0)
            stack.append(i)
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def arrays(self):
        return {
            "names": self.names,
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "counts": dict(self.counts),
        }

    def save(self, path):
        a = self.arrays()
        np.savez(
            path,
            names=np.array(a["names"], dtype=str),
            name_id=a["name_id"],
            parent=a["parent"],
            start=a["start"],
            end=a["end"],
            counts=np.array(json.dumps(a["counts"])),
        )


def load(path):
    with np.load(path) as z:
        return {
            "names": [str(n) for n in z["names"]],
            "name_id": z["name_id"],
            "parent": z["parent"],
            "start": z["start"],
            "end": z["end"],
            "counts": json.loads(str(z["counts"])),
        }


class _CountingWarnings:
    """Stands in for the ``warnings`` module inside dephaser.dynamics to count clamps."""

    def __init__(self, tracer, real):
        self._tracer = tracer
        self._real = real

    def warn(self, *args, **kwargs):
        if self._tracer.active:
            self._tracer.counts["dynamics.clamps"] += 1
        return self._real.warn(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._real, name)


def install(tracer: Tracer):
    """Wrap every entry point of the already imported dephaser package."""
    modules = [m for name, m in sys.modules.items() if name == "dephaser" or name.startswith("dephaser.")]

    def count_emit(args, _out):
        obj, cfg = args
        tracer.counts["cli.rows_written"] += len(obj.rows) if hasattr(obj, "rows") else 1
        if cfg.out is not None:
            tracer.counts["cli.bytes_written"] += os.path.getsize(cfg.out)

    for span, module, attr in ENTRY_POINTS:
        owner = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(span, cls.__dict__[meth]))
            continue
        orig = getattr(owner, attr)
        wrapped = tracer.wrap(span, orig, after=count_emit if span == "cli.emit" else None)
        for m in modules:
            if getattr(m, attr, None) is orig:
                setattr(m, attr, wrapped)
    dyn = sys.modules["dephaser.dynamics"]
    dyn.warnings = _CountingWarnings(tracer, dyn.warnings)


def _self_times(trace):
    """(duration, self time) of every span of one process."""
    dur = trace["end"] - trace["start"]
    child = np.zeros_like(dur)
    has_parent = trace["parent"] >= 0
    np.add.at(child, trace["parent"][has_parent], dur[has_parent])
    return dur, dur - child


def save_all(traces, path):
    """Write the span sets of all processes of a traced pass to one file."""
    arrays = {}
    for i, tr in enumerate(traces):
        arrays[f"p{i}_names"] = np.array(tr["names"], dtype=str)
        for key in ("name_id", "parent", "start", "end"):
            arrays[f"p{i}_{key}"] = tr[key]
    np.savez_compressed(path, **arrays)


def layer_metrics(traces):
    """Per-layer metrics of one traced pass from the span sets of its processes."""
    calls = collections.Counter()
    self_s = collections.Counter()
    incl_s = collections.Counter()
    extra = collections.Counter()
    import_times = []
    for tr in traces:
        dur, own = _self_times(tr)
        ids = tr["name_id"]
        for k, name in enumerate(tr["names"]):
            sel = ids == k
            calls[name] += int(sel.sum())
            self_s[name] += float(own[sel].sum())
            incl_s[name] += float(dur[sel].sum())
        extra.update(tr["counts"])
        if "cli.import" in tr["names"]:
            import_times += dur[ids == tr["names"].index("cli.import")].tolist()

    def total(prefix, table=self_s):
        return sum(v for n, v in table.items() if n.startswith(prefix))

    m = {
        "cli.import_s": statistics.median(import_times),
        "cli.compute_s": total("cli.cmd_"),
        "cli.write_s": total("cli.emit"),
        "cli.rows_written": extra["cli.rows_written"],
        "cli.bytes_written": extra["cli.bytes_written"],
        "spectral.L_calls": calls["spectral.L"],
        "spectral.self_s": total("spectral."),
        "dephasing.construct_s": sum(incl_s[f"dephasing.{e}.init"] for e in ENGINES),
    }
    for e in ENGINES:
        m[f"dephasing.{e}.g_calls"] = calls[f"dephasing.{e}.g"]
        m[f"dephasing.{e}.gdot_calls"] = calls[f"dephasing.{e}.gdot"]
        m[f"dephasing.{e}.self_s"] = self_s[f"dephasing.{e}.g"] + self_s[f"dephasing.{e}.gdot"]
    m.update(
        {
            "_quadrature.calls": sum(v for n, v in calls.items() if n.startswith("_quadrature.")),
            "_quadrature.self_s": total("_quadrature."),
            "dynamics.map_calls": calls["dynamics.two_time_map"],
            "dynamics.op_validations": calls["dynamics.LiouvilleOp"],
            "dynamics.state_builds": calls["dynamics.DensityMatrix2"],
            "dynamics.clamps": extra["dynamics.clamps"],
            "dynamics.self_s": total("dynamics."),
            "measures.rate_calls": calls["measures.decay_exponent_rate"],
            "measures.exponent_calls": calls["measures.decay_exponent"],
            "measures.self_s": total("measures."),
            "response.echo_calls": calls["response.echo_response"],
            "response.self_s": total("response."),
        }
    )
    return m
