"""Span tracing for the benchmark's traced run, from outside the package.

`install` replaces the package's public functions by timing wrappers in every
`jumpspec` module namespace that holds them, which is where callers look the
names up (`jumpspec.cli.derivative_matrix`, `jumpspec.mol.rk4_step`,
`jumpspec.diffmat.fd_weights`, ...), so nothing under `src/` changes. The
returned function puts the originals back.

Each span records its name, start, end, span id, parent span id, job id and
thread. A span opened on a pool thread with nothing open on that thread is
parented to the span the job's own thread has open, which is the converge
pool. Spans are kept in per-thread buffers in memory and written out after
the run.

A span's self time is its duration minus the part of its interval that its
child spans cover. Children on several pool threads overlap, so coverage is
the length of the union of the children's intervals, not their sum.
"""

from __future__ import annotations

import csv
import importlib
import itertools
import os
import sys
import threading
from array import array
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

def _probes(position):
    """Info for an interpolation call whose probes are positional argument
    `position`: the probe count, keyed by grid degree and probe count."""

    def info(args, kwargs, result):
        size = np.size(args[position] if len(args) > position else kwargs["x"])
        return float(size), f"N={args[0].grid.N} points={size}"

    return info


def _matrix_shape(args, kwargs, result):
    return 0.0, f"N={result.grid.N} n={result.n} m={result.m}"


def _step_kind(args, kwargs, result):
    problem = args[3]
    jd = problem.jump0
    kind = "plain" if jd is None or jd.order < 0 else "corrected"
    return 0.0, f"{kind} N={problem.grid.N}"


def _matrix_size(args, kwargs, result):
    return 0.0, f"N={args[0].grid.N}"


def _file_bytes(args, kwargs, result):
    return float(os.path.getsize(args[0])), ""


# module -> {function name: (span name, info)}; info(args, kwargs, result)
# returns a quantity summed per span name and a key that splits the cross-check
# table by size
FUNCTIONS = {
    "grid": {
        "equidistant": ("grid.build", None),
        "chebyshev_gauss_lobatto": ("grid.build", None),
        "custom": ("grid.build", None),
    },
    "lagrange": {
        "barycentric_weights": ("lagrange.barycentric_weights", None),
        "interpolate": ("lagrange.interpolate", _probes(2)),
        "basis_matrix": ("lagrange.basis_matrix", None),
    },
    "diffmat": {
        "derivative_matrix": ("diffmat.derivative_matrix", _matrix_shape),
        "fd_weights": ("diffmat.fd_weights", None),
        "negative_sum_trick": ("diffmat.negative_sum_trick", None),
        "apply": ("diffmat.apply", None),
    },
    "quadrature": {
        "quad_weights": ("quadrature.quad_weights", None),
        "basis_integrals": ("quadrature.basis_integrals", None),
        "integrate": ("quadrature.integrate", None),
    },
    "jumps": {
        "jump_weights": ("jumps.jump_weights", None),
        "corrected_derivative": ("jumps.corrected_derivative", _matrix_size),
        "corrected_interpolate": ("jumps.corrected_interpolate", _probes(3)),
        "corrected_integrate": ("jumps.corrected_integrate", None),
    },
    "mol": {
        "evolve": ("mol.evolve", None),
        "rk4_step": ("mol.rk4_step", _step_kind),
    },
    "cli": {
        "write_csv": ("cli.write_csv", _file_bytes),
        # the unit of work the converge pool runs on its threads
        "_converge_cell": ("cli.converge.cell", None),
    },
}
METHODS = {
    "refproblems": {
        ("LegendreProblem", "SyntheticPiecewise"): {
            "value": "refproblems.value",
            "derivative": "refproblems.derivative",
            "jump_data": "refproblems.jump_data",
        }
    }
}
JOB_SPAN = "cli.job"
POOL_SPAN = "cli.converge.pool"


class _Buffer:
    """One thread's finished spans, column-wise, plus its open-span stack."""

    def __init__(self, thread: int):
        self.thread = thread
        self.stack: list[int] = []
        self.name = array("i")
        self.key = array("i")
        self.sid = array("q")
        self.parent = array("q")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.qty = array("d")


class Tracer:
    """Collects spans from every thread; `job` tags the spans of the running job."""

    def __init__(self) -> None:
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._names: dict[str, int] = {}
        self._keys: dict[str, int] = {"": 0}
        self._client: list[int] = []
        self.job = -1

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _intern(self, table: dict[str, int], s: str) -> int:
        i = table.get(s)
        if i is None:
            with self._lock:
                i = table.setdefault(s, len(table))
        return i

    def begin_job(self, job: int) -> tuple:
        """Open a job's root span on the calling (client) thread."""
        self.job = job
        self._client = self._buffer().stack
        return self.open()

    def open(self) -> tuple:
        buf = self._buffer()
        stack = buf.stack
        sid = next(self._ids)
        if stack:
            parent = stack[-1]
        else:
            client = self._client
            parent = client[-1] if client else -1
        stack.append(sid)
        return buf, sid, parent, perf_counter()

    def close(self, token: tuple, name: str, qty: float = 0.0, key: str = "", end: float | None = None) -> None:
        if end is None:
            end = perf_counter()
        buf, sid, parent, start = token
        buf.stack.pop()
        buf.name.append(self._intern(self._names, name))
        buf.key.append(self._intern(self._keys, key))
        buf.sid.append(sid)
        buf.parent.append(parent)
        buf.job.append(self.job)
        buf.start.append(start)
        buf.end.append(end)
        buf.qty.append(qty)

    def wrap(self, name: str, fn, info=None):
        def traced(*args, **kwargs):
            token = self.open()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(token, name)
                raise
            end = perf_counter()
            # the span ends before the info call, which is tracing cost
            qty, key = info(args, kwargs, result) if info else (0.0, "")
            self.close(token, name, qty, key, end)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def spans(self) -> dict[str, np.ndarray]:
        """Every finished span as columns; `name` and `key` index the tables."""
        cols = {}
        for col, typecode in (("name", "i"), ("key", "i"), ("sid", "q"), ("parent", "q"),
                              ("job", "i"), ("start", "d"), ("end", "d"), ("qty", "d")):
            parts = [np.frombuffer(getattr(b, col), dtype=typecode) for b in self._buffers]
            cols[col] = np.concatenate(parts + [np.empty(0, dtype=typecode)])
        threads = [np.full(len(b.sid), b.thread, dtype=np.int32) for b in self._buffers]
        cols["thread"] = np.concatenate(threads + [np.empty(0, dtype=np.int32)])
        cols["names"] = np.array(sorted(self._names, key=self._names.get), dtype=object)
        cols["keys"] = np.array(sorted(self._keys, key=self._keys.get), dtype=object)
        return cols

    def write(self, path: str) -> None:
        """Write the spans as CSV, one row per span."""
        s = self.spans()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "parent", "job", "thread", "name", "key", "start", "end", "qty"])
            for i in range(s["sid"].size):
                out.writerow([
                    int(s["sid"][i]), int(s["parent"][i]), int(s["job"][i]), int(s["thread"][i]),
                    s["names"][s["name"][i]], s["keys"][s["key"][i]],
                    repr(float(s["start"][i])), repr(float(s["end"][i])), repr(float(s["qty"][i])),
                ])


def install(tracer: Tracer):
    """Route the package's public functions through tracer; return the undo."""
    wrappers = {}
    for module, funcs in FUNCTIONS.items():
        mod = importlib.import_module(f"jumpspec.{module}")
        for fname, (span, info) in funcs.items():
            fn = getattr(mod, fname)
            wrappers[fn] = tracer.wrap(span, fn, info)
    patches = []
    for modname, mod in list(sys.modules.items()):
        if modname != "jumpspec" and not modname.startswith("jumpspec."):
            continue
        for attr, value in list(vars(mod).items()):
            if callable(value) and not isinstance(value, type) and value in wrappers:
                patches.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])
    for module, classes in METHODS.items():
        mod = importlib.import_module(f"jumpspec.{module}")
        for cls_names, methods in classes.items():
            for cls_name in cls_names:
                cls = getattr(mod, cls_name)
                for meth, span in methods.items():
                    fn = vars(cls)[meth]
                    patches.append((cls, meth, fn))
                    setattr(cls, meth, tracer.wrap(span, fn))

    class TracedPool(ThreadPoolExecutor):
        def __enter__(self):
            self._span = tracer.open()
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._span, POOL_SPAN, float(self._max_workers))

    cli = importlib.import_module("jumpspec.cli")
    patches.append((cli, "ThreadPoolExecutor", cli.ThreadPoolExecutor))
    cli.ThreadPoolExecutor = TracedPool

    def undo():
        for owner, attr, value in reversed(patches):
            setattr(owner, attr, value)

    return undo


def self_times(sid, parent, start, end) -> np.ndarray:
    """Self time of every span: its duration minus the length of the union
    of its children's intervals (clipped to its own interval)."""
    sid = np.asarray(sid)
    parent = np.asarray(parent)
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    out = end - start
    row = {int(s): i for i, s in enumerate(sid)}
    order = np.lexsort((start, parent))
    i, n = 0, order.size
    while i < n:
        p = int(parent[order[i]])
        j = i
        while j < n and parent[order[j]] == p:
            j += 1
        prow = row.get(p)
        if prow is not None:
            lo, hi = start[prow], end[prow]
            covered, cur_lo, cur_hi = 0.0, None, None
            for k in order[i:j]:
                a, b = max(start[k], lo), min(end[k], hi)
                if b <= a:
                    continue
                if cur_hi is None or a > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = a, b
                else:
                    cur_hi = max(cur_hi, b)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[prow] -= covered
        i = j
    return out


# (metric, unit) reported by a traced run on every workload; a layer the
# workload never calls reports zero
PER_LAYER = [
    ("grid.build.calls", "count"),
    ("grid.build.self_s", "s"),
    ("lagrange.barycentric_weights.self_s", "s"),
    ("lagrange.interpolate.calls", "count"),
    ("lagrange.interpolate.points", "count"),
    ("lagrange.interpolate.self_s", "s"),
    ("lagrange.basis_matrix.self_s", "s"),
    ("diffmat.derivative_matrix.calls", "count"),
    ("diffmat.derivative_matrix.self_s", "s"),
    ("diffmat.fd_weights.calls", "count"),
    ("diffmat.fd_weights.self_s", "s"),
    ("diffmat.negative_sum_trick.self_s", "s"),
    ("diffmat.apply.calls", "count"),
    ("diffmat.apply.self_s", "s"),
    ("quadrature.quad_weights.self_s", "s"),
    ("quadrature.basis_integrals.calls", "count"),
    ("quadrature.basis_integrals.self_s", "s"),
    ("quadrature.integrate.self_s", "s"),
    ("jumps.jump_weights.calls", "count"),
    ("jumps.jump_weights.self_s", "s"),
    ("jumps.corrected_derivative.calls", "count"),
    ("jumps.corrected_derivative.self_s", "s"),
    ("jumps.corrected_derivative.us_per_call", "us"),
    ("jumps.corrected_interpolate.calls", "count"),
    ("jumps.corrected_interpolate.points", "count"),
    ("jumps.corrected_interpolate.self_s", "s"),
    ("jumps.corrected_integrate.self_s", "s"),
    ("mol.evolve.self_s", "s"),
    ("mol.rk4_step.calls", "count"),
    ("mol.step_us.corrected", "us"),
    ("mol.step_us.plain", "us"),
    ("mol.step_cost_ratio", "1"),
    ("refproblems.value.self_s", "s"),
    ("refproblems.derivative.self_s", "s"),
    ("refproblems.jump_data.self_s", "s"),
    ("cli.job.self_s", "s"),
    ("cli.write_csv.self_s", "s"),
    ("cli.write_csv.bytes", "bytes"),
    ("cli.converge.pool_wait_s", "s"),
    ("cli.converge.pool_busy_ratio", "1"),
    ("trace.overhead_ratio", "1"),
]


def layer_metrics(spans: dict, passes: int, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of `passes` traced passes over the same job cycle.

    Counts, seconds and bytes are per pass, so counts repeat exactly for a
    given seed; per-call and ratio metrics are over all passes.
    """
    names = list(spans["names"])
    self_s = self_times(spans["sid"], spans["parent"], spans["start"], spans["end"])
    dur = spans["end"] - spans["start"]

    def mask(name):
        return spans["name"] == names.index(name) if name in names else np.zeros(dur.size, bool)

    def total(name, col):
        return float(col[mask(name)].sum())

    def calls(name):
        return int(mask(name).sum())

    keys = np.asarray(spans["keys"], dtype=str)[spans["key"]] if dur.size else np.empty(0, str)
    out: dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        stem, _, what = metric.rpartition(".")
        if what == "calls":
            out[metric] = calls(stem) / passes
        elif what == "self_s":
            out[metric] = total(stem, self_s) / passes
        elif what in ("points", "bytes"):
            out[metric] = total(stem, spans["qty"]) / passes
    n = calls("jumps.corrected_derivative")
    out["jumps.corrected_derivative.us_per_call"] = (
        1e6 * total("jumps.corrected_derivative", dur) / n if n else 0.0
    )
    step = mask("mol.rk4_step")
    for kind in ("corrected", "plain"):
        sel = step & np.char.startswith(keys, kind) if dur.size else step
        out[f"mol.step_us.{kind}"] = 1e6 * float(dur[sel].mean()) if sel.any() else 0.0
    plain = out["mol.step_us.plain"]
    out["mol.step_cost_ratio"] = out["mol.step_us.corrected"] / plain if plain else 0.0
    pool = mask(POOL_SPAN)
    out["cli.converge.pool_wait_s"] = float(dur[pool].sum()) / passes
    capacity = float((dur[pool] * spans["qty"][pool]).sum())
    out["cli.converge.pool_busy_ratio"] = (
        total("cli.converge.cell", dur) / capacity if capacity else 0.0
    )
    out["trace.overhead_ratio"] = traced_wall / untraced_wall
    return {metric: out[metric] for metric, _unit in PER_LAYER}


def size_table(spans: dict, passes: int) -> list[tuple[str, str, int, float]]:
    """(span, key, calls per pass, mean duration in s) for the spans that
    carry a size key, for the cross-check against earlier measurements."""
    rows = []
    dur = spans["end"] - spans["start"]
    for ni, name in enumerate(spans["names"]):
        for ki, key in enumerate(spans["keys"]):
            if not key:
                continue
            sel = (spans["name"] == ni) & (spans["key"] == ki)
            if sel.any():
                rows.append((name, key, int(sel.sum()) // passes, float(dur[sel].mean())))
    return sorted(rows)
