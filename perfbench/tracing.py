"""In-memory span tracing of gylat's public functions, from outside the program.

``Tracer.install`` wraps every public module-level function of the eight
gylat modules and rebinds the wrapper in every gylat namespace that holds the
original, including names re-bound through ``from .x import y`` and the
package's re-exports.  A wrapped call made while a job is active records a
span (name, start, end, parent, job id, raised, count); spans stay in memory
until ``write`` is called at the end of the run.

Not wrapped, so their cost is the self time of their callers:
- ``CharPoly`` and ``Mat2`` methods (they are not module-level functions);
- ``transfer.step_matrix``, which a sweep calls once per lattice site, so a
  span would cost as much as the step it measures;
- ``cli.render_json`` and ``cli.render_csv``: render_json calls itself once
  per list element, so a wrapper would add its own cost ~1e6 times to a large
  table.  Rendering is measured by the span of ``cli.emit``, which renders
  and prints the payload.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("cli", "core", "transfer", "spectrum", "perturbation", "chebyshev",
           "closedform", "vacuum")
UNWRAPPED = {"transfer.step_matrix", "cli.render_json", "cli.render_csv"}


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _topology(args, kwargs):
    return "circle" if _arg(args, kwargs, 1, "bc").is_circle else "interval"


def _char_poly_backend(args, kwargs):
    return "exact" if _arg(args, kwargs, 2, "exact", False) else "float"


# name -> (variant from the arguments, count from the arguments and result)
DETAIL = {
    "transfer.determinant": (_topology, lambda a, k, r: _arg(a, k, 0, "potential").nu),
    "spectrum.oracle_spectrum": (_topology, lambda a, k, r: len(r)),
    "transfer.char_poly": (_char_poly_backend, lambda a, k, r: r.degree),
    "transfer.eigenfunctions": (None, lambda a, k, r: len(r)),
    # emit prints one payload per request into the captured stdout, so the
    # stream's position after it is the number of characters rendered.
    "cli.emit": (None, lambda a, k, r: sys.stdout.tell()),
}

# span fields
NAME, START, END, PARENT, JOB, ERROR, COUNT = range(7)

# (name, unit, better) of every per-layer metric; BENCHMARK.json lists the same.
PER_LAYER = [
    *[(f"{m}.{what}", unit, "lower") for m in MODULES
      for what, unit in (("self_s", "s"), ("calls", "count"), ("errors", "count"))],
    ("transfer.determinant_interval.self_s", "s", "lower"),
    ("transfer.determinant_circle.self_s", "s", "lower"),
    ("transfer.determinant.sites_per_s", "1/s", "higher"),
    ("core.load_potential.busy_s", "s", "lower"),
    ("spectrum.oracle_interval.self_s", "s", "lower"),
    ("spectrum.oracle_circle.self_s", "s", "lower"),
    ("spectrum.oracle.eigs", "count", "higher"),
    ("transfer.eigenfunctions.self_s", "s", "lower"),
    ("transfer.eigenfunctions.modes", "count", "higher"),
    ("cli.render.busy_s", "s", "lower"),
    ("cli.render.bytes", "B", "higher"),
    ("cli.cmd.self_s", "s", "lower"),
    ("transfer.char_poly_float.self_s", "s", "lower"),
    ("transfer.char_poly_exact.self_s", "s", "lower"),
    ("transfer.char_poly.degree_sum", "count", "higher"),
    ("spectrum.poly_roots.self_s", "s", "lower"),
    ("spectrum.inverse_power_sums.self_s", "s", "lower"),
    ("perturbation.trace_series.self_s", "s", "lower"),
    ("perturbation.det_series.self_s", "s", "lower"),
    ("trace.untraced_jobs_per_s", "1/s", "higher"),
    ("trace.traced_jobs_per_s", "1/s", "higher"),
    ("trace.slowdown", "x", "lower"),
    ("trace.self_share_max", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []  # indices of the open spans
        self._patches: list[tuple] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        originals = {}
        for short in MODULES:
            mod = importlib.import_module(f"gylat.{short}")
            for name, fn in vars(mod).items():
                qual = f"{short}.{name}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_") and qual not in UNWRAPPED):
                    originals[id(fn)] = self._wrap(qual, fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "gylat" and not modname.startswith("gylat."):
                continue
            for name, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._patches):
            setattr(mod, name, value)
        self._patches.clear()

    def _wrap(self, qual: str, fn):
        variant, counter = DETAIL.get(qual, (None, None))
        stack, spans = self._stack, self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            name = f"{qual}:{variant(args, kwargs)}" if variant else qual
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job, False, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if counter:
                span[COUNT] = counter(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,job,error,count\n")
            for s in self.spans:
                fh.write(f"{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{s[JOB]},"
                         f"{int(s[ERROR])},{s[COUNT]}\n")


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append(s)
    out = []
    for i, s in enumerate(spans):
        inside = [(max(c[START], s[START]), min(c[END], s[END])) for c in children[i]]
        out.append((s[END] - s[START]) - _covered([iv for iv in inside if iv[1] > iv[0]]))
    return out


def layer_metrics(spans: list, rounds: int) -> dict[str, float]:
    """Per-layer metrics, as totals per round of the workload's job mix."""
    selfs = self_times(spans)
    per = max(1, rounds)
    m: dict[str, float] = defaultdict(float)
    sites = det_self = 0.0
    for s, st in zip(spans, selfs):
        name = s[NAME]
        base = name.split(":")[0]
        module = base.split(".")[0]
        dur = s[END] - s[START]
        m[f"{module}.self_s"] += st
        m[f"{module}.calls"] += 1
        m[f"{module}.errors"] += s[ERROR]
        if base == "transfer.determinant":
            m[f"transfer.determinant_{name.split(':')[1]}.self_s"] += st
            sites += s[COUNT]
            det_self += st
        elif base == "core.load_potential":
            m["core.load_potential.busy_s"] += dur
        elif base == "spectrum.oracle_spectrum":
            m[f"spectrum.oracle_{name.split(':')[1]}.self_s"] += st
            m["spectrum.oracle.eigs"] += s[COUNT]
        elif base == "transfer.eigenfunctions":
            m["transfer.eigenfunctions.self_s"] += st
            m["transfer.eigenfunctions.modes"] += s[COUNT]
        elif base == "cli.emit":
            m["cli.render.busy_s"] += dur
            m["cli.render.bytes"] += s[COUNT]
        elif base.startswith("cli.cmd_"):
            m["cli.cmd.self_s"] += st
        elif base == "transfer.char_poly":
            m[f"transfer.char_poly_{name.split(':')[1]}.self_s"] += st
            m["transfer.char_poly.degree_sum"] += s[COUNT]
        elif base in ("spectrum.poly_roots", "spectrum.inverse_power_sums"):
            m[f"{base}.self_s"] += st
        elif base.startswith("perturbation.") and base.endswith("_trace_series"):
            m["perturbation.trace_series.self_s"] += st
        elif base.startswith("perturbation.") and base.endswith("_det_series"):
            m["perturbation.det_series.self_s"] += st
    out = {k: v / per for k, v in m.items()}
    out["transfer.determinant.sites_per_s"] = sites / det_self if det_self > 0 else 0.0
    return out


def self_by_job(spans: list) -> dict[int, float]:
    total: dict[int, float] = defaultdict(float)
    for s, st in zip(spans, self_times(spans)):
        total[s[JOB]] += st
    return total
