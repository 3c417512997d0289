"""Span tracing of the package from outside it.

``Tracer.install()`` wraps public functions of each module where their
callers look them up (a module attribute, or a method on the class), so no
file of the package changes.  A span records name, start, end, parent and
the job it belongs to; counters record how often hot small functions run.
Counters on hot functions cost more than the work they count, so they are
installed separately; the counts are exact, so one job with them is enough.
Spans stay in memory until ``write_spans`` is called at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

perf_counter = time.perf_counter


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _rk4_steps(args, kwargs, result):
    return len(result.t) - 1


# (module, attribute, span name, optional measure of the call).  A function
# imported into another module's namespace is wrapped in each namespace its
# callers read it from.
SPANS = [
    ("dropshock.cli", "advance", "fv.advance", None),
    ("dropshock.fv", "advance", "fv.advance", None),
    ("dropshock.cli", "compare", "validation.compare", None),
    ("dropshock.validation", "compare", "validation.compare", None),
    ("dropshock.validation", "weak_residual", "validation.weak_residual", None),
    ("dropshock.cli", "first_crossing_time", "validation.first_crossing_time", None),
    ("dropshock.validation", "first_crossing_time", "validation.first_crossing_time", None),
    ("dropshock.cli", "solve", "droplet.solve", None),
    ("dropshock.droplet", "solve", "droplet.solve", None),
    ("dropshock.cli", "blowup", "burgers.blowup", None),
    ("dropshock.burgers", "blowup", "burgers.blowup", None),
    ("dropshock.grh", "integrate", "grh.integrate", ("grh.rk4_steps", _rk4_steps)),
    ("dropshock.cli", "write_csv", "cli.write_csv", ("cli.csv_bytes", _file_bytes)),
    ("dropshock.cli", "line_plot", "svgplot.line_plot", ("svgplot.svg_bytes", _file_bytes)),
    ("dropshock.svgplot", "line_plot", "svgplot.line_plot", ("svgplot.svg_bytes", _file_bytes)),
]

# methods wrapped on every class of the module that defines them
METHOD_SPANS = [("dropshock.droplet", "regular_fields", "droplet.regular_fields")]

# (module, attribute, ((counter name, amount per call or None for 1), ...))
COUNTERS = [
    ("dropshock.grh", "relax_velocity", (("core.relax_velocity_calls", None),)),
    # kinetic_flux runs once per FV step, on the n + 1 interfaces of n cells
    ("dropshock.fv", "kinetic_flux", (("fv.steps", None), ("fv.cell_steps", lambda args: len(args[0]) - 1))),
]


class Tracer:
    def __init__(self):
        self.spans = []  # [job, name, start, end, parent index]
        self.counts = {}  # job -> {counter name: amount during that job}
        self.job = 0
        self._cells = defaultdict(lambda: [0])  # running counter totals, one-element lists
        self._stack = []
        self._undo = []

    # -- recording
    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([self.job, name, perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][3] = perf_counter()
        self._stack.pop()

    def span(self, name, fn, measure=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if measure is not None:
                self._cells[measure[0]][0] += measure[1](args, kwargs, result)
            return result

        return wrapper

    def counter(self, amounts, fn):
        cells = [(self._cells[name], amount) for name, amount in amounts]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for cell, amount in cells:
                cell[0] += 1 if amount is None else amount(args)
            return fn(*args, **kwargs)

        return wrapper

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span opened by the benchmark itself."""
        return self.span(name, fn)(*args, **kwargs)

    def run_job(self, job, fn, *args):
        """Run one job under a root span named "job"; counters are kept per job."""
        self.job = job
        before = {name: cell[0] for name, cell in self._cells.items()}
        try:
            return self.call("job", fn, *args)
        finally:
            self.counts[job] = defaultdict(
                float, {name: cell[0] - before.get(name, 0) for name, cell in self._cells.items()})

    # -- patching
    def _patch(self, owner, attr, wrapped):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def install(self, counters=False):
        for module, attr, name, measure in SPANS:
            mod = importlib.import_module(module)
            self._patch(mod, attr, self.span(name, getattr(mod, attr), measure))
        for module, attr, name in METHOD_SPANS:
            mod = importlib.import_module(module)
            for cls in vars(mod).values():
                if inspect.isclass(cls) and cls.__module__ == module and attr in cls.__dict__:
                    self._patch(cls, attr, self.span(name, cls.__dict__[attr]))
        for module, attr, amounts in COUNTERS if counters else ():
            mod = importlib.import_module(module)
            self._patch(mod, attr, self.counter(amounts, getattr(mod, attr)))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- derived figures
    def self_times(self):
        """Each span's duration minus the part its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, _, start, end, _), c in zip(self.spans, child)]

    def job_times(self, job):
        """Per span name: (total duration, self duration) over one job's spans."""
        total, self_t = defaultdict(float), defaultdict(float)
        for (j, name, start, end, _), own in zip(self.spans, self.self_times()):
            if j == job:
                total[name] += end - start
                self_t[name] += own
        return total, self_t

    def write_spans(self, path):
        """One JSON object per line: job, id, name, start, end, parent, self_s."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, ((job, name, start, end, parent), own) in enumerate(zip(self.spans, self.self_times())):
                fh.write(json.dumps({"job": job, "id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "self_s": own}) + "\n")
