"""Outside-in tracing of slopenorm's public functions.

The tracer replaces each traced function with a timing wrapper, from the
benchmark's side; the library itself is not edited.  Three things make the
counts right:

- A function is replaced under every name that any ``slopenorm`` module
  binds it to, because modules import each other's functions by name
  (``verify`` binds ``enumerate_slopes`` and ``cmp_sqrt3``, ``cli`` binds
  ``load`` and the verifiers).  The benchmark itself calls every layer
  through its module attribute, so it sees the wrappers too.
- ``enumerate_slopes`` is a generator; each ``next()`` is timed and counted
  as one slope, not the call that creates the generator.
- Calls made once per slope (``leaf``) are not recorded as spans.  Their
  count and time are added to the enclosing span instead, since a
  range-1000 sweep makes over a million of them.

Spans are kept in memory and written out by the caller when the run ends.
Self time is a call's duration minus the time spent in traced calls it made.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from collections import Counter

# (metric prefix, module, attribute path, kind); kind is "span", "leaf" or "gen".
LAYERS = (
    ("slopes.enumerate_slopes", "slopes", "enumerate_slopes", "gen"),
    ("slopes.Slope.new", "slopes", "Slope.__init__", "leaf"),
    ("slopes.Slope.parse", "slopes", "Slope.parse", "leaf"),
    ("cusp.CuspLattice.new", "cusp", "CuspLattice.__init__", "span"),
    ("cusp.CuspLattice.squared_length", "cusp", "CuspLattice.squared_length", "leaf"),
    ("cusp.CuspLattice.systole_squared", "cusp", "CuspLattice.systole_squared", "span"),
    ("cusp.CuspLattice.agol_check", "cusp", "CuspLattice.agol_check", "span"),
    ("cusp.cmp_sqrt3", "cusp", "cmp_sqrt3", "leaf"),
    ("norm.CSNormData.new", "norm", "CSNormData.__init__", "span"),
    ("norm.CSNormData.evaluate", "norm", "CSNormData.evaluate", "leaf"),
    ("norm.CSNormData.unit_ball_vertices", "norm", "CSNormData.unit_ball_vertices", "span"),
    ("norm.CSNormData.min_norm_nontrivial", "norm", "CSNormData.min_norm_nontrivial", "span"),
    ("manifold.load", "manifold", "load", "span"),
    ("manifold.save", "manifold", "save", "span"),
    ("manifold.from_document", "manifold", "from_document", "span"),
    ("manifold.to_document", "manifold", "to_document", "span"),
    ("verify.sweep_norm_vs_length", "verify", "sweep_norm_vs_length", "span"),
    ("verify.standard_reports", "verify", "standard_reports", "span"),
    ("verify.verify_norm_ge_length", "verify", "verify_norm_ge_length", "span"),
    ("verify.verify_thm_length_norm", "verify", "verify_thm_length_norm", "span"),
    ("verify.verify_prop_length", "verify", "verify_prop_length", "span"),
    ("verify.verify_prop_norm", "verify", "verify_prop_norm", "span"),
    ("verify.verify_thm_diam", "verify", "verify_thm_diam", "span"),
    ("verify.verify_cor_ubdiam", "verify", "verify_cor_ubdiam", "span"),
    ("verify.prop4_hypothesis", "verify", "prop4_hypothesis", "span"),
    ("verify.prop6_condition", "verify", "prop6_condition", "span"),
    ("verify.corollary_euler", "verify", "corollary_euler", "span"),
    ("families.fig8_dataset", "families", "fig8_dataset", "span"),
    ("families.pretzel_dataset", "families", "pretzel_dataset", "span"),
    ("families.twobridge_dataset", "families", "twobridge_dataset", "span"),
    ("cli.run", "cli", "run", "span"),
)

REPORT_STATUSES = ("holds", "equality", "fails", "not-applicable")

COUNTERS = (
    "manifold.bytes_read",
    "manifold.bytes_written",
    "manifold.maximal_loads",
    "cusp.systole_in_load",
    "slopes.slopes_verified",
) + tuple(f"verify.reports.{s}" for s in REPORT_STATUSES)


class Tracer:
    """Per-name call counts and times, plus the spans of one traced pass."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []  # (request, id, parent, name, start, end, leaves)
        self.request = None
        self.open_spans: Counter = Counter()  # name -> calls still running
        # frame: [time in traced children, leaf totals of the enclosing span, span id]
        self._stack: list[list] = [[0.0, {}, 0]]
        self._next_id = 0

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.counters.clear()
        self.spans.clear()
        self.open_spans.clear()
        del self._stack[1:]
        self._stack[0][:] = [0.0, {}, 0]
        self._next_id = 0

    def span(self, name: str, fn, after=None):
        stack, opened, perf = self._stack, self.open_spans, time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            self._next_id += 1
            frame = [0.0, {}, self._next_id]
            stack.append(frame)
            opened[name] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                opened[name] -= 1
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                parent[0] += elapsed
                self.spans.append((self.request, frame[2], parent[2], name, start, end, frame[1]))
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        stack, perf = self._stack, time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1], parent[2]]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                _add_leaf(stat, name, frame, parent, elapsed, 1)

        return wrapper

    def leaf_generator(self, name: str, fn):
        stack, perf = self._stack, time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                parent = stack[-1]
                frame = [0.0, parent[1], parent[2]]
                stack.append(frame)
                start = perf()
                done = False
                try:
                    item = next(items)
                except StopIteration:
                    done = True
                finally:
                    elapsed = perf() - start
                    stack.pop()
                    _add_leaf(stat, name, frame, parent, elapsed, 0 if done else 1)
                if done:
                    return
                yield item

        return wrapper

    @contextlib.contextmanager
    def installed(self, package):
        """Replace every traced function of ``package`` while the block runs."""
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]
        undo = []
        try:
            for name, module, path, kind in LAYERS:
                owner = getattr(package, module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                if kind == "gen":
                    wrapped = self.leaf_generator(name, fn)
                elif kind == "leaf":
                    wrapped = self.leaf(name, fn)
                else:
                    wrapped = self.span(name, fn, AFTER.get(name))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                if isinstance(owner, type):
                    undo.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            undo.append((mod, key, raw))
                            setattr(mod, key, wrapped)
            report_cls = package.verify.VerifyReport
            init = report_cls.__init__

            def counted_init(report, *args, **kwargs):
                init(report, *args, **kwargs)
                self.counters["verify.reports." + report.status] += 1

            undo.append((report_cls, "__init__", init))
            report_cls.__init__ = counted_init
            yield self
        finally:
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)


def _add_leaf(stat, name, frame, parent, elapsed, count) -> None:
    stat[0] += count
    stat[1] += elapsed
    stat[2] += elapsed - frame[0]
    parent[0] += elapsed
    total = frame[1].get(name)
    if total is None:
        frame[1][name] = [count, elapsed]
    else:
        total[0] += count
        total[1] += elapsed


def _after_load(tracer, args, result) -> None:
    tracer.counters["manifold.bytes_read"] += os.path.getsize(args[0])
    if result.cusp is not None and result.cusp.maximal:
        tracer.counters["manifold.maximal_loads"] += 1


def _after_save(tracer, args, result) -> None:
    tracer.counters["manifold.bytes_written"] += os.path.getsize(args[1])


def _after_systole(tracer, args, result) -> None:
    if tracer.open_spans["manifold.load"]:
        tracer.counters["cusp.systole_in_load"] += 1


def _after_sweep(tracer, args, result) -> None:
    # lhs reads "passed/total slopes"; a not-applicable report has none
    _, _, rest = result.lhs.partition("/")
    if rest:
        tracer.counters["slopes.slopes_verified"] += int(rest.split()[0])


AFTER = {
    "manifold.load": _after_load,
    "manifold.save": _after_save,
    "cusp.CuspLattice.systole_squared": _after_systole,
    "verify.sweep_norm_vs_length": _after_sweep,
}
