"""Outside-in tracer for the filippov benchmark.

The tracer wraps the public functions of each layer from outside the
package: every binding of a wrapped function in a ``filippov`` module is
replaced where its caller looks it up (``filippov.cycles.displacement`` and
``filippov.flow.displacement`` are separate bindings of one function),
``solve_ivp`` is wrapped as bound in ``filippov.flow``, and ``Poly2.eval``
is wrapped on the class.  Nothing under ``src/`` changes.

Layer calls become spans ``(name, start, end, parent, op)``; ``Poly2.eval``
and dense-output calls are too many for spans and only bump counters.  The
program is single-threaded, so a plain stack gives each span its parent and
no span waits in a queue.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

import filippov.cli  # noqa: F401  (loads every layer)
from filippov.errors import FilippovError
from filippov.poly import Poly2

# (defining module, function) -> span name
SPANS = {
    ("filippov.field", "classify_mts"): "field.classify_mts",
    ("filippov.field", "sigma_regions"): "field.sigma_regions",
    ("filippov.unfold", "build_perturbation"): "unfold.build_perturbation",
    ("filippov.unfold", "apply_shift"): "unfold.apply_shift",
    ("filippov.unfold", "lemma1_check"): "unfold.lemma1_check",
    ("filippov.unfold", "verify_contact_ladder"): "unfold.verify_contact_ladder",
    ("filippov.unfold", "local_V2_limit_check"): "unfold.local_V2_limit_check",
    ("filippov.flow", "integrate_to_sigma"): "flow.arc",
    ("filippov.flow", "displacement"): "flow.displacement",
    ("filippov.flow", "estimate_lyapunov"): "flow.estimate_lyapunov",
    ("filippov.cycles", "find_cycles_local"): "cycles.find_cycles_local",
    ("filippov.cycles", "cycle_census"): "cycles.cycle_census",
    ("filippov.cycles", "pseudo_hopf_scan"): "cycles.pseudo_hopf_scan",
    ("filippov.cli", "run"): "cli.run",
    ("filippov.scenario", "load_scenario"): "scenario.load_scenario",
}


class Tracer:
    """Spans and per-operation counters of one traced run."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}  # op -> Counter of integer counts
        self.poly_s: Counter = Counter()  # op -> seconds inside Poly2.eval
        self.op = None
        self._cur = Counter()
        self._stack: list = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def begin_op(self, op: str) -> None:
        self.op = op
        self._cur = self.counts.setdefault(op, Counter())

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _call(self, name, fn, args, kwargs, on_result=None, on_error=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self._cur[f"{name}.errors.{type(exc).__name__}"] += 1
            if on_error is not None:
                on_error(exc)
            raise
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()
        if on_result is not None:
            on_result(result)
        return result

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, on_result=None, on_error=None):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return self._call(name, fn, args, kwargs, on_result, on_error)
        return wrapped

    def _solve_ivp(self, fn):
        def on_result(res):
            cur = self._cur
            cur["flow.rhs_evals"] += int(res.nfev)
            cur["flow.steps"] += len(res.t) - 1
            dense = res.sol
            if dense is not None:
                def counted(t):
                    cur["flow.dense_evals"] += 1
                    return dense(t)
                res.sol = counted
        return self._span("flow.solve_ivp", fn, on_result)

    def _cycles_displacement(self, fn):
        """``displacement`` as bound in ``filippov.cycles``: sorts each call
        into the window scan or the visible-window scan of a census."""
        def wrapped(*args, **kwargs):
            if self._inside("cycles.find_cycles_local"):
                self._cur["cycles.window_displacements"] += 1
            elif self._inside("cycles.cycle_census"):
                self._cur["cycles.visible_displacements"] += 1
            return self._call("flow.displacement", fn, args, kwargs,
                              on_error=on_error)

        def on_error(exc):
            if isinstance(exc, FilippovError):
                self._cur["cycles.failed_samples"] += 1
        return functools.wraps(fn)(wrapped)

    def _find_cycles(self, fn):
        def on_result(cycles):
            self._cur["cycles.cycles_found"] += len(cycles)
        return self._span("cycles.find_cycles_local", fn, on_result)

    def _arc(self, fn):
        def on_error(exc):
            self._cur[f"flow.arc_failures.{type(exc).__name__}"] += 1
        return self._span("flow.arc", fn, on_error=on_error)

    def _poly_eval(self, fn):
        def eval_(poly, x, y):
            t0 = perf_counter()
            try:
                return fn(poly, x, y)
            finally:
                self.poly_s[self.op] += perf_counter() - t0
                self._cur["poly.eval.calls"] += 1
        return functools.wraps(fn)(eval_)

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of the traced functions in loaded filippov
        modules.  Undone by :meth:`remove`."""
        spans = {getattr(sys.modules[mod], fn): span
                 for (mod, fn), span in SPANS.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "filippov" and not mod_name.startswith("filippov."):
                continue
            for name, value in list(vars(module).items()):
                span = spans.get(value) if callable(value) else None
                if span is not None:
                    self._patch(module, name, self._wrap(span, value, mod_name))
        flow = sys.modules["filippov.flow"]
        self._patch(flow, "solve_ivp", self._solve_ivp(flow.solve_ivp))
        self._patch(Poly2, "eval", self._poly_eval(Poly2.eval))

    def _wrap(self, span, fn, binding):
        if span == "flow.arc":
            return self._arc(fn)
        if span == "cycles.find_cycles_local":
            return self._find_cycles(fn)
        if span == "flow.displacement" and binding == "filippov.cycles":
            return self._cycles_displacement(fn)
        return self._span(span, fn)

    def _patch(self, owner, name, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def remove(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- summaries ---------------------------------------------------------

    def pass_summary(self, ops) -> tuple:
        """Integer counts, span seconds and span self seconds summed over
        the given op ids."""
        counts = Counter()
        for op in ops:
            counts.update(self.counts.get(op, Counter()))
        wanted = set(ops)
        durations = Counter()
        self_s = Counter()
        for span in self.spans:
            if span[4] not in wanted:
                continue
            took = span[2] - span[1]
            counts[span[0] + ".calls"] += 1
            durations[span[0]] += took
            self_s[span[0]] += took
            if span[3] is not None:
                self_s[self.spans[span[3]][0]] -= took
        durations["poly.eval"] = sum(self.poly_s[op] for op in ops)
        return counts, durations, self_s
