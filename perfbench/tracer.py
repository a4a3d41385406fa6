"""Span tracing for the sketchls benchmark, installed from the benchmark's
own files and only while a traced phase runs.

sketchls modules import names directly (``from .linalg import gram``), so a
call from ``sketchls.solvers`` into ``gram`` resolves ``sketchls.solvers.gram``
at call time.  Each wrapper therefore patches the name in the *calling*
module; patching ``sketchls.linalg.gram`` alone would see nothing.

A span records its name, start, end, parent span and request.  A request is
one benchmark operation (a solve, an estimate, one CLI subcommand) or, inside
the harness's replication pool, one replication.  Spans opened in a pool
worker thread with no open span of their own attach to the span the main
thread has open, which is the enclosing ``run_*`` call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import statistics
import threading
import time
from collections import defaultdict
from typing import NamedTuple


def _trace_stats(trace):
    elapsed = trace.elapsed
    return {
        "iters": trace.iterations,
        "setup_s": trace.setup_seconds,
        "iter_s": statistics.median(elapsed) if elapsed else 0.0,
    }


def _nbytes(array):
    return {"bytes": array.nbytes}


SOLVER_ENTRY = {
    "ihs_solve": "ihs",
    "acc_ihs_solve": "acc-ihs",
    "pw_gradient_solve": "pw-gradient",
    "aopt_ihs_solve": "aopt-ihs",
}

#: (calling module, attribute, span name).  Every sketchls module that calls
#: into a layer is listed for each name it imports from that layer.
TARGETS = (
    [("sketchls", "make_dataset", "datagen.make_dataset"),
     ("sketchls.bench", "make_dataset", "datagen.make_dataset")]
    + [(mod, fn, f"sketch.{fn}")
       for mod, fns in (("sketchls", ("srht_apply", "leverage_sample")),
                        ("sketchls.bench", ("srht_apply", "leverage_sample")),
                        ("sketchls.sketch", ("srht_apply", "leverage_sample", "aopt_select")),
                        ("sketchls.solvers", ("draw_sketch", "aopt_select")))
       for fn in fns]
    + [(mod, fn, f"linalg.{fn}")
       for mod, fns in (("sketchls.solvers", ("gram", "cholesky", "solve_spd", "sym_eigvals")),
                        ("sketchls.precond", ("gram", "cholesky", "solve_spd", "sym_eigvals")),
                        ("sketchls.bench", ("gram",)),
                        ("sketchls.linalg", ("sym_eigvals",)))
       for fn in fns]
    + [(mod, fn, "linalg.validate")
       for mod, fns in (("sketchls.linalg", ("as_matrix", "as_vector")),
                        ("sketchls.solvers", ("as_matrix", "as_vector")),
                        ("sketchls.sketch", ("as_matrix", "as_vector")),
                        ("sketchls.datagen", ("as_matrix", "as_vector")),
                        ("sketchls.precond", ("as_matrix",)))
       for fn in fns]
    + [("sketchls.solvers", "build_m", "precond.build_m"),
       ("sketchls.bench", "build_m", "precond.build_m"),
       ("sketchls.bench", "delta_measure", "precond.delta"),
       ("sketchls.bench", "delta_from_matrix", "precond.delta")]
    + [(mod, fn, f"solvers.{fn}")
       for mod in ("sketchls", "sketchls.bench")
       for fn in tuple(SOLVER_ENTRY) + ("cs_estimate", "aopt_cs_estimate")]
    + [("sketchls.bench", "preconditioned_descent", "solvers.preconditioned_descent"),
       ("sketchls.solvers", "full_ls", "solvers.full_ls"),
       ("sketchls.solvers", "aopt_cs_estimate", "solvers.aopt_cs_estimate"),
       ("sketchls.solvers", "preconditioned_descent", "solvers.preconditioned_descent")]
    + [("sketchls.cli", "run_convergence", "bench.converge"),
       ("sketchls.cli", "run_delta_table", "bench.delta"),
       ("sketchls.cli", "run_ridge_ablation", "bench.ridge"),
       ("sketchls.cli", "lambda_sweep", "bench.lambda_sweep"),
       ("sketchls.cli", "main", "cli.main")]
)

#: what a wrapper keeps from a call's result
_EXTRACT = {"linalg.validate": _nbytes}
_EXTRACT.update({f"solvers.{fn}": _trace_stats for fn in SOLVER_ENTRY})

#: the span that starts a new request when opened in a pool worker: every
#: harness replication begins by generating its dataset
_REQUEST_START = "datagen.make_dataset"


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int
    request: int
    worker: bool
    extra: dict | None


class Tracer:
    """Collects spans in memory; :meth:`install` patches the targets.

    Pool workers share ``spans`` and the id counters without a lock: each
    update is one ``list.append`` or ``next`` on an ``itertools.count``, a
    single call that CPython's interpreter lock makes atomic.  Each thread
    keeps its own stack of open spans.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.request = 0
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patched: list[tuple] = []
        self.active = True

    def new_request(self) -> int:
        return next(self._requests)

    def _open(self, name):
        if threading.get_ident() == self._main:
            stack = self._main_stack
            parent = stack[-1] if stack else 0
            request = self.request
        else:
            stack = self._local.__dict__.setdefault("stack", [])
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else 0
                if name == _REQUEST_START:
                    self._local.request = self.new_request()
            request = getattr(self._local, "request", self.request)
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent, request

    def _close(self, stack, sid, name, start, parent, request, extra):
        end = time.perf_counter()
        stack.pop()
        self.spans.append(Span(sid, name, start, end, parent, request,
                               stack is not self._main_stack, extra))

    def wrap(self, name, fn):
        extract = _EXTRACT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack, sid, parent, request = self._open(name)
            start = time.perf_counter()
            extra = None
            try:
                out = fn(*args, **kwargs)
                if extract is not None:
                    extra = extract(out)
                return out
            finally:
                self._close(stack, sid, name, start, parent, request, extra)

        return traced

    @contextlib.contextmanager
    def op(self, name):
        """One benchmark operation: a new request with root span ``op.<name>``."""
        self.request = self.new_request()
        stack, sid, parent, request = self._open(f"op.{name}")
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(stack, sid, f"op.{name}", start, parent, request, None)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (warm-up calls)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def install(self) -> list[str]:
        """Patch every target; return the targets that no longer exist."""
        missing = []
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                missing.append(f"{module_name}.{attr}")
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn))
        return missing

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def _covered(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanTree:
    """Parent/child index over one round's spans, with self times."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s.sid: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            if s.parent in self.by_id:
                self.children[s.parent].append(s)
        self.self_s = {}
        for s in spans:
            kids = [(max(c.start, s.start), min(c.end, s.end)) for c in self.children[s.sid]]
            self.self_s[s.sid] = (s.end - s.start) - _covered(k for k in kids if k[1] > k[0])

    def has_ancestor(self, span, pred) -> bool:
        parent = self.by_id.get(span.parent)
        while parent is not None:
            if pred(parent):
                return True
            parent = self.by_id.get(parent.parent)
        return False

    def outermost(self, spans, pred):
        """Spans matching ``pred`` that are not nested in another match."""
        return [s for s in spans if pred(s) and not self.has_ancestor(s, pred)]

    def subtree(self, root):
        out, todo = [], [root]
        while todo:
            span = todo.pop()
            out.append(span)
            todo.extend(self.children[span.sid])
        return out
