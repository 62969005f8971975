"""In-process spans around the calls into each layer of mldeg.

install() wraps the listed functions and rebinds every module-level
name in mldeg that refers to one of them, so calls made through
``from .lascoux import psi`` are traced too.  A span is the tuple

    (id, parent id, name, start, end, outermost, extra)

where ``outermost`` is false for a call nested in another call of the
same function, and ``extra`` is a per-function detail (the set for
psi calls made while fitting a phi polynomial, the number of items of
a degree sum, the number of sets enumerated).  Spans stay in memory
until the process writes them out.

Pool workers are forked with the wrappers in place.  A check task
sends the spans it recorded back inside its result, where the suite's
wrapper files them under one span per task, so check suites are traced
at any --jobs.  The closed-form sums that cli pools keep their spans in
the worker.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time

TARGETS = {
    "indexsets": ("enumerate_indexsets",),
    "exact": ("det", "pfaffian"),
    "lascoux": ("psi", "psi_complement", "alpha", "alpha_complement", "d_a",
                "d_a_complement", "psi_pascal", "psi_recursion", "d_a_recursion"),
    "qschur": ("b_value", "d_value"),
    "degrees": ("delta_sym_partial", "delta_type_a_partial", "delta_type_d_partial",
                "delta_sym_nrs_partial", "delta_type_a_nrs_partial",
                "delta_type_d_nrs_partial", "a_value", "phi_sym", "phi_type_a",
                "phi_type_d"),
    "poly_n": ("phi_poly", "interpolate"),
    "schur_oracle": ("psi_oracle", "alpha_oracle", "d_oracle"),
    "checks": ("run_suite",),
}

GENERATORS = {"indexsets.enumerate_indexsets"}

TASK_SPANS = "_perfbench_task_spans"


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self._ids = itertools.count(1)
        self._stack = [0]
        self._active = {}

    def _enter(self, name):
        sid = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(sid)
        depth = self._active.get(name, 0)
        self._active[name] = depth + 1
        return sid, parent, depth == 0

    def _leave(self, name):
        self._stack.pop()
        self._active[name] -= 1

    def _extra(self, name, args, result):
        if name == "lascoux.psi":
            return tuple(args[0]) if self._active.get("poly_n.phi_poly") else None
        if name.endswith("_partial"):
            return len(args[1])
        if name in GENERATORS and result is not None:
            return len(result)
        return None

    def wrap(self, name, fn):
        perf = time.perf_counter
        generator = name in GENERATORS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, outer = self._enter(name)
            start = perf()
            result = None
            try:
                result = fn(*args, **kwargs)
                if generator:
                    result = list(result)
                return iter(result) if generator else result
            finally:
                end = perf()
                self._leave(name)
                self.spans.append((sid, parent, name, start, end, outer,
                                   self._extra(name, args, result)))

        return wrapper

    def wrap_suite(self, fn):
        """run_suite span, plus each task's span and the spans inside it."""
        inner = self.wrap("checks.run_suite", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            results, failures = inner(*args, **kwargs)
            suite_id = self.spans[-1][0]
            for result in results:
                start, end, task_spans = result.pop(TASK_SPANS)
                task_id = next(self._ids)
                # Ids from a forked worker may clash with ours: renumber.
                ids = {span[0]: next(self._ids) for span in task_spans}
                for sid, parent, name, t0, t1, outer, extra in task_spans:
                    self.spans.append((ids[sid], ids.get(parent, task_id), name,
                                       t0, t1, outer, extra))
                self.spans.append((task_id, suite_id, "checks.task", start, end,
                                   True, None))
            return results, failures

        return wrapper

    def wrap_task(self, fn):
        """run_task that returns its time and its spans with its result."""
        @functools.wraps(fn)
        def wrapper(task):
            mark = len(self.spans)
            start = time.perf_counter()
            result = dict(fn(task))
            result[TASK_SPANS] = (start, time.perf_counter(), self.spans[mark:])
            del self.spans[mark:]
            return result

        return wrapper


def install():
    """Wrap every target in the imported mldeg modules; returns the tracer."""
    tracer = Tracer()
    modules = [m for name, m in sys.modules.items()
               if name == "mldeg" or name.startswith("mldeg.")]
    swaps = {}
    for module_name, names in TARGETS.items():
        module = sys.modules.get(f"mldeg.{module_name}")
        for name in names:
            fn = getattr(module, name, None)
            if fn is None:
                tracer.missing.append(f"{module_name}.{name}")
                continue
            span_name = f"{module_name}.{name}"
            if span_name == "checks.run_suite":
                swaps[id(fn)] = tracer.wrap_suite(fn)
            else:
                swaps[id(fn)] = tracer.wrap(span_name, fn)
    task_fn = getattr(sys.modules.get("mldeg.checks"), "run_task", None)
    if task_fn is None:
        tracer.missing.append("checks.run_task")
    else:
        swaps[id(task_fn)] = tracer.wrap_task(task_fn)
    # Rebind module globals, and dispatch tables such as poly_n._PHI_FN.
    for module in modules:
        for attr, value in list(vars(module).items()):
            if callable(value) and id(value) in swaps:
                setattr(module, attr, swaps[id(value)])
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if callable(entry) and id(entry) in swaps:
                        value[key] = swaps[id(entry)]
    return tracer
