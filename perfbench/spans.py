"""Benchmark-side layer tracing.

A ``Tracer`` wraps the public functions of each package module and records
one span per call: ``[name, parent index, start, end]``.  A wrapper is
installed on every module attribute that refers to the original function,
because callers look functions up where they imported them
(``monotones.random_state``, ``counting.character``,
``lu_invariants.poly_jacobian``), not only where they are defined.  The
package source is never modified, and ``uninstall`` puts every replaced
attribute back.

Spans are kept in memory.  Calls made inside the pool workers of
``run_trials(..., workers=2)`` run in other processes, so their spans are
not collected; the ``run_trials`` span in the parent covers them as one
interval.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# module -> functions traced as layer boundaries
TARGETS = {
    "states": ["to_coords", "random_state", "load_state", "physicality"],
    "lu_invariants": ["low_degree_blocks", "quartic_blocks", "all_blocks",
                      "independence_test"],
    "lsl_qutrit": ["cubic_invariant", "sextic_invariant",
                   "cubic_expansion_residual"],
    "monotones": ["sample_measurement", "apply_measurement", "run_trials",
                  "scalar_inequality_scan"],
    "qubit": ["q_invariants", "expansion_residuals",
              "dependence_jacobian_rank"],
    "numdiff": ["poly_jacobian", "numerical_rank"],
    "symfunc": ["plethysm", "plethysm_series", "product_power_plethysm",
                "sun_modify"],
    "counting": ["count_lsl", "count_graded_quartics", "count_lu_mixed"],
    "cli": ["main"],
}

NAME, PARENT, START, END = range(4)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def _package_modules(self):
        prefix = self.package.__name__
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == prefix or n.startswith(prefix + "."))]

    def install(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = self._package_modules()
        for mod_name, names in TARGETS.items():
            home = sys.modules[f"{self.package.__name__}.{mod_name}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path):
        """Spans as JSON lines: name, parent index, start and end in seconds."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_totals(spans):
    """Per span name: (calls, total self seconds).  Self time is a span's
    duration minus the durations of its direct children; calls are
    single-threaded, so children never overlap."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    totals = {}
    for i, span in enumerate(spans):
        calls, self_s = totals.get(span[NAME], (0, 0.0))
        totals[span[NAME]] = (calls + 1, self_s + span[END] - span[START] - child[i])
    return totals


def top_level_seconds(spans):
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)


def children_of(spans, parent_name):
    """Number of spans whose direct parent is named ``parent_name``."""
    return sum(1 for s in spans
               if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == parent_name)
