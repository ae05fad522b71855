"""Spans and counters recorded from outside goodfun.

``Tracer.install`` replaces each traced public function in every loaded
``goodfun`` module that refers to it, so callers that imported the name
(``goodfun.zeros.eval_H``, ``goodfun.calibrate.integrate_finite``, ...)
reach the wrapper.  ``uninstall`` puts the originals back.

A span is ``(name, start, end, parent, op)``: perf_counter seconds, the
index of the enclosing span (-1 at the top) and the id of the benchmark op
that caused it.  Spans stay in memory until ``write``.

The quadrature wrappers also count integrand evaluations ("fevals") by
wrapping the ``Integrand.fn`` handed to ``integrate_finite`` and
``integrate_tail``, and add up the panels and unconverged results.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

import numpy as np

# (home module, attribute): the public functions whose calls become spans
TRACED: Tuple[Tuple[str, str], ...] = (
    ("goodfun.quadrature", "integrate_finite"),
    ("goodfun.quadrature", "integrate_tail"),
    ("goodfun.good", "eval_H"),
    ("goodfun.regimes", "h_approx"),
    ("goodfun.regimes", "cubic_tail"),
    ("goodfun.anger", "anger_J"),
    ("goodfun.phase", "two_term_expansion"),
    ("goodfun.zeros", "find_zeros"),
    ("goodfun.calibrate", "calibrate"),
    ("goodfun.calibrate", "good_amplitude_problem"),
    ("goodfun.calibrate", "sweep_anger_diag"),
    ("goodfun.calibrate", "sweep_anger_reflected"),
    ("goodfun.calibrate", "sweep_anger_shifted"),
    ("goodfun.calibrate", "sweep_phase_engine"),
    ("goodfun.calibrate", "sweep_h_large"),
    ("goodfun.calibrate", "sweep_h_small"),
    ("goodfun.constants", "load_constants"),
)

SWEEPS = ("sweep_anger_diag", "sweep_anger_reflected", "sweep_anger_shifted",
          "sweep_phase_engine", "sweep_h_large", "sweep_h_small",
          "good_amplitude_problem")

_QUAD = ("quadrature.integrate_finite", "quadrature.integrate_tail")


def _span_name(module: str, attr: str) -> str:
    return f"{module.split('.', 1)[1]}.{attr}"


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, Callable]] = []

    # -- recording -----------------------------------------------------
    def span(self, name: str, fn: Callable, *args, **kwargs):
        idx = len(self.spans)
        entry = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self.spans.append(entry)
        self._stack.append(idx)
        entry[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            entry[2] = time.perf_counter()
            self._stack.pop()

    def _counted(self, fn: Callable) -> Callable:
        counts = self.counts

        def counted(t):
            counts["fevals"] += np.size(t)
            return fn(t)

        return counted

    def _wrapper(self, name: str, orig: Callable) -> Callable:
        if name in _QUAD:
            def wrapper(f, *args, **kwargs):
                f = type(f)(self._counted(f.fn), f.osc_frequency, f.hot_spots)
                res = self.span(name, orig, f, *args, **kwargs)
                self.counts["panels"] += res.panels
                self.counts["unconverged"] += not res.converged
                return res
        elif name == "zeros.find_zeros":
            def wrapper(*args, **kwargs):
                records = self.span(name, orig, *args, **kwargs)
                self.counts["zeros_found"] += len(records)
                return records
        else:
            def wrapper(*args, **kwargs):
                return self.span(name, orig, *args, **kwargs)
        wrapper.__wrapped__ = orig
        return wrapper

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        homes = {home: importlib.import_module(home) for home, _ in TRACED}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "goodfun" or n.startswith("goodfun."))]
        for home, attr in TRACED:
            orig = getattr(homes[home], attr)
            wrapper = self._wrapper(_span_name(home, attr), orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    # -- reporting -------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Calls, busy time and self time per span name, plus child counts.

        Self time is busy time minus the part covered by direct child
        spans; "parent>child" keys count direct children by name.  No
        traced function calls itself, so busy times never double count.
        """
        busy: Dict[str, float] = defaultdict(float)
        child: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        children_by_name: Dict[Tuple[str, str], int] = Counter()
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            dur = end - start
            if parent >= 0:
                pname = self.spans[parent][0]
                child[pname] += dur
                children_by_name[(pname, name)] += 1
            busy[name] += dur
        out: Dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = busy[name] - child[name]
        for (pname, name), n in children_by_name.items():
            out[f"{pname}>{name}"] = n
        return out

    def write(self, path, env: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
