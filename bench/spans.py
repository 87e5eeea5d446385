"""Span recorder that wraps the engine's public functions from outside.

The engine carries no tracing of its own, so the benchmark rebinds chosen
functions and methods to timing wrappers for the length of a traced pass.
Each call becomes a span (name, parent span, start, end) kept in flat
in-memory arrays until the run writes them out; counters computed from
call arguments and results sit beside them.  `restore()` puts every
original back.

Three rebinding rules keep the wrappers complete:

* a function is rebound under every name that refers to it in any
  `equichow` module, so `from .x import y` copies are caught too;
* a method is rebound under every class attribute that holds it
  (`Poly.__mul__` and its alias `Poly.__rmul__` are one function);
* spans are keyed by the wrapped object, never by its bare name, so
  `RingPresentation.normal_form` and `groebner.normal_form` stay apart.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Callable, Dict, List, Optional

Counter = Callable[[Dict[str, float], tuple, dict, object], None]

ROOT_PARENT = -1


class Recording:
    """Spans and counters of one traced pass."""

    def __init__(self, names: List[str]):
        self.names = names
        self.parent = array("q")
        self.code = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Dict[str, float] = {}

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, so it is the time spent in that layer's own code."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p != ROOT_PARENT:
                child[p] += end[i] - start[i]
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for i in range(n):
            row = out[self.names[self.code[i]]]
            duration = end[i] - start[i]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child[i]
        return out

    def write(self, fh, label: str):
        """Write the spans as TSV rows: label, id, parent, name, start, end
        (seconds on the perf_counter clock)."""
        names = self.names
        for i in range(len(self.start)):
            fh.write(
                f"{label}\t{i}\t{self.parent[i]}\t{names[self.code[i]]}\t"
                f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
            )


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._name_code: Dict[str, int] = {}
        self._patches: List[tuple] = []
        self.missing: List[str] = []
        self.rec = Recording(self.names)
        self._stack = [ROOT_PARENT]

    def take(self) -> Recording:
        """Hand over what was recorded so far and start a fresh recording."""
        rec, self.rec = self.rec, Recording(self.names)
        self._stack = [ROOT_PARENT]
        return rec

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name: Optional[str], counter: Optional[Counter]):
        tracer = self
        if name is None:

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counter(tracer.rec.counts, args, kwargs, result)
                return result

            return counted

        code = self._name_code.setdefault(name, len(self.names))
        if code == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            rec, stack = tracer.rec, tracer._stack
            idx = len(rec.start)
            rec.parent.append(stack[-1])
            rec.code.append(code)
            rec.start.append(0.0)
            rec.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec.start[idx] = t0
                rec.end[idx] = t1
            if counter is not None:
                counter(rec.counts, args, kwargs, result)
            return result

        return spanned

    def wrap_function(
        self,
        module: str,
        attr: str,
        name: Optional[str],
        counter: Optional[Counter] = None,
    ):
        """Rebind module.attr, and every alias of it in any engine module.

        `name=None` records counters only, with no span."""
        owner = sys.modules.get(module)
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = self._wrap(original, name, counter)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("equichow"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def wrap_method(
        self,
        cls: type,
        attr: str,
        name: Optional[str],
        counter: Optional[Counter] = None,
    ):
        """Rebind cls.attr and every other attribute of cls bound to the
        same function (for example `__rmul__ = __mul__`)."""
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{cls.__module__}.{cls.__name__}.{attr}")
            return
        wrapper = self._wrap(original, name, counter)
        for key, value in list(cls.__dict__.items()):
            if value is original:
                setattr(cls, key, wrapper)
                self._patches.append((cls, key, original))

    def restore(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
