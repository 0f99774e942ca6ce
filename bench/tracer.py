"""Per-layer tracing of betakotz from outside the program.

`Tracer.install()` replaces every public function of the six layer
modules with a timing wrapper.  betakotz imports functions by name
(`risk` calls its own `cdf`, `credit` calls `risk.report`), so the
wrapper goes into every `betakotz` module attribute that holds the
original: `betakotz.risk.cdf`, `betakotz.distribution.reg_inc_beta`,
`betakotz.report` and so on.  `probe()` checks that nothing escaped, by
counting calls with `sys.setprofile` as well.

Each call is a span with an id, its parent's id, the op it belongs to,
its name, and start and end times.  Spans are kept in memory (up to a
cap) and written out when the run ends.  A layer's self time is its
spans' durations minus the time of their child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import warnings
from collections import Counter
from time import perf_counter_ns

LAYERS = ("specfun", "distribution", "risk", "estimation", "credit", "cli")
SPAN_CAP = 100_000


def layer_functions():
    """{(layer, name): function} for the public functions of each layer."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"betakotz.{layer}"]
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                found[(layer, name)] = obj
    return found


class Tracer:
    def __init__(self, span_cap=SPAN_CAP):
        __import__("betakotz.cli")  # every layer module is loaded
        self.functions = layer_functions()
        self.layer_of_file = {
            sys.modules[f"betakotz.{layer}"].__file__: layer for layer in LAYERS
        }
        self.calls = Counter()      # "layer.name" -> calls
        self.busy_ns = Counter()    # "layer.name" -> time inside, outermost only
        self.self_ns = Counter()    # layer (or "bench") -> self time
        self.errors = Counter()     # "layer.errors.Type" -> count
        self.warnings = Counter()   # "layer.runtime_warnings" -> count
        self.fit_iterations = 0
        self.rows_parsed = 0
        self.ops = 0
        self.spans = []
        self.spans_dropped = 0
        self.span_cap = span_cap
        self._names = []
        self._stack = []
        self._next_id = 0
        self._last_error = None
        self._patches = []
        self._wrappers = {
            key: self._wrap(key, fn) for key, fn in self.functions.items()
        }

    # -- patching ----------------------------------------------------------

    def install(self):
        by_id = {id(fn): self._wrappers[key]
                 for key, fn in self.functions.items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "betakotz"
                                      or mod_name.startswith("betakotz.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans -------------------------------------------------------------

    def _wrap(self, key, fn):
        layer, name = key
        label = f"{layer}.{name}"
        name_index = len(self._names)
        self._names.append(label)
        tracer = self
        calls, busy, self_ns = self.calls, self.busy_ns, self.self_ns
        depth = [0]
        note_result = {
            "fit_mle": self._note_fit, "read_portfolio_csv": self._note_rows,
        }.get(name) if layer in ("estimation", "credit") else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[label] += 1
            stack = tracer._stack
            parent = stack[-1]
            span_id = tracer._next_id = tracer._next_id + 1
            frame = [span_id, 0]
            stack.append(frame)
            depth[0] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not tracer._last_error:  # innermost layer raised it
                    tracer._last_error = exc
                    tracer.errors[f"{layer}.errors.{type(exc).__name__}"] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                depth[0] -= 1
                elapsed = end - start
                parent[1] += elapsed
                self_ns[layer] += elapsed - frame[1]
                if depth[0] == 0:
                    busy[label] += elapsed
                tracer._record(span_id, parent[0], name_index, start, end)
            if note_result is not None:
                note_result(result)
            return result

        return wrapper

    def _note_fit(self, result):
        self.fit_iterations += result.iterations

    def _note_rows(self, result):
        self.rows_parsed += len(result)

    def _record(self, span_id, parent_id, name_index, start, end):
        if len(self.spans) < self.span_cap:
            self.spans.append((span_id, parent_id, self.ops, name_index,
                               start, end))
        else:
            self.spans_dropped += 1

    def run_op(self, op, inp):
        """Run one op as a root span; returns op's result or raises."""
        self.ops += 1
        self._next_id += 1
        root = [self._next_id, 0]
        self._stack.append(root)
        start = perf_counter_ns()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                return op(inp)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.self_ns["bench"] += end - start - root[1]
            self._record(root[0], 0, -1, start, end)
            for w in caught:
                layer = self.layer_of_file.get(w.filename, "other")
                self.warnings[f"{layer}.runtime_warnings"] += 1

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,parent,op,name,start_ns,end_ns\n")
            for span_id, parent, op, index, start, end in self.spans:
                name = "op" if index < 0 else self._names[index]
                out.write(f"{span_id},{parent},{op},{name},{start},{end}\n")

    # -- completeness check -------------------------------------------------

    def probe(self, op, inp):
        """Run `op(inp)` traced, counting calls both through the wrappers
        and through `sys.setprofile`.  Returns ({label: wrapper calls},
        calls that reached an original function without its wrapper)."""
        probe = Tracer(span_cap=0)
        codes = {fn.__code__: f"{layer}.{name}"
                 for (layer, name), fn in probe.functions.items()}
        seen = Counter()

        def profile(frame, event, arg):
            if event == "call":
                label = codes.get(frame.f_code)
                if label is not None:
                    seen[label] += 1

        with probe:
            sys.setprofile(profile)
            try:
                probe.run_op(op, inp)
            finally:
                sys.setprofile(None)
        missed = sum(abs(seen[k] - probe.calls[k]) for k in seen | probe.calls)
        return dict(probe.calls), missed
