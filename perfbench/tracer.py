"""Per-module spans, recorded from outside the package.

Every public function of the traced ``ptcs`` modules (the names in each
module's ``__all__``) is replaced by a wrapper at *every* module attribute
that binds it.  ``from .specfun import bessel_k`` copies the function into
``verify``, ``states``, ``position`` and the package root, so patching only
the defining module would miss most calls.  Function objects held inside
data structures (``verify._SUITE``) are private helpers and stay unwrapped;
their time counts as the self time of the layer that calls them.

A span is ``(function id, parent span index, start, end, computed bytes)``.
Spans are kept in memory; ``end_op`` folds the spans of one operation into
per-function totals and frees them.  A span's self time is its duration
minus the durations of its direct children, so the self times of all spans
of an operation, plus the benchmark's own time between them, add up to the
operation's duration exactly.
"""

import functools
import inspect
import sys
import time

LAYERS = ("specfun", "operators", "states", "position", "verify", "cli")

OP_SPAN = "bench.op"


def _operator_set_bytes(ops):
    mats = (ops.a_minus, ops.a_plus, ops.h, ops.n, ops.g, ops.w, ops.p)
    return sum(m.entries.nbytes for m in mats)


# computed bytes of a call's result, for the functions whose output size
# is the memory story of a workload
RESULT_BYTES = {
    "operators.build_matrices": _operator_set_bytes,
    "position.eigenfunction_table": lambda table: table.nbytes,
}


class Tracer:
    """Wrappers for the public functions of the loaded ``ptcs`` modules."""

    def __init__(self):
        self.names = [OP_SPAN]  # span name per function id
        self._spans = []
        self._stack = []
        self._wrappers = {}  # id(original) -> (original, wrapper)
        self._patched = []  # (module, attribute, original)

    def install(self):
        if not self._wrappers:
            for layer in LAYERS:
                module = sys.modules.get(f"ptcs.{layer}")
                if module is None:
                    continue
                for attr in module.__all__:
                    fn = getattr(module, attr)
                    if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                        self._wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}"))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ptcs" and not mod_name.startswith("ptcs."):
                continue
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name):
        fid = len(self.names)
        self.names.append(name)
        spans = self._spans
        stack = self._stack
        clock = time.perf_counter
        measure = RESULT_BYTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, parent, t0, t1, 0)
                raise
            t1 = clock()
            stack.pop()
            spans[idx] = (fid, parent, t0, t1, measure(result) if measure else 0)
            return result

        return traced

    def begin_op(self):
        if self._stack or self._spans:
            raise RuntimeError("an operation span is already open")
        self._spans.append(None)
        self._stack.append(0)
        self._op_t0 = time.perf_counter()

    def end_op(self):
        """Close the operation span and fold its spans into an OpProfile."""
        t1 = time.perf_counter()
        self._stack.pop()
        self._spans[0] = (0, -1, self._op_t0, t1, 0)
        profile = OpProfile.from_spans(self.names, self._spans)
        self._spans.clear()
        return profile


class OpProfile:
    """Per-function totals of one operation.

    ``by_name[name] = [calls, self_s, bytes]``; ``top`` lists the direct
    children of the operation span as ``(name, duration_s)`` in call order.
    """

    def __init__(self, op_s, by_name, top):
        self.op_s = op_s
        self.by_name = by_name
        self.top = top

    @classmethod
    def from_spans(cls, names, spans):
        child_s = [0.0] * len(spans)
        for fid, parent, t0, t1, _ in spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        by_name = {}
        top = []
        for idx, (fid, parent, t0, t1, nbytes) in enumerate(spans):
            entry = by_name.setdefault(names[fid], [0, 0.0, 0])
            entry[0] += 1
            entry[1] += (t1 - t0) - child_s[idx]
            entry[2] += nbytes
            if parent == 0:
                top.append((names[fid], t1 - t0))
        fid, _, t0, t1, _ = spans[0]
        return cls(t1 - t0, by_name, top)

    def to_json(self):
        return {"op_s": self.op_s, "by_name": self.by_name, "top": self.top}

    @classmethod
    def from_json(cls, data):
        return cls(data["op_s"], data["by_name"], [tuple(t) for t in data["top"]])
