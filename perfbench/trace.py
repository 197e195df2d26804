"""Per-layer tracing from outside the program.

The traced run replaces every binding of each public function of the six
elastoray modules with a wrapper that records a span: call count, self time
(span time minus the time of child spans) and the class of any exception that
starts in it.  Field methods of loaded media are traced by giving each field
instance a subclass whose methods are wrapped, so isinstance checks still
hold.  Spans are aggregated in memory, not kept one by one: a traced pass on
the bump medium makes hundreds of thousands of field evaluations.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

FIELD_SPAN = "medium.field_eval"
FIELD_METHODS = ("__call__", "gradient", "value_and_gradient", "matrix",
                 "derivative")


def public_functions(module):
    """Functions defined in ``module`` whose names do not start with '_'."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


def elastoray_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "elastoray"
                                    or name.startswith("elastoray."))]


def _bindings(originals):
    """Every (container, key) in an elastoray module that holds an original.

    Containers are module namespaces and dicts stored in them (such as the
    CLI's handler table).
    """
    found = []
    for mod in elastoray_modules():
        space = vars(mod)
        for key, value in list(space.items()):
            if id(value) in originals and value is originals[id(value)][1]:
                found.append((space, key, value))
            elif isinstance(value, dict):
                for k, v in value.items():
                    if id(v) in originals and v is originals[id(v)][1]:
                        found.append((value, k, v))
    return found


class Tracer:
    """Aggregated spans and counters of one traced run."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self.active = Counter()
        self._stack = []
        self._patches = []
        self._field_classes = {}
        self._fields = []

    # -- spans --------------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self)
            frame = [name, 0.0]
            stack = self._stack
            stack.append(frame)
            self.active[name] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self._error(layer, name, exc)
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.active[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += dt - frame[1]
                self.total_s[name] += dt
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(self, args, kwargs, out)
            return out

        traced.__perfbench_original__ = fn
        return traced

    def _error(self, layer, name, exc):
        # an exception is charged once, to the layer whose span it starts in
        if not getattr(exc, "_perfbench_charged", False):
            exc._perfbench_charged = True
            self.counts[f"{layer}.errors.{type(exc).__name__}"] += 1
        if name == "rays.trace_leg":
            self.counts[f"rays.trace_leg.errors.{type(exc).__name__}"] += 1

    # -- installation -------------------------------------------------------

    def install(self, modules):
        """Wrap every public function of ``modules`` at every binding.

        ``modules`` maps a layer name to the imported elastoray module.
        """
        originals = {}
        for layer, mod in modules.items():
            for fname, fn in public_functions(mod).items():
                name = f"{layer}.{fname}"
                hooks = _HOOKS.get(name, {})
                originals[id(fn)] = (self.wrap(name, fn, **hooks), fn)
        self._patches = [(space, key, orig, originals[id(orig)][0])
                         for space, key, orig in _bindings(originals)]
        self.enable()

    def enable(self):
        for space, key, _, wrapped in self._patches:
            space[key] = wrapped
        for field, _, traced_cls in self._fields:
            field.__class__ = traced_cls

    def disable(self):
        for space, key, orig, _ in self._patches:
            space[key] = orig
        for field, cls, _ in self._fields:
            field.__class__ = cls

    def instrument_medium(self, m):
        """Trace the field methods of one Medium instance."""
        for field in (m.rho, m.lam, m.mu, m.stress):
            if any(f is field for f, _, _ in self._fields):
                continue
            cls = type(field)
            traced_cls = self._field_classes.get(cls)
            if traced_cls is None:
                ns = {meth: self._field_method(getattr(cls, meth))
                      for meth in FIELD_METHODS if hasattr(cls, meth)}
                traced_cls = type("Traced" + cls.__name__, (cls,), ns)
                self._field_classes[cls] = traced_cls
            self._fields.append((field, cls, traced_cls))
            field.__class__ = traced_cls

    def _field_method(self, fn):
        wrapped = self.wrap(FIELD_SPAN, fn)

        @functools.wraps(fn)
        def method(*args, **kwargs):
            # value_and_gradient calls __call__ and gradient: one evaluation
            if self._stack and self._stack[-1][0] == FIELD_SPAN:
                return fn(*args, **kwargs)
            return wrapped(*args, **kwargs)

        return method

    # -- results ------------------------------------------------------------

    def snapshot(self):
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "total_s": dict(self.total_s), "counts": dict(self.counts)}


def _after_load(tracer, args, kwargs, m):
    tracer.instrument_medium(m)


def _after_trace_state(tracer, args, kwargs, out):
    entry = out[1]
    if entry is not None:
        tracer.counts["rays.legs"] += 1
        tracer.counts["rays.steps"] += entry.n_steps


def _before_trace_leg(tracer):
    if tracer.active["rays.boundary_distance"]:
        tracer.counts["rays.solve_legs_attempted"] += 1


def _after_trace_leg(tracer, args, kwargs, out):
    if tracer.active["rays.boundary_distance"]:
        tracer.counts["rays.solve_legs_ok"] += 1


def _after_distance(tracer, args, kwargs, res):
    kind = "warm" if kwargs.get("warm_start") is not None else "cold"
    tracer.counts[f"rays.{kind}_solves"] += 1
    tracer.counts[f"rays.{kind}_solve_legs"] += res.n_legs
    tracer.counts["rays.solves_connected"] += int(res.connected)


_HOOKS = {
    "medium.load_medium": {"after": _after_load},
    "rays.trace_state": {"after": _after_trace_state},
    "rays.trace_leg": {"before": _before_trace_leg, "after": _after_trace_leg},
    "rays.boundary_distance": {"after": _after_distance},
}
