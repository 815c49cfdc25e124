"""Per-layer tracing of orbistring from outside the package.

The tracer replaces every binding of a layer's public functions (and a few
hot methods) with a wrapper that aggregates calls, inclusive time and self
time per name.  Self time excludes time spent in other wrapped calls.  Spans
are not kept one per call: hot primitives such as ``Cyclo.__mul__`` run
millions of times, so each name keeps three running sums instead.

Wrappers only record while ``active`` is true, so input generation and
result checks that call into the library between ops are not counted.
``uninstall`` restores every binding it replaced.
"""

from __future__ import annotations

import functools
import sys
import types
from time import perf_counter

LAYERS = ("cyclo", "groups", "phases", "sector", "chords", "gchords", "graded")

# (layer, class name, method names, span name)
METHODS = (
    ("cyclo", "Cyclo", ("__mul__", "__rmul__"), "cyclo.mul"),
    ("cyclo", "Cyclo", ("inverse",), "cyclo.inverse"),
    ("sector", "SectorRing", ("check_associative",), "sector.check_associative"),
    ("sector", "SectorRing", ("check_unit",), "sector.check_unit"),
    ("sector", "SectorRing", ("pairing_nondegenerate",), "sector.pairing_nondegenerate"),
)

# Domain errors are the ValueError family the layers raise on bad input, plus
# ArithmeticError for cyclotomic division by zero.
DOMAIN_ERRORS = (ValueError, ArithmeticError)


class Stat:
    __slots__ = ("calls", "incl", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.active = False
        self.stats: dict[str, Stat] = {}
        self.layer_s = {layer: 0.0 for layer in LAYERS}
        self.layer_depth = {layer: 0 for layer in LAYERS}
        self.errors = {layer: 0 for layer in LAYERS}
        self.counts: dict[str, int] = {}
        self._child = [0.0]  # child-time accumulator of the innermost open span
        self._undo: list[tuple[object, str, object]] = []

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def _wrap(self, name: str, layer: str, fn):
        st = self.stats.setdefault(name, Stat())
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outer_child = tracer._child
            mine = [0.0]
            tracer._child = mine
            depth = tracer.layer_depth
            depth[layer] += 1
            st.depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except DOMAIN_ERRORS as e:
                if not getattr(e, "_perfbench_counted", False):
                    e._perfbench_counted = True
                    tracer.errors[layer] += 1
                raise
            finally:
                dt = perf_counter() - t0
                tracer._child = outer_child
                outer_child[0] += dt
                st.calls += 1
                st.self_s += dt - mine[0]
                st.depth -= 1
                if st.depth == 0:
                    st.incl += dt
                depth[layer] -= 1
                if depth[layer] == 0:
                    tracer.layer_s[layer] += dt

        return wrapper

    def install(self, also=()) -> None:
        """Wrap the public functions of every layer, at every binding in the
        package and in the modules `also` (callers that imported names)."""
        mods = [m for n, m in sys.modules.items() if n == "orbistring" or n.startswith("orbistring.")]
        mods += list(also)
        for layer in LAYERS:
            mod = sys.modules[f"orbistring.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if not isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper)):
                    continue
                wrapped = self._wrap(f"{layer}.{name}", layer, obj)
                for m in mods:
                    for k, v in list(vars(m).items()):
                        if v is obj:
                            self._undo.append((m, k, v))
                            setattr(m, k, wrapped)
        for layer, cls_name, methods, span in METHODS:
            cls = getattr(sys.modules[f"orbistring.{layer}"], cls_name)
            shared = {}
            for meth in methods:
                fn = cls.__dict__[meth]
                if fn not in shared:
                    shared[fn] = self._wrap(span, layer, fn)
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, shared[fn])

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()
