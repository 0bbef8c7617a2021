"""Per-layer tracing of drinlat from outside the package.

`Tracer.install()` replaces the public functions and methods of each
layer module (and the few private kernels named in `EXTRA`) with timing
wrappers.  Every wrapped call is a span; spans nest on one stack, and a
span's self time is its duration minus the time of the spans it
encloses.  Hot leaf operations are aggregated per name (calls, total,
self) rather than logged one span per call.  Generator functions are
timed per `next()` and count the items they yield.

Module-level names are patched in every drinlat module that holds a
reference, so calls made through `from .x import f` are traced too.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

LAYERS = ("ffpoly", "_chainring", "localfield", "hecke", "extension",
          "goodprime", "bounds", "cli")

# Private kernels that carry a per-layer metric of their own.
EXTRA = {"localfield": ("_snf_full", "_det_residue")}

# Constructors, comparisons and trivial accessors stay unwrapped: they are
# called millions of times and would only add overhead; their time counts
# toward the enclosing span.
SKIP_METHODS = {"__init__", "__eq__", "__hash__", "__repr__", "__str__",
                "__getitem__", "__post_init__", "is_zero", "is_one",
                "is_monic", "lead"}
OPERATORS = {"__add__", "__sub__", "__mul__", "__neg__", "__divmod__",
             "__floordiv__", "__mod__", "__pow__", "__matmul__"}

# Field-element operations run tens of millions of times per pass; timing
# each would multiply the traced run time several-fold, so they are only
# counted and their time stays in the calling span.
COUNT_ONLY_CLASSES = {"FiniteField", "ResidueField"}


def layer_name(module_short: str) -> str:
    """Metric prefix of a layer (metric names may not start with '_')."""
    return module_short.lstrip("_")


class Tracer:
    def __init__(self):
        self.stats = {}      # span name -> [calls, total_s, self_s]
        self.counters = {}   # name -> int
        self._stack = []     # per open span: child time so far
        self._active = {}    # span name -> open depth
        self._patched = []   # (owner, attribute, original)
        self._counted = set()  # names wrapped by counted()

    # -- recording -----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def active(self, name: str) -> bool:
        return self._active.get(name, 0) > 0

    def _enter(self, name):
        self._stack.append(0.0)
        self._active[name] = self._active.get(name, 0) + 1
        return perf_counter()

    def _leave(self, name, t0):
        dt = perf_counter() - t0
        child = self._stack.pop()
        self._active[name] -= 1
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dt
        st[2] += dt - child
        if self._stack:
            self._stack[-1] += dt

    def counted(self, name: str, fn):
        """Wrap fn so calls are counted (as `name`) but not timed."""
        st = self.stats.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            st[0] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name: str, fn, namer=None, hook=None):
        """Wrap fn so each call is a span called `name` (or namer(args))."""
        tracer = self
        if inspect.isgeneratorfunction(fn):
            yielded = name + ".yielded"

            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    t0 = tracer._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._leave(name, t0)
                    tracer.count(yielded)
                    yield item
            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            key = namer(args, kwargs) if namer else name
            t0 = tracer._enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(key, t0)
            if hook is not None:
                hook(tracer, result, args, kwargs)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def reset(self, keep=()) -> None:
        for st in self.stats.values():  # counted() wrappers hold these lists
            st[:] = [0, 0.0, 0.0]
        self.stats = {k: v for k, v in self.stats.items() if k in self._counted}
        self.counters = {k: v for k, v in self.counters.items() if k in keep}

    # -- patching --------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer module; call once, after `import drinlat.cli`."""
        modules = {short: sys.modules["drinlat." + short] for short in LAYERS}
        replaced = {}  # id(original function) -> wrapper
        for short, mod in modules.items():
            prefix = layer_name(short)
            extra = EXTRA.get(short, ())
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") and attr not in extra:
                    continue
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(prefix, obj)
                    continue
                target = getattr(obj, "__wrapped__", obj)  # lru_cache objects
                if not callable(obj) or getattr(target, "__module__", None) != mod.__name__:
                    continue
                name = f"{prefix}.{attr}"
                wrapper = self.span(name, obj, *_special(name))
                replaced[id(obj)] = wrapper
                self._set(mod, attr, wrapper)
        # rebind names imported into other drinlat modules
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("drinlat") or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and obj is not wrapper:
                    self._set(mod, attr, wrapper)

    def _wrap_class(self, prefix, cls) -> None:
        for attr, obj in list(cls.__dict__.items()):
            if attr in SKIP_METHODS:
                continue
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{prefix}.{cls.__name__}.{attr}"
            if cls.__name__ in COUNT_ONLY_CLASSES and inspect.isfunction(obj):
                self._counted.add(name)
                self._set(cls, attr, self.counted(name, obj))
            elif isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(self.span(name, obj.__func__)))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self.span(name, obj, *_special(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- results -----------------------------------------------------------------

    def layer_self(self) -> dict:
        out = {layer_name(short): 0.0 for short in LAYERS}
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".", 1)[0]] += self_s
        return out


def _special(name):
    """(namer, hook) for spans that carry extra per-layer metrics."""
    if name == "hecke.hecke_degree":
        def namer(args, kwargs):
            depth = args[1] if len(args) > 1 else kwargs.get("depth", 1)
            return f"hecke.hecke_degree_d{depth}"
        return namer, None
    if name == "localfield.saturation_holds":
        def hook(tracer, result, args, kwargs):
            if result:
                tracer.count("localfield.saturation_holds.true")
        return None, hook
    if name == "localfield._det_residue":
        def hook(tracer, result, args, kwargs):
            if tracer.active("localfield.stabilizer_index"):
                tracer.count("localfield.stabilizer.candidates")
                if result != 0:
                    tracer.count("localfield.stabilizer.units")
        return None, hook
    if name == "goodprime.find_good_prime":
        def hook(tracer, result, args, kwargs):
            tracer.count("goodprime.primes_scanned", result.report.scanned)
        return None, hook
    return None, None
