"""Outside-in layer trace of the poissonore package.

Nothing under src/ knows about this module.  `Tracer.install` wraps, at
run time, every public module function of each layer module and the
public methods of the package's core types, and rebinds every reference
to an original callable inside the package's modules, so that callers
that imported a name with `from .x import f` call the wrapper too.
`Tracer.uninstall` puts the originals back.

Each wrapper keeps, per callable, the call count, the inclusive time
(outermost activation only, so recursion is not counted twice) and the
self time (its own time minus the time of wrapped callees).  While
`active` is false the wrappers pass straight through; the benchmark
switches it off around its own correctness checks.
"""

from __future__ import annotations

import functools
import sys
import time
import types

# layer name -> module; the names are the benchmark's layer names
LAYERS = {
    "scalars": "poissonore.polycore.scalars",
    "poly": "poissonore.polycore.poly",
    "groebner": "poissonore.polycore.groebner",
    "gcd": "poissonore.polycore.gcd",
    "linsolve": "poissonore.polycore.linsolve",
    "solve": "poissonore.polycore.solve",
    "deriv": "poissonore.deriv",
    "poisson": "poissonore.poisson",
    "ore": "poissonore.ore",
    "spectra": "poissonore.spectra",
    "parser": "poissonore.parser",
    "registry": "poissonore.registry",
    "cli": "poissonore.cli",
}

# classes whose public methods (dunder operators included) are wrapped
CLASSES = ("GaussRat", "Poly", "Derivation", "DeltaBracket", "PoissonTriple", "SkewPoly", "IdealPres")

# dunders that are plumbing, not work
_SKIP = {"__setattr__", "__getattr__", "__getattribute__", "__init_subclass__", "__class_getitem__"}


def _order_tag(args, kwargs) -> str:
    order = args[1] if len(args) > 1 else kwargs.get("order")
    tag = getattr(order, "tag", "grevlex")
    return "elim" if tag.startswith("elim") else tag


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # key -> [calls, incl_s, self_s]
        self.active = False
        self.basis_reductions = 0  # reduce_full calls inside a Buchberger run
        self.useful_reductions = 0  # ... of them with a nonzero remainder
        self.darboux_strata = 0  # solve_system calls inside darboux_search
        self._stack: list[list] = []
        self._depth: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------

    def _wrap(self, key: str, fn, keyfn=None, observe=None):
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            k = key if keyfn is None else key + "." + keyfn(args, kwargs)
            frame = [k, 0.0]
            stack = tracer._stack
            depth = tracer._depth
            stack.append(frame)
            depth[k] = depth.get(k, 0) + 1
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                # the timer can strike between a callee's push and its try,
                # leaving the callee's frame above this one: drop it too
                while stack and stack.pop() is not frame:
                    pass
                level = depth[k] - 1
                depth[k] = level
                s = tracer.stats.get(k)
                if s is None:
                    s = tracer.stats[k] = [0, 0.0, 0.0]
                s[0] += 1
                if level == 0:
                    s[1] += dt
                s[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if observe is not None:
                observe(out)
            return out

        return wrapper

    def end_task(self) -> None:
        """Stop counting and drop the call stack of the task that just ended.

        A task abandoned by the timer can leave frames behind, even half
        way through a wrapper's bookkeeping; none may leak into the next.
        """
        self.active = False
        self._stack.clear()
        self._depth.clear()

    def _inside(self, key: str) -> bool:
        return self._depth.get(key, 0) > 0

    def _observe_reduce(self, out) -> None:
        if self._inside("groebner.buchberger"):
            self.basis_reductions += 1
            if out:
                self.useful_reductions += 1

    def _observe_solve(self, out) -> None:
        if self._inside("spectra.darboux_search"):
            self.darboux_strata += 1

    def install(self, callers: tuple[types.ModuleType, ...] = ()) -> None:
        """Wrap every layer's public callables and rebind their references.

        References are rebound in the package's modules and in `callers`,
        the benchmark's own modules that call into the package.
        """
        if self._undo:
            raise RuntimeError("tracer already installed")
        import poissonore  # noqa: F401  (loads every layer module)

        special = {
            "groebner.groebner_basis": {"keyfn": _order_tag},
            "groebner.reduce_full": {"observe": self._observe_reduce},
            "solve.solve_system": {"observe": self._observe_solve},
        }
        replaced: dict[int, object] = {}
        for layer, modname in LAYERS.items():
            module = sys.modules[modname]
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__ == modname:
                    key = f"{layer}.{name}"
                    wrapper = self._wrap(key, obj, **special.get(key, {}))
                    replaced[id(obj)] = wrapper
                elif isinstance(obj, type) and name in CLASSES and obj.__module__ == modname:
                    self._wrap_class(layer, obj)
        package = [m for n, m in sys.modules.items() if n == "poissonore" or n.startswith("poissonore.")]
        for module in package + list(callers):
            for name, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._undo.append((module, name, obj))
                    setattr(module, name, wrapper)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            public = not name.startswith("_") or (name.startswith("__") and name.endswith("__"))
            if not public or name in _SKIP:
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                new = staticmethod(self._wrap(key, attr.__func__))
            elif isinstance(attr, types.FunctionType):
                new = self._wrap(key, attr)
            else:
                continue
            self._undo.append((cls, name, attr))
            setattr(cls, name, new)

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._undo):
            setattr(owner, name, obj)
        self._undo.clear()
        self.active = False

    # -- reading the totals -----------------------------------------------

    def totals(self, prefix: str) -> tuple[int, float, float]:
        """Calls, inclusive and self seconds summed over keys under prefix.

        Inclusive time is only meaningful for a single callable; for a
        whole layer use self time.
        """
        calls, incl, self_s = 0, 0.0, 0.0
        dotted = prefix + "."
        for key, (c, i, s) in self.stats.items():
            if key == prefix or key.startswith(dotted):
                calls += c
                incl += i
                self_s += s
        return calls, incl, self_s
