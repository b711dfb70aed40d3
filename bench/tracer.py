"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer replaces chosen public functions of ``slpkit`` with wrappers
that record, per function: calls, self time (span time minus the time of
child spans) and failures (exceptions that propagated out of the span).
``ExpressionAST.evaluate`` runs about 10^5 times per operation, so it is
only counted, never timed.

Many names are re-bound by ``from ... import`` (``cli.spectral_match``,
``verify.solve_spectrum``, ``liouville.validate`` ...).  ``install`` wraps
every module attribute of the package that is bound to a traced function,
not only the defining one, so a call is traced whichever name it goes
through.  Objects built while the wrappers are installed may hold bound
methods of them, so operations build their inputs inside the traced span.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "slpkit"

# (module, attribute or "Class.method", extra counters taken from the call)
TARGETS = (
    ("expr", "parse", None),
    ("problems", "validate", None),
    ("inverse", "build_case", None),
    ("special", "bessel_j", None),
    ("special", "bessel_y", None),
    ("liouville", "build_map",
     lambda args, kwargs, result: {"nodes": len(result._xs)}),
    ("liouville", "forward_transform", None),
    ("liouville", "TransformMap.x_of_t", None),
    ("liouville", "invariant_at_x", None),
    ("liouville", "TabulatedInvariant.evaluate", None),
    ("eigensolver", "discretize_schrodinger",
     lambda args, kwargs, result: {"rows": result.n}),
    ("eigensolver", "discretize_canonical",
     lambda args, kwargs, result: {"rows": result.n}),
    ("eigensolver", "eig_bisect",
     lambda args, kwargs, result: {"rows": args[0].n, "eigs": len(result)}),
    ("eigensolver", "solve_spectrum", None),
    ("verify", "roundtrip_invariant", None),
    ("verify", "spectral_match", None),
    ("_serialize", "dumps", None),
    ("cli", "load_problem", None),
    ("cli", "main", None),
)

# counted, never timed: (module, class, method, metric prefix)
COUNTED = ("expr", "ExpressionAST", "evaluate", "expr.evaluate")


def metric_prefix(module: str, attr: str) -> str:
    # metric names must start with a letter or digit
    return f"{module.lstrip('_')}.{attr}"


class Tracer:
    """Aggregated spans for the operations of one traced phase.

    ``take()`` returns the statistics gathered since the previous call, as
    ``{prefix: {"calls", "self_s", "failed", extra counters...}}``.
    """

    def __init__(self):
        self._stats: dict = {}
        self._stack: list = []  # child-time accumulators of the open spans
        self._open: set = set()  # prefixes with an open span (re-entry guard)
        self._counted = [0]  # calls of the COUNTED method since take()
        self._undo: list = []
        self._originals: list = []
        self.missing: list = []  # targets not found in the package

    # -- installation -------------------------------------------------------

    def _modules(self):
        return [mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _rebind(self, original, wrapper) -> None:
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _wrap(self, path: str, make_wrapper) -> None:
        """Replace the function at ``path`` (below the package) everywhere it
        is bound; a path that does not resolve is listed in ``missing``."""
        owner_path, _, name = path.rpartition(".")
        owner = functools.reduce(lambda obj, part: getattr(obj, part, None),
                                 owner_path.split("."), sys.modules[PACKAGE])
        original = None if owner is None else vars(owner).get(name)
        if original is None:
            self.missing.append(path)
            return
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            setattr(owner, name, wrapper)
            self._undo.append((owner, name, original))
        else:
            self._rebind(original, wrapper)
        self._originals.append(original)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.missing.clear()
        for module, attr, extra in TARGETS:
            prefix = metric_prefix(module, attr)
            self._wrap(f"{module}.{attr}",
                       lambda fn, prefix=prefix, extra=extra: self._span(prefix, fn, extra))
        module, cls_name, meth, _ = COUNTED
        self._wrap(f"{module}.{cls_name}.{meth}", self._counter)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self._originals.clear()
        self._stack.clear()
        self._open.clear()

    def unwrapped_bindings(self) -> list:
        """Module attributes of the package still bound to a traced original."""
        originals = {id(fn) for fn in self._originals}
        return sorted(f"{mod.__name__}.{attr}" for mod in self._modules()
                      for attr, value in vars(mod).items() if id(value) in originals)

    # -- recording ----------------------------------------------------------

    def _entry(self, prefix: str) -> dict:
        entry = self._stats.get(prefix)
        if entry is None:
            entry = self._stats[prefix] = {"calls": 0, "self_s": 0.0, "failed": 0}
        return entry

    def _span(self, prefix, fn, extra):
        stack, open_, clock = self._stack, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if prefix in open_:  # recursion: the outer span already covers it
                return fn(*args, **kwargs)
            open_.add(prefix)
            child = [0.0]
            stack.append(child)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                open_.discard(prefix)
                if stack:
                    stack[-1][0] += elapsed
                entry = self._entry(prefix)
                entry["calls"] += 1
                entry["self_s"] += elapsed - child[0]
                if failed:
                    entry["failed"] += 1
                elif extra is not None:
                    for key, value in extra(args, kwargs, result).items():
                        entry[key] = entry.get(key, 0) + value

        return wrapper

    def _counter(self, fn):
        counted = self._counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counted[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def take(self) -> dict:
        """Statistics since the previous call; resets them."""
        stats, self._stats = self._stats, {}
        if self._counted[0]:
            stats[COUNTED[3]] = {"calls": self._counted[0]}
            self._counted[0] = 0
        self._stack.clear()
        self._open.clear()
        return stats
