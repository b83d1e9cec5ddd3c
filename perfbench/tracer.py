"""Per-layer tracing of losstree from outside the package.

``Tracer.install`` wraps every public module-level function of every
``losstree`` module, the cached properties of ``LogicalTree`` and a few
named methods.  A function is replaced wherever a module binds it, not
only where it is defined, so ``losstree.cli.upsparse`` and
``losstree.oracle.closed_form`` record spans too.  Spans (id, parent id,
name, start, end) stay in memory until ``write``; ``uninstall`` puts every
original object back.
"""

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "losstree"

# Methods worth a span of their own; other methods are cheap accessors.
METHODS = {
    "noiseless.SolutionReport": ("to_json",),
    "noisy.NoisySolution": ("to_json",),
    "oracle.SupportScanner": ("level", "feasible_at"),
}
CACHED_CLASS = "topology.LogicalTree"

# Calls that count as a useful outcome, for hit ratios.
HITS = {"oracle.SupportScanner.feasible_at": lambda result: len(result[0]) > 0}


def package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _short(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1 :]


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id or -1, name, start, end)
        self.hits = Counter()
        self._stack = []
        self._undo = []

    def _wrap(self, func, name):
        hit = HITS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = len(self.spans) + len(self._stack)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end))
            if hit is not None and hit(result):
                self.hits[name] += 1
            return result

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = package_modules()
        wrappers = {}  # id(original) -> (original, wrapper)
        for mod in modules:
            if mod.__name__ == PACKAGE:
                continue  # the package only re-exports
            short = _short(mod.__name__)
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    qual = f"{short}.{attr}"
                    for meth in METHODS.get(qual, ()):
                        self._set(obj, meth, self._wrap(vars(obj)[meth], f"{qual}.{meth}"))
                    if qual == CACHED_CLASS:
                        for prop, desc in list(vars(obj).items()):
                            if isinstance(desc, functools.cached_property):
                                new = functools.cached_property(
                                    self._wrap(desc.func, f"{qual}.{prop}")
                                )
                                new.__set_name__(obj, prop)
                                self._set(obj, prop, new)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._set(mod, attr, wrappers[id(obj)][1])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def totals(self, segments=()):
        """Per name: (self seconds, calls); self time excludes child spans.

        ``segments`` lists (end, scale) pairs in order: spans with index below
        ``end`` and not in an earlier segment have their time multiplied by
        ``scale``.  Spans after the last segment are not scaled.
        """
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        k = 0
        for i, (sid, _, name, start, end) in enumerate(self.spans):
            while k < len(segments) and i >= segments[k][0]:
                k += 1
            scale = segments[k][1] if k < len(segments) else 1.0
            self_s[name] += (end - start - child[sid]) * scale
            calls[name] += 1
        return self_s, calls

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, name, start, end]) + "\n")


def snapshot():
    """Identity map of every attribute of every losstree module and class."""
    out = {}
    for mod in package_modules():
        for attr, obj in vars(mod).items():
            out[(mod.__name__, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for cattr, cobj in vars(obj).items():
                    out[(mod.__name__, attr, cattr)] = cobj
    return out
