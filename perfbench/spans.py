"""Span tracing of dfw from outside the package.

``Tracer.install`` rebinds every public function of the dfw modules, at
every module attribute that binds it, to a wrapper that records a span
(name, start, end, parent).  Module bindings need their own wrappers
because dfw modules import names directly: ``derived`` holds its own
``kernel_basis``, and ``linalg`` calls ``_k.hermite_cols`` through the
kernels package.  A few methods and private helpers that the per-layer
metrics name are wrapped on their classes or modules as well.

Spans stay in memory (flat arrays) until ``stats`` folds them into counts,
inclusive seconds and self seconds; ``write_spans`` dumps them as TSV.
``uninstall`` restores every original binding.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional

MODULES = (
    "dfw",
    "dfw._kernels",
    "dfw.linalg",
    "dfw.abelian",
    "dfw.functors",
    "dfw.derived",
    "dfw.theorems",
    "dfw.expr",
    "dfw.cli",
)

# dfw module -> layer name used as the span-name prefix
LAYERS = {
    "dfw._kernels": "kernels",
    "dfw._kernels.pure": "kernels",
    "dfw._kernels._speed": "kernels",
    "dfw.linalg": "linalg",
    "dfw.abelian": "abelian",
    "dfw.functors": "functors",
    "dfw.derived": "derived",
    "dfw.theorems": "theorems",
    "dfw.expr": "expr",
    "dfw.cli": "cli",
}

# private module functions that a per-layer metric names
PRIVATE = {"dfw.derived._homology_map"}

# (module, class, attribute): methods wrapped on the class
METHODS = (
    ("dfw.linalg", "IntMatrix", "__init__"),
    ("dfw.linalg", "IntMatrix", "from_rows"),
    ("dfw.linalg", "IntMatrix", "from_cols"),
    ("dfw.linalg", "IntMatrix", "identity"),
    ("dfw.linalg", "IntMatrix", "zeros"),
    ("dfw.linalg", "IntMatrix", "to_rows"),
    ("dfw.linalg", "IntMatrix", "transpose"),
    ("dfw.linalg", "IntMatrix", "select_columns"),
    ("dfw.linalg", "IntMatrix", "top_rows"),
    ("dfw.linalg", "IntMatrix", "__matmul__"),
    ("dfw.linalg", "IntMatrix", "__add__"),
    ("dfw.linalg", "IntMatrix", "__sub__"),
    ("dfw.linalg", "IntMatrix", "__neg__"),
    ("dfw.linalg", "IntMatrix", "scaled"),
    ("dfw.abelian", "Hom", "__init__"),
    ("dfw.abelian", "PresentedGroup", "canonical"),
    ("dfw.functors", "FreeComplex", "__post_init__"),
)

KERNEL_ENTRY_POINTS = ("mat_mul", "hermite_cols", "smith")
HOOK = "trace.hook"


def _bits_of_rows(rows) -> int:
    top = 0
    for row in rows or ():
        for e in row:
            if e > top:
                top = e
            elif -e > top:
                top = -e
    return top.bit_length()


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.outer = array("b")  # 1 unless an enclosing span has the same name
        self.counters: Dict[str, int] = defaultdict(int)
        self.maxima: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._depth: List[int] = []
        self._patches: list = []

    # ------------------------------------------------------------ recording

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """A wrapper of fn recording one span per call; after(args, kwargs,
        result) runs in a span of its own so that its cost is not charged
        to the caller's layer."""
        nid = self._id(name)
        hook_id = self._id(HOOK)
        clock = time.perf_counter
        stack, depth = self._stack, self._depth
        name_id, start, end, parent, outer = (
            self.name_id, self.start, self.end, self.parent, self.outer)

        def open_span(n):
            idx = len(start)
            name_id.append(n)
            parent.append(stack[-1] if stack else -1)
            outer.append(0 if depth[n] else 1)
            end.append(0.0)
            start.append(clock())
            stack.append(idx)
            return idx

        def close_span(idx):
            end[idx] = clock()
            stack.pop()

        def wrapper(*args, **kwargs):
            idx = open_span(nid)
            depth[nid] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[nid] -= 1
                close_span(idx)
            if after is not None:
                h = open_span(hook_id)
                try:
                    after(args, kwargs, result)
                finally:
                    close_span(h)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        mods = [importlib.import_module(m) for m in MODULES]
        hooks = self._hooks()
        wrappers: Dict[int, Callable] = {}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, type) or not callable(obj):
                    continue
                home = getattr(obj, "__module__", None) or ""
                layer = LAYERS.get(home)
                fname = getattr(obj, "__name__", attr)
                if layer is None:
                    continue
                if layer == "kernels":
                    if mod.__name__ != "dfw._kernels" or attr not in KERNEL_ENTRY_POINTS:
                        continue
                elif fname.startswith("_") and f"{home}.{fname}" not in PRIVATE:
                    continue
                w = wrappers.get(id(obj))
                if w is None:
                    name = f"{layer}.{fname}"
                    w = wrappers[id(obj)] = self.span(name, obj, hooks.get(name))
                self._set(mod, attr, w)
        # CHECKS holds the suite functions in a dict; route it through the
        # same wrappers
        theorems = importlib.import_module("dfw.theorems")
        self._set(theorems, "CHECKS", {k: wrappers.get(id(v), v) for k, v in theorems.CHECKS.items()})
        for modname, clsname, attr in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            raw = cls.__dict__.get(attr)
            if raw is None:  # gone from this version of dfw; its metrics read 0
                continue
            name = f"{LAYERS[modname]}.{clsname}.{attr}"
            hook = hooks.get(name)
            if isinstance(raw, property):
                self._set(cls, attr, property(self.span(name, raw.fget, hook)))
            elif isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self.span(name, raw.__func__, hook)))
            else:
                self._set(cls, attr, self.span(name, raw, hook))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def _hooks(self) -> Dict[str, Callable]:
        counters, maxima = self.counters, self.maxima

        def hermite(args, kwargs, out):
            counters["kernels.hermite_cols.cells"] += args[1] * args[2]
            h, v, _ = out
            maxima["kernels.out_bits_max"] = max(
                maxima["kernels.out_bits_max"], _bits_of_rows(h), _bits_of_rows(v))

        def smith(args, kwargs, out):
            counters["kernels.smith.cells"] += args[1] * args[2]
            maxima["kernels.out_bits_max"] = max(
                maxima["kernels.out_bits_max"], *(_bits_of_rows(m) for m in out))

        def mat_mul(args, kwargs, out):
            maxima["kernels.out_bits_max"] = max(
                maxima["kernels.out_bits_max"], _bits_of_rows(out))

        def kernel_basis(args, kwargs, out):
            maxima["linalg.kernel_basis.out_bits_max"] = max(
                maxima["linalg.kernel_basis.out_bits_max"], _bits_of_rows([out.entries]))

        def hom_init(args, kwargs, out):
            check = kwargs.get("check", args[4] if len(args) > 4 else True)
            if check and args[1].relations.cols:
                counters["abelian.hom_checked.calls"] += 1

        return {
            "kernels.hermite_cols": hermite,
            "kernels.smith": smith,
            "kernels.mat_mul": mat_mul,
            "linalg.kernel_basis": kernel_basis,
            "abelian.Hom.__init__": hom_init,
        }

    # ------------------------------------------------------------ reading

    def stats(self) -> dict:
        """Counts, inclusive seconds (outermost calls only) and self seconds
        per span name, self seconds per layer, and the hook counters."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls: Dict[str, int] = defaultdict(int)
        incl: Dict[str, float] = defaultdict(float)
        self_s: Dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.name_id[i]]
            d = end[i] - start[i]
            calls[name] += 1
            if self.outer[i]:
                incl[name] += d
            self_s[name] += d - child[i]
        layer_self: Dict[str, float] = defaultdict(float)
        for name, s in self_s.items():
            layer_self[name.split(".", 1)[0]] += s
        return {
            "calls": dict(calls),
            "incl_s": dict(incl),
            "self_s": dict(self_s),
            "layer_self_s": dict(layer_self),
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }

    def write_spans(self, fh) -> None:
        """One line per span: op (the index of its top-level span), index,
        parent, name, start, end (s)."""
        root = []
        for i in range(len(self.start)):
            p = self.parent[i]
            root.append(i if p < 0 else root[p])
            fh.write(
                f"{root[i]}\t{i}\t{p}\t{self.names[self.name_id[i]]}"
                f"\t{self.start[i]:.7f}\t{self.end[i]:.7f}\n"
            )


def merge(into: dict, other: dict) -> dict:
    """Add the counts and seconds of one stats dict into another; maxima
    take the larger value."""
    for key in ("calls", "incl_s", "self_s", "layer_self_s", "counters"):
        dst = into.setdefault(key, {})
        for name, v in other.get(key, {}).items():
            dst[name] = dst.get(name, 0) + v
    dst = into.setdefault("maxima", {})
    for name, v in other.get("maxima", {}).items():
        dst[name] = max(dst.get(name, 0), v)
    return into
