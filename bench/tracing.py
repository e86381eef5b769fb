"""Spans and counts around sepcat's public functions, recorded from outside.

A Tracer replaces each target function, wherever a loaded sepcat module
binds it, with a wrapper that records a span: name, start, end, parent and
attributes such as matrix shape, nonzeros and backend. remove() puts every
original back. Attributes are computed outside the span's clock, and the
wrapper's own time is charged to no span, so self times stay those of the
library code.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    parent: Optional["Span"]
    attrs: dict = field(default_factory=dict)
    start: float = 0.0
    end: float = 0.0
    child_time: float = 0.0

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time

    @property
    def duration(self) -> float:
        return self.end - self.start

    def ancestor(self, names) -> Optional["Span"]:
        s = self.parent
        while s is not None and s.name not in names:
            s = s.parent
        return s


def _backend(m) -> str:
    return "Q" if m.field.p is None else "Fp"


def _nnz(m) -> int:
    return sum(1 for e in m.entries if e)


def _rref_attrs(m):
    hit = getattr(m, "_rref", None) is not None
    attrs = {"backend": _backend(m), "shape": (m.rows, m.cols), "cache_hit": hit}
    if not hit:
        attrs["nnz"] = _nnz(m)
    return attrs


def _matmul_attrs(a, b):
    col_nz = [0] * a.cols
    for i, e in enumerate(a.entries):
        if e:
            col_nz[i % a.cols] += 1
    row_nz = [sum(1 for e in b.entries[k * b.cols : (k + 1) * b.cols] if e) for k in range(b.rows)]
    mults = sum(x * y for x, y in zip(col_nz, row_nz))
    return {"backend": _backend(a), "shape": (a.rows, a.cols, b.cols), "mults": mults}


def _shape_attrs(m, *rest):
    return {"backend": _backend(m), "shape": (m.rows, m.cols)}


def _system_post(result):
    mat = result[0]
    return {"shape": (mat.rows, mat.cols)}


def _complex_post(cx):
    return {
        "cochain_cols": sum(s.dim for s in cx.spaces),
        "diff_cells": sum(d.rows * d.cols for d in cx.diffs),
        "diff_nnz": sum(_nnz(d) for d in cx.diffs),
        "shape": max(((d.rows, d.cols) for d in cx.diffs), key=lambda s: s[0] * s[1]),
    }


def _module_dims_post(m):
    return {"dims": list(m.dims.values())}


def _attrs(hook, *args) -> dict:
    """A hook's attributes; {} when there is no hook or it no longer fits the
    library, so that a change inside sepcat can never fail a traced op."""
    if hook is None:
        return {}
    try:
        return hook(*args)
    except (AttributeError, TypeError, IndexError, KeyError):
        return {}


# (module, attribute, span name, attributes before the call, attributes of the result)
TARGETS: list[tuple[str, str, str, Optional[Callable], Optional[Callable]]] = [
    ("sepcat.exactalg", "Matrix.rref", "exactalg.rref", _rref_attrs, None),
    ("sepcat.exactalg", "Matrix.__matmul__", "exactalg.matmul", _matmul_attrs, None),
    ("sepcat.exactalg", "Matrix.solve_many", "exactalg.solve", _shape_attrs, None),
    ("sepcat.exactalg", "Matrix.kernel_basis", "exactalg.kernel", _shape_attrs, None),
    ("sepcat.exactalg", "Matrix.kron", "exactalg.kron", _shape_attrs, None),
    ("sepcat.lincat", "validate_category", "lincat.validate", None, None),
    ("sepcat.lincat", "linearize", "lincat.linearize", None, None),
    ("sepcat.cmod", "random_bimodule", "cmod.random_bimodule", None, _module_dims_post),
    ("sepcat.cmod", "random_left_module", "cmod.random_left_module", None, _module_dims_post),
    ("sepcat.cmod", "kernel_of", "cmod.kernel_of", None, lambda r: _module_dims_post(r[0])),
    ("sepcat.cmod", "_left_module_map_kernel", "cmod.left_kernel", None, _module_dims_post),
    ("sepcat.cmod", "tensor_square", "cmod.tensor_square", None, None),
    ("sepcat.cmod", "validate_module", "cmod.validate_module", None, None),
    ("sepcat.separability", "separability_system", "separability.system", None, _system_post),
    ("sepcat.separability", "solve_separability", "separability.solve", None, None),
    ("sepcat.separability", "verify_family", "separability.verify", None, None),
    ("sepcat.separability", "reduce_family", "separability.reduce", None, None),
    ("sepcat.separability", "module_section", "separability.module_section", None, None),
    ("sepcat.separability", "zelinsky_report", "separability.zelinsky", None, None),
    ("sepcat.cohomology", "build_hm_complex", "cohomology.build", None, _complex_post),
    ("sepcat.cohomology", "cohomology_dims", "cohomology.dims", None, None),
    ("sepcat.cohomology", "obstruction_cocycle", "cohomology.obstruction", None, None),
    ("sepcat.cohomology", "les_analysis", "cohomology.les", None, None),
]
for _name in (
    "category", "presentation", "bimodule", "left_module", "ses", "certificate",
):
    TARGETS.append(("sepcat.interchange", f"{_name}_from_json", "interchange.load", None, None))
    TARGETS.append(("sepcat.interchange", f"{_name}_to_json", "interchange.dump", None, None))
TARGETS.append(("sepcat.interchange", "cohomology_report_to_json", "interchange.dump", None, None))
TARGETS.append(("sepcat.interchange", "les_report_to_json", "interchange.dump", None, None))


class Tracer:
    """Records spans while installed; install() and remove() bracket a traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """A span opened by the benchmark itself, such as one op."""
        t_in = self.clock()
        rec = Span(name, self._stack[-1] if self._stack else None, dict(attrs))
        self._stack.append(rec)
        rec.start = self.clock()
        try:
            yield rec
        finally:
            rec.end = self.clock()
            self._stack.pop()
            self._close(rec, t_in)

    def _close(self, rec: Span, t_in: float) -> None:
        self.spans.append(rec)
        if rec.parent is not None:
            rec.parent.child_time += self.clock() - t_in

    def _wrap(self, name, fn, pre, post):
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = clock()
            stack = tracer._stack
            rec = Span(name, stack[-1] if stack else None, _attrs(pre, *args))
            stack.append(rec)
            rec.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end = clock()
                stack.pop()
            rec.attrs.update(_attrs(post, result))
            tracer._close(rec, t_in)
            return result

        wrapper.__wrapped_by_bench__ = fn
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = {n: m for n, m in sys.modules.items() if n == "sepcat" or n.startswith("sepcat.")}
        for mod_name, attr, name, pre, post in TARGETS:
            owner = modules.get(mod_name)
            cls_name, _, fn_name = attr.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, fn_name, None) if owner is not None else None
            if original is None:
                continue  # the library no longer has this function
            wrapper = self._wrap(name, original, pre, post)
            if cls_name:
                self._bind(owner, fn_name, wrapper)
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, wrapper)

    def _bind(self, owner, key, wrapper) -> None:
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def remove(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    @property
    def installed(self) -> bool:
        return bool(self._saved)
