"""In-memory spans around the program's public functions.

The tracer patches each public function at the module where its caller
looks it up (``mlcirt.em.fit`` is called by ``multistart_fit`` through the
``mlcirt.em`` globals, ``mlcirt.cli.multistart_fit`` by the ``fit``
command), so the program itself is unchanged.  Spans hold a name, start,
end, parent span and run id, plus a few counts read from arguments and
results.  Private helpers (the M-step blocks) are not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    run: int
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows_loaded(result, args):
    return {"rows": int(result.n_students)}


def _rows_simulated(result, args):
    return {"rows": int(result.dataset.n_students)}


def _rows_weighted(result, args):
    return {"rows": int(args[0].shape[0])}


def _fit_attrs(result, args):
    return {"loglik": float(result.loglik), "n_iter": int(result.n_iter),
            "converged": bool(result.converged)}


def _cond_attrs(result, args):
    n, r = args[0].is_one.shape
    return {"n": int(n), "r": int(r), "k_v": int(result.shape[1])}


def _sweep_attrs(result, args):
    return {"rows": len(result.rows), "chosen": result.chosen_n_types}


# (module where the caller looks the name up, attribute, span name, attrs).
TARGETS = (
    ("mlcirt.cli", "simulate_full", "simulate.simulate_full", _rows_simulated),
    ("mlcirt.io", "write_dataset_files", "io.write_dataset_files", None),
    ("mlcirt.io", "load_dataset", "io.load_dataset", _rows_loaded),
    ("mlcirt.cli", "validate_dataset", "data.validate_dataset", None),
    ("mlcirt.cli", "multistart_fit", "em.multistart_fit", _fit_attrs),
    ("mlcirt.selection", "multistart_fit", "em.multistart_fit", _fit_attrs),
    ("mlcirt.em", "initialize", "em.initialize", None),
    ("mlcirt.em", "fit", "em.fit", _fit_attrs),
    ("mlcirt.em", "stack_dataset", "likelihood.stack_dataset", None),
    ("mlcirt.em", "stacked_loglik_terms", "likelihood.stacked_loglik_terms", None),
    ("mlcirt.likelihood", "conditional_loglik_matrix",
     "likelihood.conditional_loglik_matrix", _cond_attrs),
    ("mlcirt.likelihood", "log_class_weight_matrix",
     "weights.log_class_weight_matrix", _rows_weighted),
    ("mlcirt.cli", "e_step", "em.e_step", None),
    ("mlcirt.selection", "e_step", "em.e_step", None),
    ("mlcirt.cli", "classify", "selection.classify", None),
    ("mlcirt.cli", "sweep_school_types", "selection.sweep_school_types",
     _sweep_attrs),
    ("mlcirt.io", "write_report", "io.write_report", None),
    ("mlcirt.io", "write_assignments", "io.write_assignments", None),
)


class Tracer:
    """Collects spans in memory; ``patched()`` installs the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, self.run, parent, time.perf_counter(),
                  attrs=dict(attrs))
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        except Exception as exc:
            sp.attrs["error"] = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, func, name, attrs_of):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                result = func(*args, **kwargs)
                if attrs_of is not None:
                    sp.attrs.update(attrs_of(result, args))
                return result
        return wrapper

    @contextmanager
    def patched(self):
        saved = []
        try:
            for module_name, attr, name, attrs_of in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, attrs_of))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump([asdict(sp) for sp in self.spans], handle)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    out = {sp.id: sp.duration for sp in spans}
    for sp in spans:
        if sp.parent is not None and sp.parent in out:
            out[sp.parent] -= sp.duration
    return out


def descendants(spans: list[Span], root: Span, name: str) -> list[Span]:
    """Spans called ``name`` below ``root`` (spans are in start order)."""
    inside = {root.id}
    found = []
    for sp in spans:
        if sp.parent in inside:
            inside.add(sp.id)
            if sp.name == name:
                found.append(sp)
    return found
