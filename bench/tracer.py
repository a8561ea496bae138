"""Span tracing of the package's public functions, from outside the package.

``Tracer.install`` wraps every public function of the package (the names in
each module's ``__all__``, plus the public methods of ``SetwiseAccountant``,
``Histogram`` and ``RngState``) and rebinds each wrapper in every module
namespace that holds the original, so calls are caught where they are made,
e.g. ``calibration.eps_inverse`` or ``adaptive.grr_params``. Private helpers
and the scalar primitives in ``SCALAR_PRIMITIVES`` are never wrapped: a
wrapper would cost more than the call.

Spans (name, start, end, parent, request id) stay in flat arrays in memory
and are written out once, at the end. A layer's self time is its spans'
duration minus the time covered by their child spans. No layer has a queue
or a retry, so there is no waiting time to record.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
import types
from array import array
from typing import Callable, Iterator, Optional

import numpy as np

PACKAGE = "dpcomp"
LAYERS = (
    "numerics",
    "nonadaptive",
    "adaptive",
    "setwise",
    "calibration",
    "mechanisms",
    "audit",
    "cli",
)
SCALAR_PRIMITIVES = frozenset(
    {"log_binomial", "log1mexp", "log1pexp", "logsumexp", "std_normal_cdf"}
)
TRACED_CLASSES = {
    "setwise": ("SetwiseAccountant",),
    "mechanisms": ("Histogram", "RngState"),
}
REQUEST_LAYER = "request"


def _sample_draws(args: tuple, kwargs: dict) -> float:
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    return 1.0 if size is None else float(size)


def _mc_trials(args: tuple, kwargs: dict) -> float:
    return float(kwargs.get("n_trials", args[3] if len(args) > 3 else 0))


# Spans that also record an amount of work taken from their arguments.
_AMOUNTS: dict[str, Callable[[tuple, dict], float]] = {
    "mechanisms.sample_laplace": _sample_draws,
    "mechanisms.sample_gaussian": _sample_draws,
    "mechanisms.sample_gumbel": _sample_draws,
    "audit.monte_carlo_delta": _mc_trials,
}


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed duration of its direct children.

    ``parent`` holds the index of each span's parent, or -1 for a root.
    Children of one span never overlap, since calls nest on one thread.
    """
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child


class Tracer:
    """Wraps the package's public functions and records one span per call.

    Recording is off until ``record`` is entered and stops inside
    ``paused``, so output checks and set-up outside the traced region
    leave no spans.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.amount = array("d")
        self.errors: dict[str, int] = {layer: 0 for layer in LAYERS}
        self._stack: list[int] = [-1]
        self._request_id = -1
        self._recording = False
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self
        name_id = self._name_id(name)
        layer = name.split(".", 1)[0]
        amount_of = _AMOUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._recording:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id, amount_of(args, kwargs) if amount_of else 0.0)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer._count_escape(idx, layer)
                raise
            finally:
                tracer._close(idx)

        return traced

    def install(self) -> None:
        """Rebind every public function of the package to a traced wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        root = importlib.import_module(PACKAGE)
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        namespaces = [root, *modules.values()]
        for layer, module in modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not isinstance(fn, types.FunctionType) or attr in SCALAR_PRIMITIVES:
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(fn, f"{layer}.{attr}")
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, key, wrapper)
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(module, cls_name)
                for attr, value in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    name = f"{layer}.{cls_name}.{attr}"
                    if isinstance(value, types.FunctionType):
                        self._patch(cls, attr, self._wrap(value, name))
                    elif isinstance(value, classmethod):
                        self._patch(cls, attr, classmethod(self._wrap(value.__func__, name)))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ record

    def _open(self, name_id: int, amount: float) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.request.append(self._request_id)
        self.amount.append(amount)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _count_escape(self, idx: int, layer: str) -> None:
        # count an exception once per layer it leaves
        parent = self.parent[idx]
        if parent < 0 or self.names[self.name[parent]].split(".", 1)[0] != layer:
            self.errors[layer] += 1

    @contextlib.contextmanager
    def record(self) -> Iterator[None]:
        self._recording = True
        try:
            yield
        finally:
            self._recording = False

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        was, self._recording = self._recording, False
        try:
            yield
        finally:
            self._recording = was

    @contextlib.contextmanager
    def request_span(self, cls: str) -> Iterator[None]:
        """Root span of one benchmark request; package calls nest under it."""
        self._request_id += 1
        idx = self._open(self._name_id(f"{REQUEST_LAYER}.{cls}"), 0.0)
        try:
            yield
        finally:
            self._close(idx)

    # ------------------------------------------------------------ results

    def arrays(self, first: int = 0, last: Optional[int] = None) -> dict[str, np.ndarray]:
        """Spans ``first`` .. ``last`` as numpy arrays; parents re-based."""
        sl = slice(first, last)
        parent = np.asarray(self.parent[sl], dtype=np.int64)
        parent = np.where(parent >= first, parent - first, -1)
        return {
            "name": np.asarray(self.name[sl], dtype=np.int64),
            "start": np.asarray(self.start[sl]),
            "end": np.asarray(self.end[sl]),
            "parent": parent,
            "request": np.asarray(self.request[sl], dtype=np.int64),
            "amount": np.asarray(self.amount[sl]),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())

    def __len__(self) -> int:
        return len(self.name)


class SpanTable:
    """Queries over a block of spans: counts, self time, parent filters."""

    def __init__(self, names: list[str], spans: dict[str, np.ndarray]) -> None:
        self.names = names
        self.spans = spans
        self.self_s = self_times(spans["start"], spans["end"], spans["parent"])
        ids = spans["name"]
        self._label = np.asarray(names + [""], dtype=object)[ids]
        self._layer = np.asarray([n.split(".", 1)[0] for n in names] + [""], dtype=object)[ids]

    def mask(self, names: tuple[str, ...] = (), layer: Optional[str] = None) -> np.ndarray:
        if layer is not None:
            return self._layer == layer
        return np.isin(self._label, list(names))

    def count(self, mask: np.ndarray) -> int:
        return int(np.count_nonzero(mask))

    def self_ms(self, mask: np.ndarray) -> float:
        return float(self.self_s[mask].sum() * 1e3)

    def amount(self, mask: np.ndarray) -> float:
        return float(self.spans["amount"][mask].sum())

    def with_parent(self, child: np.ndarray, parent: np.ndarray) -> np.ndarray:
        """Mask of spans in ``child`` whose direct parent is in ``parent``."""
        p = self.spans["parent"]
        ok = p >= 0
        out = np.zeros_like(child)
        out[ok] = parent[p[ok]]
        return child & out

    def parent_layer_is(self, child: np.ndarray, layer: str) -> np.ndarray:
        return self.with_parent(child, self._layer == layer)
