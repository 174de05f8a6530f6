"""Spans around prunecert's public functions, one layer per module.

The layers are the modules ``cli``, ``pruner``, ``certifier``,
``controlsim``, ``policy`` and ``linalg``.  ``Tracer.install`` wraps every
public function of each (its ``__all__``, or every public name for ``cli``,
which has none) and every public classmethod of its public classes.  The
wrapper is bound under every name in every ``prunecert`` namespace that held
the original, because modules import each other's functions by name
(``cli`` does ``from prunecert.pruner import rank_weights``).

Spans live in memory as parallel lists; ``take`` hands them over and starts
a fresh set, so a caller can reduce one job's spans before the next job.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("cli", "pruner", "certifier", "controlsim", "policy", "linalg")

# span name -> (counter name, result -> amount) for counts taken at a boundary
COUNTERS = {
    "pruner.rank_weights": ("entries", len),
    "policy.forward_batch": ("columns", lambda r: r.shape[1]),
    "pruner.prune_to_budget": ("removed", lambda r: sum(len(lp.mask) for lp in r[1].layers)),
}


@dataclass
class Spans:
    """One batch of spans; index ``i`` across the lists is span ``i``.

    ``parents[i]`` is the index of the span open when span ``i`` began, or
    -1 for a root.  ``counts`` maps a span index to its counter amount.
    """

    names: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    failed: list[bool] = field(default_factory=list)
    counts: dict[int, int] = field(default_factory=dict)


def public_targets():
    """Yield ``(span name, owner, attribute, original)`` for every wrapped callable.

    ``original`` is the raw class attribute for classmethods, so restoring
    it puts back the exact descriptor.
    """
    for layer in LAYERS:
        mod = importlib.import_module(f"prunecert.{layer}")
        names = getattr(mod, "__all__", None)
        if names is None:
            names = [n for n in vars(mod) if not n.startswith("_")]
        for n in names:
            obj = getattr(mod, n)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{layer}.{n}", mod, n, obj
            elif inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    if not attr.startswith("_") and isinstance(raw, classmethod):
                        yield f"{layer}.{n}.{attr}", obj, attr, raw


def _namespaces():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "prunecert" or name.startswith("prunecert."))
    ]


class Tracer:
    """Installs span-recording wrappers and collects their spans."""

    def __init__(self):
        self._spans = Spans()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._spans
            sid = len(s.starts)
            s.names.append(name)
            s.parents.append(stack[-1] if stack else -1)
            s.ends.append(0.0)
            s.failed.append(False)
            stack.append(sid)
            s.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                s.failed[sid] = True
                raise
            finally:
                s.ends[sid] = clock()
                stack.pop()
            if counter is not None:
                s.counts[sid] = counter[1](result)
            return result

        return traced

    def install(self) -> None:
        targets = list(public_targets())
        namespaces = _namespaces()
        for name, owner, attr, original in targets:
            if isinstance(original, classmethod):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, classmethod(self._wrap(name, original.__func__)))
                continue
            wrapper = self._wrap(name, original)
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def take(self) -> Spans:
        """Return the spans recorded so far and start an empty batch."""
        spans, self._spans = self._spans, Spans()
        return spans


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        cur_a = cur_b = None
        for a, b in sorted((max(starts[k], lo), min(ends[k], hi)) for k in kids):
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out[p] -= covered
    return out


def summarize(spans: Spans) -> dict[str, float]:
    """Reduce one job's spans to flat per-function and per-layer figures.

    Keys are ``<span>.self_s``, ``<span>.calls``, ``<span>.failed``,
    ``<span>.<counter>``, ``<layer>.self_s``, ``trace.root_s`` (the summed
    duration of root spans) and ``pruner.prune_to_budget.norms`` (the
    ``linalg.spectral_norm`` calls inside completed ``prune_to_budget``
    spans).
    """
    out: dict[str, float] = defaultdict(float)
    selfs = self_times(spans.starts, spans.ends, spans.parents)
    for i, name in enumerate(spans.names):
        out[f"{name}.self_s"] += selfs[i]
        out[f"{name}.calls"] += 1
        out[f"{name}.failed"] += spans.failed[i]
        out[f"{name.split('.', 1)[0]}.self_s"] += selfs[i]
        if spans.parents[i] < 0:
            out["trace.root_s"] += spans.ends[i] - spans.starts[i]
    for i, amount in spans.counts.items():
        name = spans.names[i]
        out[f"{name}.{COUNTERS[name][0]}"] += amount
    budget_spans = {
        i for i, n in enumerate(spans.names)
        if n == "pruner.prune_to_budget" and not spans.failed[i]
    }
    for i, name in enumerate(spans.names):
        if name != "linalg.spectral_norm":
            continue
        p = spans.parents[i]
        while p >= 0 and p not in budget_spans:
            p = spans.parents[p]
        if p >= 0:
            out["pruner.prune_to_budget.norms"] += 1
    return dict(out)
