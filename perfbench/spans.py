"""Span recorder that wraps petfuse's public functions from outside it.

`Recorder.install()` replaces every public function and public method of
every petfuse module with a timing wrapper. A function is
patched at each attribute its callers look up: in its defining module, in
every module that imported it by name (`petfuse.harness.train_loop`), and
on the class for methods (`AdamW.step`). A span is named after the layer
(module) and qualified name that define the function, so
`petfuse.harness.train_loop` records as `training.train_loop`.
`uninstall()` puts every original back.

Spans are tuples (id, parent id, name, start, end, tag) held in memory; the
caller writes them out when it is done. Self time is derived from the parent
links after the run, never during it.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import json
import pkgutil
import statistics
import time
from contextlib import contextmanager

PACKAGE = "petfuse"
SPAN_FIELDS = ("id", "parent", "name", "start", "end", "tag")


class Recorder:
    """In-memory span recorder for one single-threaded process.

    `tags` maps a span name to `fn(args, kwargs, result)`; its return value
    is stored in the span's tag field (a size, a flag, a subcommand).
    `only`, when given, is the set of span names to wrap; nothing else is.
    """

    def __init__(self, tags=None, only=None):
        self.tags = dict(tags or {})
        self.only = only
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name: str):
        tag_fn = self.tags.get(name)
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            tag = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if tag_fn is not None:
                    tag = tag_fn(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end, tag))

        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap the public functions and methods of every petfuse module."""
        if self._patches:
            raise RuntimeError("recorder is already installed")
        modules = package_modules()
        wrappers = {}  # id(original function) -> wrapper
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    if self.wanted(f"{layer}.{attr}"):
                        wrappers[id(value)] = self.wrap(value, f"{layer}.{attr}")
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._install_methods(value, layer)
        # patch every module-level binding of a wrapped function, so that
        # `from .training import train_loop` callers are traced as well
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value)) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _install_methods(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if not self.wanted(name):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self.wrap(raw.__func__, name))
            elif inspect.isfunction(raw):
                patched = self.wrap(raw, name)
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, patched)

    def wanted(self, name: str) -> bool:
        return self.only is None or name in self.only

    def uninstall(self):
        """Restore every patched attribute to the object it held before."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write_jsonl(self, path, **extra):
        """Append every span as one JSON object per line, plus `extra` keys."""
        with open(path, "a", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({**extra, **dict(zip(SPAN_FIELDS, s))},
                                   default=str) + "\n")


def package_modules():
    """petfuse and all of its direct submodules, imported."""
    pkg = importlib.import_module(PACKAGE)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return mods


# -- analysis -----------------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children.

    Calls are single-threaded and properly nested, so children never
    overlap and their durations can be summed.
    """
    own = {s[0]: s[4] - s[3] for s in spans}
    for sid, parent, _name, start, end, _tag in spans:
        if parent is not None and parent in own:
            own[parent] -= end - start
    return own


def effective_layers(spans, absorbing=()) -> dict[int, str]:
    """Span id -> the layer its self time is charged to.

    A span charges its own layer, except below a span named in `absorbing`:
    everything such a span calls is charged to the absorbing span's layer
    (the leakage audit fits its probe with AdamW, which is not training).
    """
    out: dict[int, str] = {}
    absorber: dict[int, str | None] = {}
    # ids are handed out when a span opens, so a parent sorts before its children
    for sid, parent, name, *_ in sorted(spans):
        inherited = absorber.get(parent)
        out[sid] = inherited or layer_of(name)
        absorber[sid] = inherited or (layer_of(name) if name in absorbing else None)
    return out


def layer_self_times(spans, absorbing=()) -> dict[str, float]:
    """Layer -> summed self time of the spans charged to it."""
    own = self_times(spans)
    layers = effective_layers(spans, absorbing)
    out: dict[str, float] = {}
    for sid, secs in own.items():
        out[layers[sid]] = out.get(layers[sid], 0.0) + secs
    return out


def percentile(values, q: float) -> float:
    """q-th percentile (0-100) by linear interpolation; 0.0 for no values."""
    values = sorted(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1])


def phase_intervals(spans, marks) -> dict[str, list[float]]:
    """Phase -> the durations of its intervals, for one repetition.

    `marks` are (time, label) pairs in time order; phase `label` runs from
    its mark to the next one, so the last mark only closes a phase. The
    start and end of every span are ticks that cut a phase into intervals.
    """
    ticks = sorted([s[3] for s in spans] + [s[4] for s in spans])
    out = {}
    for (t0, label), (t1, _) in zip(marks, marks[1:]):
        edges = [t0, *ticks[bisect.bisect_right(ticks, t0):
                             bisect.bisect_left(ticks, t1)], t1]
        out[label] = [b - a for a, b in zip(edges, edges[1:])]
    return out


def floor_phases(reps) -> dict[str, float]:
    """Phase -> seconds, from repetitions that did the same work.

    Each interval is taken at its fastest over the repetitions, and a phase
    is the sum of its intervals. When the repetitions cut a phase into a
    different number of intervals, the phase's fastest whole time is used.
    """
    out = {}
    for label in reps[0]:
        runs = [r[label] for r in reps]
        if len({len(d) for d in runs}) == 1:
            out[label] = sum(min(col) for col in zip(*runs))
        else:
            out[label] = min(sum(d) for d in runs)
    return out
