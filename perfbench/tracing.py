"""In-memory span tracing around spnkit's public functions.

Spans are recorded by wrappers installed at the module attributes that
callers look up at call time (for example ``training.spn_forward`` or
``guidance.interp_matrix``), so spnkit itself is never edited. Every module
attribute that refers to the same function object gets the same wrapper;
that is how a function re-exported under several names (``interp_matrix``
lives in both ``tensor`` and ``guidance``) is counted once per call.

A span is ``(span_id, parent_id, name, start, end)``. Self time is a span's
duration minus the durations of its direct children; because the program is
single threaded, children nest inside their parent and never overlap.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

# Spans that stand for a whole operation rather than a layer. Time under a
# root that no other span covers is the "unattributed" share.
ROOTS = ("bench.op", "training.train", "cli.main")


class Tracer:
    """Records spans and per-span counters while installed."""

    def __init__(self, targets):
        # targets: list of (module, attribute, span name, hook or None).
        # A hook is called as hook(args, kwargs, result) after the span ends
        # and returns a dict of counters to add under the span's name and
        # the name of the outermost open span.
        self.targets = targets
        self.spans = []
        self.counters = defaultdict(lambda: defaultdict(float))
        self._stack = []          # open (span id, name)
        self._open_names = defaultdict(int)
        self._nested_same = set()  # span ids inside a span of the same name
        self._next_id = 1
        self._wrappers = self._build_wrappers()

    def _build_wrappers(self):
        by_fn = {}
        for module, attr, name, hook in self.targets:
            fn = getattr(module, attr)
            if id(fn) not in by_fn:
                by_fn[id(fn)] = (name, self._wrap(fn, name, hook))
            elif by_fn[id(fn)][0] != name:
                raise ValueError(
                    f"{module.__name__}.{attr} is already traced as {by_fn[id(fn)][0]!r}")
        return {key: wrapper for key, (_, wrapper) in by_fn.items()}

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                root = self._stack[0][1] if self._stack else None
                for key, value in hook(args, kwargs, result).items():
                    self.counters[root, name][key] += value
            return result
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def span(self, name):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        if self._open_names[name]:
            self._nested_same.add(span_id)
        self._stack.append((span_id, name))
        self._open_names[name] += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open_names[name] -= 1
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    @contextmanager
    def installed(self):
        """Patch every target attribute for the duration of the block."""
        saved = []
        for module, attr, _, _ in self.targets:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, self._wrappers[id(fn)])
        try:
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def summary(self, top: str):
        """Aggregate the spans under top-level spans named `top`.

        Returns a dict with:
          ``inclusive``: name -> seconds, counting a span nested inside a
            span of the same name only once;
          ``calls``: name -> number of spans;
          ``self``: name -> seconds not covered by direct children;
          ``counters``: name -> counters its hook added;
          ``root_s``: total duration of root spans that are not nested in
            another root;
          ``attributed_s``: time under those roots covered by non-root spans.
        """
        parents = {i: p for i, p, _, _, _ in self.spans}
        names = {i: n for i, _, n, _, _ in self.spans}
        tops = {0: None}

        def top_of(span_id):
            chain = []
            while span_id not in tops:
                chain.append(span_id)
                span_id = parents[span_id]
            found = tops[span_id] if span_id else chain[-1]
            for i in chain:
                tops[i] = found
            return found

        spans = [s for s in self.spans if names[top_of(s[0])] == top]
        inclusive, calls = defaultdict(float), defaultdict(int)
        child_s, self_s = defaultdict(float), defaultdict(float)
        for span_id, parent, name, start, end in spans:
            calls[name] += 1
            if span_id not in self._nested_same:
                inclusive[name] += end - start
            child_s[parent] += end - start
        root_s = attributed_s = 0.0
        for span_id, parent, name, start, end in spans:
            self_s[name] += (end - start) - child_s[span_id]
            parent_name = names.get(parent)
            if name in ROOTS and parent_name not in ROOTS:
                root_s += end - start
            elif name not in ROOTS and parent_name in ROOTS:
                attributed_s += end - start
        counters = {name: dict(c) for (root, name), c in self.counters.items()
                    if root == top}
        return {"inclusive": dict(inclusive), "calls": dict(calls),
                "self": dict(self_s), "counters": counters, "root_s": root_s,
                "attributed_s": attributed_s}

    def dump(self, path):
        """Write the recorded spans and counters as JSON."""
        t0 = self.spans[0][3] if self.spans else 0.0
        doc = {
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": [[i, p, n, round(s - t0, 9), round(e - t0, 9)]
                      for i, p, n, s, e in sorted(self.spans, key=lambda r: r[3])],
            "counters": {f"{root}/{name}": dict(c)
                         for (root, name), c in self.counters.items()},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
