"""Span recording around uc_screen's layer boundaries, from outside the package.

A ``Tracer`` replaces chosen module attributes with wrappers while it is
enabled and puts the originals back when it is disabled or exits.  Each wrapped call
leaves one span -- name, request id, parent span, start, end -- in
memory, and adds counts read from the call's return value.  Self time is
a span's duration minus the time its child spans cover; calls run on one
thread, so children never overlap.
"""

import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []            # [name, request, parent, start, end]
        self.counts = Counter()
        self.request = -1          # id of the item being served
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr, name, count=None):
        """Route owner.attr through a span named ``name``.

        ``count(result)`` returns a dict of extra counts for the call; a
        call that raises adds one to ``<name>.raised`` instead.
        """
        fn = getattr(owner, attr)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [name, self.request, stack[-1] if stack else -1,
                    time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            counts[name + ".calls"] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".raised"] += 1
                raise
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if count is not None:
                for key, value in count(result).items():
                    counts[f"{name}.{key}"] += value
            return result

        self._patches.append((owner, attr, fn, traced))
        setattr(owner, attr, traced)

    def enable(self, on):
        """Install (on) or remove (off) every wrapper."""
        for owner, attr, fn, traced in reversed(self._patches):
            setattr(owner, attr, traced if on else fn)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.enable(False)
        self._patches.clear()
        return False

    def self_seconds(self):
        """Total self time per span name."""
        covered = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = defaultdict(float)
        for span, child in zip(self.spans, covered):
            totals[span[0]] += span[4] - span[3] - child
        return totals

    def write(self, path):
        """Spans as JSON lines, times relative to the first span's start."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, request, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps([index, name, request, parent,
                                     start - origin, end - origin]) + "\n")
