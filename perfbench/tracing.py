"""In-memory spans and counters recorded around the benchmark's calls into ruwitness.

A span is (name, start, end, parent span index, item id).  Spans stay in
memory while the workload runs and are written as JSON lines once it ends,
so recording costs one list append per call.  Spans live in the benchmark,
around public ruwitness calls; nothing inside the package is traced.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

ITEM = "item"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, str] | None] = []
        self.counts: Counter[str] = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.seen: set = set()  # inputs already processed, for repeat shares
        self._stack: list[int] = []
        self._item = ""

    def _open(self) -> tuple[int, float]:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, perf_counter()

    def _close(self, name: str, index: int, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[index] = (name, start, end, parent, self._item)

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""

        def traced(*args, **kwargs):
            index, start = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, index, start)

        return traced

    def begin_item(self, item_id: str) -> tuple[int, float]:
        self._item = item_id
        return self._open()

    def end_item(self, token: tuple[int, float]) -> None:
        self._close(ITEM, *token)

    def busy(self) -> dict[str, tuple[int, float]]:
        """Per span name: number of calls and total seconds inside them."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for name, start, end, _parent, _item in self.spans:
            out[name][0] += 1
            out[name][1] += end - start
        return {name: (calls, seconds) for name, (calls, seconds) in out.items()}

    def item_self_seconds(self) -> float:
        """Time inside item spans not covered by their child call spans."""
        total = 0.0
        for name, start, end, parent, _item in self.spans:
            if name == ITEM:
                total += end - start
            elif parent is not None and self.spans[parent][0] == ITEM:
                total -= end - start
        return total

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")
