"""In-memory span recorder for the traced benchmark run.

The tracer wraps public names of `fwconform` from the outside, by
rebinding them where they are looked up (a module namespace or a
class), and restores them afterwards. Each call through a wrapped name
records one span: name, start, end, parent span and campaign id. Spans
stay in memory until `write` puts them out at the end of the run.
A counted name only bumps a per-campaign counter, which keeps the
cheapest, most frequent calls from swamping the trace.
"""

from __future__ import annotations

import csv
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Sequence

# (span name, owner whose attribute is rebound, attribute name)
Target = tuple[str, object, str]


class Tracer:
    """Spans and counts for one traced run; `campaign_id` tags new spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.campaign = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[tuple[str, int]] = Counter()
        self.campaign_id = 0
        self._open = [-1]

    def _span(self, name: str, fn: Callable) -> Callable:
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1])
            self.campaign.append(self.campaign_id)
            self.end.append(0.0)
            self._open.append(index)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                self._open.pop()

        return traced

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[(name, self.campaign_id)] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self, spans: Sequence[Target], counted: Sequence[Target]) -> Iterator[None]:
        """Rebind every target to its wrapper for the duration of the block."""
        saved = []
        try:
            for wrap, targets in ((self._span, spans), (self._count, counted)):
                for name, owner, attr in targets:
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wrap(name, original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children took."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[index] - self.start[index]
        return own

    def roots(self) -> list[int]:
        """For each span, the index of the top-level span it runs under."""
        root = list(range(len(self.parent)))
        for index, parent in enumerate(self.parent):  # parents precede children
            if parent >= 0:
                root[index] = root[parent]
        return root

    def per_campaign(self, values: Sequence[float]) -> dict[str, dict[int, float]]:
        """Sum `values` (one per span) by span name and campaign id."""
        sums: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for nid, camp, value in zip(self.name_id, self.campaign, values):
            sums[self.names[nid]][camp] += value
        return sums

    def write(self, path: Path) -> None:
        """Put every span out as CSV, times in seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if self.start else 0.0
        with open(path, "w", newline="", encoding="utf-8") as handle:
            out = csv.writer(handle)
            out.writerow(("span", "name", "start_s", "end_s", "parent", "campaign"))
            for index in range(len(self.start)):
                out.writerow(
                    (
                        index,
                        self.names[self.name_id[index]],
                        f"{self.start[index] - origin:.9f}",
                        f"{self.end[index] - origin:.9f}",
                        self.parent[index],
                        self.campaign[index],
                    )
                )
