"""In-memory span recording around the package's public functions.

A Tracer replaces module attributes with timing wrappers for the duration
of a ``with tracer.patched(sites):`` block and restores the originals on
exit, even when the block raises. Each call becomes one span (name, start,
end, parent); spans live in compact arrays until ``save`` writes them out.

Self time is a span's duration minus the part of it that its direct
children cover, so the self times of a span tree add up to the time its
root spans cover and never count a nested call twice.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Site:
    """One attribute to wrap: ``owner.attr`` is recorded as span ``span``.

    ``on_result(counters, args, kwargs, result)`` runs after each call so
    that work counts are taken where the work happens.
    """

    owner: object
    attr: str
    span: str
    on_result: Callable | None = None


@contextmanager
def patched(sites, make_wrapper):
    """Replace each site's attribute with ``make_wrapper(site, original)``.

    Every replaced attribute is put back on exit, in reverse order, so two
    sites on one attribute unwind correctly.
    """
    saved = []
    try:
        for site in sites:
            original = getattr(site.owner, site.attr)
            saved.append((site.owner, site.attr, original))
            setattr(site.owner, site.attr, make_wrapper(site, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def tap(sites, counters: dict):
    """Untimed wrappers: only each site's ``on_result`` hook runs."""

    def make(site, fn):
        @functools.wraps(fn)
        def tapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            site.on_result(counters, args, kwargs, result)
            return result

        return tapped

    return patched([s for s in sites if s.on_result is not None], make)


class Tracer:
    """Spans of one traced pass, kept in memory, plus the sites' counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counters: dict = {}
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, site: Site, fn):
        nid = self._id(site.span)
        hook = site.on_result
        stack, clock = self._stack, self.clock
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def patched(self, sites):
        return patched(sites, self.wrap)

    def span_names(self) -> list[str]:
        return [self.names[i] for i in self.name_id]

    def self_times(self) -> list[float]:
        return self_times(self.start, self.end, self.parent)

    def save(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the union of its direct children.

    Children are clipped to their parent's interval and overlapping
    children are merged, so the result is never negative.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [end[i] - start[i] for i in range(len(start))]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        reach = lo
        for k in sorted(kids, key=lambda k: start[k]):
            a = max(start[k], reach)
            b = min(end[k], hi)
            if b > a:
                covered += b - a
                reach = b
        out[p] -= covered
    return out


def summarize(names: list[str], durations, selfs) -> dict[str, dict]:
    """calls, self_s and inclusive us_per_call for each span name."""
    table: dict[str, dict] = {}
    for name, dur, own in zip(names, durations, selfs):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += own
    for row in table.values():
        row["us_per_call"] = 1e6 * row["total_s"] / row["calls"]
    return table
