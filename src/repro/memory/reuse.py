"""Reuse-distance analysis (Mattson stack algorithm).

A trace's *reuse-distance histogram* — for each access, the number of
distinct lines touched since the previous access to the same line — fully
determines its hit rate in any fully-associative LRU cache: an access hits
a cache of C lines iff its reuse distance is < C. That makes the histogram
the compact, cache-size-independent fingerprint of a workload's locality,
and the standard tool for answering "how big an L2 would this kernel
need?" without re-running the cache simulator per size.

Provided here:

* :func:`reuse_distances` — per-access distances for a line stream
  (O(N log N) with a Fenwick tree over last-access times);
* :class:`ReuseProfile` — histogram + derived miss-ratio curve and
  working-set summaries;
* :func:`profile_trace` — build the profile for a recorded trace's memory
  reference stream (scalar refs and vector line requests combined, in
  program order).

The unit tests validate the miss-ratio curve against direct simulation
with :class:`repro.memory.cache.SetAssocCache` at full associativity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import TraceError
from repro.memory.classify import _coalesce_lines
from repro.trace.events import ScalarBlock, TraceBuffer, VectorInstr, VOpClass
from repro.util.mathx import log2_int
from repro.util.units import LINE_BYTES

#: histogram bucket for first-touch (compulsory) accesses
INFINITE = -1


def prev_occurrence(lines: np.ndarray) -> np.ndarray:
    """Index of the previous access to the same line (-1 for first touch).

    Vectorized (one stable sort); the compulsory-miss accounting of
    :func:`reuse_distances`.
    """
    lines = np.asarray(lines, dtype=np.int64)
    n = lines.shape[0]
    prev = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return prev
    order = np.argsort(lines, kind="stable")
    ls = lines[order]
    same = np.zeros(n, dtype=bool)
    np.equal(ls[1:], ls[:-1], out=same[1:])
    prev[order[same]] = order[np.flatnonzero(same) - 1]
    return prev


def first_touch_mask(lines: np.ndarray) -> np.ndarray:
    """True at every compulsory (first-touch) access of a line stream."""
    return prev_occurrence(lines) < 0


class _Fenwick:
    """Fenwick (binary indexed) tree for prefix sums over time slots."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.tree = np.zeros(n + 1, dtype=np.int64)

    def add(self, i: int, delta: int) -> None:
        i += 1
        while i <= self.n:
            self.tree[i] += delta
            i += i & (-i)

    def prefix(self, i: int) -> int:
        """Sum of slots [0, i]."""
        i += 1
        s = 0
        while i > 0:
            s += self.tree[i]
            i -= i & (-i)
        return int(s)


def _stream_distances(lines: np.ndarray) -> np.ndarray:
    """Stack distances of one contiguous stream (no set partitioning)."""
    n = lines.shape[0]
    out = np.full(n, INFINITE, dtype=np.int64)
    if n == 0:
        return out
    # compulsory misses are exactly the prev < 0 rows
    prev = prev_occurrence(lines).tolist()
    tree = _Fenwick(n)
    for t in range(n):
        p = prev[t]
        if p >= 0:
            # distinct lines touched strictly between p and t: the tree
            # holds a 1 at each line's latest occurrence before t
            out[t] = tree.prefix(t - 1) - tree.prefix(p)
            tree.add(p, -1)
        tree.add(t, 1)
    return out


def reuse_distances(lines: np.ndarray, *,
                    set_mask: int | None = None) -> np.ndarray:
    """LRU stack distance of every access in a line-number stream.

    Returns an int64 array aligned with ``lines``; first touches get
    :data:`INFINITE` (-1).

    With ``set_mask`` the stream is partitioned by cache set — the same
    per-set partition the fast classifier uses — and each access gets its
    *within-set* stack distance: a ``W``-way true-LRU set-associative
    cache hits an access iff that distance is ``< W``, so the per-set
    histogram plays the role the plain one plays for fully-associative
    caches.
    """
    lines = np.asarray(lines, dtype=np.int64)
    if set_mask is None or lines.shape[0] == 0:
        return _stream_distances(lines)
    sets = lines & set_mask
    order = np.argsort(sets, kind="stable")
    s_sorted = sets[order]
    heads = np.ones(s_sorted.shape[0], dtype=bool)
    heads[1:] = s_sorted[1:] != s_sorted[:-1]
    bounds = np.flatnonzero(heads).tolist() + [s_sorted.shape[0]]
    l_sorted = lines[order]
    out = np.empty(lines.shape[0], dtype=np.int64)
    for a, b in zip(bounds, bounds[1:]):
        out[order[a:b]] = _stream_distances(l_sorted[a:b])
    return out


@dataclass(frozen=True)
class ReuseProfile:
    """Reuse-distance histogram of one reference stream."""

    distances: np.ndarray      # per access; -1 = compulsory
    n_lines: int               # distinct lines (working set, lines)

    @property
    def accesses(self) -> int:
        return int(self.distances.shape[0])

    @property
    def compulsory(self) -> int:
        return int((self.distances == INFINITE).sum())

    @property
    def footprint_bytes(self) -> int:
        return self.n_lines * LINE_BYTES

    @cached_property
    def _finite_sorted(self) -> np.ndarray:
        """Sorted finite distances; the curve is read off it by bisection."""
        d = self.distances
        return np.sort(d[d != INFINITE])

    def miss_ratio(self, cache_lines: int) -> float:
        """Miss ratio in a fully-associative LRU cache of ``cache_lines``.

        An access hits iff its distance is finite and ``< cache_lines``,
        so the miss count is compulsory + finite distances beyond the
        capacity — one bisection into the sorted distance distribution.
        """
        if self.accesses == 0:
            return 0.0
        hits = int(np.searchsorted(self._finite_sorted, cache_lines,
                                   side="left"))
        return (self.accesses - hits) / self.accesses

    def miss_ratio_curve(self, sizes_bytes: list[int]) -> dict[int, float]:
        """size (bytes) -> miss ratio, for plotting/working-set analysis."""
        if self.accesses == 0:
            return dict.fromkeys(sizes_bytes, 0.0)
        cls = np.array([max(1, s // LINE_BYTES) for s in sizes_bytes],
                       dtype=np.int64)
        hits = np.searchsorted(self._finite_sorted, cls, side="left")
        return {s: float((self.accesses - h) / self.accesses)
                for s, h in zip(sizes_bytes, hits.tolist())}

    def working_set_bytes(self, target_hit_rate: float = 0.95) -> int:
        """Smallest power-of-two cache size reaching the target hit rate.

        Returns the full footprint if even that cannot reach it
        (compulsory misses bound the achievable hit rate).
        """
        if not 0 < target_hit_rate < 1:
            raise TraceError("target hit rate must be in (0, 1)")
        size = LINE_BYTES
        limit = max(LINE_BYTES, self.footprint_bytes * 2)
        while size <= limit:
            if 1.0 - self.miss_ratio(size // LINE_BYTES) >= target_hit_rate:
                return size
            size *= 2
        return self.footprint_bytes


def line_stream(trace: TraceBuffer, *, coalesce_gathers: bool = True
                ) -> np.ndarray:
    """Program-order 64-byte line reference stream of a trace."""
    shift = log2_int(LINE_BYTES)
    chunks: list[np.ndarray] = []
    for rec in trace:
        if isinstance(rec, ScalarBlock):
            if rec.n_mem_ops:
                chunks.append(rec.mem_addrs >> shift)
        elif isinstance(rec, VectorInstr) and rec.op is VOpClass.MEM:
            chunks.append(_coalesce_lines(rec.addrs, rec.pattern,
                                          coalesce_gathers))
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)


def profile_trace(trace: TraceBuffer, **kwargs) -> ReuseProfile:
    """Reuse profile of a recorded trace's memory reference stream."""
    lines = line_stream(trace, **kwargs)
    return ReuseProfile(
        distances=reuse_distances(lines),
        # distinct lines = first touches; same accounting the classifier
        # uses for compulsory misses
        n_lines=int(first_touch_mask(lines).sum()) if lines.size else 0,
    )
