"""Set-associative LRU cache model: the LRU reference.

Nothing in ``repro`` instantiates it. Classification walks the core's
private L1D and each shared-L2 bank in ``classify.c`` or in
:func:`repro.memory.classify._dict_walk`, which follow this class's
per-set true-LRU policy, and the tests check :mod:`repro.memory.reuse`'s
miss-ratio curve against it. The model is *behavioural*: it answers
hit/miss (and writeback) questions for a stream of line addresses in
program order.

State per set is a plain Python list of tags ordered MRU-first — sets are
small (8/16 ways) so ``list.remove`` + ``insert(0, ...)`` beats any fancier
structure at these sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.util.mathx import is_pow2, log2_int
from repro.util.units import LINE_BYTES


@dataclass
class CacheStats:
    """Hit/miss/writeback counters for one cache instance."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    #: per-call breakdown, useful in tests
    write_accesses: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            accesses=self.accesses + other.accesses,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            writebacks=self.writebacks + other.writebacks,
            write_accesses=self.write_accesses + other.write_accesses,
        )


@dataclass
class _Set:
    tags: list[int] = field(default_factory=list)   # MRU first
    dirty: set[int] = field(default_factory=set)


class SetAssocCache:
    """Write-back, write-allocate, true-LRU set-associative cache."""

    def __init__(self, size_bytes: int, ways: int, *, line_bytes: int = LINE_BYTES,
                 name: str = "cache") -> None:
        if ways < 1:
            raise ConfigError(f"ways must be >= 1, got {ways}")
        if not is_pow2(line_bytes):
            raise ConfigError(f"line size must be a power of two, got {line_bytes}")
        if size_bytes % (ways * line_bytes) != 0:
            raise ConfigError(
                f"{name}: size {size_bytes} not a multiple of ways*line"
            )
        n_sets = size_bytes // (ways * line_bytes)
        if not is_pow2(n_sets):
            raise ConfigError(
                f"{name}: derived set count {n_sets} is not a power of two"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.line_shift = log2_int(line_bytes)
        self.n_sets = n_sets
        self.set_mask = n_sets - 1
        self.stats = CacheStats()
        self._sets: list[_Set] = [_Set() for _ in range(n_sets)]

    # -- single access (reference semantics, used by the event engine) ------

    def access(self, addr: int, *, write: bool = False
               ) -> tuple[bool, int | None, bool]:
        """Access one byte address.

        Returns ``(hit, victim_line, victim_dirty)``: ``victim_line`` is the
        line evicted by this access (or ``None``), and ``victim_dirty`` says
        whether it must be written back to the next level.
        """
        line = addr >> self.line_shift
        return self.access_line(line, write=write)

    def access_line(self, line: int, *, write: bool = False
                    ) -> tuple[bool, int | None, bool]:
        """Access one line number; see :meth:`access`."""
        s = self._sets[line & self.set_mask]
        tag = line  # full line number doubles as tag (set bits redundant)
        self.stats.accesses += 1
        if write:
            self.stats.write_accesses += 1
        tags = s.tags
        if tag in tags:
            self.stats.hits += 1
            if tags[0] != tag:
                tags.remove(tag)
                tags.insert(0, tag)
            if write:
                s.dirty.add(tag)
            return True, None, False

        self.stats.misses += 1
        tags.insert(0, tag)
        if write:
            s.dirty.add(tag)
        if len(tags) > self.ways:
            victim = tags.pop()
            if victim in s.dirty:
                s.dirty.discard(victim)
                self.stats.writebacks += 1
                return False, victim, True
            return False, victim, False
        return False, None, False

    def install_line(self, line: int, *, dirty: bool = False
                     ) -> tuple[int | None, bool]:
        """Install a line without counting an access (writeback allocation).

        Used when a lower-level writeback lands in this cache: the full line
        arrives so no fill from below is needed. Returns
        ``(victim_line, victim_dirty)``.
        """
        s = self._sets[line & self.set_mask]
        tags = s.tags
        if line in tags:
            if tags[0] != line:
                tags.remove(line)
                tags.insert(0, line)
            if dirty:
                s.dirty.add(line)
            return None, False
        tags.insert(0, line)
        if dirty:
            s.dirty.add(line)
        if len(tags) > self.ways:
            victim = tags.pop()
            if victim in s.dirty:
                s.dirty.discard(victim)
                self.stats.writebacks += 1
                return victim, True
            return victim, False
        return None, False

    # -- batched access -------------------------------------------------------

    def access_lines(self, lines: np.ndarray, writes: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Access a stream of line numbers in order.

        Returns boolean arrays ``(hits, writebacks)`` aligned with ``lines``
        (``writebacks[i]`` is True when access ``i`` evicted a dirty line).
        ``writes`` may be None (all reads) or a scalar-broadcastable bool
        array.
        """
        lines = np.asarray(lines, dtype=np.int64)
        n = lines.shape[0]
        if writes is None:
            writes_arr = np.zeros(n, dtype=bool)
        else:
            writes_arr = np.broadcast_to(np.asarray(writes, dtype=bool), (n,))
        hits = np.empty(n, dtype=bool)
        wbs = np.zeros(n, dtype=bool)
        access_line = self.access_line  # bind for loop speed
        for i in range(n):
            h, _victim, dirty = access_line(int(lines[i]),
                                            write=bool(writes_arr[i]))
            hits[i] = h
            wbs[i] = dirty
        return hits, wbs

    # -- maintenance ---------------------------------------------------------

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty lines dropped."""
        dirty = sum(len(s.dirty) for s in self._sets)
        for s in self._sets:
            s.tags.clear()
            s.dirty.clear()
        return dirty

    def contains_line(self, line: int) -> bool:
        return line in self._sets[line & self.set_mask].tags

    def invalidate_line(self, line: int) -> bool:
        """Remove a line (coherence recall). Returns True if it was dirty."""
        s = self._sets[line & self.set_mask]
        if line not in s.tags:
            return False
        s.tags.remove(line)
        if line in s.dirty:
            s.dirty.discard(line)
            return True
        return False

    @property
    def resident_lines(self) -> int:
        return sum(len(s.tags) for s in self._sets)
