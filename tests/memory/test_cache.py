"""Unit + property tests for the set-associative LRU cache model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.memory.cache import SetAssocCache


def make(size=4096, ways=4, line=64):
    return SetAssocCache(size, ways, line_bytes=line, name="t")


class TestGeometry:
    def test_set_count(self):
        c = make(4096, 4, 64)
        assert c.n_sets == 16

    def test_bad_size_rejected(self):
        with pytest.raises(ConfigError):
            SetAssocCache(1000, 4)

    def test_bad_ways_rejected(self):
        with pytest.raises(ConfigError):
            SetAssocCache(4096, 0)

    def test_non_pow2_sets_rejected(self):
        with pytest.raises(ConfigError):
            SetAssocCache(3 * 64 * 2, 2)

    def test_non_pow2_line_rejected(self):
        with pytest.raises(ConfigError):
            SetAssocCache(4096, 4, line_bytes=48)


class TestBasicBehaviour:
    def test_cold_miss_then_hit(self):
        c = make()
        hit, victim, dirty = c.access(0x1000)
        assert not hit and victim is None and not dirty
        hit, _, _ = c.access(0x1000)
        assert hit

    def test_same_line_different_bytes_hit(self):
        c = make()
        c.access(0x1000)
        hit, _, _ = c.access(0x103F)
        assert hit

    def test_adjacent_lines_are_different(self):
        c = make()
        c.access(0x1000)
        hit, _, _ = c.access(0x1040)
        assert not hit

    def test_lru_eviction_order(self):
        c = make(size=4 * 64, ways=4, line=64)  # 1 set, 4 ways
        for line in range(4):
            c.access_line(line)
        c.access_line(0)        # 0 becomes MRU; LRU is now 1
        c.access_line(4)        # evicts 1
        assert c.access_line(0)[0]      # still resident
        assert not c.access_line(1)[0]  # was evicted

    def test_dirty_eviction_reports_victim(self):
        c = make(size=1 * 64, ways=1, line=64)  # direct-mapped single set
        c.access_line(0, write=True)
        hit, victim, dirty = c.access_line(1)
        assert not hit and victim == 0 and dirty

    def test_clean_eviction_reports_clean_victim(self):
        c = make(size=1 * 64, ways=1, line=64)
        c.access_line(0)
        hit, victim, dirty = c.access_line(1)
        assert not hit and victim == 0 and not dirty

    def test_write_marks_dirty_later(self):
        c = make(size=1 * 64, ways=1, line=64)
        c.access_line(0)               # clean fill
        c.access_line(0, write=True)   # dirty it
        _, victim, dirty = c.access_line(1)
        assert victim == 0 and dirty

    def test_stats_counting(self):
        c = make()
        c.access_line(0)
        c.access_line(0)
        c.access_line(0, write=True)
        assert c.stats.accesses == 3
        assert c.stats.hits == 2
        assert c.stats.misses == 1
        assert c.stats.write_accesses == 1
        assert c.stats.hit_rate == pytest.approx(2 / 3)

    def test_flush_returns_dirty_count_and_empties(self):
        c = make()
        c.access_line(0, write=True)
        c.access_line(1)
        assert c.flush() == 1
        assert c.resident_lines == 0
        assert not c.access_line(0)[0]

    def test_contains_and_invalidate(self):
        c = make()
        c.access_line(5, write=True)
        assert c.contains_line(5)
        assert c.invalidate_line(5) is True       # dirty
        assert not c.contains_line(5)
        assert c.invalidate_line(5) is False      # already gone

    def test_install_line_no_access_count(self):
        c = make()
        before = c.stats.accesses
        c.install_line(3, dirty=True)
        assert c.stats.accesses == before
        assert c.contains_line(3)

    def test_install_line_eviction(self):
        c = make(size=1 * 64, ways=1, line=64)
        c.install_line(0, dirty=True)
        victim, dirty = c.install_line(1, dirty=True)
        assert victim == 0 and dirty


class TestBatch:
    def test_access_lines_matches_singles(self):
        lines = np.array([0, 1, 0, 2, 1, 64, 0], dtype=np.int64)
        c1, c2 = make(), make()
        hits1 = np.array([c1.access_line(int(l))[0] for l in lines])
        hits2, _ = c2.access_lines(lines)
        assert (hits1 == hits2).all()

    def test_access_lines_writes_broadcast(self):
        c = make(size=64, ways=1)
        hits, wbs = c.access_lines(np.array([0, 1]), writes=True)
        assert not hits.any()
        assert wbs[1]  # second access evicted dirty line 0

    def test_sequential_stream_hits_within_line(self):
        c = make()
        addrs = np.arange(0, 1024, 8)  # byte addresses, 8 per line
        lines = addrs >> 6
        hits, _ = c.access_lines(lines)
        assert hits.sum() == len(addrs) - len(np.unique(lines))


class _RefLru:
    """Reference fully-explicit LRU model for property testing."""

    def __init__(self, sets, ways):
        self.sets = sets
        self.ways = ways
        self.state = [[] for _ in range(sets)]

    def access(self, line):
        s = self.state[line % self.sets]
        hit = line in s
        if hit:
            s.remove(line)
        s.insert(0, line)
        if len(s) > self.ways:
            s.pop()
        return hit


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 63), min_size=1, max_size=300),
       st.sampled_from([1, 2, 4, 8]))
def test_property_matches_reference_lru(lines, ways):
    sets = 4
    cache = SetAssocCache(sets * ways * 64, ways)
    assert cache.n_sets == sets
    ref = _RefLru(sets, ways)
    for line in lines:
        got, _, _ = cache.access_line(line)
        want = ref.access(line)
        assert got == want


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 1023), min_size=1, max_size=500))
def test_property_resident_never_exceeds_capacity(lines):
    cache = make(size=2048, ways=2)
    for line in lines:
        cache.access_line(line)
    assert cache.resident_lines <= cache.n_sets * cache.ways


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 255), st.booleans()),
                min_size=1, max_size=300))
def test_property_stats_balance(ops):
    cache = make()
    for line, write in ops:
        cache.access_line(line, write=write)
    s = cache.stats
    assert s.hits + s.misses == s.accesses == len(ops)
    assert s.writebacks <= s.write_accesses


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_property_batch_kernel_matches_scalar_reference(data):
    """access_lines batches must be bit-identical to looping access_line
    — per-access hits and writebacks, final tag/dirty state, and stats —
    including when batches interleave with scalar accesses that carry
    state across."""
    ways = data.draw(st.sampled_from([1, 2, 4, 8]))
    sets = data.draw(st.sampled_from([2, 4, 8]))
    ref = SetAssocCache(sets * ways * 64, ways)
    vec = SetAssocCache(sets * ways * 64, ways)
    for _phase in range(data.draw(st.integers(1, 3))):
        n = data.draw(st.integers(0, 264))
        lines = np.asarray(
            data.draw(st.lists(st.integers(0, 100),
                               min_size=n, max_size=n)), dtype=np.int64)
        writes = np.asarray(
            data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        want_h = np.empty(n, dtype=bool)
        want_w = np.empty(n, dtype=bool)
        for i in range(n):
            h, _v, d = ref.access_line(int(lines[i]), write=bool(writes[i]))
            want_h[i] = h
            want_w[i] = d
        got_h, got_w = vec.access_lines(lines, writes)
        assert np.array_equal(got_h, want_h)
        assert np.array_equal(got_w, want_w)
        # a few scalar accesses in between: state must round-trip
        for line in data.draw(st.lists(st.integers(0, 100), max_size=5)):
            assert (vec.access_line(line, write=True)
                    == ref.access_line(line, write=True))
    for a, b in zip(ref._sets, vec._sets):
        assert a.tags == b.tags and a.dirty == b.dirty
    assert ref.stats == vec.stats
