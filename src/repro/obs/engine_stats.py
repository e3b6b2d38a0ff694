"""Engine introspection: internal counters from the timing engines.

PR 5 made the hot paths opaque: the calendar-queue event engine, the
batch walk and the caching layers (event plan, classification, lowering,
on-disk traces) all run flat out with no way to see wheel occupancy, slab
recycling, drain depths or hit rates. This module is the collection
point: engines and caches report here, ``repro-sdv profile
--engine-stats`` and the HTML dashboard render it.

Introspection is **opt-in** (:func:`set_introspection`) and designed so
the *disabled* cost is unmeasurable: hot loops hoist one local boolean
per run and check it once per active timestamp — never per token — and
everything else is derived post-run from end-of-run state (slab lengths,
overflow sequence numbers, plan tables). ``benchmarks/
bench_obs_overhead.py`` pins the bars: <=5% with counters on, <=1% with
them off.

Like :mod:`repro.obs.metrics`, snapshots are plain mergeable dicts —
worker processes ship theirs back to the sweep parent. The counter
glossary lives in ``docs/observability.md``.
"""

from __future__ import annotations

#: module-level fast flag: engines read this through
#: :func:`introspection_enabled` once per run (never per event).
_ENABLED = False


class EngineStats:
    """Additive counters plus high-water marks, mergeable across processes.

    ``count`` accumulates (events, cache hits, spills); ``high`` keeps the
    maximum ever seen (drain depth, wheel occupancy, slab size). Both are
    plain ``name -> number`` dicts so snapshots pickle and JSON-serialize.
    """

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.highs: dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def high(self, name: str, value: float) -> None:
        if value > self.highs.get(name, 0):
            self.highs[name] = value

    def snapshot(self) -> dict:
        """Plain-data view: picklable, JSON-serializable, mergeable."""
        return {"counters": dict(self.counters), "highs": dict(self.highs)}

    def merge(self, snapshot: dict) -> None:
        """Fold a snapshot (e.g. from a worker process) into this
        collector: counters add, high-water marks take the maximum."""
        for name, value in snapshot.get("counters", {}).items():
            self.count(name, value)
        for name, value in snapshot.get("highs", {}).items():
            self.high(name, value)

    def clear(self) -> None:
        self.counters.clear()
        self.highs.clear()

    # -- derived views --------------------------------------------------------

    def _rate(self, hits: str, misses: str) -> float | None:
        h = self.counters.get(hits, 0)
        m = self.counters.get(misses, 0)
        return h / (h + m) if h + m else None

    def ratios(self) -> dict[str, float]:
        """Derived hit/efficiency rates (only the ones with data)."""
        out: dict[str, float] = {}
        pairs = {
            "plan_cache.hit_rate": ("plan_cache.hits", "plan_cache.misses"),
            "classify_cache.hit_rate": ("classify_cache.hits",
                                        "classify_cache.misses"),
            "lower_cache.hit_rate": ("lower_cache.hits",
                                     "lower_cache.misses"),
            "trace_cache.hit_rate": ("trace_cache.hits",
                                     "trace_cache.misses"),
            "classify.sidecar_hit_rate": ("classify.sidecar_hits",
                                          "classify.sidecar_misses"),
        }
        for name, (h, m) in pairs.items():
            r = self._rate(h, m)
            if r is not None:
                out[name] = r
        admits = self.counters.get("limiter.admits", 0)
        if admits:
            out["limiter.fast_path_rate"] = (
                self.counters.get("limiter.fast_path_admits", 0) / admits)
        spawns = self.counters.get("event.line_spawns", 0)
        if spawns:
            out["event.slab_recycle_rate"] = (
                self.counters.get("event.lines_recycled", 0) / spawns)
        ts = self.counters.get("event.timestamps", 0)
        if ts:
            out["event.tokens_per_timestamp"] = (
                self.counters.get("event.tokens", 0) / ts)
        runs = (self.counters.get("classify.stack_runs", 0)
                + self.counters.get("classify.walk_runs", 0))
        if runs:
            out["classify.stack_share"] = (
                self.counters.get("classify.stack_runs", 0) / runs)
        return out

    def render(self) -> str:
        """Human-readable counter table (``repro-sdv profile``)."""
        lines = ["engine introspection"]
        if not (self.counters or self.highs):
            lines.append("  (no counters recorded — enable introspection "
                         "and run an engine)")
            return "\n".join(lines)
        for name in sorted(self.counters):
            lines.append(f"  {name:<32s} {self.counters[name]:>14,.0f}")
        for name in sorted(self.highs):
            lines.append(f"  {name + ' (max)':<32s} "
                         f"{self.highs[name]:>14,.0f}")
        ratios = self.ratios()
        for name in sorted(ratios):
            lines.append(f"  {name:<32s} {ratios[name]:>14.3f}")
        return "\n".join(lines)


def snapshot_delta(before: dict, after: dict) -> dict:
    """The stats recorded *between* two snapshots of one collector.

    Worker processes are persistent (the sweep pool survives across
    figures), so a task must ship only its own contribution: counters
    subtract, high-water marks ship as-is (merging them is a max, which
    is idempotent).
    """
    counters: dict[str, float] = {}
    base = before.get("counters", {})
    for name, value in after.get("counters", {}).items():
        d = value - base.get(name, 0)
        if d:
            counters[name] = d
    return {"counters": counters, "highs": dict(after.get("highs", {}))}


#: process-wide collector (harness + engines record here; workers build
#: their own implicitly — it is per-process module state — and the sweep
#: parent merges their snapshots).
_STATS = EngineStats()


def get_engine_stats() -> EngineStats:
    """The process-wide collector."""
    return _STATS


def introspection_enabled() -> bool:
    """Fast flag check; engines call this once per run, then keep a local."""
    return _ENABLED


def set_introspection(enabled: bool) -> EngineStats:
    """Enable/disable engine introspection; returns the collector
    (cleared when switching on, so a report covers one command)."""
    global _ENABLED
    if enabled and not _ENABLED:
        _STATS.clear()
    _ENABLED = bool(enabled)
    return _STATS
