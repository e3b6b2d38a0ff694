"""Seeded-mutation validation of the whole gate.

Each mutation plants exactly the class of bug the linter exists to
catch — a dropped ordering Dep, a shifted address stream, a stale trace
cache entry — in *real* kernel artifacts, and asserts the finding comes
back at ERROR severity (i.e. would fail CI), not as a warning.
"""

import numpy as np

from repro.core.sweeps import run_implementation
from repro.kernels import KERNELS
from repro.lint.findings import Severity
from repro.lint.runner import LintOptions, run_lint
from repro.lint.trace_rules import analyze_snapshot
from repro.soc.sdv import FpgaSdv
from repro.trace.template import (
    _D_PREV,
    _DEP_NONE,
    _V_BASE,
    _V_DEP,
    TemplateSnapshot,
    capture_replications,
)
from repro.workloads import get_scale
from tests.lint.util import error_rules


def _bfs_snapshots(vl: int = 8):
    spec = KERNELS["bfs"]
    wl = spec.prepare(get_scale("smoke"), 7)
    session = FpgaSdv().configure(max_vl=vl).session()
    with capture_replications() as snaps:
        spec.vector(session, wl)
    return snaps


def _mutate_slot(snap: TemplateSnapshot, slot: int,
                 field: int, value) -> TemplateSnapshot:
    var = list(snap.var)
    v = list(var[slot])
    v[field] = value
    var[slot] = tuple(v)
    return TemplateSnapshot(snap.scal, tuple(var), snap.strs,
                            snap.n_iters, snap.start)


def _expansion_snaps():
    """BFS expansion templates whose scatter->gather Dep is load-bearing:
    slot 5 (levels gather) declares Dep.prev on slot 8 (levels scatter),
    and the scatter really does alias the gather across strips."""
    picked = []
    for snap in _bfs_snapshots():
        deps = [v[_V_DEP] for v in snap.var]
        if len(deps) > 8 and deps[5].mode == _D_PREV \
                and deps[5].slot == 8 \
                and analyze_snapshot(snap) == []:
            picked.append(snap)
    assert picked, "no clean BFS expansion snapshot found"
    return picked


class TestMissingDep:
    def test_dropping_the_ordering_dep_is_an_error(self):
        caught = 0
        for snap in _expansion_snaps():
            mutated = _mutate_slot(snap, 5, _V_DEP, _DEP_NONE)
            errs = [f for f in analyze_snapshot(mutated)
                    if f.severity is Severity.ERROR]
            if errs:
                assert error_rules(errs) == ["T001"] * len(errs)
                assert any("slot8" in f.location for f in errs)
                caught += 1
        # every snapshot that was clean only because of the declared dep
        # must now report the undeclared RAW
        assert caught > 0


class TestShiftedAddressStream:
    def test_shifting_the_stream_breaks_dep_coverage(self):
        # a single Dep.prev edge proves ordering at iteration distance 1
        # exactly; shifting the reader's stream one further strip back
        # moves the overlap to distance 2, which that dep no longer
        # covers — the declared dep must not be accepted as a blanket
        # waiver for the pair
        from repro.trace.template import Dep
        from tests.lint.util import STRIDE, mem, replicate

        A = 0x10000

        def build(tpl, n):
            mem(tpl, A, n, write=True)
            mem(tpl, A - STRIDE, n, write=False, dep=Dep.prev(0))
        snap, _ = replicate(build, 8)
        assert error_rules(analyze_snapshot(snap)) == []  # covered

        shifted = _mutate_slot(
            snap, 1, _V_BASE,
            np.asarray(snap.var[1][_V_BASE], dtype=np.int64) - STRIDE)
        errs = [f for f in analyze_snapshot(shifted)
                if f.severity is Severity.ERROR]
        assert error_rules(errs) == ["T001"]
        assert "distance 2" in errs[0].message

    def test_shifting_the_bfs_scatter_is_still_ordered_by_the_cycle(self):
        # control: BFS's gather<->scatter prev-edge cycle covers every
        # distance, so an in-array shift of the scatter must NOT produce
        # an error — the mutation detector has to discriminate, not
        # alarm on any change
        from repro.trace.template import _V_FLAT
        snap = _expansion_snaps()[0]
        mutated = _mutate_slot(
            snap, 8, _V_FLAT,
            np.asarray(snap.var[8][_V_FLAT], dtype=np.int64) + 8)
        assert error_rules(analyze_snapshot(mutated)) == []


class TestStaleTraceCache:
    def _warm(self, tmp_path):
        spec = KERNELS["fft"]
        wl = spec.prepare(get_scale("smoke"), 7)
        run_implementation(spec, wl, 8, trace_cache=tmp_path,
                           verify=False)
        (entry,) = tmp_path.glob("*.npz")
        return entry

    def test_stale_fingerprint_fails_the_gate(self, tmp_path):
        entry = self._warm(tmp_path)
        stem, _ = entry.name.rsplit("-", 1)
        entry.rename(tmp_path / f"{stem}-{'0' * 12}.npz")
        report = run_lint(LintOptions(families=("cache",),
                                      trace_cache=str(tmp_path)))
        assert report.exit_code() == 1
        assert error_rules(report) == ["S002"]

    def test_stale_schema_version_fails_the_gate(self, tmp_path):
        entry = self._warm(tmp_path)
        entry.rename(tmp_path / entry.name.replace("-t", "-t9", 1))
        report = run_lint(LintOptions(families=("cache",),
                                      trace_cache=str(tmp_path)))
        assert report.exit_code() == 1
        assert error_rules(report) == ["S001"]

    def test_fresh_cache_passes_the_gate(self, tmp_path):
        self._warm(tmp_path)
        report = run_lint(LintOptions(families=("cache",),
                                      trace_cache=str(tmp_path)))
        assert report.exit_code() == 0
