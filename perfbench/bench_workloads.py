"""The benchmark's three workloads, each a closed loop of one caller.

Every workload has the same shape:

* ``setup(seed, traced)`` — prepare inputs and warm up; returns the state
  the timed iterations run on (``traced`` marks the single-process traced
  pass, which skips warming the worker pool);
* ``iterate(state, jobs)`` — one timed iteration;
* ``digest(result)`` — the ``cycles_digest`` of one iteration's rows;
* ``checks(state, result)`` — the output checks and the accuracy figures,
  computed outside the timed section.

The layer entry points are always resolved through their modules at call
time (``suite_mod.run_suite``, ``KERNELS[name]``, ...), so the wrappers of
:func:`spans.traced` see every call.
"""

from __future__ import annotations

import hashlib
import importlib

#: workload scales: ``ci`` for the whole study, ``paper`` for the
#: Section 3.1 sizes of SpMV and FFT
CI, PAPER = "ci", "paper"

#: the two kernels whose paper-scale traces are affordable per iteration
#: (BFS and PageRank at paper scale take ~70 s and ~2.5 GB per pass)
SPMV_FFT = ("spmv", "fft")


def import_repro() -> None:
    """Import every module the workloads use (counted in ``setup_s``)."""
    for name in ("repro.core.suite", "repro.core.sweeps",
                 "repro.core.report", "repro.core.figures",
                 "repro.core.parallel", "repro.kernels", "repro.soc.sdv",
                 "repro.workloads",
                 # imported lazily by run_suite and render_report
                 "repro.lint.config_rules", "repro.kernels.micro",
                 "repro.core.analysis"):
        importlib.import_module(name)


def _mods():
    import repro.core.report as report_mod
    import repro.core.suite as suite_mod
    import repro.core.sweeps as sweeps_mod
    import repro.kernels as kernels_mod

    return suite_mod, sweeps_mod, report_mod, kernels_mod.KERNELS


def _impls():
    from repro.core.sweeps import DEFAULT_VLS

    return [None, *DEFAULT_VLS]


def _label(vl):
    return "scalar" if vl is None else f"vl{vl}"


def _grid():
    """The crossed (latency, bandwidth) grid: Figure 3's axis x Figure 5's."""
    from repro.core.sweeps import DEFAULT_BANDWIDTHS, DEFAULT_LATENCIES

    return [(lat, bw) for lat in DEFAULT_LATENCIES
            for bw in DEFAULT_BANDWIDTHS]


def cycles_digest(rows) -> str:
    """Hash of every (kernel, impl, latency, bandwidth, cycles) row."""
    h = hashlib.sha256()
    for row in sorted(rows):
        h.update(repr(row).encode())
    return h.hexdigest()[:16]


def _sweep_rows(result):
    return [(m.kernel, m.impl, m.extra_latency, m.bandwidth_bpc,
             float(m.cycles)) for m in result.measurements]


def instret(trace) -> int:
    """Retired instructions of a trace: scalar ALU and memory operations
    plus vector instructions (the hardware counters' definition)."""
    from repro.trace.events import REC_SCALAR, REC_VECTOR

    cols = trace.cols
    scalar = cols.kind == REC_SCALAR
    spans = cols.addr_off[1:] - cols.addr_off[:-1]
    return int(cols.n_alu[scalar].sum() + spans[scalar].sum()
               + (cols.kind == REC_VECTOR).sum())


def verified_traces(kernels, scale_name: str, seed: int,
                    checks: list) -> dict:
    """Generate every (kernel, impl) trace once with verification on.

    Appends one ``(name, ok)`` check per trace; returns
    ``{(kernel, impl): (sdv, trace)}`` for the traces that verified.
    """
    from repro.errors import KernelError
    from repro.workloads import get_scale

    _suite, sweeps_mod, _report, KERNELS = _mods()
    scale = get_scale(scale_name)
    out = {}
    for name in kernels:
        spec = KERNELS[name]
        workload = spec.prepare(scale, seed)
        reference = spec.reference(workload)
        for vl in _impls():
            try:
                out[name, _label(vl)] = sweeps_mod.run_implementation(
                    spec, workload, vl, verify=True, reference=reference)
                checks.append((f"verify {scale_name} {name}/{_label(vl)}",
                               True))
            except KernelError:
                checks.append((f"verify {scale_name} {name}/{_label(vl)}",
                               False))
    return out


def des_probe(traces: dict) -> float:
    """max |event / batch - 1| over the given traces at the default knobs."""
    worst = 0.0
    for sdv, trace in traces.values():
        event = sdv.time(trace, engine="event").cycles
        batch = sdv.time(trace, engine="batch").cycles
        worst = max(worst, abs(event / batch - 1.0))
    return worst


def headline_err(spmv_latency) -> float:
    """Largest relative error of the four Section 4.1 SpMV slowdowns
    against the values printed in the paper."""
    suite_mod = _mods()[0]
    h = suite_mod.headline_numbers(spmv_latency)
    return max(abs(ours / paper - 1.0) for _, ours, paper in h.rows())


def paper_shapes(spmv_latency, spmv_bandwidth) -> list:
    """The paper's claims as checks: SpMV scalar slows more than vl256 at
    +1024 cycles, and the Section 4.2 plateaus order scalar <= vl8 <=
    vl256."""
    from repro.core.figures import figure4_table

    suite_mod = _mods()[0]
    slow = figure4_table(spmv_latency)
    at = spmv_latency.points.index(1024)
    plateau = [suite_mod.plateau_bandwidth(spmv_bandwidth, impl)
               for impl in ("scalar", "vl8", "vl256")]
    return [
        ("spmv scalar slows more than vl256 at +1024",
         slow["scalar"][at] > slow["vl256"][at]),
        ("spmv plateau order scalar <= vl8 <= vl256",
         plateau[0] <= plateau[1] <= plateau[2]),
    ]


# ---------------------------------------------------------------- study-ci

class StudyCi:
    """``repro-sdv report --scale ci``: run_suite over all four kernels and
    seven impls with verification, batch engine, one process, no trace
    cache, then render_report. It regenerates every paper artifact with
    every pipeline layer doing real work."""

    jobs = 1

    def setup(self, seed: int, traced: bool = False) -> dict:
        from repro.workloads import get_scale

        KERNELS = _mods()[3]
        scale = get_scale(CI)
        for spec in KERNELS.values():
            spec.prepare(scale, seed)
        return {"seed": seed}

    def iterate(self, state: dict, jobs: int | None = None):
        suite_mod = _mods()[0]
        suite = suite_mod.run_suite(scale_name=CI, seed=state["seed"],
                                    verify=True, engine="batch", jobs=1)
        return suite, suite_mod.render_report(suite, seed=state["seed"])

    def digest(self, result) -> str:
        suite, _text = result
        rows = []
        for sweeps in (suite.latency, suite.bandwidth):
            for res in sweeps.values():
                rows.extend(_sweep_rows(res))
        return cycles_digest(rows)

    def checks(self, state: dict, result):
        suite, text = result
        KERNELS = _mods()[3]
        checks = [("report renders every section",
                   all(s in text for s in ("## Headline numbers",
                                           "## Figure 3", "## Figure 4",
                                           "## Figure 5",
                                           "## Plateau summary")))]
        traces = verified_traces(list(KERNELS), CI, state["seed"], checks)
        points = (len(next(iter(suite.latency.values())).points)
                  + len(next(iter(suite.bandwidth.values())).points))
        work = 0
        for (_name, impl), (_sdv, trace) in traces.items():
            # render_report re-times each kernel's vl256 trace once more
            work += instret(trace) * (points + (impl == "vl256"))
        checks += paper_shapes(suite.latency["spmv"], suite.bandwidth["spmv"])
        return checks, {
            "headline_err": headline_err(suite.latency["spmv"]),
            "model_divergence": des_probe(
                {k: v for k, v in traces.items() if k[0] in SPMV_FFT}),
            "instret_points": work,
            "artifacts": {"report.md": text},
        }


# ----------------------------------------------------------- explore-paper

class ExplorePaper:
    """Paper-scale SpMV and FFT traces, built once in set-up, re-timed each
    iteration over the crossed 7x7 latency x bandwidth grid (K=49) in one
    batch walk per trace. Only the walk works here, at wide K on ~10x
    longer traces, so a trace-generation or classification change should
    leave its wall_s unchanged."""

    jobs = 1

    def setup(self, seed: int, traced: bool = False) -> dict:
        checks: list = []
        traces = verified_traces(SPMV_FFT, PAPER, seed, checks)
        runs = {}
        for key, (sdv, trace) in traces.items():
            sdv.lower(trace)  # classification + lowering, knob-independent
            base = sdv.config
            configs = [base.with_extra_latency(lat).with_bandwidth(bw)
                       for lat, bw in _grid()]
            runs[key] = (sdv, trace, configs)
        return {"seed": seed, "runs": runs, "setup_checks": checks}

    def iterate(self, state: dict, jobs: int | None = None):
        return {key: sdv.time_many(trace, configs, engine="batch",
                                   reports=False)
                for key, (sdv, trace, configs) in state["runs"].items()}

    def digest(self, result) -> str:
        return cycles_digest(self._rows(result))

    def _rows(self, result):
        return [(kernel, impl, lat, bw, float(c))
                for (kernel, impl), cycles in result.items()
                for (lat, bw), c in zip(_grid(), cycles)]

    def _figures(self, result):
        """The grid's Figure 3 row (full bandwidth) and Figure 5 column
        (no added latency) as SweepResults, per kernel."""
        from repro.core.measurements import Measurement, SweepResult

        lats = sorted({lat for lat, _ in _grid()})
        bws = sorted({bw for _, bw in _grid()})
        impls = [_label(vl) for vl in _impls()]
        out = {}
        for kernel in SPMV_FFT:
            lat_res = SweepResult(kernel=kernel, axis="latency",
                                  points=lats, impls=impls)
            bw_res = SweepResult(kernel=kernel, axis="bandwidth",
                                 points=bws, impls=impls)
            for (k, impl, lat, bw, c) in self._rows(result):
                if k != kernel:
                    continue
                m = Measurement(kernel=k, impl=impl, extra_latency=lat,
                                bandwidth_bpc=bw, cycles=c)
                if bw == bws[-1]:
                    lat_res.add(m)
                if lat == 0:
                    bw_res.add(m)
            out[kernel] = (lat_res, bw_res)
        return out

    def checks(self, state: dict, result):
        report_mod = _mods()[2]
        checks = list(state["setup_checks"])
        figs = self._figures(result)
        artifacts = {}
        for kernel, (lat_res, bw_res) in figs.items():
            artifacts[f"fig3_{kernel}.txt"] = report_mod.render_figure3(
                lat_res)
            artifacts[f"fig5_{kernel}.txt"] = report_mod.render_figure5(
                bw_res)
        checks += paper_shapes(*figs["spmv"])
        work = sum(instret(trace) * len(configs)
                   for _sdv, trace, configs in state["runs"].values())
        probe = verified_traces(SPMV_FFT, CI, state["seed"], checks)
        return checks, {
            "headline_err": headline_err(figs["spmv"][0]),
            "model_divergence": des_probe(probe),
            "instret_points": work,
            "artifacts": artifacts,
        }


# ------------------------------------------------------------- des-sharded

class DesSharded:
    """A ci-scale Figure-3 latency sweep of SpMV and FFT on the event
    engine with two workers, through the default sharded scheduler. No
    paper figure takes this path, so it is the only workload where the
    event DES, the shm trace plane and the pool do the work; the batch
    walk is bypassed."""

    jobs = 2

    def setup(self, seed: int, traced: bool = False) -> dict:
        from repro.core.parallel import shutdown_pool
        from repro.workloads import get_scale

        _suite, sweeps_mod, _report, KERNELS = _mods()
        scale = get_scale(CI)
        workloads = {k: KERNELS[k].prepare(scale, seed) for k in SPMV_FFT}
        if not traced:
            # start (or restart) the worker pool with a tiny sharded sweep
            shutdown_pool()
            spec = KERNELS["spmv"]
            sweeps_mod.latency_sweep(
                spec, spec.prepare(get_scale("smoke"), seed),
                latencies=(0, 32), vls=(8,), engine="event", jobs=self.jobs)
        return {"seed": seed, "workloads": workloads}

    def iterate(self, state: dict, jobs: int | None = None):
        from repro.core.sweeps import DEFAULT_LATENCIES, DEFAULT_VLS

        _suite, sweeps_mod, _report, KERNELS = _mods()
        return {k: sweeps_mod.latency_sweep(
                    KERNELS[k], wl, latencies=DEFAULT_LATENCIES,
                    vls=DEFAULT_VLS, engine="event",
                    jobs=self.jobs if jobs is None else jobs)
                for k, wl in state["workloads"].items()}

    def digest(self, result) -> str:
        return cycles_digest([row for res in result.values()
                              for row in _sweep_rows(res)])

    def checks(self, state: dict, result):
        report_mod = _mods()[2]
        checks: list = []
        traces = verified_traces(SPMV_FFT, CI, state["seed"], checks)
        artifacts = {}
        worst = 0.0
        work = 0
        for kernel, res in result.items():
            artifacts[f"fig3_{kernel}.txt"] = report_mod.render_figure3(res)
            artifacts[f"fig4_{kernel}.txt"] = report_mod.render_figure4(res)
            event = {(m.impl, m.extra_latency): m.cycles
                     for m in res.measurements}
            for impl in res.impls:
                if (kernel, impl) not in traces:
                    continue  # already counted as a failed check
                sdv, trace = traces[kernel, impl]
                configs = [sdv.config.with_extra_latency(p)
                           for p in res.points]
                batch = sdv.time_many(trace, configs, engine="batch",
                                      reports=False)
                for p, b in zip(res.points, batch):
                    worst = max(worst, abs(event[impl, p] / b - 1.0))
                work += instret(trace) * len(res.points)
        return checks, {
            "headline_err": headline_err(result["spmv"]),
            "model_divergence": worst,
            "instret_points": work,
            "artifacts": artifacts,
        }


WORKLOADS = {
    "study-ci": StudyCi(),
    "explore-paper": ExplorePaper(),
    "des-sharded": DesSharded(),
}
