"""Command-line entry point: regenerate the paper's figures.

Examples::

    repro-sdv fig3 --kernel spmv --scale ci
    repro-sdv fig3 --kernel spmv --plot --color    # terminal line plot
    repro-sdv fig3 --kernel all --jobs 4 --trace-cache .traces
    repro-sdv fig4 --kernel all --scale paper --color
    repro-sdv fig5 --kernel fft
    repro-sdv headline --scale paper
    repro-sdv characterize --kernel all            # roofline placement
    repro-sdv validate                             # run every kernel check
    repro-sdv info
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from pathlib import Path

from repro.config import SdvConfig
from repro.core.analysis import characterize, roofline_bound
from repro.core.figures import headline_numbers
from repro.core.plots import plot_figure3, plot_figure5
from repro.core.report import (
    render_counters,
    render_figure3,
    render_figure4,
    render_figure5,
    render_headline,
)
from repro.core.sweeps import (
    DEFAULT_BANDWIDTHS,
    DEFAULT_LATENCIES,
    DEFAULT_SWEEP_ENGINE,
    DEFAULT_VLS,
    bandwidth_sweep,
    latency_sweep,
)
from repro.engine import ENGINES
from repro.errors import ConfigError
from repro.kernels import KERNELS
from repro.obs.manifest import build_manifest, write_manifest
from repro.obs.perfetto import trace_events_from_spans, write_trace
from repro.obs.record import (
    Recorder,
    counter_table,
    fold,
    get_recorder,
    recording,
    write_runlog,
)
from repro.workloads import get_scale
from repro.workloads.scales import SCALE_NAMES


def _kernel_names(arg: str) -> list[str]:
    return list(KERNELS) if arg == "all" else [arg]


def _vls(arg: str) -> tuple[int, ...]:
    """The ``--vls`` type: 'paper' or a comma list of VLs the config
    rules accept."""
    if arg == "paper":
        return DEFAULT_VLS
    try:
        vls = tuple(int(x) for x in arg.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"'{arg}' is neither 'paper' nor a comma list of integers"
        ) from None
    from repro.lint.config_rules import check_vls
    from repro.lint.findings import Severity

    errors = [f.message for f in check_vls(vls)
              if f.severity >= Severity.ERROR]
    if errors:
        raise argparse.ArgumentTypeError("; ".join(errors))
    return vls


#: the study flags a subcommand may take, with their add_argument options
_STUDY_FLAGS: dict[str, dict] = {
    "--kernel": dict(default="all", choices=(*KERNELS, "all"),
                     help="kernel to run (default all)"),
    "--scale": dict(default="ci", choices=SCALE_NAMES,
                    help="workload scale (default ci)"),
    "--vls": dict(default="paper", type=_vls,
                  help="comma list of VLs or 'paper' (8..256)"),
    "--seed": dict(type=int, default=7),
    "--no-verify": dict(action="store_true",
                        help="skip functional verification against "
                             "references"),
    "--csv": dict(action="store_true",
                  help="emit raw CSV instead of rendered tables"),
    "--engine": dict(default=DEFAULT_SWEEP_ENGINE, choices=sorted(ENGINES),
                     help="re-timing engine for sweep points "
                          "(default batch)"),
    "--jobs": dict(type=int, default=1,
                   help="worker processes for trace generation "
                        "(0 = all CPUs, default 1)"),
    "--trace-cache": dict(default=None, metavar="DIR",
                          help="directory for the on-disk trace cache; "
                               "repeated runs skip kernel re-execution"),
}
#: what every study subcommand reads
_BASE_FLAGS = ("--kernel", "--scale", "--vls", "--seed")
#: how a study run goes: verification, engine, workers and trace cache
_RUN_FLAGS = ("--no-verify", "--engine", "--jobs", "--trace-cache")


def _add_common(p: argparse.ArgumentParser, flags: tuple[str, ...]) -> None:
    """Give ``p`` the study flags it reads, so any other is a usage
    error."""
    for flag in flags:
        p.add_argument(flag, **_STUDY_FLAGS[flag])


def _add_emit(p: argparse.ArgumentParser) -> None:
    p.add_argument("--emit-json", default=None, metavar="PATH",
                   help="write a schema-versioned JSON export (plus a "
                        "sibling run manifest for sweep commands)")
    p.add_argument("--emit-trace", default=None, metavar="PATH",
                   help="write a Chrome/Perfetto trace_event JSON dump of "
                        "the harness spans (and engine timelines for "
                        "'profile')")
    p.add_argument("--emit-runlog", default=None, metavar="PATH",
                   help="write the structured JSONL run log (one ordered "
                        "stream merged across worker processes)")
    p.add_argument("--engine-stats", action="store_true",
                   help="collect and print engine-introspection counters "
                        "(wheel occupancy, slab recycling, cache hit rates)")


def _emit_path(path: str, kernel: str, multi: bool) -> Path:
    """Per-kernel artifact path: suffix the stem when --kernel all."""
    p = Path(path)
    if not multi:
        return p
    return p.with_name(f"{p.stem}-{kernel}{p.suffix}")


def _recorder_for(args) -> contextlib.AbstractContextManager[Recorder]:
    """What a profile or figure command records into: a fresh recorder
    when an emit flag or ``--engine-stats`` asks for records, else the
    process-wide one (off unless the caller switched it on)."""
    if (args.emit_json or args.emit_trace or args.emit_runlog
            or args.engine_stats):
        return recording()
    return contextlib.nullcontext(get_recorder())


def _sweep_manifest(result, *, engine: str, scale: str, seed: int,
                    records: list[dict]) -> dict:
    """Run manifest for a SweepResult (buckets included when attributed,
    the folded counters of ``records`` when there are any)."""
    runs = []
    for m in result.measurements:
        run = {"impl": m.impl, "cycles": m.cycles,
               "extra_latency": m.extra_latency,
               "bandwidth_bpc": m.bandwidth_bpc}
        if m.attribution is not None:
            run["buckets"] = dict(m.attribution.buckets)
        runs.append(run)
    return build_manifest(
        kernel=result.kernel, engine=engine,
        config=SdvConfig().validate(), runs=runs, scale=scale, seed=seed,
        axis=result.axis, points=list(result.points),
        extra={"engine_stats": fold(records)} if records else None,
    )


def _profile(args, vls: tuple[int, ...], verify: bool,
             rec: Recorder) -> int:
    """``repro-sdv profile``: one attribution table per kernel."""
    from repro.obs.profile import profile_kernel
    names = _kernel_names(args.kernel)
    multi = len(names) > 1
    for name in names:
        rec.event("profile.kernel", kernel=name, engine=args.engine,
                  scale=args.scale)
        r = profile_kernel(name, scale=args.scale, seed=args.seed,
                           vls=vls, engine=args.engine,
                           include_scalar=not args.no_scalar,
                           verify=verify, trace_cache=args.trace_cache,
                           timelines=bool(args.emit_trace))
        print(r.render(fractions=args.fractions))
        print()
        if args.engine_stats:
            print(r.render_engine_stats())
            print()
        if args.emit_json:
            path = _emit_path(args.emit_json, name, multi)
            write_manifest(path, r.manifest())
            print(f"wrote {path}", file=sys.stderr)
        if args.emit_trace:
            path = _emit_path(args.emit_trace, name, multi)
            write_trace(path, r.trace_events(),
                        metadata={"kernel": name, "engine": args.engine,
                                  "scale": args.scale})
            print(f"wrote {path}", file=sys.stderr)
    if args.emit_runlog:
        path = write_runlog(args.emit_runlog, rec.records,
                            command="profile", kernels=names,
                            scale=args.scale, engine=args.engine)
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _figures(args, scale, vls: tuple[int, ...], verify: bool,
             rec: Recorder) -> int:
    """``repro-sdv fig3|fig4|fig5``: one sweep per kernel."""
    names = _kernel_names(args.kernel)
    # attribution buckets ride along in the JSON export's manifest
    attributions = bool(args.emit_json)
    for name in names:
        rec.reset()
        start = len(rec.records)
        spec = KERNELS[name]
        t0 = time.time()
        workload = spec.prepare(scale, args.seed)
        if args.command == "fig3":
            result = latency_sweep(spec, workload,
                                   latencies=DEFAULT_LATENCIES, vls=vls,
                                   verify=verify, engine=args.engine,
                                   jobs=args.jobs,
                                   trace_cache=args.trace_cache,
                                   attributions=attributions)
            if args.csv:
                print(result.to_csv())
            elif args.plot:
                print(plot_figure3(result, color=args.color))
            else:
                print(render_figure3(result))
        elif args.command == "fig4":
            result = latency_sweep(spec, workload,
                                   latencies=DEFAULT_LATENCIES, vls=vls,
                                   verify=verify, engine=args.engine,
                                   jobs=args.jobs,
                                   trace_cache=args.trace_cache,
                                   attributions=attributions)
            print(result.to_csv() if args.csv
                  else render_figure4(result, color=args.color))
        elif args.command == "fig5":
            result = bandwidth_sweep(spec, workload,
                                     bandwidths=DEFAULT_BANDWIDTHS, vls=vls,
                                     verify=verify, engine=args.engine,
                                     jobs=args.jobs,
                                     trace_cache=args.trace_cache,
                                     attributions=attributions)
            if args.csv:
                print(result.to_csv())
            elif args.plot:
                print(plot_figure5(result, color=args.color))
            else:
                print(render_figure5(result))
        if args.emit_json:
            manifest = _sweep_manifest(result, engine=args.engine,
                                       scale=args.scale, seed=args.seed,
                                       records=rec.records[start:])
            result.meta["manifest"] = manifest
            path = _emit_path(args.emit_json, name, len(names) > 1)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(result.to_json(), encoding="utf-8")
            sibling = write_manifest(
                path.with_name(path.stem + ".manifest.json"), manifest)
            print(f"wrote {path} and {sibling}", file=sys.stderr)
        print(f"[{name}: {time.time() - t0:.1f}s]", file=sys.stderr)
        print()
    if args.engine_stats:
        print(counter_table(rec.records))
        print()
    if args.emit_runlog:
        path = write_runlog(args.emit_runlog, rec.records,
                            command=args.command, kernels=names,
                            scale=args.scale, engine=args.engine)
        print(f"wrote {path}", file=sys.stderr)
    if args.emit_trace:
        path = write_trace(args.emit_trace,
                           trace_events_from_spans(rec.records),
                           metadata={"command": args.command,
                                     "kernels": names,
                                     "scale": args.scale})
        print(f"wrote {path}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-sdv",
        description="Reproduce the SC'23 long-vector study on the simulated "
                    "FPGA-SDV",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p3 = sub.add_parser("fig3", help="execution time vs extra latency")
    _add_common(p3, tuple(_STUDY_FLAGS))
    _add_emit(p3)
    p3.add_argument("--plot", action="store_true",
                    help="terminal line plot instead of a table")
    p3.add_argument("--color", action="store_true",
                    help="paper colors: scalar blue, VLs in a red gradient")
    p4 = sub.add_parser("fig4", help="normalized slowdown heat tables")
    _add_common(p4, tuple(_STUDY_FLAGS))
    _add_emit(p4)
    p4.add_argument("--color", action="store_true",
                    help="ANSI green-to-red gradient")
    p5 = sub.add_parser("fig5", help="normalized time vs bandwidth limit")
    _add_common(p5, tuple(_STUDY_FLAGS))
    _add_emit(p5)
    p5.add_argument("--plot", action="store_true",
                    help="terminal line plot instead of a table")
    p5.add_argument("--color", action="store_true",
                    help="paper colors: scalar blue, VLs in a red gradient")
    pf = sub.add_parser("profile",
                        help="per-VL cycle attribution: where each "
                             "implementation's cycles go")
    _add_common(pf, (*_BASE_FLAGS, "--no-verify", "--engine",
                     "--trace-cache"))
    _add_emit(pf)
    pf.add_argument("--fractions", action="store_true",
                    help="show bucket shares of the total instead of cycles")
    pf.add_argument("--no-scalar", action="store_true",
                    help="omit the scalar build from the table")
    ph = sub.add_parser("headline",
                        help="Section 4.1 quoted numbers, measured vs paper")
    # headline always runs SpMV, so it takes no --kernel
    _add_common(ph, ("--scale", "--vls", "--seed", *_RUN_FLAGS))
    pc = sub.add_parser("characterize",
                        help="roofline placement + traffic per kernel")
    _add_common(pc, (*_BASE_FLAGS, "--no-verify"))
    pv = sub.add_parser("validate",
                        help="verify every implementation against references")
    _add_common(pv, _BASE_FLAGS)
    pr = sub.add_parser("report",
                        help="run the whole study and write a Markdown report")
    _add_common(pr, (*_BASE_FLAGS, *_RUN_FLAGS))
    pr.add_argument("--output", default="REPORT.md",
                    help="output path (default REPORT.md)")
    pp = sub.add_parser("probe",
                        help="STREAM/gather/latency machine characterization")
    pp.add_argument("--max-vl", type=int, default=256)
    pp.add_argument("--extra-latency", type=int, default=0)
    pp.add_argument("--bandwidth", type=int, default=None,
                    help="Bandwidth Limiter target in B/cycle")
    sub.add_parser("info", help="print the simulated machine configuration")
    pd = sub.add_parser("perf-diff",
                        help="judge the latest value of every perf-ledger "
                             "series against its trailing history "
                             "(median + MAD)")
    pd.add_argument("--ledger", default="benchmarks/results/ledger.jsonl",
                    metavar="PATH", help="ledger JSONL file "
                    "(default benchmarks/results/ledger.jsonl)")
    pd.add_argument("--strict", action="store_true",
                    help="also fail on series with insufficient history")
    pdash = sub.add_parser("dash",
                           help="self-contained HTML run dashboard from "
                                "emitted artifacts")
    pdash.add_argument("--output", default="dashboard.html",
                       help="output path (default dashboard.html)")
    pdash.add_argument("--manifest", action="append", default=[],
                       metavar="PATH", help="run manifest / sweep JSON "
                       "export to include (repeatable)")
    pdash.add_argument("--runlog", default=None, metavar="PATH",
                       help="JSONL run log to render as a timeline")
    pdash.add_argument("--ledger", default=None, metavar="PATH",
                       help="perf ledger to render as trend sparklines")
    pdash.add_argument("--title", default=None,
                       help="dashboard page title")
    pl = sub.add_parser("lint",
                        help="static verification of trace templates, "
                             "kernel emitters and sweep configs")
    from repro.lint.runner import add_lint_arguments
    add_lint_arguments(pl)

    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        # an illegal knob the command's arguments set: a usage error
        sub.choices[args.command].error(str(exc))


def _run(args) -> int:
    """Run the parsed command."""
    if args.command == "lint":
        from repro.lint.runner import run_lint_cli
        return run_lint_cli(args)

    if args.command == "perf-diff":
        from repro.obs.ledger import (
            load_and_validate,
            perf_diff,
            render_perf_diff,
        )
        try:
            records = load_and_validate(args.ledger)
        except ValueError as exc:
            print(f"perf-diff: {exc}", file=sys.stderr)
            return 2
        results = perf_diff(records)
        print(render_perf_diff(results))
        bad = {"regression", "insufficient"} if args.strict \
            else {"regression"}
        return 1 if any(v.status in bad for _, v in results) else 0

    if args.command == "dash":
        from repro.obs.htmlreport import build_dashboard
        try:
            path = build_dashboard(
                args.output, manifests=args.manifest, runlog=args.runlog,
                ledger=args.ledger, title=args.title,
            )
        except (OSError, ValueError) as exc:
            print(f"dash: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {path}")
        return 0

    if args.command == "report":
        from repro.core.suite import render_report, run_suite
        suite = run_suite(scale_name=args.scale, seed=args.seed,
                          vls=args.vls,
                          kernels=_kernel_names(args.kernel),
                          verify=not args.no_verify,
                          engine=args.engine, jobs=args.jobs,
                          trace_cache=args.trace_cache)
        text = render_report(suite)
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output} ({len(text.splitlines())} lines, "
              f"{suite.elapsed_s:.1f}s of simulation)")
        return 0

    if args.command == "probe":
        from repro.kernels.micro import characterize_machine
        from repro.soc import FpgaSdv
        sdv = FpgaSdv().configure(max_vl=args.max_vl,
                                  extra_latency=args.extra_latency,
                                  bandwidth_bpc=args.bandwidth)
        print(f"machine probe (max VL={args.max_vl}, "
              f"+{args.extra_latency} latency, "
              f"{sdv.bandwidth_bpc:.0f} B/cycle limit)")
        print(characterize_machine(sdv).render())
        return 0

    if args.command == "info":
        cfg = SdvConfig().validate()
        print("FPGA-SDV (simulated)")
        print(f"  core : {cfg.core}")
        print(f"  vpu  : {cfg.vpu}")
        print(f"  noc  : {cfg.noc}")
        print(f"  l2   : {cfg.l2}")
        print(f"  mem  : {cfg.mem}")
        print(f"  L2 hit latency  : {cfg.l2_hit_latency:.0f} cycles")
        print(f"  DRAM latency    : {cfg.dram_latency:.0f} cycles (min)")
        return 0

    scale = get_scale(args.scale)
    vls = args.vls

    if args.command == "profile":
        with _recorder_for(args) as rec:
            return _profile(args, vls, not args.no_verify, rec)

    if args.command == "headline":
        if 256 not in vls:  # the quoted numbers are read at VL 256
            raise ConfigError("headline needs VL 256 in --vls (got "
                              f"{','.join(map(str, vls))})")
        spec = KERNELS["spmv"]
        workload = spec.prepare(scale, args.seed)
        result = latency_sweep(spec, workload, vls=vls,
                               verify=not args.no_verify,
                               engine=args.engine, jobs=args.jobs,
                               trace_cache=args.trace_cache)
        print(render_headline(headline_numbers(result)))
        # Section 3.2 counter view at the longest VL: what fraction of
        # instructions were vector, what DRAM rate was sustained, and
        # where the cycles went (the sweep above already verified it)
        from repro.core.sweeps import run_implementation
        vmax = max(vls)
        sdv, trace = run_implementation(spec, workload, vmax, verify=False)
        report = sdv.time(trace, engine=args.engine)
        report.attribution = sdv.attribute(trace, engine=args.engine)
        print()
        print(render_counters(sdv.counters, label=f"spmv/vl{vmax}"))
        return 0

    if args.command == "validate":
        from repro.core.sweeps import run_implementation
        failures = 0
        for name in _kernel_names(args.kernel):
            spec = KERNELS[name]
            workload = spec.prepare(scale, args.seed)
            for vl in (None,) + tuple(vls):
                label = "scalar" if vl is None else f"vl{vl}"
                try:
                    run_implementation(spec, workload, vl, verify=True)
                    print(f"  ok   {name}/{label}")
                except Exception as exc:  # pragma: no cover - failure path
                    failures += 1
                    print(f"  FAIL {name}/{label}: {exc}")
        print("all implementations verified" if failures == 0
              else f"{failures} failures")
        return 1 if failures else 0

    if args.command == "characterize":
        from repro.core.sweeps import run_implementation
        from repro.util.tables import TextTable
        cfg = SdvConfig().validate()
        t = TextTable(["kernel", "impl", "AI (flop/B)", "flops/cyc",
                       "roof", "DRAM B/cyc", "vec frac"])
        for name in _kernel_names(args.kernel):
            spec = KERNELS[name]
            workload = spec.prepare(scale, args.seed)
            for vl in (None, max(vls)):
                label = "scalar" if vl is None else f"vl{vl}"
                sdv, trace = run_implementation(spec, workload, vl,
                                                verify=not args.no_verify)
                ct = sdv.classify(trace)
                report = sdv.time(trace)
                c = characterize(ct, report, kernel=name, impl=label)
                roof = roofline_bound(cfg, c.arithmetic_intensity,
                                      vector=vl is not None)
                t.add_row([name, label, f"{c.arithmetic_intensity:.3f}",
                           f"{c.flops_per_cycle:.3f}", f"{roof:.2f}",
                           f"{c.dram_bytes_per_cycle:.2f}",
                           f"{sdv.counters.vector_fraction * 100:.0f}%"])
        print(t.render())
        return 0

    with _recorder_for(args) as rec:
        return _figures(args, scale, vls, not args.no_verify, rec)


if __name__ == "__main__":
    raise SystemExit(main())
