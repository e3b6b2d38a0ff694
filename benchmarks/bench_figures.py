"""The figure pipeline in absolute seconds, stage by stage.

One ci-scale pass over every paper artifact — ``run_suite(verify=True,
engine="batch", jobs=1)`` plus ``render_report`` — under
:func:`repro.obs.record.recording`. Its wall time is the
``figures_e2e_s`` series; each pipeline stage gets its own series, the
summed duration of the recorder's spans for that stage:

* ``stage_trace_gen_s`` — ``trace-gen:`` (kernel emission and
  verification),
* ``stage_classify_s`` — ``classify:``,
* ``stage_lower_s`` — ``lower:``,
* ``stage_walk_s`` — ``walk:`` (the batch timing walk).

Every value is the best of three passes. All five series are
lower-is-better seconds: ``repro-sdv perf-diff`` judges them with the
ledger's median+MAD detector like every other series, and the bench sets
no floor of its own. Wall times depend on the machine, so a record is
judged only against records from the same machine (the ledger's
``MACHINE_UNITS``); on a machine with no history the verdict is
``insufficient``. Results land in
``benchmarks/results/figures_stages.txt``.
"""

import os
import time

from conftest import record_ledger, write_result

from repro import native
from repro.core.suite import render_report, run_suite
from repro.obs.record import recording, spans

#: ledger series -> span-name prefix of the stage it sums
STAGES = {
    "stage_trace_gen_s": "trace-gen:",
    "stage_classify_s": "classify:",
    "stage_lower_s": "lower:",
    "stage_walk_s": "walk:",
}


def _one_pass(scale_name: str) -> dict[str, float]:
    t0 = time.perf_counter()
    with recording() as rec:
        render_report(run_suite(scale_name=scale_name, verify=True,
                                engine="batch", jobs=1))
    out = {"figures_e2e_s": time.perf_counter() - t0}
    done = spans(rec.records)
    for series, prefix in STAGES.items():
        out[series] = sum(s["t1"] - s["t0"] for s in done
                          if s["name"].startswith(prefix))
    return out


def test_bench_figure_stages():
    scale_name = os.environ.get("REPRO_BENCH_SCALE", "ci")
    native.library()      # the compiled walks build once, outside timing
    run_suite(scale_name="smoke", verify=True, engine="batch", jobs=1)
    passes = [_one_pass(scale_name) for _ in range(3)]
    best = {k: min(p[k] for p in passes) for k in passes[0]}

    lines = [f"figure pipeline by stage — run_suite + render_report, "
             f"scale={scale_name}, jobs=1 (best of 3)"]
    for k, v in best.items():
        share = f"{v / best['figures_e2e_s']:6.1%}" \
            if k != "figures_e2e_s" else ""
        lines.append(f"{k:<20} {v * 1e3:8.1f} ms {share}".rstrip())
    write_result("figures_stages", "\n".join(lines))

    for k, v in best.items():
        record_ledger("bench_figures", k, v, unit="s",
                      attrs={"direction": "lower"})
    # every stage ran, and the stages are disjoint parts of the pass
    assert all(best[k] > 0 for k in STAGES)
    assert best["figures_e2e_s"] > sum(best[k] for k in STAGES)
