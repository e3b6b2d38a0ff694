"""One-shot converter: existing ``results/*.txt`` dumps -> ledger records.

The perf ledger (``repro.obs.ledger``) starts life with whatever history
the repo already has: the committed throughput/overhead text dumps each
carry one headline number per series, and this script parses them into
schema-versioned ``ledger.jsonl`` records so the median+MAD detector has
a seed point per series before the benches themselves start appending.

Run from the repo root (idempotence is on the caller: records carry
``attrs.backfill: true`` so re-runs are detectable, but the script always
appends)::

    PYTHONPATH=src python benchmarks/backfill_ledger.py [--ledger PATH]
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

_BACKFILL = {"backfill": True}


def _parse_des(text: str) -> list[dict]:
    scale = re.search(r"scale=(\w+)", text)
    speedup = re.search(r"speedup\s*:\s*([\d.]+)x", text)
    if not speedup:
        return []
    # the dump holds the compiled DES against its coroutine spec
    return [{"bench": "bench_engines", "metric": "des_compiled_speedup",
             "value": float(speedup.group(1)), "unit": "ratio",
             "scale": scale.group(1) if scale else "ci",
             "attrs": dict(_BACKFILL)}]


def _parse_retiming(text: str) -> list[dict]:
    speedup = re.search(r"speedup:\s*([\d.]+)x", text)
    if not speedup:
        return []
    # the retiming dump predates scale tagging; it was produced at the
    # default bench scale
    return [{"bench": "bench_engines", "metric": "batch_speedup",
             "value": float(speedup.group(1)), "unit": "ratio",
             "scale": "ci", "attrs": dict(_BACKFILL)}]


def _parse_trace_gen(text: str) -> list[dict]:
    scale = re.search(r"scale=(\w+)", text)
    out = []
    for m in re.finditer(
            r"^(\w+)\s+\d+\s+[\d.]+ms\s+[\d.]+ms\s+[\d.]+ms\s+([\d.]+)x",
            text, re.MULTILINE):
        out.append({"bench": "bench_trace_gen",
                    "metric": f"{m.group(1)}_speedup",
                    "value": float(m.group(2)), "unit": "ratio",
                    "scale": scale.group(1) if scale else "paper",
                    "attrs": dict(_BACKFILL)})
    return out


def _parse_obs_overhead(text: str) -> list[dict]:
    out = []
    pairs = (("spans_overhead_pct", r"spans on\)\s*:.*\(([+-][\d.]+)%\)"),
             ("attribution_overhead_pct",
              r"attribution buckets\s*:.*\(([+-][\d.]+)%"))
    for metric, pattern in pairs:
        m = re.search(pattern, text)
        if m:
            out.append({"bench": "bench_obs_overhead", "metric": metric,
                        "value": float(m.group(1)), "unit": "pct",
                        "scale": "ci",
                        "attrs": {**_BACKFILL, "direction": "lower"}})
    return out


_PARSERS = {
    "engine_des_throughput.txt": _parse_des,
    "engine_retiming_throughput.txt": _parse_retiming,
    "trace_gen_throughput.txt": _parse_trace_gen,
    "obs_overhead.txt": _parse_obs_overhead,
}


def backfill(ledger_path, results_dir=RESULTS_DIR) -> int:
    """Parse every recognized dump under ``results_dir`` and append the
    extracted records; returns how many records were written."""
    from repro.obs.ledger import append_record, build_record

    written = 0
    for filename, parse in _PARSERS.items():
        path = Path(results_dir) / filename
        if not path.exists():
            continue
        for fields in parse(path.read_text(encoding="utf-8")):
            append_record(ledger_path, build_record(**fields))
            print(f"  {filename}: {fields['bench']}:{fields['metric']} "
                  f"[{fields['scale']}] = {fields['value']}")
            written += 1
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ledger", default=str(RESULTS_DIR /
                                                "ledger.jsonl"))
    parser.add_argument("--results", default=str(RESULTS_DIR))
    args = parser.parse_args(argv)
    n = backfill(args.ledger, args.results)
    print(f"backfilled {n} record(s) into {args.ledger}")
    return 0 if n else 1


if __name__ == "__main__":
    sys.exit(main())
