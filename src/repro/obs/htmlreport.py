"""Self-contained HTML run dashboard (``repro-sdv dash``).

One command turns the run artifacts the harness already emits — run
manifests (``--emit-json``), the structured JSONL run log
(``--emit-runlog``) and the perf ledger — into a single static HTML page:
KPI tiles, per-run cycle-attribution tables with magnitude bars, engine
introspection counters, a per-process run-log timeline, and one trend
sparkline per ledger series with its regression verdict.

The page is **fully self-contained**: inline CSS, inline SVG marks, no
script tags, no external fetches — it renders from a CI artifact store or
an ``file://`` open with nothing else present. Dark mode is selected via
``prefers-color-scheme`` from the same palette (not an automatic flip).

The first line after the doctype carries the ``repro.dash/1`` marker
comment; :func:`validate_dashboard` (and ``repro.obs.check`` rule O007)
verify the marker, the document shape, and the self-containment contract.
"""

from __future__ import annotations

import html
import time
from pathlib import Path

#: bump on any backwards-incompatible dashboard layout change.
DASH_SCHEMA = "repro.dash/1"

#: the sniffable marker embedded right after the doctype.
DASH_MARKER = f"<!-- {DASH_SCHEMA} -->"

#: strings that would make the page non-self-contained (validator contract).
_FORBIDDEN = ("<script", "<link", "src=\"http", "src='http",
              "href=\"http", "href='http", "@import", "url(http")

# ------------------------------------------------------------------ palette
#
# Reference data-viz palette: single-series charts use categorical slot 1
# (blue) — validated for both surfaces (lightness band, chroma floor,
# >=3:1 contrast). Status colors are reserved for verdicts and always ship
# with a text label, never color alone. Text wears ink tokens, never the
# series color.

_CSS = """
:root {
  color-scheme: light;
  --surface: #fcfcfb; --page: #f9f9f7;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --border: rgba(11,11,11,0.10);
  --series: #2a78d6;
  --good: #0ca30c; --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface: #1a1a19; --page: #0d0d0d;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);
    --series: #3987e5;
    --good: #0ca30c; --critical: #d03b3b;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page); color: var(--ink);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; font-weight: 600; margin: 0 0 4px; }
h2 { font-size: 15px; font-weight: 600; margin: 28px 0 10px; }
.sub { color: var(--ink-2); margin: 0 0 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 150px;
}
.tile .label { color: var(--ink-2); font-size: 12px; }
.tile .value { font-size: 26px; font-weight: 600; }
.tile .note { color: var(--muted); font-size: 12px; }
.card {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 14px 16px; margin: 0 0 14px;
}
.card .title { font-weight: 600; margin-bottom: 2px; }
.card .meta { color: var(--muted); font-size: 12px; margin-bottom: 8px; }
table { border-collapse: collapse; width: 100%; }
th, td {
  text-align: right; padding: 4px 10px; border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
th { color: var(--ink-2); font-weight: 500; font-size: 12px; }
th:first-child, td:first-child { text-align: left; }
tr:last-child td { border-bottom: none; }
tr:hover td { background: color-mix(in srgb, var(--series) 7%, transparent); }
.badge { font-size: 12px; font-weight: 600; white-space: nowrap; }
.badge.ok { color: var(--good); }
.badge.bad { color: var(--critical); }
.badge.na { color: var(--muted); }
.spark-row { display: flex; flex-wrap: wrap; gap: 12px; }
svg text { font: 11px system-ui, sans-serif; fill: var(--muted); }
details summary { color: var(--ink-2); cursor: pointer; font-size: 12px; }
.note { color: var(--muted); font-size: 12px; }
"""


def _esc(value) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: float) -> str:
    """Compact magnitude: 1,284 / 12.9k / 4.2M."""
    v = float(value)
    a = abs(v)
    if a >= 1e9:
        return f"{v / 1e9:.1f}G"
    if a >= 1e6:
        return f"{v / 1e6:.1f}M"
    if a >= 1e4:
        return f"{v / 1e3:.1f}k"
    if a == int(a):
        return f"{int(v):,}"
    return f"{v:.3g}"


# --------------------------------------------------------------- SVG marks


def _hbar(frac: float, *, width: int = 180, height: int = 12,
          tooltip: str = "") -> str:
    """One horizontal magnitude bar: series hue, 4px rounded data end,
    square at the baseline, hairline axis at x=0."""
    w = max(0.0, min(1.0, frac)) * (width - 2)
    r = min(4.0, w / 2)
    # square left (baseline) edge, rounded right (data) end
    path = (f"M1 0 H{1 + w - r:.1f} Q{1 + w:.1f} 0 {1 + w:.1f} {r:.1f} "
            f"V{height - r:.1f} Q{1 + w:.1f} {height} {1 + w - r:.1f} "
            f"{height} H1 Z")
    tip = f"<title>{_esc(tooltip)}</title>" if tooltip else ""
    return (f'<svg width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}" role="img">{tip}'
            f'<line x1="1" y1="0" x2="1" y2="{height}" '
            f'stroke="var(--axis)" stroke-width="1"/>'
            f'<path d="{path}" fill="var(--series)"/></svg>')


def _sparkline(values: list[float], *, width: int = 220, height: int = 44,
               tooltip: str = "") -> str:
    """One single-series trend sparkline: 2px line, end dot with a 2px
    surface ring. Values table rides in the enclosing markup (tooltips
    enhance, never gate)."""
    if not values:
        return ""
    pad = 6.0
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    n = len(values)
    xs = [pad + (width - 2 * pad) * (i / (n - 1) if n > 1 else 0.5)
          for i in range(n)]
    ys = [height - pad - (height - 2 * pad) * ((v - lo) / span)
          for v in values]
    pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys))
    tip = f"<title>{_esc(tooltip)}</title>" if tooltip else ""
    return (f'<svg width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}" role="img">{tip}'
            f'<line x1="{pad}" y1="{height - pad:.1f}" '
            f'x2="{width - pad}" y2="{height - pad:.1f}" '
            f'stroke="var(--grid)" stroke-width="1"/>'
            f'<polyline points="{pts}" fill="none" stroke="var(--series)" '
            f'stroke-width="2" stroke-linejoin="round" '
            f'stroke-linecap="round"/>'
            f'<circle cx="{xs[-1]:.1f}" cy="{ys[-1]:.1f}" r="4" '
            f'fill="var(--series)" stroke="var(--surface)" '
            f'stroke-width="2"/></svg>')


#: runlog timeline cap — the page stays light even for heartbeat-heavy
#: logs; the cap is always stated in the rendered output, never silent.
_TIMELINE_MAX = 400


def _timeline(records: list[dict], *, width: int = 720) -> str:
    """Per-process event timeline: one lane per pid, one dot per record
    at its wall-time offset, native ``<title>`` tooltips."""
    if not records:
        return '<p class="note">(run log has no records)</p>'
    shown = records[:_TIMELINE_MAX]
    t0 = min(r["ts"] for r in shown)
    t1 = max(r["ts"] for r in shown)
    span = (t1 - t0) or 1.0
    pids = sorted({r["pid"] for r in shown})
    lane_h, pad_l, pad_r, pad_t = 22, 70, 14, 8
    h = pad_t * 2 + lane_h * len(pids) + 16
    plot_w = width - pad_l - pad_r
    parts = [f'<svg width="{width}" height="{h}" '
             f'viewBox="0 0 {width} {h}" role="img">']
    for k, pid in enumerate(pids):
        y = pad_t + lane_h * k + lane_h / 2
        parts.append(f'<line x1="{pad_l}" y1="{y:.1f}" x2="{width - pad_r}" '
                     f'y2="{y:.1f}" stroke="var(--grid)" stroke-width="1"/>')
        parts.append(f'<text x="{pad_l - 8}" y="{y + 4:.1f}" '
                     f'text-anchor="end">pid {pid}</text>')
    for r in shown:
        y = pad_t + lane_h * pids.index(r["pid"]) + lane_h / 2
        x = pad_l + plot_w * ((r["ts"] - t0) / span)
        tip = (f"{r['name']} @ +{r['ts'] - t0:.3f}s (pid {r['pid']}, "
               f"{r.get('level', r['kind'])})")
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" '
                     f'fill="var(--series)" stroke="var(--surface)" '
                     f'stroke-width="2"><title>{_esc(tip)}</title></circle>')
    y_ax = pad_t + lane_h * len(pids) + 6
    parts.append(f'<text x="{pad_l}" y="{y_ax + 8}">+0s</text>')
    parts.append(f'<text x="{width - pad_r}" y="{y_ax + 8}" '
                 f'text-anchor="end">+{span:.2f}s</text>')
    parts.append("</svg>")
    if len(records) > len(shown):
        parts.append(f'<p class="note">showing the first {len(shown)} of '
                     f'{len(records)} records (full log in the JSONL '
                     f'artifact)</p>')
    return "".join(parts)


# ------------------------------------------------------------- sections


def _kpi_tiles(tiles: list[tuple[str, str, str]]) -> str:
    out = ['<div class="tiles">']
    for label, value, note in tiles:
        out.append(f'<div class="tile"><div class="label">{_esc(label)}'
                   f'</div><div class="value">{_esc(value)}</div>'
                   f'<div class="note">{_esc(note)}</div></div>')
    out.append("</div>")
    return "".join(out)


def _manifest_section(manifest: dict, source: str) -> str:
    runs = manifest["runs"]
    max_cycles = max(r["cycles"] for r in runs) or 1
    bucket_names: list[str] = []
    for r in runs:
        for b in (r.get("buckets") or {}):
            if b not in bucket_names:
                bucket_names.append(b)
    head = "".join(f"<th>{_esc(b)}</th>" for b in bucket_names)
    rows = []
    for r in runs:
        buckets = r.get("buckets") or {}
        cells = "".join(f"<td>{_fmt(buckets[b]) if b in buckets else '–'}"
                        f"</td>" for b in bucket_names)
        bar = _hbar(r["cycles"] / max_cycles,
                    tooltip=f"{r['impl']}: {r['cycles']:,.0f} cycles")
        rows.append(f"<tr><td>{_esc(r['impl'])}</td>"
                    f"<td>{_fmt(r['cycles'])}</td>"
                    f'<td style="text-align:left">{bar}</td>{cells}</tr>')
    meta = (f"engine {manifest['engine']}"
            + (f" · scale {manifest['scale']}" if "scale" in manifest else "")
            + f" · config {manifest['config_hash'][:8]}"
            + (f" · rev {manifest['git_rev'][:8]}"
               if manifest.get("git_rev") else ""))
    return (f'<div class="card"><div class="title">'
            f'{_esc(manifest["kernel"])}</div>'
            f'<div class="meta">{_esc(meta)} · {_esc(source)}</div>'
            f'<table><tr><th>impl</th><th>cycles</th><th></th>{head}</tr>'
            f'{"".join(rows)}</table></div>')


def _engine_stats_section(snapshots: list[tuple[str, dict]]) -> str:
    from repro.obs.record import counter_rows, fold

    records = [{"kind": "count", "name": n, "n": v} for _, snap in snapshots
               for n, v in snap.get("counters", {}).items()]
    records += [{"kind": "high", "name": n, "value": v}
                for _, snap in snapshots
                for n, v in snap.get("highs", {}).items()]
    rows = [f"<tr><td>{_esc(name)}</td><td>{value}</td></tr>"
            for name, value in counter_rows(fold(records))]
    if not rows:
        return ""
    srcs = ", ".join(sorted({s for s, _ in snapshots}))
    return (f'<h2>Engine introspection</h2><div class="card">'
            f'<div class="meta">merged from {_esc(srcs)}</div>'
            f'<table><tr><th>counter</th><th>value</th></tr>'
            f'{"".join(rows)}</table></div>')


def _verdict_badge(verdict) -> str:
    if verdict.status == "regression":
        return ('<span class="badge bad">&#x2715; REGRESSED</span>')
    if verdict.status == "insufficient":
        return ('<span class="badge na">&#x25CB; n/a '
                f'({verdict.samples} samples)</span>')
    return '<span class="badge ok">&#x2713; ok</span>'


def _ledger_section(records: list[dict]) -> str:
    from repro.obs.ledger import perf_diff, series

    results = perf_diff(records)
    if not results:
        return '<p class="note">(ledger has no series)</p>'
    cards = []
    for (bench, metric, scale), verdict in results:
        values = series(records, bench, metric, scale)
        tail = values[-20:]
        tip = (f"{bench}:{metric} [{scale}] — last {len(tail)} of "
               f"{len(values)}: min {min(tail):.3g}, "
               f"median {sorted(tail)[len(tail) // 2]:.3g}, "
               f"max {max(tail):.3g}")
        table = "".join(f"<tr><td>{i + 1}</td><td>{v:.4g}</td></tr>"
                        for i, v in enumerate(tail))
        cards.append(
            f'<div class="tile"><div class="label">'
            f'{_esc(bench)}:{_esc(metric)} [{_esc(scale)}]</div>'
            f'<div class="value">{_esc(f"{verdict.value:.3g}")}</div>'
            f'{_verdict_badge(verdict)}<div>'
            f'{_sparkline(tail, tooltip=tip)}</div>'
            f'<div class="note">{_esc(verdict.reason)}</div>'
            f'<details><summary>values</summary><table>'
            f'<tr><th>#</th><th>value</th></tr>{table}</table>'
            f'</details></div>')
    return f'<div class="spark-row">{"".join(cards)}</div>'


def _runlog_table(records: list[dict], *, limit: int = 40) -> str:
    if not records:
        return ""
    t0 = records[0]["ts"]
    rows = []
    for r in records[:limit]:
        attrs = r.get("attrs") or {k: r[k] for k in ("n", "value") if k in r}
        detail = ", ".join(f"{k}={v}" for k, v in attrs.items())
        rows.append(f"<tr><td>+{r['ts'] - t0:.3f}s</td>"
                    f"<td>{r['pid']}</td><td>{_esc(r['name'])}</td>"
                    f"<td>{_esc(r.get('level', r['kind']))}</td>"
                    f'<td style="text-align:left">{_esc(detail)}</td></tr>')
    more = (f'<p class="note">first {limit} of {len(records)} records</p>'
            if len(records) > limit else "")
    return (f'<details><summary>record table</summary><table>'
            f'<tr><th>t</th><th>pid</th><th>record</th><th>kind</th>'
            f'<th>attrs</th></tr>{"".join(rows)}</table></details>{more}')


# --------------------------------------------------------------- assembly


def render_dashboard(*, manifests: list[tuple[str, dict]] | None = None,
                     runlog: list[dict] | None = None,
                     ledger: list[dict] | None = None,
                     title: str | None = None) -> str:
    """Render the dashboard HTML from already-loaded artifacts.

    ``manifests`` is ``[(source_name, manifest_dict), ...]``; ``runlog``
    is the validated JSONL line list (header first); ``ledger`` is the
    validated record list.
    """
    manifests = manifests or []
    ledger = ledger or []
    log_header = runlog[0] if runlog else None
    log_records = runlog[1:] if runlog else []

    tiles = []
    if manifests:
        total_runs = sum(len(m["runs"]) for _, m in manifests)
        tiles.append(("manifests", str(len(manifests)),
                      f"{total_runs} timed runs"))
    if log_records is not None and log_header is not None:
        pids = {r["pid"] for r in log_records}
        tiles.append(("run-log records", str(len(log_records)),
                      f"{len(pids)} process(es), "
                      f"trace {log_header.get('trace', '?')[:8]}"))
    if ledger:
        from repro.obs.ledger import perf_diff

        results = perf_diff(ledger)
        bad = sum(1 for _, v in results if v.is_regression)
        tiles.append(("ledger series", str(len(results)),
                      f"{bad} regression(s)" if bad
                      else "no regressions"))
    if not tiles:
        tiles.append(("artifacts", "0", "pass --manifest/--runlog/--ledger"))

    body = [f"<h1>{_esc(title or 'repro-sdv run dashboard')}</h1>",
            f'<p class="sub">generated '
            f'{time.strftime("%Y-%m-%d %H:%M:%S")} · schema '
            f'{DASH_SCHEMA}</p>',
            _kpi_tiles(tiles)]

    if manifests:
        body.append("<h2>Cycle attribution</h2>")
        for source, m in manifests:
            body.append(_manifest_section(m, source))
        es = [(src, m["engine_stats"]) for src, m in manifests
              if isinstance(m.get("engine_stats"), dict)]
        if es:
            body.append(_engine_stats_section(es))
    if runlog:
        body.append("<h2>Run log</h2>")
        body.append(f'<div class="card">{_timeline(log_records)}'
                    f'{_runlog_table(log_records)}</div>')
    if ledger:
        body.append("<h2>Perf ledger trends</h2>")
        body.append(_ledger_section(ledger))

    return (f"<!DOCTYPE html>\n{DASH_MARKER}\n"
            f'<html lang="en"><head><meta charset="utf-8">'
            f'<meta name="viewport" '
            f'content="width=device-width, initial-scale=1">'
            f"<title>{_esc(title or 'repro-sdv dashboard')}</title>"
            f"<style>{_CSS}</style></head><body>"
            f'{"".join(body)}</body></html>\n')


def build_dashboard(path, *, manifests=(), runlog=None, ledger=None,
                    title: str | None = None) -> Path:
    """Load + validate the artifacts, render, validate, write. Returns
    the output path."""
    import json

    from repro.obs import manifest as manifest_mod
    from repro.obs.ledger import load_and_validate as load_ledger
    from repro.obs.record import load_and_validate as load_runlog

    loaded = []
    for mpath in manifests:
        data = json.loads(Path(mpath).read_text(encoding="utf-8"))
        # sweep JSON exports carry their manifest under a "meta" key
        if "manifest" in data.get("meta", {}):
            data = data["meta"]["manifest"]
        manifest_mod.validate_manifest(data)
        loaded.append((Path(mpath).name, data))
    log_lines = load_runlog(runlog) if runlog else None
    ledger_recs = load_ledger(ledger) if ledger else None
    text = render_dashboard(manifests=loaded, runlog=log_lines,
                            ledger=ledger_recs, title=title)
    validate_dashboard(text)
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(text, encoding="utf-8")
    return p


def validate_dashboard(text: str) -> None:
    """Raise ``ValueError`` unless ``text`` is a well-formed,
    self-contained dashboard page (``repro.obs.check`` rule O007)."""
    if not text.lstrip().startswith("<!DOCTYPE html>"):
        raise ValueError("dashboard must start with <!DOCTYPE html>")
    if DASH_MARKER not in text[:256]:
        raise ValueError(
            f"dashboard is missing the {DASH_MARKER} marker comment")
    if "</html>" not in text:
        raise ValueError("dashboard is truncated (no closing </html>)")
    lower = text.lower()
    for needle in _FORBIDDEN:
        if needle in lower:
            raise ValueError(
                f"dashboard is not self-contained: found {needle!r} "
                "(no scripts, stylesheets links, or external fetches)")
