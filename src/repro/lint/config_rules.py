"""Pass family 3: sweep/config grid legality + trace-cache staleness.

The sweep harness generates expensive traces *before* it times the first
knob point; an illegal grid entry (a bandwidth that does not divide the
64 B line, a non-power-of-two VL) would throw away minutes of trace
generation. :func:`check_sweep` validates the whole grid up front, and
:func:`repro.core.sweeps` calls it before any trace is generated.

:func:`check_trace_cache` audits an on-disk trace-cache directory: cache
entries name the on-disk schema version and the fingerprint of the code
that recorded and classified them, so stale entries (an older schema, an
edited emitter or classifier) are detectable without opening a file. A
current entry is then opened and read back as a cached run would read
it, so a damaged one is reported too.
"""

from __future__ import annotations

import argparse
import os
import re
import zipfile
from collections.abc import Sequence
from pathlib import Path

from repro.config import SdvConfig
from repro.errors import ReproError
from repro.lint.findings import Finding, Severity
from repro.lint.rules import finding
from repro.util.mathx import is_pow2
from repro.util.units import LINE_BYTES

#: the paper's study envelope (beyond it is extrapolation -> C007).
PAPER_MAX_LATENCY = 1024
PAPER_MAX_BANDWIDTH = LINE_BYTES  # 64 B/cycle peak
PAPER_MAX_VL = 256


def _ints(points: Sequence, where: str, rule: str) -> list[Finding]:
    out = []
    for p in points:
        if not isinstance(p, (int,)) or isinstance(p, bool):
            out.append(finding(rule, where,
                               f"point {p!r} is not an integer"))
    return out


def check_latency_axis(points: Sequence[int],
                       where: str = "latency-axis") -> list[Finding]:
    """C001/C006/C007/C008 on a Latency Controller sweep axis."""
    out = _ints(points, where, "C001")
    if out:
        return out
    if not points:
        return [finding("C008", where, "latency axis is empty")]
    for p in points:
        if p < 0:
            out.append(finding("C001", where,
                               f"extra latency {p} is negative"))
        elif p > PAPER_MAX_LATENCY:
            out.append(finding(
                "C007", where,
                f"extra latency {p} beyond the paper's "
                f"0..{PAPER_MAX_LATENCY} study range"))
    out.extend(_tidy(points, where))
    return out


def check_bandwidth_axis(points: Sequence[int],
                         where: str = "bandwidth-axis") -> list[Finding]:
    """C002/C006/C007/C008 on a Bandwidth Limiter sweep axis."""
    out = _ints(points, where, "C002")
    if out:
        return out
    if not points:
        return [finding("C008", where, "bandwidth axis is empty")]
    for p in points:
        if p < 1 or LINE_BYTES % p != 0:
            out.append(finding(
                "C002", where,
                f"bandwidth target {p} B/cycle does not divide the "
                f"{LINE_BYTES} B line (the num/den window cannot "
                "express it)"))
        elif p > PAPER_MAX_BANDWIDTH:
            out.append(finding(
                "C007", where,
                f"bandwidth {p} B/cycle beyond the {PAPER_MAX_BANDWIDTH} "
                "B/cycle peak"))
    out.extend(_tidy(points, where))
    return out


def check_vls(vls: Sequence[int], where: str = "vl-grid") -> list[Finding]:
    """C003/C006/C007/C008 on a VL grid."""
    out = _ints(vls, where, "C003")
    if out:
        return out
    if not vls:
        return [finding("C008", where, "VL grid is empty")]
    for v in vls:
        if v < 1 or not is_pow2(v):
            out.append(finding(
                "C003", where,
                f"VL {v} is not a power of two >= 1 (the max-VL CSR "
                "rejects it)"))
        elif v > PAPER_MAX_VL:
            out.append(finding(
                "C007", where,
                f"VL {v} beyond the paper's {PAPER_MAX_VL}-element "
                "registers"))
    out.extend(_tidy(vls, where))
    return out


def parse_vls(arg: str) -> tuple[int, ...]:
    """The ``--vls`` flag's type, for the study commands and lint: 'paper'
    (the figures' VLs) or a comma list of VLs :func:`check_vls` finds no
    error in; anything else is an ``argparse`` usage error naming it."""
    if arg == "paper":
        from repro.core.sweeps import DEFAULT_VLS
        return DEFAULT_VLS
    try:
        vls = tuple(int(x) for x in arg.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"'{arg}' is neither 'paper' nor a comma list of integers"
        ) from None
    errors = [f.message for f in check_vls(vls)
              if f.severity >= Severity.ERROR]
    if errors:
        raise argparse.ArgumentTypeError("; ".join(errors))
    return vls


def _tidy(points: Sequence[int], where: str) -> list[Finding]:
    out = []
    if len(set(points)) != len(points):
        out.append(finding("C006", where, f"duplicate points in {list(points)}"))
    elif list(points) != sorted(points):
        out.append(finding("C006", where,
                           f"axis {list(points)} is not sorted ascending"))
    return out


def check_config(config: SdvConfig | None,
                 where: str = "config") -> list[Finding]:
    """C004/C005: the hardware build and the limiter window."""
    if config is None:
        config = SdvConfig()
    out: list[Finding] = []
    mem = config.mem
    if mem.bw_num < 1 or mem.bw_den < 1 or mem.bw_num > mem.bw_den:
        out.append(finding(
            "C004", where,
            f"bandwidth fraction {mem.bw_num}/{mem.bw_den} is not a "
            "legal limiter window"))
    try:
        config.validate()
    except ReproError as exc:
        out.append(finding("C005", where, str(exc)))
    return out


def check_sweep(axis: str, points: Sequence[int], vls: Sequence[int],
                config: SdvConfig | None = None,
                where: str = "sweep") -> list[Finding]:
    """Validate one sweep's whole grid before any trace is generated."""
    if axis == "latency":
        out = check_latency_axis(points, f"{where}:latency")
    elif axis == "bandwidth":
        out = check_bandwidth_axis(points, f"{where}:bandwidth")
    else:
        out = [finding("C005", where, f"unknown sweep axis '{axis}'")]
    out.extend(check_vls(vls, f"{where}:vls"))
    out.extend(check_config(config, f"{where}:config"))
    return out


# ------------------------------------------------------ trace-cache audit

#: trace_cache_path() naming scheme (see repro.core.sweeps).
_CACHE_RE = re.compile(
    r"^(?P<kernel>.+)-(?P<impl>scalar|vl\d+)-(?P<wl>[0-9a-f]{16})-"
    r"(?P<geom>[0-9a-f]{12})-t(?P<version>\d+)-"
    r"(?P<src>[0-9a-f]{12}|nosrc)\.npz$")


def _unreadable(path: Path) -> str | None:
    """Why a cached run could not read the entry at ``path``, if it
    could not: the exceptions such a run counts as an unreadable entry."""
    from repro.core.sweeps import _UNREADABLE_ENTRY
    from repro.trace.serialize import load_classified, load_trace

    try:
        with zipfile.ZipFile(path) as z:
            bad = z.testzip()
        if bad is not None:
            raise zipfile.BadZipFile(f"member {bad} fails its CRC check")
        load_classified(path, load_trace(path), None)
    except _UNREADABLE_ENTRY as exc:
        return repr(exc)
    return None


def check_trace_cache(cache_dir: str | os.PathLike,
                      kernels: dict | None = None) -> list[Finding]:
    """S001/S002/S003/S005: audit every entry of a trace-cache directory.

    ``kernels`` maps kernel names to :class:`KernelSpec` (defaults to the
    registry); entries for unknown kernels only get the schema check.
    An entry with a current fingerprint is read back (S005).
    """
    from repro.core.sweeps import kernel_fingerprint
    from repro.trace.serialize import FORMAT_VERSION

    if kernels is None:
        from repro.kernels import KERNELS
        kernels = KERNELS

    root = Path(cache_dir)
    out: list[Finding] = []
    if not root.is_dir():
        return [finding("S003", str(root),
                        "trace-cache path is not a directory")]
    current: dict[str, str] = {}
    for path in sorted(root.iterdir()):
        if path.is_dir():
            continue
        m = _CACHE_RE.match(path.name)
        if m is None:
            out.append(finding(
                "S003", str(path),
                "file does not match the trace-cache naming scheme"))
            continue
        version = int(m.group("version"))
        if version != FORMAT_VERSION:
            out.append(finding(
                "S001", str(path),
                f"entry uses trace schema v{version}; this build writes "
                f"and reads back v{FORMAT_VERSION} keys"))
            continue
        name, src = m.group("kernel"), m.group("src")
        if src == "nosrc" or name not in kernels:
            continue
        if name not in current:
            current[name] = kernel_fingerprint(kernels[name])
        if src != current[name]:
            out.append(finding(
                "S002", str(path),
                f"entry was made by the code that records or classifies "
                f"'{name}' traces with fingerprint {src}; current source "
                f"fingerprints as {current[name]}"))
            continue
        why = _unreadable(path)
        if why is not None:
            out.append(finding(
                "S005", str(path),
                f"entry cannot be read back ({why}); every cached run "
                "regenerates it"))
    return out
