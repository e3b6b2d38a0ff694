"""Machine-characterization microkernels (STREAM-style).

The paper's group characterizes its prototypes with micro-level probes
before running applications; this module provides the same for the
simulated FPGA-SDV:

* STREAM **copy / scale / add / triad** — peak streaming bandwidth,
* **gather / scatter** — indexed-access throughput,
* **pointer chase** (scalar) — raw load-to-use latency, the quantity the
  Latency Controller adds to,
* **reduction** — lane-tree + sync cost.

`characterize_machine` runs the probe set and reports achieved B/cycle and
latency, which the test suite checks against the configured hardware
numbers — a self-consistency proof that the timing engines realize the
machine the config describes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.base import KernelOutput
from repro.soc.sdv import FpgaSdv, Session
from repro.util.prng import make_rng

#: default working-set size (elements) — large enough to stream from DRAM
DEFAULT_N = 1 << 15


def stream_copy(session: Session, n: int = DEFAULT_N) -> KernelOutput:
    """b[i] = a[i] — pure bandwidth, no FP."""
    mem, vec = session.mem, session.vector
    a = mem.alloc("micro.a", np.arange(n, dtype=np.float64))
    b = mem.alloc("micro.b", n, np.float64)
    i = 0
    while i < n:
        vl = vec.vsetvl(n - i)
        vec.vse(vec.vle(a, i), b, i)
        i += vl
    return KernelOutput(value=b.view.copy(), meta={"bytes": 16 * n})


def stream_scale(session: Session, n: int = DEFAULT_N,
                 q: float = 3.0) -> KernelOutput:
    """b[i] = q * a[i]."""
    mem, vec = session.mem, session.vector
    a = mem.alloc("micro.a", np.arange(n, dtype=np.float64))
    b = mem.alloc("micro.b", n, np.float64)
    i = 0
    while i < n:
        vl = vec.vsetvl(n - i)
        vec.vse(vec.vfmul(vec.vle(a, i), q), b, i)
        i += vl
    return KernelOutput(value=b.view.copy(), meta={"bytes": 16 * n})


def stream_add(session: Session, n: int = DEFAULT_N) -> KernelOutput:
    """c[i] = a[i] + b[i]."""
    mem, vec = session.mem, session.vector
    a = mem.alloc("micro.a", np.arange(n, dtype=np.float64))
    b = mem.alloc("micro.b", np.arange(n, dtype=np.float64))
    c = mem.alloc("micro.c", n, np.float64)
    i = 0
    while i < n:
        vl = vec.vsetvl(n - i)
        vec.vse(vec.vfadd(vec.vle(a, i), vec.vle(b, i)), c, i)
        i += vl
    return KernelOutput(value=c.view.copy(), meta={"bytes": 24 * n})


def stream_triad(session: Session, n: int = DEFAULT_N,
                 q: float = 3.0) -> KernelOutput:
    """c[i] = a[i] + q * b[i] — the canonical STREAM kernel."""
    mem, vec = session.mem, session.vector
    a = mem.alloc("micro.a", np.arange(n, dtype=np.float64))
    b = mem.alloc("micro.b", np.arange(n, dtype=np.float64))
    c = mem.alloc("micro.c", n, np.float64)
    i = 0
    while i < n:
        vl = vec.vsetvl(n - i)
        av = vec.vle(a, i)
        bv = vec.vle(b, i)
        vec.vse(vec.vfmacc(av, bv, q), c, i)
        i += vl
    return KernelOutput(value=c.view.copy(), meta={"bytes": 24 * n})


def gather_probe(session: Session, n: int = DEFAULT_N,
                 seed: int = 5) -> KernelOutput:
    """b[i] = a[idx[i]] with uniform-random indices."""
    mem, vec = session.mem, session.vector
    rng = make_rng(seed, "gather")
    a = mem.alloc("micro.a", rng.random(n))
    idx = mem.alloc("micro.idx", rng.integers(0, n, n))
    b = mem.alloc("micro.b", n, np.float64)
    i = 0
    while i < n:
        vl = vec.vsetvl(n - i)
        iv = vec.vle(idx, i)
        vec.vse(vec.vlxe(a, iv), b, i)
        i += vl
    return KernelOutput(value=b.view.copy(), meta={"bytes": 24 * n})


def scatter_probe(session: Session, n: int = DEFAULT_N,
                  seed: int = 5) -> KernelOutput:
    """b[perm[i]] = a[i] with a random permutation (no collisions)."""
    mem, vec = session.mem, session.vector
    rng = make_rng(seed, "scatter")
    perm = rng.permutation(n).astype(np.int64)
    a = mem.alloc("micro.a", rng.random(n))
    p = mem.alloc("micro.perm", perm)
    b = mem.alloc("micro.b", n, np.float64)
    i = 0
    while i < n:
        vl = vec.vsetvl(n - i)
        pv = vec.vle(p, i)
        av = vec.vle(a, i)
        vec.vsxe(av, b, pv)
        i += vl
    return KernelOutput(value=b.view.copy(), meta={"bytes": 24 * n})


def pointer_chase(session: Session, n: int = 1 << 14,
                  hops: int = 2048, seed: int = 5) -> KernelOutput:
    """Scalar linked-list walk: the load-to-use latency probe.

    Every load depends on the previous one (``mlp_hint=1``), so the
    measured cycles/hop approximate the configured memory latency once the
    ring exceeds the caches.
    """
    mem, scl = session.mem, session.scalar
    rng = make_rng(seed, "chase")
    # one node per cache line (stride 8 doubles), randomly linked into a
    # ring, so every hop is a fresh line and reads pure latency
    stride = 8
    order = rng.permutation(n).astype(np.int64)
    nxt = np.zeros(n * stride, dtype=np.int64)
    nxt[order[:-1] * stride] = order[1:]
    nxt[order[-1] * stride] = order[0]
    ring = mem.alloc("micro.ring", nxt)

    # hop h reads node order[h % n], so the walk is one address vector
    addrs = ring.addr(order[np.arange(hops) % n] * stride)
    scl.emit_block(addrs, False, hops, mlp_hint=1, label="pointer-chase")
    return KernelOutput(value=int(order[hops % n]), meta={"hops": hops})


@dataclass(frozen=True)
class MachineProbe:
    """Measured characteristics of the simulated machine."""

    triad_bytes_per_cycle: float
    copy_bytes_per_cycle: float
    gather_bytes_per_cycle: float
    chase_cycles_per_hop: float

    def render(self) -> str:
        return (
            f"copy   : {self.copy_bytes_per_cycle:6.2f} B/cycle\n"
            f"triad  : {self.triad_bytes_per_cycle:6.2f} B/cycle\n"
            f"gather : {self.gather_bytes_per_cycle:6.2f} B/cycle\n"
            f"latency: {self.chase_cycles_per_hop:6.1f} cycles/hop "
            "(pointer chase)"
        )


def characterize_machine(sdv: FpgaSdv, *, n: int = DEFAULT_N
                         ) -> MachineProbe:
    """Run the probe set on ``sdv`` at its current knob settings."""
    def run(builder, **kwargs):
        session = sdv.session()
        out = builder(session, **kwargs)
        report = sdv.time(session.seal())
        return out, report

    out_c, rep_c = run(stream_copy, n=n)
    out_t, rep_t = run(stream_triad, n=n)
    out_g, rep_g = run(gather_probe, n=n)
    out_p, rep_p = run(pointer_chase)

    return MachineProbe(
        triad_bytes_per_cycle=out_t.meta["bytes"] / rep_t.cycles,
        copy_bytes_per_cycle=out_c.meta["bytes"] / rep_c.cycles,
        gather_bytes_per_cycle=out_g.meta["bytes"] / rep_g.cycles,
        chase_cycles_per_hop=rep_p.cycles / out_p.meta["hops"],
    )


def transpose_probe(session: Session, side: int = 64) -> KernelOutput:
    """b = a.T for a side x side matrix: the strided-access probe.

    Column-major (``vlse``) reads against row-major stores exercise the
    STRIDED pattern: each strided access touches ``vl`` distinct lines, so
    the probe reads the machine's line-request throughput the way a bad
    layout would.
    """
    mem, vec = session.mem, session.vector
    a = mem.alloc("micro.mat_a",
                  np.arange(side * side, dtype=np.float64))
    b = mem.alloc("micro.mat_b", side * side, np.float64)
    for col in range(side):
        i = 0
        while i < side:
            vl = vec.vsetvl(side - i)
            v = vec.vlse(a, col + i * side, side)   # walk down column `col`
            vec.vse(v, b, col * side + i)           # contiguous row of b
            i += vl
    expected = a.view.reshape(side, side).T.copy().ravel()
    return KernelOutput(value=b.view.copy(),
                        meta={"bytes": 16 * side * side,
                              "expected": expected})
