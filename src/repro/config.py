"""Configuration dataclasses for the simulated FPGA-SDV.

Default values follow the system described in the paper (Section 2):

* a superscalar RISC-V core (Atrevido) with a private L1D,
* a decoupled 8-lane VPU with 16384-bit vector registers (256 doubles),
* a 2x2-mesh NoC connecting the core to 4 shared-L2/home-node banks,
* DDR4 main memory whose *minimum* observed access latency on the emulated
  system is ~50 cycles, plus the two throttle modules:
  the Latency Controller (extra pipelined cycles per DRAM access) and the
  Bandwidth Limiter (``num`` line requests per ``den``-cycle window,
  peak 64 B/cycle = 1 line/cycle).

All knobs the paper varies at runtime (max VL, extra latency, bandwidth
fraction) are runtime-configurable on :class:`repro.soc.FpgaSdv` as well;
the dataclasses here describe the *hardware* build.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.util.mathx import is_pow2
from repro.util.units import KiB, LINE_BYTES


@dataclass(frozen=True)
class CoreConfig:
    """Scalar-core (Atrevido-like) model parameters."""

    #: Maximum instructions issued per cycle.
    issue_width: int = 2
    #: Miss-status holding registers: bound on overlapping outstanding misses
    #: (the scalar core's *effective* memory-level parallelism — a modest
    #: OoO window rarely sustains more than a few independent misses).
    mshrs: int = 4
    #: L1 data cache capacity in bytes (scalar side only; the decoupled VPU
    #: bypasses L1 and talks to the shared L2 directly).
    l1d_bytes: int = 32 * KiB
    l1d_ways: int = 8
    #: Load-to-use latency for an L1 hit.
    l1_hit_cycles: int = 2
    #: Non-memory cost of one scalar ALU/FPU op once issued (CPI contribution
    #: beyond issue-width limits; 1.0 models a fully pipelined unit).
    alu_cpi: float = 1.0
    #: Next-N-line L1 stream prefetcher depth (0 = off, the default — the
    #: paper's latency study measures the raw memory path; this knob is an
    #: ablation quantifying how much a simple prefetcher would mask).
    l1_prefetch_depth: int = 0

    def validate(self) -> None:
        if self.issue_width < 1:
            raise ConfigError(f"issue_width must be >= 1, got {self.issue_width}")
        if self.mshrs < 1:
            raise ConfigError(f"mshrs must be >= 1, got {self.mshrs}")
        if self.l1d_bytes % (self.l1d_ways * LINE_BYTES) != 0:
            raise ConfigError(
                "l1d_bytes must be a multiple of ways*line "
                f"({self.l1d_ways}*{LINE_BYTES}), got {self.l1d_bytes}"
            )
        if self.l1_hit_cycles < 1:
            raise ConfigError("l1_hit_cycles must be >= 1")
        if self.alu_cpi <= 0:
            raise ConfigError("alu_cpi must be positive")
        if self.l1_prefetch_depth < 0:
            raise ConfigError("l1_prefetch_depth must be >= 0")


@dataclass(frozen=True)
class VpuConfig:
    """Vitruvius-like decoupled vector unit parameters."""

    #: Number of parallel lanes, each with a 64-bit FPU.
    lanes: int = 8
    #: Hardware maximum vector length in double-precision elements
    #: (256 doubles = 16384-bit registers in the paper).
    max_vl: int = 256
    #: Fixed startup (decode/dispatch/drain) cycles per vector instruction.
    startup_cycles: int = 3
    #: Depth of the decoupled vector-memory queue: how many vector memory
    #: instructions may be in flight simultaneously (latency overlap across
    #: instructions). Vitruvius+ provisions a large memory queue precisely
    #: so the VPU can run far ahead of returning data.
    mem_queue_depth: int = 32
    #: Element requests the address-generation unit can issue per cycle for
    #: indexed (gather/scatter) accesses.
    gather_issue_per_cycle: int = 2
    #: Line requests issued per cycle for unit-stride/strided accesses.
    stride_issue_per_cycle: int = 1
    #: Whether the memory unit coalesces same-line element requests of one
    #: indexed access into a single line request (ablation knob).
    coalesce_gathers: bool = True
    #: Whether consumers may chain on producing instructions (start as the
    #: producer's first elements arrive) instead of waiting for completion.
    chaining: bool = True
    #: Whether the memory queue issues address generation out of order: a
    #: gather waiting for its index register does not block younger,
    #: independent loads (Vitruvius+ buffers memory instructions with their
    #: operands). False = strict in-order issue (ablation).
    ooo_mem_issue: bool = True
    #: Outstanding *line* requests the vector memory unit tracks (its MSHR
    #: pool). This bounds sustained DRAM line throughput to
    #: ``line_mshrs / latency`` — the residual latency sensitivity the
    #: longest vectors still show in the paper.
    line_mshrs: int = 128

    def validate(self) -> None:
        if self.lanes < 1:
            raise ConfigError(f"lanes must be >= 1, got {self.lanes}")
        if not is_pow2(self.max_vl):
            raise ConfigError(f"max_vl must be a power of two, got {self.max_vl}")
        if self.max_vl < self.lanes:
            raise ConfigError(
                f"max_vl ({self.max_vl}) must be >= lanes ({self.lanes})"
            )
        if self.startup_cycles < 0:
            raise ConfigError("startup_cycles must be >= 0")
        if self.mem_queue_depth < 1:
            raise ConfigError("mem_queue_depth must be >= 1")
        if self.gather_issue_per_cycle < 1 or self.stride_issue_per_cycle < 1:
            raise ConfigError("issue rates must be >= 1")
        if self.line_mshrs < 1:
            raise ConfigError("line_mshrs must be >= 1")

    @property
    def register_bits(self) -> int:
        """Vector register width in bits at SEW=64."""
        return self.max_vl * 64


@dataclass(frozen=True)
class NocConfig:
    """2D-mesh network-on-chip parameters (EXTOLL-like, 2x2 in the paper)."""

    mesh_cols: int = 2
    mesh_rows: int = 2
    #: One-way latency per mesh hop (router + link).
    hop_cycles: int = 4
    #: Fixed injection/ejection overhead per message, one way.
    inject_cycles: int = 2

    def validate(self) -> None:
        if self.mesh_cols < 1 or self.mesh_rows < 1:
            raise ConfigError("mesh dimensions must be >= 1")
        if self.hop_cycles < 0 or self.inject_cycles < 0:
            raise ConfigError("NoC latencies must be >= 0")

    @property
    def nodes(self) -> int:
        return self.mesh_cols * self.mesh_rows


@dataclass(frozen=True)
class L2Config:
    """Shared L2 + home-node (L2HN) parameters: 4 banks in the paper."""

    banks: int = 4
    #: Capacity of each bank in bytes.
    bank_bytes: int = 256 * KiB
    ways: int = 16
    #: Bank access (tag+data) latency for a hit.
    access_cycles: int = 6

    def validate(self) -> None:
        if not is_pow2(self.banks):
            raise ConfigError(f"banks must be a power of two, got {self.banks}")
        if self.bank_bytes % (self.ways * LINE_BYTES) != 0:
            raise ConfigError(
                "bank_bytes must be a multiple of ways*line "
                f"({self.ways}*{LINE_BYTES}), got {self.bank_bytes}"
            )
        if self.access_cycles < 1:
            raise ConfigError("access_cycles must be >= 1")

    @property
    def total_bytes(self) -> int:
        return self.banks * self.bank_bytes


@dataclass(frozen=True)
class MemConfig:
    """DRAM + throttle-module parameters.

    ``extra_latency_cycles`` is the Latency Controller setting (Section 2.2).
    ``bw_num``/``bw_den`` is the Bandwidth Limiter fraction (Section 2.3):
    ``num`` line requests admitted per ``den``-cycle window; 1/1 is the
    64 B/cycle peak, 1/64 is 1 B/cycle.
    """

    #: DRAM service latency (controller + device) beyond the NoC+L2 path.
    #: Chosen so the total minimum load-to-use to DRAM is ~50 cycles, the
    #: figure reported for the 50 MHz emulated system.
    dram_service_cycles: int = 30
    #: Latency Controller: extra pipelined cycles added to each DRAM access.
    extra_latency_cycles: int = 0
    #: Bandwidth Limiter numerator/denominator (requests per window cycles).
    bw_num: int = 1
    bw_den: int = 1

    def validate(self) -> None:
        # 0 is allowed: the attribution ladder idealizes DRAM service away
        # to isolate the latency-stall bucket (repro.obs.attribution).
        if self.dram_service_cycles < 0:
            raise ConfigError("dram_service_cycles must be >= 0")
        if self.extra_latency_cycles < 0:
            raise ConfigError(f"extra_latency_cycles must be >= 0, got "
                              f"{self.extra_latency_cycles}")
        if self.bw_num < 1 or self.bw_den < 1:
            raise ConfigError("bandwidth fraction terms must be >= 1")
        if self.bw_num > self.bw_den:
            raise ConfigError(
                f"bandwidth fraction {self.bw_num}/{self.bw_den} exceeds peak"
            )

    @property
    def bytes_per_cycle_limit(self) -> float:
        """Configured bandwidth ceiling in bytes/cycle (peak 64)."""
        return LINE_BYTES * self.bw_num / self.bw_den


def bw_fraction_for_bytes_per_cycle(bpc: int) -> tuple[int, int]:
    """Limiter (num, den) pair for a target of ``bpc`` bytes/cycle.

    The paper's Figure 5 sweeps 1..64 B/cycle in powers of two; with 64-byte
    lines that is one request per ``64/bpc`` cycles.

    >>> bw_fraction_for_bytes_per_cycle(64)
    (1, 1)
    >>> bw_fraction_for_bytes_per_cycle(1)
    (1, 64)
    """
    if bpc < 1 or LINE_BYTES % bpc != 0:
        raise ConfigError(
            f"bytes/cycle target must divide {LINE_BYTES}, got {bpc}"
        )
    return (1, LINE_BYTES // bpc)


@dataclass(frozen=True)
class SdvConfig:
    """Top-level FPGA-SDV build configuration."""

    core: CoreConfig = field(default_factory=CoreConfig)
    vpu: VpuConfig = field(default_factory=VpuConfig)
    noc: NocConfig = field(default_factory=NocConfig)
    l2: L2Config = field(default_factory=L2Config)
    mem: MemConfig = field(default_factory=MemConfig)
    #: Size of the simulated physical memory visible to kernels.
    memory_bytes: int = 64 * 1024 * KiB

    def validate(self) -> "SdvConfig":
        self.core.validate()
        self.vpu.validate()
        self.noc.validate()
        self.l2.validate()
        self.mem.validate()
        if self.memory_bytes < 1 * KiB:
            raise ConfigError("memory_bytes unreasonably small")
        if self.noc.nodes < self.l2.banks:
            # In the paper the 4 L2HN instances sit on the 2x2 mesh nodes.
            raise ConfigError(
                f"NoC has {self.noc.nodes} nodes but L2 has {self.l2.banks} banks"
            )
        return self

    # -- derived latencies used by both timing engines ---------------------

    @property
    def avg_noc_hops(self) -> float:
        """Average one-way hop count from the core to an L2 bank.

        The core shares node (0,0) with bank 0; XY routing to the other
        banks of the 2x2 mesh takes 1, 1 and 2 hops.
        """
        from repro.memory.noc import MeshNoc  # local import to avoid cycle

        noc = MeshNoc(self.noc)
        total = sum(noc.hops_to_bank(b, self.l2.banks) for b in range(self.l2.banks))
        return total / self.l2.banks

    @property
    def l2_hit_latency(self) -> float:
        """Average load-to-use latency of an L2 hit (round trip + access)."""
        one_way = self.noc.inject_cycles + self.avg_noc_hops * self.noc.hop_cycles
        return self.core.l1_hit_cycles + 2 * one_way + self.l2.access_cycles

    @property
    def dram_latency(self) -> float:
        """Average load-to-use latency of a DRAM access at current settings."""
        return (
            self.l2_hit_latency
            + self.mem.dram_service_cycles
            + self.mem.extra_latency_cycles
        )

    def with_extra_latency(self, cycles: int) -> "SdvConfig":
        """Copy of this config with the Latency Controller set to ``cycles``."""
        return dataclasses.replace(
            self, mem=dataclasses.replace(self.mem, extra_latency_cycles=cycles)
        ).validate()

    def with_bandwidth(self, bytes_per_cycle_target: int) -> "SdvConfig":
        """Copy with the Bandwidth Limiter set to a bytes/cycle target."""
        num, den = bw_fraction_for_bytes_per_cycle(bytes_per_cycle_target)
        return dataclasses.replace(
            self, mem=dataclasses.replace(self.mem, bw_num=num, bw_den=den)
        ).validate()

    def with_max_vl(self, max_vl: int) -> "SdvConfig":
        """Copy with the custom max-VL CSR lowered/raised to ``max_vl``."""
        return dataclasses.replace(
            self, vpu=dataclasses.replace(self.vpu, max_vl=max_vl)
        ).validate()
