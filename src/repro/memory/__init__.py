"""Simulated memory subsystem of the FPGA-SDV.

Contents mirror the purple/yellow blocks of the paper's Figure 1:

* :mod:`address_space` — flat byte-addressable memory image + allocator,
* :mod:`cache` — set-associative LRU cache model,
* :mod:`noc` — the 2x2 mesh network-on-chip,
* :mod:`latency_controller` — the Section 2.2 extra-latency module,
* :mod:`bandwidth_limiter` — the Section 2.3 request-window throttle,
* :mod:`classify` — trace-order hit/miss classification used by the
  engines: the L1D and the 4-bank shared L2 cache walk that decides which
  level (L1, L2 or DRAM) serves each reference,
* :mod:`reuse` — reuse-distance (Mattson stack) locality analysis.

DRAM service timing is not a module here: the analytic engines charge
``SdvConfig.dram_latency`` per miss, and the discrete-event engines pass
each miss through the Bandwidth Limiter, the Latency Controller and the
fixed ``dram_service_cycles``.
"""

from repro.memory.address_space import Allocation, MemoryImage
from repro.memory.cache import CacheStats, SetAssocCache
from repro.memory.noc import MeshNoc
from repro.memory.latency_controller import LatencyController
from repro.memory.bandwidth_limiter import BandwidthLimiter
from repro.memory.classify import AccessLevel, classify_trace
from repro.memory.reuse import ReuseProfile, profile_trace, reuse_distances

__all__ = [
    "Allocation",
    "MemoryImage",
    "CacheStats",
    "SetAssocCache",
    "MeshNoc",
    "LatencyController",
    "BandwidthLimiter",
    "AccessLevel",
    "classify_trace",
    "ReuseProfile",
    "profile_trace",
    "reuse_distances",
]
