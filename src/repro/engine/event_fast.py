"""Array-backed discrete-event engine (``engine="event"``).

This is the runtime event engine: it replays **exactly** the schedule of
the coroutine reference model (:mod:`repro.engine.event_sim`, its
specification) — same cycles, same breakdown, same component stats, same
timeline — but replaces every piece of interpreter-heavy machinery on the
hot path:

* **generator coroutines → explicit state machines.** Each in-flight
  instruction is a small integer state plus a few slots in parallel
  lists, driven off the shared :class:`~repro.engine.event_common
  .EventPlan` tables (lowered once per classified trace). Resuming a
  waiter is an integer dispatch, not a ``gen.send`` frame switch.
* **heapq → calendar queue.** Future events live in a bucketed event
  wheel of ``_WHEEL`` one-cycle slots with a Python-int occupancy bitmask;
  the next active timestamp is found with one rotate-and-count-trailing-
  zeros on the mask instead of O(log n) heap pops. Events beyond the
  wheel horizon (long latency-knob flights) overflow into a small heap
  and are migrated eagerly — at every clock advance, every overflow entry
  now within the horizon moves into its bucket *before* the bucket
  drains, which keeps overflow entries ahead of same-cycle wheel-direct
  entries, exactly reproducing the reference kernel's global
  schedule-order tie-break.
* **Event objects → pooled slabs + packed tokens.** A scheduled item is
  one int ``kind | (arg << 4)``; line requests recycle slots in
  structure-of-arrays slabs instead of allocating per-request objects.
* **batched component stepping.** Each component steps once per active
  timestamp: a bucket drain hands the whole batch of same-cycle tokens to
  the dispatch loop, and the L2 bank ports are analytic unit-rate servers
  (``grant = max(arrival, prev_grant + 1)``) rather than two extra event
  hops per line.

The scheduling contract with the reference engine (see
``docs/engines.md``): every ``yield`` in a reference coroutine maps to
one scheduled token here, at the same timestamp, in the same order —
zero-delay events append to a same-cycle FIFO drained after the bucket,
event callbacks run inline at the fire token, resource grants are one
zero-delay hop. The equality tests in
``tests/engine/test_event_fast.py`` pin bit-identical reports, timelines
and attribution ladders across the kernel×VL×latency×bandwidth grid.
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.engine import core_model, vpu_model
from repro.engine.event_common import EventPlan, event_plan
from repro.engine.lower import (
    LKIND_BARRIER,
    LKIND_CSR,
    LKIND_SCALAR,
    LKIND_VARITH,
    LKIND_VMEM,
)
from repro.engine.results import CycleReport
from repro.errors import EngineError
from repro.memory.bandwidth_limiter import BandwidthLimiter
from repro.memory.classify import AccessLevel, ClassifiedTrace
from repro.memory.latency_controller import LatencyController
from repro.memory.noc import MeshNoc

_DISPATCH = int(core_model.VECTOR_DISPATCH_CYCLES)
_VSETVL = int(core_model.VSETVL_CYCLES)
_TRANSFER = int(core_model.SCALAR_RESULT_TRANSFER_CYCLES)
_LPD = int(vpu_model.LANE_PIPE_DEPTH)
_DRAM = int(AccessLevel.DRAM)
_L1 = int(AccessLevel.L1)

# calendar-queue geometry: one-cycle buckets, power-of-two horizon
_WHEEL = 4096
_WMASK = _WHEEL - 1
_WFULL = (1 << _WHEEL) - 1

# token kinds (low 4 bits; arg in the high bits)
_T_CORE = 0   # scalar core state machine
_T_VA = 1     # vector-arithmetic record <arg>
_T_VM = 2     # vector-memory record <arg>
_T_LINE = 3   # line-request slab entry <arg>
_T_RESP = 4   # line response fire <arg>
_T_DONE = 5   # done-event fire for record <arg>
_T_CHAIN = 6  # chain-event fire for record <arg>
_T_WB = 7     # writeback arrival at the DRAM channel
_T_BAR = 8    # barrier child completion

# scalar-core states
_CS_SC = 0          # inside a scalar block (sc_phase drives)
_CS_DISPATCHED = 1  # vector dispatch cycle elapsed
_CS_SLOT = 2        # decoupled-queue slot granted
_CS_SDEST = 3       # scalar-dest done-wait satisfied
_CS_XFER = 4        # scalar-result transfer elapsed
_CS_BARRIER = 5     # all barrier children done
_CS_CSR = 6         # vsetvl cycles elapsed

# scalar-block sub-phases
_SCP_GAP = 0    # apply issue gap for op j
_SCP_LEVEL = 1  # classify op j (post-gap)
_SCP_SPAWN = 2  # MSHR slot freed: spawn op j
_SCP_DRAIN = 3  # draining outstanding misses
_SCP_END = 4    # no-mem issue timeout elapsed

# vector-arith states
_VA_GRANT = 0    # arith pipe granted
_VA_CHAINED = 1  # producer chain fired
_VA_READY = 2    # operand wait satisfied
_VA_OCC = 3      # occupancy elapsed
_VA_LAT = 4      # pipeline latency elapsed
_VA_FLOOR = 5    # floor producer done
_VA_FIN = 6      # floor timeout elapsed

# vector-memory states
_VM_CHAINED_PRE = 0   # (OoO) producer chain fired
_VM_DEP_PRE = 1       # (OoO) operand wait satisfied: claim AGU
_VM_AGU = 2           # (OoO) AGU granted
_VM_AGU2 = 3          # (in-order) AGU granted: wait operands
_VM_CHAINED_POST = 4  # (in-order) producer chain fired
_VM_READY = 5         # operand wait satisfied
_VM_GAP = 6           # AGU issue gap elapsed: spawn line j
_VM_ALL = 7           # all line responses arrived
_VM_FLOOR = 8         # floor producer done
_VM_FIN = 9           # floor timeout elapsed

# line-request stages
_LS_PRE = 0      # pre-delay (scalar L1 lookup) elapsed
_LS_MSHR = 1     # line MSHR granted
_LS_ARRIVE = 2   # request arrived at the bank
_LS_LIMITER = 3  # bank access done: DRAM admission
_LS_DONE = 4     # response back at the core


class _FastSim:
    """One run: calendar queue + state-machine slabs."""

    def __init__(self, ct: ClassifiedTrace, plan: EventPlan,
                 timeline, intro: bool = False) -> None:
        cfg = ct.config
        self.plan = plan
        self.timeline = timeline
        # introspection (repro.obs.record): resolved once per run by
        # simulate_events_fast; the hot loop reads a hoisted local
        self.intro = intro
        self.intro_timestamps = 0
        self.intro_tokens = 0
        self.intro_max_drain = 0
        self.intro_max_occupancy = 0
        self.chaining = cfg.vpu.chaining
        self.ooo = cfg.vpu.ooo_mem_issue

        self.limiter = BandwidthLimiter(cfg.mem.bw_num, cfg.mem.bw_den)
        self.latency_ctl = LatencyController(cfg.mem.extra_latency_cycles)
        self.access = int(cfg.l2.access_cycles)
        self.dram_service = int(cfg.mem.dram_service_cycles)
        self.l1_hit = int(cfg.core.l1_hit_cycles)
        self.arith_lat = int(vpu_model.arith_latency(cfg))
        self.n_banks = cfg.l2.banks
        nodes = cfg.noc.nodes

        noc = MeshNoc(cfg.noc)
        self.hops_tab = [noc.hops(noc.core_node, b % nodes)
                         for b in range(self.n_banks)]
        self.lat_tab = [cfg.noc.inject_cycles + h * cfg.noc.hop_cycles
                        for h in self.hops_tab]
        self.noc_msgs = 0
        self.noc_hops = 0
        self.noc_lat = 0

        # analytic unit-rate bank-port servers (same recurrence as the
        # reference engine's collapsed FIFO ports)
        self.bank_free = [0] * self.n_banks
        self.bank_wait = 0

        # FIFO resources: busy flags / counters + queued waiter tokens
        self.pipe_busy = False
        self.pipe_q: deque[int] = deque()
        self.agu_busy = False
        self.agu_q: deque[int] = deque()
        self.slots_used = 0
        self.slots_cap = cfg.vpu.mem_queue_depth
        self.slots_q: deque[int] = deque()
        self.mshr_used = 0
        self.mshr_cap = cfg.vpu.line_mshrs
        self.mshr_q: deque[int] = deque()

        n = plan.n
        # done/chain tri-state: 0 untriggered, 1 fire scheduled, 2 processed
        self.done_state = [0] * n
        self.chain_state = [0] * n
        self.done_waiters: list[list[int]] = [[] for _ in range(n)]
        self.chain_waiters: list[list[int]] = [[] for _ in range(n)]
        self.done_time = [-1] * n
        self.pending: set[int] = set()

        self.va_state = [0] * n
        self.va_tb = [0] * n
        self.vm_state = [0] * n
        self.vm_tb = [0] * n
        self.vm_j = [0] * n
        self.vm_wbleft = [0] * n
        self.vm_live = [0] * n
        self.vm_waiting = [False] * n

        # line-request slabs (structure of arrays, recycled via free list)
        self.ln_bank: list[int] = []
        self.ln_level: list[int] = []
        self.ln_vector: list[bool] = []
        self.ln_owner: list[int] = []
        self.ln_first: list[bool] = []
        self.ln_state: list[int] = []
        self.ln_stage: list[int] = []
        self.ln_waiter: list[int | None] = []
        self.ln_free: list[int] = []

        # scalar core
        self.core_i = 0
        self.core_state = _CS_SC
        self.core_t0 = 0
        self.bar_count = 0
        self.sc_i = 0
        self.sc_slot = 0
        self.sc_j = 0
        self.sc_t0 = 0
        self.sc_phase = 0
        self.sc_wb = 0
        self.sc_pf = 0
        self.sc_out: deque[int] = deque()

        # calendar queue
        self.now = 0
        self.occ = 0
        self.wheel: list[list[int]] = [[] for _ in range(_WHEEL)]
        self.overflow: list[tuple[int, int, int]] = []
        self._oseq = 0
        self._curq: list[int] = []
        self._running = False

        self.wb_tail = 0
        self.acc_issue = 0
        self.acc_stall = 0
        self.acc_varith = 0
        self.acc_vmem = 0

    # ------------------------------------------------------------- scheduler

    def _at(self, tok: int, t: int) -> None:
        """Schedule token ``tok`` at absolute integer time ``t``."""
        now = self.now
        if t == now and self._running:
            self._curq.append(tok)
            return
        d = t - now
        if d < 0:
            raise EngineError("time went backwards")
        if d < _WHEEL:
            s = t & _WMASK
            b = self.wheel[s]
            if not b:
                self.occ |= 1 << s
            b.append(tok)
        else:
            heapq.heappush(self.overflow, (t, self._oseq, tok))
            self._oseq += 1

    def _run(self) -> None:
        # Hot loop. The two dominant token kinds at paper scale — line
        # pipeline stages and line responses, ~80% of all traffic — are
        # handled inline with local aliases; everything else (and every
        # reentrant waiter execution) goes through the generic
        # :meth:`_exec`. The inline branches must stay byte-for-byte
        # equivalent to :meth:`_line_step` / :meth:`_resp_fire`.
        wheel = self.wheel
        overflow = self.overflow
        curq = self._curq
        curq_app = curq.append
        heappop = heapq.heappop
        exec_ = self._exec
        done_state = self.done_state
        done_waiters = self.done_waiters
        chain_waiters = self.chain_waiters
        # accumulators kept in locals for the duration of the run; cold
        # paths update the attributes, both are merged after the loop
        noc_msgs = 0
        noc_hops = 0
        noc_lat = 0
        bank_wait = 0
        wb_tail = 0
        ln_bank = self.ln_bank
        ln_level = self.ln_level
        ln_vector = self.ln_vector
        ln_owner = self.ln_owner
        ln_first = self.ln_first
        ln_state = self.ln_state
        ln_stage = self.ln_stage
        ln_waiter = self.ln_waiter
        ln_recycle = self.ln_free.append
        bank_free = self.bank_free
        hops_tab = self.hops_tab
        lat_tab = self.lat_tab
        access = self.access
        dram_service = self.dram_service
        limiter = self.limiter
        limiter_admit = limiter.admit
        # peak bandwidth (one request per cycle) collapses the limiter to a
        # next-free-cycle counter; inline it and count latency-controller
        # stats locally (its delay term is loop-invariant)
        lim_den1 = limiter._den == 1
        lat_extra = self.latency_ctl._extra
        lat_n = 0
        mshr_q = self.mshr_q
        mshr_cap = self.mshr_cap
        agu_q = self.agu_q
        chain_state = self.chain_state
        vm_live = self.vm_live
        vm_waiting = self.vm_waiting
        vm_state = self.vm_state
        ln_free = self.ln_free
        plan = self.plan
        p_slot = plan.slot
        p_vm_steps = plan.vm_steps
        p_vm_levels = plan.vm_levels
        p_vm_banks = plan.vm_banks
        p_vm_n = plan.vm_n
        vm_j = self.vm_j
        vm_wbleft = self.vm_wbleft
        # introspection accumulators: touched once per active *timestamp*
        # (never per token) and only when enabled, so the disabled cost is
        # one local boolean check per timestamp
        intro = self.intro
        i_ts = 0
        i_tokens = 0
        i_max_drain = 0
        i_max_occ = 0
        self._running = True
        try:
            while self.occ or overflow:
                occ = self.occ
                if occ:
                    cur = self.now & _WMASK
                    # deltas are small on dense traces: probe the next few
                    # slots directly (bucket non-empty <=> occupancy bit)
                    # before paying for a big-int scan of the mask
                    t = -1
                    for k in range(9):
                        if wheel[(cur + k) & _WMASK]:
                            t = self.now + k
                            break
                    if t < 0:
                        # next occupied slot at or after the current one;
                        # every occupied slot holds a time in
                        # [now, now + _WHEEL), so the wrapped bits are
                        # exactly the slots below `cur`
                        high = occ >> cur
                        if high:
                            t = self.now + (high & -high).bit_length() - 1
                        else:
                            t = (self.now + _WHEEL - cur
                                 + (occ & -occ).bit_length() - 1)
                    if overflow and overflow[0][0] < t:
                        t = overflow[0][0]
                else:
                    t = overflow[0][0]
                self.now = t
                # eager migration keeps overflow entries ahead of same-cycle
                # wheel-direct entries (global schedule order)
                while overflow and overflow[0][0] - t < _WHEEL:
                    ot, _, tok = heappop(overflow)
                    s = ot & _WMASK
                    b = wheel[s]
                    if not b:
                        self.occ |= 1 << s
                    b.append(tok)
                s = t & _WMASK
                b = wheel[s]
                if b:
                    # curq is empty between timestamps, so the bucket batch
                    # simply seeds the same-cycle FIFO
                    wheel[s] = []
                    self.occ &= ~(1 << s)
                    curq.extend(b)
                # a list iterator sees elements appended during iteration,
                # which is exactly the same-cycle FIFO semantics: tokens
                # scheduled "now" run after everything already queued
                for tok in curq:
                    code = tok & 15
                    if code == _T_LINE:
                        lid = tok >> 4
                        stage = ln_stage[lid]
                        if stage == _LS_ARRIVE:
                            bank = ln_bank[lid]
                            grant = bank_free[bank]
                            if grant < t:
                                grant = t
                            bank_free[bank] = grant + 1
                            bank_wait += grant - t
                            at = grant + access
                            if ln_level[lid] == _DRAM:
                                ln_stage[lid] = _LS_LIMITER
                            else:
                                noc_msgs += 1
                                noc_hops += hops_tab[bank]
                                lat = lat_tab[bank]
                                noc_lat += lat
                                at += lat
                                ln_stage[lid] = _LS_DONE
                        elif stage == _LS_LIMITER:
                            if lim_den1:
                                admit = (limiter._window_start
                                         + limiter._window_used)
                                if admit < t:
                                    admit = t
                                limiter._window_start = admit
                                limiter._window_used = 1
                                limiter.admitted += 1
                                if admit > t:
                                    limiter.throttle_cycles += admit - t
                            else:
                                admit = int(limiter_admit(t))
                            lat_n += 1
                            bank = ln_bank[lid]
                            noc_msgs += 1
                            noc_hops += hops_tab[bank]
                            lat = lat_tab[bank]
                            noc_lat += lat
                            at = admit + lat_extra + dram_service + lat
                            ln_stage[lid] = _LS_DONE
                        elif stage == _LS_DONE:
                            if ln_vector[lid] and ln_level[lid] == _DRAM:
                                if mshr_q:
                                    curq_app(mshr_q.popleft())
                                else:
                                    self.mshr_used -= 1
                            ln_state[lid] = 1
                            curq_app(_T_RESP | lid << 4)
                            continue
                        elif stage == _LS_MSHR:  # granted: head for the bank
                            bank = ln_bank[lid]
                            noc_msgs += 1
                            noc_hops += hops_tab[bank]
                            lat = lat_tab[bank]
                            noc_lat += lat
                            ln_stage[lid] = _LS_ARRIVE
                            at = t + lat
                        else:  # _LS_PRE: cold path (scalar L1 lookups)
                            self._line_step(lid)
                            continue
                        d = at - t
                        if d == 0:
                            curq_app(tok)
                        elif d < _WHEEL:
                            sl = at & _WMASK
                            b = wheel[sl]
                            if not b:
                                self.occ |= 1 << sl
                            b.append(tok)
                        else:
                            heapq.heappush(overflow, (at, self._oseq, tok))
                            self._oseq += 1
                    elif code == _T_VM:
                        r = tok >> 4
                        if vm_state[r] != _VM_GAP:
                            self._vm_step(r)
                            continue
                        # gap elapsed: spawn line j of record r and every
                        # zero-gap follower, then either suspend for the
                        # next positive gap or run the record-complete
                        # tail — all inline (mirrors _vm_issue).
                        slot = p_slot[r]
                        j = vm_j[r]
                        banks = p_vm_banks[slot]
                        levels = p_vm_levels[slot]
                        steps = p_vm_steps[slot]
                        nl = p_vm_n[slot]
                        live = vm_live[r]
                        wbleft = vm_wbleft[r]
                        while True:
                            bank = banks[j]
                            level = levels[j]
                            if ln_free:
                                lid = ln_free.pop()
                                ln_bank[lid] = bank
                                ln_level[lid] = level
                                ln_vector[lid] = True
                                ln_owner[lid] = r
                                ln_first[lid] = (j == 0
                                                 and chain_state[r] == 0)
                                ln_state[lid] = 0
                                ln_waiter[lid] = None
                            else:
                                lid = len(ln_bank)
                                ln_bank.append(bank)
                                ln_level.append(level)
                                ln_vector.append(True)
                                ln_owner.append(r)
                                ln_first.append(j == 0
                                                and chain_state[r] == 0)
                                ln_state.append(0)
                                ln_stage.append(0)
                                ln_waiter.append(None)
                            live += 1
                            ltok = _T_LINE | lid << 4
                            if level == _DRAM:
                                ln_stage[lid] = _LS_MSHR
                                if self.mshr_used < mshr_cap:
                                    self.mshr_used += 1
                                    curq_app(ltok)  # grant hop
                                else:
                                    mshr_q.append(ltok)
                            else:
                                noc_msgs += 1
                                noc_hops += hops_tab[bank]
                                lat = lat_tab[bank]
                                noc_lat += lat
                                ln_stage[lid] = _LS_ARRIVE
                                if 0 < lat < _WHEEL:
                                    at = t + lat
                                    sl = at & _WMASK
                                    b = wheel[sl]
                                    if not b:
                                        self.occ |= 1 << sl
                                    b.append(ltok)
                                else:
                                    self._at(ltok, t + lat)
                            if wbleft > 0:
                                wbleft -= 1
                                noc_msgs += 1
                                noc_hops += hops_tab[bank]
                                lat = lat_tab[bank]
                                noc_lat += lat
                                if 0 < lat < _WHEEL:
                                    at = t + lat
                                    sl = at & _WMASK
                                    b = wheel[sl]
                                    if not b:
                                        self.occ |= 1 << sl
                                    b.append(_T_WB)
                                else:
                                    self._at(_T_WB, t + lat)
                            j += 1
                            if j >= nl:
                                vm_live[r] = live
                                vm_wbleft[r] = wbleft
                                # record fully issued: free the AGU, wait
                                if agu_q:
                                    curq_app(agu_q.popleft())
                                else:
                                    self.agu_busy = False
                                if live == 0:
                                    vm_state[r] = _VM_ALL
                                    curq_app(tok)
                                else:
                                    vm_waiting[r] = True
                                break
                            stp = steps[j]
                            if stp > 0:
                                vm_j[r] = j
                                vm_live[r] = live
                                vm_wbleft[r] = wbleft
                                if stp < _WHEEL:
                                    at = t + stp
                                    sl = at & _WMASK
                                    b = wheel[sl]
                                    if not b:
                                        self.occ |= 1 << sl
                                    b.append(tok)
                                else:
                                    self._at(tok, t + stp)
                                break
                            # zero gap: spawn the next line immediately
                    elif code == _T_RESP:
                        lid = tok >> 4
                        ln_state[lid] = 2
                        r = ln_owner[lid]
                        if r >= 0:
                            if ln_first[lid] and chain_state[r] == 0:
                                chain_state[r] = 1
                                curq_app(_T_CHAIN | r << 4)
                            live = vm_live[r] - 1
                            vm_live[r] = live
                            if live == 0 and vm_waiting[r]:
                                vm_waiting[r] = False
                                vm_state[r] = _VM_ALL
                                curq_app(_T_VM | r << 4)
                            ln_recycle(lid)
                        else:
                            w = ln_waiter[lid]
                            if w is not None:
                                ln_waiter[lid] = None
                                ln_recycle(lid)
                                exec_(w)
                    elif code == _T_WB:
                        if lim_den1:
                            admit = (limiter._window_start
                                     + limiter._window_used)
                            if admit < t:
                                admit = t
                            limiter._window_start = admit
                            limiter._window_used = 1
                            limiter.admitted += 1
                            if admit > t:
                                limiter.throttle_cycles += admit - t
                        else:
                            admit = int(limiter_admit(t))
                        lat_n += 1
                        at = admit + lat_extra + dram_service
                        if at > wb_tail:
                            wb_tail = at
                    elif code == _T_DONE:
                        r = tok >> 4
                        done_state[r] = 2
                        w = done_waiters[r]
                        if w:
                            done_waiters[r] = []
                            for wt in w:
                                exec_(wt)
                    elif code == _T_CHAIN:
                        r = tok >> 4
                        chain_state[r] = 2
                        w = chain_waiters[r]
                        if w:
                            chain_waiters[r] = []
                            for wt in w:
                                exec_(wt)
                    elif code == _T_CORE:
                        self._core_step()
                    elif code == _T_VA:
                        self._va_step(tok >> 4)
                    else:
                        exec_(tok)
                if intro:
                    i_ts += 1
                    d = len(curq)  # bucket batch + same-cycle appends
                    i_tokens += d
                    if d > i_max_drain:
                        i_max_drain = d
                    if not i_ts & 15:
                        # wheel occupancy is a sampled high-watermark: the
                        # big-int popcount is the one expensive probe here,
                        # so it runs every 16th active timestamp (the
                        # exact counters above stay exact)
                        ob = self.occ.bit_count()
                        if ob > i_max_occ:
                            i_max_occ = ob
                del curq[:]
        finally:
            self._running = False
            self.noc_msgs += noc_msgs
            self.noc_hops += noc_hops
            self.noc_lat += noc_lat
            self.bank_wait += bank_wait
            if wb_tail > self.wb_tail:
                self.wb_tail = wb_tail
            lc = self.latency_ctl
            lc.requests += lat_n
            lc.added_cycles += lat_n * lat_extra
            if lim_den1:
                # inline den==1 admissions bypass limiter.admit(); keep its
                # fast-path counter (an attribute, NOT part of the pinned
                # ``stats`` dict) consistent with the reference engine
                limiter.fast_admits += lat_n
            if intro:
                self.intro_timestamps += i_ts
                self.intro_tokens += i_tokens
                if i_max_drain > self.intro_max_drain:
                    self.intro_max_drain = i_max_drain
                if i_max_occ > self.intro_max_occupancy:
                    self.intro_max_occupancy = i_max_occ

    def _exec(self, tok: int) -> None:
        code = tok & 15
        arg = tok >> 4
        if code == _T_LINE:
            self._line_step(arg)
        elif code == _T_RESP:
            self._resp_fire(arg)
        elif code == _T_CORE:
            self._core_step()
        elif code == _T_VM:
            self._vm_step(arg)
        elif code == _T_VA:
            self._va_step(arg)
        elif code == _T_DONE:
            self._done_fire(arg)
        elif code == _T_CHAIN:
            self._chain_fire(arg)
        elif code == _T_WB:
            self._wb_arrive()
        else:
            self._bar_child()

    # ------------------------------------------------------- events & waits

    def _wait_done(self, i: int, tok: int) -> None:
        if self.done_state[i] == 2:
            self._at(tok, self.now)  # already processed: boot hop
        else:
            self.done_waiters[i].append(tok)

    def _wait_chain(self, i: int, tok: int) -> None:
        if self.chain_state[i] == 2:
            self._at(tok, self.now)
        else:
            self.chain_waiters[i].append(tok)

    def _done_fire(self, i: int) -> None:
        self.done_state[i] = 2
        w = self.done_waiters[i]
        if w:
            self.done_waiters[i] = []
            for tok in w:
                self._exec(tok)

    def _chain_fire(self, i: int) -> None:
        self.chain_state[i] = 2
        w = self.chain_waiters[i]
        if w:
            self.chain_waiters[i] = []
            for tok in w:
                self._exec(tok)

    def _finish(self, i: int) -> None:
        now = self.now
        self.done_time[i] = now
        if self.done_state[i] == 0:
            self.done_state[i] = 1
            self._at(_T_DONE | i << 4, now)
        if self.chain_state[i] == 0:
            self.chain_state[i] = 1
            self._at(_T_CHAIN | i << 4, now)
        self.pending.discard(i)

    # ------------------------------------------------------------ memory path

    def _noc_msg(self, bank: int) -> int:
        self.noc_msgs += 1
        self.noc_hops += self.hops_tab[bank]
        lat = self.lat_tab[bank]
        self.noc_lat += lat
        return lat

    def _spawn_line(self, bank: int, level: int, pre_delay: int,
                    owner: int, first: bool, vector: bool) -> int:
        free = self.ln_free
        if free:
            lid = free.pop()
            self.ln_bank[lid] = bank
            self.ln_level[lid] = level
            self.ln_vector[lid] = vector
            self.ln_owner[lid] = owner
            self.ln_first[lid] = first
            self.ln_state[lid] = 0
            self.ln_waiter[lid] = None
        else:
            lid = len(self.ln_bank)
            self.ln_bank.append(bank)
            self.ln_level.append(level)
            self.ln_vector.append(vector)
            self.ln_owner.append(owner)
            self.ln_first.append(first)
            self.ln_state.append(0)
            self.ln_stage.append(0)
            self.ln_waiter.append(None)
        if pre_delay > 0:
            self.ln_stage[lid] = _LS_PRE
            self._at(_T_LINE | lid << 4, self.now + pre_delay)
        elif vector and level == _DRAM:
            self._line_mshr(lid)
        else:
            self._line_noc_out(lid)
        return lid

    def _line_mshr(self, lid: int) -> None:
        self.ln_stage[lid] = _LS_MSHR
        tok = _T_LINE | lid << 4
        if self.mshr_used < self.mshr_cap:
            self.mshr_used += 1
            self._at(tok, self.now)  # grant hop
        else:
            self.mshr_q.append(tok)

    def _line_noc_out(self, lid: int) -> None:
        lat = self._noc_msg(self.ln_bank[lid])
        self.ln_stage[lid] = _LS_ARRIVE
        self._at(_T_LINE | lid << 4, self.now + lat)

    def _line_step(self, lid: int) -> None:
        stage = self.ln_stage[lid]
        if stage == _LS_ARRIVE:
            bank = self.ln_bank[lid]
            now = self.now
            grant = self.bank_free[bank]
            if grant < now:
                grant = now
            self.bank_free[bank] = grant + 1
            self.bank_wait += grant - now
            wait = grant - now + self.access
            if self.ln_level[lid] == _DRAM:
                self.ln_stage[lid] = _LS_LIMITER
                self._at(_T_LINE | lid << 4, now + wait)
            else:
                back = self._noc_msg(bank)
                self.ln_stage[lid] = _LS_DONE
                self._at(_T_LINE | lid << 4, now + wait + back)
        elif stage == _LS_LIMITER:
            now = self.now
            admit = int(self.limiter.admit(now))
            extra = int(self.latency_ctl.delay(admit)) - admit
            back = self._noc_msg(self.ln_bank[lid])
            self.ln_stage[lid] = _LS_DONE
            self._at(_T_LINE | lid << 4,
                     admit + extra + self.dram_service + back)
        elif stage == _LS_DONE:
            if self.ln_vector[lid] and self.ln_level[lid] == _DRAM:
                if self.mshr_q:
                    self._at(self.mshr_q.popleft(), self.now)
                else:
                    self.mshr_used -= 1
            self.ln_state[lid] = 1
            self._at(_T_RESP | lid << 4, self.now)
        elif stage == _LS_PRE:
            if self.ln_vector[lid] and self.ln_level[lid] == _DRAM:
                self._line_mshr(lid)
            else:
                self._line_noc_out(lid)
        else:  # _LS_MSHR: granted
            self._line_noc_out(lid)

    def _resp_fire(self, lid: int) -> None:
        self.ln_state[lid] = 2
        r = self.ln_owner[lid]
        if r >= 0:
            # chain-ready fires with the first response, before the
            # all-responses accounting (reference callback order)
            if self.ln_first[lid] and self.chain_state[r] == 0:
                self.chain_state[r] = 1
                self._at(_T_CHAIN | r << 4, self.now)
            self.vm_live[r] -= 1
            if self.vm_waiting[r] and self.vm_live[r] == 0:
                self.vm_waiting[r] = False
                self.vm_state[r] = _VM_ALL
                self._at(_T_VM | r << 4, self.now)
            self.ln_free.append(lid)
        else:
            w = self.ln_waiter[lid]
            if w is not None:
                self.ln_waiter[lid] = None
                self.ln_free.append(lid)
                self._exec(w)
            # else: the scalar core consumes (and recycles) it on its next
            # outstanding-queue pop

    def _spawn_wb(self, bank: int) -> None:
        lat = self._noc_msg(bank)
        self._at(_T_WB, self.now + lat)

    def _wb_arrive(self) -> None:
        now = self.now
        admit = int(self.limiter.admit(now))
        extra = int(self.latency_ctl.delay(admit)) - admit
        t = admit + extra + self.dram_service
        if t > self.wb_tail:
            self.wb_tail = t

    # ------------------------------------------------------------------- core

    def _core_advance(self) -> None:
        plan = self.plan
        n = plan.n
        while True:
            i = self.core_i
            if i >= n:
                return
            kind = plan.kind[i]
            if kind == LKIND_SCALAR:
                self.core_t0 = self.now
                if self._sc_begin(i):
                    if self.timeline is not None:
                        self.timeline.add("scalar-core", f"scalar[{i}]",
                                          self.core_t0, self.now)
                    self._finish(i)
                    self.core_i += 1
                    continue
                return
            if kind == LKIND_BARRIER:
                cnt = 0
                for j in sorted(self.pending):
                    # pending records are unfinished: done not yet fired
                    self.done_waiters[j].append(_T_BAR)
                    cnt += 1
                if cnt:
                    self.bar_count = cnt
                    self.core_state = _CS_BARRIER
                    return
                if self.timeline is not None:
                    self.timeline.instant("scalar-core", f"barrier[{i}]",
                                          self.now)
                self._finish(i)
                self.core_i += 1
                continue
            if kind == LKIND_CSR:
                self.core_state = _CS_CSR
                self._at(_T_CORE, self.now + _VSETVL)
                return
            self.core_state = _CS_DISPATCHED
            self._at(_T_CORE, self.now + _DISPATCH)
            return

    def _core_step(self) -> None:
        st = self.core_state
        i = self.core_i
        if st == _CS_SC:
            if self._sc_issue():
                self._sc_done()
        elif st == _CS_DISPATCHED:
            if self.plan.kind[i] == LKIND_VARITH:
                self.pending.add(i)
                self._va_spawn(i)
                self._core_post_dispatch(i)
            else:  # vector memory: decoupled-queue slot first
                self.core_state = _CS_SLOT
                if self.slots_used < self.slots_cap:
                    self.slots_used += 1
                    self._at(_T_CORE, self.now)  # grant hop
                else:
                    self.slots_q.append(_T_CORE)
        elif st == _CS_SLOT:
            self.pending.add(i)
            self._vm_spawn(i)
            self._core_post_dispatch(i)
        elif st == _CS_SDEST:
            self.core_state = _CS_XFER
            self._at(_T_CORE, self.now + _TRANSFER)
        elif st == _CS_XFER:
            self.core_i += 1
            self._core_advance()
        elif st == _CS_BARRIER:
            if self.timeline is not None:
                self.timeline.instant("scalar-core", f"barrier[{i}]",
                                      self.now)
            self._finish(i)
            self.core_i += 1
            self._core_advance()
        else:  # _CS_CSR
            self._finish(i)
            self.core_i += 1
            self._core_advance()

    def _core_post_dispatch(self, i: int) -> None:
        if self.plan.scalar_dest[i]:
            self.core_state = _CS_SDEST
            self._wait_done(i, _T_CORE)
        else:
            self.core_i += 1
            self._core_advance()

    def _bar_child(self) -> None:
        self.bar_count -= 1
        if self.bar_count == 0:
            self._at(_T_CORE, self.now)  # the AllOf completion hop

    # ----------------------------------------------------------------- scalar

    def _sc_begin(self, i: int) -> bool:
        """Start scalar block ``i``; True if it completed inline."""
        plan = self.plan
        slot = plan.slot[i]
        self.sc_i = i
        if plan.sc_n_mem[slot] == 0:
            q = plan.sc_issue[slot]
            self.acc_issue += q
            if q > 0:
                self.core_state = _CS_SC
                self.sc_phase = _SCP_END
                self._at(_T_CORE, self.now + q)
                return False
            return True
        self.sc_slot = slot
        self.sc_t0 = self.now
        self.acc_issue += plan.sc_gap_total[slot]
        self.sc_j = 0
        self.sc_out.clear()
        self.sc_wb = plan.sc_wb[slot]
        self.sc_pf = plan.sc_pf[slot]
        self.sc_phase = _SCP_GAP
        self.core_state = _CS_SC
        return self._sc_issue()

    def _sc_issue(self) -> bool:
        """Advance the active scalar block; True when it has completed."""
        plan = self.plan
        slot = self.sc_slot
        phase = self.sc_phase
        if phase == _SCP_END:
            return True
        steps = plan.sc_steps[slot]
        levels = plan.sc_levels[slot]
        banks = plan.sc_banks[slot]
        n_mem = plan.sc_n_mem[slot]
        p = plan.sc_p[slot]
        out = self.sc_out
        j = self.sc_j
        while True:
            if phase == _SCP_GAP:
                if j >= n_mem:
                    phase = _SCP_DRAIN
                    continue
                s = steps[j]
                phase = _SCP_LEVEL
                if s > 0:
                    self.sc_j = j
                    self.sc_phase = _SCP_LEVEL
                    self._at(_T_CORE, self.now + s)
                    return False
                continue
            if phase == _SCP_LEVEL:
                if levels[j] == _L1:
                    j += 1
                    phase = _SCP_GAP
                    continue
                if len(out) >= p:
                    # FIFO MSHRs: wait for the oldest outstanding miss
                    lid = out.popleft()
                    self.sc_j = j
                    self.sc_phase = _SCP_SPAWN
                    if self.ln_state[lid] == 2:
                        self.ln_free.append(lid)
                        self._at(_T_CORE, self.now)  # boot hop
                    else:
                        self.ln_waiter[lid] = _T_CORE
                    return False
                phase = _SCP_SPAWN
                continue
            if phase == _SCP_SPAWN:
                bank = banks[j]
                out.append(self._spawn_line(bank, levels[j], self.l1_hit,
                                            -1, False, False))
                if self.sc_wb > 0:
                    self._spawn_wb(bank)
                    self.sc_wb -= 1
                if self.sc_pf > 0:
                    self._spawn_wb((bank + 1) % self.n_banks)
                    self.sc_pf -= 1
                j += 1
                phase = _SCP_GAP
                continue
            # _SCP_DRAIN: one wait (one reference `yield`) per entry
            while out:
                lid = out.popleft()
                self.sc_j = j
                self.sc_phase = _SCP_DRAIN
                if self.ln_state[lid] == 2:
                    self.ln_free.append(lid)
                    self._at(_T_CORE, self.now)  # boot hop
                else:
                    self.ln_waiter[lid] = _T_CORE
                return False
            while self.sc_wb > 0:  # writebacks beyond the miss count
                self._spawn_wb(0)
                self.sc_wb -= 1
            self.acc_stall += self.now - self.sc_t0 \
                - plan.sc_gap_total[slot]
            return True

    def _sc_done(self) -> None:
        i = self.sc_i
        if self.timeline is not None:
            self.timeline.add("scalar-core", f"scalar[{i}]",
                              self.core_t0, self.now)
        self._finish(i)
        self.core_i += 1
        self._core_advance()

    # ------------------------------------------------------ vector arithmetic

    def _va_spawn(self, i: int) -> None:
        # sync process start: first reference yield is the pipe request
        self.va_state[i] = _VA_GRANT
        tok = _T_VA | i << 4
        if not self.pipe_busy:
            self.pipe_busy = True
            self._at(tok, self.now)  # grant hop
        else:
            self.pipe_q.append(tok)

    def _va_step(self, i: int) -> None:
        st = self.va_state[i]
        tok = _T_VA | i << 4
        if st == _VA_GRANT:
            dep = self.plan.dep[i]
            if dep < 0:
                self._va_ready(i)
            elif self.chaining:
                self.va_state[i] = _VA_CHAINED
                self._wait_chain(dep, tok)
            else:
                self.va_state[i] = _VA_READY
                self._wait_done(dep, tok)
        elif st == _VA_CHAINED:
            self.va_state[i] = _VA_READY
            self._at(tok, self.now + _LPD)
        elif st == _VA_READY:
            self._va_ready(i)
        elif st == _VA_OCC:
            if self.pipe_q:
                self._at(self.pipe_q.popleft(), self.now)
            else:
                self.pipe_busy = False
            self.va_state[i] = _VA_LAT
            self._at(tok, self.now + self.arith_lat)
        elif st == _VA_LAT:
            dep = self.plan.dep[i]
            if dep >= 0 and self.chaining:
                self.va_state[i] = _VA_FLOOR
                self._wait_done(dep, tok)
            else:
                self._va_fin(i)
        elif st == _VA_FLOOR:
            target = self.done_time[self.plan.dep[i]] + _LPD
            if self.now < target:
                self.va_state[i] = _VA_FIN
                self._at(tok, target)
            else:
                self._va_fin(i)
        else:  # _VA_FIN
            self._va_fin(i)

    def _va_ready(self, i: int) -> None:
        if self.chain_state[i] == 0:
            self.chain_state[i] = 1  # consumers may chain from our start
            self._at(_T_CHAIN | i << 4, self.now)
        occ = self.plan.va_occ[self.plan.slot[i]]
        self.acc_varith += occ
        self.va_tb[i] = self.now
        self.va_state[i] = _VA_OCC
        self._at(_T_VA | i << 4, self.now + occ)

    def _va_fin(self, i: int) -> None:
        if self.timeline is not None:
            plan = self.plan
            self.timeline.add("vpu-arith", f"varith[{i}]",
                              self.va_tb[i], self.now, vl=plan.vl[i],
                              occupancy=plan.va_occ[plan.slot[i]])
        self._finish(i)

    # --------------------------------------------------------- vector memory

    def _vm_spawn(self, i: int) -> None:
        dep = self.plan.dep[i]
        tok = _T_VM | i << 4
        if self.ooo:
            # OoO memory queue: wait for operands *before* claiming the AGU
            if dep >= 0:
                if self.chaining:
                    self.vm_state[i] = _VM_CHAINED_PRE
                    self._wait_chain(dep, tok)
                else:
                    self.vm_state[i] = _VM_DEP_PRE
                    self._wait_done(dep, tok)
                return
            self._vm_agu_request(i, _VM_AGU)
        else:
            # strict in-order issue: hold the AGU through the operand wait
            self._vm_agu_request(i, _VM_AGU2)

    def _vm_agu_request(self, i: int, state: int) -> None:
        self.vm_state[i] = state
        tok = _T_VM | i << 4
        if not self.agu_busy:
            self.agu_busy = True
            self._at(tok, self.now)  # grant hop
        else:
            self.agu_q.append(tok)

    def _vm_step(self, i: int) -> None:
        st = self.vm_state[i]
        tok = _T_VM | i << 4
        if st == _VM_GAP:
            self._vm_issue(i, True)
        elif st == _VM_ALL:
            self._vm_tail(i)
        elif st == _VM_CHAINED_PRE:
            self.vm_state[i] = _VM_DEP_PRE
            self._at(tok, self.now + _LPD)
        elif st == _VM_DEP_PRE:
            self._vm_agu_request(i, _VM_AGU)
        elif st == _VM_AGU:
            self._vm_ready(i)
        elif st == _VM_AGU2:
            dep = self.plan.dep[i]
            if dep < 0:
                self._vm_ready(i)
            elif self.chaining:
                self.vm_state[i] = _VM_CHAINED_POST
                self._wait_chain(dep, tok)
            else:
                self.vm_state[i] = _VM_READY
                self._wait_done(dep, tok)
        elif st == _VM_CHAINED_POST:
            self.vm_state[i] = _VM_READY
            self._at(tok, self.now + _LPD)
        elif st == _VM_READY:
            self._vm_ready(i)
        elif st == _VM_FLOOR:
            target = self.done_time[self.plan.dep[i]] + _LPD
            if self.now < target:
                self.vm_state[i] = _VM_FIN
                self._at(tok, target)
            else:
                self._vm_fin(i)
        else:  # _VM_FIN
            self._vm_fin(i)

    def _vm_ready(self, i: int) -> None:
        self.vm_tb[i] = self.now
        self.vm_j[i] = 0
        self.vm_wbleft[i] = self.plan.vm_wb[self.plan.slot[i]]
        self.vm_live[i] = 0
        self._vm_issue(i, False)

    def _vm_issue(self, i: int, spawn_first: bool) -> None:
        # Hot path: issues every coalesced line of one vector-memory
        # record, with the slab allocation, MSHR request, NoC hop and
        # writeback spawn inlined (equivalent to
        # :meth:`_spawn_line` + :meth:`_spawn_wb` per line).
        plan = self.plan
        slot = plan.slot[i]
        steps = plan.vm_steps[slot]
        levels = plan.vm_levels[slot]
        banks = plan.vm_banks[slot]
        n_lines = plan.vm_n[slot]
        now = self.now
        wheel = self.wheel
        curq_app = self._curq.append
        ln_free = self.ln_free
        ln_bank = self.ln_bank
        ln_level = self.ln_level
        ln_vector = self.ln_vector
        ln_owner = self.ln_owner
        ln_first = self.ln_first
        ln_state = self.ln_state
        ln_stage = self.ln_stage
        ln_waiter = self.ln_waiter
        hops_tab = self.hops_tab
        lat_tab = self.lat_tab
        mshr_q = self.mshr_q
        mshr_cap = self.mshr_cap
        j = self.vm_j[i]
        live = self.vm_live[i]
        wbleft = self.vm_wbleft[i]
        pending_gap = not spawn_first
        while j < n_lines:
            if pending_gap:
                s = steps[j]
                if s > 0:
                    self.vm_j[i] = j
                    self.vm_live[i] = live
                    self.vm_wbleft[i] = wbleft
                    self.vm_state[i] = _VM_GAP
                    if s < _WHEEL:
                        at = now + s
                        sl = at & _WMASK
                        b = wheel[sl]
                        if not b:
                            self.occ |= 1 << sl
                        b.append(_T_VM | i << 4)
                    else:
                        self._at(_T_VM | i << 4, now + s)
                    return
            else:
                pending_gap = True
            # ---- spawn line j (inline _spawn_line, vector path) ----
            bank = banks[j]
            level = levels[j]
            if ln_free:
                lid = ln_free.pop()
                ln_bank[lid] = bank
                ln_level[lid] = level
                ln_vector[lid] = True
                ln_owner[lid] = i
                ln_first[lid] = j == 0 and self.chain_state[i] == 0
                ln_state[lid] = 0
                ln_waiter[lid] = None
            else:
                lid = len(ln_bank)
                ln_bank.append(bank)
                ln_level.append(level)
                ln_vector.append(True)
                ln_owner.append(i)
                ln_first.append(j == 0 and self.chain_state[i] == 0)
                ln_state.append(0)
                ln_stage.append(0)
                ln_waiter.append(None)
            live += 1
            tok = _T_LINE | lid << 4
            if level == _DRAM:
                ln_stage[lid] = _LS_MSHR
                if self.mshr_used < mshr_cap:
                    self.mshr_used += 1
                    curq_app(tok)  # grant hop
                else:
                    mshr_q.append(tok)
            else:
                self.noc_msgs += 1
                self.noc_hops += hops_tab[bank]
                lat = lat_tab[bank]
                self.noc_lat += lat
                ln_stage[lid] = _LS_ARRIVE
                if 0 < lat < _WHEEL:
                    at = now + lat
                    sl = at & _WMASK
                    b = wheel[sl]
                    if not b:
                        self.occ |= 1 << sl
                    b.append(tok)
                else:
                    self._at(tok, now + lat)
            if wbleft > 0:
                wbleft -= 1
                self.noc_msgs += 1
                self.noc_hops += hops_tab[bank]
                lat = lat_tab[bank]
                self.noc_lat += lat
                if 0 < lat < _WHEEL:
                    at = now + lat
                    sl = at & _WMASK
                    b = wheel[sl]
                    if not b:
                        self.occ |= 1 << sl
                    b.append(_T_WB)
                else:
                    self._at(_T_WB, now + lat)
            j += 1
        self.vm_live[i] = live
        self.vm_wbleft[i] = wbleft
        # all lines issued: free the AGU, wait for the responses
        if self.agu_q:
            curq_app(self.agu_q.popleft())
        else:
            self.agu_busy = False
        if n_lines == 0:
            self._vm_tail(i)  # no responses: continue inline
        elif live == 0:
            self.vm_state[i] = _VM_ALL
            curq_app(_T_VM | i << 4)  # all-of fires immediately
        else:
            self.vm_waiting[i] = True

    def _vm_tail(self, i: int) -> None:
        self.acc_vmem += self.now - self.vm_tb[i]
        dep = self.plan.dep[i]
        if dep >= 0 and self.chaining:
            self.vm_state[i] = _VM_FLOOR
            self._wait_done(dep, _T_VM | i << 4)
        else:
            self._vm_fin(i)

    def _vm_fin(self, i: int) -> None:
        plan = self.plan
        if self.timeline is not None:
            slot = plan.slot[i]
            self.timeline.add("vpu-mem", f"vmem[{i}]", self.vm_tb[i],
                              self.now, vl=plan.vl[i],
                              lines=plan.vm_n[slot],
                              dram_reads=plan.vm_dram[slot])
        self._finish(i)
        if self.slots_q:  # free the decoupled-queue slot
            self._at(self.slots_q.popleft(), self.now)
        else:
            self.slots_used -= 1


def _plan_line_spawns(plan: EventPlan) -> int:
    """Total line-request slab allocations a run of ``plan`` performs.

    Derived from the plan tables (one vector-memory record spawns its
    coalesced line count; one scalar block spawns its non-L1 ops), so the
    introspection layer never counts allocations on the hot path. Cached
    on the plan — it is shared across every re-timing of one trace.
    """
    cached = getattr(plan, "_line_spawns", None)
    if cached is not None:
        return cached
    kind = plan.kind
    slot = plan.slot
    total = 0
    for i in range(plan.n):
        k = kind[i]
        if k == LKIND_VMEM:
            total += plan.vm_n[slot[i]]
        elif k == LKIND_SCALAR:
            levels = plan.sc_levels[slot[i]]
            if levels:
                total += sum(1 for lv in levels if lv != _L1)
    plan._line_spawns = total
    return total


def _record_engine_stats(sim: _FastSim, plan: EventPlan) -> None:
    """Post-run introspection: everything not kept per-timestamp is
    derived from end-of-run state (see docs/observability.md glossary)."""
    from repro.obs.record import get_recorder

    es = get_recorder()
    es.count("event.runs")
    es.count("event.timestamps", sim.intro_timestamps)
    es.count("event.tokens", sim.intro_tokens)
    es.high("event.max_drain_depth", sim.intro_max_drain)
    es.high("event.max_wheel_occupancy", sim.intro_max_occupancy)
    es.count("event.overflow_spills", sim._oseq)
    es.high("event.slab_high_water", len(sim.ln_bank))
    spawns = _plan_line_spawns(plan)
    es.count("event.line_spawns", spawns)
    es.count("event.lines_recycled", spawns - len(sim.ln_bank))
    es.count("limiter.admits", sim.limiter.admitted)
    es.count("limiter.fast_path_admits", sim.limiter.fast_admits)


def simulate_events_fast(ct: ClassifiedTrace, *, timeline=None
                         ) -> CycleReport:
    """Run the array-backed discrete-event model over a classified trace.

    Drop-in replacement for :func:`repro.engine.event_sim.simulate_events`
    with bit-identical results; registered as ``engine="event"``.
    """
    # resolved lazily to keep the engine importable without the obs
    # package (and to avoid a package-init cycle)
    from repro.obs.record import get_recorder

    if timeline is not None:
        timeline.engine = "event"
    plan = event_plan(ct)
    intro = get_recorder().on
    sim = _FastSim(ct, plan, timeline, intro=intro)
    sim._core_advance()  # synchronous start, like the reference's core()
    sim._run()
    if intro:
        _record_engine_stats(sim, plan)
    cycles = sim.now if sim.now >= sim.wb_tail else sim.wb_tail
    return CycleReport(
        cycles=float(cycles),
        engine="event",
        scalar_issue_cycles=float(sim.acc_issue),
        scalar_stall_cycles=float(sim.acc_stall),
        vpu_arith_cycles=float(sim.acc_varith),
        vpu_mem_cycles=float(sim.acc_vmem),
        bandwidth_bound_cycles=0.0,
        dram_reads=plan.total_dram_reads,
        dram_writes=plan.total_dram_writes,
        meta={
            "records": plan.n,
            "noc": {
                "messages": sim.noc_msgs,
                "total_hops": sim.noc_hops,
                "latency_cycles": float(sim.noc_lat),
            },
            "latency_ctl": sim.latency_ctl.stats,
            "limiter": sim.limiter.stats,
            "bank_wait_cycles": float(sim.bank_wait),
        },
    )
