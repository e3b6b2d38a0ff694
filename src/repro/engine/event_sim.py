"""Discrete-event reference model (coroutine backend, ``event-ref``).

Models the FPGA-SDV as communicating processes on the DES kernel
(:mod:`repro.engine.des`):

* the **scalar core** walks the trace in order, issuing scalar accesses at
  its issue width with MSHR-bounded outstanding misses, dispatching vector
  instructions to the VPU, stalling on scalar-destination results, queue-full
  dispatch and barriers;
* the **arith pipe** executes vector arithmetic in order with the
  :mod:`vpu_model` occupancies, honoring RAW dependencies and chaining;
* the **vector memory unit** issues line requests at the AGU rate through
  the NoC to the per-bank L2 ports; misses stream through the Bandwidth
  Limiter window and the Latency Controller to DRAM.

The hit/miss outcome of every request comes from the classification pass
(the caches are deterministic state machines, so there is no point
re-simulating them here); what this model adds over the analytic one is
*queueing*: real per-bank contention, real limiter windows, real MSHR and
decoupled-queue occupancy.

All per-record cost inputs come from the shared
:class:`repro.engine.event_common.EventPlan`, which also pre-quantizes the
fractional issue gaps onto the kernel's integer-cycle clock; this model
reads slices of its per-line arrays. The compiled DES
(:mod:`repro.engine.event_fast`, registered as ``engine="event"``)
replays the **same schedule** and must agree with this one bit for bit.
This model is the executable specification the tests pin ``event`` to,
and its reports and timelines carry the label ``event-ref``. It is also
what ``event`` runs on a host with no C compiler, relabelled ``event``.
It is O(events) in Python generators, a few hundred times slower than
the compiled DES.
"""

from __future__ import annotations

from repro.engine import core_model, vpu_model
from repro.engine.des import Environment, Event, Resource
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

# integer-cycle core costs (see core_model for the rationale/values)
_DISPATCH = int(core_model.VECTOR_DISPATCH_CYCLES)
_VSETVL = int(core_model.VSETVL_CYCLES)
_TRANSFER = int(core_model.SCALAR_RESULT_TRANSFER_CYCLES)
_DRAM = int(AccessLevel.DRAM)
_L1 = int(AccessLevel.L1)


class _Machine:
    """All simulation state for one run."""

    def __init__(self, ct: ClassifiedTrace, plan: EventPlan, *,
                 timeline=None) -> None:
        self.plan = plan
        # the plan's arrays as lists: a coroutine per record indexes them
        # element by element, and list indexing is the cheap kind
        self.req_off = plan.req_off.tolist()
        self.level = plan.level.tolist()
        self.bank = plan.bank.tolist()
        self.step = plan.step.tolist()
        self.dep = plan.dep.tolist()
        self.config = ct.config
        self.env = Environment()
        self.timeline = timeline
        cfg = self.config

        self.limiter = BandwidthLimiter(cfg.mem.bw_num, cfg.mem.bw_den)
        self.latency_ctl = LatencyController(cfg.mem.extra_latency_cycles)
        self.noc = MeshNoc(cfg.noc)
        self.bank_wait_cycles = 0.0  # queueing at the L2 bank ports
        # analytic unit-rate bank port servers: the k-th arrival at a bank
        # is granted at max(arrival, previous grant + 1) — exactly a FIFO
        # Resource(1) held for one cycle, without two event hops per line
        self.bank_free = [0] * cfg.l2.banks
        self.access = int(cfg.l2.access_cycles)
        self.dram_service = int(cfg.mem.dram_service_cycles)
        self.l1_hit = int(cfg.core.l1_hit_cycles)
        self.arith_lat = int(vpu_model.arith_latency(cfg))
        self.n_banks = cfg.l2.banks
        self.nodes = cfg.noc.nodes

        self.arith_pipe = Resource(self.env, 1)
        self.agu = Resource(self.env, 1)
        self.mem_slots = Resource(self.env, cfg.vpu.mem_queue_depth)
        self.line_mshrs = Resource(self.env, cfg.vpu.line_mshrs)

        n = plan.n
        self.done_ev: list[Event] = [self.env.event() for _ in range(n)]
        self.chain_ev: list[Event] = [self.env.event() for _ in range(n)]
        self.done_time = [-1] * n
        self.pending: set[int] = set()

        # breakdown accumulators (only ever add integers: order-exact)
        self.acc_issue = 0
        self.acc_stall = 0
        self.acc_varith = 0
        self.acc_vmem = 0

    # ------------------------------------------------------------ memory path

    def line_request(self, bank: int, level: int, *, pre_delay: int = 0,
                     resp_ev: Event | None = None, vector: bool = False):
        """One 64-byte read request: NoC → bank port → (DRAM) → response.

        Vector-side DRAM requests occupy one of the memory unit's line
        MSHRs for their whole flight (the scalar core's MSHR bound is
        modeled in :meth:`scalar_block`).
        """
        env = self.env
        if pre_delay > 0:
            yield env.timeout(pre_delay)
        mshr_held = False
        if vector and level == _DRAM:
            yield self.line_mshrs.request()
            mshr_held = True
        bank_node = bank % self.nodes
        yield env.timeout(self.noc.record_message(self.noc.core_node,
                                                  bank_node))
        now = env.now
        grant = self.bank_free[bank]
        if grant < now:
            grant = now
        self.bank_free[bank] = grant + 1
        self.bank_wait_cycles += grant - now
        wait_access = grant - now + self.access
        if level == _DRAM:
            yield env.timeout(wait_access)
            now = env.now
            admit = int(self.limiter.admit(now))
            extra = int(self.latency_ctl.delay(admit)) - admit
            back = self.noc.record_message(bank_node, self.noc.core_node)
            yield env.timeout(admit - now + extra + self.dram_service + back)
        else:
            back = self.noc.record_message(bank_node, self.noc.core_node)
            yield env.timeout(wait_access + back)
        if mshr_held:
            self.line_mshrs.release()
        if resp_ev is not None and not resp_ev.triggered:
            resp_ev.succeed()

    def dram_writeback(self, bank: int):
        """Fire-and-forget write transaction (consumes limiter bandwidth)."""
        env = self.env
        yield env.timeout(self.noc.record_message(
            self.noc.core_node, bank % self.nodes))
        now = env.now
        admit = int(self.limiter.admit(now))
        extra = int(self.latency_ctl.delay(admit)) - admit
        yield env.timeout(admit - now + extra + self.dram_service)

    # -------------------------------------------------------------- dependency

    def wait_dep(self, dep: int):
        """Wait until a consumer of record ``dep`` may start."""
        if self.config.vpu.chaining:
            yield self.chain_ev[dep]
            yield self.env.timeout(vpu_model.LANE_PIPE_DEPTH)
        else:
            yield self.done_ev[dep]

    def enforce_floor(self, dep: int):
        """Consumer completion floor: producer done + pipe depth."""
        if not self.config.vpu.chaining:
            return
        yield self.done_ev[dep]
        target = self.done_time[dep] + vpu_model.LANE_PIPE_DEPTH
        if self.env.now < target:
            yield self.env.timeout(target - self.env.now)

    def finish(self, i: int) -> None:
        self.done_time[i] = self.env.now
        if not self.done_ev[i].triggered:
            self.done_ev[i].succeed()
        if not self.chain_ev[i].triggered:
            self.chain_ev[i].succeed()
        self.pending.discard(i)

    # ----------------------------------------------------------------- scalar

    def scalar_block(self, i: int):
        env = self.env
        plan = self.plan
        lo, hi = self.req_off[i], self.req_off[i + 1]
        n_mem = hi - lo

        if n_mem == 0:
            issue = int(plan.issue[i])
            self.acc_issue += issue
            if issue > 0:
                yield env.timeout(issue)
            return

        t_start = env.now
        steps = self.step[lo:hi]
        levels = self.level[lo:hi]
        banks = self.bank[lo:hi]
        p = int(plan.mlp[i])
        gap_total = int(plan.gap_total[i])
        self.acc_issue += gap_total

        outstanding: list[Event] = []
        wb_left = int(plan.wb[i])
        pf_left = int(plan.pf[i])
        for j in range(n_mem):
            if steps[j] > 0:
                yield env.timeout(steps[j])
            level = levels[j]
            if level == _L1:
                continue
            if len(outstanding) >= p:
                # FIFO MSHRs: wait for the oldest outstanding miss
                yield outstanding.pop(0)
            bank = banks[j]
            resp = env.event()
            env.process(self.line_request(
                bank, level, pre_delay=self.l1_hit, resp_ev=resp))
            outstanding.append(resp)
            if wb_left > 0:
                # attribute the block's writebacks to its earliest misses
                env.process(self.dram_writeback(bank))
                wb_left -= 1
            if pf_left > 0:
                # prefetcher fill: fire-and-forget read on the same channel
                env.process(self.dram_writeback((bank + 1) % self.n_banks))
                pf_left -= 1
        for ev in outstanding:
            yield ev
        while wb_left > 0:  # writebacks beyond the miss count (rare)
            env.process(self.dram_writeback(0))
            wb_left -= 1
        self.acc_stall += env.now - t_start - gap_total

    # ----------------------------------------------------------------- vector

    def varith(self, i: int):
        env = self.env
        plan = self.plan
        yield self.arith_pipe.request()
        dep = self.dep[i]
        if dep >= 0:
            yield from self.wait_dep(dep)
        if not self.chain_ev[i].triggered:
            self.chain_ev[i].succeed()  # consumers may chain from our start
        occ = int(plan.occ[i])
        self.acc_varith += occ
        t_busy = env.now
        yield env.timeout(occ)
        self.arith_pipe.release()
        # result becomes visible one pipeline latency after issue completes
        yield env.timeout(self.arith_lat)
        if dep >= 0:
            yield from self.enforce_floor(dep)
        if self.timeline is not None:
            self.timeline.add("vpu-arith", f"varith[{i}]", t_busy, env.now,
                              vl=int(plan.vl[i]), occupancy=occ)
        self.finish(i)

    def vmem(self, i: int):
        env = self.env
        plan = self.plan
        dep = self.dep[i]
        if self.config.vpu.ooo_mem_issue:
            # OoO memory queue: wait for operands *before* claiming the AGU,
            # so younger independent loads stream past a stalled gather
            if dep >= 0:
                yield from self.wait_dep(dep)
            yield self.agu.request()
        else:
            # strict in-order issue: hold the AGU through the operand wait
            yield self.agu.request()
            if dep >= 0:
                yield from self.wait_dep(dep)

        lo, hi = self.req_off[i], self.req_off[i + 1]
        n_lines = hi - lo
        steps = self.step[lo:hi]
        levels = self.level[lo:hi]
        banks = self.bank[lo:hi]
        t_busy_start = env.now

        responses: list[Event] = []
        first_resp = self.chain_ev[i]
        wb_left = int(plan.wb[i])
        for j in range(n_lines):
            if steps[j] > 0:
                yield env.timeout(steps[j])
            bank = banks[j]
            resp = env.event()
            env.process(self.line_request(bank, levels[j], resp_ev=resp,
                                          vector=True))
            responses.append(resp)
            if j == 0 and not first_resp.triggered:
                # chain-ready fires with the first response
                def _fire_first(_e, fr=first_resp):
                    if not fr.triggered:
                        fr.succeed()
                resp.callbacks.append(_fire_first)
            if wb_left > 0:
                env.process(self.dram_writeback(bank))
                wb_left -= 1
        self.agu.release()
        if responses:
            yield env.all_of(responses)
        self.acc_vmem += env.now - t_busy_start
        if dep >= 0:
            yield from self.enforce_floor(dep)
        if self.timeline is not None:
            self.timeline.add("vpu-mem", f"vmem[{i}]", t_busy_start, env.now,
                              vl=int(plan.vl[i]), lines=n_lines,
                              dram_reads=int(plan.dram[i]))
        self.finish(i)
        self.mem_slots.release()

    # ------------------------------------------------------------------- core

    def core(self):
        env = self.env
        plan = self.plan
        kinds = plan.kind.tolist()
        scalar_dest = plan.scalar_dest.tolist()
        for i in range(plan.n):
            kind = kinds[i]
            if kind == LKIND_SCALAR:
                t0 = env.now
                yield from self.scalar_block(i)
                if self.timeline is not None:
                    self.timeline.add("scalar-core", f"scalar[{i}]",
                                      t0, env.now)
                self.finish(i)
                continue
            if kind == LKIND_BARRIER:
                waits = [self.done_ev[j] for j in sorted(self.pending)]
                if waits:
                    yield env.all_of(waits)
                if self.timeline is not None:
                    self.timeline.instant("scalar-core", f"barrier[{i}]",
                                          env.now)
                self.finish(i)
                continue
            if kind == LKIND_CSR:
                yield env.timeout(_VSETVL)
                self.finish(i)
                continue
            yield env.timeout(_DISPATCH)
            if kind == LKIND_VARITH:
                self.pending.add(i)
                env.process(self.varith(i))
            elif kind == LKIND_VMEM:
                slot = self.mem_slots.request()
                yield slot  # core stalls while the decoupled queue is full
                self.pending.add(i)
                env.process(self.vmem(i))
            else:
                raise EngineError(f"unknown record kind {kind}")
            if scalar_dest[i]:
                yield self.done_ev[i]
                yield env.timeout(_TRANSFER)


def simulate_events(ct: ClassifiedTrace, *, timeline=None) -> CycleReport:
    """Run the coroutine discrete-event model over a classified trace.

    ``timeline`` (a :class:`repro.obs.timeline.TimelineRecorder`) records
    the actual simulated schedule per machine unit. The report's ``meta``
    carries the memory-path component stats only the event engines observe:
    NoC message traffic, Latency Controller injections, Bandwidth Limiter
    throttle delay, and L2 bank-port queueing.
    """
    if timeline is not None:
        timeline.engine = "event-ref"
    plan = event_plan(ct)
    m = _Machine(ct, plan, timeline=timeline)
    m.env.process(m.core())
    m.env.run()
    return CycleReport(
        cycles=float(m.env.now),
        engine="event-ref",
        scalar_issue_cycles=float(m.acc_issue),
        scalar_stall_cycles=float(m.acc_stall),
        vpu_arith_cycles=float(m.acc_varith),
        vpu_mem_cycles=float(m.acc_vmem),
        bandwidth_bound_cycles=0.0,
        dram_reads=plan.total_dram_reads,
        dram_writes=plan.total_dram_writes,
        meta={
            "records": plan.n,
            "noc": m.noc.stats,
            "latency_ctl": m.latency_ctl.stats,
            "limiter": m.limiter.stats,
            "bank_wait_cycles": m.bank_wait_cycles,
        },
    )
