/* Compiled discrete-event engine (engine="event").
 *
 * This replays, token for token, the schedule of the coroutine model in
 * repro.engine.event_sim, its specification: same cycles, breakdown,
 * component stats and timeline.  Every `yield` of a specification
 * coroutine maps to one scheduled token here, at the same timestamp and
 * in the same order: zero-delay events go to a same-cycle FIFO drained
 * after the bucket, event callbacks run inline at the fire token, and a
 * resource grant is one zero-delay hop.
 *
 * Scheduler.  Future tokens live in a calendar queue of WHEEL one-cycle
 * buckets with an occupancy bitmap; the next active timestamp is the
 * next set bit at or after the current slot (wrapping).  Tokens beyond
 * the wheel's horizon go to an overflow heap ordered by (time, spill
 * sequence) and are migrated eagerly: at every clock advance each
 * overflow token now within the horizon moves into its bucket before the
 * bucket drains, which keeps it ahead of same-cycle tokens scheduled
 * straight into the wheel later, as the specification's global schedule
 * order requires.
 *
 * Tokens are int64 `kind | arg << 4`.  Five state machines consume them:
 * the scalar core (in-order walk, scalar blocks with FIFO MSHRs, vector
 * dispatch, the decoupled-queue slot, scalar-result and barrier waits),
 * vector arithmetic, vector memory, and the line-request pipeline (L1
 * lookup, line MSHR, NoC, bank port, Bandwidth Limiter and Latency
 * Controller, response).  Line requests recycle slots of a slab through a
 * LIFO free list.  The L2 bank ports are analytic unit-rate servers:
 * grant = max(arrival, previous grant + 1).
 *
 * The plan arrays are repro.engine.event_common.EventPlan's: per record
 * (kind, dep, scalar_dest, costs) and per line request over req_off.
 * The caller checks every index before the call.  The kernel returns 0,
 * or an error code (time went backwards, memory ran out) after freeing
 * what it allocated; it never aborts the process.  Every FIFO list and
 * record state starts zeroed, which is empty.
 *
 * Outputs: start[i] and finish[i] per record (start is the scalar
 * block's, arithmetic issue's or memory issue's first cycle), order[] the
 * records in the order they finished, and stats[] (see ST_* below).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* repro.engine.lower.LKIND_* */
enum { LK_SCALAR = 0, LK_VARITH = 1, LK_VMEM = 2, LK_BARRIER = 3, LK_CSR = 4 };
/* repro.memory.classify.AccessLevel */
enum { LV_L1 = 0, LV_DRAM = 2 };

enum { ERR_TIME = 1, ERR_NOMEM = 2 };

/* token kinds (low 4 bits; arg in the high bits) */
enum {
    T_CORE = 0,   /* scalar core state machine */
    T_VA = 1,     /* vector-arithmetic record <arg> */
    T_VM = 2,     /* vector-memory record <arg> */
    T_LINE = 3,   /* line-request slab entry <arg> */
    T_RESP = 4,   /* line response fire <arg> */
    T_DONE = 5,   /* done-event fire for record <arg> */
    T_CHAIN = 6,  /* chain-event fire for record <arg> */
    T_WB = 7,     /* writeback arrival at the DRAM channel */
    T_BAR = 8     /* barrier child completion */
};

/* scalar-core states */
enum {
    CS_SC,          /* inside a scalar block (sc_phase drives) */
    CS_DISPATCHED,  /* vector dispatch cycle elapsed */
    CS_SLOT,        /* decoupled-queue slot granted */
    CS_SDEST,       /* scalar-dest done-wait satisfied */
    CS_XFER,        /* scalar-result transfer elapsed */
    CS_BARRIER,     /* all barrier children done */
    CS_CSR          /* vsetvl cycles elapsed */
};

/* scalar-block sub-phases */
enum {
    SCP_GAP,    /* apply issue gap for op j */
    SCP_LEVEL,  /* classify op j (post-gap) */
    SCP_SPAWN,  /* MSHR slot freed: spawn op j */
    SCP_DRAIN,  /* draining outstanding misses */
    SCP_END     /* no-mem issue timeout elapsed */
};

/* vector-arith states */
enum {
    VA_GRANT,    /* arith pipe granted */
    VA_CHAINED,  /* producer chain fired */
    VA_READY,    /* operand wait satisfied */
    VA_OCC,      /* occupancy elapsed */
    VA_LAT,      /* pipeline latency elapsed */
    VA_FLOOR,    /* floor producer done */
    VA_FIN       /* floor timeout elapsed */
};

/* vector-memory states */
enum {
    VM_CHAINED_PRE,   /* (OoO) producer chain fired */
    VM_DEP_PRE,       /* (OoO) operand wait satisfied: claim AGU */
    VM_AGU,           /* (OoO) AGU granted */
    VM_AGU2,          /* (in-order) AGU granted: wait operands */
    VM_CHAINED_POST,  /* (in-order) producer chain fired */
    VM_READY,         /* operand wait satisfied */
    VM_GAP,           /* AGU issue gap elapsed: spawn line j */
    VM_ALL,           /* all line responses arrived */
    VM_FLOOR,         /* floor producer done */
    VM_FIN            /* floor timeout elapsed */
};

/* line-request stages */
enum {
    LS_PRE,      /* pre-delay (scalar L1 lookup) elapsed */
    LS_MSHR,     /* line MSHR granted */
    LS_ARRIVE,   /* request arrived at the bank */
    LS_LIMITER,  /* bank access done: DRAM admission */
    LS_DONE      /* response back at the core */
};

/* stats[] slots */
enum {
    ST_NOW, ST_WB_TAIL, ST_ISSUE, ST_STALL, ST_VARITH, ST_VMEM,
    ST_NOC_MSGS, ST_NOC_HOPS, ST_NOC_LAT, ST_BANK_WAIT,
    ST_ADMITTED, ST_THROTTLE, ST_TIMESTAMPS, ST_TOKENS, ST_MAX_DRAIN,
    ST_MAX_OCC, ST_SPILLS, ST_SLAB, ST_FINISHED, ST_COUNT
};

#define WHEEL 4096
#define WMASK (WHEEL - 1)
#define NWORDS (WHEEL / 64)

/* A FIFO of tokens: a chain of cells of the shared node pool.  Node ids
   start at 1, so 0 ends a chain and a zeroed list is empty. */
typedef struct { int64_t tok, next; } node_t;
typedef struct { int64_t head, tail; } list_t;

typedef struct { int64_t t, seq, tok; } spill_t;

typedef struct {
    int64_t bank, owner, waiter, next_free;  /* next_free: id + 1 */
    uint8_t level, vector, first, state, stage;
} line_t;

typedef struct {
    list_t done, chain;  /* waiters of the done and chain events */
    int64_t vm_j, vm_wbleft, vm_live;
    uint8_t done_state, chain_state;  /* 0 idle, 1 fire queued, 2 fired */
    uint8_t state, vm_waiting, pending;
} rec_t;

typedef struct {
    /* plan */
    int64_t n;
    const int64_t *kind, *dep, *req_off;
    const uint8_t *scalar_dest;
    const int64_t *issue, *gap_total, *mlp, *wb, *pf, *occ;
    const uint8_t *level;
    const int64_t *bank, *step;
    /* machine */
    int chaining, ooo;
    int64_t access, dram_service, l1_hit, arith_lat, n_banks;
    const int64_t *hops_tab, *lat_tab;
    int64_t slots_cap, mshr_cap, bw_num, bw_den, lat_extra;
    int64_t dispatch, vsetvl, transfer, lpd;

    /* clock and calendar queue */
    int64_t now;
    int running, err;
    list_t wheel[WHEEL];
    uint64_t occ_bits[NWORDS];
    int64_t occupied;
    spill_t *heap;
    int64_t heap_len, heap_cap, spills;
    int64_t *curq;
    int64_t curq_len, curq_cap;
    node_t *node;
    int64_t node_len, node_cap, node_free;

    /* per record; outputs */
    rec_t *rec;
    int64_t *start, *finish, *order, n_order, pend_lo;

    /* line-request slab */
    line_t *ln;
    int64_t ln_len, ln_cap, ln_free;

    /* resources */
    int pipe_busy, agu_busy;
    list_t pipe_q, agu_q, slots_q, mshr_q, sc_out;
    int64_t sc_out_len, slots_used, mshr_used;
    int64_t *bank_free;

    /* scalar core */
    int64_t core_i, bar_count, sc_i, sc_j, sc_t0, sc_wb, sc_pf;
    int core_state, sc_phase;

    /* accumulators */
    int64_t noc_msgs, noc_hops, noc_lat, bank_wait, wb_tail;
    int64_t acc_issue, acc_stall, acc_varith, acc_vmem;
    int64_t lim_start, lim_used, admitted, throttle;
    int64_t timestamps, tokens, max_drain, max_occ;
} sim_t;

/* --------------------------------------------------------------- memory */

/* Double the capacity of an array of `elem`-byte entries; every entry is
   written before it is read, so the new ones are left as they come. */
static int grow(sim_t *s, void **p, int64_t *cap, size_t elem)
{
    int64_t ncap = *cap ? 2 * *cap : (int64_t)(4096 / elem);
    void *q = realloc(*p, (size_t)ncap * elem);
    if (!q) {
        s->err = ERR_NOMEM;
        return 0;
    }
    *p = q;
    *cap = ncap;
    return 1;
}

static void list_push(sim_t *s, list_t *l, int64_t tok)
{
    int64_t k = s->node_free;
    if (k) {
        s->node_free = s->node[k].next;
    } else {
        if (s->node_len >= s->node_cap
            && !grow(s, (void **)&s->node, &s->node_cap, sizeof(node_t)))
            return;
        k = s->node_len++;
    }
    s->node[k].tok = tok;
    s->node[k].next = 0;
    if (l->tail)
        s->node[l->tail].next = k;
    else
        l->head = k;
    l->tail = k;
}

static int64_t list_pop(sim_t *s, list_t *l)
{
    int64_t k = l->head, tok = s->node[k].tok;
    l->head = s->node[k].next;
    if (!l->head)
        l->tail = 0;
    s->node[k].next = s->node_free;
    s->node_free = k;
    return tok;
}

static void curq_push(sim_t *s, int64_t tok)
{
    if (s->curq_len >= s->curq_cap
        && !grow(s, (void **)&s->curq, &s->curq_cap, sizeof(int64_t)))
        return;
    s->curq[s->curq_len++] = tok;
}

static inline int spill_before(const spill_t *a, const spill_t *b)
{
    return a->t < b->t || (a->t == b->t && a->seq < b->seq);
}

static void heap_push(sim_t *s, int64_t t, int64_t tok)
{
    if (s->heap_len >= s->heap_cap
        && !grow(s, (void **)&s->heap, &s->heap_cap, sizeof(spill_t)))
        return;
    spill_t x = { t, s->spills++, tok };
    int64_t k = s->heap_len++;
    while (k > 0) {
        int64_t up = (k - 1) / 2;
        if (!spill_before(&x, &s->heap[up]))
            break;
        s->heap[k] = s->heap[up];
        k = up;
    }
    s->heap[k] = x;
}

static spill_t heap_pop(sim_t *s)
{
    spill_t top = s->heap[0];
    spill_t last = s->heap[--s->heap_len];
    int64_t k = 0, m = s->heap_len;
    for (;;) {
        int64_t c = 2 * k + 1;
        if (c >= m)
            break;
        if (c + 1 < m && spill_before(&s->heap[c + 1], &s->heap[c]))
            c++;
        if (!spill_before(&s->heap[c], &last))
            break;
        s->heap[k] = s->heap[c];
        k = c;
    }
    if (m > 0)
        s->heap[k] = last;
    return top;
}

/* ------------------------------------------------------------- scheduler */

static void bucket_push(sim_t *s, int64_t t, int64_t tok)
{
    int64_t sl = t & WMASK;
    if (!s->wheel[sl].head) {
        s->occ_bits[sl >> 6] |= (uint64_t)1 << (sl & 63);
        s->occupied++;
    }
    list_push(s, &s->wheel[sl], tok);
}

/* Schedule token `tok` at absolute time `t`. */
static void at(sim_t *s, int64_t tok, int64_t t)
{
    if (t == s->now && s->running) {
        curq_push(s, tok);
        return;
    }
    int64_t d = t - s->now;
    if (d < 0)
        s->err = ERR_TIME;
    else if (d < WHEEL)
        bucket_push(s, t, tok);
    else
        heap_push(s, t, tok);
}

/* Offset from the current slot to the next occupied one (wrapping). */
static int64_t next_offset(const sim_t *s)
{
    int64_t cur = s->now & WMASK, w = cur >> 6;
    uint64_t bits = s->occ_bits[w] & (~(uint64_t)0 << (cur & 63));
    for (int64_t k = 0; k <= NWORDS; k++) {
        if (bits)
            return ((w << 6) + __builtin_ctzll(bits) - cur) & WMASK;
        w = (w + 1) % NWORDS;
        bits = s->occ_bits[w];
    }
    return -1;  /* unreachable while occupied > 0 */
}

/* ------------------------------------------------------- events & waits */

static void wait_done(sim_t *s, int64_t i, int64_t tok)
{
    if (s->rec[i].done_state == 2)
        at(s, tok, s->now);  /* already fired: boot hop */
    else
        list_push(s, &s->rec[i].done, tok);
}

static void wait_chain(sim_t *s, int64_t i, int64_t tok)
{
    if (s->rec[i].chain_state == 2)
        at(s, tok, s->now);
    else
        list_push(s, &s->rec[i].chain, tok);
}

static void finish(sim_t *s, int64_t i)
{
    rec_t *r = &s->rec[i];
    s->finish[i] = s->now;
    s->order[s->n_order++] = i;
    if (r->done_state == 0) {
        r->done_state = 1;
        at(s, T_DONE | i << 4, s->now);
    }
    if (r->chain_state == 0) {
        r->chain_state = 1;
        at(s, T_CHAIN | i << 4, s->now);
    }
    r->pending = 0;
}

/* ------------------------------------------------------------ memory path */

static inline int64_t noc_msg(sim_t *s, int64_t bank)
{
    int64_t lat = s->lat_tab[bank];
    s->noc_msgs++;
    s->noc_hops += s->hops_tab[bank];
    s->noc_lat += lat;
    return lat;
}

/* repro.memory.bandwidth_limiter.BandwidthLimiter.admit */
static int64_t limiter_admit(sim_t *s, int64_t t)
{
    int64_t arrival = t;
    if (s->bw_den == 1) {
        /* peak rate: the window collapses to a next-free-cycle counter */
        int64_t a = s->lim_start + s->lim_used;
        if (a < t)
            a = t;
        s->lim_start = a;
        s->lim_used = 1;
        s->admitted++;
        s->throttle += a - arrival;
        return a;
    }
    int64_t window = (t / s->bw_den) * s->bw_den;
    if (window > s->lim_start) {
        s->lim_start = window;
        s->lim_used = 0;
    }
    for (;;) {
        if (s->lim_used < s->bw_num) {
            int64_t a = t > s->lim_start ? t : s->lim_start;
            if (a < s->lim_start + s->bw_den) {
                s->lim_used++;
                s->admitted++;
                s->throttle += a - arrival;
                return a;
            }
        }
        s->lim_start += s->bw_den;
        s->lim_used = 0;
        if (t < s->lim_start)
            t = s->lim_start;
    }
}

/* A slab entry for a new line request, or -1 when memory ran out. */
static int64_t new_line(sim_t *s, int64_t bank, int level, int vector,
                        int64_t owner, int first)
{
    int64_t lid;
    if (s->ln_free) {
        lid = s->ln_free - 1;
        s->ln_free = s->ln[lid].next_free;
    } else {
        if (s->ln_len >= s->ln_cap
            && !grow(s, (void **)&s->ln, &s->ln_cap, sizeof(line_t)))
            return -1;
        lid = s->ln_len++;
    }
    line_t *l = &s->ln[lid];
    l->bank = bank;
    l->level = (uint8_t)level;
    l->vector = (uint8_t)vector;
    l->owner = owner;
    l->first = (uint8_t)first;
    l->state = 0;
    l->waiter = -1;
    return lid;
}

static void recycle_line(sim_t *s, int64_t lid)
{
    s->ln[lid].next_free = s->ln_free;
    s->ln_free = lid + 1;
}

/* a scalar L1 miss: leaves the core once the L1 lookup has elapsed; its
   response goes to the waiting core, not to a vector record */
static int64_t spawn_scalar_line(sim_t *s, int64_t bank, int level)
{
    int64_t lid = new_line(s, bank, level, 0, -1, 0);
    if (lid < 0)
        return 0;
    s->ln[lid].stage = LS_PRE;
    at(s, T_LINE | lid << 4, s->now + s->l1_hit);
    return lid;
}

static void spawn_wb(sim_t *s, int64_t bank)
{
    int64_t lat = noc_msg(s, bank);
    at(s, T_WB, s->now + lat);
}

static void line_step(sim_t *s, int64_t lid)
{
    line_t *l = &s->ln[lid];
    int64_t t = s->now, when, bank = l->bank;
    switch (l->stage) {
    case LS_ARRIVE: {
        int64_t grant = s->bank_free[bank];
        if (grant < t)
            grant = t;
        s->bank_free[bank] = grant + 1;
        s->bank_wait += grant - t;
        when = grant + s->access;
        if (l->level == LV_DRAM) {
            l->stage = LS_LIMITER;
        } else {
            when += noc_msg(s, bank);
            l->stage = LS_DONE;
        }
        break;
    }
    case LS_LIMITER: {
        int64_t admit = limiter_admit(s, t);
        when = admit + s->lat_extra + s->dram_service + noc_msg(s, bank);
        l->stage = LS_DONE;
        break;
    }
    case LS_DONE:
        if (l->vector && l->level == LV_DRAM) {
            if (s->mshr_q.head)
                curq_push(s, list_pop(s, &s->mshr_q));
            else
                s->mshr_used--;
        }
        l->state = 1;
        curq_push(s, T_RESP | lid << 4);
        return;
    default:  /* LS_MSHR granted, or LS_PRE: an L1 lookup missed */
        when = t + noc_msg(s, bank);
        l->stage = LS_ARRIVE;
        break;
    }
    at(s, T_LINE | lid << 4, when);
}

static void wb_arrive(sim_t *s)
{
    int64_t admit = limiter_admit(s, s->now);
    int64_t when = admit + s->lat_extra + s->dram_service;
    if (when > s->wb_tail)
        s->wb_tail = when;
}

/* ------------------------------------------------------------------ core */

static void exec_tok(sim_t *s, int64_t tok);
static void va_spawn(sim_t *s, int64_t i);
static void vm_spawn(sim_t *s, int64_t i);
static void vm_tail(sim_t *s, int64_t i);
static int sc_issue(sim_t *s);

/* Start scalar block i; 1 if it completed inline. */
static int sc_begin(sim_t *s, int64_t i)
{
    s->sc_i = i;
    if (s->req_off[i + 1] == s->req_off[i]) {  /* no memory ops */
        int64_t q = s->issue[i];
        s->acc_issue += q;
        if (q > 0) {
            s->core_state = CS_SC;
            s->sc_phase = SCP_END;
            at(s, T_CORE, s->now + q);
            return 0;
        }
        return 1;
    }
    s->sc_t0 = s->now;
    s->acc_issue += s->gap_total[i];
    s->sc_j = 0;
    s->sc_wb = s->wb[i];
    s->sc_pf = s->pf[i];
    s->sc_phase = SCP_GAP;
    s->core_state = CS_SC;
    return sc_issue(s);
}

/* Suspend the block on its oldest outstanding miss; returns 0. */
static int sc_wait_oldest(sim_t *s, int64_t j, int phase)
{
    int64_t lid = list_pop(s, &s->sc_out);
    s->sc_out_len--;
    s->sc_j = j;
    s->sc_phase = phase;
    if (s->ln[lid].state == 2) {
        recycle_line(s, lid);
        at(s, T_CORE, s->now);  /* already back: boot hop */
    } else {
        s->ln[lid].waiter = T_CORE;
    }
    return 0;
}

/* Advance the active scalar block; 1 when it has completed. */
static int sc_issue(sim_t *s)
{
    if (s->sc_phase == SCP_END)
        return 1;
    int64_t i = s->sc_i, lo = s->req_off[i];
    int64_t n_mem = s->req_off[i + 1] - lo, j = s->sc_j;
    int phase = s->sc_phase;
    while (!s->err) {
        if (phase == SCP_GAP) {
            if (j >= n_mem) {
                phase = SCP_DRAIN;
                continue;
            }
            int64_t st = s->step[lo + j];
            phase = SCP_LEVEL;
            if (st > 0) {
                s->sc_j = j;
                s->sc_phase = SCP_LEVEL;
                at(s, T_CORE, s->now + st);
                return 0;
            }
        } else if (phase == SCP_LEVEL) {
            if (s->level[lo + j] == LV_L1) {
                j++;
                phase = SCP_GAP;
            } else if (s->sc_out_len >= s->mlp[i]) {  /* FIFO MSHRs */
                return sc_wait_oldest(s, j, SCP_SPAWN);
            } else {
                phase = SCP_SPAWN;
            }
        } else if (phase == SCP_SPAWN) {
            int64_t bank = s->bank[lo + j];
            list_push(s, &s->sc_out,
                      spawn_scalar_line(s, bank, s->level[lo + j]));
            s->sc_out_len++;
            if (s->sc_wb > 0) {
                spawn_wb(s, bank);
                s->sc_wb--;
            }
            if (s->sc_pf > 0) {
                spawn_wb(s, (bank + 1) % s->n_banks);
                s->sc_pf--;
            }
            j++;
            phase = SCP_GAP;
        } else {  /* SCP_DRAIN: one wait per outstanding miss */
            if (s->sc_out_len)
                return sc_wait_oldest(s, j, SCP_DRAIN);
            while (s->sc_wb > 0) {  /* writebacks beyond the miss count */
                spawn_wb(s, 0);
                s->sc_wb--;
            }
            s->acc_stall += s->now - s->sc_t0 - s->gap_total[i];
            return 1;
        }
    }
    return 0;
}

static void core_advance(sim_t *s)
{
    while (s->core_i < s->n && !s->err) {
        int64_t i = s->core_i, k = s->kind[i];
        if (k == LK_SCALAR) {
            s->start[i] = s->now;
            if (!sc_begin(s, i))
                return;
            finish(s, i);
            s->core_i++;
        } else if (k == LK_BARRIER) {
            /* every pending record lies between the last barrier, which
               waited for all of its own, and this one */
            int64_t cnt = 0;
            for (int64_t j = s->pend_lo; j < i; j++) {
                if (s->rec[j].pending) {
                    list_push(s, &s->rec[j].done, T_BAR);
                    cnt++;
                }
            }
            s->pend_lo = i;
            if (cnt) {
                s->bar_count = cnt;
                s->core_state = CS_BARRIER;
                return;
            }
            finish(s, i);
            s->core_i++;
        } else if (k == LK_CSR) {
            s->core_state = CS_CSR;
            at(s, T_CORE, s->now + s->vsetvl);
            return;
        } else {
            s->core_state = CS_DISPATCHED;
            at(s, T_CORE, s->now + s->dispatch);
            return;
        }
    }
}

static void core_post_dispatch(sim_t *s, int64_t i)
{
    if (s->scalar_dest[i]) {
        s->core_state = CS_SDEST;
        wait_done(s, i, T_CORE);
    } else {
        s->core_i++;
        core_advance(s);
    }
}

static void core_step(sim_t *s)
{
    int64_t i = s->core_i;
    switch (s->core_state) {
    case CS_SC:
        if (sc_issue(s)) {
            finish(s, s->sc_i);
            s->core_i++;
            core_advance(s);
        }
        break;
    case CS_DISPATCHED:
        if (s->kind[i] == LK_VARITH) {
            s->rec[i].pending = 1;
            va_spawn(s, i);
            core_post_dispatch(s, i);
        } else {  /* vector memory: decoupled-queue slot first */
            s->core_state = CS_SLOT;
            if (s->slots_used < s->slots_cap) {
                s->slots_used++;
                at(s, T_CORE, s->now);  /* grant hop */
            } else {
                list_push(s, &s->slots_q, T_CORE);
            }
        }
        break;
    case CS_SLOT:
        s->rec[i].pending = 1;
        vm_spawn(s, i);
        core_post_dispatch(s, i);
        break;
    case CS_SDEST:
        s->core_state = CS_XFER;
        at(s, T_CORE, s->now + s->transfer);
        break;
    case CS_XFER:
        s->core_i++;
        core_advance(s);
        break;
    default:  /* CS_BARRIER, CS_CSR */
        finish(s, i);
        s->core_i++;
        core_advance(s);
        break;
    }
}

static void bar_child(sim_t *s)
{
    if (--s->bar_count == 0)
        at(s, T_CORE, s->now);  /* the all-of completion hop */
}

/* ----------------------------------------------------- vector arithmetic */

static void va_spawn(sim_t *s, int64_t i)
{
    s->rec[i].state = VA_GRANT;
    if (!s->pipe_busy) {
        s->pipe_busy = 1;
        at(s, T_VA | i << 4, s->now);  /* grant hop */
    } else {
        list_push(s, &s->pipe_q, T_VA | i << 4);
    }
}

static void va_ready(sim_t *s, int64_t i)
{
    rec_t *r = &s->rec[i];
    if (r->chain_state == 0) {
        r->chain_state = 1;  /* consumers may chain from our start */
        at(s, T_CHAIN | i << 4, s->now);
    }
    s->acc_varith += s->occ[i];
    s->start[i] = s->now;
    r->state = VA_OCC;
    at(s, T_VA | i << 4, s->now + s->occ[i]);
}

static void va_step(sim_t *s, int64_t i)
{
    rec_t *r = &s->rec[i];
    int64_t tok = T_VA | i << 4, dep = s->dep[i];
    switch (r->state) {
    case VA_GRANT:
        if (dep < 0) {
            va_ready(s, i);
        } else if (s->chaining) {
            r->state = VA_CHAINED;
            wait_chain(s, dep, tok);
        } else {
            r->state = VA_READY;
            wait_done(s, dep, tok);
        }
        break;
    case VA_CHAINED:
        r->state = VA_READY;
        at(s, tok, s->now + s->lpd);
        break;
    case VA_READY:
        va_ready(s, i);
        break;
    case VA_OCC:
        if (s->pipe_q.head)
            at(s, list_pop(s, &s->pipe_q), s->now);
        else
            s->pipe_busy = 0;
        r->state = VA_LAT;
        at(s, tok, s->now + s->arith_lat);
        break;
    case VA_LAT:
        if (dep >= 0 && s->chaining) {
            r->state = VA_FLOOR;
            wait_done(s, dep, tok);
        } else {
            finish(s, i);
        }
        break;
    case VA_FLOOR:
        if (s->now < s->finish[dep] + s->lpd) {
            r->state = VA_FIN;
            at(s, tok, s->finish[dep] + s->lpd);
        } else {
            finish(s, i);
        }
        break;
    default:  /* VA_FIN */
        finish(s, i);
        break;
    }
}

/* --------------------------------------------------------- vector memory */

static void vm_agu_request(sim_t *s, int64_t i, int state)
{
    s->rec[i].state = (uint8_t)state;
    if (!s->agu_busy) {
        s->agu_busy = 1;
        at(s, T_VM | i << 4, s->now);  /* grant hop */
    } else {
        list_push(s, &s->agu_q, T_VM | i << 4);
    }
}

static void vm_spawn(sim_t *s, int64_t i)
{
    int64_t dep = s->dep[i], tok = T_VM | i << 4;
    if (!s->ooo) {
        /* strict in-order issue: hold the AGU through the operand wait */
        vm_agu_request(s, i, VM_AGU2);
    } else if (dep < 0) {
        vm_agu_request(s, i, VM_AGU);
    } else if (s->chaining) {
        /* OoO memory queue: wait for operands before claiming the AGU */
        s->rec[i].state = VM_CHAINED_PRE;
        wait_chain(s, dep, tok);
    } else {
        s->rec[i].state = VM_DEP_PRE;
        wait_done(s, dep, tok);
    }
}

/* Issue record i's line requests from vm_j up to the next positive AGU
   step; `gap_elapsed` when the step of line vm_j has already passed. */
static void vm_issue(sim_t *s, int64_t i, int gap_elapsed)
{
    rec_t *r = &s->rec[i];
    int64_t lo = s->req_off[i], n_lines = s->req_off[i + 1] - lo;
    int64_t now = s->now;
    for (; r->vm_j < n_lines && !s->err; r->vm_j++) {
        int64_t j = r->vm_j, st = s->step[lo + j];
        if (st > 0 && !gap_elapsed) {
            r->state = VM_GAP;
            at(s, T_VM | i << 4, now + st);
            return;
        }
        gap_elapsed = 0;
        int64_t bank = s->bank[lo + j];
        int level = s->level[lo + j];
        int64_t lid = new_line(s, bank, level, 1, i,
                               j == 0 && r->chain_state == 0);
        if (lid < 0)
            return;
        r->vm_live++;
        if (level == LV_DRAM) {
            s->ln[lid].stage = LS_MSHR;
            if (s->mshr_used < s->mshr_cap) {
                s->mshr_used++;
                at(s, T_LINE | lid << 4, now);  /* grant hop */
            } else {
                list_push(s, &s->mshr_q, T_LINE | lid << 4);
            }
        } else {
            s->ln[lid].stage = LS_ARRIVE;
            at(s, T_LINE | lid << 4, now + noc_msg(s, bank));
        }
        if (r->vm_wbleft > 0) {
            r->vm_wbleft--;
            at(s, T_WB, now + noc_msg(s, bank));
        }
    }
    /* all lines issued: free the AGU, wait for the responses */
    if (s->agu_q.head)
        at(s, list_pop(s, &s->agu_q), now);
    else
        s->agu_busy = 0;
    if (n_lines == 0) {
        vm_tail(s, i);  /* no responses: continue inline */
    } else if (r->vm_live == 0) {
        r->state = VM_ALL;
        at(s, T_VM | i << 4, now);  /* all-of fires immediately */
    } else {
        r->vm_waiting = 1;
    }
}

static void vm_ready(sim_t *s, int64_t i)
{
    rec_t *r = &s->rec[i];
    s->start[i] = s->now;
    r->vm_j = 0;
    r->vm_wbleft = s->wb[i];
    r->vm_live = 0;
    vm_issue(s, i, 0);
}

static void vm_fin(sim_t *s, int64_t i)
{
    finish(s, i);
    if (s->slots_q.head)  /* free the decoupled-queue slot */
        at(s, list_pop(s, &s->slots_q), s->now);
    else
        s->slots_used--;
}

static void vm_tail(sim_t *s, int64_t i)
{
    int64_t dep = s->dep[i];
    s->acc_vmem += s->now - s->start[i];
    if (dep >= 0 && s->chaining) {
        s->rec[i].state = VM_FLOOR;
        wait_done(s, dep, T_VM | i << 4);
    } else {
        vm_fin(s, i);
    }
}

static void vm_step(sim_t *s, int64_t i)
{
    rec_t *r = &s->rec[i];
    int64_t tok = T_VM | i << 4, dep = s->dep[i];
    switch (r->state) {
    case VM_ALL:
        vm_tail(s, i);
        break;
    case VM_CHAINED_PRE:
        r->state = VM_DEP_PRE;
        at(s, tok, s->now + s->lpd);
        break;
    case VM_DEP_PRE:
        vm_agu_request(s, i, VM_AGU);
        break;
    case VM_AGU:
    case VM_READY:
        vm_ready(s, i);
        break;
    case VM_AGU2:
        if (dep < 0) {
            vm_ready(s, i);
        } else if (s->chaining) {
            r->state = VM_CHAINED_POST;
            wait_chain(s, dep, tok);
        } else {
            r->state = VM_READY;
            wait_done(s, dep, tok);
        }
        break;
    case VM_CHAINED_POST:
        r->state = VM_READY;
        at(s, tok, s->now + s->lpd);
        break;
    case VM_GAP:
        vm_issue(s, i, 1);
        break;
    case VM_FLOOR:
        if (s->now < s->finish[dep] + s->lpd) {
            r->state = VM_FIN;
            at(s, tok, s->finish[dep] + s->lpd);
        } else {
            vm_fin(s, i);
        }
        break;
    default:  /* VM_FIN */
        vm_fin(s, i);
        break;
    }
}

/* ----------------------------------------------------------- dispatching */

static void resp_fire(sim_t *s, int64_t lid)
{
    line_t *l = &s->ln[lid];
    int64_t r = l->owner;
    l->state = 2;
    if (r >= 0) {
        rec_t *rv = &s->rec[r];
        if (l->first && rv->chain_state == 0) {
            rv->chain_state = 1;  /* chain-ready with the first response */
            curq_push(s, T_CHAIN | r << 4);
        }
        if (--rv->vm_live == 0 && rv->vm_waiting) {
            rv->vm_waiting = 0;
            rv->state = VM_ALL;
            curq_push(s, T_VM | r << 4);
        }
        recycle_line(s, lid);
    } else if (l->waiter >= 0) {
        int64_t w = l->waiter;
        l->waiter = -1;
        recycle_line(s, lid);
        exec_tok(s, w);
    }
}

/* run the waiters of a fired event, in the order they waited */
static void fire(sim_t *s, list_t *l)
{
    int64_t k = l->head;
    l->head = l->tail = 0;
    while (k && !s->err) {
        int64_t tok = s->node[k].tok, next = s->node[k].next;
        s->node[k].next = s->node_free;
        s->node_free = k;
        exec_tok(s, tok);
        k = next;
    }
}

/* Resume a waiter: only the core, a vector record and a barrier child
   ever wait. */
static void exec_tok(sim_t *s, int64_t tok)
{
    switch (tok & 15) {
    case T_CORE: core_step(s); break;
    case T_VM: vm_step(s, tok >> 4); break;
    case T_VA: va_step(s, tok >> 4); break;
    default: bar_child(s); break;
    }
}

static void dispatch(sim_t *s, int64_t tok)
{
    int64_t r = tok >> 4;
    switch (tok & 15) {
    case T_LINE: line_step(s, r); break;
    case T_RESP: resp_fire(s, r); break;
    case T_WB: wb_arrive(s); break;
    case T_DONE:
        s->rec[r].done_state = 2;
        fire(s, &s->rec[r].done);
        break;
    case T_CHAIN:
        s->rec[r].chain_state = 2;
        fire(s, &s->rec[r].chain);
        break;
    default: exec_tok(s, tok); break;
    }
}

static void run(sim_t *s)
{
    s->running = 1;
    while ((s->occupied || s->heap_len) && !s->err) {
        int64_t t;
        if (s->occupied) {
            t = s->now + next_offset(s);
            if (s->heap_len && s->heap[0].t < t)
                t = s->heap[0].t;
        } else {
            t = s->heap[0].t;
        }
        s->now = t;
        /* eager migration keeps overflow tokens ahead of same-cycle
           wheel-direct ones (global schedule order) */
        while (s->heap_len && s->heap[0].t - t < WHEEL) {
            spill_t x = heap_pop(s);
            bucket_push(s, x.t, x.tok);
        }
        /* the bucket's batch seeds the (empty) same-cycle FIFO */
        int64_t sl = t & WMASK;
        list_t *b = &s->wheel[sl];
        if (b->head) {
            for (int64_t k = b->head; k; k = s->node[k].next)
                curq_push(s, s->node[k].tok);
            s->node[b->tail].next = s->node_free;
            s->node_free = b->head;
            b->head = b->tail = 0;
            s->occ_bits[sl >> 6] &= ~((uint64_t)1 << (sl & 63));
            s->occupied--;
        }
        /* tokens scheduled for now append to the FIFO and run after
           everything already queued */
        for (int64_t k = 0; k < s->curq_len && !s->err; k++)
            dispatch(s, s->curq[k]);
        int64_t d = s->curq_len;  /* bucket batch + same-cycle appends */
        s->timestamps++;
        s->tokens += d;
        if (d > s->max_drain)
            s->max_drain = d;
        /* occupancy is a high-watermark sampled every 16th timestamp */
        if (!(s->timestamps & 15) && s->occupied > s->max_occ)
            s->max_occ = s->occupied;
        s->curq_len = 0;
    }
    s->running = 0;
}

int repro_event_run(
    int64_t n,
    const int64_t *kind, const int64_t *dep, const uint8_t *scalar_dest,
    const int64_t *req_off,
    const int64_t *issue, const int64_t *gap_total, const int64_t *mlp,
    const int64_t *wb, const int64_t *pf, const int64_t *occ,
    const uint8_t *level, const int64_t *bank, const int64_t *step,
    int32_t chaining, int32_t ooo,
    int64_t access, int64_t dram_service, int64_t l1_hit, int64_t arith_lat,
    int64_t n_banks, const int64_t *hops_tab, const int64_t *lat_tab,
    int64_t slots_cap, int64_t mshr_cap,
    int64_t bw_num, int64_t bw_den, int64_t lat_extra,
    int64_t dispatch_cycles, int64_t vsetvl, int64_t transfer, int64_t lpd,
    int64_t *start, int64_t *finish_out, int64_t *order, int64_t *stats)
{
    sim_t *s = calloc(1, sizeof *s);
    if (!s)
        return ERR_NOMEM;
    s->rec = calloc((size_t)(n > 0 ? n : 1), sizeof(rec_t));
    s->bank_free = calloc((size_t)n_banks, sizeof(int64_t));
    s->n = n;
    s->kind = kind; s->dep = dep; s->scalar_dest = scalar_dest;
    s->req_off = req_off;
    s->issue = issue; s->gap_total = gap_total; s->mlp = mlp;
    s->wb = wb; s->pf = pf; s->occ = occ;
    s->level = level; s->bank = bank; s->step = step;
    s->chaining = chaining; s->ooo = ooo;
    s->access = access; s->dram_service = dram_service; s->l1_hit = l1_hit;
    s->arith_lat = arith_lat; s->n_banks = n_banks;
    s->hops_tab = hops_tab; s->lat_tab = lat_tab;
    s->slots_cap = slots_cap; s->mshr_cap = mshr_cap;
    s->bw_num = bw_num; s->bw_den = bw_den; s->lat_extra = lat_extra;
    s->dispatch = dispatch_cycles; s->vsetvl = vsetvl;
    s->transfer = transfer; s->lpd = lpd;
    s->start = start; s->finish = finish_out; s->order = order;
    s->node_len = 1;  /* node 0 ends a chain */
    for (int64_t i = 0; i < n; i++) {
        start[i] = 0;
        finish_out[i] = -1;
    }

    if (!s->rec || !s->bank_free) {
        s->err = ERR_NOMEM;
    } else {
        core_advance(s);  /* synchronous start, as the specification's */
        if (!s->err)
            run(s);
    }
    int err = s->err;

    int64_t out[ST_COUNT] = {
        [ST_NOW] = s->now, [ST_WB_TAIL] = s->wb_tail,
        [ST_ISSUE] = s->acc_issue, [ST_STALL] = s->acc_stall,
        [ST_VARITH] = s->acc_varith, [ST_VMEM] = s->acc_vmem,
        [ST_NOC_MSGS] = s->noc_msgs, [ST_NOC_HOPS] = s->noc_hops,
        [ST_NOC_LAT] = s->noc_lat, [ST_BANK_WAIT] = s->bank_wait,
        [ST_ADMITTED] = s->admitted, [ST_THROTTLE] = s->throttle,
        [ST_TIMESTAMPS] = s->timestamps, [ST_TOKENS] = s->tokens,
        [ST_MAX_DRAIN] = s->max_drain, [ST_MAX_OCC] = s->max_occ,
        [ST_SPILLS] = s->spills, [ST_SLAB] = s->ln_len,
        [ST_FINISHED] = s->n_order,
    };
    memcpy(stats, out, sizeof out);

    free(s->rec);
    free(s->bank_free);
    free(s->heap);
    free(s->curq);
    free(s->node);
    free(s->ln);
    free(s);
    return err;
}
