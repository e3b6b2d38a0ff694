/* Compiled line requests and cache walk of trace classification.
 *
 * repro_line_requests turns a trace's address arena into its 64-byte line
 * requests, as repro.memory.classify.line_requests does: per record, every
 * element's line (R_ALL), the lines that differ from the element before
 * (R_SEQ, unit and strided vector memory), the first occurrence of each
 * line (R_GATHER, coalescing gathers), or nothing (R_NONE).
 *
 * repro_classify is the per-reference loop of classify_trace: the private
 * L1D pass (demand access, next-N-line stream prefetch, home-node recall
 * of lines the VPU touches, dirty-victim writebacks) and the banked L2
 * pass, reference by reference in the walker's order, so every hit,
 * victim, counter and level matches the dict walk.
 *
 * A cache set is a row of `ways` tags in recency order, least recently
 * used first (the order of the walker's insertion-ordered dicts), with one
 * dirty byte per way and a fill count per set.  The caller owns every
 * buffer:
 *
 *   mode         per record, what it does to the caches (M_* below);
 *   off, addrs,  the address arena and its write flags; a scalar record
 *   writes       walks the lines addrs[j] >> line_shift, j in
 *                off[i]..off[i+1];
 *   c_off, coal  coalesced line requests; a vector memory record walks
 *                coal[c_off[i]:c_off[i+1]];
 *   l1_*, l2_*   set state, fill counts zeroed;
 *   counts       one zeroed row of five per record (COUNT_DTYPE): L1
 *                hits, L2 hits, DRAM reads, DRAM writes, prefetch DRAM
 *                reads;
 *   levels       one AccessLevel per reference, records in order.
 *
 * Nothing is bounds-checked here; the caller checks every span first.
 */

#include <stdint.h>
#include <string.h>

/* per-record line-request rules */
enum { R_NONE = 0, R_ALL = 1, R_SEQ = 2, R_GATHER = 3 };

/* Writes req_off (n + 1 offsets) and lines (room for the whole arena);
 * returns the number of lines.  A gather deduplicates through an
 * open-addressing table of 2^table_bits slots, at most half full for the
 * widest gather span; a slot belongs to record i while its tab_rec is i,
 * so the table is never cleared (tab_rec starts at -1). */
int64_t repro_line_requests(
    int64_t n, const uint8_t *rule, const int64_t *off,
    const int64_t *addrs, int64_t line_shift, int64_t table_bits,
    int64_t *tab_line, int64_t *tab_rec, int64_t *req_off, int64_t *lines)
{
    const uint64_t tmask = ((uint64_t)1 << table_bits) - 1;
    int64_t m = 0;

    req_off[0] = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t lo = off[i], hi = off[i + 1];
        switch (rule[i]) {
        case R_ALL:
            for (int64_t j = lo; j < hi; j++)
                lines[m++] = addrs[j] >> line_shift;
            break;
        case R_SEQ:
            /* the last kept line is the previous element's */
            for (int64_t j = lo; j < hi; j++) {
                const int64_t line = addrs[j] >> line_shift;
                if (j == lo || line != lines[m - 1])
                    lines[m++] = line;
            }
            break;
        case R_GATHER:
            for (int64_t j = lo; j < hi; j++) {
                const int64_t line = addrs[j] >> line_shift;
                uint64_t h = ((uint64_t)line * 0x9E3779B97F4A7C15ull)
                             >> (64 - table_bits);
                while (tab_rec[h] == i && tab_line[h] != line)
                    h = (h + 1) & tmask;
                if (tab_rec[h] != i) {
                    tab_rec[h] = i;
                    tab_line[h] = line;
                    lines[m++] = line;
                }
            }
            break;
        }
        req_off[i + 1] = m;
    }
    return m;
}

/* per-record modes */
enum { M_NONE = 0, M_SCALAR = 1, M_VLOAD = 2, M_VSTORE = 3,
       M_VSTORE_NOFILL = 4 };
/* repro.memory.classify.AccessLevel */
enum { LV_L1 = 0, LV_L2 = 1, LV_DRAM = 2 };
/* the fields of a record's counts row */
enum { C_L1 = 0, C_L2 = 1, C_DRAM_R = 2, C_DRAM_W = 3, C_PF = 4,
       N_COUNTS = 5 };

typedef struct {
    int64_t *tag;
    uint8_t *dirty;
    int64_t *fill;
    int64_t ways;
} Cache;

/* the way holding `tag` in set s, or -1 */
static inline int64_t find(const Cache *c, int64_t s, int64_t tag)
{
    const int64_t *t = c->tag + s * c->ways;
    for (int64_t w = 0, f = c->fill[s]; w < f; w++)
        if (t[w] == tag)
            return w;
    return -1;
}

/* remove way w of set s; returns its dirty bit */
static inline int drop(Cache *c, int64_t s, int64_t w)
{
    int64_t *t = c->tag + s * c->ways;
    uint8_t *d = c->dirty + s * c->ways;
    int dirty = d[w];
    int64_t rest = --c->fill[s] - w;
    memmove(t + w, t + w + 1, (size_t)rest * sizeof *t);
    memmove(d + w, d + w + 1, (size_t)rest);
    return dirty;
}

/* append `tag` as most recently used; the set has room */
static inline void push(Cache *c, int64_t s, int64_t tag, int dirty)
{
    int64_t at = s * c->ways + c->fill[s]++;
    c->tag[at] = tag;
    c->dirty[at] = (uint8_t)dirty;
}

/* install `tag`, evicting the LRU way of a full set first.  Returns 1
 * when that victim was dirty, and stores it in *victim. */
static inline int install(Cache *c, int64_t s, int64_t tag, int dirty,
                          int64_t *victim)
{
    int dirty_victim = 0;
    if (c->fill[s] == c->ways) {
        *victim = c->tag[s * c->ways];
        dirty_victim = drop(c, s, 0);
    }
    push(c, s, tag, dirty);
    return dirty_victim;
}

typedef struct {
    Cache c;
    int64_t bank_mask, bank_bits, sets, set_mask;
} L2;

/* one L2 access (a reference, or with write set a dirty writeback from
 * L1); returns 1 on a hit and counts a dirty victim's DRAM write */
static inline int l2_access(L2 *l2, int64_t line, int write,
                            int64_t *dram_writes)
{
    int64_t local = line >> l2->bank_bits;
    int64_t s = (line & l2->bank_mask) * l2->sets + (local & l2->set_mask);
    int64_t w = find(&l2->c, s, local), victim;
    if (w >= 0) {
        push(&l2->c, s, local, drop(&l2->c, s, w) | write);
        return 1;
    }
    if (install(&l2->c, s, local, write, &victim))
        (*dram_writes)++;
    return 0;
}

void repro_classify(
    int64_t n, const uint8_t *mode,
    const int64_t *off, const int64_t *addrs, int64_t line_shift,
    const uint8_t *writes, const int64_t *c_off, const int64_t *coal,
    int64_t l1_sets, int64_t l1_ways, int64_t prefetch_depth,
    int64_t l2_banks, int64_t l2_bank_bits, int64_t l2_sets,
    int64_t l2_ways,
    int64_t *l1_tag, uint8_t *l1_dirty, int64_t *l1_fill,
    int64_t *l2_tag, uint8_t *l2_dirty, int64_t *l2_fill,
    int64_t *counts, uint8_t *levels)
{
    Cache l1 = {l1_tag, l1_dirty, l1_fill, l1_ways};
    L2 l2 = {{l2_tag, l2_dirty, l2_fill, l2_ways},
             l2_banks - 1, l2_bank_bits, l2_sets, l2_sets - 1};
    const int64_t mask1 = l1_sets - 1;
    uint8_t *lv = levels;
    int64_t victim;

    for (int64_t i = 0; i < n; i++) {
        if (mode[i] == M_NONE)
            continue;
        int64_t *const c = counts + N_COUNTS * i;
        int64_t *const dram_writes = c + C_DRAM_W;
        if (mode[i] == M_SCALAR) {
            for (int64_t j = off[i]; j < off[i + 1]; j++) {
                const int64_t line = addrs[j] >> line_shift;
                const int64_t s = line & mask1;
                const int64_t w = find(&l1, s, line);
                if (w >= 0) {
                    push(&l1, s, line, drop(&l1, s, w) | writes[j]);
                    *lv++ = LV_L1;
                    c[C_L1]++;
                    continue;
                }
                if (install(&l1, s, line, writes[j], &victim))
                    l2_access(&l2, victim, 1, dram_writes);
                if (l2_access(&l2, line, 0, dram_writes)) {
                    *lv++ = LV_L2;
                    c[C_L2]++;
                } else {
                    *lv++ = LV_DRAM;
                    c[C_DRAM_R]++;
                }
                /* next-N-line stream prefetch: fill L1 (and L2 on the
                 * way) with the following lines */
                for (int64_t p = 1; p <= prefetch_depth; p++) {
                    const int64_t pline = line + p;
                    const int64_t ps = pline & mask1;
                    if (find(&l1, ps, pline) >= 0)
                        continue;
                    if (!l2_access(&l2, pline, 0, dram_writes))
                        c[C_PF]++;
                    if (install(&l1, ps, pline, 0, &victim))
                        l2_access(&l2, victim, 1, dram_writes);
                }
            }
            continue;
        }
        /* vector memory record: the VPU bypasses L1 */
        const int write = mode[i] != M_VLOAD;
        for (int64_t j = c_off[i]; j < c_off[i + 1]; j++) {
            const int64_t line = coal[j];
            /* home-node recall of a line the scalar side holds */
            const int64_t s = line & mask1;
            const int64_t w = find(&l1, s, line);
            if (w >= 0 && drop(&l1, s, w))
                l2_access(&l2, line, 1, dram_writes);
            /* unit-stride stores allocate whole lines without a fill */
            if (l2_access(&l2, line, write, dram_writes)
                    || mode[i] == M_VSTORE_NOFILL) {
                *lv++ = LV_L2;
                c[C_L2]++;
            } else {
                *lv++ = LV_DRAM;
                c[C_DRAM_R]++;
            }
        }
    }
}
