/* Compiled frontier walk of the batch timing engine.
 *
 * This is the per-record loop of repro.engine.batch_sim: records in the
 * outer loop, the K knob points in the inner one.  Every float operation
 * is the one the NumPy walk (and so simulate_fast) performs, in the same
 * order, so the cycles agree bit for bit.  Build it without -ffast-math
 * and with -ffp-contract=off, so the compiler fuses no multiply-add and
 * reorders no sum.
 *
 * The knob-dependent terms (a scalar block's time, a vector memory
 * record's busy time, first-element latency and line-MSHR time) are
 * computed per (record, point) from the lowered arrays, indexed by a
 * record's slot within its own kind as in
 * repro.engine.lower.LoweredTrace, and the knob vectors lat, l2_lat, den
 * and num, with the expressions batch_sim._knob_matrices evaluates.
 * Matrices are row-major with K columns.  The caller owns every buffer:
 *
 *   chain, comp  one row per record some later record depends on
 *                (row[i] >= 0): start + first latency, and completion;
 *   ring         mem_queue_depth rows: the completions of the latest
 *                memory records, the m-th in row m % mem_queue_depth;
 *   front        five zeroed rows: the scalar, arithmetic, AGU and
 *                line-MSHR frontiers, then the running max of the vector
 *                completions since the last barrier;
 *   t_end        K outputs: the time the last frontier settles.
 *
 * Every time is non-negative, so the running max (reset to zero at each
 * barrier) equals the max over the segment's completion rows exactly.
 */

#include <stdint.h>

/* repro.engine.lower.LKIND_* */
enum { LK_SCALAR = 0, LK_VARITH = 1, LK_VMEM = 2, LK_BARRIER = 3, LK_CSR = 4 };
/* repro.engine.lower.FIRST_* */
enum { FIRST_NONE = 0, FIRST_L2 = 1, FIRST_DRAM = 2 };

static inline double max2(double a, double b) { return a > b ? a : b; }

void repro_batch_walk(
    int64_t n, int64_t K,
    const int64_t *kind, const int64_t *dep, const int64_t *slot,
    const uint8_t *scalar_dest, const int64_t *row,
    const double *sc_issue, const double *sc_l2_hits,
    const double *sc_dram_reads, const double *sc_p,
    const double *sc_bw_txns, const double *va_occ,
    const double *vm_addr, const double *vm_lines, const double *vm_l2_lines,
    const double *vm_txns, const double *vm_dram_reads,
    const int8_t *vm_first_kind,
    const double *lat, const double *l2_lat, const double *den,
    const double *num,
    int32_t chaining, int32_t ooo, int64_t q_depth, double line_mshrs,
    double dispatch, double vsetvl, double xfer, double pipe_depth,
    double pipe_lat,
    double *chain, double *comp, double *ring, double *front,
    double *t_end)
{
    double *t_scalar = front;
    double *t_arith = front + K;
    double *t_agu = front + 2 * K;
    double *t_mshr = front + 3 * K;
    double *seg = front + 4 * K;
    int64_t n_mem = 0;

    for (int64_t i = 0; i < n; i++) {
        const int64_t d = dep[i];
        const double *d_chain = d >= 0 ? chain + row[d] * K : 0;
        const double *d_comp = d >= 0 ? comp + row[d] * K : 0;
        double *o_chain = row[i] >= 0 ? chain + row[i] * K : 0;
        double *o_comp = row[i] >= 0 ? comp + row[i] * K : 0;
        const int64_t sl = slot[i];

        switch (kind[i]) {
        case LK_VARITH: {
            const double occ = va_occ[sl];
            const int sdest = scalar_dest[i];
            for (int64_t k = 0; k < K; k++) {
                const double ts = t_scalar[k] + dispatch;
                double s, c, floor = 0.0;
                if (d >= 0 && chaining) {
                    s = max2(max2(d_chain[k] + pipe_depth, ts), t_arith[k]);
                    floor = d_comp[k] + pipe_depth;
                } else if (d >= 0) {
                    s = max2(max2(ts, d_comp[k]), t_arith[k]);
                } else {
                    s = max2(ts, t_arith[k]);
                }
                t_arith[k] = s + occ;
                c = t_arith[k] + pipe_lat;
                if (d >= 0 && chaining)
                    c = max2(c, floor);
                t_scalar[k] = sdest ? max2(ts, c + xfer) : ts;
                seg[k] = max2(seg[k], c);
                if (o_chain) {
                    o_chain[k] = s;
                    o_comp[k] = c;
                }
            }
            break;
        }
        case LK_VMEM: {
            const double addr = vm_addr[sl], lines = vm_lines[sl];
            const double l2_lines = vm_l2_lines[sl], txns = vm_txns[sl];
            const double dram_reads = vm_dram_reads[sl];
            const int fkind = vm_first_kind[sl];
            const int dram = dram_reads > 0;
            /* the queue slot frees when the q_depth-th previous memory
             * record completes; its row is the one overwritten below */
            double *q = ring + (n_mem % q_depth) * K;
            const int full = n_mem >= q_depth;
            for (int64_t k = 0; k < K; k++) {
                const double ts = t_scalar[k] + dispatch;
                double ready = ts, s, c, floor = 0.0;
                t_scalar[k] = ts;
                if (d >= 0 && chaining) {
                    ready = max2(d_chain[k] + pipe_depth, ts);
                    floor = d_comp[k] + pipe_depth;
                } else if (d >= 0) {
                    ready = max2(ts, d_comp[k]);
                }
                if (ooo) {
                    /* the AGU slot is taken in order; a dep-blocked
                     * record does not hold it */
                    double agu = max2(t_agu[k], ts);
                    if (full)
                        agu = max2(agu, q[k]);
                    s = max2(agu, ready);
                    t_agu[k] = agu + addr;
                } else {
                    s = max2(ready, t_agu[k]);
                    if (full)
                        s = max2(s, q[k]);
                    t_agu[k] = s + addr;
                }
                const double first = fkind == FIRST_DRAM ? lat[k]
                    : fkind == FIRST_L2 ? l2_lat[k] : 0.0;
                const double busy = max2(
                    addr, max2(lines, l2_lines + txns * den[k] / num[k]));
                const double s_first = s + first;
                c = s_first + busy;
                if (d >= 0 && chaining)
                    c = max2(c, floor);
                if (dram) {
                    t_mshr[k] = max2(t_mshr[k], s + lat[k])
                                + dram_reads * lat[k] / line_mshrs;
                    c = max2(c, t_mshr[k]);
                }
                q[k] = c;
                seg[k] = max2(seg[k], c);
                if (o_chain) {
                    o_chain[k] = s_first;
                    o_comp[k] = c;
                }
            }
            n_mem++;
            break;
        }
        case LK_SCALAR: {
            /* core_model.scalar_block_time: issue, then the L2 and DRAM
             * stalls at the block's MLP, floored by the limiter */
            const double issue = sc_issue[sl], l2_hits = sc_l2_hits[sl];
            const double dram_reads = sc_dram_reads[sl], p = sc_p[sl];
            const double txns = sc_bw_txns[sl];
            for (int64_t k = 0; k < K; k++) {
                const double t = (issue + l2_hits * l2_lat[k] / p)
                                 + dram_reads * lat[k] / p;
                t_scalar[k] += max2(t, txns * den[k] / num[k]);
            }
            break;
        }
        case LK_CSR:
            for (int64_t k = 0; k < K; k++) {
                t_scalar[k] += vsetvl;
                if (o_chain)
                    o_chain[k] = o_comp[k] = t_scalar[k];
            }
            break;
        default: /* LK_BARRIER */
            for (int64_t k = 0; k < K; k++) {
                const double sync = max2(max2(t_scalar[k], t_arith[k]),
                                         seg[k]);
                if (t_mshr[k] > sync)
                    t_mshr[k] = sync;
                t_scalar[k] = t_arith[k] = t_agu[k] = sync;
                seg[k] = 0.0;
                if (o_chain)
                    o_chain[k] = o_comp[k] = sync;
            }
            break;
        }
    }
    for (int64_t k = 0; k < K; k++)
        t_end[k] = max2(max2(t_scalar[k], t_arith[k]), seg[k]);
}
