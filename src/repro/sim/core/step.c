/* Compiled core step: the launch/issue/complete loop of
 * repro.sim.core.model.CoreTile over the same flat layout.
 *
 * A dynamic instruction is its sequence number; its state lives in
 * power-of-two rings indexed by seq & mask. Every array is owned by the
 * Python side (array.array buffers, see compiled.py); this file holds no
 * state of its own and allocates nothing.
 *
 * One call covers one stretch of tile steps (core_step) or one external
 * completion (core_complete). core_step steps the tile at the cycle it is
 * called with and then at each next attention below its horizon, for as
 * long as the tile acts only on its own state; it stops after the first
 * cycle that queues a dispatch or takes an exit, and when the core
 * finishes, and leaves the last cycle it stepped in H_STEPPED. The caller
 * sets the horizon at or below the first cycle at which anything outside
 * the tile can happen (the next event, another tile's next attention, the
 * cycle budget; one past the cycle for a single step), so a stretch is
 * the steps one call per cycle would make, in the same order.
 * Plain-memory and store-buffer dispatches are queued in `buf` in issue
 * order for Python to send to the memory system after the call, at the
 * last cycle stepped. An instruction this file does not handle (the DAE
 * load-queue reservation; DeSC, comm and accelerator dispatch) ends the
 * call with EXIT_RESERVE or EXIT_DISPATCH; Python handles it and
 * continues that cycle with core_resume. Every array index is
 * bounds-checked against its capacity; an overrun returns ERR_TRACE or
 * ERR_CAPACITY.
 *
 * Observers run here too. With H_TRACING the core's spans (issue to
 * completion, DBB launch to retirement) and mispredict instants are
 * written straight into the Tracer's ring columns, numbered by the push
 * counter Python shares. With H_ATTR the tile's cycle ledger lives in
 * cat_cycles/cat_order: each step books the interval since the last one
 * to the pending category, or banks it in the window head's ring slot
 * when the head waits on a memory request whose level is not known yet;
 * core_complete names that level once the response is in.
 */
#include <stdint.h>

typedef int64_t i64;

#define NEVER ((i64)1 << 62)

enum { WAITING, READY, ISSUED, DONE };

/* dispatch kinds and issue-check bits: same values as model.py */
enum { D_FIXED, D_MEM, D_MEM_DECOUPLED, D_MEM_DECOUPLED_STORE,
       D_MEM_STOREBUF, D_CALL_FP, D_CALL_ACCEL, D_CALL_COMM, D_CALL_OTHER };
enum { C_MEMORY = 1, C_DECOUPLED = 2, C_BARRIER = 4, C_ACCEL = 8 };

/* negative return codes */
enum { EXIT_RESERVE = -1, EXIT_DISPATCH = -2, ERR_TRACE = -3,
       ERR_CAPACITY = -4 };

/* scalar header; compiled.py lists the same names in the same order */
enum {
    H_NEXT_SEQ, H_WINDOW_BASE, H_NEXT_DBB, H_NUM_BLOCKS, H_MAO_INCOMPLETE,
    H_ACCEL_INFLIGHT, H_FINISHED, H_LIVE_TOTAL, H_LAST_TERMINATOR,
    H_LAST_TERMINATOR_DONE_AT, H_LAUNCH_STALL_UNTIL, H_PREDICTION_CORRECT,
    H_PREV_BID, H_READY_N, H_RETRY_N, H_CQ_N, H_CQ_ORDER, H_MAO_LO,
    H_MAO_HI, H_EDGE_FREE,
    H_CYCLES, H_INSTRUCTIONS, H_MEMORY_ACCESSES, H_MISPREDICTIONS,
    H_MAO_STALLS, H_DBBS_LAUNCHED, H_MAX_LIVE_DBBS,
    H_EXIT_SEQ, H_EXIT_KIND, H_BUDGET, H_WINDOW_LIMIT, H_NBUF, H_STEPPED,
    H_MASK, H_ROB, H_LSQ, H_WIDTH, H_LIVE_LIMIT, H_PERFECT_ALIAS,
    H_PERIOD, H_MISPREDICT_DELAY, H_SPEC_PERFECT, H_SPECULATES,
    H_FP_LONG_LATENCY, H_CALL_LATENCY, H_BUF_CAP,
    H_TRACING, H_TRACE_TID, H_TRACE_CAP, H_MISPREDICT_KIND,
    H_ATTR, H_CURSOR, H_PENDING, H_CAT_ORDER, H_NO_MEMORY, H_RESOLVE,
    H_PRED_KIND, H_PRED_MASK, H_PRED_HISTORY,
    H_SIZE
};

/* attribution categories: the order of compiled.py's _CATEGORIES; a wait
 * table entry of WAIT_REQUEST defers to the head's memory request */
enum { CAT_COMPUTE = 0, CAT_MISPREDICT = 6, CAT_FRONTEND_IDLE = 7,
       CAT_IDEAL = 8, WAIT_REQUEST = -1 };

enum { PRED_STATIC, PRED_TWOBIT, PRED_GSHARE };

typedef struct {
    i64 *h;
    double *energy;            /* [0]: the tile's energy_nj */
    /* per static instruction */
    const i64 *latency;
    const double *energy_by_iid;
    const i64 *fu;             /* functional-unit class, -1 unlimited */
    const i64 *fu_limit;       /* per class */
    i64 *fu_used;              /* per class */
    const i64 *flags;          /* FLAG_* bits */
    const i64 *checks;
    const i64 *kind;
    const i64 *ptr_iid;        /* pointer-operand producer, -1 none */
    const i64 *ops_off;        /* operands of iid: ops[ops_off[iid]..[iid+1]) */
    const i64 *ops;
    const i64 *phi_off;        /* (pred bid, producer iid) pairs */
    const i64 *phi;
    i64 *last_seq;
    /* per static block */
    const i64 *blk_off;        /* iids of bid: blk_iids[blk_off[bid]..] */
    const i64 *blk_iids;
    const i64 *blk_term;
    const i64 *blk_mem_ops;
    const i64 *blk_nsucc;
    const i64 *blk_static_target;
    i64 *live_dbbs;
    /* trace */
    const i64 *block_trace;
    const i64 *addr;           /* all addresses, grouped by iid */
    const i64 *addr_off;       /* [iid]..[iid+1]: that iid's addresses */
    i64 *addr_cursor;
    /* rings, indexed by seq & mask (d_remaining by DBB index & mask) */
    i64 *r_iid, *r_state, *r_pending, *r_addr, *r_addr_producer, *r_dbb;
    i64 *dep_head, *dep_tail, *d_remaining;
    /* dependents edge pool: edge e is (e_seq[e], next e_next[e]) */
    i64 *e_seq, *e_next;
    i64 *ready;                /* min-heap of seqs, capacity mask + 1 */
    i64 *retry;                /* capacity mask + 1 */
    i64 *cq;                   /* min-heap of (cycle, order, seq) */
    i64 *mao;                  /* memory seqs, positions & mask */
    i64 *buf;                  /* queued memory dispatches (seqs) */
    /* branch prediction: first successor per block, 2-bit counters */
    const i64 *blk_succ0;
    i64 *pred;
    /* tracer: kinds per iid and per bid, issue and launch rings, and the
     * Tracer's columns (written at slot n % capacity, n = t_count[0]) */
    const i64 *span_kind;
    const i64 *dbb_kind;
    i64 *issued_at;            /* by seq & mask */
    i64 *launched_at;          /* by DBB index & mask */
    i64 *t_cycle, *t_dur, *t_iarg;
    int32_t *t_tid, *t_kind;
    i64 *t_count;
    /* attribution: wait category per (iid, issued), the ledger, and the
     * cycles banked against each in-flight seq's memory request */
    const i64 *wait;
    i64 *cat_cycles, *cat_order;
    i64 *banked;
} Core;

enum { FLAG_FREE = 1, FLAG_MEM = 2, FLAG_STORE = 4, FLAG_PHI = 8 };

int core_header_size(void) { return H_SIZE; }

/* -- heaps ------------------------------------------------------------ */
static int ready_push(Core *c, i64 seq)
{
    i64 *h = c->h, *a = c->ready;
    i64 n = h[H_READY_N];
    if (n > h[H_MASK])
        return ERR_CAPACITY;
    while (n > 0) {
        i64 parent = (n - 1) >> 1;
        if (a[parent] <= seq)
            break;
        a[n] = a[parent];
        n = parent;
    }
    a[n] = seq;
    h[H_READY_N]++;
    return 0;
}

static i64 ready_pop(Core *c)
{
    i64 *h = c->h, *a = c->ready;
    i64 top = a[0];
    i64 n = --h[H_READY_N];
    i64 last = a[n], i = 0;
    for (;;) {
        i64 child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && a[child + 1] < a[child])
            child++;
        if (a[child] >= last)
            break;
        a[i] = a[child];
        i = child;
    }
    if (n > 0)
        a[i] = last;
    return top;
}

static int cq_less(const i64 *a, i64 i, i64 j)
{
    return a[3 * i] < a[3 * j]
        || (a[3 * i] == a[3 * j] && a[3 * i + 1] < a[3 * j + 1]);
}

static void cq_swap(i64 *a, i64 i, i64 j)
{
    for (int k = 0; k < 3; k++) {
        i64 t = a[3 * i + k];
        a[3 * i + k] = a[3 * j + k];
        a[3 * j + k] = t;
    }
}

/* schedule seq's completion at `cycle`; equal cycles keep push order */
static int cq_push(Core *c, i64 cycle, i64 seq)
{
    i64 *h = c->h, *a = c->cq;
    i64 n = h[H_CQ_N];
    if (n > h[H_MASK])
        return ERR_CAPACITY;
    a[3 * n] = cycle;
    a[3 * n + 1] = h[H_CQ_ORDER]++;
    a[3 * n + 2] = seq;
    h[H_CQ_N] = n + 1;
    while (n > 0) {
        i64 parent = (n - 1) >> 1;
        if (!cq_less(a, n, parent))
            break;
        cq_swap(a, n, parent);
        n = parent;
    }
    return 0;
}

static i64 cq_pop(Core *c)
{
    i64 *h = c->h, *a = c->cq;
    i64 seq = a[2];
    i64 n = --h[H_CQ_N], i = 0;
    if (n > 0) {
        a[0] = a[3 * n];
        a[1] = a[3 * n + 1];
        a[2] = a[3 * n + 2];
    }
    for (;;) {
        i64 child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && cq_less(a, child + 1, child))
            child++;
        if (!cq_less(a, child, i))
            break;
        cq_swap(a, i, child);
        i = child;
    }
    return seq;
}

/* -- observers -------------------------------------------------------- */
static void trace_push(Core *c, i64 kind, i64 cycle, i64 dur, i64 arg)
{
    i64 *h = c->h;
    i64 slot = c->t_count[0]++ % h[H_TRACE_CAP];
    c->t_kind[slot] = (int32_t)kind;
    c->t_cycle[slot] = cycle;
    c->t_dur[slot] = dur > 0 ? dur : 0;
    c->t_tid[slot] = (int32_t)h[H_TRACE_TID];
    c->t_iarg[slot] = arg;
}

static void book(Core *c, i64 category, i64 cycles)
{
    if (!c->cat_order[category])
        c->cat_order[category] = ++c->h[H_CAT_ORDER];
    c->cat_cycles[category] += cycles;
}

/* book [cursor, cycle) to the pending category; a pending -1 - seq banks
 * it against seq's memory request */
static void attr_advance(Core *c, i64 cycle)
{
    i64 *h = c->h;
    i64 delta = cycle - h[H_CURSOR];
    if (delta <= 0)
        return;
    i64 pending = h[H_PENDING];
    if (pending >= 0)
        book(c, pending, delta);
    else
        c->banked[(-1 - pending) & h[H_MASK]] += delta;
    h[H_CURSOR] = cycle;
}

/* seq's memory access completed, served as `category`: flush its bank */
static void attr_resolve(Core *c, i64 seq, i64 category)
{
    i64 *h = c->h;
    i64 slot = seq & h[H_MASK];
    if (c->banked[slot]) {
        book(c, category, c->banked[slot]);
        c->banked[slot] = 0;
    }
    if (h[H_PENDING] == -1 - seq)
        h[H_PENDING] = category;
}

/* what the interval until the next step belongs to */
static i64 attr_classify(Core *c, i64 cycle, int saturated)
{
    i64 *h = c->h;
    if (h[H_FINISHED])
        return CAT_FRONTEND_IDLE;
    if (saturated)
        return CAT_COMPUTE;
    if (h[H_LAUNCH_STALL_UNTIL] > cycle)
        return CAT_MISPREDICT;
    i64 head = h[H_WINDOW_BASE];
    if (head == h[H_NEXT_SEQ])
        return CAT_FRONTEND_IDLE;
    i64 slot = head & h[H_MASK];
    i64 category =
        c->wait[2 * c->r_iid[slot] + (c->r_state[slot] == ISSUED)];
    if (category != WAIT_REQUEST)
        return category;
    return h[H_NO_MEMORY] ? CAT_IDEAL : -1 - head;
}

/* -- completion ------------------------------------------------------- */
static int complete(Core *c, i64 seq, i64 cycle)
{
    i64 *h = c->h;
    i64 mask = h[H_MASK];
    i64 slot = seq & mask;
    i64 iid = c->r_iid[slot];
    i64 flags = c->flags[iid];
    c->r_state[slot] = DONE;
    if (!(flags & FLAG_FREE)) {
        h[H_INSTRUCTIONS]++;
        if (h[H_TRACING])
            trace_push(c, c->span_kind[iid], c->issued_at[slot],
                       cycle - c->issued_at[slot], 0);
    }
    if (cycle > h[H_CYCLES])
        h[H_CYCLES] = cycle;
    if (c->fu[iid] >= 0)
        c->fu_used[c->fu[iid]]--;
    if (flags & FLAG_MEM)
        h[H_MAO_INCOMPLETE]--;
    /* wake dependents (rule 2), in registration order */
    i64 e = c->dep_head[slot];
    c->dep_head[slot] = c->dep_tail[slot] = -1;
    while (e >= 0) {
        i64 dep = c->e_seq[e], next = c->e_next[e];
        c->e_next[e] = h[H_EDGE_FREE];
        h[H_EDGE_FREE] = e;
        i64 dslot = dep & mask;
        if (--c->r_pending[dslot] == 0 && c->r_state[dslot] == WAITING) {
            int rc;
            if (c->flags[c->r_iid[dslot]] & FLAG_FREE) {
                rc = complete(c, dep, cycle);
            } else {
                c->r_state[dslot] = READY;
                rc = ready_push(c, dep);
            }
            if (rc)
                return rc;
        }
        e = next;
    }
    /* slide the instruction window */
    i64 base = h[H_WINDOW_BASE];
    if (seq == base) {
        i64 end = h[H_NEXT_SEQ];
        while (base < end && c->r_state[base & mask] == DONE)
            base++;
        h[H_WINDOW_BASE] = base;
    }
    if (seq == h[H_LAST_TERMINATOR])
        h[H_LAST_TERMINATOR_DONE_AT] = cycle;
    /* retire DBB bookkeeping */
    i64 index = c->r_dbb[slot];
    if (--c->d_remaining[index & mask] == 0) {
        i64 bid = c->block_trace[index];
        c->live_dbbs[bid]--;
        h[H_LIVE_TOTAL]--;
        if (h[H_TRACING]) {
            i64 launched = c->launched_at[index & mask];
            trace_push(c, c->dbb_kind[bid], launched, cycle - launched,
                       index);
        }
    }
    if (h[H_WINDOW_BASE] == h[H_NEXT_SEQ]
            && h[H_NEXT_DBB] >= h[H_NUM_BLOCKS])
        h[H_FINISHED] = 1;
    return 0;
}

/* an external completion; H_RESOLVE >= 0 is the attribution category
 * of seq's memory request, which Python sets before the call (a fourth
 * ctypes argument would cost every completion) */
int core_complete(Core *c, i64 seq, i64 cycle)
{
    i64 category = c->h[H_RESOLVE];
    if (category >= 0) {
        c->h[H_RESOLVE] = -1;
        attr_resolve(c, seq, category);
    }
    return complete(c, seq, cycle);
}

/* -- launch ----------------------------------------------------------- */
/* register `seq` as a dependent of the newest instance of `producer_iid`
 * when that is still in flight; returns 1 if registered, <0 on error */
static int depend(Core *c, i64 seq, i64 producer_iid, i64 window_base)
{
    i64 *h = c->h;
    i64 mask = h[H_MASK];
    i64 p = c->last_seq[producer_iid];
    if (p < window_base || c->r_state[p & mask] == DONE)
        return 0;
    i64 e = h[H_EDGE_FREE];
    if (e < 0)
        return ERR_CAPACITY;
    h[H_EDGE_FREE] = c->e_next[e];
    c->e_seq[e] = seq;
    c->e_next[e] = -1;
    i64 pslot = p & mask;
    if (c->dep_tail[pslot] >= 0)
        c->e_next[c->dep_tail[pslot]] = e;
    else
        c->dep_head[pslot] = e;
    c->dep_tail[pslot] = e;
    return 1;
}

/* whether the branch ending block `bid` predicts the DBB at trace
 * position `next`; twobit/gshare also train on the outcome */
static i64 predict(Core *c, i64 bid, i64 next)
{
    i64 *h = c->h;
    if (next >= h[H_NUM_BLOCKS] || c->blk_nsucc[bid] <= 1)
        return 1;
    i64 actual = c->block_trace[next];
    i64 kind = h[H_PRED_KIND];
    if (kind == PRED_STATIC)  /* backward taken, forward not taken */
        return c->blk_static_target[bid] == actual;
    i64 taken = actual == c->blk_succ0[bid];
    i64 mask = h[H_PRED_MASK];
    i64 index = c->blk_term[bid];
    if (kind == PRED_GSHARE)
        index ^= h[H_PRED_HISTORY];
    index &= mask;
    i64 counter = c->pred[index];
    if (taken)
        c->pred[index] = counter < 3 ? counter + 1 : 3;
    else
        c->pred[index] = counter > 0 ? counter - 1 : 0;
    if (kind == PRED_GSHARE)
        h[H_PRED_HISTORY] = ((h[H_PRED_HISTORY] << 1) | taken) & mask;
    return (counter >= 2) == taken;
}

/* 1 launched, 0 blocked, <0 error */
static int launch(Core *c, i64 cycle)
{
    i64 *h = c->h;
    i64 mask = h[H_MASK];
    i64 next_seq = h[H_NEXT_SEQ];
    i64 window_base = h[H_WINDOW_BASE];
    if (next_seq >= window_base + h[H_ROB])
        return 0;
    i64 index = h[H_NEXT_DBB];
    i64 bid = c->block_trace[index];
    if (h[H_LIVE_LIMIT] >= 0 && c->live_dbbs[bid] >= h[H_LIVE_LIMIT])
        return 0;
    i64 mao_incomplete = h[H_MAO_INCOMPLETE];
    if (mao_incomplete + c->blk_mem_ops[bid] > h[H_LSQ]
            && mao_incomplete > 0)
        return 0;
    if (h[H_SPECULATES] && !h[H_PREDICTION_CORRECT]
            && h[H_MISPREDICT_DELAY]) {
        i64 earliest = h[H_LAST_TERMINATOR_DONE_AT] + h[H_MISPREDICT_DELAY];
        if (cycle < earliest) {
            h[H_LAUNCH_STALL_UNTIL] = earliest;
            return 0;
        }
        h[H_MISPREDICTIONS]++;
        if (h[H_TRACING])
            trace_push(c, h[H_MISPREDICT_KIND], cycle, 0, 0);
    }
    i64 first = c->blk_off[bid], end = c->blk_off[bid + 1];
    c->d_remaining[index & mask] = end - first;
    if (h[H_TRACING])
        c->launched_at[index & mask] = cycle;
    c->live_dbbs[bid]++;
    h[H_LIVE_TOTAL]++;
    h[H_DBBS_LAUNCHED]++;
    if (h[H_LIVE_TOTAL] > h[H_MAX_LIVE_DBBS])
        h[H_MAX_LIVE_DBBS] = h[H_LIVE_TOTAL];
    /* the MAO ring holds only entries at or past the window base */
    while (h[H_MAO_LO] < h[H_MAO_HI]
            && c->mao[h[H_MAO_LO] & mask] < window_base)
        h[H_MAO_LO]++;

    i64 prev_bid = h[H_PREV_BID];
    for (i64 k = first; k < end; k++) {
        i64 iid = c->blk_iids[k];
        i64 flags = c->flags[iid];
        i64 seq = next_seq++;
        i64 slot = seq & mask;
        i64 pending = 0;
        int rc;
        c->r_iid[slot] = iid;
        c->r_dbb[slot] = index;
        c->r_state[slot] = WAITING;
        if (flags & FLAG_PHI) {
            for (i64 j = c->phi_off[iid]; j < c->phi_off[iid + 1]; j += 2) {
                if (c->phi[j] == prev_bid) {
                    if (c->phi[j + 1] >= 0) {
                        rc = depend(c, seq, c->phi[j + 1], window_base);
                        if (rc < 0)
                            return rc;
                        pending += rc;
                    }
                    break;
                }
            }
        } else {
            for (i64 j = c->ops_off[iid]; j < c->ops_off[iid + 1]; j++) {
                rc = depend(c, seq, c->ops[j], window_base);
                if (rc < 0)
                    return rc;
                pending += rc;
            }
        }
        c->r_pending[slot] = pending;
        c->last_seq[iid] = seq;
        if (flags & FLAG_MEM) {
            i64 cursor = c->addr_cursor[iid];
            if (c->addr_off[iid] + cursor >= c->addr_off[iid + 1])
                return ERR_TRACE;
            c->r_addr[slot] = c->addr[c->addr_off[iid] + cursor];
            c->addr_cursor[iid] = cursor + 1;
            c->r_addr_producer[slot] =
                c->ptr_iid[iid] >= 0 ? c->last_seq[c->ptr_iid[iid]] : -1;
            if (h[H_MAO_HI] - h[H_MAO_LO] > mask)
                return ERR_CAPACITY;
            c->mao[h[H_MAO_HI]++ & mask] = seq;
            h[H_MAO_INCOMPLETE]++;
        }
        if (pending == 0) {
            if (flags & FLAG_FREE) {
                h[H_NEXT_SEQ] = next_seq;
                rc = complete(c, seq, cycle);
            } else {
                c->r_state[slot] = READY;
                rc = ready_push(c, seq);
            }
            if (rc)
                return rc;
        }
    }
    h[H_NEXT_SEQ] = next_seq;
    h[H_LAST_TERMINATOR] = c->last_seq[c->blk_term[bid]];
    h[H_PREV_BID] = bid;
    h[H_NEXT_DBB] = ++index;
    if (h[H_SPECULATES])
        h[H_PREDICTION_CORRECT] = predict(c, bid, index);
    return 1;
}

/* -- issue ------------------------------------------------------------ */
static int mao_permits(Core *c, i64 seq)
{
    i64 *h = c->h;
    i64 mask = h[H_MASK];
    i64 base = h[H_WINDOW_BASE];
    int is_store = (c->flags[c->r_iid[seq & mask]] & FLAG_STORE) != 0;
    i64 line = c->r_addr[seq & mask] >> 3;
    i64 lo = h[H_MAO_LO], hi = h[H_MAO_HI];
    while (lo < hi) {
        i64 other = c->mao[lo & mask];
        if (other >= base && c->r_state[other & mask] != DONE)
            break;
        lo++;
    }
    h[H_MAO_LO] = lo;
    for (i64 p = lo; p < hi; p++) {
        i64 other = c->mao[p & mask];
        if (other >= seq)
            break;
        i64 slot = other & mask;
        if (other < base || c->r_state[slot] == DONE)
            continue;
        if (!is_store && !(c->flags[c->r_iid[slot]] & FLAG_STORE))
            continue;
        if (h[H_PERFECT_ALIAS]) {
            if ((c->r_addr[slot] >> 3) == line)
                return 0;
            continue;
        }
        i64 producer = c->r_addr_producer[slot];
        if (producer >= base && c->r_state[producer & mask] != DONE)
            return 0;
        if ((c->r_addr[slot] >> 3) == line)
            return 0;
    }
    return 1;
}

/* the checks after the load-queue reservation; 1 when they pass */
static int late_checks_pass(Core *c, i64 seq, i64 checks)
{
    i64 *h = c->h;
    if ((checks & C_BARRIER) && seq != h[H_WINDOW_BASE])
        return 0;
    if ((checks & C_ACCEL) && h[H_ACCEL_INFLIGHT])
        return 0;
    return 1;
}

static int retry_push(Core *c, i64 seq)
{
    i64 *h = c->h;
    if (h[H_RETRY_N] > h[H_MASK])
        return ERR_CAPACITY;
    c->retry[h[H_RETRY_N]++] = seq;
    return 0;
}

/* issue seq (all checks passed); EXIT_DISPATCH when Python must send it */
static int issue_one(Core *c, i64 seq, i64 cycle)
{
    i64 *h = c->h;
    i64 slot = seq & h[H_MASK];
    i64 iid = c->r_iid[slot];
    i64 kind = c->kind[iid];
    h[H_BUDGET]--;
    c->r_state[slot] = ISSUED;
    if (h[H_TRACING])
        c->issued_at[slot] = cycle;
    if (c->fu[iid] >= 0)
        c->fu_used[c->fu[iid]]++;
    c->energy[0] += c->energy_by_iid[iid];
    if (kind >= D_MEM && kind <= D_MEM_STOREBUF)
        h[H_MEMORY_ACCESSES]++;
    switch (kind) {
    case D_FIXED:
        return cq_push(c, cycle + c->latency[iid], seq);
    case D_MEM:
        if (h[H_NBUF] >= h[H_BUF_CAP])
            return ERR_CAPACITY;
        c->buf[h[H_NBUF]++] = seq;
        return 0;
    case D_MEM_STOREBUF:
        if (h[H_NBUF] >= h[H_BUF_CAP])
            return ERR_CAPACITY;
        c->buf[h[H_NBUF]++] = seq;
        return cq_push(c, cycle + h[H_PERIOD], seq);
    case D_MEM_DECOUPLED:
    case D_MEM_DECOUPLED_STORE: {
        int rc = cq_push(c, cycle + h[H_PERIOD], seq);
        if (rc)
            return rc;
        break;
    }
    case D_CALL_FP:
        return cq_push(c, cycle + h[H_FP_LONG_LATENCY], seq);
    case D_CALL_ACCEL:
    case D_CALL_COMM:
        break;
    default:
        return cq_push(c, cycle + h[H_CALL_LATENCY], seq);
    }
    h[H_EXIT_SEQ] = seq;
    h[H_EXIT_KIND] = EXIT_DISPATCH;
    return EXIT_DISPATCH;
}

static i64 finish_step(Core *c, i64 cycle, int saturated)
{
    i64 *h = c->h;
    if (h[H_NEXT_DBB] >= h[H_NUM_BLOCKS] && h[H_NEXT_SEQ] == h[H_WINDOW_BASE])
        h[H_FINISHED] = 1;
    if (cycle > h[H_CYCLES])
        h[H_CYCLES] = cycle;
    if (h[H_ATTR])
        h[H_PENDING] = attr_classify(c, cycle, saturated);
    if (h[H_FINISHED])
        return NEVER;
    i64 nxt = NEVER;
    if (h[H_CQ_N])
        nxt = c->cq[0];
    i64 stall = h[H_LAUNCH_STALL_UNTIL];
    if (stall > cycle && stall < nxt)
        nxt = stall;
    if (saturated && cycle + h[H_PERIOD] < nxt)
        nxt = cycle + h[H_PERIOD];
    if (nxt == NEVER || h[H_PERIOD] == 1)
        return nxt;
    i64 remainder = nxt % h[H_PERIOD];
    return remainder == 0 ? nxt : nxt + h[H_PERIOD] - remainder;
}

static i64 issue_loop(Core *c, i64 cycle)
{
    i64 *h = c->h;
    i64 mask = h[H_MASK];
    int rc;
    while (h[H_BUDGET] > 0 && h[H_READY_N] > 0) {
        i64 seq = c->ready[0];
        if (seq >= h[H_WINDOW_LIMIT])
            break;
        ready_pop(c);
        i64 iid = c->r_iid[seq & mask];
        i64 fu = c->fu[iid];
        if (fu >= 0 && c->fu_used[fu] >= c->fu_limit[fu]) {
            if ((rc = retry_push(c, seq)))
                return rc;
            continue;
        }
        i64 checks = c->checks[iid];
        if (checks) {
            if ((checks & C_MEMORY) && !mao_permits(c, seq)) {
                h[H_MAO_STALLS]++;
                if ((rc = retry_push(c, seq)))
                    return rc;
                continue;
            }
            if (checks & C_DECOUPLED) {
                h[H_EXIT_SEQ] = seq;
                h[H_EXIT_KIND] = EXIT_RESERVE;
                return EXIT_RESERVE;
            }
            if (!late_checks_pass(c, seq, checks)) {
                if ((rc = retry_push(c, seq)))
                    return rc;
                continue;
            }
        }
        if ((rc = issue_one(c, seq, cycle)))
            return rc;
    }
    int saturated = h[H_BUDGET] == 0 && h[H_READY_N] > 0
        && c->ready[0] < h[H_WINDOW_LIMIT];
    /* structurally blocked instructions rejoin the pool */
    for (i64 k = 0; k < h[H_RETRY_N]; k++)
        if ((rc = ready_push(c, c->retry[k])))
            return rc;
    h[H_RETRY_N] = 0;
    return finish_step(c, cycle, saturated);
}

/* one tile step at `cycle`: the body of CoreTile.step */
static i64 step_cycle(Core *c, i64 cycle)
{
    i64 *h = c->h;
    int rc;
    if (h[H_ATTR])
        attr_advance(c, cycle);
    /* 1. internal fixed-latency completions due now */
    while (h[H_CQ_N] > 0 && c->cq[0] <= cycle)
        if ((rc = complete(c, cq_pop(c), cycle)))
            return rc;
    /* 2. launch DBBs while the branch-speculation gate and resource
     * limits allow */
    while (h[H_NEXT_DBB] < h[H_NUM_BLOCKS]) {
        i64 term = h[H_LAST_TERMINATOR];
        if (!(term < h[H_WINDOW_BASE] || h[H_SPEC_PERFECT]
                || (h[H_SPECULATES] && h[H_PREDICTION_CORRECT])
                || c->r_state[term & h[H_MASK]] == DONE))
            break;
        if (h[H_NEXT_SEQ] >= h[H_WINDOW_BASE] + h[H_ROB])
            break;
        rc = launch(c, cycle);
        if (rc < 0)
            return rc;
        if (!rc)
            break;
    }
    /* 3. issue ready instructions */
    if (h[H_READY_N] == 0)
        return finish_step(c, cycle, 0);
    h[H_BUDGET] = h[H_WIDTH];
    h[H_WINDOW_LIMIT] = h[H_WINDOW_BASE] + h[H_ROB];
    h[H_RETRY_N] = 0;
    return issue_loop(c, cycle);
}

/* step at `cycle`, then at each next attention in (cycle, horizon), until
 * a step queues a dispatch, exits or finishes (NEVER is past any horizon) */
i64 core_step(Core *c, i64 cycle, i64 horizon)
{
    i64 *h = c->h;
    h[H_NBUF] = 0;
    for (;;) {
        h[H_STEPPED] = cycle;
        i64 next = step_cycle(c, cycle);
        if (next <= cycle || next >= horizon || h[H_NBUF])
            return next;
        cycle = next;
    }
}

/* continue a step after an exit: for EXIT_RESERVE `arg` is whether the
 * load-queue slot was reserved; for EXIT_DISPATCH it is the completion
 * cycle Python's dispatch scheduled on the core (-1: none) */
i64 core_resume(Core *c, i64 cycle, i64 arg)
{
    i64 *h = c->h;
    i64 seq = h[H_EXIT_SEQ];
    int rc;
    h[H_NBUF] = 0;
    if (h[H_EXIT_KIND] == EXIT_RESERVE) {
        i64 checks = c->checks[c->r_iid[seq & h[H_MASK]]];
        if (!arg || !late_checks_pass(c, seq, checks))
            rc = retry_push(c, seq);
        else
            rc = issue_one(c, seq, cycle);
        if (rc)
            return rc;
    } else if (arg >= 0) {
        if ((rc = cq_push(c, arg, seq)))
            return rc;
    }
    return issue_loop(c, cycle);
}
