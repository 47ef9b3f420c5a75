/* Trace generation in C: a bytecode interpreter for the mini-IR.
 *
 * native.py encodes a function's block plans (interpreter.py's
 * Interpreter._build_plans) into flat int64 arrays: STEP_WORDS per step,
 * BLOCK_WORDS per block, EDGE_WORDS per control-flow edge with the phi
 * parallel copies of that edge. SSA values, formals and constants live in
 * one int64 and one double register file, chosen by IR type; constants
 * are registers whose initial value is the constant.
 *
 * Semantics are interpreter.py's, which stays the reference: integers
 * are int64 whatever their IR width (add/sub/mul/shl wrap, shift counts
 * are & 63), float arithmetic is double, fcmp is 0 on NaN, the math
 * calls are the libm functions CPython's math module calls. Loads and
 * stores index the numpy buffers of SimMemory's segments in place.
 *
 * Anything the reference would raise on, or whose result C cannot hold
 * exactly (division by zero, a math domain or range error, an unmapped,
 * past-end or misaligned address, a store numpy rejects or warns on, a
 * float-to-int conversion out of range), ends the call with R_DELEGATE
 * before the step has any effect beyond recording its address: Python
 * runs that one step with the reference semantics (raising what the
 * reference raises) and resumes at the next step.
 *
 * Every array is owned by the Python side; this file holds no state of
 * its own and allocates nothing. A full output buffer ends the call with
 * R_FULL before the step that needs it; Python grows the buffer and the
 * step runs again from its start.
 */
#include <math.h>
#include <stdint.h>

typedef int64_t i64;
typedef uint64_t u64;

enum { STEP_WORDS = 6, BLOCK_WORDS = 3, EDGE_WORDS = 3, COPY_WORDS = 3,
       SEG_WORDS = 5 };

/* return codes; native.py uses the same values */
enum { R_DONE, R_BARRIER, R_LIMIT, R_DELEGATE, R_FULL };

/* opcodes; native.py lists the same names in the same order */
enum {
    OP_ADD, OP_SUB, OP_MUL, OP_SDIV, OP_SREM, OP_AND, OP_OR, OP_XOR,
    OP_SHL, OP_LSHR, OP_ASHR,
    OP_FADD, OP_FSUB, OP_FMUL, OP_FDIV,
    OP_IEQ, OP_INE, OP_ISLT, OP_ISLE, OP_ISGT, OP_ISGE,
    OP_FOEQ, OP_FONE, OP_FOLT, OP_FOLE, OP_FOGT, OP_FOGE,
    OP_GEP, OP_LOAD_I, OP_LOAD_F, OP_STORE_I, OP_STORE_F,
    OP_ATOMIC_I, OP_ATOMIC_F,
    OP_SELECT_I, OP_SELECT_F,
    OP_MOV_I, OP_MOV_F, OP_TRUNC, OP_I2F, OP_F2I,
    OP_SQRT, OP_EXP, OP_LOG, OP_SIN, OP_COS, OP_FABS, OP_FLOOR, OP_RSQRT,
    OP_TILE_ID, OP_NUM_TILES, OP_BARRIER,
    OP_BR, OP_CBR, OP_RET
};

/* atomicrmw operations */
enum { AT_ADD, AT_SUB, AT_MIN, AT_MAX, AT_XCHG };

/* segment element kinds */
enum { K_F64, K_F32, K_I64, K_I32, K_I16, K_I8 };

/* One kernel instance's state. native.py's _Run mirrors this layout. */
typedef struct {
    const i64 *code;      /* op, dest, a, b, c, x per step */
    const i64 *blocks;    /* bid, num_insts, first step */
    const i64 *edges;     /* target block, first copy, copy count */
    const i64 *copies;    /* is_float, dest, source */
    i64 *ri;              /* int64 registers */
    double *rf;           /* double registers */
    i64 *stage;           /* one word per copy of the widest edge */
    const i64 *segs;      /* base, end, log2 element size, kind, data */
    i64 nseg;
    i64 *seg_hint;        /* per memory step: the segment it hit last */
    i64 *path;            /* the block path */
    i64 path_n, path_cap;
    i64 **addr;           /* per memory step: its address buffer */
    i64 *addr_n, *addr_cap;
    i64 *order;           /* memory steps in first-encounter order */
    i64 order_n;
    i64 pc;               /* next step; -1 - block before the entry */
    i64 steps, limit, collect, tile, ntiles;
    i64 grow;             /* after R_FULL: -1 path, else memory step */
} Run;

i64 interp_run_words(void) { return sizeof(Run) / sizeof(i64); }

/* the segment holding addr (SimMemory._segment_for), or 0 */
static const i64 *segment(Run *s, i64 m, i64 addr)
{
    const i64 *g;
    i64 lo = 0, hi = s->nseg;
    if (s->seg_hint[m] < hi) {
        g = s->segs + s->seg_hint[m] * SEG_WORDS;
        if (addr >= g[0] && addr < g[1])
            return g;
    }
    while (lo < hi) {
        i64 mid = (lo + hi) / 2;
        if (addr < s->segs[mid * SEG_WORDS])
            hi = mid;
        else
            lo = mid + 1;
    }
    if (lo == 0)
        return 0;
    g = s->segs + (lo - 1) * SEG_WORDS;
    if (addr >= g[1])
        return 0;
    s->seg_hint[m] = lo - 1;
    return g;
}

/* element pointer of addr in g, or 0 when misaligned */
static void *element(const i64 *g, i64 addr)
{
    i64 offset = addr - g[0];
    if (offset & ((1 << g[2]) - 1))
        return 0;
    return (char *)(intptr_t)g[4] + offset;
}

/* int(x) of a float element; 0 when it does not fit in int64 */
static int to_i64(double x, i64 *out)
{
    if (!(x >= -9223372036854775808.0 && x < 9223372036854775808.0))
        return 0;
    *out = (i64)x;
    return 1;
}

static int load_i(const i64 *g, void *p, i64 *out)
{
    switch (g[3]) {
    case K_F64: return to_i64(*(double *)p, out);
    case K_F32: return to_i64(*(float *)p, out);
    case K_I64: *out = *(i64 *)p; return 1;
    case K_I32: *out = *(int32_t *)p; return 1;
    case K_I16: *out = *(int16_t *)p; return 1;
    default: *out = *(int8_t *)p; return 1;
    }
}

static double load_f(const i64 *g, void *p)
{
    switch (g[3]) {
    case K_F64: return *(double *)p;
    case K_F32: return *(float *)p;
    case K_I64: return (double)*(i64 *)p;
    case K_I32: return *(int32_t *)p;
    case K_I16: return *(int16_t *)p;
    default: return *(int8_t *)p;
    }
}

/* numpy's data[i] = v for a Python int v; 0 where numpy raises */
static int store_i(const i64 *g, void *p, i64 v)
{
    switch (g[3]) {
    case K_F64: *(double *)p = (double)v; return 1;
    case K_F32: *(float *)p = (float)(double)v; return 1;
    case K_I64: *(i64 *)p = v; return 1;
    case K_I32:
        if (v != (int32_t)v) return 0;
        *(int32_t *)p = (int32_t)v; return 1;
    case K_I16:
        if (v != (int16_t)v) return 0;
        *(int16_t *)p = (int16_t)v; return 1;
    default:
        if (v != (int8_t)v) return 0;
        *(int8_t *)p = (int8_t)v; return 1;
    }
}

/* numpy's data[i] = v for a Python float v; 0 where numpy raises or
 * warns (an f32 overflow) */
static int store_f(const i64 *g, void *p, double v)
{
    i64 t;
    if (g[3] == K_F64) {
        *(double *)p = v;
        return 1;
    }
    if (g[3] == K_F32) {
        float f = (float)v;
        if (isinf(f) && !isinf(v))
            return 0;
        *(float *)p = f;
        return 1;
    }
    return to_i64(v, &t) && store_i(g, p, t);
}

/* CPython's math_1 raises when a finite input gives an infinite result
 * or a non-NaN input a NaN */
static int math_error(double x, double r)
{
    return (isnan(r) && !isnan(x)) || (isinf(r) && isfinite(x));
}

/* Record addr for memory step m; 0 when its buffer is full. */
static int record(Run *s, i64 m, i64 addr)
{
    if (!s->collect)
        return 1;
    i64 n = s->addr_n[m];
    if (n == s->addr_cap[m])
        return 0;
    if (n == 0)
        s->order[s->order_n++] = m;
    s->addr[m][n] = addr;
    s->addr_n[m] = n + 1;
    return 1;
}

/* Enter block b: record it, count its instructions; 0 past the limit. */
static int enter(Run *s, i64 b, i64 *pc)
{
    const i64 *blk = s->blocks + b * BLOCK_WORDS;
    if (s->collect)
        s->path[s->path_n++] = blk[0];
    s->steps += blk[1];
    *pc = blk[2];
    return s->steps <= s->limit;
}

i64 interp_run(Run *s)
{
    const i64 *code = s->code;
    i64 *ri = s->ri;
    double *rf = s->rf;
    i64 pc = s->pc;
    const i64 *w;
    void *p;
    const i64 *g;
    i64 edge;

#define I(k) ri[w[k]]
#define F(k) rf[w[k]]
#define STOP(code) do { s->pc = pc; return (code); } while (0)
#define DELEGATE() STOP(R_DELEGATE)
#define RECORD(addr) do { if (!record(s, w[4], (addr))) { \
        s->grow = w[4]; STOP(R_FULL); } } while (0)
#define ADDRESS(addr) do { g = segment(s, w[4], (addr)); \
        if (!g || !(p = element(g, (addr)))) DELEGATE(); } while (0)

    if (pc < 0) {
        if (!enter(s, -1 - pc, &pc))
            STOP(R_LIMIT);
    }
    for (;;) {
        w = code + pc * STEP_WORDS;
        switch (w[0]) {
        case OP_ADD: I(1) = (i64)((u64)I(2) + (u64)I(3)); break;
        case OP_SUB: I(1) = (i64)((u64)I(2) - (u64)I(3)); break;
        case OP_MUL: I(1) = (i64)((u64)I(2) * (u64)I(3)); break;
        case OP_SDIV:
            if (I(3) == 0) DELEGATE();
            I(1) = I(3) == -1 ? (i64)(0 - (u64)I(2)) : I(2) / I(3);
            break;
        case OP_SREM:
            if (I(3) == 0) DELEGATE();
            I(1) = I(3) == -1 ? 0 : I(2) % I(3);
            break;
        case OP_AND: I(1) = I(2) & I(3); break;
        case OP_OR: I(1) = I(2) | I(3); break;
        case OP_XOR: I(1) = I(2) ^ I(3); break;
        case OP_SHL: I(1) = (i64)((u64)I(2) << (I(3) & 63)); break;
        case OP_LSHR: I(1) = (i64)((u64)I(2) >> (I(3) & 63)); break;
        case OP_ASHR: I(1) = I(2) >> (I(3) & 63); break;
        case OP_FADD: F(1) = F(2) + F(3); break;
        case OP_FSUB: F(1) = F(2) - F(3); break;
        case OP_FMUL: F(1) = F(2) * F(3); break;
        case OP_FDIV:
            if (F(3) == 0.0) DELEGATE();
            F(1) = F(2) / F(3);
            break;
        case OP_IEQ: I(1) = I(2) == I(3); break;
        case OP_INE: I(1) = I(2) != I(3); break;
        case OP_ISLT: I(1) = I(2) < I(3); break;
        case OP_ISLE: I(1) = I(2) <= I(3); break;
        case OP_ISGT: I(1) = I(2) > I(3); break;
        case OP_ISGE: I(1) = I(2) >= I(3); break;
#define FCMP(op) I(1) = !isnan(F(2)) && !isnan(F(3)) && F(2) op F(3); break
        case OP_FOEQ: FCMP(==);
        case OP_FONE: FCMP(!=);
        case OP_FOLT: FCMP(<);
        case OP_FOLE: FCMP(<=);
        case OP_FOGT: FCMP(>);
        case OP_FOGE: FCMP(>=);
        case OP_GEP: {
            i64 offset, address;
            if (__builtin_mul_overflow(I(3), w[5], &offset)
                    || __builtin_add_overflow(I(2), offset, &address))
                DELEGATE();
            I(1) = address;
            break;
        }
        case OP_LOAD_I: {
            i64 value;
            RECORD(I(2));
            ADDRESS(I(2));
            if (!load_i(g, p, &value)) DELEGATE();
            I(1) = value;
            break;
        }
        case OP_LOAD_F:
            RECORD(I(2));
            ADDRESS(I(2));
            F(1) = load_f(g, p);
            break;
        case OP_STORE_I:
            RECORD(I(2));
            ADDRESS(I(2));
            if (!store_i(g, p, I(3))) DELEGATE();
            break;
        case OP_STORE_F:
            RECORD(I(2));
            ADDRESS(I(2));
            if (!store_f(g, p, F(3))) DELEGATE();
            break;
        case OP_ATOMIC_I: {
            i64 old, v = I(3), value;
            RECORD(I(2));
            ADDRESS(I(2));
            if (!load_i(g, p, &old)) DELEGATE();
            switch (w[5]) {
            case AT_ADD: value = (i64)((u64)old + (u64)v); break;
            case AT_SUB: value = (i64)((u64)old - (u64)v); break;
            case AT_MIN: value = v < old ? v : old; break;   /* min(old, v) */
            case AT_MAX: value = v > old ? v : old; break;   /* max(old, v) */
            default: value = v;
            }
            if (!store_i(g, p, value)) DELEGATE();
            I(1) = old;
            break;
        }
        case OP_ATOMIC_F: {
            double old, v = F(3), value;
            RECORD(I(2));
            ADDRESS(I(2));
            old = load_f(g, p);
            switch (w[5]) {
            case AT_ADD: value = old + v; break;
            case AT_SUB: value = old - v; break;
            case AT_MIN: value = v < old ? v : old; break;
            case AT_MAX: value = v > old ? v : old; break;
            default: value = v;
            }
            if (!store_f(g, p, value)) DELEGATE();
            F(1) = old;
            break;
        }
        case OP_SELECT_I: I(1) = I(2) ? I(3) : ri[w[4]]; break;
        case OP_SELECT_F: F(1) = I(2) ? F(3) : rf[w[4]]; break;
        case OP_MOV_I: I(1) = I(2); break;
        case OP_MOV_F: F(1) = F(2); break;
        case OP_TRUNC:
            switch (w[5]) {
            case 1: I(1) = I(2) & 1; break;
            case 8: I(1) = (int8_t)I(2); break;
            case 16: I(1) = (int16_t)I(2); break;
            case 32: I(1) = (int32_t)I(2); break;
            default: I(1) = I(2);
            }
            break;
        case OP_I2F: F(1) = (double)I(2); break;
        case OP_F2I: {
            i64 value;
            if (!to_i64(F(2), &value)) DELEGATE();
            I(1) = value;
            break;
        }
#define MATH(fn) { double r = fn(F(2)); \
            if (math_error(F(2), r)) DELEGATE(); F(1) = r; break; }
        case OP_SQRT: MATH(sqrt)
        case OP_EXP: MATH(exp)
        case OP_LOG: MATH(log)
        case OP_SIN: MATH(sin)
        case OP_COS: MATH(cos)
        case OP_FABS: F(1) = fabs(F(2)); break;
        case OP_FLOOR: {
            /* float(math.floor(x)): an int in between, so no -0.0 */
            double r;
            if (!isfinite(F(2))) DELEGATE();
            r = floor(F(2));
            F(1) = r == 0.0 ? 0.0 : r;
            break;
        }
        case OP_RSQRT:
            if (F(2) <= 0.0) DELEGATE();
            F(1) = 1.0 / sqrt(F(2));
            break;
        case OP_TILE_ID: I(1) = s->tile; break;
        case OP_NUM_TILES: I(1) = s->ntiles; break;
        case OP_BARRIER:
            pc++;
            STOP(R_BARRIER);
        case OP_BR:
            edge = w[2];
            goto take;
        case OP_CBR:
            edge = I(2) ? w[3] : w[4];
            goto take;
        default:  /* OP_RET: Python reads the value off the plan */
            STOP(R_DONE);
        }
        pc++;
        continue;
    take:
        if (s->collect && s->path_n == s->path_cap) {
            s->grow = -1;
            STOP(R_FULL);
        }
        {
            const i64 *e = s->edges + edge * EDGE_WORDS;
            const i64 *c = s->copies + e[1] * COPY_WORDS;
            i64 n = e[2], k;
            /* parallel copy: read every source before writing */
            for (k = 0; k < n; k++) {
                const i64 *copy = c + k * COPY_WORDS;
                if (copy[0])
                    __builtin_memcpy(&s->stage[k], &rf[copy[2]], 8);
                else
                    s->stage[k] = ri[copy[2]];
            }
            for (k = 0; k < n; k++) {
                const i64 *copy = c + k * COPY_WORDS;
                if (copy[0])
                    __builtin_memcpy(&rf[copy[1]], &s->stage[k], 8);
                else
                    ri[copy[1]] = s->stage[k];
            }
            if (!enter(s, e[0], &pc))
                STOP(R_LIMIT);
        }
    }
}
