/* The residual coder's payload loops in C: a second implementation of
 * fbv.residual's _binarize + fbv.entropy.encode_bins and of
 * fbv.residual.decode_levels, bin for bin (see the normative coder
 * description in fbv/entropy.py). The Python stays the reference; the
 * parity tests hold the two to the same bytes, levels and errors.
 *
 *   encode_levels(signed, blocks, top) -> bytes
 *   decode_levels(data, blocks, top) -> bytes
 *
 * signed is a C-contiguous int64 buffer of a payload's signed zigzag levels
 * in coding order: patch by patch, plane by plane, blocks[p] blocks of 64
 * per plane of patch p. decode_levels returns those levels as native int64
 * bytes. Each payload's loop runs without the GIL.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define RANGE_MIN (1u << 24)
#define PROB_BITS 11
#define HALVE_AT (1u << 14)
#define MAX_EG0_PREFIX 40

/* context layout, as fbv.residual's */
#define CTX_ZERO_BLOCK 0
#define CTX_SIG 2
#define CTX_LAST 18
#define CTX_SIGN 26
#define CTX_MAG_PREFIX 28
#define CTX_ESC_PREFIX 36
#define NUM_CONTEXTS 42

static PyObject *EntropyDecodeError;

/* band group per zigzag position: DC, low, mid, high */
static int band_group(int i) { return i == 0 ? 0 : i < 6 ? 1 : i < 21 ? 2 : 3; }

/* ---- encoder ---------------------------------------------------------- */

typedef struct {
    uint64_t low, rng, cache_size;
    unsigned cache;
    uint32_t c0[NUM_CONTEXTS], c1[NUM_CONTEXTS];
    unsigned char *out;
    size_t len, cap;
    int nomem;
} Enc;

static void put_byte(Enc *e, unsigned b) {
    if (e->len == e->cap) {
        size_t cap = e->cap ? 2 * e->cap : 4096;
        unsigned char *out = PyMem_RawRealloc(e->out, cap);
        if (!out) { e->nomem = 1; return; }
        e->out = out;
        e->cap = cap;
    }
    e->out[e->len++] = (unsigned char)b;
}

static void shift_low(Enc *e) {
    if (e->low < 0xFF000000u || e->low >= (1ull << 32)) {
        unsigned carry = (unsigned)(e->low >> 32);
        put_byte(e, (e->cache + carry) & 0xFF);
        for (uint64_t i = 1; i < e->cache_size; i++)
            put_byte(e, (0xFF + carry) & 0xFF);
        e->cache = (unsigned)(e->low >> 24) & 0xFF;
        e->cache_size = 1;
    } else {
        e->cache_size++;
    }
    e->low = (e->low << 8) & 0xFFFFFFFFu;
}

static void enc_bin(Enc *e, int ctx, int bit) {
    uint32_t n0 = e->c0[ctx], n1 = e->c1[ctx], t = n0 + n1;
    uint64_t p0 = ((uint64_t)n0 << PROB_BITS) / t;
    uint64_t bound = (e->rng >> PROB_BITS) * (p0 ? p0 : 1);
    if (bit) {
        e->low += bound;
        e->rng -= bound;
        e->c1[ctx] = n1 + 1;
    } else {
        e->rng = bound;
        e->c0[ctx] = n0 + 1;
    }
    if (t + 1 >= HALVE_AT) {
        e->c0[ctx] = (e->c0[ctx] + 1) >> 1;
        e->c1[ctx] = (e->c1[ctx] + 1) >> 1;
    }
    while (e->rng < RANGE_MIN) {
        shift_low(e);
        e->rng <<= 8;
    }
}

/* value >= 0 as order-0 exp-Golomb: bin i of the prefix under
 * prefix + min(i, last), then the suffix under suffix, most significant first */
static void enc_eg0(Enc *e, uint64_t value, int prefix, int suffix, int last) {
    uint64_t n = value + 1;
    int k = 63 - __builtin_clzll(n);
    for (int i = 0; i < k; i++)
        enc_bin(e, prefix + (i < last ? i : last), 1);
    enc_bin(e, prefix + (k < last ? k : last), 0);
    for (int i = k - 1; i >= 0; i--)
        enc_bin(e, suffix, (int)((n >> i) & 1));
}

static void enc_block(Enc *e, const int64_t *lev, int cc, uint64_t top) {
    int last = 63;
    while (last >= 0 && !lev[last])
        last--;
    enc_bin(e, CTX_ZERO_BLOCK + cc, last < 0);
    if (last < 0)
        return;
    int prev = 0;
    for (int i = 0; i <= last; i++) {
        int g = band_group(i);
        enc_bin(e, CTX_SIG + cc * 8 + g * 2 + prev, lev[i] != 0);
        prev = lev[i] != 0;
        if (!prev)
            continue;
        enc_bin(e, CTX_SIGN + cc, lev[i] < 0);
        uint64_t mag = lev[i] < 0 ? 0 - (uint64_t)lev[i] : (uint64_t)lev[i];
        uint64_t c = mag < top ? mag : top;
        if (top > 1)
            enc_eg0(e, c - 1, CTX_MAG_PREFIX + cc * 4, CTX_MAG_PREFIX + cc * 4 + 3, 2);
        if (c == top)
            enc_eg0(e, mag - top, CTX_ESC_PREFIX + cc * 3, CTX_ESC_PREFIX + cc * 3 + 2, 1);
        if (i < 63)
            enc_bin(e, CTX_LAST + cc * 4 + g, i == last);
    }
}

/* ---- decoder ---------------------------------------------------------- */

enum { OK, TRUNCATED, TERMINATION, PREFIX, MAGNITUDE, EMPTY, NOMEM };

static const char *const MESSAGES[] = {
    NULL,
    "payload truncated mid-symbol",
    "termination check failed: payload corrupt",
    "exp-Golomb prefix overrun: payload corrupt",
    "magnitude exceeds center range",
    "non-zero block decoded with no coefficients",
};

typedef struct {
    const unsigned char *data;
    Py_ssize_t len, pos;
    uint64_t code, rng;
    uint32_t c0[NUM_CONTEXTS], c1[NUM_CONTEXTS];
    int err;
} Dec;

static int renormalize(Dec *d) {
    while (d->rng < RANGE_MIN) {
        if (d->pos >= d->len) {
            d->err = TRUNCATED;
            return -1;
        }
        d->code = ((d->code << 8) | d->data[d->pos++]) & 0xFFFFFFFFu;
        d->rng <<= 8;
    }
    return 0;
}

/* the next bin, coded under ctx, or -1 with d->err set */
static int dec_bin(Dec *d, int ctx) {
    uint32_t n0 = d->c0[ctx], n1 = d->c1[ctx], t = n0 + n1;
    uint64_t p0 = ((uint64_t)n0 << PROB_BITS) / t;
    uint64_t bound = (d->rng >> PROB_BITS) * (p0 ? p0 : 1);
    int bit;
    if (d->code < bound) {
        bit = 0;
        d->rng = bound;
        d->c0[ctx] = n0 + 1;
    } else {
        bit = 1;
        d->code -= bound;
        d->rng -= bound;
        d->c1[ctx] = n1 + 1;
    }
    if (t + 1 >= HALVE_AT) {
        d->c0[ctx] = (d->c0[ctx] + 1) >> 1;
        d->c1[ctx] = (d->c1[ctx] + 1) >> 1;
    }
    return renormalize(d) ? -1 : bit;
}

/* an order-0 exp-Golomb value plus one (see enc_eg0), or -1 with d->err set */
static int64_t dec_eg0(Dec *d, int prefix, int suffix, int last) {
    int k = 0, bit;
    while ((bit = dec_bin(d, prefix + (k < last ? k : last))) == 1) {
        if (++k > MAX_EG0_PREFIX) {
            d->err = PREFIX;
            return -1;
        }
    }
    if (bit < 0)
        return -1;
    int64_t n = 1;
    for (int i = 0; i < k; i++) {
        if ((bit = dec_bin(d, suffix)) < 0)
            return -1;
        n = (n << 1) | bit;
    }
    return n;
}

/* one block's 64 levels into out, which is zero on entry */
static int dec_block(Dec *d, int64_t *out, int cc, int64_t top) {
    int bit = dec_bin(d, CTX_ZERO_BLOCK + cc);
    if (bit)
        return bit < 0 ? -1 : 0;
    int prev = 0, any = 0;
    for (int i = 0; i < 64; i++) {
        int g = band_group(i);
        if ((prev = dec_bin(d, CTX_SIG + cc * 8 + g * 2 + prev)) < 0)
            return -1;
        if (!prev) {
            if (i == 63 && !any) {
                d->err = EMPTY;
                return -1;
            }
            continue;
        }
        any = 1;
        int neg = dec_bin(d, CTX_SIGN + cc);
        if (neg < 0)
            return -1;
        int64_t c = 1;
        if (top > 1) {
            if ((c = dec_eg0(d, CTX_MAG_PREFIX + cc * 4, CTX_MAG_PREFIX + cc * 4 + 3, 2)) < 0)
                return -1;
            if (c > top) {
                d->err = MAGNITUDE;
                return -1;
            }
        }
        if (c == top) {
            int64_t n = dec_eg0(d, CTX_ESC_PREFIX + cc * 3, CTX_ESC_PREFIX + cc * 3 + 2, 1);
            if (n < 0)
                return -1;
            c = top + n - 1;
        }
        out[i] = neg ? -c : c;
        if (i == 63)
            break;
        if ((bit = dec_bin(d, CTX_LAST + cc * 4 + g)) < 0)
            return -1;
        if (bit)
            break;
    }
    return 0;
}

static int check_termination(Dec *d) {
    for (int i = 0; i < 16; i++) {
        d->rng >>= 1;
        if (d->code >= d->rng) {
            d->err = TERMINATION;
            return -1;
        }
        if (renormalize(d))
            return -1;
    }
    return 0;
}

/* ---- arguments -------------------------------------------------------- */

/* blocks as a PyMem array of *n counts, their total in *total; NULL on error */
static int64_t *block_counts(PyObject *blocks, Py_ssize_t *n, int64_t *total) {
    PyObject *seq = PySequence_Fast(blocks, "blocks must be a sequence");
    if (!seq)
        return NULL;
    *n = PySequence_Fast_GET_SIZE(seq);
    int64_t *counts = PyMem_Malloc((*n ? *n : 1) * sizeof(int64_t));
    if (!counts) {
        Py_DECREF(seq);
        PyErr_NoMemory();
        return NULL;
    }
    *total = 0;
    for (Py_ssize_t i = 0; i < *n; i++) {
        long long v = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(seq, i));
        if (v == -1 && PyErr_Occurred())
            goto fail;
        if (v < 0 || v > (INT64_MAX / (192 * 8) - *total)) {
            PyErr_SetString(PyExc_ValueError, "block counts must be >= 0 and fit int64");
            goto fail;
        }
        counts[i] = v;
        *total += v;
    }
    Py_DECREF(seq);
    return counts;
fail:
    Py_DECREF(seq);
    PyMem_Free(counts);
    return NULL;
}

static int check_top(long long top) {
    if (top < 1) {
        PyErr_SetString(PyExc_ValueError, "top center must be >= 1");
        return -1;
    }
    return 0;
}

/* ---- entry points ----------------------------------------------------- */

static PyObject *encode_levels(PyObject *self, PyObject *args) {
    Py_buffer view;
    PyObject *blocks, *result = NULL;
    long long top;
    if (!PyArg_ParseTuple(args, "y*OL", &view, &blocks, &top))
        return NULL;
    Py_ssize_t n;
    int64_t total;
    int64_t *counts = NULL;
    if (check_top(top) || !(counts = block_counts(blocks, &n, &total)))
        goto done;
    if (view.len != total * 192 * (Py_ssize_t)sizeof(int64_t)) {
        PyErr_Format(PyExc_ValueError, "%zd bytes of levels for %lld blocks",
                     view.len, (long long)total * 3);
        goto done;
    }
    Enc e = {.low = 0, .rng = 0xFFFFFFFFu, .cache = 0, .cache_size = 1};
    for (int i = 0; i < NUM_CONTEXTS; i++)
        e.c0[i] = e.c1[i] = 1;
    const int64_t *lev = view.buf;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t p = 0; p < n; p++)
        for (int ch = 0; ch < 3; ch++)
            for (int64_t b = 0; b < counts[p]; b++, lev += 64)
                enc_block(&e, lev, ch ? 1 : 0, (uint64_t)top);
    for (int i = 0; i < 16; i++) {
        e.rng >>= 1;
        while (e.rng < RANGE_MIN) {
            shift_low(&e);
            e.rng <<= 8;
        }
    }
    for (int i = 0; i < 5; i++)
        shift_low(&e);
    Py_END_ALLOW_THREADS
    if (e.nomem)
        PyErr_NoMemory();
    else
        result = PyBytes_FromStringAndSize((const char *)e.out, (Py_ssize_t)e.len);
    PyMem_RawFree(e.out);
done:
    PyMem_Free(counts);
    PyBuffer_Release(&view);
    return result;
}

static PyObject *decode_levels(PyObject *self, PyObject *args) {
    Py_buffer view;
    PyObject *blocks, *result = NULL;
    long long top;
    if (!PyArg_ParseTuple(args, "y*OL", &view, &blocks, &top))
        return NULL;
    Py_ssize_t n;
    int64_t total;
    int64_t *counts = NULL;
    if (check_top(top) || !(counts = block_counts(blocks, &n, &total)))
        goto done;
    if (view.len < 5) {
        PyErr_SetString(EntropyDecodeError, "payload shorter than coder preamble");
        goto done;
    }
    Dec d = {.data = view.buf, .len = view.len, .pos = 5, .rng = 0xFFFFFFFFu, .err = OK};
    for (int i = 1; i < 5; i++)
        d.code = (d.code << 8) | d.data[i];
    for (int i = 0; i < NUM_CONTEXTS; i++)
        d.c0[i] = d.c1[i] = 1;
    /* the output grows with the blocks decoded, never with what blocks claims */
    int64_t *out = NULL;
    size_t len = 0, cap = 0;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t p = 0; p < n && !d.err; p++)
        for (int ch = 0; ch < 3 && !d.err; ch++)
            for (int64_t b = 0; b < counts[p]; b++, len += 64) {
                if (len == cap) {
                    size_t grown = cap ? 2 * cap : 64 * 64;
                    int64_t *more = PyMem_RawRealloc(out, grown * sizeof(int64_t));
                    if (!more) {
                        d.err = NOMEM;
                        break;
                    }
                    out = more;
                    cap = grown;
                }
                memset(out + len, 0, 64 * sizeof(int64_t));
                if (dec_block(&d, out + len, ch ? 1 : 0, top))
                    break;
            }
    if (!d.err)
        check_termination(&d);
    Py_END_ALLOW_THREADS
    if (d.err == NOMEM)
        PyErr_NoMemory();
    else if (d.err)
        PyErr_SetString(EntropyDecodeError, MESSAGES[d.err]);
    else
        result = PyBytes_FromStringAndSize((const char *)out, (Py_ssize_t)(len * sizeof(int64_t)));
    PyMem_RawFree(out);
done:
    PyMem_Free(counts);
    PyBuffer_Release(&view);
    return result;
}

static PyMethodDef methods[] = {
    {"encode_levels", encode_levels, METH_VARARGS,
     "encode_levels(signed, blocks, top) -> bytes: a residual payload's int64 "
     "signed zigzag levels, binarized and range coded"},
    {"decode_levels", decode_levels, METH_VARARGS,
     "decode_levels(data, blocks, top) -> bytes: the payload's levels as native int64"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_rc", NULL, -1, methods, NULL, NULL, NULL, NULL};

PyMODINIT_FUNC PyInit__rc(void) {
    PyObject *entropy = PyImport_ImportModule("fbv.entropy");
    if (!entropy)
        return NULL;
    EntropyDecodeError = PyObject_GetAttrString(entropy, "EntropyDecodeError");
    Py_DECREF(entropy);
    if (!EntropyDecodeError)
        return NULL;
    return PyModule_Create(&module);
}
