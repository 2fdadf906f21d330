/* Randomized Kaczmarz solve kernel, row sampler and text-table writer
 * and reader, built and loaded by noisyrk.linalg through ctypes.
 *
 * Row draws.  Row i is drawn with probability w_i / total by inverse CDF
 * over the prefix sums cum[0..m-1] (cum[m-1] == total): a uniform u in
 * [0, 1) picks the first row with cum[i] > u * total, which is numpy's
 * searchsorted(cum, u * total, "right").  A guide table makes that a short
 * walk (Devroye 1986, sec. III.2): with G the smallest power of two >= m,
 * guide[k] is the first row with cum[i] > (k / G) * total.  A draw starts
 * at guide[(int64)(u * G)] and advances while cum[i] <= u * total.  As G
 * is a power of two, u * G and k / G are exact, and rounded products are
 * monotone, so the start never passes the answer.  When u * total rounds
 * up to total the walk runs past row m - 1 and the draw falls back to
 * `last`, the last row of positive weight.  rk_sample and rk_solve share
 * this one resolver.
 *
 * Steps.  rk_solve advances each of `trials` iterates (the rows of the
 * C-contiguous trials x n block `x`) through ks[nks - 1] projections.
 * Trial t draws its uniforms from its own numpy bit generator rng[t],
 * one next_double(state) call per step.  That is the call through which
 * numpy's Generator.random() fills its output, so the trial sees the
 * uniforms Generator.random(ks[nks - 1]) would return and leaves its
 * stream exactly ks[nks - 1] draws on.  At each step the uniform picks
 * row i of the m x n matrix `a` and the trial projects onto it:
 *
 *     x_t <- x_t - (a_i . x_t - b_i) / w_i * a_i,     w_i = ||a_i||^2
 *
 * The record grid rises strictly from ks[0] == 0 (the caller checks it).
 * After step ks[r], r >= 1, the squared error ||x_t - x_ls||^2 goes to
 * err[t * nks + r]; column 0 is left to the caller.  A trial draws the
 * row of step s + 1 before it updates x_t at step s, so one pass over
 * x_t writes the update and sums the next row's dot product with it
 * (project_dot); the draws keep their order and their count.  The
 * generators are used without numpy's lock, so no other thread may draw
 * from them while the kernel runs.
 *
 * Summation order.  The dot product and the squared error each sum into
 * four accumulators, term j into s[j mod 4], so four add chains run side
 * by side instead of one (Higham 2002, ch. 4).  The n mod 4 trailing
 * terms go into s0, and the result is (s0 + s1) + (s2 + s3).  The order
 * is written out here and built with -ffp-contract=off and without
 * -ffast-math, so it is the same on every host.  The trials are
 * independent, so a trial's result does not depend on the other trials.
 *
 * Lanes.  The accumulators are two vectors of two doubles, (s0, s1) and
 * (s2, s3), in gcc's generic vector_size(16) type: SSE2 on x86-64, NEON
 * on aarch64, both part of the base instruction set, so no -march flag
 * is needed.  Each lane adds the same terms in the same order as the
 * scalar s[j mod 4], so the sums are the scalar ones bit for bit.  The
 * update x_t -= c * a_i runs in the same two lanes, entry by entry as the
 * scalar update did, and the n mod 4 trailing entries one at a time.
 * Vectors are loaded and stored through __builtin_memcpy, so no alignment
 * is assumed, and none is passed to or returned from a function, which
 * gcc would flag as an ABI change (-Wpsabi).
 *
 * Text tables.  rk_write_table writes a header line, then each row of a
 * C-contiguous rows x cols block with every value as %.17g (17
 * significant digits: every float64 reads back exactly), values joined by
 * one delimiter and each row ended by one newline.  Those are the bytes
 * of numpy's savetxt(fmt="%.17g", header=..., comments=""), NaN printed
 * as "nan" whatever its sign bit, as Python prints it.  rk_read_table
 * reads that layout back from a byte offset past the header: one
 * space between values, trailing whitespace and CRLF allowed, blank
 * lines only after the last row, every token strtod reads up to a space
 * or the line end (so "+1", ".5" and "1E5" too).  Both run under the "C"
 * numeric locale, restored on return, so the decimal point is '.'
 * whatever the host's locale.  Each returns 0, an errno value, or (the
 * reader) one of the negative TABLE_* codes with the 1-based line in *line.
 *
 * Fast conversions.  Each direction has a fast path that decides the easy
 * cases exactly and hands every other case to glibc (the usual scheme of
 * Loitsch, PLDI 2010, and Lemire, SPE 2021), so the bytes written and the
 * values read are glibc's.  Both scale by tens[], the powers 10^j for
 * j in [TEN_MIN, TEN_MAX] as 128-bit mantissas truncated from the exact
 * integers, built at load.  The writer forms m * 10^k for the 53-bit
 * significand m as a 192-bit product whose integer part holds the 17
 * digits and whose next 64 bits hold the fraction; the reader forms
 * w * 10^e for at most 19 digits w and keeps the top 53 bits.  The
 * truncation and the dropped low bits leave the true value within two
 * units of those 64 (writer) or 128 (reader) bits above the computed one,
 * so rounding is decided exactly unless the bits below the rounding
 * point lie within ROUND_SLACK units of one half, which covers every
 * exact tie.  Those values go to snprintf("%.17g") or strtod, as do
 * infinities, a token outside the grammar [-]d+[.d*][e[+-]d+] (such as
 * "+1", ".5", "1E5", "inf" or 20 significant digits), an exponent
 * outside the table, and a value read that would be subnormal or overflow.
 */
#define _POSIX_C_SOURCE 200809L
#include <ctype.h>
#include <errno.h>
#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

static inline int64_t resolve(double u, int64_t m, const double *cum, double total,
                              const int64_t *guide, int64_t g, int64_t last)
{
    double target = u * total;
    int64_t i = guide[(int64_t)(u * (double)g)];
    while (i < m && cum[i] <= target)
        i++;
    return i < m ? i : last;
}

typedef double v2 __attribute__((vector_size(16)));

/* numpy/random/bitgen.h, the struct behind Generator.bit_generator.ctypes.bit_generator */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

static inline double dot4(const double *p, const double *q, int64_t n)
{
    v2 s01 = {0.0, 0.0}, s23 = {0.0, 0.0}, p01, p23, q01, q23;
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
        __builtin_memcpy(&p01, p + j, sizeof p01);
        __builtin_memcpy(&p23, p + j + 2, sizeof p23);
        __builtin_memcpy(&q01, q + j, sizeof q01);
        __builtin_memcpy(&q23, q + j + 2, sizeof q23);
        s01 += p01 * q01;
        s23 += p23 * q23;
    }
    double s0 = s01[0];
    for (; j < n; j++)
        s0 += p[j] * q[j];
    return (s0 + s01[1]) + (s23[0] + s23[1]);
}

/* ||p - q||^2 in the order of dot4 */
static inline double dist4(const double *p, const double *q, int64_t n)
{
    v2 s01 = {0.0, 0.0}, s23 = {0.0, 0.0}, p01, p23, q01, q23;
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
        __builtin_memcpy(&p01, p + j, sizeof p01);
        __builtin_memcpy(&p23, p + j + 2, sizeof p23);
        __builtin_memcpy(&q01, q + j, sizeof q01);
        __builtin_memcpy(&q23, q + j + 2, sizeof q23);
        p01 -= q01;
        p23 -= q23;
        s01 += p01 * p01;
        s23 += p23 * p23;
    }
    double s0 = s01[0], d;
    for (; j < n; j++) {
        d = p[j] - q[j];
        s0 += d * d;
    }
    return (s0 + s01[1]) + (s23[0] + s23[1]);
}

/* x -= c * row, then next . x in the order of dot4 */
static inline double project_dot(double *x, const double *row, double c, const double *next, int64_t n)
{
    const v2 cc = {c, c};
    v2 s01 = {0.0, 0.0}, s23 = {0.0, 0.0}, x01, x23, r01, r23, n01, n23;
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
        __builtin_memcpy(&x01, x + j, sizeof x01);
        __builtin_memcpy(&x23, x + j + 2, sizeof x23);
        __builtin_memcpy(&r01, row + j, sizeof r01);
        __builtin_memcpy(&r23, row + j + 2, sizeof r23);
        __builtin_memcpy(&n01, next + j, sizeof n01);
        __builtin_memcpy(&n23, next + j + 2, sizeof n23);
        x01 -= cc * r01;
        x23 -= cc * r23;
        __builtin_memcpy(x + j, &x01, sizeof x01);
        __builtin_memcpy(x + j + 2, &x23, sizeof x23);
        s01 += n01 * x01;
        s23 += n23 * x23;
    }
    double s0 = s01[0];
    for (; j < n; j++) {
        x[j] -= c * row[j];
        s0 += next[j] * x[j];
    }
    return (s0 + s01[1]) + (s23[0] + s23[1]);
}

void rk_sample(int64_t count, const double *u, int64_t m, const double *cum, double total,
               const int64_t *guide, int64_t g, int64_t last, int64_t *idx)
{
    for (int64_t s = 0; s < count; s++)
        idx[s] = resolve(u[s], m, cum, total, guide, g, last);
}

/* Aligned to 64 bytes, so the hot loop's placement does not move with the
 * size of the library's preamble: 224 bytes off it ran about 15% slower
 * (ns per step at 100 x 50, timed interleaved in one process). */
__attribute__((aligned(64)))
void rk_solve(int64_t trials, int64_t n, const double *a, const double *b, const double *w,
              int64_t m, const double *cum, double total, const int64_t *guide, int64_t g, int64_t last,
              bitgen_t *const *rng, int64_t nks, const int64_t *ks, const double *x_ls, double *x, double *err)
{
    int64_t steps = ks[nks - 1];
    for (int64_t t = 0; t < trials; t++) {
        bitgen_t *gen = rng[t];
        double *xt = x + t * n;
        int64_t i = resolve(gen->next_double(gen->state), m, cum, total, guide, g, last);
        const double *row = a + i * n;
        double dot = dot4(row, xt, n);
        for (int64_t r = 1, s = 0; r < nks; r++) {
            for (; s < ks[r]; s++) {
                int64_t k = i;
                const double *next = row;
                if (s + 1 < steps) {
                    k = resolve(gen->next_double(gen->state), m, cum, total, guide, g, last);
                    next = a + k * n;
                }
                dot = project_dot(xt, row, (dot - b[i]) / w[i], next, n);
                i = k;
                row = next;
            }
            err[t * nks + r] = dist4(xt, x_ls, n);
        }
    }
}

/* Switches this thread to the "C" numeric locale *c and returns the
 * locale to restore, or (locale_t)0 with errno set. */
static locale_t pin_c_locale(locale_t *c)
{
    locale_t old = (locale_t)0;
    *c = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
    if (*c != (locale_t)0 && (old = uselocale(*c)) == (locale_t)0)
        freelocale(*c);
    return old;
}

static void unpin_locale(locale_t old, locale_t c)
{
    uselocale(old);
    freelocale(c);
}

static int errno_or_eio(void)
{
    return errno ? errno : EIO;
}

typedef unsigned __int128 u128;

/* 10^j ~ (hi * 2^64 + lo) * 2^e, the mantissa in [2^127, 2^128) and
 * truncated.  The writer uses j in [-292, 340], from DBL_MAX down to the
 * smallest subnormal; the reader, 19 digits at most, reaches past the
 * subnormals. */
#define TEN_MIN (-343)
#define TEN_MAX 340
static struct ten {
    uint64_t hi, lo;
    int e;
} tens[TEN_MAX - TEN_MIN + 1];

/* 32-bit limbs, least significant first: 10^340 * 2^128 and 2^1280 fit */
#define LIMBS 42

/* the top 128 bits of x >= 2^127, whose bit 0 weighs 2^scale */
static void set_ten(const uint32_t *x, int scale, struct ten *t)
{
    int i = LIMBS - 1;
    while (x[i] == 0)
        i--;
    int b = 32 * i + 31 - __builtin_clz(x[i]);
    u128 v = 0;
    for (i = b; i > b - 128; i--)
        v = v << 1 | (x[i / 32] >> (i % 32) & 1);
    t->hi = (uint64_t)(v >> 64);
    t->lo = (uint64_t)v;
    t->e = b - 127 + scale;
}

/* From exact integers, so each entry is the truncation of the true power:
 * 10^j * 2^128 for j >= 0, and floor(2^1280 / 10^-j), which has at least
 * 140 bits, for j < 0. */
__attribute__((constructor)) static void build_tens(void)
{
    uint32_t x[LIMBS] = {0};
    x[128 / 32] = 1;
    for (int j = 0; j <= TEN_MAX; j++) {
        set_ten(x, -128, &tens[j - TEN_MIN]);
        uint64_t carry = 0;
        for (int i = 0; i < LIMBS; i++) {
            carry += (uint64_t)x[i] * 10;
            x[i] = (uint32_t)carry;
            carry >>= 32;
        }
    }
    memset(x, 0, sizeof x);
    x[1280 / 32] = 1;
    for (int j = -1; j >= TEN_MIN; j--) {
        uint64_t rem = 0;
        for (int i = LIMBS - 1; i >= 0; i--) {
            rem = rem << 32 | x[i];
            x[i] = (uint32_t)(rem / 10);
            rem %= 10;
        }
        set_ten(x, -1280, &tens[j - TEN_MIN]);
    }
}

/* The top 128 bits of the 192-bit m * tens[j]. */
static inline u128 scale_ten(uint64_t m, int j, int *e)
{
    const struct ten *t = &tens[j - TEN_MIN];
    u128 lo = (u128)m * t->lo, hi = (u128)m * t->hi;
    *e = t->e + 64;
    return hi + (lo >> 64);
}

/* Rounding bits this close to one half go to glibc.  The computed bits
 * lie at most two units below the true ones, so 4 leaves a margin. */
#define ROUND_SLACK 4
#define HALF64 ((uint64_t)1 << 63)
#define E16 10000000000000000ull
#define E17 100000000000000000ull
#define MAX17 sizeof "-1.2345678901234567e-308"

/* floor(v) and the top 64 bits of its fraction, for v = m * 2^q * 10^k,
 * m in [2^63, 2^64) and v in [10^16, 10^18), so u is in [3, 10].  Both
 * come from the truncated tens[]: they lie at most two units of the
 * fraction below the true ones. */
static inline uint64_t scaled(uint64_t m, int q, int k, uint64_t *frac)
{
    int e;
    u128 top = scale_ten(m, k, &e);
    int u = -(q + e) - 64;
    *frac = (uint64_t)(top >> u);
    return (uint64_t)(top >> (u + 64));
}

/* v as %.17g into s (at least MAX17 bytes, no terminating NUL); returns
 * the length */
static int format17(double v, char *s)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    uint64_t frac = bits & (((uint64_t)1 << 52) - 1);
    int be = (int)(bits >> 52 & 0x7ff);
    if (be == 0x7ff) {
        if (!isnan(v))
            return snprintf(s, MAX17, "%.17g", v);
        memcpy(s, "nan", 3);
        return 3;
    }
    char *p = s;
    if (bits >> 63)
        *p++ = '-';
    if (be == 0 && frac == 0) {
        *p++ = '0';
        return (int)(p - s);
    }
    /* |v| = m * 2^q with m in [2^52, 2^53), subnormals normalized */
    int z = be ? 0 : __builtin_clzll(frac) - 11;
    uint64_t m = be ? frac | (uint64_t)1 << 52 : frac << z;
    int q = be ? be - 1075 : -1074 - z;
    /* x = floor(log10(2^(q + 52))) (exact over every float64 exponent),
     * the decimal exponent or one below it: then d, the 17 digits, is
     * below 10^17 or the retry with x + 1 makes it so */
    int x = ((q + 52) * 78913) >> 18;
    uint64_t f, d = scaled(m << 11, q - 11, 16 - x, &f);
    if (d >= E17)
        d = scaled(m << 11, q - 11, 16 - ++x, &f);
    if (f > HALF64 - ROUND_SLACK && f < HALF64 + ROUND_SLACK)
        return snprintf(s, MAX17, "%.17g", v);
    d += f >> 63;  /* to nearest: no tie is left */
    if (d == E17) {
        d = E16;
        x++;
    }
    char dig[17];
    int nd = 17;
    for (int i = 16; i >= 0; i--, d /= 10)
        dig[i] = (char)('0' + d % 10);
    while (dig[nd - 1] == '0')
        nd--;
    if (x < -4 || x >= 17) {
        *p++ = dig[0];
        if (nd > 1) {
            *p++ = '.';
            memcpy(p, dig + 1, nd - 1);
            p += nd - 1;
        }
        *p++ = 'e';
        *p++ = x < 0 ? '-' : '+';
        x = x < 0 ? -x : x;
        if (x >= 100)
            *p++ = (char)('0' + x / 100);
        *p++ = (char)('0' + x / 10 % 10);
        *p++ = (char)('0' + x % 10);
    } else if (x >= 0) {
        memcpy(p, dig, x + 1);
        p += x + 1;
        if (nd > x + 1) {
            *p++ = '.';
            memcpy(p, dig + x + 1, nd - x - 1);
            p += nd - x - 1;
        }
    } else {
        *p++ = '0';
        *p++ = '.';
        for (int i = -1; i > x; i--)
            *p++ = '0';
        memcpy(p, dig, nd);
        p += nd;
    }
    return (int)(p - s);
}

int rk_write_table(const char *path, const char *header, const double *v,
                   int64_t rows, int64_t cols, char delim)
{
    locale_t c, old = pin_c_locale(&c);
    if (old == (locale_t)0)
        return errno_or_eio();
    int err = 0;
    FILE *f = fopen(path, "w");
    if (f == NULL) {
        err = errno_or_eio();
    } else {
        /* the text goes out in blocks of buf, never the whole file at once */
        char buf[1 << 14];
        size_t n = 0;
        if (fprintf(f, "%s\n", header) < 0)
            err = errno_or_eio();
        for (int64_t r = 0; r < rows && !err; r++) {
            for (int64_t j = 0; j < cols; j++) {
                if (sizeof buf - n <= MAX17) {
                    if (fwrite(buf, 1, n, f) != n)
                        err = errno_or_eio();
                    n = 0;
                }
                n += (size_t)format17(*v++, buf + n);
                buf[n++] = j + 1 < cols ? delim : '\n';
            }
        }
        if (!err && fwrite(buf, 1, n, f) != n)
            err = errno_or_eio();
        if (fclose(f) != 0 && !err)
            err = errno_or_eio();
    }
    unpin_locale(old, c);
    return err;
}

enum {
    TABLE_FEWER = -1,    /* a row with fewer values than the header's cols */
    TABLE_MORE = -2,     /* a row with more values */
    TABLE_MISSING = -3,  /* the body ends before the header's rows */
    TABLE_AFTER = -4,    /* a non-blank line after the last row */
    TABLE_TOKEN = -5,    /* text strtod does not read up to a space or the end of the line */
    TABLE_HEX = -6,      /* a hexadecimal float: strtod reads it, the writer never prints one */
};

/* only whitespace from p to the end of the line */
static int blank(const char *p)
{
    while (isspace((unsigned char)*p))
        p++;
    return *p == '\0';
}

#define DIGIT(ch) ((unsigned)((ch) - '0') < 10)

/* The token at p if it is [-]d+[.d*][e[+-]d+] with at most 19 significant
 * digits, ends at whitespace or NUL, and reads as a normal float64 not
 * within ROUND_SLACK of a tie: the value into *out and the end returned.
 * NULL for anything else, which strtod then reads. */
static const char *read_fast(const char *p, double *out)
{
    int neg = *p == '-', nd = 0, e10 = 0;
    uint64_t w = 0;
    p += neg;
    const char *start = p;
    for (; DIGIT(*p); p++) {
        if ((w || *p != '0') && ++nd > 19)
            return NULL;
        w = w * 10 + (uint64_t)(*p - '0');
    }
    if (p == start)
        return NULL;
    if (*p == '.')
        for (p++; DIGIT(*p); p++, e10--) {
            if ((w || *p != '0') && ++nd > 19)
                return NULL;
            w = w * 10 + (uint64_t)(*p - '0');
        }
    if (*p == 'e') {
        int eneg = *++p == '-', ex = 0;
        p += *p == '-' || *p == '+';
        if (!DIGIT(*p))
            return NULL;
        for (; DIGIT(*p); p++)
            if (ex < 100000)
                ex = ex * 10 + (*p - '0');
        e10 += eneg ? -ex : ex;
    }
    if (*p != '\0' && !isspace((unsigned char)*p))
        return NULL;
    if (w == 0) {
        *out = neg ? -0.0 : 0.0;
        return p;
    }
    if (e10 < TEN_MIN || e10 > TEN_MAX)
        return NULL;
    /* w * 10^e10 ~ top * 2^e with top in [2^126, 2^128) */
    int s = __builtin_clzll(w), e;
    u128 top = scale_ten(w << s, e10, &e);
    int lz = !(top >> 127), cut = 75 - lz;  /* top's bits below the 53 kept */
    u128 low = top & (((u128)1 << cut) - 1), half = (u128)1 << (cut - 1);
    if (low > half - ROUND_SLACK && low < half + ROUND_SLACK)
        return NULL;
    uint64_t mant = (uint64_t)(top >> cut);
    int be = 52 + cut + e - s + 1023;  /* biased exponent of mant * 2^(cut + e - s) */
    if (be < 1)
        return NULL;
    if ((mant += low > half) >> 53) {
        mant >>= 1;
        be++;
    }
    if (be > 2046)
        return NULL;
    uint64_t bits = (uint64_t)neg << 63 | (uint64_t)be << 52 | (mant & (((uint64_t)1 << 52) - 1));
    memcpy(out, &bits, sizeof bits);
    return p;
}

static int parse_row(const char *p, int64_t cols, double *out)
{
    for (int64_t j = 0; j < cols; j++) {
        if (blank(p))
            return TABLE_FEWER;
        if (j > 0)
            p++;  /* the space that ended the previous value */
        if (isspace((unsigned char)*p))
            return TABLE_TOKEN;
        const char *digits = p + (*p == '-' || *p == '+');
        if (digits[0] == '0' && (digits[1] == 'x' || digits[1] == 'X'))
            return TABLE_HEX;
        const char *end = read_fast(p, out + j);
        if (end == NULL) {
            char *e;
            out[j] = strtod(p, &e);
            end = e;
        }
        if (end == p || (*end != ' ' && !blank(end)))
            return TABLE_TOKEN;
        p = end;
    }
    return blank(p) ? 0 : TABLE_MORE;
}

int rk_read_table(const char *path, int64_t offset, int64_t rows, int64_t cols,
                  double *out, int64_t *line)
{
    locale_t c, old = pin_c_locale(&c);
    if (old == (locale_t)0)
        return errno_or_eio();
    int err = 0;
    char *buf = NULL;
    size_t cap = 0;
    ssize_t len;
    FILE *f = fopen(path, "r");
    if (f == NULL) {
        err = errno_or_eio();
    } else if (fseeko(f, (off_t)offset, SEEK_SET) != 0) {
        err = errno_or_eio();
    } else {
        *line = 1;  /* the header, read by the caller */
        for (int64_t r = 0; r < rows && !err; r++) {
            ++*line;
            if ((len = getline(&buf, &cap, f)) < 0)
                err = ferror(f) ? errno_or_eio() : TABLE_MISSING;
            else if ((size_t)len != strlen(buf))  /* a NUL byte inside the line */
                err = TABLE_TOKEN;
            else
                err = parse_row(buf, cols, out + r * cols);
        }
        while (!err && (len = getline(&buf, &cap, f)) >= 0) {
            ++*line;
            if ((size_t)len != strlen(buf) || !blank(buf))
                err = TABLE_AFTER;
        }
        if (!err && ferror(f))
            err = errno_or_eio();
    }
    if (f != NULL)
        fclose(f);
    free(buf);
    unpin_locale(old, c);
    return err;
}
