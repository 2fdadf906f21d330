/* Randomized Kaczmarz chunk kernel, row sampler and text-table writer
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
 * `last`, the last row of positive weight.  rk_sample and rk_chunk share
 * this one resolver.
 *
 * Steps.  rk_chunk advances each of `trials` iterates (the rows of the
 * C-contiguous trials x n block `x`) through `steps` projections.  At
 * step s trial t draws row i from u[t * steps + s] of the m x n matrix
 * `a` and projects onto it:
 *
 *     x_t <- x_t - (a_i . x_t - b_i) / w_i * a_i,     w_i = ||a_i||^2
 *
 * When col[s] >= 0 the squared error ||x_t - x_ls||^2 after step s goes
 * to err[t * ncols + col[s]].
 *
 * Summation order.  The dot product and the squared error each sum into
 * four accumulators, term j into s[j mod 4], so four add chains run side
 * by side instead of one (Higham 2002, ch. 4).  The n mod 4 trailing
 * terms go into s0, and the result is (s0 + s1) + (s2 + s3).  The order
 * is written out here and built with -ffp-contract=off and without
 * -ffast-math, so it is the same on every host.  The trials are
 * independent, so a trial's result does not depend on the other trials.
 *
 * Text tables.  rk_write_table writes a header line, then each row of a
 * C-contiguous rows x cols block with every value as %.17g (17
 * significant digits: every float64 reads back exactly), values joined by
 * one delimiter and each row ended by one newline.  Those are the bytes
 * of numpy's savetxt(fmt="%.17g", header=..., comments=""), NaN printed
 * as "nan" whatever its sign bit, as Python prints it.  rk_read_table
 * reads that layout back from a byte offset past the header: one
 * space between values, trailing whitespace and CRLF allowed, blank
 * lines only after the last row.  Both run under the "C" numeric
 * locale, restored on return, so the decimal point is '.' whatever the
 * host's locale.  Each returns 0, an errno value, or (the reader) one of
 * the negative TABLE_* codes with the 1-based line in *line.
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

static inline double dot4(const double *p, const double *q, int64_t n)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
        s0 += p[j] * q[j];
        s1 += p[j + 1] * q[j + 1];
        s2 += p[j + 2] * q[j + 2];
        s3 += p[j + 3] * q[j + 3];
    }
    for (; j < n; j++)
        s0 += p[j] * q[j];
    return (s0 + s1) + (s2 + s3);
}

/* ||p - q||^2 in the order of dot4 */
static inline double dist4(const double *p, const double *q, int64_t n)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0, d0, d1, d2, d3;
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
        d0 = p[j] - q[j];
        d1 = p[j + 1] - q[j + 1];
        d2 = p[j + 2] - q[j + 2];
        d3 = p[j + 3] - q[j + 3];
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
    }
    for (; j < n; j++) {
        d0 = p[j] - q[j];
        s0 += d0 * d0;
    }
    return (s0 + s1) + (s2 + s3);
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
void rk_chunk(int64_t trials, int64_t n, int64_t steps,
              const double *a, const double *b, const double *w, const double *u,
              int64_t m, const double *cum, double total, const int64_t *guide, int64_t g, int64_t last,
              const int64_t *col, const double *x_ls, double *x, double *err, int64_t ncols)
{
    for (int64_t t = 0; t < trials; t++) {
        double *xt = x + t * n;
        for (int64_t s = 0; s < steps; s++) {
            int64_t i = resolve(u[t * steps + s], m, cum, total, guide, g, last);
            const double *row = a + i * n;
            double c = (dot4(row, xt, n) - b[i]) / w[i];
            for (int64_t j = 0; j < n; j++)
                xt[j] -= c * row[j];
            if (col[s] >= 0)
                err[t * ncols + col[s]] = dist4(xt, x_ls, n);
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
        if (fprintf(f, "%s\n", header) < 0)
            err = errno_or_eio();
        for (int64_t k = 0; k < rows * cols && !err; k++) {
            char end = (k + 1) % cols ? delim : '\n';
            if ((isnan(v[k]) ? fprintf(f, "nan%c", end) : fprintf(f, "%.17g%c", v[k], end)) < 0)
                err = errno_or_eio();
        }
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
        char *end;
        out[j] = strtod(p, &end);
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
