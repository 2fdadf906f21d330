/* Randomized Kaczmarz chunk kernel and row sampler, loaded by
 * noisyrk.kaczmarz through ctypes.
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
 */
#include <stdint.h>

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
