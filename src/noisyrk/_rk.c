/* Randomized Kaczmarz chunk kernel, loaded by noisyrk.kaczmarz through ctypes.
 *
 * Advances each of `trials` iterates (the rows of the C-contiguous
 * trials x n block `x`) through `steps` projections.  At step s trial t
 * projects onto row i = idx[t * steps + s] of the m x n matrix `a`:
 *
 *     x_t <- x_t - (a_i . x_t - b_i) / w_i * a_i,     w_i = ||a_i||^2
 *
 * When col[s] >= 0 the squared error ||x_t - x_ls||^2 after step s goes
 * to err[t * ncols + col[s]].  The trials are independent and each sum
 * runs in index order, so a trial's result does not depend on the other
 * trials or on the host's vector width (built with -ffp-contract=off).
 */
#include <stdint.h>

void rk_chunk(int64_t trials, int64_t n, int64_t steps,
              const double *a, const double *b, const double *w,
              const int64_t *idx, const int64_t *col, const double *x_ls,
              double *x, double *err, int64_t ncols)
{
    for (int64_t t = 0; t < trials; t++) {
        double *xt = x + t * n;
        for (int64_t s = 0; s < steps; s++) {
            int64_t i = idx[t * steps + s];
            const double *row = a + i * n;
            double dot = 0.0;
            for (int64_t j = 0; j < n; j++)
                dot += row[j] * xt[j];
            double c = (dot - b[i]) / w[i];
            for (int64_t j = 0; j < n; j++)
                xt[j] -= c * row[j];
            if (col[s] >= 0) {
                double sq = 0.0;
                for (int64_t j = 0; j < n; j++) {
                    double d = xt[j] - x_ls[j];
                    sq += d * d;
                }
                err[t * ncols + col[s]] = sq;
            }
        }
    }
}
