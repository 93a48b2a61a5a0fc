/* Sturm (pivot) counts of K - x M for both boundaries of one string.

   diags is the (2, n) row-major diagonal of K_D and K_N; mass and b2 hold
   m_k and b_{k-1}^2 (b2[0] = 0); shifts holds the ns values x' = x (1 + 1e-15).
   pivots (2 * ns doubles) receives the last pivot of each column and counts
   the (2, ns) non-positive pivot counts. Rows are the outer loop, so each
   row is read once for all shifts. The operations and their order are those
   of the numpy block in stieltjes.py, d = (K[k, k] - m_k x') - b2 / d, and a
   pivot below pivmin is counted and, if above -pivmin, clamped to -pivmin.
   Build with -ffp-contract=off, so that m_k x' is never fused into the
   subtract; a target that evaluates doubles in wider precision (x87) would
   round differently, so it refuses to build and the numpy sweep counts. */
#include <float.h>
#include <stdint.h>

#if FLT_EVAL_METHOD != 0
#error "double arithmetic must round to double at every step"
#endif

static inline double guard(double p, double pivmin, int64_t *count)
{
    if (p < pivmin) {
        ++*count;
        if (p > -pivmin)
            p = -pivmin;
    }
    return p;
}

void sturm_counts(int64_t n, int64_t ns, double pivmin, const double *diags,
                  const double *mass, const double *b2, const double *shifts,
                  double *pivots, int64_t *counts)
{
    double *dd = pivots, *dn = pivots + ns;
    for (int64_t j = 0; j < 2 * ns; j++) {
        pivots[j] = 1.0;
        counts[j] = 0;
    }
    for (int64_t k = 0; k < n; k++) {
        const double diag_d = diags[k], diag_n = diags[n + k], m = mass[k], b = b2[k];
        for (int64_t j = 0; j < ns; j++) {
            const double xm = m * shifts[j];
            dd[j] = guard((diag_d - xm) - b / dd[j], pivmin, counts + j);
            dn[j] = guard((diag_n - xm) - b / dn[j], pivmin, counts + ns + j);
        }
    }
}
