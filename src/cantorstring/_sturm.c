/* Sturm (pivot) counts of K - x M for both boundaries of one string.

   diags is the (2, n) row-major diagonal of K_D and K_N; mass and b2 hold
   m_k and b_{k-1}^2 (b2[0] = 0); shifts holds the ns values x' = x (1 + 1e-15).
   pivots (2 * ns doubles) receives the last pivot of each column and counts
   the (2, ns) non-positive pivot counts. Shifts go TILE at a time, rows outer
   and shifts inner, so each row is read once per tile. The operations and
   their order are those of the numpy block in stieltjes.py,
   d = (K[k, k] - m_k x') - b2 / d, and a pivot below pivmin is counted and,
   if above -pivmin, clamped to -pivmin. That guard is a branchless select
   (& does not short-circuit) and equals the branch `if (p < pivmin)
   { count++; if (p > -pivmin) p = -pivmin; }` for every p, NaN included
   (both tests are false). Counts run in double lanes, exact below 2^53, and
   are stored as int64. So the shift loop vectorises at -O3 into packed
   divides (divpd on x86-64). Build with -ffp-contract=off, so that m_k x' is
   never fused into the subtract, and never with -ffast-math or -Ofast (they
   reorder) or -march=native (the library is cached per platform, not per
   CPU). A target that evaluates doubles in wider precision (x87) would
   round differently, so it refuses to build and the numpy sweep counts. */
#include <float.h>
#include <stdint.h>

#if FLT_EVAL_METHOD != 0
#error "double arithmetic must round to double at every step"
#endif

#define TILE 256

void sturm_counts(int64_t n, int64_t ns, double pivmin, const double *restrict diags,
                  const double *restrict mass, const double *restrict b2,
                  const double *restrict shifts, double *restrict pivots,
                  int64_t *restrict counts)
{
    for (int64_t start = 0; start < ns; start += TILE) {
        const int64_t w = ns - start < TILE ? ns - start : TILE;
        const double *restrict x = shifts + start;
        double *restrict dd = pivots + start, *restrict dn = pivots + ns + start;
        double cd[TILE], cn[TILE];
        for (int64_t j = 0; j < w; j++) {
            dd[j] = dn[j] = 1.0;
            cd[j] = cn[j] = 0.0;
        }
        for (int64_t k = 0; k < n; k++) {
            const double diag_d = diags[k], diag_n = diags[n + k], m = mass[k], b = b2[k];
            for (int64_t j = 0; j < w; j++) {
                const double xm = m * x[j];
                const double pd = (diag_d - xm) - b / dd[j];
                const double pn = (diag_n - xm) - b / dn[j];
                cd[j] += pd < pivmin;
                cn[j] += pn < pivmin;
                dd[j] = (pd < pivmin) & (pd > -pivmin) ? -pivmin : pd;
                dn[j] = (pn < pivmin) & (pn > -pivmin) ? -pivmin : pn;
            }
        }
        for (int64_t j = 0; j < w; j++) {
            counts[start + j] = (int64_t)cd[j];
            counts[ns + start + j] = (int64_t)cn[j];
        }
    }
}
