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


/* Tree growth: the generations of a forest of labelled trees, in two walks.

   Each node has a splitmix64 state: a root's comes in root_states, child i's
   (i = 1, 2, ...) is mix(state ^ i * CHILD_SALT), and the node's letter j is
   the number of running prob sums cum[] that are <= u = (mix(state) >> 11)
   * 2^-53 (numpy's searchsorted, side="right", on the sorted cum). A node of
   generation k with cell length L and birth time sigma has children iff
   k < depth, L >= min_length and sigma <= max_sigma; then its child i reads
   map row start[j] + i - 1 of r, c, w and tau and gets L r, sigma + tau,
   R' = R r, C' = R c + C and M' = M w, each numpy's IEEE operation in
   numpy's order (-ffp-contract=off keeps R c + C two roundings), so every
   node keeps the bits of the numpy growth in tree.py.

   walk() visits the forest depth first, root after root, with one frame per
   depth and no node arrays. Preorder meets each generation's nodes in
   address order, so seen[k] is the index, within generation k, of the next
   node met there: grow_fill writes node (k, seen[k]) to its breadth-first
   place base[k] + seen[k], base[k] being the nodes above generation k, its
   children start at base[k + 1] + seen[k + 1], and its preorder rank is the
   count of nodes met before it. grow_count only counts: it writes the first
   cap generation sizes and returns how many generations there are (a caller
   with too small a buffer asks again), and returns -1 as soon as the forest
   passes max_nodes, before anything is allocated but the frames. grow_fill
   takes those sizes and fills one array per field, the generations in turn
   (Out). Both return -2 if the frames cannot be allocated; grow_fill returns
   -3 if the walk does not meet the sizes. */
#include <stdlib.h>

#define GOLDEN 0x9E3779B97F4A7C15ULL
#define MIX1 0xBF58476D1CE4E5B9ULL
#define MIX2 0x94D049BB133111EBULL
#define CHILD_SALT 0xD1B54A32D192ED03ULL

static inline uint64_t mix(uint64_t z)
{
    z += GOLDEN;
    z ^= z >> 30;
    z *= MIX1;
    z ^= z >> 27;
    z *= MIX2;
    return z ^ (z >> 31);
}

typedef struct {
    const int64_t *n_maps, *start;
    const double *r, *c, *w, *tau, *cum;
    int64_t n_cum, depth;
    double min_length, max_sigma;
} Model;

typedef struct {
    uint64_t state;
    double length, sigma, ratio, offset, mass;
    int64_t row, next, end;
} Frame;

typedef struct {  /* grow_fill's arrays, one per field, the generations in turn */
    double *ratio, *offset, *mass, *sigma;
    int64_t *letter, *rank, *first;  /* first: n + 1 entries, f's children first[f]:first[f + 1] */
    uint8_t *expanded;
} Out;

static int64_t walk(const Model *m, int64_t roots, const uint64_t *root_states, double length0,
                    int64_t max_nodes, int64_t gens, const int64_t *sizes, const Out *out,
                    int64_t *seen_out, int64_t cap)
{
    const int fill = out != NULL;
    int64_t room = fill ? gens + 1 : 64, levels = 1, total = 0, result = -2;
    Frame *path = malloc(room * sizeof *path);
    int64_t *seen = calloc(room, sizeof *seen), *base = calloc(room, sizeof *base);
    if (!path || !seen || !base)
        goto done;
    for (int64_t k = 1; fill && k <= gens; k++)  /* base[gens] = n, below the last row */
        base[k] = base[k - 1] + sizes[k - 1];
    for (int64_t q = 0; q < roots; q++) {
        int64_t d = 0;
        Frame *node = path;
        *node = (Frame){.state = root_states[q], .length = length0, .ratio = 1.0, .mass = 1.0};
        for (;;) {
            const double u = (double)(mix(node->state) >> 11) * 0x1p-53;
            int64_t j = 0;
            for (int64_t i = 0; i < m->n_cum; i++)
                j += m->cum[i] <= u;
            const int grows = (d < m->depth) & (node->length >= m->min_length)
                              & (node->sigma <= m->max_sigma);
            node->row = m->start[j];
            node->next = 0;
            node->end = grows ? m->n_maps[j] : 0;
            if (++total > max_nodes) {
                result = -1;
                goto done;
            }
            if (fill) {
                if (d >= gens || seen[d] >= sizes[d]) {
                    result = -3;
                    goto done;
                }
                const int64_t at = base[d] + seen[d];
                out->ratio[at] = node->ratio;
                out->offset[at] = node->offset;
                out->mass[at] = node->mass;
                out->sigma[at] = node->sigma;
                out->letter[at] = j;
                out->rank[at] = total - 1;
                out->first[at] = base[d + 1] + seen[d + 1];
                out->expanded[at] = (uint8_t)grows;
            }
            seen[d]++;
            while (node->next == node->end) {  /* up to the deepest node with children left */
                if (d == 0)
                    goto next_root;
                d--;
                node--;
            }
            if (d + 1 == room) {  /* the child needs a frame and a seen[] slot (counting) */
                Frame *more_path = realloc(path, 2 * room * sizeof *path);
                int64_t *more_seen = realloc(seen, 2 * room * sizeof *seen);
                if (more_path)
                    path = more_path;
                if (more_seen)
                    seen = more_seen;
                if (!more_path || !more_seen)
                    goto done;
                for (int64_t k = room; k < 2 * room; k++)
                    seen[k] = 0;
                room *= 2;
                node = path + d;
            }
            const int64_t i = node->next++, row = node->row + i;
            Frame *child = node + 1;
            child->state = mix(node->state ^ (uint64_t)(i + 1) * CHILD_SALT);
            child->length = node->length * m->r[row];
            child->sigma = node->sigma + m->tau[row];
            child->ratio = node->ratio * m->r[row];
            child->offset = node->ratio * m->c[row] + node->offset;
            child->mass = node->mass * m->w[row];
            node = child;
            if (++d == levels)
                levels = d + 1;
        }
    next_root:;
    }
    if (fill) {
        if (levels != gens || total != base[gens]) {  /* no seen[k] passed sizes[k] */
            result = -3;
            goto done;
        }
        out->first[total] = total;  /* first[n] = n closes the last node's range */
    } else {
        for (int64_t k = 0; k < levels && k < cap; k++)
            seen_out[k] = seen[k];
    }
    result = levels;
done:
    free(path);
    free(seen);
    free(base);
    return result;
}

#define MODEL_ARGS const int64_t *n_maps, const int64_t *start, const double *r, \
    const double *c, const double *w, const double *tau, const double *cum, int64_t n_cum, \
    int64_t depth, double min_length, double max_sigma, int64_t roots, \
    const uint64_t *root_states, double length0, int64_t max_nodes
#define MODEL {n_maps, start, r, c, w, tau, cum, n_cum, depth, min_length, max_sigma}

int64_t grow_count(MODEL_ARGS, int64_t cap, int64_t *sizes)
{
    const Model m = MODEL;
    return walk(&m, roots, root_states, length0, max_nodes, 0, NULL, NULL, sizes, cap);
}

int64_t grow_fill(MODEL_ARGS, int64_t gens, const int64_t *sizes, int64_t *letter, double *ratio,
                  double *offset, double *mass, double *sigma, uint8_t *expanded, int64_t *rank,
                  int64_t *first)
{
    const Model m = MODEL;
    const Out out = {ratio, offset, mass, sigma, letter, rank, first, expanded};
    return walk(&m, roots, root_states, length0, max_nodes, gens, sizes, &out, NULL, 0);
}
