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
   divides: divpd, two shifts a divide, in the baseline x86-64 build. On
   x86-64 with glibc each multi-shift sweep is also built for AVX2 (CLONES),
   four shifts a vdivpd, and glibc's loader picks that clone when the CPU
   has AVX2; other platforms and compilers build the baseline alone. The
   clones run the same IEEE multiply, subtract, divide and compare, lane by
   lane and in the same order, and target("avx2") enables no FMA, so every
   count and last pivot has the same bits in either. Build with
   -ffp-contract=off, so that m_k x' is never fused into the subtract, and
   never with -ffast-math or -Ofast (they reorder) or a whole-file
   -march=native: the library is cached per platform, not per CPU, and on a
   CPU with AVX512-FP16 gcc 12 sets FLT_EVAL_METHOD to 16 under it, which
   the guard below refuses. A target that evaluates doubles in wider
   precision (x87) would round differently, so it refuses to build and the
   numpy sweep counts. A tile of odd width sweeps one more lane, a copy of
   its last shift, and drops its results: lanes are independent, and a lone
   scalar lane compiles its clamp to a data-dependent branch that costs
   more than the pad lane.

   Merging. On a row whose two diagonals have the same bits, a lane whose
   two stored pivots have the same bits (and are not NaN) gets the same
   pivot, count step and clamp on both boundaries, so its chains stay one
   until a row whose diagonals differ: for a string only the first and the
   last. A sweep of at least MERGE_MIN shifts merges such lanes from the top
   of the tile down, two at a time, so that the live lanes stay even, like
   the padded tile.
   A merged lane keeps off = cn - cd, runs the Dirichlet step alone, and
   gets dn = dd and cn = cd + off back before a row whose diagonals differ
   and at the end: its counts and last pivots keep their bits. Narrower
   sweeps save too few divides to pay for this, and the plain sweep's rows
   are unrolled and jammed two at a time at -O3, which a live width that
   changes after any row rules out; one shift keeps both chains in registers
   and guards with the branch (step).

   Bracketing. bracket_counts steps four independent chains in one pass over a
   string's rows at one shift, so four divides are in flight, not two: the
   string's and those of the piece that owns the row (rows cuts[p] to cuts[p + 1]
   - 1, with its own diagonals, b2 and pivmin). Each is step from d = 1 at its
   first row, so each count has the bits of a one-shift call on its string. */
#include <float.h>
#include <stdint.h>
#include <string.h>

#if FLT_EVAL_METHOD != 0
#error "double arithmetic must round to double at every step"
#endif

#define TILE 256
#define MERGE_MIN 32

/* glibc's ifunc resolver picks a sweep's clone by the CPU once, at load time */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef CLONES
#define CLONES
#endif

#define SAME(a, b) ((a) == (b) && memcmp(&(a), &(b), sizeof(double)) == 0)  /* bits, not NaN */

#define SWEEP_ARGS int64_t n, int64_t ns, double pivmin, const double *restrict diags, \
    const double *restrict mass, const double *restrict b2, const double *restrict shifts, \
    double *restrict pivots, int64_t *restrict counts

static inline __attribute__((always_inline)) void sweep(SWEEP_ARGS, int merge)
{
    for (int64_t start = 0; start < ns; start += TILE) {
        const int64_t used = ns - start < TILE ? ns - start : TILE;
        const int64_t w = used + used % 2;  /* an odd tile pads a lane: see the header */
        double x[TILE], dd[TILE], dn[TILE], cd[TILE], cn[TILE], off[TILE];
        int64_t live = w;  /* lanes live..w-1 are merged: dn stale, cn = cd + off */
        for (int64_t j = 0; j < w; j++) {
            x[j] = shifts[start + (j < used ? j : used - 1)];
            dd[j] = dn[j] = 1.0;
            cd[j] = cn[j] = 0.0;
        }
        for (int64_t k = 0; k <= n; k++) {
            if (live < w && (k == n || !SAME(diags[k], diags[n + k])))  /* unmerge all */
                for (; live < w; live++) {
                    dn[live] = dd[live];
                    cn[live] = cd[live] + off[live];
                }
            if (k == n)
                break;
            const double diag_d = diags[k], diag_n = diags[n + k], m = mass[k], b = b2[k];
            for (int64_t j = 0; j < live; j++) {
                const double xm = m * x[j];
                const double pd = (diag_d - xm) - b / dd[j];
                const double pn = (diag_n - xm) - b / dn[j];
                cd[j] += pd < pivmin;
                cn[j] += pn < pivmin;
                dd[j] = (pd < pivmin) & (pd > -pivmin) ? -pivmin : pd;
                dn[j] = (pn < pivmin) & (pn > -pivmin) ? -pivmin : pn;
            }
            for (int64_t j = live; j < w; j++) {
                const double pd = (diag_d - m * x[j]) - b / dd[j];
                cd[j] += pd < pivmin;
                dd[j] = (pd < pivmin) & (pd > -pivmin) ? -pivmin : pd;
            }
            while (merge && live >= 2 && SAME(dd[live - 2], dn[live - 2])
                   && SAME(dd[live - 1], dn[live - 1])) {
                live -= 2;
                off[live] = cn[live] - cd[live];
                off[live + 1] = cn[live + 1] - cd[live + 1];
            }
        }
        for (int64_t j = 0; j < used; j++) {
            pivots[start + j] = dd[j], pivots[ns + start + j] = dn[j];
            counts[start + j] = (int64_t)cd[j], counts[ns + start + j] = (int64_t)cn[j];
        }
    }
}

/* each sweep in a function of its own, so that its loops get registers of their own */
#define SWEEP(name, merge) __attribute__((noinline)) CLONES static void name(SWEEP_ARGS) \
    { sweep(n, ns, pivmin, diags, mass, b2, shifts, pivots, counts, merge); }
SWEEP(plain_sweep, 0)
SWEEP(merging_sweep, 1)

typedef struct { double d; int64_t count; } Chain;  /* a one-shift chain's pivot and count */

static inline void step(Chain *chain, double diag, double xm, double b, double pivmin)
{
    chain->d = (diag - xm) - b / chain->d;
    if (chain->d < pivmin) {
        chain->count++;
        if (chain->d > -pivmin)
            chain->d = -pivmin;
    }
}

void sturm_counts(SWEEP_ARGS)
{
    if (ns >= MERGE_MIN) {
        merging_sweep(n, ns, pivmin, diags, mass, b2, shifts, pivots, counts);
    } else if (ns > 1) {
        plain_sweep(n, ns, pivmin, diags, mass, b2, shifts, pivots, counts);
    } else if (ns == 1) {
        Chain c[2] = {{1.0, 0}, {1.0, 0}};
        for (int64_t k = 0; k < n; k++) {
            const double xm = mass[k] * shifts[0];
            step(&c[0], diags[k], xm, b2[k], pivmin);
            step(&c[1], diags[n + k], xm, b2[k], pivmin);
        }
        pivots[0] = c[0].d, pivots[1] = c[1].d, counts[0] = c[0].count, counts[1] = c[1].count;
    }
}

void bracket_counts(int64_t n, double x, double pivmin, const double *restrict diags,
                    const double *restrict mass, const double *restrict b2, int64_t pieces,
                    const int64_t *restrict cuts, const double *restrict piece_pivmin,
                    const double *restrict piece_diags, const double *restrict piece_b2,
                    int64_t *restrict counts)
{
    Chain whole[2] = {{1.0, 0}, {1.0, 0}};
    counts[2] = counts[3] = 0;
    for (int64_t p = 0; p < pieces; p++) {
        Chain piece[2] = {{1.0, 0}, {1.0, 0}};
        for (int64_t k = cuts[p]; k < cuts[p + 1]; k++) {
            const double xm = mass[k] * x;
            step(&whole[0], diags[k], xm, b2[k], pivmin);
            step(&whole[1], diags[n + k], xm, b2[k], pivmin);
            step(&piece[0], piece_diags[k], xm, piece_b2[k], piece_pivmin[p]);
            step(&piece[1], piece_diags[n + k], xm, piece_b2[k], piece_pivmin[p]);
        }
        counts[2] += piece[0].count, counts[3] += piece[1].count > 1 ? piece[1].count : 1;
    }
    counts[0] = whole[0].count, counts[1] = whole[1].count > 1 ? whole[1].count : 1;
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
   children start at base[k + 1] + seen[k + 1] (a leaf's range is empty: no
   flag is stored), and its preorder rank is the count of nodes met before
   it. grow_count only counts: it writes the first cap generation sizes and
   returns how many generations there are (a caller with too small a buffer
   asks again), and returns -1 as soon as the forest passes max_nodes, before
   anything is allocated but the frames. grow_fill takes those sizes and
   fills one array per field, the generations in turn (Out): letter, rank
   and first are int32, exact since max_nodes < 2^31, and sigma is stored
   only where its pointer is not NULL (populations). Both return -2
   if the frames cannot be allocated; grow_fill returns -3 if the walk does
   not meet the sizes. */
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
    double *ratio, *offset, *mass, *sigma;  /* sigma NULL: not stored */
    int32_t *letter, *rank, *first;  /* first: n + 1 entries, f's children first[f]:first[f + 1] */
} Out;

static int64_t walk(const Model *m, int64_t roots, const uint64_t *root_states, double length0,
                    int64_t max_nodes, int64_t gens, const int64_t *sizes, const Out *out,
                    int64_t *seen_out, int64_t cap)
{
    const int fill = out != NULL;
    int64_t room = fill ? gens + 1 : 64, levels = 1, total = 0, result = -2;
    Frame *path = malloc((size_t)room * sizeof *path);
    int64_t *seen = calloc((size_t)room, sizeof *seen), *base = calloc((size_t)room, sizeof *base);
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
                if (out->sigma)
                    out->sigma[at] = node->sigma;
                out->letter[at] = (int32_t)j;
                out->rank[at] = (int32_t)(total - 1);
                out->first[at] = (int32_t)(base[d + 1] + seen[d + 1]);
            }
            seen[d]++;
            while (node->next == node->end) {  /* up to the deepest node with children left */
                if (d == 0)
                    goto next_root;
                d--;
                node--;
            }
            if (d + 1 == room) {  /* the child needs a frame and a seen[] slot (counting) */
                Frame *more_path = realloc(path, (size_t)(2 * room) * sizeof *path);
                int64_t *more_seen = realloc(seen, (size_t)(2 * room) * sizeof *seen);
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
        out->first[total] = (int32_t)total;  /* first[n] = n closes the last node's range */
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

int64_t grow_fill(MODEL_ARGS, int64_t gens, const int64_t *sizes, int32_t *letter, double *ratio,
                  double *offset, double *mass, double *sigma, int32_t *rank, int32_t *first)
{
    const Model m = MODEL;
    const Out out = {ratio, offset, mass, sigma, letter, rank, first};
    return walk(&m, roots, root_states, length0, max_nodes, gens, sizes, &out, NULL, 0);
}
