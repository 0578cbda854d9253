"""Compiled kernel for the exact GBM fit and for forest prediction.

The few-shot regime fits thousands of tiny trees, where numpy's
dispatch of a few microseconds per array expression would dominate
nodes of a dozen rows.  This module compiles a small, dependency-free
C fit that drives the whole boosting loop in one call per fit, and is
the only fit engine.  It grows each tree level-wise (one scan per depth
level over presorted segments, stable position-cut partition, preorder
emission) and skips work whose result is already fixed: columns that
rank the rows exactly like an earlier column are neither scanned nor
partitioned, and the children of a split one level above ``max_depth``
add their leaf values to the training prediction directly, without a
partition.  Its hot loops avoid data-dependent branches, which cost
more than the arithmetic at these sizes: a candidate is scored exactly
(two IEEE divisions) only when a cheap multiply-only estimate reaches a
bound just below the running best — one rarely taken branch that also
holds the tie test — and a partition stores each row once, at the left
or right cursor picked by its side, with no branch.
``gbm_fit_exact`` writes the model's one node-array set — the fused
ensemble of :class:`repro.ml.gbm.GradientBoostingRegressor`, leaves as
self-loops — into caller-owned buffers.  A second entry point,
``forest_predict``, descends many fitted ensembles (see
:class:`repro.ml.gbm.Forest`) in one call, each packed as complete trees
in heap order by a third, ``forest_pack``.

Build strategy: the C source below is written to a per-user cache
directory and compiled with the system C compiler into a plain shared
library (no Python headers needed), then loaded through ``cffi``'s ABI
mode.  No compiler, no ``cffi`` or a failed build make
:func:`get_kernel` return ``None``, with the reason in
:data:`last_error`.  Fitting then fails (:func:`require_kernel` raises
with that reason), while prediction falls back to the numpy descent of
:class:`repro.ml.gbm._FlatEnsemble`, so a saved model still loads and
serves on a host without a compiler.

Floating-point discipline: compiled with ``-ffp-contract=off`` (no FMA
contraction) so candidate scores are exactly the IEEE double operations
of the split rule; cumulative sums run sequentially in the stable
feature order, so split decisions — including exact ties — agree with
the scalar per-node reference in ``tests/gbm_reference.py`` byte for
byte.  ``forest_predict`` sums each row's leaf values with numpy's
pairwise summation (8 accumulators, blocks of 128, halving above), so
its per-ensemble sums equal ``_FlatEnsemble.sum_values`` bit for bit.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
import threading

_CDEF = """
long gbm_fit_exact(
    const double *xt, const long *order, const long *posof,
    long n, long f, const double *y,
    long n_estimators, double learning_rate, long max_depth,
    double lam, double mcw, double gamma,
    double *pred, long max_nodes, long *tree_off,
    int *feat_out, double *thr_out, int *left_out, int *right_out,
    double *val_out, long *nsamp_out);
long forest_predict(
    const double *x, long n_rows, long n_cols, long n_seg,
    const int *feat, const double *thr, const double *val,
    const long *seg_trees, const long *seg_depth, const long *seg_col,
    const long *seg_node, const long *seg_leaf, const long *seg_out,
    long n_out, double *out);
long forest_pack(
    long n_seg, void *const *src, const long *seg_trees,
    const long *seg_depth, const long *seg_node, const long *seg_leaf,
    int *feat, double *thr, double *val);
"""

_SOURCE = r"""
/* Level-wise exact GBM fit (squared loss, unit hessian).  The frontier
 * of each depth level is a set of contiguous row segments over a
 * per-feature presorted order; the split search scans every (node,
 * feature) of the level; accepted splits partition segments by a stable
 * position cut (never re-sorting); nodes are laid out in preorder at
 * emission, in the fused ensemble's form (global child indices, leaves
 * as self-loops).  Returns the deepest tree's depth, or -1 when scratch
 * allocation fails.
 *
 * Two kinds of work are skipped because their result is already fixed:
 *  - rank-duplicate columns: a column whose stable sort order and
 *    adjacent-tie pattern both equal an earlier column's has the same
 *    rows, ties and cumulative sums as that column in every node, so its
 *    candidates tie the earlier column's exactly and can never win the
 *    strictly-greater scan.  Only the other ("active") columns are
 *    scanned and partitioned; emitted features stay original indices.
 *  - the last level: children of a split at max_depth - 1 can only be
 *    leaves, so their values go into pred straight from the winning
 *    column's position cut, and no column is partitioned for them.
 *
 * Numerical contract: cumulative gradient sums run sequentially in the
 * stable sort order (bitwise-identical to the scalar reference), scores
 * use the exact expression gl*gl/(hl+lam) + gr*gr/(hr+lam), and the
 * best split is the strictly-greater feature-major scan, so ties resolve
 * to the lowest (feature, position) pair.  Two active columns are
 * scanned per pass (two independent cumsum chains), each against its
 * own running best, and merged in column order.
 *
 * Two rules keep the hot loops free of data-dependent branches:
 *  - bound-pruned scan: a position is scored exactly only on a hit,
 *    (est >= bound) & untied, where est = gl*gl*inv[hl] + gr*gr*inv[hr]
 *    with inv[k] = 1/(k+lam), and bound = best - best*1e-12 - 1e-300.
 *    For lam >= 0 both terms are non-negative and est is within a few
 *    ulp of the exact score: the relative slack covers that, the
 *    absolute term covers subnormal scores, so a pruned position can
 *    never beat best.  NaN scores never hit and never win; once best is
 *    +inf the bound is NaN and nothing can beat it.
 *  - branchless partition: each row is stored once, at dst[go ? il : ir],
 *    and il += go, ir += 1 - go.  Storing to both sides would write past
 *    the segment into the next column's slot.
 */
#include <stdlib.h>
#include <math.h>

typedef struct {
    long start;      /* first column of the segment in part[] */
    long size;
    double g;        /* gradient sum over the segment's rows */
    long bfs;        /* index of this node in the BFS arrays */
} Seg;

/* The running best split of a scan: its exact score, the pruning bound
 * derived from it, the position and the cumulative gradient there. */
typedef struct {
    double best, bound;
    long j;
    double cum;
} Cand;

/* A candidate that passed the tie test and the pruning bound: apply the
 * min_child_weight window, score it exactly, keep it if strictly better. */
static inline void consider(Cand *c, double cum, double gr, long j, long sz,
                            double lam, double mcw)
{
    double hl = (double)(j + 1);
    double hr = (double)(sz - j - 1);
    if (hl < mcw || hr < mcw) return;
    double sc = cum * cum / (hl + lam) + gr * gr / (hr + lam);
    if (sc > c->best) {
        c->best = sc; c->j = j; c->cum = cum;
        c->bound = sc - sc * 1e-12 - 1e-300;
    }
}

/* 1 when column j ranks the rows exactly like column k: the same stable
 * sort order and the same ties between sorted neighbours. */
static int same_ranks(const double *xt, const long *order, long n, long j, long k)
{
    const long *oj = order + j * n, *ok = order + k * n;
    const double *xj = xt + j * n, *xk = xt + k * n;
    for (long i = 0; i < n; i++)
        if (oj[i] != ok[i]) return 0;
    for (long i = 0; i + 1 < n; i++)
        if ((xj[oj[i]] == xj[oj[i + 1]]) != (xk[ok[i]] == xk[ok[i + 1]]))
            return 0;
    return 1;
}

long gbm_fit_exact(
    const double *xt, const long *order, const long *posof,
    long n, long f, const double *y,
    long n_estimators, double learning_rate, long max_depth,
    double lam, double mcw, double gamma,
    double *pred, long max_nodes, long *tree_off,
    int *feat_out, double *thr_out, int *left_out, int *right_out,
    double *val_out, long *nsamp_out)
{
    /* pred arrives prefilled with the base score */
    long *act = malloc((size_t)f * sizeof(long));
    double *inv = malloc((size_t)(n + 1) * sizeof(double));
    long *part = malloc((size_t)f * n * sizeof(long));
    long *part2 = malloc((size_t)f * n * sizeof(long));
    double *grad = malloc((size_t)n * sizeof(double));
    Seg *segs = malloc((size_t)(n + 1) * sizeof(Seg));
    Seg *segs2 = malloc((size_t)(n + 1) * sizeof(Seg));
    /* BFS-order scratch for one tree */
    double *b_val = malloc((size_t)max_nodes * sizeof(double));
    double *b_thr = malloc((size_t)max_nodes * sizeof(double));
    long *b_n = malloc((size_t)max_nodes * sizeof(long));
    long *b_feat = malloc((size_t)max_nodes * sizeof(long));
    long *b_child = malloc((size_t)max_nodes * sizeof(long));
    long *b_sz = malloc((size_t)max_nodes * sizeof(long));
    long *b_pos = malloc((size_t)max_nodes * sizeof(long));
    if (!act || !inv || !part || !part2 || !grad || !segs || !segs2 ||
        !b_val || !b_thr || !b_n || !b_feat || !b_child || !b_sz || !b_pos) {
        free(act); free(inv); free(part); free(part2); free(grad); free(segs);
        free(segs2); free(b_val); free(b_thr); free(b_n); free(b_feat);
        free(b_child); free(b_sz); free(b_pos);
        return -1;
    }

    /* Active columns, in original order: part[] slot a holds the rows of
     * column act[a].  Column 0 is always active. */
    long na = 0;
    for (long j = 0; j < f; j++) {
        int dup = 0;
        for (long a = 0; a < na && !dup; a++)
            dup = same_ranks(xt, order, n, j, act[a]);
        if (!dup) act[na++] = j;
    }

    /* Reciprocal denominators of the pruning estimate. */
    for (long k = 0; k <= n; k++) inv[k] = 1.0 / ((double)k + lam);

    for (long i = 0; i < n; i++) grad[i] = pred[i] - y[i];

    long max_tree_depth = 0;
    tree_off[0] = 0;

    for (long t = 0; t < n_estimators; t++) {
        /* ---- grow one tree, level by level ---- */
        for (long a = 0; a < na; a++) {
            const long *src = order + act[a] * n;
            for (long i = 0; i < n; i++) part[a * n + i] = src[i];
        }
        double g_root = 0.0;
        for (long i = 0; i < n; i++) g_root += grad[i];

        long nseg = 1;
        segs[0].start = 0; segs[0].size = n; segs[0].g = g_root; segs[0].bfs = 0;
        long n_bfs = 1;
        b_n[0] = n; b_feat[0] = -1; b_child[0] = -1;
        long tree_depth = 0;

        for (long depth = 0; nseg > 0; depth++) {
            long nseg2 = 0;
            long o2 = 0; /* next level's write cursor into part2 */
            for (long s = 0; s < nseg; s++) {
                long st = segs[s].start, sz = segs[s].size;
                double gsum = segs[s].g;
                long bi = segs[s].bfs;
                double value = -gsum / ((double)sz + lam);
                b_val[bi] = value;
                Cand win = {-INFINITY, -INFINITY, -1, 0.0};
                long ba = -1;
                if (depth < max_depth && sz >= 2) {
                    /* Two active columns per pass: two independent cumsum
                     * chains, each with its own running best, merged in
                     * column order.  An odd last column runs alone. */
                    long a = 0;
                    for (; a + 1 < na; a += 2) {
                        const long *r0 = part + a * n + st, *r1 = r0 + n;
                        const double *x0 = xt + act[a] * n;
                        const double *x1 = xt + act[a + 1] * n;
                        Cand c0 = win, c1 = win;
                        c0.j = c1.j = -1;
                        double cum0 = 0.0, cum1 = 0.0;
                        for (long j = 0; j < sz - 1; j++) {
                            cum0 += grad[r0[j]];
                            cum1 += grad[r1[j]];
                            double gr0 = gsum - cum0, gr1 = gsum - cum1;
                            double il = inv[j + 1], ir = inv[sz - j - 1];
                            double e0 = cum0 * cum0 * il + gr0 * gr0 * ir;
                            double e1 = cum1 * cum1 * il + gr1 * gr1 * ir;
                            int h0 = (e0 >= c0.bound)
                                   & (x0[r0[j]] != x0[r0[j + 1]]);
                            int h1 = (e1 >= c1.bound)
                                   & (x1[r1[j]] != x1[r1[j + 1]]);
                            if (h0 | h1) {
                                if (h0) consider(&c0, cum0, gr0, j, sz, lam, mcw);
                                if (h1) consider(&c1, cum1, gr1, j, sz, lam, mcw);
                            }
                        }
                        /* only a strictly greater score moves the win to
                         * a later column */
                        if (c0.j >= 0) { win = c0; ba = a; }
                        if (c1.j >= 0 && c1.best > win.best) { win = c1; ba = a + 1; }
                    }
                    if (a < na) {
                        const long *rows = part + a * n + st;
                        const double *xv = xt + act[a] * n;
                        Cand c = win;
                        c.j = -1;
                        double cum = 0.0;
                        for (long j = 0; j < sz - 1; j++) {
                            cum += grad[rows[j]];
                            double gr = gsum - cum;
                            double est = cum * cum * inv[j + 1]
                                       + gr * gr * inv[sz - j - 1];
                            if ((est >= c.bound) & (xv[rows[j]] != xv[rows[j + 1]]))
                                consider(&c, cum, gr, j, sz, lam, mcw);
                        }
                        if (c.j >= 0) { win = c; ba = a; }
                    }
                }
                double best = win.best, bcum = win.cum;
                long bj = win.j;
                int split = 0;
                if (ba >= 0) {
                    double parent = gsum * gsum / ((double)sz + lam);
                    double gain = 0.5 * (best - parent) - gamma;
                    if (gain > 1e-12) split = 1;
                }
                if (!split) {
                    /* leaf: fold its contribution into pred immediately */
                    const long *rows = part + st;
                    for (long j = 0; j < sz; j++)
                        pred[rows[j]] += learning_rate * value;
                    continue;
                }
                long bf = act[ba];
                const long *rows_bf = part + ba * n + st;
                double va = xt[bf * n + rows_bf[bj]];
                double vb = xt[bf * n + rows_bf[bj + 1]];
                b_feat[bi] = bf;
                b_thr[bi] = 0.5 * (va + vb);
                b_child[bi] = n_bfs;
                long nl = bj + 1, nr = sz - nl;
                b_n[n_bfs] = nl;
                b_feat[n_bfs] = -1; b_child[n_bfs] = -1;
                b_n[n_bfs + 1] = nr;
                b_feat[n_bfs + 1] = -1; b_child[n_bfs + 1] = -1;
                tree_depth = depth + 1;
                if (depth + 1 >= max_depth) {
                    /* both children are leaves: the winning column's
                     * order already holds the left rows, then the right */
                    double vl = -bcum / ((double)nl + lam);
                    double vr = -(gsum - bcum) / ((double)nr + lam);
                    b_val[n_bfs] = vl;
                    b_val[n_bfs + 1] = vr;
                    for (long j = 0; j < nl; j++)
                        pred[rows_bf[j]] += learning_rate * vl;
                    for (long j = nl; j < sz; j++)
                        pred[rows_bf[j]] += learning_rate * vr;
                    n_bfs += 2;
                    continue;
                }
                /* stable two-way partition of every active column's order
                 * by the winning column's position cut (no re-sort below
                 * root) */
                long cut = posof[bf * n + rows_bf[bj]];
                const long *pcut = posof + bf * n;
                for (long a = 0; a < na; a++) {
                    const long *src = part + a * n + st;
                    long *dst = part2 + a * n + o2;
                    long il = 0, ir = nl;
                    for (long j = 0; j < sz; j++) {
                        long r = src[j];
                        long go = pcut[r] <= cut;
                        dst[go ? il : ir] = r;
                        il += go;
                        ir += 1 - go;
                    }
                }
                segs2[nseg2].start = o2; segs2[nseg2].size = nl;
                segs2[nseg2].g = bcum; segs2[nseg2].bfs = n_bfs;
                nseg2++;
                segs2[nseg2].start = o2 + nl; segs2[nseg2].size = nr;
                segs2[nseg2].g = gsum - bcum; segs2[nseg2].bfs = n_bfs + 1;
                nseg2++;
                n_bfs += 2;
                o2 += sz;
            }
            { long *tmp = part; part = part2; part2 = tmp; }
            { Seg *tmp = segs; segs = segs2; segs2 = tmp; }
            nseg = nseg2;
        }

        /* ---- preorder layout: subtree sizes bottom-up (children always
         * have larger BFS indices), then positions top-down ---- */
        for (long i = n_bfs - 1; i >= 0; i--) {
            b_sz[i] = 1;
            if (b_feat[i] >= 0)
                b_sz[i] += b_sz[b_child[i]] + b_sz[b_child[i] + 1];
        }
        b_pos[0] = 0;
        for (long i = 0; i < n_bfs; i++) {
            if (b_feat[i] >= 0) {
                long lc = b_child[i];
                b_pos[lc] = b_pos[i] + 1;
                b_pos[lc + 1] = b_pos[i] + 1 + b_sz[lc];
            }
        }
        long base = tree_off[t];
        for (long i = 0; i < n_bfs; i++) {
            long p = base + b_pos[i];
            val_out[p] = b_val[i];
            nsamp_out[p] = b_n[i];
            if (b_feat[i] >= 0) {
                long lc = b_child[i];
                feat_out[p] = (int)b_feat[i];
                thr_out[p] = b_thr[i];
                left_out[p] = (int)(base + b_pos[lc]);
                right_out[p] = (int)(base + b_pos[lc + 1]);
            } else {
                feat_out[p] = 0;           /* leaves route through col 0 */
                thr_out[p] = INFINITY;     /* ... and always go left */
                left_out[p] = (int)p;      /* self-loop */
                right_out[p] = (int)p;
            }
        }
        tree_off[t + 1] = base + n_bfs;
        if (tree_depth > max_tree_depth) max_tree_depth = tree_depth;

        /* ---- post-round residual doubles as the next gradient ---- */
        for (long i = 0; i < n; i++) grad[i] = pred[i] - y[i];
    }

    free(act); free(inv); free(part); free(part2); free(grad); free(segs);
    free(segs2); free(b_val); free(b_thr); free(b_n); free(b_feat);
    free(b_child); free(b_sz); free(b_pos);
    return max_tree_depth;
}

/* numpy's pairwise summation (pairwise_sum_DOUBLE), so a segment sum is
 * bitwise equal to ndarray.sum over the same leaf values. */
static double pairwise_sum(const double *a, long n)
{
    if (n < 8) {
        double res = 0.0;
        for (long i = 0; i < n; i++) res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int j = 0; j < 8; j++) r[j] = a[j];
        long i;
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++) r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                   + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) res += a[i];
        return res;
    }
    long n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* Deepest segment forest_pack lays out: a complete tree of depth D has
 * 2^D leaves whatever the real tree holds. */
#define PACK_MAX_DEPTH 6

/* The layout forest_predict descends, built from fused ensembles.  Packed
 * segment k is the ensemble whose node arrays are src[6k .. 6k + 5]:
 * feature (int), threshold (double), left and right (int), value (double)
 * and the seg_trees[k] tree roots (int).  Its tree t fills the internal
 * slots and bottom values described at forest_predict, at seg_node[k] and
 * seg_leaf[k].  Following the left and right links one level at a time
 * from the root visits the heap slots in order, so a leaf's self-loop
 * (feature 0, threshold +inf) copies it into every slot below it.
 * Returns 0, or -1 (writing nothing) when a segment is deeper than
 * PACK_MAX_DEPTH. */
long forest_pack(
    long n_seg, void *const *src, const long *seg_trees,
    const long *seg_depth, const long *seg_node, const long *seg_leaf,
    int *feat, double *thr, double *val)
{
    for (long k = 0; k < n_seg; k++)
        if (seg_depth[k] < 0 || seg_depth[k] > PACK_MAX_DEPTH) return -1;
    long node_at[(2L << PACK_MAX_DEPTH) - 1];  /* node in each heap slot */
    for (long k = 0; k < n_seg; k++) {
        const int *f = src[6 * k];
        const double *th = src[6 * k + 1];
        const int *left = src[6 * k + 2], *right = src[6 * k + 3];
        const double *v = src[6 * k + 4];
        const int *roots = src[6 * k + 5];
        const long ni = (1L << seg_depth[k]) - 1;
        for (long t = 0; t < seg_trees[k]; t++) {
            int *fo = feat + seg_node[k] + t * ni;
            double *to = thr + seg_node[k] + t * ni;
            double *vo = val + seg_leaf[k] + t * (ni + 1);
            node_at[0] = roots[t];
            for (long h = 0; h < ni; h++) {
                long node = node_at[h];
                fo[h] = f[node];
                to[h] = th[node];
                node_at[2 * h + 1] = left[node];
                node_at[2 * h + 2] = right[node];
            }
            for (long i = 0; i <= ni; i++) vo[i] = v[node_at[ni + i]];
        }
    }
    return 0;
}

/* Leaf-value sums of forest segments, per row.  Segment s holds
 * seg_trees[s] complete trees of depth D = seg_depth[s] reading the row's
 * columns from seg_col[s].  Tree t's 2^D - 1 internal slots (feature,
 * threshold) start at seg_node[s] + t * (2^D - 1) in heap order (the
 * children of slot h are 2h + 1 and 2h + 2); its 2^D bottom values start
 * at seg_leaf[s] + t * 2^D.  A leaf that ends above the bottom fills
 * every slot below it, so the descent is D branch-free steps.  Four trees
 * descend in lockstep, four independent chains of dependent loads, and
 * a tail loop takes the last seg_trees[s] % 4.  Each row's leaf values
 * are summed in tree order.  out: n_rows x n_out, and segment s writes
 * column seg_out[s].  Returns 0, or -1 (writing nothing) when the leaf
 * buffer of a segment with more than FOREST_STACK_TREES trees cannot be
 * allocated. */
#define FOREST_STACK_TREES 1024

long forest_predict(
    const double *x, long n_rows, long n_cols, long n_seg,
    const int *feat, const double *thr, const double *val,
    const long *seg_trees, const long *seg_depth, const long *seg_col,
    const long *seg_node, const long *seg_leaf, const long *seg_out,
    long n_out, double *out)
{
    long max_trees = 0;
    for (long s = 0; s < n_seg; s++)
        if (seg_trees[s] > max_trees) max_trees = seg_trees[s];
    double stack_leaf[FOREST_STACK_TREES];
    double *leaf = stack_leaf;
    if (max_trees > FOREST_STACK_TREES) {
        leaf = malloc((size_t)max_trees * sizeof(double));
        if (!leaf) return -1;
    }
    for (long s = 0; s < n_seg; s++) {
        const long nt = seg_trees[s], depth = seg_depth[s];
        const long ni = (1L << depth) - 1, nb = ni + 1;
        const int *fs = feat + seg_node[s];
        const double *ths = thr + seg_node[s];
        const double *vs = val + seg_leaf[s];
        for (long i = 0; i < n_rows; i++) {
            const double *xi = x + i * n_cols + seg_col[s];
            long t = 0;
            for (; t + 4 <= nt; t += 4) {
                const int *f0 = fs + t * ni, *f1 = f0 + ni;
                const int *f2 = f1 + ni, *f3 = f2 + ni;
                const double *th0 = ths + t * ni, *th1 = th0 + ni;
                const double *th2 = th1 + ni, *th3 = th2 + ni;
                long h0 = 0, h1 = 0, h2 = 0, h3 = 0;
                for (long d = 0; d < depth; d++) {
                    h0 = 2 * h0 + 1 + !(xi[f0[h0]] <= th0[h0]);
                    h1 = 2 * h1 + 1 + !(xi[f1[h1]] <= th1[h1]);
                    h2 = 2 * h2 + 1 + !(xi[f2[h2]] <= th2[h2]);
                    h3 = 2 * h3 + 1 + !(xi[f3[h3]] <= th3[h3]);
                }
                const double *v = vs + t * nb;
                leaf[t] = v[h0 - ni];
                leaf[t + 1] = v[nb + h1 - ni];
                leaf[t + 2] = v[2 * nb + h2 - ni];
                leaf[t + 3] = v[3 * nb + h3 - ni];
            }
            for (; t < nt; t++) {
                const int *f = fs + t * ni;
                const double *th = ths + t * ni;
                long h = 0;
                for (long d = 0; d < depth; d++)
                    h = 2 * h + 1 + !(xi[f[h]] <= th[h]);
                leaf[t] = vs[t * nb + h - ni];
            }
            out[i * n_out + seg_out[s]] = pairwise_sum(leaf, nt);
        }
    }
    if (leaf != stack_leaf) free(leaf);
    return 0;
}
"""

_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math"]

# Fits run on threads: ``_KERNEL_LOCK`` guards the first load, so a second
# caller waits for it instead of reading ``_kernel`` before it is set.
_KERNEL_LOCK = threading.Lock()
_kernel = None
_kernel_tried = False

# Why the last load attempt gave no kernel (the compiler's stderr for a
# failed build), or ``None``.  Prediction falls back to numpy silently,
# so this is where to look when the kernel is gone; a fit raises with it.
last_error: str | None = None


def _cache_dir() -> str:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(root, "repro-ml-kernel")


def _build(tag: str) -> str:
    """Compile the kernel into the cache dir; return the .so path.

    Raises ``OSError``, ``subprocess.SubprocessError`` or
    ``RuntimeError`` (with the compiler's stderr) on failure.
    """
    cache = _cache_dir()
    so_path = os.path.join(cache, f"kernel-{tag}.so")
    if os.path.exists(so_path):
        return so_path
    compiler = os.environ.get("CC", "cc")
    os.makedirs(cache, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cache) as tmp:
        src = os.path.join(tmp, "kernel.c")
        out = os.path.join(tmp, "kernel.so")
        with open(src, "w") as fh:
            fh.write(_SOURCE)
        done = subprocess.run(
            [compiler, *_CFLAGS, "-o", out, src],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"{compiler} exited with {done.returncode}:\n{done.stderr}"
            )
        os.replace(out, so_path)  # atomic: concurrent builders race safely
    return so_path


def get_kernel():
    """The (ffi, lib) pair, or ``None`` when unavailable.

    Cached: the first call may compile the C source; any failure (no
    cffi, no compiler, sandboxed filesystem) gives ``None`` for the rest
    of this process, with the reason in :data:`last_error`.
    """
    global _kernel, _kernel_tried, last_error
    if _kernel_tried:
        return _kernel
    with _KERNEL_LOCK:
        if not _kernel_tried:
            try:
                _kernel, last_error = _load(), None
            except Exception as exc:  # kept for require_kernel's error
                _kernel, last_error = None, f"{type(exc).__name__}: {exc}"
            _kernel_tried = True
    return _kernel


def require_kernel():
    """The (ffi, lib) pair; raises ``RuntimeError`` with
    :data:`last_error` when the kernel is unavailable (fitting has no
    other engine)."""
    kernel = get_kernel()
    if kernel is None:
        raise RuntimeError(
            "fitting a GBM needs the compiled kernel (a C compiler and "
            f"cffi), which is unavailable: {last_error}"
        )
    return kernel


def _load():
    """Build and open the kernel: ``(ffi, lib)``.  Raises on failure."""
    if not sys.platform.startswith(("linux", "darwin")):
        raise RuntimeError(f"no kernel build for platform {sys.platform}")
    import cffi

    ffi = cffi.FFI()
    # The ABI passes numpy int64 buffers as C ``long``; on an ILP32
    # platform that would be a silent stride mismatch, so refuse it.
    if ffi.sizeof("long") != 8:
        raise RuntimeError("C long is not 64 bits")
    ffi.cdef(_CDEF)
    tag = hashlib.sha256((_SOURCE + str(_CFLAGS)).encode()).hexdigest()[:16]
    return ffi, ffi.dlopen(_build(tag))
