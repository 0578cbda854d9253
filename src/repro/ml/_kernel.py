"""Optional compiled kernel for the level-wise exact GBM fit and for
forest prediction.

The few-shot regime fits thousands of tiny trees; even the fully batched
numpy engine pays a few microseconds of dispatch per array expression,
which dominates when nodes hold a dozen rows.  This module compiles a
small, dependency-free C implementation of the *same* level-wise frontier
algorithm (one batched scan per depth level over presorted segments,
stable position-cut partition, preorder emission) and drives the whole
boosting loop in one call per fit.  ``gbm_fit_exact`` writes the model's
one node-array set — the fused ensemble of
:class:`repro.ml.gbm.GradientBoostingRegressor`, leaves as self-loops —
straight into caller-owned buffers.  A second entry point,
``forest_predict``, walks many fitted ensembles (see
:class:`repro.ml.gbm.Forest`) in one call.

Build strategy: the C source below is written to a per-user cache
directory and compiled with the system C compiler into a plain shared
library (no Python headers needed), then loaded through ``cffi``'s ABI
mode.  Everything is best-effort: no compiler, no ``cffi``, a failed
build, or ``REPRO_NO_KERNEL=1`` simply mean :func:`get_kernel` returns
``None`` and callers use the pure-numpy engine — results are
byte-identical (see ``tests/test_ml_levelwise.py`` which pins the two
paths against each other).

Floating-point discipline: compiled with ``-ffp-contract=off`` (no FMA
contraction) so candidate scores are the same IEEE double operations the
numpy engine and the scalar reference perform; cumulative sums run in the
same stable feature order, so split decisions — including exact ties —
agree with the reference scan.  ``forest_predict`` sums each row's leaf
values with numpy's pairwise summation (8 accumulators, blocks of 128,
halving above), so its per-ensemble sums equal
``_FlatEnsemble.sum_values`` bit for bit.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
import threading

from repro.env import get_bool

_CDEF = """
long gbm_fit_exact(
    const double *xt, const long *order, const long *posof,
    long n, long f, const double *y,
    long n_estimators, double learning_rate, long max_depth,
    double lam, double mcw, double gamma,
    double *pred, long max_nodes, long *tree_off,
    int *feat_out, double *thr_out, int *left_out, int *right_out,
    double *val_out, long *nsamp_out);
void forest_predict(
    const double *x, long n_rows, long n_cols, long n_seg,
    int **feat, double **thr, int **left, int **right,
    double **val, int **roots,
    const long *seg_trees, const long *seg_col, const long *seg_depth,
    double *leaf, double *out);
"""

_SOURCE = r"""
/* Level-wise exact GBM fit (squared loss, unit hessian).  Mirrors
 * repro.ml.tree._grow_exact: the frontier of each depth level is a set of
 * contiguous row segments over a per-feature presorted order; the split
 * search scans every (node, feature) of the level; accepted splits
 * partition segments by a stable position cut (never re-sorting); nodes
 * are laid out in preorder at emission, in the fused ensemble's form
 * (global child indices, leaves as self-loops).  Returns the deepest
 * tree's depth, or -1 when scratch allocation fails.
 *
 * Numerical contract: cumulative gradient sums run sequentially in the
 * stable sort order (bitwise-identical to the scalar reference), scores
 * use the exact expression gl*gl/(hl+lam) + gr*gr/(hr+lam), and the
 * best split is the strictly-greater feature-major scan, so ties resolve
 * to the lowest (feature, position) pair.
 */
#include <stdlib.h>
#include <math.h>

typedef struct {
    long start;      /* first column of the segment in part[] */
    long size;
    double g;        /* gradient sum over the segment's rows */
    long bfs;        /* index of this node in the BFS arrays */
} Seg;

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
    if (!part || !part2 || !grad || !segs || !segs2 || !b_val || !b_thr ||
        !b_n || !b_feat || !b_child || !b_sz || !b_pos) {
        free(part); free(part2); free(grad); free(segs); free(segs2);
        free(b_val); free(b_thr); free(b_n); free(b_feat);
        free(b_child); free(b_sz); free(b_pos);
        return -1;
    }

    for (long i = 0; i < n; i++) grad[i] = pred[i] - y[i];

    long max_tree_depth = 0;
    tree_off[0] = 0;

    for (long t = 0; t < n_estimators; t++) {
        /* ---- grow one tree, level by level ---- */
        for (long j = 0; j < f; j++)
            for (long i = 0; i < n; i++) part[j * n + i] = order[j * n + i];
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
                long bf = -1, bj = -1;
                double best = -INFINITY, bcum = 0.0;
                if (depth < max_depth && sz >= 2) {
                    for (long feat = 0; feat < f; feat++) {
                        const long *rows = part + feat * n + st;
                        const double *xv = xt + feat * n;
                        double cum = 0.0;
                        for (long j = 0; j < sz - 1; j++) {
                            cum += grad[rows[j]];
                            if (xv[rows[j]] == xv[rows[j + 1]]) continue;
                            double hl = (double)(j + 1);
                            double hr = (double)(sz - j - 1);
                            if (hl < mcw || hr < mcw) continue;
                            double gr = gsum - cum;
                            double sc = cum * cum / (hl + lam)
                                      + gr * gr / (hr + lam);
                            if (sc > best) { best = sc; bf = feat; bj = j; bcum = cum; }
                        }
                    }
                }
                int split = 0;
                if (bf >= 0) {
                    double parent = gsum * gsum / ((double)sz + lam);
                    double gain = 0.5 * (best - parent) - gamma;
                    if (gain > 1e-12) split = 1;
                }
                if (!split) {
                    /* leaf: fold its contribution into pred immediately */
                    const long *rows = part + 0 * n + st;
                    for (long j = 0; j < sz; j++)
                        pred[rows[j]] += learning_rate * value;
                    continue;
                }
                const long *rows_bf = part + bf * n + st;
                double va = xt[bf * n + rows_bf[bj]];
                double vb = xt[bf * n + rows_bf[bj + 1]];
                b_feat[bi] = bf;
                b_thr[bi] = 0.5 * (va + vb);
                b_child[bi] = n_bfs;
                long nl = bj + 1, nr = sz - nl;
                /* stable two-way partition of every feature's order by the
                 * winning feature's position cut (no re-sort below root) */
                long cut = posof[bf * n + rows_bf[bj]];
                const long *pcut = posof + bf * n;
                for (long feat = 0; feat < f; feat++) {
                    const long *src = part + feat * n + st;
                    long *dl = part2 + feat * n + o2;
                    long *dr = dl + nl;
                    for (long j = 0; j < sz; j++) {
                        long r = src[j];
                        if (pcut[r] <= cut) *dl++ = r; else *dr++ = r;
                    }
                }
                segs2[nseg2].start = o2; segs2[nseg2].size = nl;
                segs2[nseg2].g = bcum; segs2[nseg2].bfs = n_bfs;
                nseg2++;
                segs2[nseg2].start = o2 + nl; segs2[nseg2].size = nr;
                segs2[nseg2].g = gsum - bcum; segs2[nseg2].bfs = n_bfs + 1;
                nseg2++;
                b_n[n_bfs] = nl;
                b_feat[n_bfs] = -1; b_child[n_bfs] = -1;
                b_n[n_bfs + 1] = nr;
                b_feat[n_bfs + 1] = -1; b_child[n_bfs + 1] = -1;
                n_bfs += 2;
                o2 += sz;
                tree_depth = depth + 1;
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

    free(part); free(part2); free(grad); free(segs); free(segs2);
    free(b_val); free(b_thr); free(b_n); free(b_feat);
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

/* Leaf-value sums of every ensemble ("segment") of a forest, per row.
 * Segment s is one fused ensemble (the arrays of _FlatEnsemble, reached
 * through the per-segment pointer tables) of seg_trees[s] trees reading
 * the row's columns from seg_col[s].  Leaves are self-loops with
 * threshold +inf, so every tree descends exactly seg_depth[s] levels,
 * like the numpy lockstep.
 * leaf: n_rows * (largest tree count) scratch; out: n_rows x n_seg. */
void forest_predict(
    const double *x, long n_rows, long n_cols, long n_seg,
    int **feat, double **thr, int **left, int **right,
    double **val, int **roots,
    const long *seg_trees, const long *seg_col, const long *seg_depth,
    double *leaf, double *out)
{
    for (long s = 0; s < n_seg; s++) {
        const int *f = feat[s], *l = left[s], *r = right[s], *rt = roots[s];
        const double *th = thr[s], *v = val[s];
        const long nt = seg_trees[s], depth = seg_depth[s];
        for (long t = 0; t < nt; t++) {
            for (long i = 0; i < n_rows; i++) {
                const double *xi = x + i * n_cols + seg_col[s];
                long node = rt[t];
                for (long d = 0; d < depth; d++)
                    node = xi[f[node]] <= th[node] ? l[node] : r[node];
                leaf[i * nt + t] = v[node];
            }
        }
        for (long i = 0; i < n_rows; i++)
            out[i * n_seg + s] = pairwise_sum(leaf + i * nt, nt);
    }
}
"""

_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math"]

# Fits run on threads: ``_KERNEL_LOCK`` guards the first load, so a second
# caller waits for it instead of reading ``_kernel`` before it is set.
_KERNEL_LOCK = threading.Lock()
_kernel = None
_kernel_tried = False


def _cache_dir() -> str:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(root, "repro-ml-kernel")


def _build(tag: str) -> str | None:
    """Compile the kernel into the cache dir; return the .so path."""
    cache = _cache_dir()
    so_path = os.path.join(cache, f"kernel-{tag}.so")
    if os.path.exists(so_path):
        return so_path
    compiler = os.environ.get("CC", "cc")
    try:
        os.makedirs(cache, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as tmp:
            src = os.path.join(tmp, "kernel.c")
            out = os.path.join(tmp, "kernel.so")
            with open(src, "w") as fh:
                fh.write(_SOURCE)
            subprocess.run(
                [compiler, *_CFLAGS, "-o", out, src],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(out, so_path)  # atomic: concurrent builders race safely
        return so_path
    except Exception:
        return None


def get_kernel():
    """The (ffi, lib) pair, or ``None`` when unavailable.

    Best-effort and cached: the first call may compile the C source; any
    failure (no cffi, no compiler, sandboxed filesystem) permanently
    falls back to ``None`` for this process.
    """
    global _kernel, _kernel_tried
    if _kernel_tried:
        return _kernel
    with _KERNEL_LOCK:
        if not _kernel_tried:
            _kernel = _load()
            _kernel_tried = True
    return _kernel


def _load():
    """Build and open the kernel: ``(ffi, lib)``, or ``None``."""
    if get_bool("REPRO_NO_KERNEL"):
        return None
    if not sys.platform.startswith(("linux", "darwin")):
        return None
    try:
        import cffi
    except Exception:
        return None
    try:
        ffi = cffi.FFI()
        # The ABI passes numpy int64 buffers as C ``long``; on an ILP32
        # platform that would be a silent stride mismatch, so fall back.
        if ffi.sizeof("long") != 8:
            return None
        ffi.cdef(_CDEF)
    except Exception:
        return None
    tag = hashlib.sha256((_SOURCE + str(_CFLAGS)).encode()).hexdigest()[:16]
    so_path = _build(tag)
    if so_path is None:
        return None
    try:
        return ffi, ffi.dlopen(so_path)
    except Exception:
        return None
