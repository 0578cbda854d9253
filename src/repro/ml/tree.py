"""Level-wise exact tree growth: one boosting round of the GBM.

Each round fits one regression tree to the squared-loss gradients under
the regularized objective XGBoost uses.  The hessian of squared loss is
identically 1, so a node's hessian sum is its sample count ``n``: the
optimal leaf weight is ``-G / (n + lambda)`` and a split's gain is

    gain = 0.5 * (GL²/(nL+λ) + GR²/(nR+λ) - G²/(n+λ)) - γ

Level-wise frontier engine
--------------------------
Trees grow breadth-first: all open nodes of a depth level form a *frontier*
held as contiguous row segments of one shared, presorted workspace
(:class:`TreeWorkspace` — feature-major stable sort order of ``X``, computed
once per fit).  The split search for **every frontier node and every
feature** runs in a single batched pass: segments are gathered into a
padded ``(n_features, n_nodes, width)`` block, cumulative gradient sums
restart per segment (bitwise-identical to a per-node scan), every
candidate threshold is scored in one array expression, and one fused
feature-major argmax per node picks the winner — ties resolve to the lowest
(feature, position) pair, matching the scalar scan order.

There is no recursion and no per-node bookkeeping: accepted splits
partition each segment in place (a stable two-way partition driven by the
root sort order, so **no argsort ever runs below the root** — see
``SORT_COUNTERS``), children become the next frontier, and the per-level
node records are scattered into preorder node arrays at the end.
Candidate windows, regularized denominators, column grids and the
preorder layout depend only on the frontier *shape*, which repeats
endlessly across boosting rounds, so they are cached per fit keyed by the
segment-size signature.

A grown tree comes out directly in the fused ensemble's node form (see
:class:`repro.ml.gbm.GradientBoostingRegressor`): preorder, tree-local
child indices, and every leaf a self-loop (``left == right == self``)
with feature ``0`` and threshold ``+inf``.  This module is the numpy
engine and the reference: :mod:`repro.ml._kernel` gives the same results
with less work (it skips rank-duplicate columns and the partitions that
only feed the last level) and is pinned to it byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SORT_COUNTERS", "TreeWorkspace"]

# Minimum gain (beyond zero) for a split to be kept; also the tolerance the
# historical scalar engine used when comparing candidate gains.
_GAIN_EPS = 1e-12

# Instrumentation: the level-wise engine sorts each feature exactly once per
# workspace (the root presort).  ``node_argsorts`` has no increment site by
# design — tests assert it stays zero to pin the no-per-node-sort invariant.
SORT_COUNTERS = {"workspace_builds": 0, "node_argsorts": 0}

# (f, 1) / (f, 1, 1) index columns for gathers, and arange vectors, cached
# per size — the few-shot regime creates these endlessly.
_ROW_INDEX_CACHE: dict[int, np.ndarray] = {}
_ROW_INDEX3_CACHE: dict[int, np.ndarray] = {}
_ARANGE_CACHE: dict[int, np.ndarray] = {}


def _row_index(f: int) -> np.ndarray:
    rows = _ROW_INDEX_CACHE.get(f)
    if rows is None:
        rows = np.arange(f)[:, None]
        _ROW_INDEX_CACHE[f] = rows
    return rows


def _row_index3(f: int) -> np.ndarray:
    rows = _ROW_INDEX3_CACHE.get(f)
    if rows is None:
        rows = np.arange(f)[:, None, None]
        _ROW_INDEX3_CACHE[f] = rows
    return rows


def _arange(n: int) -> np.ndarray:
    a = _ARANGE_CACHE.get(n)
    if a is None:
        a = np.arange(n)
        _ARANGE_CACHE[n] = a
    return a


class TreeWorkspace:
    """Per-fit workspace for level-wise exact growth.

    Everything here depends on ``X`` alone, so a boosting loop builds one
    instance and shares it across all rounds.  Arrays are stored transposed
    — ``(n_features, n_samples)`` — so the feature-major batched split
    search runs on contiguous memory:

    ``xt``
        the transposed feature matrix,
    ``order``
        stable argsort of every feature (the *only* argsort the exact
        engine ever performs — frontier partitions below the root are
        maintained by stable two-way splits of this order),
    ``sv`` / ``root_good``
        sorted values and the untied-gap mask of the root segment (built
        on first use: only the numpy engine reads them),
    ``posof``
        the inverse permutation of ``order`` (row -> sorted position),
        used to partition child segments without re-sorting.
    """

    __slots__ = ("xt", "order", "_sv", "_root_good", "_posof")

    def __init__(self, X: np.ndarray) -> None:
        XT = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=float)).T)
        SORT_COUNTERS["workspace_builds"] += 1
        self.xt = XT
        # intp indices: fancy gathers then skip numpy's index-cast pass,
        # and the compiled kernel reads them directly.
        self.order = np.ascontiguousarray(XT.argsort(axis=1, kind="stable"), dtype=np.intp)
        self._sv: np.ndarray | None = None
        self._root_good: np.ndarray | None = None
        self._posof: np.ndarray | None = None

    @property
    def sv(self) -> np.ndarray:
        if self._sv is None:
            self._sv = self.xt[_row_index(self.xt.shape[0]), self.order]
        return self._sv

    @property
    def root_good(self) -> np.ndarray:
        if self._root_good is None:
            sv = self.sv
            self._root_good = sv[:, 1:] != sv[:, :-1]
        return self._root_good

    def posof(self) -> np.ndarray:
        """Row -> sorted-position per feature (built on first split)."""
        if self._posof is None:
            f, n = self.order.shape
            posof = np.empty((f, n), dtype=np.intp)
            posof[_row_index(f), self.order] = np.arange(n, dtype=np.intp)
            self._posof = posof
        return self._posof


@dataclass
class _SplitSearchConfig:
    """Hyper-parameters plus per-fit caches for the level-wise grower.

    Frontier shapes (segment-size signatures) repeat endlessly across
    boosting rounds, so the candidate windows / denominators / column grids
    (``shape_cache``) and the preorder layout of finished trees
    (``struct_cache``) are shared for the whole fit.  Both depend on the
    hyper-parameters below, so a config must not be reused across models.
    """

    max_depth: int
    min_child_weight: float
    reg_lambda: float
    gamma: float
    shape_cache: dict = field(default_factory=dict)
    struct_cache: dict = field(default_factory=dict)


class _LevelShapes:
    """Frontier-shape constants for one segment-size signature (cached).

    Everything here is a function of the segment sizes and the fit
    hyper-parameters alone — candidate windows from ``min_child_weight``,
    the regularized denominators, the padded column grid — so one instance
    serves every boosting round whose frontier has this shape.
    """

    __slots__ = (
        "np_sizes",
        "neg_vden",
        "starts_l",
        "m",
        "E",
        "W",
        "C",
        "root_like",
        "colgrid",
        "window",
        "den_l",
        "den_r",
        "hpl",
        "dead",
    )

    def __init__(self, sizes: tuple, cfg: _SplitSearchConfig) -> None:
        K = len(sizes)
        lam = cfg.reg_lambda
        self.np_sizes = np.array(sizes, dtype=np.int64)
        self.neg_vden = -(self.np_sizes + lam)
        starts = [0] * K
        for k in range(1, K):
            starts[k] = starts[k - 1] + sizes[k - 1]
        self.starts_l = starts
        self.m = starts[-1] + sizes[-1]
        # A node of one row cannot split.
        elig = [k for k in range(K) if sizes[k] >= 2]
        self.dead = not elig
        self.E = None if len(elig) == K else np.array(elig, dtype=np.int64)
        self.colgrid = None
        self.window = None
        self.den_l = None
        self.den_r = None
        self.hpl = None
        self.root_like = False
        if self.dead:
            self.W = 0
            self.C = 0
            return
        ne = np.array([sizes[k] for k in elig], dtype=np.int64)
        W = int(ne.max())
        self.W = W
        C = W - 1
        self.C = C
        # One node spanning the whole workspace: the root — its gathers are
        # free reshapes of the presorted arrays.
        self.root_like = K == 1 and sizes[0] == self.m
        mcw = cfg.min_child_weight
        # Candidate positions j split after sorted index j (left size j+1).
        # Hessian == sample count: min_child_weight is a position bound.
        j = _arange(C)
        lo = max(math.ceil(mcw) - 1, 0)
        hi = np.minimum(np.floor(ne - 1 - mcw).astype(np.int64) + 1, ne - 1)
        window = (j >= lo) & (j[None, :] < hi[:, None])
        self.window = window
        if not window.any():
            self.dead = True
            return
        if not self.root_like:
            se = np.array([starts[k] for k in elig], dtype=np.int64)
            self.colgrid = np.minimum(se[:, None] + _arange(W), self.m - 1)
        hl = np.arange(1.0, W)
        self.den_l = hl + lam
        # Out-of-window denominators are never read through a valid
        # candidate, but keep them positive so the division never warns.
        self.den_r = np.where(window, (ne[:, None] - hl) + lam, 1.0)
        self.hpl = ne + lam


def _grow_exact(
    ws: TreeWorkspace,
    grad: np.ndarray,
    cfg: _SplitSearchConfig,
    train_pred: np.ndarray,
):
    """Level-wise exact growth: one batched split search per depth level.

    The frontier is a list of row segments over ``part`` — a per-feature
    copy of the workspace sort order, partitioned so each node's rows are
    contiguous and feature-sorted.  Cumulative sums restart per segment
    (the padded gather), keeping candidate scores bitwise-identical to a
    per-node scan, and the fused argmax resolves ties to the lowest
    (feature, position) pair exactly like the scalar reference.

    ``train_pred`` is filled in place with the tree's value for every
    training row (a free by-product of the leaf partition).  Returns the
    tree's ``(feature, threshold, left, right, value, n_samples, depth)``
    in the ensemble's node form (see the module docstring).
    """
    xt = ws.xt
    f = xt.shape[0]
    shape_cache = cfg.shape_cache

    part = ws.order
    sizes: tuple = (xt.shape[1],)
    # Sequential (cumsum) root sum: child sums chain off per-candidate
    # cumulative values, so this keeps every G bitwise identical to the
    # compiled kernel's accumulation order.
    g_node = np.cumsum(grad)[-1:]
    levels: list[tuple] = []
    sig: list[tuple] = []
    depth = 0
    rix3 = _row_index3(f)

    while True:
        sh = shape_cache.get(sizes)
        if sh is None:
            sh = _LevelShapes(sizes, cfg)
            shape_cache[sizes] = sh
        value = g_node / sh.neg_vden

        if depth >= cfg.max_depth or sh.dead:
            levels.append((value, sh.np_sizes, None, None, None))
            sig.append((sizes, ()))
            _fill_exact_leaves(train_pred, part, sh, sizes, value, None)
            break

        # -- batched split search over every eligible frontier node -----
        E = sh.E
        C = sh.C
        if sh.root_like:
            n = sizes[0]
            ridx = part.reshape(f, 1, n)
            g = grad[part].reshape(f, 1, n)
            vals = None
            good = ws.root_good.reshape(f, 1, C)
        else:
            # (f, Ke, W) padded gather.  Pad columns are clipped into later
            # segments; the garbage never reaches a valid candidate because
            # cumulative sums are prefixes and every window stops before the
            # segment end.
            ridx = part[:, sh.colgrid]
            g = grad[ridx]
            vals = xt[rix3, ridx]
            good = vals[:, :, 1:] != vals[:, :, :C]
        glc = np.cumsum(g, axis=2)[:, :, :C]
        gE = g_node if E is None else g_node[E]
        gr = gE[None, :, None] - glc
        # Huge gradients overflow scores to +inf, and gains below to NaN
        # (inf - inf); the kernel computes the same values silently.
        with np.errstate(over="ignore", invalid="ignore"):
            score = glc * glc / sh.den_l + gr * gr / sh.den_r
        scm = np.where(good & sh.window, score, -np.inf)

        # Feature-major flatten per node: ties resolve to the lowest
        # (feature, position) pair — the historical scalar scan order.
        Ke = scm.shape[1]
        sct = np.ascontiguousarray(scm.transpose(1, 0, 2)).reshape(Ke, f * C)
        best = sct.argmax(axis=1)
        best_sc = sct[_arange(Ke), best]
        bf = best // C
        bp = best - bf * C
        with np.errstate(over="ignore", invalid="ignore"):
            gain = 0.5 * (best_sc - gE * gE / sh.hpl) - cfg.gamma
        ai = np.nonzero(gain > _GAIN_EPS)[0]
        A = ai.size
        if A == 0:
            levels.append((value, sh.np_sizes, None, None, None))
            sig.append((sizes, ()))
            _fill_exact_leaves(train_pred, part, sh, sizes, value, None)
            break

        acc_nodes = ai if E is None else E[ai]
        bfa = bf[ai]
        bpa = bp[ai]
        n_left = bpa + 1
        gla = glc[bfa, ai, bpa]
        if vals is None:
            thr = 0.5 * (ws.sv[bfa, bpa] + ws.sv[bfa, bpa + 1])
        else:
            thr = 0.5 * (vals[bfa, ai, bpa] + vals[bfa, ai, bpa + 1])
        acc_t = tuple(acc_nodes.tolist())
        levels.append((value, sh.np_sizes, acc_nodes, bfa, thr))
        sig.append((sizes, acc_t))
        if A < len(sizes):
            _fill_exact_leaves(train_pred, part, sh, sizes, value, set(acc_t))

        # -- stable partition of accepted segments (no re-sort: a child's
        # rows keep the root order, filtered by the split's position cut).
        posof = ws.posof()
        starts_l = sh.starts_l
        bfa_l = bfa.tolist()
        bpa_l = bpa.tolist()
        ai_l = ai.tolist()
        nl_l = n_left.tolist()
        m2 = sum(sizes[k] for k in acc_t)
        npart = np.empty((f, m2), dtype=np.intp)
        new_sizes = []
        o = 0
        for a in range(A):
            k = acc_t[a]
            s = starts_l[k]
            nk = sizes[k]
            nl = nl_l[a]
            bfk = bfa_l[a]
            Pk = part[:, s : s + nk]
            cut = posof[bfk, ridx[bfk, ai_l[a], bpa_l[a]]]
            Lk = posof[bfk, Pk] <= cut
            npart[:, o : o + nl] = Pk[Lk].reshape(f, nl)
            npart[:, o + nl : o + nk] = Pk[~Lk].reshape(f, nk - nl)
            o += nk
            new_sizes.append(nl)
            new_sizes.append(nk - nl)
        g2 = np.empty(2 * A)
        g2[0::2] = gla
        g2[1::2] = g_node[acc_nodes] - gla
        part = npart
        sizes = tuple(new_sizes)
        g_node = g2
        depth += 1

    return _assemble(levels, sig, cfg)


def _fill_exact_leaves(
    train_pred: np.ndarray,
    part: np.ndarray,
    sh: _LevelShapes,
    sizes: tuple,
    value: np.ndarray,
    acc: set | None,
) -> None:
    """Scatter leaf values to training rows (segments that stop here)."""
    row0 = part[0]
    starts_l = sh.starts_l
    for k in range(len(sizes)):
        if acc is None or k not in acc:
            s = starts_l[k]
            train_pred[row0[s : s + sizes[k]]] = value[k]


def _assemble(levels: list[tuple], sig: list[tuple], cfg: _SplitSearchConfig):
    """Scatter per-level (BFS) records into preorder node arrays.

    The preorder permutation, child links and sample counts are functions
    of the structure signature alone, which repeats across boosting rounds
    — they are cached per fit and shared between same-shaped trees (the
    arrays are treated as immutable).
    """
    key = tuple(sig)
    tmpl = cfg.struct_cache.get(key)
    if tmpl is None:
        tmpl = _build_struct_template(levels, sig)
        cfg.struct_cache[key] = tmpl
    total, depth, perm, pacc, left, right, nsamp = tmpl
    L = len(levels)
    if L == 1:
        value = levels[0][0]
    else:
        value = np.empty(total)
        value[perm] = np.concatenate([lv[0] for lv in levels])
    # Leaves route through column 0 and always go left (onto themselves).
    feature = np.zeros(total, dtype=np.int32)
    threshold = np.full(total, np.inf)
    if pacc is not None:
        feats = [lv[3] for lv in levels if lv[2] is not None]
        thrs = [lv[4] for lv in levels if lv[2] is not None]
        if len(feats) == 1:
            feature[pacc] = feats[0]
            threshold[pacc] = thrs[0]
        else:
            feature[pacc] = np.concatenate(feats)
            threshold[pacc] = np.concatenate(thrs)
    return feature, threshold, left, right, value, nsamp, depth


def _build_struct_template(levels: list[tuple], sig: list[tuple]):
    """Preorder layout for one structure signature (cold path)."""
    L = len(levels)
    counts = [lv[1].size for lv in levels]
    total = sum(counts)
    # Subtree sizes bottom-up: children of the a-th accepted node sit at
    # positions 2a / 2a+1 of the next level.
    sub = [np.ones(c, dtype=np.int64) for c in counts]
    for d in range(L - 2, -1, -1):
        acc = levels[d][2]
        if acc is not None:
            cs = sub[d + 1]
            sub[d][acc] = 1 + cs[0::2] + cs[1::2]
    # Preorder positions top-down: left child right after the parent, right
    # child after the whole left subtree.
    pos = [np.zeros(1, dtype=np.int64)] + [None] * (L - 1)
    for d in range(L - 1):
        acc = levels[d][2]
        nxt = np.empty(counts[d + 1], dtype=np.int64)
        lp = pos[d][acc] + 1
        nxt[0::2] = lp
        nxt[1::2] = lp + sub[d + 1][0::2]
        pos[d + 1] = nxt
    # Every node starts as a leaf self-loop; splits overwrite their links.
    left = np.arange(total, dtype=np.int32)
    right = np.arange(total, dtype=np.int32)
    nsamp = np.empty(total, dtype=np.int64)
    pacc_parts = []
    for d in range(L):
        p = pos[d]
        nsamp[p] = levels[d][1]
        acc = levels[d][2]
        if acc is not None:
            pa = p[acc]
            pacc_parts.append(pa)
            cp = pos[d + 1]
            left[pa] = cp[0::2]
            right[pa] = cp[1::2]
    perm = pos[0] if L == 1 else np.concatenate(pos)
    pacc = np.concatenate(pacc_parts) if pacc_parts else None
    return total, L - 1, perm, pacc, left, right, nsamp
