"""Interdependence functions: maps from a data batch (or pure parameters, or a
grid/chain/graph topology) to a relation matrix over attributes or instances.

Conventions
-----------
Attribute-axis matrices right-multiply the batch (X @ A). Instance-axis
variants receive the transposed batch, and the produced matrix is stored so
that stored.T left-multiplies the batch; structural chain matrices therefore
keep their ones on the superdiagonal while the applied matrix is the
subdiagonal shift, and graph matrices store the transpose of the normalized
adjacency.
"""

from dataclasses import dataclass, field

import numpy as np

from . import grid_geometry as gg
from .numeric_core import (SparseCoo, Tape, as_dense, l1_normalize_node, matrix_exp,
                           softmax_node, solve)


# ---------------------------------------------------------------------------
# graph


class Graph:
    def __init__(self, n_nodes, edges, directed=False):
        self.n_nodes = int(n_nodes)
        self.directed = bool(directed)
        self.edges = []
        for u, v in edges:
            u = int(u)
            v = int(v)
            if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                raise IndexError("edge endpoint out of range")
            if u == v:
                continue  # self-dependence is added by normalization
            self.edges.append((u, v))

    def adjacency(self):
        a = np.zeros((self.n_nodes, self.n_nodes))
        for u, v in self.edges:
            a[u, v] = 1.0
            if not self.directed:
                a[v, u] = 1.0
        return a


def normalize_adjacency(a_raw):
    """Row-normalized adjacency with self loops: D^-1 A + I.

    Rows of isolated nodes keep a zero neighbor part.
    """
    deg = a_raw.sum(axis=1)
    inv = np.where(deg > 0, 1.0 / np.where(deg > 0, deg, 1.0), 0.0)
    return inv[:, None] * a_raw + np.eye(a_raw.shape[0])


# ---------------------------------------------------------------------------
# spec variants


@dataclass(frozen=True)
class Constant:
    matrix: object  # ndarray or SparseCoo


@dataclass(frozen=True)
class Identity:
    dim: int


@dataclass(frozen=True)
class StatKernel:
    kind: str  # kl | pearson | rv | mutual_info


@dataclass(frozen=True)
class NumKernel:
    kind: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Parameterized:
    m: int
    m_prime: int
    reconciliation: str = "full"  # full | lorr
    rank: int = 0


@dataclass(frozen=True)
class Bilinear:
    dim: int  # rows of the dispatch input (b for attribute axis, m for instance)


@dataclass(frozen=True)
class LowRankBilinear:
    dim: int
    rank: int


@dataclass(frozen=True)
class RpnHead:
    m: int
    m_prime: int
    flat_len: int          # b*m of the batch it will see
    expansion: object      # transformation.ExpansionSpec
    reconciliation: object  # reconciliation.ReconciliationSpec (n=1, D per expansion)
    remainder: object = None  # None or constant ndarray added to the flat output


@dataclass(frozen=True)
class GridStructural:
    grid: object
    shape: object
    packing: object
    mode: str = "padding"  # padding | aggregation


@dataclass(frozen=True)
class ChainStructural:
    length: int
    direction: str = "uni"  # uni | bi
    variant: str = "onehop"  # onehop | multihop | accumulative | exponential | reciprocal
    hops: int = 1
    include_self: bool = False


@dataclass(frozen=True)
class GraphStructural:
    graph: Graph
    variant: str = "adjacency"  # adjacency | multihop | accumulative | pagerank
    hops: int = 1
    alpha: float = 0.15
    normalization: str = "none"  # none | row_selfloop


@dataclass(frozen=True)
class Hybrid:
    variants: tuple
    fusion: object  # fusion.FusionSpec


@dataclass
class InterdependenceSpec:
    variant: object
    axis: str = "attribute"  # attribute | instance
    post_norm: str = "none"  # none | row_l1 | col_l1 | col_softmax | scaled_col_softmax
    norm_r: int = 1


def param_length(spec):
    """Exact learnable-parameter count of a spec (0 for parameter-free ones)."""
    v = spec.variant if isinstance(spec, InterdependenceSpec) else spec
    if isinstance(v, Parameterized):
        if v.reconciliation == "full":
            return v.m * v.m_prime
        if v.reconciliation == "lorr":
            return (v.m + v.m_prime) * v.rank
        raise ValueError("unknown reconciliation tag %r" % v.reconciliation)
    if isinstance(v, Bilinear):
        return v.dim * v.dim
    if isinstance(v, LowRankBilinear):
        return 2 * v.dim * v.rank
    if isinstance(v, RpnHead):
        from . import reconciliation as rc
        return rc.param_length(v.reconciliation)
    if isinstance(v, Hybrid):
        return sum(param_length(c) for c in v.variants)
    return 0


# ---------------------------------------------------------------------------
# kernels


def statistical_kernel_matrix(x, kind):
    """Pairwise statistical kernel over the columns of x."""
    x = np.asarray(x, dtype=float)
    b, m = x.shape
    if b < 2:
        raise ValueError("statistical kernels need at least 2 rows")
    if kind == "kl":
        if np.any(x < 0):
            raise ValueError("kl kernel requires non-negative columns")
        cols = x / np.maximum(x.sum(axis=0, keepdims=True), 1e-12)
        cols = np.maximum(cols, 1e-12)
        a = np.zeros((m, m))
        for i in range(m):
            # KL(p_i || p_j) row by row
            a[i] = np.sum(cols[:, i:i + 1] * (np.log(cols[:, i:i + 1]) - np.log(cols)), axis=0)
        return a
    if kind == "pearson":
        mu = x.mean(axis=0)
        sd = x.std(axis=0)
        ok = sd > 0
        z = np.where(ok, (x - mu) / np.where(ok, sd, 1.0), 0.0)
        a = z.T @ z / b
        # degenerate columns: 0 off-diagonal, 1 on the diagonal
        np.fill_diagonal(a, np.where(ok, np.diag(a), 1.0))
        return a
    if kind in ("rv", "mutual_info"):
        xc = x - x.mean(axis=0)
        sigma = xc.T @ xc / (b - 1)
        if kind == "rv":
            # scalar blocks: tr(S_ij S_ji) = cov^2, denominator sqrt(var_i^2 var_j^2)
            var = np.diag(sigma)
            denom = np.sqrt(np.outer(var ** 2, var ** 2))
            return sigma ** 2 / np.where(denom > 0, denom, 1.0)
        # ridge keeps rank-deficient small batches out of trouble
        ridge = 1e-8
        var = np.diag(sigma) + ridge
        cov = sigma.copy()
        np.fill_diagonal(cov, var)
        det_joint = np.maximum(np.outer(var, var) - cov ** 2, ridge * ridge)
        return 0.5 * np.log(np.outer(var, var) / det_joint)
    raise ValueError("unknown statistical kernel %r" % kind)


def _pairwise_diff_norm(x, p):
    # x columns compared pairwise
    diff = x.T[:, None, :] - x.T[None, :, :]
    if p == np.inf:
        return np.max(np.abs(diff), axis=2)
    if p == 1:
        return np.sum(np.abs(diff), axis=2)
    if p == 2:
        return np.sqrt(np.sum(diff * diff, axis=2))
    return np.sum(np.abs(diff) ** p, axis=2) ** (1.0 / p)


def numerical_kernel_matrix(x, kind, params=None):
    """Pairwise numerical kernel over the columns of x."""
    x = np.asarray(x, dtype=float)
    p = dict(params or {})
    gram = x.T @ x
    if kind == "linear":
        return gram
    if kind == "polynomial":
        return (gram + p.get("c", 1.0)) ** p.get("d", 2)
    if kind == "tanh":
        return np.tanh(p.get("alpha", 1.0) * gram + p.get("c", 0.0))
    if kind == "exponential":
        gamma = p.get("gamma", 1.0)
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        return np.exp(-gamma * _pairwise_diff_norm(x, 1))
    if kind == "cosine":
        nrm = np.sqrt(np.sum(x * x, axis=0))
        nrm = np.where(nrm > 0, nrm, 1.0)
        return gram / np.outer(nrm, nrm)
    if kind == "minkowski":
        return 1.0 - _pairwise_diff_norm(x, p.get("p", 2))
    if kind == "gaussian_rbf":
        sigma = p.get("sigma", 1.0)
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        return np.exp(-_pairwise_diff_norm(x, 2) ** 2 / (2.0 * sigma * sigma))
    if kind == "laplacian":
        sigma = p.get("sigma", 1.0)
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        return np.exp(-_pairwise_diff_norm(x, 1) / sigma)
    if kind == "anisotropic_rbf":
        a = np.asarray(p["a"], dtype=float)
        diff = x.T[:, None, :] - x.T[None, :, :]
        return np.exp(-np.sum(diff * diff * a[None, None, :], axis=2))
    if kind == "hybrid":
        k1 = numerical_kernel_matrix(x, p["k1"], p.get("k1_params"))
        k2 = numerical_kernel_matrix(x, p["k2"], p.get("k2_params"))
        return p.get("alpha", 0.5) * k1 + p.get("beta", 0.5) * k2
    raise ValueError("unknown numerical kernel %r" % kind)


# ---------------------------------------------------------------------------
# structural matrices


def grid_structural_matrix(grid, shape, packing, mode="padding"):
    """Sparse patch matrix over the flattened grid.

    padding mode: one block of columns per packing center, one 1 per in-grid
    patch cell (columns = p * p_count). aggregation mode: one column per
    center accumulating its patch members (columns = p_count).
    """
    offsets = gg.patch_offsets(shape)
    p = len(offsets)
    centers = gg.packing_centers(grid, packing, shape)
    m = grid.size
    trips = []
    if mode == "padding":
        for ci, center in enumerate(centers):
            base = ci * p
            for slot, (di, dj, dk) in enumerate(offsets):
                i, j, k = center[0] + di, center[1] + dj, center[2] + dk
                if 0 <= i < grid.h and 0 <= j < grid.w and 0 <= k < grid.d:
                    trips.append((gg.index_of((i, j, k), grid), base + slot, 1.0))
        return SparseCoo(m, p * len(centers), trips)
    if mode == "aggregation":
        for ci, center in enumerate(centers):
            for cell in gg.patch_cells(center, offsets, grid):
                trips.append((cell, ci, 1.0))
        return SparseCoo(m, len(centers), trips)
    raise ValueError("unknown grid structural mode %r" % mode)


def _uni_chain_bands(m, variant, hops):
    """Coefficient c[k] of superdiagonal k of a uni chain matrix.

    The uni one-hop shift A is nilpotent, so A^k is all ones on band k and
    every variant is a finite sum of bands: exp(A) has 1/k! on band k (built
    by the same successive division as the power series, so bit-identical to
    it) and (I - A)^-1 is all ones on and above the diagonal.
    """
    if variant == "onehop":
        return np.array([0.0, 1.0])[:m]
    if variant == "multihop":
        if hops < 0:
            raise ValueError("hop count must be >= 0")
        c = np.zeros(hops + 1)
        c[hops] = 1.0
        return c
    if variant == "accumulative":
        return np.ones(max(hops + 1, 0))
    if variant == "exponential":
        return np.divide.accumulate(np.r_[1.0, np.arange(1.0, m)])
    if variant == "reciprocal":
        return np.ones(m)
    raise ValueError("unknown chain variant %r" % variant)


def chain_structural_matrix(m, direction="uni", variant="onehop", hops=1,
                            include_self=False):
    """Chain relation matrix; uni one-hop is the superdiagonal shift, which is
    nilpotent (A^m = 0), making the exponential and reciprocal series finite.

    Uni chains are written band by band in closed form (see
    `_uni_chain_bands`): O(m^2) to zero the dense result plus O(m) per band,
    with no matrix product or elimination. Bi chains keep the power series,
    matrix powers and the elimination, since walk counts on a path graph have
    no such closed form.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if variant in ("multihop", "accumulative") and hops >= m:
        raise ValueError("hop count must be < m")
    if direction == "uni":
        out = np.zeros((m, m))
        flat = out.reshape(-1)
        coefs = _uni_chain_bands(m, variant, hops)
        for k in np.flatnonzero(coefs):
            flat[k:(m - k) * m:m + 1] = coefs[k]
    elif direction == "bi":
        a = np.zeros((m, m))
        idx = np.arange(m - 1)
        a[idx, idx + 1] = 1.0
        a[idx + 1, idx] = 1.0
        if variant == "onehop":
            out = a.copy()
        elif variant == "multihop":
            out = np.linalg.matrix_power(a, hops)
        elif variant == "accumulative":
            out = np.zeros((m, m))
            term = np.eye(m)
            for _ in range(hops + 1):
                out += term
                term = term @ a
        elif variant == "exponential":
            out = matrix_exp(a)
        elif variant == "reciprocal":
            try:
                out = solve(np.eye(m) - a, np.eye(m))
            except Exception:
                # bi-directional chain makes I - A singular
                out = chain_structural_matrix(m, direction, "accumulative", m - 1)
        else:
            raise ValueError("unknown chain variant %r" % variant)
    else:
        raise ValueError("direction must be uni or bi")
    if include_self and variant in ("onehop", "multihop"):
        out = out + np.eye(m)
    return out


def graph_structural_matrix(graph, variant="adjacency", hops=1, alpha=0.15,
                            normalization="none"):
    a = graph.adjacency()
    if normalization == "row_selfloop":
        a = normalize_adjacency(a)
    elif normalization == "row":
        # random-walk normalization; row-stochastic, so the pagerank series
        # alpha * sum_k ((1-alpha) A)^k converges
        deg = a.sum(axis=1, keepdims=True)
        a = a / np.where(deg == 0.0, 1.0, deg)
    elif normalization != "none":
        raise ValueError("unknown normalization %r" % normalization)
    if variant == "adjacency":
        return a
    if variant == "multihop":
        return np.linalg.matrix_power(a, hops)
    if variant == "accumulative":
        out = np.zeros_like(a)
        term = np.eye(a.shape[0])
        for _ in range(hops + 1):
            out += term
            term = term @ a
        return out
    if variant == "pagerank":
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must be in (0, 1]")
        n = a.shape[0]
        return alpha * solve(np.eye(n) - (1.0 - alpha) * a, np.eye(n))
    raise ValueError("unknown graph variant %r" % variant)


# ---------------------------------------------------------------------------
# build dispatch


# Variants differentiated on the tape (model.build_interdep_node); every
# other variant is a parameter-free constant built here.
TAPE_VARIANTS = (Parameterized, Bilinear, LowRankBilinear, RpnHead, Hybrid)


def post_norm_node(a, post_norm, norm_r=1):
    """Row/column normalization of a relation-matrix tape node."""
    if post_norm == "none":
        return a
    if post_norm == "row_l1":
        return l1_normalize_node(a, axis="row")
    if post_norm == "col_l1":
        return l1_normalize_node(a, axis="col")
    if post_norm == "col_softmax":
        return softmax_node(a, axis="col", r=1)
    if post_norm == "scaled_col_softmax":
        return softmax_node(a, axis="col", r=norm_r)
    raise ValueError("unknown post_norm %r" % post_norm)


def apply_post_norm(a, post_norm, norm_r=1):
    """post_norm_node evaluated on a gradient-free tape."""
    if post_norm == "none":
        return a
    return post_norm_node(Tape().constant(as_dense(a)), post_norm, norm_r).value


def build_matrix(spec, x=None, params=None):
    """Produce the relation matrix for a spec.

    Instance-axis specs dispatch on the transposed batch; structural
    instance-axis matrices are returned transposed so that the model's
    stored.T @ X convention applies the natural propagation direction.
    Parametric variants and hybrids are evaluated by
    model.build_interdep_node on a gradient-free tape.
    """
    v = spec.variant
    need = param_length(spec)
    if need and (params is None or np.asarray(params).size != need):
        raise ValueError("expected %d parameters" % need)
    if isinstance(v, TAPE_VARIANTS):
        from .model import build_interdep_node
        tape = Tape()
        x_node = None if x is None else tape.constant(x)
        p_node = tape.constant(np.zeros(0) if params is None else params)
        return build_interdep_node(spec, x_node, p_node).value
    data = None
    if x is not None:
        data = np.asarray(x, dtype=float)
        if spec.axis == "instance":
            data = data.T

    if isinstance(v, Constant):
        a = v.matrix
    elif isinstance(v, Identity):
        a = np.eye(v.dim)
    elif isinstance(v, StatKernel):
        if data is None:
            raise ValueError("statistical kernel needs a data batch")
        a = statistical_kernel_matrix(data, v.kind)
    elif isinstance(v, NumKernel):
        if data is None:
            raise ValueError("numerical kernel needs a data batch")
        a = numerical_kernel_matrix(data, v.kind, v.params)
    elif isinstance(v, GridStructural):
        a = grid_structural_matrix(v.grid, v.shape, v.packing, v.mode)
    elif isinstance(v, ChainStructural):
        a = chain_structural_matrix(v.length, v.direction, v.variant, v.hops,
                                    v.include_self)
    elif isinstance(v, GraphStructural):
        a = graph_structural_matrix(v.graph, v.variant, v.hops, v.alpha,
                                    v.normalization)
        if spec.axis == "instance":
            a = a.T
    else:
        raise TypeError("unknown interdependence variant %r" % (v,))
    return apply_post_norm(a, spec.post_norm, spec.norm_r)
