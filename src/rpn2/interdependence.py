"""Interdependence functions: maps from a data batch (or pure parameters, or a
grid/chain/graph topology) to a relation matrix over attributes or instances.

Conventions
-----------
Attribute-axis matrices right-multiply the batch (X @ A). Instance-axis
variants receive the transposed batch, and the produced matrix is stored so
that stored.T left-multiplies the batch; structural chain matrices therefore
keep their ones on the superdiagonal while the applied matrix is the
subdiagonal shift, and graph matrices store the transpose of the normalized
adjacency. Parametric matrices are fabricated by `reconciliation` (`_fabric`).

`build_node` is the one dispatcher over the variants. Structure is resolved
once per spec, off the tape (`_resolved_matrix`); every other variant is
built on the tape and post-normalized there (`post_norm_node`).
"""

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import fusion as fu
from . import grid_geometry as gg
from . import reconciliation as rc
from . import transformation as tf
from .numeric_core import (SparseCoo, Tape, as_dense, check_params, l1_normalize_node,
                           matrix_exp, softmax_node, solve)


# ---------------------------------------------------------------------------
# graph


@dataclass(frozen=True, eq=False)
class Graph:
    """An undirected graph on nodes 0 .. n_nodes - 1, fixed at construction:
    `edges` becomes a tuple of int pairs, and self loops are dropped."""

    n_nodes: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        n = int(self.n_nodes)
        if n < 1:
            raise ValueError("n_nodes must be >= 1")
        edges = []
        for k, (u, v) in enumerate(self.edges):
            u = int(u)
            v = int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise IndexError("edges[%d] = [%d, %d] has an endpoint outside 0..%d"
                                 % (k, u, v, n - 1))
            if u != v:  # self-dependence is added by normalization
                edges.append((u, v))
        object.__setattr__(self, "n_nodes", n)
        object.__setattr__(self, "edges", tuple(edges))

    def adjacency(self):
        a = np.zeros((self.n_nodes, self.n_nodes))
        u, v = np.array(self.edges, dtype=np.int64).reshape(-1, 2).T
        a[u, v] = 1.0
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
    expansion: tf.ExpansionSpec  # of the flattened batch
    reconciliation: rc.ReconciliationSpec  # n = m * m_prime; D = the expanded flat width
    remainder: object = None  # None or constant ndarray added to the flat output


@dataclass(frozen=True)
class GridStructural:
    grid: gg.GridSpec
    shape: Union[gg.Cuboid, gg.Cylinder, gg.Sphere]
    packing: gg.PackingSpec
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
    normalization: str = "none"  # none | row_selfloop | row


@dataclass(frozen=True)
class Hybrid:
    variants: "tuple[Variant, ...]"
    fusion: fu.FusionSpec


Variant = Union[Constant, Identity, StatKernel, NumKernel, Parameterized, Bilinear, RpnHead,
                LowRankBilinear, GridStructural, ChainStructural, GraphStructural, Hybrid]


@dataclass(frozen=True)
class InterdependenceSpec:
    """A variant, the axis it relates and its post-normalization.

    Frozen, because the matrix of a structure variant (`_RESOLVED`) is built
    on first use and kept on the spec (`_resolved_matrix`).
    """

    variant: Variant
    axis: str = "attribute"  # attribute | instance
    post_norm: str = "none"  # none | row_l1 | col_l1 | col_softmax | scaled_col_softmax
    norm_r: int = 1


def _fabric(v):
    """Reconciliation spec of the learnable matrix of a parametric variant."""
    if isinstance(v, Parameterized):
        if v.reconciliation not in ("full", "lorr"):
            raise ValueError("unknown reconciliation tag %r" % v.reconciliation)
        method = "identity" if v.reconciliation == "full" else "lorr"
        return rc.ReconciliationSpec(method, n=v.m, D=v.m_prime, rank=v.rank)
    if isinstance(v, Bilinear):
        return rc.ReconciliationSpec("identity", n=v.dim, D=v.dim)
    if isinstance(v, LowRankBilinear):
        return rc.ReconciliationSpec("lorr", n=v.dim, D=v.dim, rank=v.rank)
    return v.reconciliation


def param_length(spec):
    """Exact learnable-parameter count of a spec (0 for parameter-free ones)."""
    v = spec.variant if isinstance(spec, InterdependenceSpec) else spec
    if isinstance(v, (Parameterized, Bilinear, LowRankBilinear, RpnHead)):
        return rc.param_length(_fabric(v))
    if isinstance(v, Hybrid):
        f = v.fusion
        if f.strategy == "concat_linear" or (f.strategy == "weighted_sum" and not f.weights):
            raise ValueError("a Hybrid learns no fusion parameters, so it cannot fuse "
                             "with %s; give weighted_sum fixed weights" % f.strategy)
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
        # with 2 rows any two columns are perfectly correlated, so every
        # off-diagonal entry would be set by the ridge floor alone
        if b < 3:
            raise ValueError("the mutual_info kernel needs at least 3 rows")
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


# the params each numerical kernel reads
_KERNEL_PARAMS = {"linear": (), "polynomial": ("c", "d"), "tanh": ("alpha", "c"),
                  "exponential": ("gamma",), "cosine": (), "minkowski": ("p",),
                  "gaussian_rbf": ("sigma",), "laplacian": ("sigma",), "anisotropic_rbf": ("a",),
                  "hybrid": ("k1", "k2", "k1_params", "k2_params", "alpha", "beta")}


def numerical_kernel_matrix(x, kind, params=None):
    """Pairwise numerical kernel over the columns of x. A key of `params`
    that the kind does not read raises ValueError."""
    if kind not in _KERNEL_PARAMS:
        raise ValueError("unknown numerical kernel %r" % kind)
    p = check_params(params, _KERNEL_PARAMS[kind], "the %s kernel" % kind)
    x = np.asarray(x, dtype=float)
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
    # hybrid
    k1 = numerical_kernel_matrix(x, p["k1"], p.get("k1_params"))
    k2 = numerical_kernel_matrix(x, p["k2"], p.get("k2_params"))
    return p.get("alpha", 0.5) * k1 + p.get("beta", 0.5) * k2


# ---------------------------------------------------------------------------
# structural matrices


def grid_structural_matrix(grid, shape, packing, mode="padding"):
    """Sparse patch matrix over the flattened grid.

    padding mode: one block of columns per packing center, one 1 per in-grid
    patch cell (columns = p * p_count). aggregation mode: one column per
    center accumulating its patch members (columns = p_count). Built from
    the in-grid slots of gg.patch_index.
    """
    idx = gg.patch_index(grid, shape, packing)
    p_count, p = idx.shape
    if mode == "padding":
        cols = np.arange(p_count * p).reshape(p_count, p)
        width = p_count * p
    elif mode == "aggregation":
        cols = np.repeat(np.arange(p_count), p).reshape(p_count, p)
        width = p_count
    else:
        raise ValueError("unknown grid structural mode %r" % mode)
    inside = idx < grid.size
    return SparseCoo(grid.size, width, idx[inside], cols[inside],
                     np.ones(np.count_nonzero(inside)))


_CHAIN_VARIANTS = ("onehop", "multihop", "accumulative", "exponential", "reciprocal")


def _check_chain(m, direction, variant, hops):
    """The argument check that the dense and the sparse chain builders share."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if variant in ("multihop", "accumulative"):
        _check_hops(hops)
        if hops >= m:
            raise ValueError("hop count must be < m")
    if direction not in ("uni", "bi"):
        raise ValueError("direction must be uni or bi")
    if variant not in _CHAIN_VARIANTS:
        raise ValueError("unknown chain variant %r" % variant)


def _uni_chain_bands(m, variant, hops, include_self):
    """Coefficient c[k] of superdiagonal k of a uni chain matrix.

    The uni one-hop shift A is nilpotent, so A^k is all ones on band k and
    every variant is a finite sum of bands: exp(A) has 1/k! on band k (built
    by the same successive division as the power series, so bit-identical to
    it) and (I - A)^-1 is all ones on and above the diagonal. include_self
    adds I to one-hop and multi-hop, that is 1.0 to c[0].
    """
    if variant == "onehop":
        c = np.array([0.0, 1.0])[:m]
    elif variant == "multihop":
        c = np.zeros(hops + 1)
        c[hops] = 1.0
    elif variant == "accumulative":
        c = np.ones(hops + 1)
    elif variant == "exponential":
        c = np.divide.accumulate(np.r_[1.0, np.arange(1.0, m)])
    else:  # reciprocal
        c = np.ones(m)
    if include_self and variant in ("onehop", "multihop"):
        c[0] += 1.0
    return c


def chain_structural_matrix(m, direction="uni", variant="onehop", hops=1,
                            include_self=False):
    """Chain relation matrix; uni one-hop is the superdiagonal shift, which is
    nilpotent (A^m = 0), making the exponential and reciprocal series finite.

    A uni chain is `chain_structural_coo` densified: its bands in closed
    form (see `_uni_chain_bands`), with no matrix product or solve. A bi
    chain is the path graph: one-hop, multi-hop and accumulative are
    `graph_structural_matrix` on it, the exponential is the power series and
    the reciprocal `solve` of I - A. I - A is singular exactly when
    1 = 2 cos(k pi / (m + 1)) is an eigenvalue of the path, that is when 3
    divides m + 1; the reciprocal then falls back to the accumulative walk
    sum of m - 1 hops.
    """
    if direction == "uni":
        return chain_structural_coo(m, direction, variant, hops, include_self).to_dense()
    _check_chain(m, direction, variant, hops)
    path = Graph(m, zip(range(m - 1), range(1, m)))
    if variant == "onehop":
        out = path.adjacency()
    elif variant in ("multihop", "accumulative"):
        out = graph_structural_matrix(path, variant, hops)
    elif variant == "exponential":
        out = matrix_exp(path.adjacency())
    elif (m + 1) % 3 == 0:  # reciprocal of a singular I - A
        out = graph_structural_matrix(path, "accumulative", m - 1)
    else:
        out = solve(np.eye(m) - path.adjacency(), np.eye(m))
    if include_self and variant in ("onehop", "multihop"):
        out = out + np.eye(m)
    return out


def chain_structural_coo(m: int, direction="uni", variant="onehop", hops=1,
                         include_self=False):
    """`chain_structural_matrix` as a SparseCoo, with the same entries.

    A uni chain is emitted straight from its bands in row-major order (band
    k of row i at column i + k, for k < m - i), so nothing of size m x m is
    built: O(nnz) time and memory. A bi chain is the dense matrix exported.
    """
    _check_chain(m, direction, variant, hops)
    if direction == "bi":
        return SparseCoo.from_dense(
            chain_structural_matrix(m, direction, variant, hops, include_self))
    coefs = _uni_chain_bands(m, variant, hops, include_self)
    bands = np.flatnonzero(coefs)
    counts = np.searchsorted(bands, m - np.arange(m))
    rows = np.repeat(np.arange(m), counts)
    k = bands[np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)]
    return SparseCoo(m, m, rows, rows + k, coefs[k])


def _check_hops(hops):
    if hops < 0:
        raise ValueError("hop count %d must be >= 0" % hops)


def graph_structural_matrix(graph, variant="adjacency", hops=1, alpha=0.15,
                            normalization="none"):
    if variant in ("multihop", "accumulative"):
        _check_hops(hops)
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
    with Tape() as tape:
        return post_norm_node(tape.constant(as_dense(a)), post_norm, norm_r).value


# parameter-free variants that read no data: their matrix is structure
_RESOLVED = (Identity, GridStructural, ChainStructural, GraphStructural)
_KERNELS = (StatKernel, NumKernel)


def _structure_matrix(spec):
    """Raw matrix of a `_RESOLVED` spec. A graph on the instance axis is
    returned transposed, so that the model's stored.T @ X convention applies
    the natural propagation direction."""
    v = spec.variant
    if isinstance(v, Identity):
        return np.eye(v.dim)
    if isinstance(v, GridStructural):
        return grid_structural_matrix(v.grid, v.shape, v.packing, v.mode)
    if isinstance(v, ChainStructural):
        return chain_structural_matrix(v.length, v.direction, v.variant, v.hops,
                                       v.include_self)
    a = graph_structural_matrix(v.graph, v.variant, v.hops, v.alpha, v.normalization)
    return a.T if spec.axis == "instance" else a


def _resolved_matrix(spec):
    """Post-normalized `_structure_matrix` of a `_RESOLVED` spec, built on
    first use and kept on the frozen spec, read-only. Its structure is frozen
    too: a `Graph` is fixed at construction."""
    if "_resolved" not in spec.__dict__:
        a = apply_post_norm(_structure_matrix(spec), spec.post_norm, spec.norm_r)
        if not isinstance(a, SparseCoo):
            a.flags.writeable = False
        object.__setattr__(spec, "_resolved", a)
    return spec._resolved


def build_node(spec, x_node, param_node):
    """Relation matrix of any spec as a tape node; the one dispatcher over
    the variants.

    Structure (`_RESOLVED`) is resolved once per spec, off the tape; every
    other variant is built here on each call and leaves through
    `post_norm_node`. A sparse matrix (kept structure, or a `Constant` with
    no post_norm) is returned as the `SparseCoo` itself. Instance-axis specs
    read the transposed batch. Parametric variants and hybrids are
    differentiated in their parameters and in the data they read: `RpnHead`
    expands its data (`transformation.expand_node`) and multiplies it
    through `reconciliation.reconciled_product`; a `Hybrid` fuses its
    children (`fusion.fuse_nodes`). A kernel is value-only in the data it
    reads (`Tape.value_only`): on a gradient-carrying input it drops that
    gradient, and `train` refuses such a config. x_node may be None for
    variants that ignore the data, param_node for parameter-free specs.
    """
    tape = (x_node if x_node is not None else param_node).tape
    v = spec.variant
    if isinstance(v, _RESOLVED):
        a = _resolved_matrix(spec)
        return a if isinstance(a, SparseCoo) else tape.constant(a)
    if isinstance(v, Constant) and isinstance(v.matrix, SparseCoo) and spec.post_norm == "none":
        return v.matrix
    if isinstance(v, _KERNELS + (Bilinear, LowRankBilinear, RpnHead)):
        if x_node is None:
            raise ValueError("%s interdependence needs a data batch" % type(v).__name__)
        # kernels read the value alone and add no transpose node
        data = x_node.value if isinstance(v, _KERNELS) else x_node
        if spec.axis == "instance":
            data = data.transpose()
    if param_node is None and isinstance(v, (Parameterized, Bilinear, LowRankBilinear, RpnHead,
                                             Hybrid)):
        param_node = tape.constant(np.zeros(0))
    if isinstance(v, Constant):
        a = tape.constant(as_dense(v.matrix))
    elif isinstance(v, StatKernel):
        a = tape.value_only(statistical_kernel_matrix(data, v.kind), [x_node], "data kernel")
    elif isinstance(v, NumKernel):
        a = tape.value_only(numerical_kernel_matrix(data, v.kind, v.params), [x_node],
                            "data kernel")
    elif isinstance(v, Parameterized):
        a = rc.reconcile_node(_fabric(v), param_node)
    elif isinstance(v, Bilinear):
        a = data.transpose().matmul(rc.reconcile_node(_fabric(v), param_node)).matmul(data)
    elif isinstance(v, LowRankBilinear):
        # X^T P (X^T Q)^T: P Q^T is never formed
        wp, wq = rc.lorr_factors(param_node, v.dim, v.dim, v.rank)
        a = data.transpose().matmul(wp).matmul(data.transpose().matmul(wq).transpose())
    elif isinstance(v, RpnHead):
        # xi(X|w) = <kappa'(flatten(X)), psi'(w')> + pi', reshaped m x m_prime
        flat = tf.expand_node(data.reshape((1, -1)), v.expansion)
        a = rc.reconciled_product(flat, v.reconciliation, param_node)
        if v.remainder is not None:
            a = a + np.asarray(v.remainder, dtype=float).reshape(1, -1)
        a = a.reshape((v.m, v.m_prime))
    elif isinstance(v, Hybrid):  # children built on the tape, then fused
        mats, used = [], 0
        for child in v.variants:
            child = InterdependenceSpec(child, axis=spec.axis)
            need = param_length(child)
            a = build_node(child, x_node, param_node.take(used, used + need))
            mats.append(tape.constant(a.to_dense()) if isinstance(a, SparseCoo) else a)
            used += need
        a = fu.fuse_nodes(mats, v.fusion)
    else:
        raise TypeError("unknown interdependence variant %r" % (v,))
    return post_norm_node(a, spec.post_norm, spec.norm_r)


def build_matrix(spec, x=None, params=None):
    """Produce the relation matrix for a spec: build_node evaluated on a
    gradient-free tape. A sparse parameter-free matrix stays a `SparseCoo`."""
    need = param_length(spec)
    if need and (params is None or np.asarray(params).size != need):
        raise ValueError("expected %d parameters" % need)
    with Tape() as tape:
        x_node = None if x is None else tape.constant(x)
        p_node = tape.constant(np.zeros(0) if params is None else params)
        a = build_node(spec, x_node, p_node)
        return a if isinstance(a, SparseCoo) else a.value
