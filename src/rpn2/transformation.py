"""Data transformation functions: expansions into polynomial/wavelet bases and
compressions (elementwise, linear, patch, feature selection, dimension
reduction, probabilistic sampling).

Polynomial expansions evaluate the family recurrence elementwise and
concatenate the degree blocks [P_1(X) .. P_d(X)], so the output width is m*d;
the degree-0 constant column is excluded.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import grid_geometry as gg
from .numeric_core import Node, Tape, concat_nodes


@dataclass(frozen=True)
class ExpansionSpec:
    family: str = "identity"
    d: int = 1
    alpha: float = 0.5
    wavelet: str = "haar"
    s_max: int = 1
    t_max: int = 1
    a: float = 2.0
    b: float = 1.0
    order: int = 1
    wavelet_params: dict = field(default_factory=dict)

    def out_width(self, m):
        if self.family == "identity":
            return m
        if self.family == "wavelet":
            base = self.s_max * self.t_max * m
            return base * base if self.order == 2 else base
        return m * self.d


# ---------------------------------------------------------------------------
# polynomial families


def _poly_seed(family, x, alpha):
    """(P0, P1) of the recurrence."""
    one = x.tape.constant(np.ones(x.shape)) if isinstance(x, Node) else np.ones_like(x)
    if family == "hermite":
        return one, x
    if family == "laguerre":
        return one, 1.0 + alpha - x
    if family == "legendre":
        return one, x
    if family == "gegenbauer":
        return one, 2.0 * alpha * x
    if family in ("bessel", "reverse_bessel"):
        return one, x + 1.0
    if family == "fibonacci":
        return 0.0 * one, one
    if family == "lucas":
        return 2.0 * one, x
    raise ValueError("unknown polynomial family %r" % family)


def _poly_step(family, x, n, p1, p0, alpha):
    """P_n from P_{n-1}=p1 and P_{n-2}=p0."""
    if family == "hermite":
        return x * p1 - (n - 1) * p0
    if family == "laguerre":
        return ((2 * n - 1 + alpha - x) * p1 - (n - 1 + alpha) * p0) / n
    if family == "legendre":
        return (x * (2 * n - 1) * p1 - (n - 1) * p0) / n
    if family == "gegenbauer":
        if alpha == 0:
            raise ValueError("gegenbauer alpha must be nonzero")
        return (2.0 * x * (n - 1 + alpha) * p1 - (n + 2 * alpha - 2) * p0) / n
    if family == "bessel":
        return (2 * n - 1) * x * p1 + p0
    if family == "reverse_bessel":
        return (2 * n - 1) * p1 + x * x * p0
    if family in ("fibonacci", "lucas"):
        return x * p1 + p0
    raise ValueError("unknown polynomial family %r" % family)


def polynomial_columns(family, x, d, alpha=0.5):
    """[P_1(x) .. P_d(x)] as a list, elementwise in x; x is an array or a
    tape node, so the model differentiates the same recurrence."""
    if d < 1:
        raise ValueError("d must be >= 1")
    p0, p1 = _poly_seed(family, x, alpha)
    cols = [p1]
    for n in range(2, d + 1):
        p0, p1 = p1, _poly_step(family, x, n, p1, p0, alpha)
        cols.append(p1)
    return cols


def polynomial_values(family, x, d, alpha=0.5):
    """[P_1(x) .. P_d(x)] stacked on the last axis."""
    return np.stack(polynomial_columns(family, np.asarray(x, dtype=float), d, alpha),
                    axis=-1)


# ---------------------------------------------------------------------------
# wavelets


def mother_wavelet(kind, tau, params=None):
    p = dict(params or {})
    tau = np.asarray(tau, dtype=float)
    if kind == "haar":
        return np.where((tau >= 0) & (tau < 0.5), 1.0,
                        np.where((tau >= 0.5) & (tau < 1.0), -1.0, 0.0))
    if kind == "beta":
        alpha = p.get("alpha", 2.0)
        beta = p.get("beta", 2.0)
        if alpha < 1 or beta < 1:
            raise ValueError("beta wavelet needs alpha, beta >= 1")
        bnorm = math.gamma(alpha) * math.gamma(beta) / math.gamma(alpha + beta)
        inside = (tau > 0) & (tau < 1)
        t = np.where(inside, tau, 0.5)
        return np.where(inside, t ** (alpha - 1) * (1 - t) ** (beta - 1) / bnorm, 0.0)
    if kind == "ricker":
        sigma = p.get("sigma", 1.0)
        amp = 2.0 / (np.sqrt(3.0 * sigma) * np.pi ** 0.25)
        return amp * (1.0 - (tau / sigma) ** 2) * np.exp(-tau ** 2 / (2 * sigma ** 2))
    if kind == "shannon":
        out = np.ones_like(tau)  # limit value at tau = 0
        nz = tau != 0
        out[nz] = (np.sin(2 * np.pi * tau[nz]) - np.sin(np.pi * tau[nz])) / (np.pi * tau[nz])
        return out
    if kind == "dog":
        s1 = p.get("sigma1", 1.0)
        s2 = p.get("sigma2", 2.0)
        g1 = np.exp(-tau ** 2 / (2 * s1 * s1)) / (s1 * np.sqrt(2 * np.pi))
        g2 = np.exp(-tau ** 2 / (2 * s2 * s2)) / (s2 * np.sqrt(2 * np.pi))
        return g1 - g2
    if kind == "meyer":
        out = np.full_like(tau, 2.0 / 3.0 + 4.0 / (3.0 * np.pi))
        nz = tau != 0
        t = tau[nz]
        out[nz] = (np.sin(2 * np.pi / 3 * t) + 4.0 / 3.0 * t * np.cos(4 * np.pi / 3 * t)) \
            / (np.pi * t - 16 * np.pi / 9 * t ** 3)
        return out
    raise ValueError("unknown wavelet kind %r" % kind)


def child_wavelet(kind, x, s, t, a=2.0, b=1.0, params=None):
    """phi_{s,t}(x) = a^{-s/2} phi(x / a^s - t*b)."""
    if a <= 1 or b <= 0:
        raise ValueError("wavelet needs a > 1 and b > 0")
    x = np.asarray(x, dtype=float)
    tau = x / (a ** s) - t * b
    return a ** (-s / 2.0) * mother_wavelet(kind, tau, params)


def expand_wavelet(x, spec):
    x = np.asarray(x, dtype=float)
    nb, m = x.shape
    cols = []
    for s in range(spec.s_max):
        for t in range(spec.t_max):
            cols.append(child_wavelet(spec.wavelet, x, s, t, spec.a, spec.b,
                                      spec.wavelet_params))
    order1 = np.concatenate(cols, axis=1)  # b x (s_max*t_max*m)
    if spec.order == 1:
        return order1
    if spec.order == 2:
        width = order1.shape[1]
        return (order1[:, :, None] * order1[:, None, :]).reshape(nb, width * width)
    raise ValueError("wavelet order must be 1 or 2")


def expand_node(x, spec):
    """Expansion of a b x m tape node. Polynomial families run their
    recurrence elementwise on the tape (degree-major blocks); the wavelet
    expansion is value-only (`Tape.value_only`), so `train` accepts it only
    where its input needs no gradient."""
    if spec.family == "identity":
        return x
    if spec.family == "wavelet":
        return x.tape.value_only(expand_wavelet(x.value, spec), [x], "wavelet expansion")
    if x.value.ndim != 2:
        raise ValueError("expansion needs a b x m batch")
    return concat_nodes(polynomial_columns(spec.family, x, spec.d, spec.alpha))


def expand(x, spec):
    """expand_node evaluated on a gradient-free tape."""
    with Tape() as tape:
        return expand_node(tape.constant(x), spec).value


# ---------------------------------------------------------------------------
# compression


@dataclass(frozen=True)
class CompressionSpec:
    """Probabilistic compression settings (`compress_probabilistic`)."""
    method: str
    mode: str = ""
    d: int = 0
    tuple_k: int = 1
    log_likelihood: bool = False


def compress_elementwise(x, method, matrix=None):
    x = np.asarray(x, dtype=float)
    if method == "identity":
        return x
    if method == "reciprocal":
        if np.any(np.abs(x) < 1e-12):
            raise ValueError("reciprocal compression needs entries away from zero")
        return 1.0 / x
    if method == "linear":
        c = np.asarray(matrix, dtype=float)
        if c.shape[0] != x.shape[1]:
            raise ValueError("linear compression matrix row mismatch")
        return x @ c
    raise ValueError("unknown elementwise method %r" % method)


def _patch_map(vals, mapping, kind):
    """The mapping reduced along the last (patch) axis of `vals`; a 1-D patch
    gives a scalar."""
    if mapping == "norm":
        p = kind
        if p == 1:
            out = np.sum(np.abs(vals), axis=-1)
        elif p == 2:
            out = np.sqrt(np.sum(vals ** 2, axis=-1))
        elif p in ("inf", np.inf):
            out = np.max(np.abs(vals), axis=-1, initial=0.0)
        else:
            raise ValueError("norm p must be 1, 2 or inf")
    elif mapping == "entropy":
        if np.any(vals <= 0):
            raise ValueError("entropy mapping needs positive patch values")
        p = vals / vals.sum(axis=-1, keepdims=True)
        out = -np.sum(p * np.log(p), axis=-1)
    elif mapping == "metric":
        if kind == "variance":
            out = np.var(vals, axis=-1)
        elif kind == "std":
            out = np.std(vals, axis=-1)
        elif kind == "skewness":
            sd = np.std(vals, axis=-1, keepdims=True)
            flat = sd == 0
            z = (vals - vals.mean(axis=-1, keepdims=True)) / np.where(flat, 1.0, sd)
            out = np.where(flat[..., 0], 0.0, np.mean(z ** 3, axis=-1))
        else:
            raise ValueError("unknown metric kind %r" % kind)
    elif mapping == "operator":
        out = _patch_operator(vals, kind)
    else:
        raise ValueError("unknown patch mapping %r" % mapping)
    return float(out) if np.ndim(out) == 0 else out


def _patch_operator(vals, kind):
    if kind == "max":
        return np.max(vals, axis=-1)
    if kind == "min":
        return np.min(vals, axis=-1)
    if kind == "sum":
        return np.sum(vals, axis=-1)
    if kind == "prod":
        return np.prod(vals, axis=-1)
    if kind == "arith_mean":
        return np.mean(vals, axis=-1)
    if kind in ("geo_mean", "harmonic_mean"):
        # defined only for positive data; 0 for a patch with any value <= 0
        bad = np.any(vals <= 0, axis=-1)
        safe = np.where(vals <= 0, 1.0, vals)
        if kind == "geo_mean":
            out = np.exp(np.mean(np.log(safe), axis=-1))
        else:
            out = vals.shape[-1] / np.sum(1.0 / safe, axis=-1)
        return np.where(bad, 0.0, out)
    if kind == "median":
        return np.median(vals, axis=-1)
    if kind == "mode":
        # smallest of the most frequent values: the first longest run of equal
        # values in each sorted patch (NaNs form one run, as in np.unique)
        s = np.sort(vals, axis=-1)
        pos = np.arange(s.shape[-1])
        new = np.ones(s.shape, dtype=bool)
        new[..., 1:] = (s[..., 1:] != s[..., :-1]) & ~(np.isnan(s[..., 1:])
                                                        & np.isnan(s[..., :-1]))
        start = np.maximum.accumulate(np.where(new, pos, 0), axis=-1)
        # argmax finds the first position where a run reaches its longest
        best = np.argmax(pos - start, axis=-1)[..., None]
        return np.take_along_axis(s, np.take_along_axis(start, best, axis=-1), axis=-1)[..., 0]
    raise ValueError("unknown operator kind %r" % kind)


# Patch reductions whose value does not depend on the order of the patch's
# values, each as its reduction across axis 1 of a slot-major (b, p, P) gather.
_ORDER_FREE = {
    ("operator", "max"): lambda v: np.max(v, axis=1),
    ("operator", "min"): lambda v: np.min(v, axis=1),
    ("norm", "inf"): lambda v: np.max(np.abs(v), axis=1, initial=0.0),
}
_ORDER_FREE[("norm", np.inf)] = _ORDER_FREE[("norm", "inf")]


def compress_patch(x, grid, shape, packing, mapping="operator", kind="max"):
    """Per instance, per packing center: gather the zero-padded patch and
    apply the mapping. Output width = number of patches.

    One gather through the geometry's patch index, which `grid_geometry`
    resolves once per (shape, packing) and keeps on the frozen grid, with
    each patch's in-grid cells first in offset order and its zero pads last,
    then one reduction. An order-free reduction (max, min, the inf norm)
    gathers slot-major, (b, p, P), and reduces across the slots, which is
    several times faster than along short contiguous patches; where a patch
    ties -0.0 with 0.0 it may return either zero (the two compare equal), and
    a patch holding a NaN still gives NaN. Every other mapping reduces each
    patch as one contiguous run, in the order of a 1-D patch."""
    x = np.asarray(x, dtype=float)
    if x.shape[1] != grid.size:
        raise ValueError("batch width must equal the grid size")
    idx = gg._patch_tables(grid, shape, packing)[1]
    xpad = np.concatenate([x, np.zeros((x.shape[0], 1))], axis=1)
    order_free = _ORDER_FREE.get((mapping, kind)) if isinstance(kind, (str, float)) else None
    if order_free is not None:
        return order_free(np.take(xpad, idx.T, axis=1))
    # np.take keeps the gather C-contiguous, so each patch is reduced as one
    # contiguous run, in the same order as a 1-D patch (x[:, idx] is not)
    return np.asarray(_patch_map(np.take(xpad, idx, axis=1), mapping, kind), dtype=float)


# -- incremental feature selection ------------------------------------------


class SelectorState:
    def __init__(self, m, mode="variance", k=1, early_stop_epoch=None):
        if k > m:
            raise ValueError("k cannot exceed the attribute count")
        self.m = m
        self.mode = mode
        self.k = k
        self.early_stop_epoch = early_stop_epoch
        self.v_bar = np.zeros(m)
        self.t = 0
        self.sim_acc = np.zeros((m, m))
        self.frozen = False
        self.selected = None

    def freeze(self):
        self.frozen = True


def _greedy_clusters(sim, k):
    """Deterministic partition: seeds are the k mutually most dissimilar
    attributes (greedy farthest-first from attribute 0), the rest join the
    most similar seed."""
    m = sim.shape[0]
    seeds = [0]
    while len(seeds) < k:
        best, best_score = None, None
        for cand in range(m):
            if cand in seeds:
                continue
            score = max(sim[cand, s] for s in seeds)
            if best_score is None or score < best_score or \
                    (score == best_score and cand < best):
                best, best_score = cand, score
        seeds.append(best)
    clusters = {s: [s] for s in seeds}
    for i in range(m):
        if i in seeds:
            continue
        nearest = max(seeds, key=lambda s: (sim[i, s], -s))
        clusters[nearest].append(i)
    return [sorted(clusters[s]) for s in sorted(clusters)]


def select_features(state, x, mode=None, k=None):
    """Streaming selection; the running variance record follows the
    batch-averaging rule v_bar <- ((t-1) v_bar + v) / t."""
    x = np.asarray(x, dtype=float)
    mode = mode or state.mode
    k = k or state.k
    if k > state.m:
        raise ValueError("k cannot exceed the attribute count")
    if not state.frozen:
        v = x.var(axis=0)
        state.t += 1
        state.v_bar = ((state.t - 1) * state.v_bar + v) / state.t
        if mode == "cluster":
            xc = x - x.mean(axis=0)
            nrm = np.sqrt(np.sum(xc * xc, axis=0))
            nrm = np.where(nrm > 0, nrm, 1.0)
            z = xc / nrm
            cos = np.abs(z.T @ z)
            state.sim_acc = ((state.t - 1) * state.sim_acc + cos) / state.t
        if state.early_stop_epoch is not None and state.t >= state.early_stop_epoch:
            state.frozen = True
    if mode == "variance":
        order = np.lexsort((np.arange(state.m), -state.v_bar))
        selected = sorted(order[:k].tolist())
    elif mode == "cluster":
        clusters = _greedy_clusters(state.sim_acc, k)
        selected = sorted(max(c, key=lambda i: (state.v_bar[i], -i)) for c in clusters)
    else:
        raise ValueError("unknown selection mode %r" % mode)
    state.selected = selected
    return state, x[:, selected], selected


# -- dimension reduction -----------------------------------------------------


class PcaState:
    """Streaming mean/covariance accumulator; the projection basis is the
    top-k eigenvectors of the running covariance."""

    def __init__(self, m, k):
        if k > m:
            raise ValueError("k cannot exceed the attribute count")
        self.m = m
        self.k = k
        self.count = 0
        self.mean = np.zeros(m)
        self.second = np.zeros((m, m))
        self.basis = None
        self.frozen = False

    def update(self, x):
        if self.frozen:
            return
        for row in x:
            self.count += 1
            delta = row - self.mean
            self.mean += delta / self.count
            self.second += np.outer(delta, row - self.mean)
        cov = self.second / max(self.count - 1, 1)
        vals, vecs = np.linalg.eigh((cov + cov.T) / 2.0)
        order = np.argsort(vals)[::-1]
        self.basis = vecs[:, order[: self.k]]


def reduce_dimension(state, x, mode, k, prng=None, s=1.0):
    x = np.asarray(x, dtype=float)
    m = x.shape[1]
    if k > m:
        raise ValueError("k cannot exceed the attribute count")
    if mode == "ipca":
        if state is None:
            state = PcaState(m, k)
        state.update(x)
        return state, (x - state.mean) @ state.basis
    if mode in ("random_projection_gaussian", "random_projection_sparse"):
        if state is None:
            if prng is None:
                raise ValueError("random projection needs a seeded stream")
            if mode.endswith("gaussian"):
                r = prng.normals((m, k)) / np.sqrt(k)
            else:
                r = sparse_projection_matrix(prng, m, k, s)
            state = {"matrix": r}
        return state, x @ state["matrix"]
    raise ValueError("unknown reduction mode %r" % mode)


def sparse_projection_matrix(prng, m, k, s=1.0):
    """Entries +-sqrt(1/(s*k)) each with probability s/2, zero otherwise."""
    if not (0.0 < s <= 1.0):
        raise ValueError("s must be in (0, 1]")
    mag = np.sqrt(1.0 / (s * k))
    u = prng.uniforms((m, k))
    return np.where(u < s / 2.0, mag, np.where(u < s, -mag, 0.0))


# -- probabilistic compression ----------------------------------------------


def _softmax_scores(row):
    z = row - row.max()
    e = np.exp(z)
    return e / e.sum()


def compress_probabilistic(x, spec, prng):
    """Sampling-based compression.

    naive: per instance, d attributes drawn without replacement, weighted by
    softmax scores over the instance. combinatorial: d tuples drawn uniformly
    from the order-1..tuple_k combinations (uniform tuple sampling; the paper
    leaves the law unspecified), summarized by the tuple sum. The optional
    log-likelihood output maps sampled values through the standard Gaussian
    log-density.
    """
    x = np.asarray(x, dtype=float)
    b, m = x.shape
    d = spec.d
    out = np.zeros((b, d))
    if spec.mode == "naive":
        if d > m:
            raise ValueError("d cannot exceed the attribute count")
        for i in range(b):
            weights = _softmax_scores(x[i]).tolist()
            avail = list(range(m))
            picks = []
            for _ in range(d):
                j = prng.choice_weighted([weights[a] for a in avail])
                picks.append(avail.pop(j))
            out[i] = x[i, picks]
    elif spec.mode == "combinatorial":
        if not (1 <= spec.tuple_k <= 3):
            raise ValueError("tuple order must be between 1 and 3")
        tuples = []
        for order in range(1, spec.tuple_k + 1):
            tuples.extend(itertools.combinations(range(m), order))
        for i in range(b):
            for j in range(d):
                t = tuples[prng.randint(len(tuples))]
                out[i, j] = x[i, list(t)].sum()
    else:
        raise ValueError("unknown probabilistic mode %r" % spec.mode)
    if spec.log_likelihood:
        out = -0.5 * out ** 2 - 0.5 * np.log(2.0 * np.pi)
    return out
