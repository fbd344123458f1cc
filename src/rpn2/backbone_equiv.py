"""Reference implementations of classic backbones (convolution, pooling,
recurrent scan, graph convolution, attention) written the conventional way,
plus builders that configure the canonical head to reproduce each one exactly.

Each builder returns a dict with the input batch, the configured model, its
parameter store, the reference output and the comparison tolerance.
"""

import numpy as np

from . import fusion as fu
from . import grid_geometry as gg
from . import interdependence as itd
from . import model as md
from . import reconciliation as rc
from . import transformation as tf


# ---------------------------------------------------------------------------
# references, written without the head machinery


def _offset_values(x, grid, shape, packing):
    """For each patch offset, in patch_offsets order, the b x centers values
    of the cells at center + offset. They are read from the batch viewed as
    (b, h, w, d) and zero-padded with np.pad, so a cell outside the grid
    reads 0.0; the patch index is not used."""
    offsets = np.asarray(gg.patch_offsets(shape), dtype=np.int64).reshape(-1, 3)
    centers = np.asarray(gg.packing_centers(grid, packing, shape), dtype=np.int64).reshape(-1, 3)
    dims = np.array([grid.h, grid.w, grid.d])
    coords = (centers[:, None, :] + offsets[None, :, :]).reshape(-1, 3)
    lo = np.maximum(-coords.min(axis=0, initial=0), 0)
    hi = np.maximum(coords.max(axis=0, initial=0) - dims + 1, 0)
    xp = np.pad(x.reshape(x.shape[0], grid.h, grid.w, grid.d),
                [(0, 0)] + list(zip(lo.tolist(), hi.tolist())))
    for offset in offsets:
        i, j, k = (centers + offset + lo).T
        yield xp[:, i, j, k]


def ref_cross_correlation(x, grid, shape, packing, kernel):
    """Sliding zero-padded cross correlation over the flattened grid.

    Each center sums kernel[slot] * cell over the slots in offset order,
    starting from 0.0. A slot outside the grid adds kernel[slot] * 0.0, which
    leaves the sum as it is for a finite kernel."""
    x = np.asarray(x, dtype=float)
    kernel = np.asarray(kernel, dtype=float).reshape(-1)
    out = 0.0
    for slot, vals in enumerate(_offset_values(x, grid, shape, packing)):
        out = out + kernel[slot] * vals
    return out


def ref_pool(x, grid, shape, packing, kind="max"):
    """Zero-padded window pooling; each patch position contributes, cells
    outside the grid count as zeros. Each center's window is reduced as one
    contiguous run of values in offset order."""
    reduce = {"max": np.max, "min": np.min, "mean": np.mean}.get(kind)
    if reduce is None:
        raise ValueError("unknown pooling kind %r" % kind)
    x = np.asarray(x, dtype=float)
    # (b, centers, p), C-ordered: each window is contiguous
    return reduce(np.stack(list(_offset_values(x, grid, shape, packing)), axis=2), axis=2)


def ref_rnn_scan(x, u, variant="onehop"):
    """Time-step mixing over the instance axis.

    onehop: out_t = tanh(x_{t-1} @ u.T + x_t) with x_{-1} = 0, the batch form
    of the one-step mixing. recursive: the true recurrent scan
    h_t = tanh(h_{t-1} @ u.T + x_t), kept for contrast (not representable by a
    single chain layer).
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if variant == "onehop":
        prev = np.zeros_like(x)
        prev[1:] = x[:-1]
        return np.tanh(prev @ u.T + x)
    if variant == "recursive":
        out = np.zeros_like(x)
        h = np.zeros(x.shape[1])
        for t in range(x.shape[0]):
            h = np.tanh(h @ u.T + x[t])
            out[t] = h
        return out
    raise ValueError("unknown scan variant %r" % variant)


def ref_sgc(x, adj_raw, w):
    """Simplified graph convolution: sigmoid(A_hat X W.T) with the
    row-normalized self-loop adjacency."""
    a_hat = itd.normalize_adjacency(np.asarray(adj_raw, dtype=float))
    z = a_hat @ np.asarray(x, dtype=float) @ np.asarray(w, dtype=float).T
    return 1.0 / (1.0 + np.exp(-z))


def ref_attention(x, w_q, w_k, w_v, r):
    """Single-head scaled dot-product attention, row softmax."""
    x = np.asarray(x, dtype=float)
    q = x @ np.asarray(w_q, dtype=float)
    k = x @ np.asarray(w_k, dtype=float)
    scores = q @ k.T / np.sqrt(float(r))
    scores = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(scores)
    attn = e / e.sum(axis=1, keepdims=True)
    return attn @ (x @ np.asarray(w_v, dtype=float).T)


# ---------------------------------------------------------------------------
# builders: one canonical-head configuration per backbone


def _single(head):
    return md.ModelConfig([md.LayerConfig([head])])


def _patch_case(prior, x, kernels, fusion, ref, tol):
    """The patch head over the grid geometry of `prior`, a padding
    `GridStructural` spec: the padding grid matrix lays each center's window
    out as one block of slots, and duplicated padding dots every block with
    channel c's kernel; the channels are fused by `fusion`."""
    v = prior.variant
    grid, shape, packing = v.grid, v.shape, v.packing
    p = gg.patch_size(shape)
    n = len(gg.packing_centers(grid, packing, shape))
    head = md.HeadConfig(
        m=grid.size, n=n,
        expansion=tf.ExpansionSpec("identity"),
        reconciliation=rc.ReconciliationSpec("duplicated_padding", n=n, D=p * n),
        channels=len(kernels), channel_fusion=fusion, attr_prior=prior)
    store = md.ParameterStore()
    for c, kernel in enumerate(kernels):
        store.add_slot("l0.h0.c%d.psi" % c, (p,), kernel)
    return {"x": x, "model": _single(head), "store": store, "ref": ref, "tol": tol}


# the fixed geometries of the cnn and pool cases and their grid specs, built
# once so that every case reuses the grid matrix kept on its spec
_CNN_GEOMETRY = (gg.GridSpec(8, 8, 3), gg.Cuboid(1, 1, 1, 1, 1, 1),
                 gg.PackingSpec(1.0, 1.0, 1.0, clip_out_of_grid=True))
_POOL_GEOMETRY = (gg.GridSpec(8, 8, 1),
                  gg.Cuboid(0, 1, 0, 1, 0, 0),  # 2x2 window anchored at the center
                  gg.PackingSpec(2.0, 2.0, 1.0, clip_out_of_grid=True))
_CNN_PRIOR, _POOL_PRIOR = (itd.InterdependenceSpec(itd.GridStructural(*geometry, "padding"))
                           for geometry in (_CNN_GEOMETRY, _POOL_GEOMETRY))


def build_cnn_case(prng, batch=4):
    grid, shape, packing = _CNN_GEOMETRY
    x = prng.normals((batch, grid.size))
    kernel = prng.normals((gg.patch_size(shape),))
    return _patch_case(_CNN_PRIOR, x, [kernel], fu.FusionSpec("sum"),
                       ref_cross_correlation(x, grid, shape, packing, kernel), 1e-10)


def build_pool_case(prng, batch=4, kind="max"):
    """Window pooling as the patch head: channel s reads window slot s with
    the one-hot kernel e_s, and channel fusion reduces the window."""
    grid, shape, packing = _POOL_GEOMETRY
    x = prng.normals((batch, grid.size))
    ref = ref_pool(x, grid, shape, packing, kind)  # rejects an unknown kind
    fusion = fu.FusionSpec("average") if kind == "mean" else fu.FusionSpec("metric", metric=kind)
    return _patch_case(_POOL_PRIOR, x, np.eye(gg.patch_size(shape)), fusion, ref, 0.0)


def build_rnn_case(prng, steps=16, width=8):
    x = prng.normals((steps, width))
    u = prng.normals((width, width))
    head = md.HeadConfig(
        m=width, n=width,
        expansion=tf.ExpansionSpec("identity"),
        reconciliation=rc.ReconciliationSpec("identity", n=width, D=width),
        inst_prior=itd.InterdependenceSpec(
            itd.ChainStructural(steps, "uni", "onehop"), axis="instance"),
        remainder="identity",
        processors={"output": "tanh"})
    model = _single(head)
    store = md.ParameterStore()
    store.add_slot("l0.h0.c0.psi", (width * width,), u.reshape(-1))
    ref = ref_rnn_scan(x, u, "onehop")
    return {"x": x, "model": model, "store": store, "ref": ref, "tol": 1e-12}


def build_gnn_case(prng, nodes=10, width=6, out_width=4, edge_prob=0.35):
    # one draw per pair i < j in row-major order
    iu, ju = np.triu_indices(nodes, 1)
    keep = prng.uniforms(iu.size) < edge_prob
    edges = list(zip(iu[keep].tolist(), ju[keep].tolist()))
    graph = itd.Graph(nodes, edges)
    x = prng.normals((nodes, width))
    w = prng.normals((out_width, width))
    head = md.HeadConfig(
        m=width, n=out_width,
        expansion=tf.ExpansionSpec("identity"),
        reconciliation=rc.ReconciliationSpec("identity", n=out_width, D=width),
        inst_prior=itd.InterdependenceSpec(
            itd.GraphStructural(graph, "adjacency", normalization="row_selfloop"),
            axis="instance"),
        processors={"output": "sigmoid"})
    model = _single(head)
    store = md.ParameterStore()
    store.add_slot("l0.h0.c0.psi", (out_width * width,), w.reshape(-1))
    ref = ref_sgc(x, graph.adjacency(), w)
    return {"x": x, "model": model, "store": store, "ref": ref, "tol": 1e-12}


def build_transformer_case(prng, tokens=10, width=8, rank=4, out_width=6):
    x = prng.normals((tokens, width))
    w_k = prng.normals((width, rank))
    w_q = prng.normals((width, rank))
    w_v = prng.normals((out_width, width))
    head = md.HeadConfig(
        m=width, n=out_width,
        expansion=tf.ExpansionSpec("identity"),
        reconciliation=rc.ReconciliationSpec("identity", n=out_width, D=width),
        inst_prior=itd.InterdependenceSpec(
            itd.LowRankBilinear(width, rank), axis="instance",
            post_norm="scaled_col_softmax", norm_r=rank))
    model = _single(head)
    store = md.ParameterStore()
    # stored-matrix slots: first factor acts as the key map, second as query
    store.add_slot("l0.h0.inst_prior", (2 * width * rank,), rc.lorr_vector(w_k, w_q))
    store.add_slot("l0.h0.c0.psi", (out_width * width,), w_v.reshape(-1))
    ref = ref_attention(x, w_q, w_k, w_v, rank)
    return {"x": x, "model": model, "store": store, "ref": ref, "tol": 1e-10}


_BUILDERS = {
    "cnn": build_cnn_case,
    "pool": build_pool_case,
    "rnn": build_rnn_case,
    "gnn": build_gnn_case,
    "transformer": build_transformer_case,
}


def build_equivalent(kind, prng):
    if kind not in _BUILDERS:
        raise ValueError("unknown backbone kind %r" % kind)
    return _BUILDERS[kind](prng)


def run_case(kind, prng):
    """Max absolute deviation between the head output and the reference."""
    case = build_equivalent(kind, prng)
    got = md.model_forward(case["x"], case["model"], case["store"])
    return float(np.max(np.abs(got - case["ref"]))), case["tol"]
