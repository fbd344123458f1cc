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


def ref_cross_correlation(x, grid, shape, packing, kernel):
    """Sliding zero-padded cross correlation over the flattened grid."""
    x = np.asarray(x, dtype=float)
    kernel = np.asarray(kernel, dtype=float).reshape(-1)
    offsets = gg.patch_offsets(shape)
    centers = gg.packing_centers(grid, packing, shape)
    out = np.zeros((x.shape[0], len(centers)))
    for ci, (i0, j0, k0) in enumerate(centers):
        for slot, (di, dj, dk) in enumerate(offsets):
            i, j, k = i0 + di, j0 + dj, k0 + dk
            if 0 <= i < grid.h and 0 <= j < grid.w and 0 <= k < grid.d:
                out[:, ci] += kernel[slot] * x[:, gg.index_of((i, j, k), grid)]
    return out


def ref_pool(x, grid, shape, packing, kind="max"):
    """Zero-padded window pooling; each patch position contributes, cells
    outside the grid count as zeros."""
    x = np.asarray(x, dtype=float)
    offsets = gg.patch_offsets(shape)
    centers = gg.packing_centers(grid, packing, shape)
    p = len(offsets)
    out = np.zeros((x.shape[0], len(centers)))
    for ci, (i0, j0, k0) in enumerate(centers):
        vals = np.zeros((x.shape[0], p))
        for slot, (di, dj, dk) in enumerate(offsets):
            i, j, k = i0 + di, j0 + dj, k0 + dk
            if 0 <= i < grid.h and 0 <= j < grid.w and 0 <= k < grid.d:
                vals[:, slot] = x[:, gg.index_of((i, j, k), grid)]
        if kind == "max":
            out[:, ci] = vals.max(axis=1)
        elif kind == "min":
            out[:, ci] = vals.min(axis=1)
        elif kind == "mean":
            out[:, ci] = vals.mean(axis=1)
        else:
            raise ValueError("unknown pooling kind %r" % kind)
    return out


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


def build_cnn_case(prng, batch=4):
    grid = gg.GridSpec(8, 8, 3)
    shape = gg.Cuboid(1, 1, 1, 1, 1, 1)
    packing = gg.PackingSpec(1.0, 1.0, 1.0, clip_out_of_grid=True)
    p = gg.patch_size(shape)
    centers = gg.packing_centers(grid, packing, shape)
    p_count = len(centers)
    x = prng.normals((batch, grid.size))
    kernel = prng.normals((p,))

    head = md.HeadConfig(
        m=grid.size, n=p_count,
        expansion=tf.ExpansionSpec("identity"),
        reconciliation=rc.ReconciliationSpec("duplicated_padding", n=p_count,
                                             D=p * p_count, p=p, p_count=p_count),
        attr_prior=itd.InterdependenceSpec(
            itd.GridStructural(grid, shape, packing, "padding")),
        dup_blocks=(p_count, p))
    model = _single(head)
    store = md.ParameterStore()
    store.add_slot("l0.h0.c0.psi", (p,), kernel)
    ref = ref_cross_correlation(x, grid, shape, packing, kernel)
    return {"x": x, "model": model, "store": store, "ref": ref, "tol": 1e-10}


def build_pool_case(prng, batch=4, kind="max"):
    grid = gg.GridSpec(8, 8, 1)
    shape = gg.Cuboid(0, 1, 0, 1, 0, 0)  # 2x2 window anchored at the center
    packing = gg.PackingSpec(2.0, 2.0, 1.0, clip_out_of_grid=True)
    x = prng.normals((batch, grid.size))
    got = tf.compress_patch(x, grid, shape, packing, "operator",
                            "max" if kind == "max" else "arith_mean")
    ref = ref_pool(x, grid, shape, packing, kind)
    return {"x": x, "got": got, "ref": ref, "tol": 0.0}


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
    store.add_slot("l0.h0.inst_prior", (2 * width * rank,),
                   np.concatenate([w_k.reshape(-1), w_q.reshape(-1)]))
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
    if "got" in case:
        got = case["got"]
    else:
        got = md.model_forward(case["x"], case["model"], case["store"])
    return float(np.max(np.abs(got - case["ref"]))), case["tol"]
