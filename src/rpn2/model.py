"""Head/layer/model composition, training and diagnostics.

A head computes
    inst_post.T @ fuse_c( inst_prior.T @ kappa(X @ attr_prior) @ attr_post @ psi_c(w_c).T )
plus the remainder of the head input, with processors applied at their
stations: each channel c reconciles with its own psi_c, and
`fusion.fuse_nodes` fuses a head's channels and a layer's heads, one of
them too; layers are stacked. The chain runs narrow-first: lorr and vera
multiply through their thin factors (`reconciled_product`), and an
instance prior that needs a gradient, or multiplies an input that does,
is applied to each channel's b x n reconciled output instead of the b x D
expansion when channels * n < D. That is exact in real arithmetic, because
every reconciliation is a right product.

The head only chains stations; each component dispatches its own variants
on the tape: `interdependence.build_node` every relation matrix,
`transformation.expand_node` the expansion and
`reconciliation.reconciled_product` the per-channel product. The numpy entry
points (`build_matrix`, `expand`, `reconcile`, `fuse`, `apply_post_norm`)
evaluate the same code on a gradient-free tape.

Parameter-free interdependence matrices are constants (no gradient flows
through them). Structure (identity, grid, chain and graph matrices) is
resolved once per spec: built on first use and kept on the spec, so every
later forward reuses it; kernels are built per batch. `train` builds its
tape once per call, in epoch 0, and replays it in every later epoch
(`Tape.replay`): only the nodes that depend on a parameter are evaluated
again, in place, so a kernel, an expansion of the input or any other
constant is built once per call. `model_forward` and `diagnostics` build a
tape per call and never replay it. A sparse matrix, such as a grid matrix,
stays a `SparseCoo` at its station: `Node.matmul` applies it with
`SparseCoo.rmatmul` and back-propagates through its transpose, so the head
never densifies it (a post_norm, a `Hybrid` child and the diagnostics' SVD
still do). `metric` fusion and
the wavelet expansion are value-only, and `train` rejects a config whose
parameters would never learn, or learn from a gradient truncated there.
A forward's tape is released once it is done with (`model_forward`,
`diagnostics`, and `train` when it returns or raises).
"""

import time
from dataclasses import InitVar, dataclass, field
from typing import Literal

import numpy as np

from . import fusion as fu
from . import interdependence as itd
from . import reconciliation as rc
from . import transformation as tf
from .numeric_core import (Prng, SparseCoo, Tape, check_params, class_labels,
                           cross_entropy_node, mse_node, norm, softmax_node)


# the stations a head applies a processor at, the processor tags, and no processor
PROCESSOR_STATIONS = ("input", "expansion", "output")
_PROCESSORS = {
    "tanh": lambda node: node.tanh(),
    "sigmoid": lambda node: node.sigmoid(),
    "relu": lambda node: node.relu(),
    "softmax": lambda node: softmax_node(node, axis="row", r=1),
}
_NO_PROCESSOR = (None, "", "none")


@dataclass
class HeadConfig:
    m: int
    n: int
    reconciliation: rc.ReconciliationSpec
    expansion: tf.ExpansionSpec = field(default_factory=tf.ExpansionSpec)
    channels: int = 1
    remainder: str = "zero"  # zero | identity | linear
    attr_prior: itd.InterdependenceSpec = None
    attr_post: itd.InterdependenceSpec = None
    inst_prior: itd.InterdependenceSpec = None
    inst_post: itd.InterdependenceSpec = None
    channel_fusion: fu.FusionSpec = field(default_factory=lambda: fu.FusionSpec("sum"))
    processors: dict[Literal[PROCESSOR_STATIONS],
                     Literal[_NO_PROCESSOR + tuple(_PROCESSORS)]] = field(default_factory=dict)
    # init-only and read nowhere: accepted because the benchmark's cnn_model passes it
    dup_blocks: InitVar[tuple] = ()


@dataclass
class LayerConfig:
    heads: list[HeadConfig]
    head_fusion: fu.FusionSpec = field(default_factory=lambda: fu.FusionSpec("average"))


@dataclass
class ModelConfig:
    layers: list[LayerConfig]


class ParameterStore:
    """Flat parameter vector with a named slot map."""

    def __init__(self):
        self.vector = np.zeros(0)
        self.slots = {}  # name -> (offset, length, shape)

    def add_slot(self, name, shape, init=None):
        length = int(np.prod(shape)) if shape else 0
        off = self.vector.size
        self.slots[name] = (off, length, tuple(shape))
        self.vector = np.concatenate([self.vector, np.zeros(length)])
        if init is not None:
            self.set(name, init)
        return name

    def get(self, name):
        off, length, shape = self.slots[name]
        return self.vector[off: off + length].reshape(shape)

    def set(self, name, values):
        off, length, shape = self.slots[name]
        self.vector[off: off + length] = np.asarray(values, dtype=float).reshape(-1)

    def total(self):
        return self.vector.size


_INTERDEP_TAGS = ("attr_prior", "attr_post", "inst_prior", "inst_post")


def _slot_walk(model):
    """(name, shape, init scale) of every candidate slot, in vector order;
    head fusion weights are unscaled (a factor of 1.0 changes no float). A
    head's `n` must be the width its channel fusion gives (`fusion.out_width`)."""
    for k, layer in enumerate(model.layers):
        for h, head in enumerate(layer.heads):
            pre = "l%d.h%d." % (k, h)
            recon = head.reconciliation
            widths = (recon.n,) * head.channels
            if head.channels < 1:
                raise ValueError("head l%d.h%d has %d channels; it needs at least one"
                                 % (k, h, head.channels))
            width = fu.out_width(head.channel_fusion, widths)
            if head.n != width:
                raise ValueError("head l%d.h%d declares n = %d, but its %s reconciliation "
                                 "(n = %d) under %s channel fusion gives width %d"
                                 % (k, h, head.n, recon.method, recon.n,
                                    head.channel_fusion.strategy, width))
            scale = 1.0 / np.sqrt(max(1, head.m))
            for tag in _INTERDEP_TAGS:
                spec = getattr(head, tag)
                if spec is not None:
                    yield pre + tag, (itd.param_length(spec),), scale
            for c in range(head.channels):
                yield pre + "c%d.psi" % c, (rc.param_length(recon),), scale
            if head.remainder == "linear":
                yield pre + "pi", (head.m, head.n), scale
            yield pre + "cfuse", (fu.param_length(head.channel_fusion, widths),), scale
        yield "l%d.hfuse" % k, (fu.param_length(layer.head_fusion,
                                                [h.n for h in layer.heads]),), 1.0


def init_store(model, seed=0):
    store = ParameterStore()
    prng = Prng(seed)
    for name, shape, scale in _slot_walk(model):
        if shape != (0,):  # empty vector slots are skipped; the (m, n) remainder never is
            store.add_slot(name, shape, (prng.derive(name).uniforms(shape) * 2 - 1) * scale)
    return store


def make_param_nodes(tape, store):
    return {name: tape.parameter(store.get(name), name=name) for name in store.slots}


# ---------------------------------------------------------------------------
# forward


def check_processor(tag):
    """The function a processor tag applies, None for no processor (None,
    "" or "none"). An unknown tag raises ValueError."""
    if tag in _NO_PROCESSOR:
        return None
    if isinstance(tag, str) and tag in _PROCESSORS:
        return _PROCESSORS[tag]
    raise ValueError("unknown processor %r; expected one of %s"
                     % (tag, ", ".join(_PROCESSORS)))


def _apply_processor(node, tag):
    fn = check_processor(tag)
    return node if fn is None else fn(node)


def _instance_apply(a, cur):
    """stored.T @ cur; a sparse stored matrix runs as (cur.T @ stored).T."""
    if isinstance(a, SparseCoo):
        return cur.transpose().matmul(a).transpose()
    return a.transpose().matmul(cur)


# the stations a head's input passes before its channels, in order
_PREFIX_STATIONS = ("attr_prior", "expansion", "attr_post", "inst_prior")


def head_forward(x_node, head, param_nodes, k=0, h=0, trace=None):
    """One head's output node (see the module docstring for the chain). The
    instance prior multiplies the expansion at its station, unless it or
    the expansion needs a gradient and channels * n < D: then it multiplies
    each channel's narrower reconciled output, before channel fusion. The
    trace records it either way."""
    def interdep(tag):
        spec = getattr(head, tag)
        if spec is None:
            return None
        return itd.build_node(spec, x_station, param_nodes.get("l%d.h%d.%s" % (k, h, tag)))

    if x_node.shape[1] != head.m:
        raise ValueError("head l%d.h%d declares m = %d, but its input is %d wide"
                         % (k, h, head.m, x_node.shape[1]))
    x_station = _apply_processor(x_node, head.processors.get("input"))
    recon = head.reconciliation
    cur, deferred = x_station, None
    for tag in _PREFIX_STATIONS:
        if tag == "expansion":
            cur = tf.expand_node(cur, head.expansion)
            cur = _apply_processor(cur, head.processors.get("expansion"))
            continue
        a = interdep(tag)
        if a is None:
            continue
        if tag != "inst_prior":
            cur = cur.matmul(a)
            continue
        if trace is not None:
            trace.setdefault("instance_matrices", []).append(
                ("l%d.h%d.inst_prior" % (k, h),
                 a.to_dense() if isinstance(a, SparseCoo) else a.value))
        if ((cur.needs_grad or getattr(a, "needs_grad", False))
                and head.channels * recon.n < recon.D):
            # every reconciliation is a right product, so the matrix may
            # multiply the narrower reconciled outputs
            deferred = a
        else:
            cur = _instance_apply(a, cur)

    outs = [rc.reconciled_product(cur, recon, param_nodes.get("l%d.h%d.c%d.psi" % (k, h, c)))
            for c in range(head.channels)]
    if deferred is not None:
        outs = [_instance_apply(deferred, o) for o in outs]
    out = fu.fuse_nodes(outs, head.channel_fusion, param_nodes.get("l%d.h%d.cfuse" % (k, h)))
    a_iq = interdep("inst_post")
    if a_iq is not None:
        out = _instance_apply(a_iq, out)

    if head.remainder == "identity":
        if out.shape != x_station.shape:
            raise ValueError("head l%d.h%d: an identity remainder needs an output of the input's "
                             "shape %s, got %s" % (k, h, x_station.shape, out.shape))
        out = out + x_station
    elif head.remainder == "linear":
        w_pi = param_nodes["l%d.h%d.pi" % (k, h)]
        out = out + x_station.matmul(w_pi)
    elif head.remainder != "zero":
        raise ValueError("head l%d.h%d: unknown remainder %r" % (k, h, head.remainder))
    return _apply_processor(out, head.processors.get("output"))


def layer_forward(x_node, layer, param_nodes, k=0, trace=None):
    outs = [head_forward(x_node, head, param_nodes, k, h, trace)
            for h, head in enumerate(layer.heads)]
    return fu.fuse_nodes(outs, layer.head_fusion, param_nodes.get("l%d.hfuse" % k))


def model_forward_nodes(x, model, store, trace=None):
    """Output node, tape and parameter nodes of one forward. The parameter
    nodes are views of `store.vector`, so the tape replays at the values an
    in-place update writes there."""
    tape = Tape()
    param_nodes = make_param_nodes(tape, store)
    cur = tape.constant(np.asarray(x, dtype=float))
    for k, layer in enumerate(model.layers):
        cur = layer_forward(cur, layer, param_nodes, k, trace)
    return cur, tape, param_nodes


def model_forward(x, model, store):
    out, tape, _ = model_forward_nodes(x, model, store)
    tape.release()
    return out.value


# ---------------------------------------------------------------------------
# training


def _flatten_grads(store, grads):
    flat = np.zeros_like(store.vector)
    for name, g in grads.items():
        off, length, _ = store.slots[name]
        flat[off: off + length] = np.asarray(g).reshape(-1)
    return flat


class History:
    """One row per epoch: the loss and metric of the parameters the epoch
    started from, the 2-norm of their gradient, the 2-norm of the parameters
    after its update, and the wall time of the whole step."""

    def __init__(self):
        self.epochs = []

    def append(self, epoch, loss, metric, step_seconds, grad_norm, param_norm):
        self.epochs.append({"epoch": epoch, "loss": loss, "metric": metric,
                            "step_seconds": step_seconds, "grad_norm": grad_norm,
                            "param_norm": param_norm})


# the keys each optimizer kind reads
OPTIMIZER_KEYS = {"sgd": ("kind", "lr", "momentum"),
                   "adaptive_moments": ("kind", "lr", "beta1", "beta2", "eps")}


def train(model, x, y, loss="mse", optimizer=None, epochs=100, seed=0, store=None):
    """Full-batch gradient training; deterministic given the seed.

    `optimizer` is a dict: sgd reads `lr` (0.01) and `momentum` (0),
    adaptive_moments `lr`, `beta1` (0.9), `beta2` (0.999) and `eps` (1e-8);
    a key its kind does not read raises ValueError. `loss="mse"` needs `y`
    in the output's shape; a 1-D `y` is read as one column.
    `loss="cross_entropy"` needs one integer label in [0, columns) per
    output row. Both are checked once, against the output of epoch 0's
    forward, which runs before the loop, so a wrong target raises ValueError
    before any update, even at `epochs=0`. After epoch 0's backward, a
    parameter that no gradient reaches, or a gradient cut by a value-only op
    (wavelet expansion, metric fusion, a data kernel on a gradient-carrying
    input), raises ValueError before any update.

    The tape of epoch 0's forward and loss is built once per call, and every
    later epoch replays it (`Tape.replay`) at the updated parameters before
    its backward: the input is the same in every epoch, so only the nodes
    that depend on a parameter are evaluated again, each into the array it
    already holds. Epoch 0's `step_seconds` includes building the tape. The
    tape is released when the call returns or raises, and nothing the call
    returns holds it. The parameter nodes view a copy of `store.vector`,
    which replaces `store.vector` once the target checks pass; the updates
    then change it in place, together with the optimizer's moments, so an
    array the caller holds is not changed."""
    kind = dict(optimizer or {}).get("kind", "sgd")
    if loss not in ("mse", "cross_entropy"):
        raise ValueError("unknown loss %r" % loss)
    if kind not in OPTIMIZER_KEYS:
        raise ValueError("unknown optimizer %r" % kind)
    opt = check_params(optimizer, OPTIMIZER_KEYS[kind], "the %s optimizer" % kind)
    lr = float(opt.get("lr", 0.01))
    if epochs < 0:
        raise ValueError("epochs must be >= 0, got %d" % epochs)
    if store is None:
        store = init_store(model, seed)
    x = np.asarray(x, dtype=float)
    velocity = np.zeros_like(store.vector)
    m1 = np.zeros_like(store.vector)
    m2 = np.zeros_like(store.vector)
    history = History()
    work = ParameterStore()  # the vector the updates change, not the caller's array
    work.slots, work.vector = store.slots, store.vector.copy()
    start = time.perf_counter()
    out, tape, _ = model_forward_nodes(x, model, work)
    try:
        if loss == "mse":
            y = np.asarray(y, dtype=float)
            target = y[:, None] if y.ndim == 1 else y
            if target.shape != out.shape:
                raise ValueError("mse needs a target of the output's shape %s, got %s"
                                 % (out.shape, y.shape))
            loss_node = mse_node(out, target)
        else:
            y = class_labels(y, *out.shape)
            loss_node = cross_entropy_node(out, y)
        store.vector = work.vector
        for epoch in range(epochs):
            if epoch:  # epoch 0's forward ran above, before the target checks
                start = time.perf_counter()
                tape.replay()
            lv = float(loss_node.value[0, 0])
            if loss == "mse":
                metric = lv
            else:
                metric = float((np.argmax(out.value, axis=1) == y).mean())
            if not np.isfinite(lv):
                raise FloatingPointError("non-finite loss at epoch %d" % epoch)
            grads = tape.backward(loss_node)
            if epoch == 0:
                missing = [name for name in store.slots if name not in grads]
                if missing:
                    raise ValueError("no gradient reaches %s; the config cannot learn them"
                                     % ", ".join(missing))
                if tape.cuts:
                    raise ValueError("no gradient passes a value-only %s, yet parameters "
                                     "upstream of it need one; training would follow a "
                                     "truncated gradient" % " or ".join(sorted(set(tape.cuts))))
            g = _flatten_grads(store, grads)
            # in place, each in the operand order of its out-of-place form
            # (v = mom * v - lr * g, ...), so the trained bytes do not change
            if kind == "sgd":
                mom = float(opt.get("momentum", 0.0))
                np.multiply(velocity, mom, out=velocity)
                velocity -= lr * g
                store.vector += velocity
            else:  # adaptive_moments
                b1 = float(opt.get("beta1", 0.9))
                b2 = float(opt.get("beta2", 0.999))
                eps = float(opt.get("eps", 1e-8))
                np.multiply(m1, b1, out=m1)
                m1 += (1 - b1) * g
                np.multiply(m2, b2, out=m2)
                m2 += (1 - b2) * g * g
                t = epoch + 1
                m1h = m1 / (1 - b1 ** t)
                m2h = m2 / (1 - b2 ** t)
                store.vector -= lr * m1h / (np.sqrt(m2h) + eps)
            history.append(epoch, lv, metric, time.perf_counter() - start,
                           float(np.linalg.norm(g)), float(np.linalg.norm(store.vector)))
    finally:
        tape.release()
    return history, store


# ---------------------------------------------------------------------------
# diagnostics


def diagnostics(model, x, store):
    """Per layer: numerical rank and norm terms of instance interdependence
    matrices, nonzero ratios, and the exact learnable parameter totals."""
    trace = {}
    out, tape, _ = model_forward_nodes(x, model, store, trace=trace)
    tape.release()
    report = {"layers": [], "parameter_total": store.total(),
              "slots": {name: store.slots[name][1] for name in store.slots}}
    x = np.asarray(x, dtype=float)
    for name, a in trace.get("instance_matrices", []):
        applied = a.T  # the matrix that left-multiplies the batch
        s = np.linalg.svd(applied, compute_uv=False)
        rank = int(np.sum(s > 1e-10 * (s[0] if s.size else 1.0)))
        entry = {
            "matrix": name,
            "rank": rank,
            "vc_rank_bound": min(rank, x.shape[1]),
            "norm_infinity": norm(applied, "infinity"),
            "nnz": int(np.count_nonzero(applied)),
            "nnz_ratio": float(np.count_nonzero(applied)) / applied.size,
        }
        if applied.shape[1] == x.shape[0]:
            entry["norm_two_to_infinity_ax"] = norm(applied @ x, "two_to_infinity")
        report["layers"].append(entry)
    report["output_shape"] = list(out.value.shape)
    return report
