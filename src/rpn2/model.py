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
later forward and training epoch reuses it; kernels are built per batch.
`train` folds more, because its input is the same in every epoch: per call,
it builds each layer-0 head's gradient-free prefix (input processor,
attribute prior, expansion and its processor, attribute posterior and
instance prior, up to the first station with a parameter) and any
parameter-free matrix the head applies past that prefix (a kernel at
`inst_post`) once, in the first epoch, and lifts the stored values as
constants in the later ones. Layers past the first read a gradient-carrying
input and fold nothing; `model_forward` and `diagnostics` fold nothing.
`train` also writes each epoch's gradient-carrying dense forward values
into the arrays of the epoch before (one `numeric_core.Arena` per call). A
sparse matrix, such as a grid matrix, stays a `SparseCoo` at its station:
`Node.matmul` applies it with `SparseCoo.rmatmul` and back-propagates
through its transpose, so the head never densifies it (a post_norm,
a `Hybrid` child and the diagnostics' SVD still do). `metric` fusion and
the wavelet expansion are value-only, and `train` rejects a config whose
parameters would never learn, or learn from a gradient truncated there.
A forward's tape is released once it is done with (`model_forward`,
`Tape.backward`).
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import fusion as fu
from . import interdependence as itd
from . import reconciliation as rc
from . import transformation as tf
from .numeric_core import (Arena, Node, Prng, SparseCoo, Tape, class_labels,
                           cross_entropy_node, mse_node, norm, softmax_node)


@dataclass
class HeadConfig:
    m: int
    n: int
    expansion: tf.ExpansionSpec
    reconciliation: rc.ReconciliationSpec
    channels: int = 1
    remainder: str = "zero"  # zero | identity | linear
    attr_prior: object = None
    attr_post: object = None
    inst_prior: object = None
    inst_post: object = None
    channel_fusion: fu.FusionSpec = field(default_factory=lambda: fu.FusionSpec("sum"))
    processors: dict = field(default_factory=dict)  # PROCESSOR_STATIONS -> tag
    # read nowhere: kept only because the benchmark's cnn_model passes it
    dup_blocks: tuple = ()


@dataclass
class LayerConfig:
    heads: list
    head_fusion: fu.FusionSpec = field(default_factory=lambda: fu.FusionSpec("average"))


@dataclass
class ModelConfig:
    layers: list


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


# the stations a head applies a processor at, and the processor tags
PROCESSOR_STATIONS = ("input", "expansion", "output")
_PROCESSORS = {
    "tanh": lambda node: node.tanh(),
    "sigmoid": lambda node: node.sigmoid(),
    "relu": lambda node: node.relu(),
    "softmax": lambda node: softmax_node(node, axis="row", r=1),
}


def check_processor(tag):
    """The function a processor tag applies, None for no processor (None,
    "" or "none"). An unknown tag raises ValueError."""
    if tag in (None, "", "none"):
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


# the stations a head's input passes before its channels, in order; `train`
# folds the leading ones whose output needs no gradient
_PREFIX_STATIONS = ("attr_prior", "expansion", "attr_post", "inst_prior")


def head_forward(x_node, head, param_nodes, k=0, h=0, trace=None, memo=None):
    """One head's output node (see the module docstring for the chain). The
    instance prior multiplies the expansion at its station, unless it or
    the expansion needs a gradient and channels * n < D: then it multiplies
    each channel's narrower reconciled output, before channel fusion. The
    trace records it either way."""
    # With a memo (one `train` call), a head whose input needs no gradient
    # keeps the value of its gradient-free prefix under (k, h), the input
    # processor's under (k, h, "input"), and each constant relation matrix
    # it applies past the prefix under (k, h, station); later epochs lift
    # them onto their tape in place of rebuilding them.
    fold = memo is not None and not x_node.needs_grad
    tape = x_node.tape

    def kept(key, build, *args):
        if not fold:
            return build(*args)
        if key in memo:
            return tape.constant(memo[key])
        node = build(*args)
        if isinstance(node, Node) and not node.needs_grad:
            memo[key] = node.value
        return node

    def interdep(tag, operand):
        spec = getattr(head, tag)
        if spec is None:
            return None
        pnode = param_nodes.get("l%d.h%d.%s" % (k, h, tag))
        if operand.needs_grad:  # past the prefix
            return kept((k, h, tag), itd.build_node, spec, x_station, pnode)
        return itd.build_node(spec, x_station, pnode)

    if x_node.shape[1] != head.m:
        raise ValueError("head l%d.h%d declares m = %d, but its input is %d wide"
                         % (k, h, head.m, x_node.shape[1]))
    proc = check_processor(head.processors.get("input"))
    x_station = x_node if proc is None else kept((k, h, "input"), proc, x_node)
    recon = head.reconciliation
    done, cur, deferred = 0, x_station, None
    if fold and (k, h) in memo:
        done, value = memo[(k, h)]
        cur = tape.constant(value)
    for i, tag in enumerate(_PREFIX_STATIONS[done:], done + 1):
        if tag == "expansion":
            cur = tf.expand_node(cur, head.expansion)
            cur = _apply_processor(cur, head.processors.get("expansion"))
        else:
            a = interdep(tag, cur)
            if a is None:
                continue
            if tag != "inst_prior":
                cur = cur.matmul(a)
            else:
                if trace is not None:
                    trace.setdefault("instance_matrices", []).append(
                        ("l%d.h%d.inst_prior" % (k, h),
                         a.to_dense() if isinstance(a, SparseCoo) else a.value))
                if ((cur.needs_grad or getattr(a, "needs_grad", False))
                        and head.channels * recon.n < recon.D):
                    # every reconciliation is a right product, so the
                    # matrix may multiply the narrower reconciled outputs;
                    # the memo must not skip this station in a later epoch
                    deferred = a
                    continue
                cur = _instance_apply(a, cur)
        if fold and not cur.needs_grad and cur is not x_station:
            memo[(k, h)] = (i, cur.value)

    outs = [rc.reconciled_product(cur, recon, param_nodes.get("l%d.h%d.c%d.psi" % (k, h, c)))
            for c in range(head.channels)]
    if deferred is not None:
        outs = [_instance_apply(deferred, o) for o in outs]
    out = fu.fuse_nodes(outs, head.channel_fusion, param_nodes.get("l%d.h%d.cfuse" % (k, h)))
    a_iq = interdep("inst_post", out)
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


def layer_forward(x_node, layer, param_nodes, k=0, trace=None, memo=None):
    outs = [head_forward(x_node, head, param_nodes, k, h, trace, memo)
            for h, head in enumerate(layer.heads)]
    return fu.fuse_nodes(outs, layer.head_fusion, param_nodes.get("l%d.hfuse" % k))


def model_forward_nodes(x, model, store, trace=None, memo=None, arena=None):
    """Output node, tape and parameter nodes of one forward. `train` passes
    one memo dict (see `head_forward`) and one `Arena` for all its epochs."""
    tape = Tape(arena)
    param_nodes = make_param_nodes(tape, store)
    cur = tape.constant(np.asarray(x, dtype=float))
    for k, layer in enumerate(model.layers):
        cur = layer_forward(cur, layer, param_nodes, k, trace, memo)
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


def train(model, x, y, loss="mse", optimizer=None, epochs=100, seed=0, store=None):
    """Full-batch gradient training; deterministic given the seed.

    `loss="mse"` needs `y` in the output's shape; a 1-D `y` is read as one
    column. `loss="cross_entropy"` needs one integer label in [0, columns)
    per output row. Both are checked against the output of epoch 0's
    forward, which runs before the loop, so a wrong target raises ValueError
    before any update, even at `epochs=0`. After epoch 0's backward, a
    parameter that no gradient reaches, or a gradient cut by a value-only op
    (wavelet expansion, metric fusion, a data kernel on a gradient-carrying
    input), raises ValueError before any update.

    The input is the same in every epoch, so each layer-0 head's
    gradient-free prefix (and any constant relation matrix it applies past
    that prefix) is built in the first epoch and lifted as a constant in
    the later ones. Every epoch also repeats the last one's ops, so the
    forward values of the dense ops that carry a gradient are written into
    arrays of an `Arena` that are handed out again in the next epoch,
    instead of being freed to the system allocator and page-faulted back.
    The memo and the arena live as long as this call, and nothing this call
    returns is held by either. Before epoch 0, `store.vector` is replaced by
    a copy, which the updates then change in place, together with the
    optimizer's moments, so an array the caller holds is not changed."""
    opt = dict(optimizer or {})
    kind = opt.get("kind", "sgd")
    lr = float(opt.get("lr", 0.01))
    if loss not in ("mse", "cross_entropy"):
        raise ValueError("unknown loss %r" % loss)
    if kind not in ("sgd", "adaptive_moments"):
        raise ValueError("unknown optimizer %r" % kind)
    if epochs < 0:
        raise ValueError("epochs must be >= 0, got %d" % epochs)
    if store is None:
        store = init_store(model, seed)
    x = np.asarray(x, dtype=float)
    velocity = np.zeros_like(store.vector)
    m1 = np.zeros_like(store.vector)
    m2 = np.zeros_like(store.vector)
    history = History()
    memo = {}  # epoch-invariant values of this call's forwards (head_forward)
    arena = Arena()
    start = time.perf_counter()
    arena.recycle()  # every epoch's forward, this first one too, starts here
    out, tape, _ = model_forward_nodes(x, model, store, memo=memo, arena=arena)
    if loss == "mse":
        y = np.asarray(y, dtype=float)
        target = y[:, None] if y.ndim == 1 else y
        if target.shape != out.shape:
            raise ValueError("mse needs a target of the output's shape %s, got %s"
                             % (out.shape, y.shape))
    else:
        y = class_labels(y, *out.shape)
    store.vector = store.vector.copy()  # updated in place below, not the caller's array
    for epoch in range(epochs):
        if epoch:  # epoch 0's forward ran above, before the target checks
            start = time.perf_counter()
            arena.recycle()  # the last epoch's tape and gradients are spent
            out, tape, _ = model_forward_nodes(x, model, store, memo=memo, arena=arena)
        if loss == "mse":
            loss_node = mse_node(out, target)
            metric = float(np.asarray(loss_node.value).reshape(-1)[0])
        else:  # cross_entropy
            loss_node = cross_entropy_node(out, y)
            metric = float((np.argmax(out.value, axis=1) == np.asarray(y)).mean())
        lv = float(np.asarray(loss_node.value).reshape(-1)[0])
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
