"""Fusion functions combining relation matrices or head/channel outputs."""

import functools
import operator
from dataclasses import dataclass

import numpy as np

from . import reconciliation as rc
from .numeric_core import Tape, as_dense, concat_nodes


@dataclass(frozen=True)
class FusionSpec:
    strategy: str  # weighted_sum | average | sum | metric | hadamard | concat_linear
    weights: tuple = ()  # weighted_sum: one fixed weight per input; empty learns them
    metric: str = "max"
    target: int = 0      # concat_linear output width
    low_rank: int = 0    # concat_linear: rank of a low-rank map, 0 for a full one


def _concat_fabric(spec, total):
    """Reconciliation spec of the total x target concat_linear map."""
    return rc.ReconciliationSpec("lorr" if spec.low_rank else "identity",
                                 n=total, D=spec.target, rank=spec.low_rank)


def param_length(spec, widths):
    """Learned-parameter count of fusing inputs of these column widths."""
    if spec.strategy == "weighted_sum" and not spec.weights:
        return len(widths)
    if spec.strategy == "concat_linear":
        return rc.param_length(_concat_fabric(spec, sum(widths)))
    return 0


def out_width(spec, widths):
    """Column width of fusing inputs of these widths: concat_linear's target, else theirs."""
    return spec.target if spec.strategy == "concat_linear" else widths[0]


def fuse(inputs, spec, params=None):
    """Fusion of plain matrices; evaluates fuse_nodes on a gradient-free tape."""
    with Tape() as tape:
        nodes = [tape.constant(as_dense(a)) for a in inputs]
        param_node = None if params is None else tape.constant(params)
        return fuse_nodes(nodes, spec, param_node).value


_METRICS = {
    "max": lambda stack: stack.max(axis=0),
    "min": lambda stack: stack.min(axis=0),
    "prod": lambda stack: stack.prod(axis=0),
    "median": lambda stack: np.median(stack, axis=0),
}


def fuse_nodes(nodes, spec, param_node=None):
    """Fused tape node of matrix, head or channel output nodes. Every fusion
    runs, of one input too, but a parameter-free one with no fixed weights
    (sum, average, hadamard, metric) returns a lone input as it is, adding no node."""
    k = len(nodes)
    if k == 0:
        raise ValueError("nothing to fuse")
    shapes = [n.value.shape for n in nodes]
    need = param_length(spec, [s[-1] for s in shapes])
    given = 0 if param_node is None else param_node.value.size
    if given != need:
        raise ValueError("%s fusion of %d inputs needs %d parameters, got %d"
                         % (spec.strategy, k, need, given))
    if spec.strategy == "metric" and spec.metric not in _METRICS:
        raise ValueError("unknown fusion metric %r" % spec.metric)
    if k == 1 and spec.strategy in ("sum", "average", "hadamard", "metric"):
        return nodes[0]
    if spec.strategy == "concat_linear":
        if any(s[0] != shapes[0][0] for s in shapes):
            raise ValueError("concat_linear inputs must share row counts")
    elif shapes.count(shapes[0]) != k:
        raise ValueError("fusion inputs must share a shape")
    if spec.strategy in ("sum", "average"):
        out = functools.reduce(operator.add, nodes)
        return out if spec.strategy == "sum" else out.scale(1.0 / k)
    if spec.strategy == "hadamard":
        return functools.reduce(operator.mul, nodes)
    if spec.strategy == "weighted_sum":
        weights = ([float(w) for w in spec.weights]
                   or [param_node.take(i, i + 1) for i in range(k)])
        if len(weights) != k:
            raise ValueError("need one weight per input")
        return functools.reduce(operator.add, [n * w for n, w in zip(nodes, weights)])
    if spec.strategy == "metric":
        return nodes[0].tape.value_only(
            _METRICS[spec.metric](np.stack([n.value for n in nodes])), nodes, "metric fusion")
    if spec.strategy == "concat_linear":
        cat = concat_nodes(nodes)
        if spec.low_rank:
            # cat @ P @ Q^T: P Q^T is never formed
            p, q = rc.lorr_factors(param_node, cat.shape[1], spec.target, spec.low_rank)
            return cat.matmul(p).matmul(q.transpose())
        return cat.matmul(rc.reconcile_node(_concat_fabric(spec, cat.shape[1]), param_node))
    raise ValueError("unknown fusion strategy %r" % spec.strategy)
