"""Parameter reconciliation: fabricate the n x D coefficient matrix from a
short parameter vector.

The fabricated matrix is laid out n x D and is applied as `expanded @ psi.T`;
`reconciled_product` applies the low-rank ones through their factors and
never forms them.
This is the one module that lays learnable matrices out in parameter vectors.
Frozen random factors are drawn once per spec with Box-Muller over the
package's splitmix stream, so reconstruction from the same seed is
bit-identical.
"""

from dataclasses import dataclass

import numpy as np

from .numeric_core import Prng, Tape


# the methods that read each optional field; every other method needs it 0
_READERS = {"rank": ("lorr", "vera", "hypernet_lowrank"),
            "mid": ("hypernet_lowrank",), "input_len": ("hypernet_lowrank",),
            "seed": ("vera", "hypernet_lowrank"),
            "p": ("duplicated_padding",), "p_count": ("duplicated_padding",)}


@dataclass(frozen=True)
class ReconciliationSpec:
    """Frozen, because its random factors are kept on it (`frozen_randoms`).
    A duplicated padding is n blocks of D / n: psi repeats one vector of
    D / n entries on its n diagonal blocks. A field that the method does not
    read (`rank`, `mid`, `input_len`, `seed`, `p`, `p_count`) must be 0, so
    that no size is given and silently ignored."""

    method: str  # identity | constant_eye | duplicated_padding | lorr | vera | hypernet_lowrank
    n: int
    D: int
    rank: int = 0
    mid: int = 0          # hypernet hidden width d
    input_len: int = 0    # hypernet declared |w|
    p: int = 0            # duplicated_padding: 0 or D / n; 0 for every other method
    p_count: int = 0      # duplicated_padding: 0 or n; 0 for every other method
    seed: int = 0

    def __post_init__(self):
        if self.method == "duplicated_padding" and (
                self.n < 1 or self.D % self.n or self.p not in (0, self.D // self.n)
                or self.p_count not in (0, self.n)):
            raise ValueError("duplicated_padding needs D = %d to be a multiple of n = %d, "
                             "and p = %d and p_count = %d to be 0 or D / n and n"
                             % (self.D, self.n, self.p, self.p_count))
        unread = ["%s = %d" % (key, getattr(self, key)) for key, methods in _READERS.items()
                  if getattr(self, key) and self.method not in methods]
        if unread:
            raise ValueError("%s reconciliation reads no %s; set it to 0"
                             % (self.method, " or ".join(unread)))


def param_length(spec):
    if spec.method == "identity":
        return spec.n * spec.D
    if spec.method == "constant_eye":
        return 0
    if spec.method == "duplicated_padding":
        return spec.D // spec.n
    if spec.method == "lorr":
        return (spec.n + spec.D) * spec.rank
    if spec.method == "vera":
        return spec.n + spec.rank
    if spec.method == "hypernet_lowrank":
        return spec.input_len
    raise ValueError("unknown reconciliation method %r" % spec.method)


class FrozenRandoms:
    """Immutable (read-only) random factors for vera / hypernet reconciliation."""

    def __init__(self, spec):
        prng = Prng(spec.seed)
        if spec.method == "vera":
            self.A = prng.derive("vera_a").normals((spec.n, spec.rank))
            self.B = prng.derive("vera_b").normals((spec.D, spec.rank))
        elif spec.method == "hypernet_lowrank":
            self.P = prng.derive("hyper_p").normals((spec.input_len, spec.rank))
            self.Q = prng.derive("hyper_q").normals((spec.mid, spec.rank))
            self.S = prng.derive("hyper_s").normals((spec.mid, spec.rank))
            self.T = prng.derive("hyper_t").normals((spec.n * spec.D, spec.rank))
        else:
            raise ValueError("no frozen randoms for %r" % spec.method)
        for a in vars(self).values():
            a.flags.writeable = False


def frozen_randoms(spec):
    """The spec's FrozenRandoms, drawn on first use and kept on the frozen spec."""
    if "_frozen" not in spec.__dict__:
        object.__setattr__(spec, "_frozen", FrozenRandoms(spec))
    return spec._frozen


def _check_length(spec, w):
    w = np.asarray(w, dtype=float).reshape(-1)
    need = param_length(spec)
    if w.size != need:
        raise ValueError("reconciliation expects %d parameters, got %d" % (need, w.size))
    return w


def reconcile(spec, w=None):
    """n x D coefficient matrix from the parameter vector; evaluates
    reconcile_node on a gradient-free tape."""
    w = _check_length(spec, w if w is not None else np.zeros(0))
    with Tape() as tape:
        return reconcile_node(spec, tape.constant(w)).value


def lorr_factors(w_node, n, D, rank):
    """The n x rank and D x rank factor nodes a lorr vector holds in turn."""
    na = n * rank
    return w_node.take(0, na, (n, rank)), w_node.take(na, na + D * rank, (D, rank))


def lorr_vector(a, b):
    """The lorr vector of factors a (n x rank) and b (D x rank): the inverse
    of lorr_factors."""
    return np.concatenate([np.asarray(a, dtype=float).reshape(-1),
                           np.asarray(b, dtype=float).reshape(-1)])


def reconcile_node(spec, w_node):
    """Fabricated n x D matrix as a tape node; w_node holds the parameter
    vector (a zero-length node for constant_eye)."""
    t = w_node.tape
    if spec.method == "identity":
        return w_node.reshape((spec.n, spec.D))
    if spec.method == "constant_eye":
        return t.constant(np.eye(spec.n, spec.D))
    if spec.method == "lorr":
        wa, wb = lorr_factors(w_node, spec.n, spec.D, spec.rank)
        return wa.matmul(wb.transpose())
    if spec.method == "vera":
        fr = frozen_randoms(spec)
        lam1 = w_node.take(0, spec.n, (spec.n, 1))
        lam2 = w_node.take(spec.n, spec.n + spec.rank, (1, spec.rank))
        scaled = (lam1 * t.constant(fr.A)) * lam2
        return scaled.matmul(t.constant(fr.B.T))
    if spec.method == "hypernet_lowrank":
        fr = frozen_randoms(spec)
        flat = w_node.reshape((1, -1))
        hidden = flat.matmul(t.constant(fr.P)).matmul(t.constant(fr.Q.T)).sigmoid()
        out = hidden.matmul(t.constant(fr.S)).matmul(t.constant(fr.T.T))
        return out.reshape((spec.n, spec.D))
    if spec.method == "duplicated_padding":
        # row j carries w at columns j*p .. (j+1)*p, p = D / n
        eye = t.constant(np.eye(spec.n)[:, :, None])
        return (eye * w_node.reshape((1, 1, -1))).reshape((spec.n, spec.D))
    raise ValueError("unknown reconciliation method %r" % spec.method)


def reconciled_product(x, spec, w_node):
    """One channel's x @ psi.T as a tape node. The low-rank methods never
    form psi: they run narrow-first through their factors, lorr
    (psi = A B^T) as (x @ B) @ A^T and vera (psi = diag(l1) A diag(l2) B^T)
    as ((x @ B) * l2) @ A^T * l1, so a b x D input costs O(b (n + D) rank),
    not O(b n D). Duplicated padding dots each of the n blocks of x with w.
    The other methods fabricate psi with reconcile_node, which stays the
    oracle of every product. w_node is None for constant_eye."""
    b, width = x.value.shape
    if width != spec.D:
        raise ValueError("station reconciliation: expanded width %d != declared D %d"
                         % (width, spec.D))
    if spec.method == "lorr":
        wa, wb = lorr_factors(w_node, spec.n, spec.D, spec.rank)
        return x.matmul(wb).matmul(wa.transpose())
    if spec.method == "vera":
        fr = frozen_randoms(spec)
        lam1 = w_node.take(0, spec.n, (1, spec.n))
        lam2 = w_node.take(spec.n, spec.n + spec.rank, (1, spec.rank))
        xb = x.matmul(x.tape.constant(fr.B))
        return (xb * lam2).matmul(x.tape.constant(fr.A.T)) * lam1
    if spec.method == "duplicated_padding":
        return x.reshape((b * spec.n, -1)).matmul(w_node.reshape((-1, 1))).reshape((b, spec.n))
    if w_node is None:
        w_node = x.tape.constant(np.zeros(0))
    return x.matmul(reconcile_node(spec, w_node).transpose())
