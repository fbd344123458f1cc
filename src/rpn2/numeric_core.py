"""Dense/sparse kernels, matrix norms, a seeded random stream and a small
reverse-mode tape.

Dense matrices are plain numpy float64 arrays throughout the package. The
sparse type is a canonicalized coordinate-list matrix that can multiply dense
operands without densifying itself.
"""

import numpy as np

_MASK64 = (1 << 64) - 1


class SingularMatrixError(ValueError):
    pass


def as_dense(a):
    if isinstance(a, SparseCoo):
        return a.to_dense()
    return np.asarray(a, dtype=float)


# ---------------------------------------------------------------------------
# sparse coordinate matrix


class SparseCoo:
    """Canonical COO matrix: duplicate triplets summed, explicit zeros dropped."""

    def __init__(self, rows, cols, triplets=()):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.rows = int(rows)
        self.cols = int(cols)
        acc = {}
        for i, j, v in triplets:
            i = int(i)
            j = int(j)
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise IndexError("triplet index out of range")
            acc[(i, j)] = acc.get((i, j), 0.0) + float(v)
        self._entries = {k: v for k, v in acc.items() if v != 0.0}

    @property
    def nnz(self):
        return len(self._entries)

    @property
    def triplets(self):
        return sorted((i, j, v) for (i, j), v in self._entries.items())

    @classmethod
    def from_dense(cls, a, tol=0.0):
        a = np.asarray(a, dtype=float)
        ii, jj = np.nonzero(np.abs(a) > tol)
        return cls(a.shape[0], a.shape[1], [(i, j, a[i, j]) for i, j in zip(ii, jj)])

    def to_dense(self):
        out = np.zeros((self.rows, self.cols))
        for (i, j), v in self._entries.items():
            out[i, j] = v
        return out

    def matmul_dense(self, b):
        b = np.asarray(b, dtype=float)
        if self.cols != b.shape[0]:
            raise ValueError("dimension mismatch")
        out = np.zeros((self.rows, b.shape[1]))
        if self._entries:
            keys = np.array(list(self._entries.keys()), dtype=int)
            vals = np.array(list(self._entries.values()))
            np.add.at(out, keys[:, 0], vals[:, None] * b[keys[:, 1]])
        return out

    def transpose(self):
        return SparseCoo(self.cols, self.rows,
                         [(j, i, v) for (i, j), v in self._entries.items()])

    def to_matrix_market(self):
        lines = ["%%MatrixMarket matrix coordinate real general",
                 "%d %d %d" % (self.rows, self.cols, self.nnz)]
        for i, j, v in self.triplets:
            lines.append("%d %d %.17g" % (i + 1, j + 1, v))
        return "\n".join(lines) + "\n"


def matmul(a, b):
    """Matrix product; sparse left operand stays sparse during the product."""
    b = np.asarray(b, dtype=float)
    if isinstance(a, SparseCoo):
        return a.matmul_dense(b)
    a = np.asarray(a, dtype=float)
    if a.shape[1] != b.shape[0]:
        raise ValueError("dimension mismatch: %s x %s" % (a.shape, b.shape))
    return a @ b


# ---------------------------------------------------------------------------
# elementwise / linear algebra kernels


def scaled_softmax(a, r, axis="row"):
    """softmax(a / sqrt(r)) along rows or columns, stabilized by max-subtraction."""
    if r < 1:
        raise ValueError("r must be >= 1")
    a = np.asarray(a, dtype=float) / np.sqrt(float(r))
    ax = 1 if axis == "row" else 0
    a = a - a.max(axis=ax, keepdims=True)
    e = np.exp(a)
    return e / e.sum(axis=ax, keepdims=True)


def matrix_exp(a, nilpotency_hint=None):
    """Power series exp(a); exact finite sum when a nilpotency bound is given."""
    a = as_dense(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix_exp needs a square matrix")
    n = a.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    if nilpotency_hint is not None:
        for k in range(1, int(nilpotency_hint)):
            term = term @ a / k
            out += term
        return out
    for k in range(1, 400):
        term = term @ a / k
        if np.max(np.abs(term)) < 1e-15:
            break
        out += term
    return out


def solve(a, b):
    """Gaussian elimination with partial pivoting.

    Raises SingularMatrixError when a pivot magnitude drops below 1e-12.
    """
    a = as_dense(a)
    b = as_dense(b)
    if b.ndim == 1:
        b = b[:, None]
    n = a.shape[0]
    if a.shape[1] != n or b.shape[0] != n:
        raise ValueError("dimension mismatch")
    m = np.hstack([a.astype(float), b.astype(float)])
    for k in range(n):
        piv = k + int(np.argmax(np.abs(m[k:, k])))
        if abs(m[piv, k]) < 1e-12:
            raise SingularMatrixError("pivot below threshold at column %d" % k)
        if piv != k:
            m[[k, piv]] = m[[piv, k]]
        factors = m[k + 1:, k] / m[k, k]
        m[k + 1:] -= factors[:, None] * m[k]
    x = np.zeros((n, b.shape[1]))
    for k in range(n - 1, -1, -1):
        x[k] = (m[k, n:] - m[k, k + 1:n] @ x[k + 1:]) / m[k, k]
    return x


def norm(a, kind="frobenius"):
    a = as_dense(a)
    if kind == "frobenius":
        return float(np.sqrt(np.sum(a * a)))
    if kind == "infinity":
        # maximum absolute row sum
        return float(np.max(np.sum(np.abs(a), axis=1))) if a.size else 0.0
    if kind == "two_to_infinity":
        # sup over unit z of ||a z||_inf = largest row Euclidean norm
        return float(np.max(np.sqrt(np.sum(a * a, axis=1)))) if a.size else 0.0
    raise ValueError("unknown norm kind %r" % kind)


# ---------------------------------------------------------------------------
# deterministic random stream


_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix64(x):
    x = (x + _GAMMA) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return x, (z ^ (z >> 31)) & _MASK64


def _splitmix64_block(state, n):
    """Outputs 1..n of the stream at `state` as uint64: mix(state + k*gamma)."""
    u64 = np.uint64
    with np.errstate(over="ignore"):
        z = u64(state) + u64(_GAMMA) * np.arange(1, n + 1, dtype=u64)
        z = (z ^ (z >> u64(30))) * u64(_MIX1)
        z = (z ^ (z >> u64(27))) * u64(_MIX2)
    return z ^ (z >> u64(31))


def _fnv1a(label):
    h = 0xCBF29CE484222325
    for byte in label.encode("utf8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


class Prng:
    """Counter-based splitmix64 stream (Steele, Lea & Flood, OOPSLA 2014).

    Identical seed gives an identical stream; independent streams for distinct
    purposes are derived with a text label.

    Output k after state s is mix(s + k*gamma) mod 2^64, so `uniforms` and
    `normals` draw a whole block as one numpy uint64 expression (O(n) vector
    work, no per-draw Python call) and are bit-identical to the same number
    of scalar `uniform` / `normal` calls, spare normal and final state
    included; block and scalar calls interleave freely.
    """

    def __init__(self, seed):
        self.seed = int(seed) & _MASK64
        self._state = self.seed
        self._spare_normal = None

    def derive(self, label):
        return Prng(self.seed ^ _fnv1a(label))

    def next_u64(self):
        self._state, out = _splitmix64(self._state)
        return out

    def uniform(self):
        # 53-bit mantissa in [0, 1)
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def normal(self):
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        # Box-Muller; u1 kept away from zero
        u1 = max(self.uniform(), 2.0 ** -53)
        u2 = self.uniform()
        rad = np.sqrt(-2.0 * np.log(u1))
        self._spare_normal = rad * np.sin(2.0 * np.pi * u2)
        return rad * np.cos(2.0 * np.pi * u2)

    def uniforms(self, shape):
        n = max(int(np.prod(shape)), 0)
        z = _splitmix64_block(self._state, n)
        self._state = (self._state + n * _GAMMA) & _MASK64
        return ((z >> np.uint64(11)) * (2.0 ** -53)).reshape(shape)

    def normals(self, shape):
        n = max(int(np.prod(shape)), 0)
        out = np.empty(n)
        i = 0
        if n and self._spare_normal is not None:
            out[0] = self._spare_normal
            self._spare_normal = None
            i = 1
        pairs = (n - i + 1) // 2
        u = self.uniforms(2 * pairs)
        rad = np.sqrt(-2.0 * np.log(np.maximum(u[0::2], 2.0 ** -53)))
        theta = 2.0 * np.pi * u[1::2]
        z = np.empty(2 * pairs)
        z[0::2] = rad * np.cos(theta)
        z[1::2] = rad * np.sin(theta)
        out[i:] = z[:n - i]
        if (n - i) % 2:
            self._spare_normal = z[-1]
        return out.reshape(shape)

    def randint(self, n):
        # rejection-free modulo is fine at our scales
        return self.next_u64() % int(n)

    def choice_weighted(self, weights):
        w = np.asarray(weights, dtype=float)
        total = w.sum()
        u = self.uniform() * total
        c = 0.0
        for i, wi in enumerate(w):
            c += wi
            if u < c:
                return i
        return len(w) - 1


# ---------------------------------------------------------------------------
# reverse-mode tape


class Node:
    __slots__ = ("tape", "value", "vjps", "nid", "is_param", "name")
    # numpy scalars on the left defer to the reflected operators below
    __array_ufunc__ = None

    def __init__(self, tape, value, vjps, is_param=False, name=None):
        self.tape = tape
        self.value = np.asarray(value, dtype=float)
        self.vjps = vjps  # list of (parent Node, closure grad -> parent grad)
        self.is_param = is_param
        self.name = name
        self.nid = len(tape.nodes)
        tape.nodes.append(self)

    @property
    def shape(self):
        return self.value.shape

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = self.tape.lift(other)
        return Node(self.tape, self.value + other.value,
                    [(self, lambda g: _unbroadcast(g, self.value.shape)),
                     (other, lambda g: _unbroadcast(g, other.value.shape))])

    def __sub__(self, other):
        other = self.tape.lift(other)
        return Node(self.tape, self.value - other.value,
                    [(self, lambda g: _unbroadcast(g, self.value.shape)),
                     (other, lambda g: _unbroadcast(-g, other.value.shape))])

    def __rsub__(self, other):
        return self.tape.lift(other) - self

    def __mul__(self, other):
        if np.isscalar(other):
            return self.scale(other)
        other = self.tape.lift(other)
        return Node(self.tape, self.value * other.value,
                    [(self, lambda g: _unbroadcast(g * other.value, self.value.shape)),
                     (other, lambda g: _unbroadcast(g * self.value, other.value.shape))])

    def __rmul__(self, s):
        return self.scale(s)

    def __truediv__(self, s):
        s = float(s)
        return Node(self.tape, self.value / s, [(self, lambda g: g / s)])

    def scale(self, s):
        s = float(s)
        return Node(self.tape, self.value * s, [(self, lambda g: g * s)])

    def take(self, lo, hi):
        """Entries lo..hi of the flattened value; the VJP scatters into zeros."""
        shape = self.value.shape

        def vjp(g):
            out = np.zeros(self.value.size)
            out[lo:hi] = g.reshape(-1)
            return out.reshape(shape)

        return Node(self.tape, self.value.reshape(-1)[lo:hi], [(self, vjp)])

    def matmul(self, other):
        other = self.tape.lift(other)
        if self.value.shape[-1] != other.value.shape[0]:
            raise ValueError("dimension mismatch in matmul")
        return Node(self.tape, self.value @ other.value,
                    [(self, lambda g: g @ other.value.T),
                     (other, lambda g: self.value.T @ g)])

    def transpose(self):
        return Node(self.tape, self.value.T, [(self, lambda g: g.T)])

    def reshape(self, shape):
        old = self.value.shape
        return Node(self.tape, self.value.reshape(shape),
                    [(self, lambda g: g.reshape(old))])

    def tanh(self):
        y = np.tanh(self.value)
        return Node(self.tape, y, [(self, lambda g: g * (1.0 - y * y))])

    def sigmoid(self):
        y = 1.0 / (1.0 + np.exp(-self.value))
        return Node(self.tape, y, [(self, lambda g: g * y * (1.0 - y))])

    def relu(self):
        mask = self.value > 0
        return Node(self.tape, self.value * mask, [(self, lambda g: g * mask)])

    def sum(self):
        shape = self.value.shape
        return Node(self.tape, np.array([[self.value.sum()]]),
                    [(self, lambda g: np.full(shape, float(np.sum(g))))])

    def mean(self):
        shape = self.value.shape
        n = self.value.size
        return Node(self.tape, np.array([[self.value.mean()]]),
                    [(self, lambda g: np.full(shape, float(np.sum(g)) / n))])


def _unbroadcast(g, shape):
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def softmax_node(x, axis="row", r=1):
    """Tape version of scaled_softmax."""
    y = scaled_softmax(x.value, r, axis=axis)
    ax = 1 if axis == "row" else 0
    sr = np.sqrt(float(r))

    def vjp(g):
        dot = np.sum(g * y, axis=ax, keepdims=True)
        return y * (g - dot) / sr

    return Node(x.tape, y, [(x, vjp)])


def l1_normalize_node(x, axis="col"):
    ax = 0 if axis == "col" else 1
    s = np.sum(np.abs(x.value), axis=ax, keepdims=True)
    s = np.where(s == 0.0, 1.0, s)
    y = x.value / s
    sign = np.sign(x.value)

    def vjp(g):
        dot = np.sum(g * x.value, axis=ax, keepdims=True)
        return g / s - sign * dot / (s * s)

    return Node(x.tape, y, [(x, vjp)])


def concat_nodes(nodes, axis=1):
    vals = [n.value for n in nodes]
    out = np.concatenate(vals, axis=axis)
    vjps = []
    start = 0
    for n in nodes:
        size = n.value.shape[axis]
        lo, hi = start, start + size
        if axis == 0:
            vjps.append((n, lambda g, lo=lo, hi=hi: g[lo:hi]))
        else:
            vjps.append((n, lambda g, lo=lo, hi=hi: g[:, lo:hi]))
        start += size
    return Node(nodes[0].tape, out, vjps)


def blocks_dot(a, w, block_count, block_size):
    """Per-row blockwise inner product: rows of `a` are split into
    `block_count` blocks of `block_size`, each dotted with vector `w`.

    Equivalent to multiplying by the block-diagonal duplicated-padding matrix
    without materializing it.
    """
    b = a.value.shape[0]
    a3 = a.value.reshape(b, block_count, block_size)
    wv = w.value.reshape(block_size)
    out = a3 @ wv

    def vjp_a(g):
        return (g[:, :, None] * wv[None, None, :]).reshape(b, block_count * block_size)

    def vjp_w(g):
        return np.einsum("bj,bjk->k", g, a3).reshape(w.value.shape)

    return Node(a.tape, out, [(a, vjp_a), (w, vjp_w)])


def cross_entropy_node(logits, labels):
    """Mean cross entropy from logits via a stable log-softmax."""
    z = logits.value
    zs = z - z.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(zs).sum(axis=1, keepdims=True))
    logp = zs - logsumexp
    b = z.shape[0]
    labels = np.asarray(labels, dtype=int)
    loss = -logp[np.arange(b), labels].mean()
    p = np.exp(logp)
    onehot = np.zeros_like(z)
    onehot[np.arange(b), labels] = 1.0

    def vjp(g):
        return float(np.asarray(g).reshape(-1)[0]) * (p - onehot) / b

    return Node(logits.tape, np.array([[loss]]), [(logits, vjp)])


class Tape:
    """Record of one forward pass; single-owner, replayed once backwards."""

    def __init__(self):
        self.nodes = []

    def constant(self, value):
        return Node(self, value, [])

    def parameter(self, value, name=None):
        return Node(self, value, [], is_param=True, name=name)

    def lift(self, x):
        return x if isinstance(x, Node) else self.constant(x)

    def backward(self, loss):
        if loss.value.size != 1:
            raise ValueError("loss must be scalar")
        grads = {loss.nid: np.ones_like(loss.value)}
        for node in reversed(self.nodes[: loss.nid + 1]):
            g = grads.pop(node.nid, None)
            if g is None:
                continue
            if node.is_param:
                grads[node.nid] = g
                continue
            for parent, vjp in node.vjps:
                contrib = vjp(g)
                if parent.nid in grads:
                    grads[parent.nid] = grads[parent.nid] + contrib
                else:
                    grads[parent.nid] = contrib
        out = {}
        for node in self.nodes:
            if node.is_param and node.nid in grads:
                out[node.name if node.name is not None else node.nid] = grads[node.nid]
        return out
