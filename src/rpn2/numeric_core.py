"""The sparse matrix type, a few dense kernels (scaled softmax, the series
exponential, a LAPACK solve behind a singularity rule, matrix norms), a
seeded random stream and a small reverse-mode tape.

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


def check_params(params, reads, what):
    """`params` as a dict; a key that `what` does not read (one not in
    `reads`) raises ValueError naming it, so that no setting is given and
    silently ignored."""
    p = dict(params or {})
    unread = sorted(set(p) - set(reads))
    if unread:
        raise ValueError("%s reads no %s; it reads %s"
                         % (what, ", ".join(map(repr, unread)), ", ".join(reads) or "none"))
    return p


# ---------------------------------------------------------------------------
# sparse coordinate matrix


class SparseCoo:
    """Canonical COO matrix: duplicate entries summed, explicit zeros dropped.

    `rows` and `cols` are the dimensions; `row_idx`, `col_idx` and `vals` are
    the entries in any order, duplicates allowed. They are canonicalised once:
    sorted by (row, col) into int64 `row_idx` and `col_idx` and float64
    `vals`, each position's values summed in the order given, and a position
    kept when its sum is != 0 (so NaN stays and +-0.0 goes). The arrays are
    read-only and nothing reassigns them: a matrix never changes after
    construction, so it can be shared (a resolved structure matrix is) and
    plan its products and its transpose once.
    """

    def __init__(self, rows, cols, row_idx=(), col_idx=(), vals=()):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.rows = int(rows)
        self.cols = int(cols)
        # A stable sort keeps the entries of one (row, col) in the order
        # given. np.add.at then sums them one after another from 0.0, which
        # np.add.reduceat would not: it adds a run's tail pairwise.
        i = np.asarray(row_idx).astype(np.int64).reshape(-1)
        j = np.asarray(col_idx).astype(np.int64).reshape(-1)
        v = np.asarray(vals, dtype=float).reshape(-1)
        if not i.size == j.size == v.size:
            raise ValueError("row_idx, col_idx and vals differ in length")
        if i.size and (min(i.min(), j.min()) < 0
                       or i.max() >= self.rows or j.max() >= self.cols):
            raise IndexError("entry index out of range")
        order = np.lexsort((j, i))
        i, j, v = i[order], j[order], v[order]
        first = np.ones(i.size, dtype=bool)
        first[1:] = (i[1:] != i[:-1]) | (j[1:] != j[:-1])
        sums = np.zeros(np.count_nonzero(first))
        np.add.at(sums, np.cumsum(first) - 1, v)
        keep = sums != 0.0
        self.row_idx = i[first][keep]
        self.col_idx = j[first][keep]
        self.vals = sums[keep]
        for a in (self.row_idx, self.col_idx, self.vals):
            a.flags.writeable = False
        self._plan = None
        self._transposed = None

    @property
    def nnz(self):
        return self.vals.size

    @property
    def triplets(self):
        return list(zip(self.row_idx.tolist(), self.col_idx.tolist(), self.vals.tolist()))

    @classmethod
    def from_dense(cls, a):
        """The entries of a 2-D array that are != 0, the constructor's rule:
        NaN is kept, +-0.0 dropped."""
        a = np.asarray(a, dtype=float)
        ii, jj = np.nonzero(a)
        return cls(a.shape[0], a.shape[1], ii, jj, a[ii, jj])

    def to_dense(self):
        out = np.zeros((self.rows, self.cols))
        out[self.row_idx, self.col_idx] = self.vals
        return out

    def _rmatmul_plan(self):
        """(src, scale, passes) of rmatmul, computed on first use and kept:
        the entries never change after construction. `scale` is None for a
        unit plan: every column's first entry is 1.0 and every empty column
        gathers the pad, so the first pass needs no scaling."""
        if self._plan is None:
            order = np.argsort(self.col_idx, kind="stable")
            col = self.col_idx[order]
            pos = np.arange(col.size)
            first = np.ones(col.size, dtype=bool)
            first[1:] = col[1:] != col[:-1]
            rank = pos - np.maximum.accumulate(np.where(first, pos, 0))
            src = np.full(self.cols, self.rows)
            src[col[first]] = self.row_idx[order[first]]
            scale = np.zeros(self.cols)
            scale[col[first]] = self.vals[order[first]]
            later = np.flatnonzero(rank)
            later = order[later[np.argsort(rank[later], kind="stable")]]
            passes, lo = [], 0
            for count in np.bincount(rank)[1:]:
                e = later[lo:lo + count]
                lo += count
                passes.append((self.col_idx[e], self.row_idx[e], self.vals[e]))
            if np.all((scale == 1.0) | (src == self.rows)):
                scale = None
            self._plan = (src, scale, passes)
        return self._plan

    def rmatmul(self, x):
        """x @ self for a dense b x rows batch, without densifying self.

        Each column's entries are added in row order, starting from 0.0, one
        vectorised pass per entry rank. The first pass gathers every column's
        first entry straight into the result (an empty column gathers an
        appended zero column), so a 0/1 matrix with one entry per column,
        such as a grid padding matrix, costs one gather and reproduces the
        dense product exactly. Pass k adds the k-th entry of each column that
        has one. The column order and passes are planned once per matrix
        (`_rmatmul_plan`). On a unit plan the first pass adds the 0.0 to the
        padded batch before the gather and skips the scaling, which is exact:
        (v * 1.0) + 0.0 == v + 0.0 for every float. The result is a new
        C-contiguous array.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.rows:
            raise ValueError("dimension mismatch: %s x (%d, %d)"
                             % (x.shape, self.rows, self.cols))
        src, scale, passes = self._rmatmul_plan()
        xpad = np.concatenate([x, np.zeros((x.shape[0], 1))], axis=1)
        if scale is None:
            xpad += 0.0  # the sum from 0.0 turns -0.0 into 0.0
            out = np.take(xpad, src, axis=1)
        else:
            out = np.take(xpad, src, axis=1)
            out *= scale
            out += 0.0
        for cols, rows, vals in passes:
            terms = np.take(x, rows, axis=1)
            terms *= vals
            terms += out[:, cols]
            out[:, cols] = terms
        return out

    def transpose(self):
        """The transposed matrix, built on first use and kept (with its own
        product plan) for the backward products that apply it."""
        if self._transposed is None:
            self._transposed = SparseCoo(self.cols, self.rows, self.col_idx,
                                         self.row_idx, self.vals)
        return self._transposed

    def to_matrix_market(self):
        lines = ["%%MatrixMarket matrix coordinate real general",
                 "%d %d %d" % (self.rows, self.cols, self.nnz)]
        lines += ["%d %d %.17g" % e for e in zip((self.row_idx + 1).tolist(),
                                                 (self.col_idx + 1).tolist(),
                                                 self.vals.tolist())]
        return "\n".join(lines) + "\n"


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


def matrix_exp(a):
    """Power series exp(a), summed until a term's largest entry is below 1e-15."""
    a = as_dense(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix_exp needs a square matrix")
    n = a.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, 400):
        term = term @ a / k
        if np.max(np.abs(term)) < 1e-15:
            break
        out += term
    return out


def solve(a, b):
    """x with a @ x = b, by LAPACK (np.linalg.solve).

    Singularity rule: SingularMatrixError is raised when LAPACK reports a
    singular matrix, or when ||a||_inf * ||x||_inf > 1e12 * ||b||_inf
    (maximum absolute row sums). For b = I the product is the condition
    number kappa_inf(a), so a system with kappa_inf(a) <= 1e12 never trips
    the rule, whatever the scale of a. A 1-D b is solved as one column.
    """
    a = as_dense(a)
    b = as_dense(b)
    if b.ndim == 1:
        b = b[:, None]
    n = a.shape[0]
    if a.shape != (n, n) or b.shape[0] != n:
        raise ValueError("dimension mismatch")
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("pivot below threshold: LAPACK reports a singular matrix") \
            from None
    growth = norm(a, "infinity") * norm(x, "infinity")
    if growth > 1e12 * norm(b, "infinity"):
        raise SingularMatrixError("pivot below threshold: ||a||_inf ||x||_inf = %.3g is above "
                                  "1e12 ||b||_inf" % growth)
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
        """A draw from 0 .. n - 1; n must be >= 1."""
        if n < 1:
            raise ValueError("randint needs a bound n >= 1, got %r" % n)
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
    """One value on a tape and the VJPs that carry its gradient back.

    A node needs a gradient when it is a parameter or when one of its
    parents needs one. Only those parents keep their (parent, closure) pair
    in `vjps`, so a branch built from constants alone (the input, its
    expansion, a product of constants, a regression target) records no VJP
    and `Tape.backward` never evaluates one for it.

    A node that needs a gradient also keeps its op's `redo`, which
    `Tape.replay` calls with the node's own `value` array: it makes the
    same numpy call as the op's first evaluation and writes the result into
    that array (`out=` or `np.copyto`). Parameters, and values that are
    views of their parent's array (`take`, `reshape`, `transpose`), have no
    redo: their bytes follow the array they view. A node's `value` is never
    rebound, so the arrays that child ops and VJPs captured stay the ones
    that hold the current values; every per-evaluation array a VJP reads
    (relu's mask, a normalizer, a residual) is rewritten by the redo too.
    """

    __slots__ = ("tape", "value", "vjps", "nid", "is_param", "name", "needs_grad", "redo")
    # numpy scalars on the left defer to the reflected operators below
    __array_ufunc__ = None

    def __init__(self, tape, value, vjps, is_param=False, name=None, redo=None):
        self.tape = tape
        self.value = np.asarray(value, dtype=float)
        # list of (parent Node, closure grad -> parent grad)
        self.vjps = [pair for pair in vjps if pair[0].needs_grad]
        self.needs_grad = is_param or bool(self.vjps)
        self.redo = redo if self.vjps else None
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
        a, b = self.value, other.value
        return Node(self.tape, a + b,
                    [(self, lambda g: _unbroadcast(g, a.shape)),
                     (other, lambda g: _unbroadcast(g, b.shape))],
                    redo=lambda out: np.add(a, b, out=out))

    def __sub__(self, other):
        other = self.tape.lift(other)
        a, b = self.value, other.value
        return Node(self.tape, a - b,
                    [(self, lambda g: _unbroadcast(g, a.shape)),
                     (other, lambda g: _unbroadcast(-g, b.shape))],
                    redo=lambda out: np.subtract(a, b, out=out))

    def __rsub__(self, other):
        return self.tape.lift(other) - self

    def __mul__(self, other):
        if np.isscalar(other):
            return self.scale(other)
        other = self.tape.lift(other)
        return Node(self.tape, self.value * other.value,
                    [(self, lambda g: _unbroadcast(g * other.value, self.value.shape)),
                     (other, lambda g: _unbroadcast(g * self.value, other.value.shape))],
                    redo=lambda out: np.multiply(self.value, other.value, out=out))

    def __rmul__(self, s):
        return self.scale(s)

    def __truediv__(self, s):
        s = float(s)
        return Node(self.tape, self.value / s, [(self, lambda g: g / s)],
                    redo=lambda out: np.divide(self.value, s, out=out))

    def scale(self, s):
        s = float(s)
        return Node(self.tape, self.value * s, [(self, lambda g: g * s)],
                    redo=lambda out: np.multiply(self.value, s, out=out))

    def take(self, lo, hi, shape=None):
        """Entries lo..hi of the flattened value, in `shape` when one is
        given (one node, not a slice and a reshape); the VJP scatters into
        zeros."""
        a = self.value

        def vjp(g):
            out = np.zeros(a.size)
            out[lo:hi] = g.reshape(-1)
            return out.reshape(a.shape)

        def make():
            value = a.reshape(-1)[lo:hi]
            return value if shape is None else value.reshape(shape)

        value = make()
        return Node(self.tape, value, [(self, vjp)], redo=_copy_redo(self, value, make))

    def matmul(self, other):
        a = self.value
        if isinstance(other, SparseCoo):
            # parameter-free sparse constant: x @ S forward, g @ S^T back
            return Node(self.tape, other.rmatmul(a),
                        [(self, lambda g: other.transpose().rmatmul(g))],
                        redo=lambda out: np.copyto(out, other.rmatmul(a)))
        other = self.tape.lift(other)
        b = other.value
        if a.shape[-1] != b.shape[0]:
            raise ValueError("dimension mismatch in matmul")
        return Node(self.tape, a @ b, [(self, lambda g: g @ b.T), (other, lambda g: a.T @ g)],
                    redo=lambda out: np.matmul(a, b, out=out))

    def transpose(self):
        return Node(self.tape, self.value.T, [(self, lambda g: g.T)])

    def reshape(self, shape):
        a = self.value
        value = a.reshape(shape)
        return Node(self.tape, value, [(self, lambda g: g.reshape(a.shape))],
                    redo=_copy_redo(self, value, lambda: a.reshape(shape)))

    def tanh(self):
        y = np.tanh(self.value)
        return Node(self.tape, y, [(self, lambda g: g * (1.0 - y * y))],
                    redo=lambda out: np.tanh(self.value, out=out))

    def sigmoid(self):
        y = 1.0 / (1.0 + np.exp(-self.value))
        return Node(self.tape, y, [(self, lambda g: g * y * (1.0 - y))],
                    redo=lambda out: np.copyto(out, 1.0 / (1.0 + np.exp(-self.value))))

    def relu(self):
        a = self.value
        mask = a > 0

        def redo(out):
            np.greater(a, 0, out=mask)
            np.multiply(a, mask, out=out)

        return Node(self.tape, a * mask, [(self, lambda g: g * mask)], redo=redo)

    def sum(self):
        a = self.value
        return Node(self.tape, np.array([[a.sum()]]),
                    [(self, lambda g: np.full(a.shape, float(np.sum(g))))],
                    redo=lambda out: out.fill(a.sum()))

    def mean(self):
        a = self.value
        return Node(self.tape, np.array([[a.mean()]]),
                    [(self, lambda g: np.full(a.shape, float(np.sum(g)) / a.size))],
                    redo=lambda out: out.fill(a.mean()))


def _copy_redo(parent, value, make):
    """The redo of a view op: None when `value` shares the parent's array
    (it follows every replay of the parent), else a copy of `make()` into
    place. Only a node that needs a gradient pays for the overlap test."""
    if not parent.needs_grad or np.may_share_memory(value, parent.value):
        return None
    return lambda out: np.copyto(out, make())


def _unbroadcast(g, shape):
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def softmax_node(x, axis="row", r=1):
    """Tape version of scaled_softmax."""
    a = x.value
    y = scaled_softmax(a, r, axis=axis)
    ax = 1 if axis == "row" else 0
    sr = np.sqrt(float(r))

    def vjp(g):
        dot = np.sum(g * y, axis=ax, keepdims=True)
        return y * (g - dot) / sr

    return Node(x.tape, y, [(x, vjp)],
                redo=lambda out: np.copyto(out, scaled_softmax(a, r, axis=axis)))


def l1_normalize_node(x, axis="col"):
    ax = 0 if axis == "col" else 1
    a = x.value

    def norms():
        s = np.sum(np.abs(a), axis=ax, keepdims=True)
        return np.where(s == 0.0, 1.0, s)

    s = norms()

    def vjp(g):
        dot = np.sum(g * a, axis=ax, keepdims=True)
        return g / s - np.sign(a) * dot / (s * s)

    def redo(out):
        np.copyto(s, norms())
        np.divide(a, s, out=out)

    return Node(x.tape, a / s, [(x, vjp)], redo=redo)


def concat_nodes(nodes):
    """The nodes joined along axis 1."""
    values = [n.value for n in nodes]
    vjps = []
    start = 0
    for n in nodes:
        lo, hi = start, start + n.value.shape[1]
        vjps.append((n, lambda g, lo=lo, hi=hi: g[:, lo:hi]))
        start = hi
    return Node(nodes[0].tape, np.concatenate(values, axis=1), vjps,
                redo=lambda out: np.concatenate(values, axis=1, out=out))


def class_labels(labels, rows, classes):
    """labels as int64 class indices, one per row, each in [0, classes)."""
    y = np.asarray(labels)
    if y.shape != (rows,):
        raise ValueError("cross entropy needs one label per row: %d rows, labels of shape %s"
                         % (rows, y.shape))
    if y.dtype.kind not in "biu" and not (
            y.dtype.kind == "f" and np.all(np.isfinite(y)) and np.all(y == np.floor(y))):
        raise ValueError("cross entropy labels must be integers")
    if y.size and (y.min() < 0 or y.max() >= classes):
        raise ValueError("cross entropy labels must lie in [0, %d); got %g .. %g"
                         % (classes, y.min(), y.max()))
    return y.astype(np.int64)


def cross_entropy_node(logits, labels):
    """Mean cross entropy from logits via a stable log-softmax.

    `labels` holds one class index in [0, classes) per row; anything else
    raises ValueError. They are checked once, when the node is built; a
    replay reuses them. The class-axis max and sum run on a column-major
    copy of the logits, so each walks the batch in contiguous runs instead
    of one short row at a time. The max is exact, and so is the sum below 8
    classes, where numpy adds a row left to right as the column-major walk
    does; from 8 classes on, the sum may differ from a row-major one in the
    last bits.
    """
    z = logits.value
    b, classes = z.shape
    labels = class_labels(labels, b, classes)
    rows = np.arange(b)

    def evaluate():
        """The loss and the softmax minus the one-hot labels."""
        zs = np.asfortranarray(z)
        zs = zs - zs.max(axis=1, keepdims=True)
        logp = zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))
        residual = np.ascontiguousarray(np.exp(logp))
        residual[rows, labels] -= 1.0
        return -logp[rows, labels].mean(), residual

    loss, residual = evaluate()

    def vjp(g):
        return float(np.asarray(g).reshape(-1)[0]) * residual / b

    def redo(out):
        value, again = evaluate()
        out.fill(value)
        np.copyto(residual, again)

    return Node(logits.tape, np.array([[loss]]), [(logits, vjp)], redo=redo)


def mse_node(out, target):
    """Mean squared error of `out` against a target array of its shape, as
    one node. Value and gradient are bit-identical to
    `((out - target) * (out - target)).mean()`, whose two product VJPs each
    give the same array and so sum to twice it exactly."""
    a = out.value
    d = a - target

    def vjp(g):
        return 2.0 * (np.full(d.shape, float(np.sum(g)) / d.size) * d)

    def redo(value):
        np.subtract(a, target, out=d)
        value.fill((d * d).mean())

    return Node(out.tape, np.array([[(d * d).mean()]]), [(out, vjp)], redo=redo)


class Tape:
    """Record of one forward pass; single-owner.

    Nodes point at their tape and the tape lists its nodes. `release` drops
    the list once the owner is done, so that a finished tape and the arrays
    its nodes hold are freed by reference counting, without waiting for the
    cyclic collector: `train` releases its tape in a `finally`,
    `model_forward` once it has read the output, and a gradient-free
    evaluation runs as `with Tape() as tape:`. A released tape refuses
    `backward`.

    `backward` may run more than once on one tape. Between two runs,
    `replay` re-evaluates the recorded forward at the parameters' current
    values: in node order it calls the `redo` of every node that needs a
    gradient, which writes the new value into the array the node already
    holds. Constants never replay, so a replay is right only while no
    constant depends on a parameter. A `value_only` result is a constant
    too, and it would go stale where its op read a gradient-carrying input;
    `train` may replay its tape only because it refuses one whose `cuts`
    are nonempty.
    """

    def __init__(self):
        self.nodes = []
        self.cuts = []  # ops that dropped a gradient (`value_only`); kept on release

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.release()

    def release(self):
        self.nodes = []

    def constant(self, value):
        return Node(self, value, [])

    def parameter(self, value, name=None):
        return Node(self, value, [], is_param=True, name=name)

    def value_only(self, value, inputs, op):
        """`value`, computed by `op` from the input nodes, as a constant; `op`
        is noted in `cuts` when an input needs the gradient it drops."""
        if any(n.needs_grad for n in inputs):
            self.cuts.append(op)
        return self.constant(value)

    def lift(self, x):
        return x if isinstance(x, Node) else self.constant(x)

    def replay(self):
        """Recompute, in place, every value that depends on a parameter."""
        for node in self.nodes:
            if node.redo is not None:
                node.redo(node.value)

    def backward(self, loss):
        if loss.value.size != 1:
            raise ValueError("loss must be scalar")
        if loss.nid >= len(self.nodes) or self.nodes[loss.nid] is not loss:
            raise ValueError("loss is not on this tape, or the tape was released")
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
