"""The array-backed SparseCoo, the vectorised grid matrix and the gathered
compress_patch checked byte for byte against their earlier definitions,
which are kept here as oracles: a dict-backed COO, the per-cell triplet loop
and the per-row patch mapping."""

import json
import warnings

import numpy as np
import pytest

from rpn2 import cli
from rpn2 import grid_geometry as gg
from rpn2 import interdependence as itd
from rpn2 import transformation as tf
from rpn2.numeric_core import SparseCoo


# ---------------------------------------------------------------------------
# oracles


class DictCoo:
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
    def from_dense(cls, a):
        a = np.asarray(a, dtype=float)
        ii, jj = np.nonzero(a != 0.0)
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
        return DictCoo(self.cols, self.rows,
                       [(j, i, v) for (i, j), v in self._entries.items()])

    def to_matrix_market(self):
        lines = ["%%MatrixMarket matrix coordinate real general",
                 "%d %d %d" % (self.rows, self.cols, self.nnz)]
        for i, j, v in self.triplets:
            lines.append("%d %d %.17g" % (i + 1, j + 1, v))
        return "\n".join(lines) + "\n"


def loop_packing_centers(grid, packing, shape=None):
    dh, dw, dd = packing.resolve(shape) if (packing.strategy and shape is not None) \
        else (packing.d_h, packing.d_w, packing.d_d)
    his = gg._axis_centers(grid.h, dh)
    wjs = gg._axis_centers(grid.w, dw)
    dks = gg._axis_centers(grid.d, dd)
    hexagonal = "hexagonal" in packing.strategy
    half = int(np.floor(dw / 2.0 + 0.5))
    centers = []
    for row, i in enumerate(his):
        off = half if (hexagonal and row % 2 == 1) else 0
        for j in wjs:
            for k in dks:
                centers.append((i, j + off, k))
    if packing.clip_out_of_grid:
        centers = [(i, j, k) for (i, j, k) in centers
                   if i < grid.h and j < grid.w and k < grid.d]
    return centers


def loop_grid_structural_matrix(grid, shape, packing, mode="padding"):
    offsets = gg.patch_offsets(shape)
    p = len(offsets)
    centers = gg.packing_centers(grid, packing, shape)
    m = grid.size
    trips = []
    if mode == "padding":
        for ci, center in enumerate(centers):
            base = ci * p
            for slot, (di, dj, dk) in enumerate(offsets):
                i, j, k = center[0] + di, center[1] + dj, center[2] + dk
                if 0 <= i < grid.h and 0 <= j < grid.w and 0 <= k < grid.d:
                    trips.append((gg.index_of((i, j, k), grid), base + slot, 1.0))
        return DictCoo(m, p * len(centers), trips)
    if mode == "aggregation":
        for ci, center in enumerate(centers):
            for cell in gg.patch_cells(center, offsets, grid):
                trips.append((cell, ci, 1.0))
        return DictCoo(m, len(centers), trips)
    raise ValueError("unknown grid structural mode %r" % mode)


def row_patch_map(vals, mapping, kind):
    if mapping == "norm":
        p = kind
        if p == 1:
            return float(np.sum(np.abs(vals)))
        if p == 2:
            return float(np.sqrt(np.sum(vals ** 2)))
        if p in ("inf", np.inf):
            return float(np.max(np.abs(vals))) if vals.size else 0.0
        raise ValueError("norm p must be 1, 2 or inf")
    if mapping == "entropy":
        if np.any(vals <= 0):
            raise ValueError("entropy mapping needs positive patch values")
        p = vals / vals.sum()
        return float(-np.sum(p * np.log(p)))
    if mapping == "metric":
        if kind == "variance":
            return float(np.var(vals))
        if kind == "std":
            return float(np.std(vals))
        if kind == "skewness":
            sd = np.std(vals)
            if sd == 0:
                return 0.0
            return float(np.mean(((vals - vals.mean()) / sd) ** 3))
        raise ValueError("unknown metric kind %r" % kind)
    if mapping == "operator":
        if kind == "max":
            return float(np.max(vals))
        if kind == "min":
            return float(np.min(vals))
        if kind == "sum":
            return float(np.sum(vals))
        if kind == "prod":
            return float(np.prod(vals))
        if kind == "arith_mean":
            return float(np.mean(vals))
        if kind == "geo_mean":
            if np.any(vals <= 0):
                return 0.0
            return float(np.exp(np.mean(np.log(vals))))
        if kind == "harmonic_mean":
            if np.any(vals <= 0):
                return 0.0
            return float(len(vals) / np.sum(1.0 / vals))
        if kind == "median":
            return float(np.median(vals))
        if kind == "mode":
            uniq, counts = np.unique(vals, return_counts=True)
            return float(uniq[np.argmax(counts)])
        raise ValueError("unknown operator kind %r" % kind)
    raise ValueError("unknown patch mapping %r" % mapping)


def row_compress_patch(x, grid, shape, packing, mapping="operator", kind="max"):
    x = np.asarray(x, dtype=float)
    if x.shape[1] != grid.size:
        raise ValueError("batch width must equal the grid size")
    offsets = gg.patch_offsets(shape)
    centers = gg.packing_centers(grid, packing, shape)
    p = len(offsets)
    cols = []
    for center in centers:
        cells = gg.patch_cells(center, offsets, grid)
        vals = np.zeros((x.shape[0], p))
        if cells:
            vals[:, : len(cells)] = x[:, cells]
        cols.append([row_patch_map(vals[i], mapping, kind) for i in range(x.shape[0])])
    return np.asarray(cols, dtype=float).T


def loop_coverage_stats(grid, shape, packing, boundary_margin=None):
    offsets = np.asarray(gg.patch_offsets(shape), dtype=int)
    centers = gg.packing_centers(grid, packing, shape)
    if len(centers) < 4:
        raise ValueError("degenerate grid: fewer than 4 patches fit")
    counts = np.zeros((grid.h, grid.w, grid.d), dtype=int)
    per_patch = []
    dims = np.array([grid.h, grid.w, grid.d])
    strides = np.array([grid.w * grid.d, grid.d, 1])
    for c in centers:
        coords = offsets + np.asarray(c, dtype=int)
        ok = np.all((coords >= 0) & (coords < dims), axis=1)
        cells = coords[ok] @ strides
        per_patch.append(cells)
        if cells.size:
            np.add.at(counts.reshape(-1), cells, 1)
    if boundary_margin is None:
        if isinstance(shape, gg.Cuboid):
            boundary_margin = max(shape.p_h, shape.p_h2, shape.p_w, shape.p_w2,
                                  shape.p_d, shape.p_d2)
        else:
            boundary_margin = shape.r
    m = int(boundary_margin)
    hs = slice(m, grid.h - m) if grid.h > 2 * m else slice(0, grid.h)
    ws = slice(m, grid.w - m) if grid.w > 2 * m else slice(0, grid.w)
    ds = slice(m, grid.d - m) if grid.d > 2 * m else slice(0, grid.d)
    region = counts[hs, ws, ds]
    coverage = float((region > 0).sum()) / region.size
    flat_counts = counts.reshape(-1)
    overlaps = []
    for cells in per_patch:
        if cells.size == 0:
            continue
        shared = np.count_nonzero(flat_counts[cells] > 1)
        overlaps.append(shared / cells.size)
    return {"coverage_ratio": coverage,
            "mean_overlap_ratio": float(np.mean(overlaps)) if overlaps else 0.0}


# ---------------------------------------------------------------------------
# grid layouts: cuboid, cylinder and sphere patches; square, hexagonal and
# cubic strategies and plain strides; clipping on and off


def _layouts():
    out = []
    for clip in (False, True):
        out += [
            (gg.GridSpec(5, 6, 3), gg.Cuboid(1, 1, 1, 1, 1, 1),
             gg.PackingSpec(1, 1, 1, clip_out_of_grid=clip)),
            (gg.GridSpec(7, 5, 2), gg.Cuboid(0, 2, 1, 0, 0, 1),
             gg.PackingSpec(2, 3, 1, clip_out_of_grid=clip)),
            (gg.GridSpec(9, 9, 2), gg.Cylinder(2, 0, 1),
             gg.PackingSpec(strategy="complete_square", clip_out_of_grid=clip)),
            (gg.GridSpec(9, 10, 1), gg.Cylinder(2),
             gg.PackingSpec(strategy="sparse_hexagonal", clip_out_of_grid=clip)),
            (gg.GridSpec(10, 9, 1), gg.Cylinder(3),
             gg.PackingSpec(strategy="complete_hexagonal", clip_out_of_grid=clip)),
            (gg.GridSpec(6, 6, 6), gg.Sphere(1),
             gg.PackingSpec(strategy="complete_cubic", clip_out_of_grid=clip)),
            (gg.GridSpec(7, 6, 5), gg.Sphere(2),
             gg.PackingSpec(strategy="sparse_cubic", clip_out_of_grid=clip)),
        ]
    return out


LAYOUTS = _layouts()
LAYOUT_IDS = ["%s-%s-%s-clip%d" % (type(s).__name__, p.strategy or "stride",
                                   "x".join(map(str, (g.h, g.w, g.d))),
                                   p.clip_out_of_grid)
              for g, s, p in LAYOUTS]


def _same(got, want):
    assert (got.rows, got.cols, got.nnz) == (want.rows, want.cols, want.nnz)
    assert got.triplets == want.triplets
    assert got.to_dense().tobytes() == want.to_dense().tobytes()
    assert got.to_matrix_market() == want.to_matrix_market()


@pytest.mark.parametrize("layout", LAYOUTS, ids=LAYOUT_IDS)
@pytest.mark.parametrize("mode", ["padding", "aggregation"])
def test_grid_matrix_matches_the_triplet_loop(layout, mode):
    grid, shape, packing = layout
    got = itd.grid_structural_matrix(grid, shape, packing, mode)
    assert isinstance(got, SparseCoo)
    _same(got, loop_grid_structural_matrix(grid, shape, packing, mode))


def test_grid_matrix_unknown_mode():
    with pytest.raises(ValueError):
        itd.grid_structural_matrix(gg.GridSpec(3, 3, 1), gg.Cuboid(1, 1, 1, 1),
                                   gg.PackingSpec(), "bogus")


@pytest.mark.parametrize("layout", LAYOUTS, ids=LAYOUT_IDS)
def test_packing_centers_match_the_loop(layout):
    grid, shape, packing = layout
    # without a shape a strategy's distances are not resolved, but a
    # hexagonal strategy still shifts every other row
    for sh, pk in ((shape, packing), (None, packing),
                   (None, gg.PackingSpec(1.5, 2.5, 1.0, packing.strategy,
                                         packing.clip_out_of_grid))):
        got = gg.packing_centers(grid, pk, sh)
        assert got == loop_packing_centers(grid, pk, sh)
        assert all(type(v) is int for c in got for v in c)


@pytest.mark.parametrize("layout", LAYOUTS, ids=LAYOUT_IDS)
def test_patch_index_matches_patch_cells(layout):
    grid, shape, packing = layout
    idx = gg.patch_index(grid, shape, packing)
    offsets = gg.patch_offsets(shape)
    centers = gg.packing_centers(grid, packing, shape)
    assert idx.shape == (len(centers), len(offsets))
    for row, center in zip(idx, centers):
        assert row[row < grid.size].tolist() == gg.patch_cells(center, offsets, grid)


@pytest.mark.parametrize("layout", LAYOUTS, ids=LAYOUT_IDS)
def test_coverage_stats_matches_the_center_loop(layout):
    grid, shape, packing = layout
    for margin in (None, 0, 1):
        try:
            want = loop_coverage_stats(grid, shape, packing, margin)
        except ValueError:
            with pytest.raises(ValueError):
                gg.coverage_stats(grid, shape, packing, margin)
            continue
        got = gg.coverage_stats(grid, shape, packing, margin)
        assert json.dumps(got) == json.dumps(want)


def test_coverage_stats_on_a_large_grid_matches_the_center_loop():
    args = (gg.GridSpec(64, 64, 1), gg.Cylinder(6),
            gg.PackingSpec(strategy="complete_hexagonal"))
    assert json.dumps(gg.coverage_stats(*args)) == json.dumps(loop_coverage_stats(*args))


# ---------------------------------------------------------------------------
# SparseCoo


def _random_triplets(rng, rows, cols, n):
    i = rng.integers(0, rows, n)
    j = rng.integers(0, cols, n)
    v = rng.choice([-2.5, -1.0, 0.0, 0.5, 1.0, 3.0], n) + rng.normal(size=n) * (
        rng.random(n) < 0.5)
    trips = list(zip(i.tolist(), j.tolist(), v.tolist()))
    # exact cancellations and explicit zeros
    trips += [(0, 0, 1.25), (0, 0, -1.25), (rows - 1, cols - 1, 0.0)]
    return trips


@pytest.mark.parametrize("seed", range(6))
def test_constructor_sums_duplicates_and_drops_zeros_like_the_dict(seed):
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    trips = _random_triplets(rng, rows, cols, int(rng.integers(0, 60)))
    got, want = SparseCoo(rows, cols, *zip(*trips)), DictCoo(rows, cols, trips)
    _same(got, want)
    _same(got.transpose(), want.transpose())
    b = rng.normal(size=(cols, 3))
    assert np.allclose(got.transpose().rmatmul(b.T).T, want.matmul_dense(b), rtol=0, atol=1e-12)


def test_duplicates_are_summed_in_insertion_order():
    # 1e16 + 1 rounds back to 1e16 each time; summing the ones first would
    # give 1e16 + 12
    trips = [(1, 2, 1e16)] + [(1, 2, 1.0)] * 11 + [(0, 1, -3.0)]
    _same(SparseCoo(2, 3, *zip(*trips)), DictCoo(2, 3, trips))
    assert SparseCoo(2, 3, *zip(*trips)).triplets == [(0, 1, -3.0), (1, 2, 1e16)]


def test_constructor_rejects_what_the_dict_rejected():
    for trips in ([(2, 0, 1.0)], [(0, 3, 1.0)], [(-1, 0, 1.0)]):
        with pytest.raises(IndexError):
            SparseCoo(2, 3, *zip(*trips))
    with pytest.raises(ValueError):
        SparseCoo(-1, 3)
    empty = SparseCoo(0, 4)
    _same(empty, DictCoo(0, 4))


def test_from_dense_matches_the_dict():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(13, 11)) * (rng.random((13, 11)) < 0.4)
    a[0, :3] = [-0.0, 0.0, 1e-300]
    got, want = SparseCoo.from_dense(a), DictCoo.from_dense(a)
    _same(got, want)
    b = rng.normal(size=(11, 4))
    # from_dense inserts in row-major order, so the dict summed each row in
    # the same column order as the sorted arrays do: equal bytes
    assert got.transpose().rmatmul(b.T).T.tobytes() == want.matmul_dense(b).tobytes()


def test_rmatmul_is_the_sequential_column_sum():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(9, 7)) * (rng.random((9, 7)) < 0.5)
    a[:, 3] = 0.0
    s = SparseCoo.from_dense(a)
    x = rng.normal(size=(4, 9))
    x[0] = -0.0  # 0.0 + -0.0 is 0.0, as the sequential sum gives
    x[1, :] = np.inf  # only stored entries contribute: column 3 stays 0
    want = np.zeros((4, 7))
    with np.errstate(invalid="ignore"):  # inf - inf
        for i, j, v in s.triplets:  # row-major: each column in row order
            want[:, j] += x[:, i] * v
        got = s.rmatmul(x)
    assert np.all(want[:, 3] == 0.0)
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        s.rmatmul(np.zeros((4, 8)))


def test_grid_padding_product_equals_the_dense_product_exactly():
    grid = gg.GridSpec(8, 8, 3)
    g = itd.grid_structural_matrix(grid, gg.Cuboid(1, 1, 1, 1, 1, 1),
                                   gg.PackingSpec(1, 1, 1, clip_out_of_grid=True))
    x = np.random.default_rng(3).normal(size=(16, grid.size))
    assert g.rmatmul(x).tobytes() == (x @ g.to_dense()).tobytes()


# ---------------------------------------------------------------------------
# compress_patch


MAPPINGS = [("norm", 1), ("norm", 2), ("norm", "inf"), ("entropy", None),
            ("metric", "variance"), ("metric", "std"), ("metric", "skewness"),
            ("operator", "max"), ("operator", "min"), ("operator", "sum"),
            ("operator", "prod"), ("operator", "arith_mean"), ("operator", "geo_mean"),
            ("operator", "harmonic_mean"), ("operator", "median"), ("operator", "mode")]


def _batch(rng, grid, mapping, kind):
    x = rng.normal(size=(3, grid.size))
    if mapping == "entropy" or kind in ("geo_mean", "harmonic_mean"):
        x = np.abs(x) + 0.1
    if kind == "mode":
        x = np.round(x)  # ties between equally frequent values
    if kind == "prod":
        x = 1.0 + 0.1 * x
    return x


@pytest.mark.parametrize("mapping,kind", MAPPINGS, ids=["%s-%s" % mk for mk in MAPPINGS])
def test_compress_patch_matches_the_row_loop(mapping, kind):
    rng = np.random.default_rng(11)
    for grid, shape, packing in LAYOUTS:
        x = _batch(rng, grid, mapping, kind)
        try:
            want = row_compress_patch(x, grid, shape, packing, mapping, kind)
        except ValueError:
            # zero pads make the entropy mapping fail in both definitions
            with pytest.raises(ValueError):
                tf.compress_patch(x, grid, shape, packing, mapping, kind)
            continue
        got = tf.compress_patch(x, grid, shape, packing, mapping, kind)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), (grid, shape, packing)


@pytest.mark.parametrize("mapping,kind", MAPPINGS, ids=["%s-%s" % mk for mk in MAPPINGS])
def test_compress_patch_without_pads_matches_the_row_loop(mapping, kind):
    # every patch inside the grid, so entropy is defined too
    grid = gg.GridSpec(8, 8, 2)
    shape = gg.Cuboid(0, 1, 0, 1, 0, 1)
    packing = gg.PackingSpec(2, 2, 2, clip_out_of_grid=True)
    x = _batch(np.random.default_rng(12), grid, mapping, kind)
    got = tf.compress_patch(x, grid, shape, packing, mapping, kind)
    want = row_compress_patch(x, grid, shape, packing, mapping, kind)
    assert got.tobytes() == want.tobytes()


def test_patch_map_edge_values_match_the_row_map():
    rows = [np.array([0.0, 0.0, 0.0]), np.array([2.0, 2.0, 2.0]),
            np.array([np.nan, 1.0, np.nan]), np.array([3.0, -1.0, 3.0, -1.0]),
            np.array([1.0, np.nan, 2.0]), np.array([-0.0, 5.0, 0.0, 5.0]), np.zeros(0)]
    for vals in rows:
        for mapping, kind in MAPPINGS:
            if mapping == "entropy":
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                try:
                    want = row_patch_map(vals, mapping, kind)
                except ValueError:  # an empty patch has no max, min or mode
                    with pytest.raises(ValueError):
                        tf._patch_map(vals, mapping, kind)
                    continue
                got = tf._patch_map(vals, mapping, kind)
            assert isinstance(got, float)
            assert np.array(got).tobytes() == np.array(want).tobytes(), (vals, kind)


# ---------------------------------------------------------------------------
# rpn2 build-matrix


def _oracle_matrix(spec):
    if spec["kind"] == "chain":
        a = itd.chain_structural_matrix(spec["m"], spec.get("direction", "uni"),
                                        spec["variant"], spec.get("hops", 1))
        return DictCoo.from_dense(a)
    if spec["kind"] == "graph":
        g = itd.Graph(spec["n_nodes"], [tuple(e) for e in spec["edges"]])
        return DictCoo.from_dense(itd.graph_structural_matrix(
            g, spec["variant"], spec.get("hops", 1), spec.get("alpha", 0.15),
            spec.get("normalization", "none")))
    sh, pk = spec["shape"], spec["packing"]
    return loop_grid_structural_matrix(
        gg.GridSpec(spec["h"], spec["w"], spec["d"]),
        gg.Cuboid(sh["p_h"], sh["p_h2"], sh["p_w"], sh["p_w2"], sh["p_d"], sh["p_d2"]),
        gg.PackingSpec(pk["d_h"], pk["d_w"], pk["d_d"],
                       clip_out_of_grid=pk["clip_out_of_grid"]), spec["mode"])


BUILD_SPECS = [
    {"kind": "chain", "m": 40, "variant": "accumulative", "hops": 3},
    {"kind": "chain", "m": 12, "direction": "bi", "variant": "exponential"},
    {"kind": "graph", "n_nodes": 9, "edges": [[0, 1], [1, 2], [2, 5], [4, 8], [3, 7]],
     "variant": "pagerank", "alpha": 0.2, "normalization": "row"},
    {"kind": "graph", "n_nodes": 6, "edges": [[0, 1], [1, 2], [3, 4]],
     "variant": "accumulative", "hops": 2, "normalization": "row_selfloop"},
    {"kind": "grid", "h": 5, "w": 4, "d": 2,
     "shape": {"p_h": 1, "p_h2": 1, "p_w": 1, "p_w2": 1, "p_d": 0, "p_d2": 1},
     "packing": {"d_h": 2, "d_w": 1, "d_d": 1, "clip_out_of_grid": False},
     "mode": "padding"},
    {"kind": "grid", "h": 6, "w": 6, "d": 1,
     "shape": {"p_h": 1, "p_h2": 1, "p_w": 1, "p_w2": 1, "p_d": 0, "p_d2": 0},
     "packing": {"d_h": 2, "d_w": 2, "d_d": 1, "clip_out_of_grid": True},
     "mode": "aggregation"},
]


@pytest.mark.parametrize("spec", BUILD_SPECS,
                         ids=["%s-%s" % (s["kind"], s.get("variant", s.get("mode")))
                              for s in BUILD_SPECS])
def test_build_matrix_files_match_the_dict_export(tmp_path, spec):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"matrix": spec}))
    out = tmp_path / "m.mtx"
    assert cli.main(["build-matrix", "--config", str(cfg), "--out", str(out)]) == 0
    want = _oracle_matrix(spec)
    assert out.read_text() == want.to_matrix_market()
    stats = {"rows": want.rows, "cols": want.cols, "nnz": want.nnz,
             "nnz_ratio": want.nnz / float(want.rows * want.cols)}
    want_stats = json.dumps(stats, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "m.mtx.stats.json").read_text() == want_stats


# ---------------------------------------------------------------------------
# the grid op's shortcuts: the unit first pass of rmatmul and slot-major
# max/min pooling


def _first_pass_with_scale(s, x):
    """rmatmul's first pass as planned for any matrix: gather, scale, add 0.0."""
    src = np.full(s.cols, s.rows)
    scale = np.zeros(s.cols)
    for i, j, v in reversed(s.triplets):  # the lowest row of each column wins
        src[j], scale[j] = i, v
    out = np.take(np.concatenate([x, np.zeros((x.shape[0], 1))], axis=1), src, axis=1)
    out *= scale
    out += 0.0
    return out


def _special_batch(rng, rows, count):
    vals = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.5, -2.0])
    return rng.choice(vals, size=(count, rows), p=[0.25, 0.25, 0.1, 0.1, 0.1, 0.1, 0.1])


def test_rmatmul_unit_plan_equals_the_scaled_first_pass_on_special_values():
    g = itd.grid_structural_matrix(gg.GridSpec(8, 8, 3), gg.Cuboid(1, 1, 1, 1, 1, 1),
                                   gg.PackingSpec(1, 1, 1, clip_out_of_grid=True))
    src, scale, passes = g._rmatmul_plan()
    assert scale is None and passes == []
    x = _special_batch(np.random.default_rng(4), g.rows, 8)
    with np.errstate(invalid="ignore"):
        got = g.rmatmul(x)
        want = _first_pass_with_scale(g, x)
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    # -0.0 reads as 0.0, as the sum from 0.0 gives; NaN and +-inf pass through
    assert not np.any(np.signbit(got) & (got == 0.0))
    assert np.isnan(got).any() and np.isinf(got).any()


def test_rmatmul_unit_plan_equals_the_dense_product_with_signed_zeros():
    for clip in (True, False):
        g = itd.grid_structural_matrix(gg.GridSpec(5, 6, 3), gg.Cuboid(1, 1, 1, 1, 1, 1),
                                       gg.PackingSpec(2, 1, 1, clip_out_of_grid=clip))
        assert g._rmatmul_plan()[1] is None
        x = np.random.default_rng(5).choice(np.array([0.0, -0.0, 1.0, -3.5]),
                                            size=(6, g.rows))
        assert g.rmatmul(x).tobytes() == (x @ g.to_dense()).tobytes()


@pytest.mark.parametrize("layout", LAYOUTS, ids=LAYOUT_IDS)
def test_aggregation_and_scaled_grid_products_match_the_column_sum(layout):
    # the aggregation matrix is a unit plan with later passes; scaled, the
    # same structure takes the scale pass; both stay the sequential column sum
    grid, shape, packing = layout
    agg = itd.grid_structural_matrix(grid, shape, packing, "aggregation")
    scaled = SparseCoo(agg.rows, agg.cols, agg.row_idx, agg.col_idx, agg.vals * -0.75)
    assert agg._rmatmul_plan()[1] is None and agg._rmatmul_plan()[2]
    assert scaled._rmatmul_plan()[1] is not None
    x = _special_batch(np.random.default_rng(6), agg.rows, 5)
    for s in (agg, scaled):
        want = np.zeros((x.shape[0], s.cols))
        with np.errstate(invalid="ignore"):
            for i, j, v in s.triplets:
                want[:, j] += x[:, i] * v
            got = s.rmatmul(x)
        # a NaN's sign bit follows operand order (term + sum here, sum + term
        # in the loop), so NaNs are compared by position
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()
        finite = np.where(np.isfinite(x), x, 1.0)
        assert s.rmatmul(finite).tobytes() == (finite @ s.to_dense()).tobytes()


def test_rmatmul_scaled_first_entries_take_the_scale_pass():
    rng = np.random.default_rng(7)
    a = np.zeros((6, 5))
    a[rng.integers(0, 6, 5), np.arange(5)] = [1.0, 1.0, 2.5, 1.0, -1.0]
    a[:, 3] = 0.0  # an empty column
    s = SparseCoo.from_dense(a)
    assert s._rmatmul_plan()[1] is not None
    x = rng.choice(np.array([0.0, -0.0, 2.0, -1.25]), size=(4, 6))
    assert s.rmatmul(x).tobytes() == (x @ a).tobytes()
    assert s.rmatmul(x).tobytes() == _first_pass_with_scale(s, x).tobytes()


@pytest.mark.parametrize("kind", ["max", "min"])
def test_slot_major_pooling_matches_the_row_loop_on_special_values(kind):
    # NaN positions and every value agree with the row loop; where a patch
    # ties -0.0 with 0.0 either zero may come back
    rng = np.random.default_rng(13)
    for grid, shape, packing in LAYOUTS:
        x = _special_batch(rng, grid.size, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = tf.compress_patch(x, grid, shape, packing, "operator", kind)
            want = row_compress_patch(x, grid, shape, packing, "operator", kind)
        assert got.shape == want.shape and got.flags.c_contiguous
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan], want[~nan])
        nonzero = ~nan & (want != 0.0)
        assert got[nonzero].tobytes() == want[nonzero].tobytes()


def test_slot_major_inf_norm_matches_the_row_loop_byte_for_byte():
    rng = np.random.default_rng(14)
    for grid, shape, packing in LAYOUTS:
        x = _special_batch(rng, grid.size, 4)
        for kind in ("inf", np.inf):
            got = tf.compress_patch(x, grid, shape, packing, "norm", kind)
            want = row_compress_patch(x, grid, shape, packing, "norm", kind)
            assert got.tobytes() == want.tobytes()
