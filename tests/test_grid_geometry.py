import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpn2 import grid_geometry as gg


def test_index_coord_roundtrip_examples():
    grid = gg.GridSpec(4, 5, 3)
    assert gg.index_of((0, 0, 0), grid) == 0
    assert gg.index_of((1, 0, 0), grid) == 15
    assert gg.index_of((0, 1, 0), grid) == 3
    assert gg.coord_of(22, grid) == (1, 2, 1)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4),
       st.integers(0, 10 ** 6))
def test_index_coord_roundtrip_property(h, w, d, raw):
    grid = gg.GridSpec(h, w, d)
    idx = raw % grid.size
    assert gg.index_of(gg.coord_of(idx, grid), grid) == idx


def test_grid_rejects_degenerate():
    with pytest.raises(ValueError):
        gg.GridSpec(0, 3, 1)


def test_patch_sizes():
    assert gg.patch_size(gg.Cuboid(1, 1, 1, 1, 1, 1)) == 27
    assert gg.patch_size(gg.Cuboid(1, 1, 1, 1, 0, 0)) == 9
    # cylinder r=1: 5-cell cross per depth slice
    assert gg.patch_size(gg.Cylinder(1, 0, 0)) == 5
    assert gg.patch_size(gg.Sphere(1)) == 7
    assert gg.patch_size(gg.Sphere(2)) == 33


def test_patch_offsets_lexicographic():
    offs = gg.patch_offsets(gg.Cuboid(1, 1, 1, 1, 0, 0))
    assert offs == sorted(offs)
    assert offs[0] == (-1, -1, 0)
    assert offs[-1] == (1, 1, 0)


def test_packing_centers_spec_examples():
    # 6x6 grid, distances 3, clipped: height centers {0, 3} -> 8 centers total
    grid = gg.GridSpec(6, 6, 1)
    packing = gg.PackingSpec(3, 3, 1, clip_out_of_grid=True)
    centers = gg.packing_centers(grid, packing)
    his = sorted({c[0] for c in centers})
    assert his == [0, 3]
    # depth axis: floor(1/1) = 1 gives centers {0, 1}, 1 clipped away
    assert sorted({c[2] for c in centers}) == [0]
    assert len(centers) == 4  # {0,3} x {0,3} x {0}
    # 4x4, distance 2, unclipped: centers {0, 2, 4} per the floor formula
    centers2 = gg.packing_centers(gg.GridSpec(4, 4, 1), gg.PackingSpec(2, 2, 1))
    assert sorted({c[0] for c in centers2}) == [0, 2, 4]


def test_patch_count_literal_formula():
    grid = gg.GridSpec(8, 8, 3)
    packing = gg.PackingSpec(1, 1, 1)
    assert gg.patch_count(grid, packing) == 9 * 9 * 4
    assert gg.patch_count(grid, packing) == \
        len(gg.packing_centers(grid, packing))


def test_hexagonal_rows_are_offset():
    grid = gg.GridSpec(256, 256, 1)
    packing = gg.PackingSpec(strategy="sparse_hexagonal")
    centers = gg.packing_centers(grid, packing, gg.Cylinder(16))
    rows = sorted({c[0] for c in centers})
    cols_even = sorted({c[1] for c in centers if c[0] == rows[0]})
    cols_odd = sorted({c[1] for c in centers if c[0] == rows[1]})
    assert cols_odd[0] - cols_even[0] == 16  # half of d_w = 2r


def test_strategy_distances():
    assert gg.PackingSpec(strategy="sparse_square").resolve(gg.Cylinder(4))[:2] \
        == (8.0, 8.0)
    dh, dw, _ = gg.PackingSpec(strategy="complete_square").resolve(gg.Cylinder(4))
    assert dh == pytest.approx(4 * np.sqrt(2))
    d3 = gg.PackingSpec(strategy="complete_cubic").resolve(gg.Sphere(3))
    assert d3[0] == pytest.approx(2 * np.sqrt(3) / 3 * 3)
    with pytest.raises(ValueError):
        gg.PackingSpec(strategy="nope").resolve(gg.Sphere(3))


@pytest.mark.parametrize("make,bad", [
    (lambda: gg.Cuboid(-3, 1, 1, 1), "p_h = -3"),
    (lambda: gg.Cuboid(-1, -2, 0, 0), "p_h = -1"),
    (lambda: gg.Cuboid(0, 0, 0, 0, 0, -1), "p_d2 = -1"),
    (lambda: gg.Cylinder(-1), "r = -1"),
    (lambda: gg.Cylinder(1, 0, -2), "p_d2 = -2"),
    (lambda: gg.Sphere(-1), "r = -1"),
])
def test_patch_shapes_reject_negative_extents(make, bad):
    with pytest.raises(ValueError, match=bad):
        make()


@pytest.mark.parametrize("packing,shape,bad", [
    (gg.PackingSpec(0.0, 1.0, 1.0), None, "d_h = 0.0"),
    (gg.PackingSpec(1.0, -1.0, 1.0), gg.Cuboid(0, 1, 0, 1), "d_w = -1.0"),
    (gg.PackingSpec(1.0, 1.0, float("nan")), gg.Cuboid(0, 1, 0, 1), "d_d = nan"),
    (gg.PackingSpec(strategy="sparse_square"), gg.Cylinder(0), "d_h = 0.0"),
    (gg.PackingSpec(strategy="complete_cubic"), gg.Sphere(0), "d_h = 0.0"),
    (gg.PackingSpec(strategy="sparse_square", d_d=0.0), gg.Cylinder(2), "d_d = 0.0"),
])
def test_center_distances_must_be_positive_wherever_resolved(packing, shape, bad):
    grid = gg.GridSpec(4, 4, 1)
    for resolve in (lambda: packing.resolve(shape),
                    lambda: gg.packing_centers(grid, packing, shape),
                    lambda: gg.patch_count(grid, packing, shape)):
        with pytest.raises(ValueError, match=bad):
            resolve()


def test_patch_cells_skips_out_of_grid():
    grid = gg.GridSpec(4, 4, 1)
    offs = gg.patch_offsets(gg.Cuboid(1, 1, 1, 1, 0, 0))
    cells = gg.patch_cells((0, 0, 0), offs, grid)
    assert len(cells) == 4  # corner keeps the 2x2 in-grid part
    assert len(gg.patch_cells((2, 2, 0), offs, grid)) == 9


def test_coverage_degenerate_raises():
    with pytest.raises(ValueError):
        gg.coverage_stats(gg.GridSpec(4, 4, 1), gg.Cylinder(16),
                          gg.PackingSpec(strategy="sparse_square"))


def test_coverage_complete_square_exact():
    stats = gg.coverage_stats(gg.GridSpec(256, 256, 1), gg.Cylinder(16),
                              gg.PackingSpec(strategy="complete_square"))
    assert stats["coverage_ratio"] == 1.0
    assert stats["mean_overlap_ratio"] > 0.0


def test_coverage_sparse_leaves_gaps():
    stats = gg.coverage_stats(gg.GridSpec(256, 256, 1), gg.Cylinder(16),
                              gg.PackingSpec(strategy="sparse_square"))
    assert 0.7 < stats["coverage_ratio"] < 0.82


def loop_axis_centers(extent, dist):
    """The distinct round(t * dist), half-up, for t = 0 .. floor(extent /
    dist), stepped one t at a time."""
    seen = []
    for t in range(int(math.floor(extent / dist)) + 1):
        c = int(math.floor(t * dist + 0.5))
        if c not in seen:
            seen.append(c)
    return seen


def test_axis_centers_match_the_loop():
    strategies = {d for table in (gg._CYLINDER_STRATEGIES, gg._SPHERE_STRATEGIES)
                  for f in table.values() for r in range(1, 6) for d in f(r)}
    dists = ([math.sqrt(2.0), math.sqrt(3.0), 2.0 * math.sqrt(3.0) / 3.0, 0.5, 0.5 + 1e-12,
              0.75, 1.0 - 1e-12, 1.0] + sorted(strategies)
             + np.random.default_rng(13).uniform(0.01, 5.0, 300).tolist())
    for extent in range(1, 70):
        for dist in dists:
            got = gg._axis_centers(extent, dist)
            assert got.dtype == np.int64
            assert got.tolist() == loop_axis_centers(extent, dist), (extent, dist)


def test_axis_centers_of_a_tiny_distance_are_every_cell():
    # the loop would step through 8e9 values of t
    assert gg._axis_centers(8, 1e-9).tolist() == list(range(9))


def test_patch_tables_are_kept_per_grid_and_read_only():
    grid = gg.GridSpec(6, 5, 2)
    args = (gg.Cuboid(1, 0, 1, 1, 0, 1), gg.PackingSpec(2.0, 1.0, 1.0, clip_out_of_grid=True))
    # an equal (shape, packing) pair built separately shares the grid's entry
    twin = (gg.Cuboid(1, 0, 1, 1, 0, 1), gg.PackingSpec(2.0, 1.0, 1.0, clip_out_of_grid=True))
    assert twin is not args and twin == args
    idx = gg.patch_index(grid, *args)
    assert gg.patch_index(grid, *twin) is idx
    index, pads_last = gg._patch_tables(grid, *twin)
    assert index is idx
    assert list(grid.__dict__["_patch_tables"]) == [args]
    # an equal grid built separately keeps tables of its own
    other = gg.GridSpec(6, 5, 2)
    assert other == grid and gg.patch_index(other, *args) is not idx
    assert np.array_equal(gg.patch_index(other, *args), idx)
    for a in (index, pads_last):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0
    # pads_last: each row's in-grid cells in offset order, then its pads
    for row, ordered in zip(index, pads_last):
        cells = row[row < 60].tolist()
        assert ordered.tolist() == cells + [60] * (row.size - len(cells))


def test_patch_tables_die_with_their_grid():
    grid = gg.GridSpec(7, 6, 1)
    kept = weakref.ref(gg.patch_index(grid, gg.Cuboid(1, 1, 1, 1), gg.PackingSpec()))
    grid_ref = weakref.ref(grid)
    assert kept() is not None
    del grid
    gc.collect()
    assert grid_ref() is None and kept() is None


def test_patch_index_cache_under_threads():
    # more threads than cores cycle through 24 grids, so entries are built
    # on some grids while others are read
    shape, packing = gg.Cuboid(1, 1, 1, 1), gg.PackingSpec(2.0, 1.0, 1.0)
    grids = [gg.GridSpec(h, 4, 1) for h in range(3, 3 + 24)]
    want = {g: gg._build_patch_tables(g, shape, packing)[0] for g in grids}
    errors = []

    def worker(offset):
        try:
            for r in range(40):
                g = grids[(offset + 7 * r) % len(grids)]
                if not np.array_equal(gg.patch_index(g, shape, packing), want[g]):
                    errors.append(g)
        except Exception as exc:  # a lost update surfaces as KeyError here
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
