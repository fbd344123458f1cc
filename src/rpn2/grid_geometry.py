"""Grid coordinate system, patch shapes, packing-center enumeration and
coverage analytics for cuboid, cylinder and sphere patches.

A grid(h, w, d) flattens cell (i, j, k) to index i*w*d + j*d + k. Patches are
offset sets around a center; packings place centers at integer multiples of
the center distances (d_h, d_w, d_d), rounded half-up when the distances are
irrational. Centers produced by the literal floor formula may fall outside the
grid; their patch cells are zero-padded unless clipping is requested.

The patch index of a (shape, packing) geometry on a grid is resolved once and
kept, read-only, on the frozen GridSpec, so it lives as long as the grid.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    h: int
    w: int
    d: int = 1

    def __post_init__(self):
        if self.h < 1 or self.w < 1 or self.d < 1:
            raise ValueError("grid dimensions must be >= 1")

    @property
    def size(self):
        return self.h * self.w * self.d


class _Patch:
    """A patch shape; its extents are non-negative integers."""

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 0:
                raise ValueError("patch extent %s = %r must be >= 0" % (name, value))


@dataclass(frozen=True)
class Cuboid(_Patch):
    p_h: int
    p_h2: int
    p_w: int
    p_w2: int
    p_d: int = 0
    p_d2: int = 0


@dataclass(frozen=True)
class Cylinder(_Patch):
    r: int
    p_d: int = 0
    p_d2: int = 0


@dataclass(frozen=True)
class Sphere(_Patch):
    r: int


# named packing strategies -> center distances as functions of the patch
_CYLINDER_STRATEGIES = {
    # sparse leaves gaps, complete overlaps to cover every interior cell
    "sparse_square": lambda r: (2.0 * r, 2.0 * r),
    "sparse_hexagonal": lambda r: (math.sqrt(3.0) * r, 2.0 * r),
    "complete_square": lambda r: (math.sqrt(2.0) * r, math.sqrt(2.0) * r),
    "complete_hexagonal": lambda r: (1.5 * r, math.sqrt(3.0) * r),
}

_SPHERE_STRATEGIES = {
    "sparse_cubic": lambda r: (2.0 * r,) * 3,
    "complete_cubic": lambda r: (2.0 * math.sqrt(3.0) / 3.0 * r,) * 3,
}


@dataclass(frozen=True)
class PackingSpec:
    d_h: float = 1.0
    d_w: float = 1.0
    d_d: float = 1.0
    strategy: str = ""
    clip_out_of_grid: bool = False

    def resolve(self, shape):
        """Center distances (d_h, d_w, d_d), from the named strategy when there
        are a strategy and a shape, else as given. Each must be > 0."""
        dists = (self.d_h, self.d_w, self.d_d)
        if self.strategy and shape is not None:
            if isinstance(shape, Cylinder) and self.strategy in _CYLINDER_STRATEGIES:
                dists = _CYLINDER_STRATEGIES[self.strategy](shape.r) + (self.d_d,)
            elif isinstance(shape, Sphere) and self.strategy in _SPHERE_STRATEGIES:
                dists = _SPHERE_STRATEGIES[self.strategy](shape.r)
            else:
                raise ValueError("unknown packing strategy %r for %r" % (self.strategy, shape))
        for name, dist in zip(("d_h", "d_w", "d_d"), dists):
            if not dist > 0:
                raise ValueError("center distance %s = %r must be > 0" % (name, dist))
        return dists


def index_of(coord, grid):
    i, j, k = coord
    if not (0 <= i < grid.h and 0 <= j < grid.w and 0 <= k < grid.d):
        raise IndexError("coordinate %r outside grid" % (coord,))
    return i * grid.w * grid.d + j * grid.d + k


def coord_of(index, grid):
    if not (0 <= index < grid.size):
        raise IndexError("index out of range")
    i = index // (grid.w * grid.d)
    rem = index % (grid.w * grid.d)
    return (i, rem // grid.d, rem % grid.d)


def patch_offsets(shape):
    """Lexicographically ordered integer offsets belonging to the patch."""
    out = []
    if isinstance(shape, Cuboid):
        for di in range(-shape.p_h, shape.p_h2 + 1):
            for dj in range(-shape.p_w, shape.p_w2 + 1):
                for dk in range(-shape.p_d, shape.p_d2 + 1):
                    out.append((di, dj, dk))
    elif isinstance(shape, Cylinder):
        r2 = shape.r * shape.r
        for di in range(-shape.r, shape.r + 1):
            for dj in range(-shape.r, shape.r + 1):
                if di * di + dj * dj > r2:
                    continue
                for dk in range(-shape.p_d, shape.p_d2 + 1):
                    out.append((di, dj, dk))
    elif isinstance(shape, Sphere):
        r2 = shape.r * shape.r
        for di in range(-shape.r, shape.r + 1):
            for dj in range(-shape.r, shape.r + 1):
                for dk in range(-shape.r, shape.r + 1):
                    if di * di + dj * dj + dk * dk <= r2:
                        out.append((di, dj, dk))
    else:
        raise TypeError("unknown patch shape %r" % (shape,))
    return out


def patch_size(shape):
    return len(patch_offsets(shape))


def _axis_centers(extent, dist):
    """The distinct centers round(t * dist), half-up, for t = 0 ..
    floor(extent / dist), ascending, as an int64 array. The work is
    O(extent) for any dist > 0: below a step of 1/2 every integer up to the
    last center is a center, so no t is stepped through. The centers never
    decrease in t, so a repeat is dropped where it equals its predecessor
    (np.unique would import numpy.ma, about 1 MiB)."""
    count = int(math.floor(extent / dist))
    if dist <= 0.5:
        return np.arange(int(math.floor(count * dist + 0.5)) + 1, dtype=np.int64)
    centers = np.floor(np.arange(count + 1) * dist + 0.5).astype(np.int64)
    return centers[np.diff(centers, prepend=-1) > 0]


def _center_array(grid, packing, shape):
    """Packing centers as an (n, 3) int64 array: rows of centers in order,
    then columns, then depth."""
    dh, dw, dd = packing.resolve(shape)
    his, wjs, dks = (_axis_centers(extent, dist)
                     for extent, dist in ((grid.h, dh), (grid.w, dw), (grid.d, dd)))
    i, j, k = np.meshgrid(his, wjs, dks, indexing="ij")
    if "hexagonal" in packing.strategy:
        # hexagonal packings shift every other row by half the column distance
        j = j + int(math.floor(dw / 2.0 + 0.5)) * (np.arange(his.size) % 2)[:, None, None]
    centers = np.stack([i, j, k], axis=-1).reshape(-1, 3)
    if packing.clip_out_of_grid:
        centers = centers[(centers[:, 0] < grid.h) & (centers[:, 1] < grid.w)
                          & (centers[:, 2] < grid.d)]
    return centers


def packing_centers(grid, packing, shape=None):
    return [tuple(c) for c in _center_array(grid, packing, shape).tolist()]


def patch_count(grid, packing, shape=None):
    """Literal (1+floor(h/d_h))(1+floor(w/d_w))(1+floor(d/d_d)) count.

    Equals len(packing_centers) with clip disabled, modulo de-duplication of
    rounded centers (which only collapses when a distance < 1).
    """
    dh, dw, dd = packing.resolve(shape)
    return ((1 + int(math.floor(grid.h / dh)))
            * (1 + int(math.floor(grid.w / dw)))
            * (1 + int(math.floor(grid.d / dd))))


def patch_cells(center, offsets, grid):
    """In-grid flat indices of the patch at `center`; out-of-grid cells skipped."""
    ci, cj, ck = center
    cells = []
    for di, dj, dk in offsets:
        i, j, k = ci + di, cj + dj, ck + dk
        if 0 <= i < grid.h and 0 <= j < grid.w and 0 <= k < grid.d:
            cells.append(i * grid.w * grid.d + j * grid.d + k)
    return cells


def _patch_tables(grid, shape, packing):
    """(index, pads_last) of a geometry, both read-only, built on first use
    and kept on the frozen `grid`, keyed on the frozen (shape, PackingSpec)
    pair and never on data, so they are freed with the grid. Threads that
    build the same entry at once all get the one that `setdefault` kept.
    `index` is `patch_index`; `pads_last` reorders each of its rows, stably,
    so that the in-grid cells come first in offset order and the pad slots
    last, the order in which `transformation.compress_patch` reduces a
    patch."""
    kept = grid.__dict__.setdefault("_patch_tables", {})
    tables = kept.get((shape, packing))
    if tables is None:
        tables = kept.setdefault((shape, packing), _build_patch_tables(grid, shape, packing))
    return tables


def _build_patch_tables(grid, shape, packing):
    offsets = np.asarray(patch_offsets(shape), dtype=np.int64).reshape(-1, 3)
    centers = _center_array(grid, packing, shape)
    flat = np.zeros((len(centers), len(offsets)), dtype=np.int64)
    inside = np.ones(flat.shape, dtype=bool)
    for axis, extent in enumerate((grid.h, grid.w, grid.d)):
        coord = centers[:, axis, None] + offsets[None, :, axis]
        inside &= (coord >= 0) & (coord < extent)
        flat = flat * extent + coord
    index = np.where(inside, flat, grid.size)
    pads_last = np.take_along_axis(index, np.argsort(~inside, axis=1, kind="stable"), axis=1)
    for a in (index, pads_last):
        a.flags.writeable = False
    return index, pads_last


def patch_index(grid, shape, packing):
    """Flat cell index of every patch slot: row c, column s is the cell at
    center c (packing_centers order) plus offset s (patch_offsets order), or
    grid.size where that cell falls outside the grid (the zero-pad slot).
    Centers and offsets are broadcast against each other, with no loop over
    cells. Resolved once per geometry and kept on the grid: the array is
    read-only."""
    return _patch_tables(grid, shape, packing)[0]


def coverage_stats(grid, shape, packing, boundary_margin=None):
    """Fraction of (interior) cells covered by at least one patch plus the
    mean per-patch overlap fraction.

    The margin keeps boundary truncation out of the estimate so the discrete
    ratio can be compared against the continuum packing densities.
    """
    idx = patch_index(grid, shape, packing)
    if idx.shape[0] < 4:
        raise ValueError("degenerate grid: fewer than 4 patches fit")
    inside = idx < grid.size
    # patches per cell, plus a last bin for the pad slots, which `inside` masks
    flat_counts = np.bincount(idx.reshape(-1), minlength=grid.size + 1)
    counts = flat_counts[:-1].reshape(grid.h, grid.w, grid.d)
    if boundary_margin is None:
        if isinstance(shape, Cuboid):
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
    sizes = inside.sum(axis=1)
    shared = ((flat_counts[idx] > 1) & inside).sum(axis=1)
    overlaps = shared[sizes > 0] / sizes[sizes > 0]
    return {"coverage_ratio": coverage,
            "mean_overlap_ratio": float(np.mean(overlaps)) if overlaps.size else 0.0}
