"""sha256 pins of what the sparse builders and `rpn2 build-matrix` produce.

The digests were recorded before `SparseCoo` was reduced to one array
constructor; they hold its canonical arrays, its product plan and the text
of its export to those bytes. The pagerank values come from LAPACK's LU,
whose last bits follow the BLAS thread count, so its export pins the header
and index columns only, and its values are checked against the same
process's matrix and a LAPACK-free oracle.
"""

import hashlib
import json

import numpy as np
import pytest

from rpn2 import cli
from rpn2 import grid_geometry as gg
from rpn2 import interdependence as itd
from test_interdependence import _solve_oracle


def _pagerank_edges():
    iu, ju = np.triu_indices(160, k=1)
    keep = np.random.default_rng(160).random(iu.size) < 0.04
    return [[int(a), int(b)] for a, b in zip(iu[keep], ju[keep])]


# chain is README's chain.json; chain, onehop and pagerank are the three
# build-matrix inputs of the cli_oneshot benchmark at one draw of its sizes;
# the first digest is of the .mtx file (pagerank: without its value column),
# the second of its .stats.json
MATRICES = {
    "chain": ({"kind": "chain", "m": 512, "variant": "accumulative", "hops": 5},
              "459462425722747ab0888ff97c45ab67c0f24bc66b69870556262159a0cef813",
              "0b82febe2af8e17270dd50de83a45fd61d39aa6644c81322129f68bb2001bcca"),
    "onehop": ({"kind": "chain", "m": 4096, "variant": "onehop"},
               "bb80ec229b02c466e8030dcb1f3d8c9f3282689cafa8e82d2a5f6862f0435cfb",
               "032fb249270eca63fea62de4042bf65f94d972c633afe21baea036faa51d79ba"),
    "pagerank": ({"kind": "graph", "n_nodes": 160, "edges": _pagerank_edges(),
                  "variant": "pagerank", "alpha": 0.15, "normalization": "row"},
                 "2e2661da7c7206580b52c43f2c4f8a573fe1977d8ae841147ce002dd4111aba1",
                 "1dbf3587ca9983d619c1e9c58e6811e914ceac13475a7bee162d1d7ab2f768d7"),
}


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _pagerank_values(spec, text):
    """The export without its value column, after checking each value: it
    parses back exactly to the process's own matrix, and lies within 1e-12
    relative of Gaussian elimination (no LAPACK)."""
    lines = text.splitlines()
    rows = [line.split(" ") for line in lines[2:]]
    r, c = (np.array([int(row[i]) - 1 for row in rows]) for i in (0, 1))
    values = np.array([float(row[2]) for row in rows])
    graph = itd.Graph(spec["n_nodes"], spec["edges"])
    mine = itd.graph_structural_matrix(graph, "pagerank", alpha=spec["alpha"],
                                       normalization=spec["normalization"])
    assert values.tobytes() == mine[r, c].tobytes()
    adj = graph.adjacency()
    deg = adj.sum(axis=1, keepdims=True)
    n = graph.n_nodes
    want = spec["alpha"] * _solve_oracle(
        np.eye(n) - (1.0 - spec["alpha"]) * adj / np.where(deg == 0.0, 1.0, deg), np.eye(n))
    assert np.max(np.abs(values - want[r, c])) <= 1e-12 * np.max(np.abs(want))
    return "\n".join(lines[:2] + [" ".join(row[:2]) for row in rows]) + "\n"


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_build_matrix_files_keep_their_bytes(tmp_path, capsys, name):
    spec, mtx_sha, stats_sha = MATRICES[name]
    cfg, out = tmp_path / "matrix.json", tmp_path / "matrix.mtx"
    cfg.write_text(json.dumps({"matrix": spec}))
    assert cli.main(["build-matrix", "--config", str(cfg), "--out", str(out)]) == 0
    text = out.read_text()
    if name == "pagerank":
        text = _pagerank_values(spec, text)
    assert hashlib.sha256(text.encode()).hexdigest() == mtx_sha
    assert hashlib.sha256((tmp_path / "matrix.mtx.stats.json").read_bytes()).hexdigest() \
        == stats_sha


def test_grid_cnn_matrix_keeps_its_arrays_and_plan():
    # the 8x8x3 padding matrix of the grid_cnn benchmark
    a = itd.grid_structural_matrix(gg.GridSpec(8, 8, 3), gg.Cuboid(1, 1, 1, 1, 1, 1),
                                   gg.PackingSpec(1.0, 1.0, 1.0, clip_out_of_grid=True),
                                   "padding")
    assert _sha(a.row_idx, a.col_idx, a.vals) \
        == "e791b7709be183c105f432e05d41f1a66a2a7390a54e1ee72927f4d9f3202e32"
    src, scale, passes = a._rmatmul_plan()
    assert scale is None and passes == []
    assert _sha(src) == "8c2622c725c1bfe8d43a2a24e5baa26e7f25ade6f3a9d2b8bc9e4bebb7a3f69a"
