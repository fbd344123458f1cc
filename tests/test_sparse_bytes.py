"""sha256 pins of what the sparse builders and `rpn2 build-matrix` produce.

The digests were recorded before `SparseCoo` was reduced to one array
constructor; they hold its canonical arrays, its product plan and the text
of its export to those bytes.
"""

import hashlib
import json

import numpy as np
import pytest

from rpn2 import cli
from rpn2 import grid_geometry as gg
from rpn2 import interdependence as itd


def _pagerank_edges():
    iu, ju = np.triu_indices(160, k=1)
    keep = np.random.default_rng(160).random(iu.size) < 0.04
    return [[int(a), int(b)] for a, b in zip(iu[keep], ju[keep])]


# chain is README's chain.json; chain, onehop and pagerank are the three
# build-matrix inputs of the cli_oneshot benchmark at one draw of its sizes
MATRICES = {
    "chain": ({"kind": "chain", "m": 512, "variant": "accumulative", "hops": 5},
              "459462425722747ab0888ff97c45ab67c0f24bc66b69870556262159a0cef813",
              "0b82febe2af8e17270dd50de83a45fd61d39aa6644c81322129f68bb2001bcca"),
    "onehop": ({"kind": "chain", "m": 4096, "variant": "onehop"},
               "bb80ec229b02c466e8030dcb1f3d8c9f3282689cafa8e82d2a5f6862f0435cfb",
               "032fb249270eca63fea62de4042bf65f94d972c633afe21baea036faa51d79ba"),
    "pagerank": ({"kind": "graph", "n_nodes": 160, "edges": _pagerank_edges(),
                  "variant": "pagerank", "alpha": 0.15, "normalization": "row"},
                 "44740ce0f9ee16a02af4e574bf6c72b6297f231af7de3567a06bdc86cf1d5937",
                 "1dbf3587ca9983d619c1e9c58e6811e914ceac13475a7bee162d1d7ab2f768d7"),
}


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_build_matrix_files_keep_their_bytes(tmp_path, capsys, name):
    spec, mtx_sha, stats_sha = MATRICES[name]
    cfg, out = tmp_path / "matrix.json", tmp_path / "matrix.mtx"
    cfg.write_text(json.dumps({"matrix": spec}))
    assert cli.main(["build-matrix", "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == mtx_sha
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
