"""Uni chains and identities exported as SparseCoo without a dense
intermediate, checked byte for byte against the earlier route, which is kept
here as the oracle: the dense matrix through `SparseCoo.from_dense`."""

import json
import tracemalloc

import numpy as np
import pytest

from rpn2 import cli
from rpn2 import interdependence as itd
from rpn2.numeric_core import SparseCoo


# ---------------------------------------------------------------------------
# chain_structural_coo against the dense route


UNI_VARIANTS = ("onehop", "multihop", "accumulative", "exponential", "reciprocal")
SIZES = (1, 2, 3, 7, 64, 200, 513)


def _hop_counts(m, variant):
    if variant not in ("multihop", "accumulative"):
        return (1,)
    if m <= 64:
        return range(m)
    return sorted({0, 1, 2, 5, m // 2, m - 2, m - 1})


def _dense_route(m, direction, variant, hops, include_self):
    return SparseCoo.from_dense(
        itd.chain_structural_matrix(m, direction, variant, hops, include_self))


def _same_matrix(got, want):
    assert (got.rows, got.cols) == (want.rows, want.cols)
    for a, b in ((got.row_idx, want.row_idx), (got.col_idx, want.col_idx),
                 (got.vals, want.vals)):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    assert got.to_matrix_market() == want.to_matrix_market()


@pytest.mark.parametrize("m", SIZES)
@pytest.mark.parametrize("variant", UNI_VARIANTS)
def test_uni_chain_coo_matches_the_dense_route(m, variant):
    for hops in _hop_counts(m, variant):
        for include_self in (False, True):
            args = (m, "uni", variant, hops, include_self)
            _same_matrix(itd.chain_structural_coo(*args), _dense_route(*args))


@pytest.mark.parametrize("variant", UNI_VARIANTS)
def test_bi_chain_coo_is_the_dense_route(variant):
    for m in (1, 2, 3, 7):
        for hops in _hop_counts(m, variant):
            args = (m, "bi", variant, hops, True)
            _same_matrix(itd.chain_structural_coo(*args), _dense_route(*args))


BAD_CHAINS = [
    {"m": 0},
    {"m": -3, "direction": "bi"},
    {"m": 4, "variant": "multihop", "hops": -1},
    {"m": 4, "variant": "accumulative", "hops": 4},
    {"m": 4, "direction": "bi", "variant": "multihop", "hops": 9},
    {"m": 4, "variant": "bogus"},
    {"m": 4, "direction": "bi", "variant": "bogus"},
    {"m": 4, "direction": "sideways"},
    {"m": 4, "direction": "sideways", "variant": "bogus"},
]


@pytest.mark.parametrize("spec", BAD_CHAINS, ids=[json.dumps(s) for s in BAD_CHAINS])
def test_bad_chain_arguments_fail_as_the_dense_builder_does(tmp_path, capsys, spec):
    with pytest.raises(ValueError) as dense:
        itd.chain_structural_matrix(**spec)
    with pytest.raises(ValueError) as sparse:
        itd.chain_structural_coo(**spec)
    assert str(sparse.value) == str(dense.value)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"matrix": dict(spec, kind="chain")}))
    out = tmp_path / "m.mtx"
    assert cli.main(["build-matrix", "--config", str(cfg), "--out", str(out)]) == 4
    assert capsys.readouterr().err == "error: %s\n" % dense.value
    assert not out.exists()


# ---------------------------------------------------------------------------
# rpn2 build-matrix


def _build(tmp_path, matrix):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"matrix": matrix}))
    out = tmp_path / "m.mtx"
    return cli.main(["build-matrix", "--config", str(cfg), "--out", str(out)]), out


def test_large_onehop_chain_is_built_without_a_dense_matrix(tmp_path, capsys):
    m = 65536  # a dense m x m float64 matrix would take 32 GiB
    tracemalloc.start()
    try:
        code, out = _build(tmp_path, {"kind": "chain", "m": m})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["nnz"] == m - 1
    assert peak < 64 * 2 ** 20
    lines = out.read_text().split("\n")
    assert lines[1:3] == ["%d %d %d" % (m, m, m - 1), "1 2 1"]
    assert lines[-2] == "%d %d 1" % (m - 1, m)


@pytest.mark.parametrize("m", [1, 2, 7, 300])
def test_identity_export_matches_the_dense_route(tmp_path, m):
    code, out = _build(tmp_path, {"kind": "identity", "m": m})
    assert code == 0
    assert out.read_text() == SparseCoo.from_dense(np.eye(m)).to_matrix_market()


@pytest.mark.parametrize("matrix,message", [
    ({"kind": "identity", "m": 0}, "m must be >= 1"),
    ({"kind": "identity", "m": -2}, "m must be >= 1"),
    ({"kind": "graph", "n_nodes": 0}, "n_nodes must be >= 1"),
    ({"kind": "graph", "n_nodes": -1, "variant": "pagerank"}, "n_nodes must be >= 1"),
])
def test_empty_identity_and_graph_exit_4(tmp_path, capsys, matrix, message):
    code, out = _build(tmp_path, matrix)
    assert code == 4
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not out.exists()
