"""Config values of the wrong type are config errors (exit 2) that name the
key and where it sits; the README exit-code contract holds end to end."""

import json
import os
import subprocess
import sys
import time

import pytest

import rpn2
from rpn2 import cli

_HEAD = {"m": 2, "n": 2, "reconciliation": {"method": "identity", "n": 2, "D": 2}}
_MOONS = {"kind": "two_moons", "n": 20, "seed": 1}


def _head(**changes):
    return dict(_HEAD, **changes)


def _run(tmp_path, command, config, *extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]
                    + list(extra))


# command, config, words the message must hold (the key and its path)
_WRONG_TYPES = {
    "head m null": ("train", {"model": {"layers": [{"heads": [_head(m=None)]}]},
                              "data": _MOONS},
                    ["'m'", "model.layers[0].heads[0]", "integer"]),
    "layers not a list": ("train", {"model": {"layers": 5}, "data": _MOONS},
                          ["'layers'", "model", "list"]),
    "expansion not an object": ("train", {"model": {"layers": [{"heads": [
        _head(expansion=3)]}]}, "data": _MOONS},
        ["'expansion'", "model.layers[0].heads[0]", "object"]),
    "equiv seed null": ("equiv", {"kind": "cnn", "seed": None},
                        ["'seed'", "top level", "integer"]),
    "two_moons n not a number": ("gen-data", {"data": {"kind": "two_moons", "n": "x"}},
                                 ["'n'", "data", "integer"]),
    "epochs not a number": ("train", {"model": {"layers": [{"heads": [_HEAD]}]},
                                      "data": _MOONS, "train": {"epochs": "ten"}},
                            ["'epochs'", "train", "integer"]),
    "chain m not a number": ("build-matrix", {"matrix": {"kind": "chain", "m": "many"}},
                             ["'m'", "matrix", "integer"]),
    "layer not an object": ("train", {"model": {"layers": [3]}, "data": _MOONS},
                            ["model.layers[0]", "object"]),
    "heads not a list": ("train", {"model": {"layers": [{"heads": {}}]}, "data": _MOONS},
                         ["'heads'", "model.layers[0]", "list"]),
    "config not an object": ("equiv", [1], ["config", "object"]),
}


@pytest.mark.parametrize("case", sorted(_WRONG_TYPES))
def test_wrong_typed_value_is_config_error(tmp_path, capsys, case):
    command, config, words = _WRONG_TYPES[case]
    assert _run(tmp_path, command, config) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    for word in words:
        assert word in err


def test_interdependence_m_key_is_rejected(tmp_path, capsys):
    head = _head(attr_prior={"variant": "identity", "dim": 2, "m": 2})
    config = {"model": {"layers": [{"heads": [head]}]}, "data": _MOONS,
              "train": {"epochs": 1}}
    assert _run(tmp_path, "train", config) == 2
    assert "unknown key 'm' at interdependence" in capsys.readouterr().err
    del head["attr_prior"]["m"]
    assert _run(tmp_path, "train", config) == 0


def test_seed_override_leaves_config_seed_unread(tmp_path):
    config = {"data": {"kind": "chain_series", "m": 4, "b": 2, "seed": None}}
    assert _run(tmp_path, "gen-data", config) == 2
    assert _run(tmp_path, "gen-data", config, "--seed", "3") == 0


def test_convertible_values_read_as_before(tmp_path):
    graph = {"matrix": {"kind": "graph", "n_nodes": "3", "edges": [["0", 1], [1.0, 2]],
                        "alpha": 1}}
    assert _run(tmp_path, "build-matrix", graph) == 0
    plain = {"matrix": {"kind": "graph", "n_nodes": 3, "edges": [[0, 1], [1, 2]]}}
    first = (tmp_path / "out").read_bytes()
    assert _run(tmp_path, "build-matrix", plain) == 0
    assert (tmp_path / "out").read_bytes() == first


# values that int, float or bool conversion would take for another value:
# config, the key the message names, and the type it asks for
_LOSSY_VALUES = {
    "int from a fraction": ({"kind": "identity", "m": 3.7}, "'m'", "an integer"),
    "int from a boolean": ({"kind": "chain", "m": True}, "'m'", "an integer"),
    "bool from a string": ({"kind": "chain", "m": 4, "include_self": "no"},
                           "'include_self'", "a boolean"),
    "edge from fractions": ({"kind": "graph", "n_nodes": 3, "edges": [[0.6, 2.9]]},
                            "'edges'", "[u, v] pairs"),
    "float from a boolean": ({"kind": "graph", "n_nodes": 3, "alpha": True},
                             "'alpha'", "a number"),
}


@pytest.mark.parametrize("case", sorted(_LOSSY_VALUES))
def test_lossy_value_is_config_error(tmp_path, capsys, case):
    spec, key, kind = _LOSSY_VALUES[case]
    assert _run(tmp_path, "build-matrix", {"matrix": spec}) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err and kind in err
    assert not (tmp_path / "out").exists()


def test_integral_values_keep_reading(tmp_path):
    for m in (4, 4.0, "4"):
        assert _run(tmp_path, "build-matrix", {"matrix": {
            "kind": "chain", "m": m, "include_self": True, "hops": 1.0}}) == 0
        assert (tmp_path / "out").read_text().split("\n")[1] == "4 4 7"


def _cli_subprocess(tmp_path, config, *args):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    src = os.path.dirname(os.path.dirname(os.path.abspath(rpn2.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "rpn2.cli", *args, "--config", str(path)],
                          capture_output=True, text=True, env=env, cwd=str(tmp_path),
                          timeout=120)


def test_exit_codes_end_to_end(tmp_path):
    bad = _cli_subprocess(tmp_path, {"kind": "pool", "seed": None}, "equiv")
    assert bad.returncode == 2
    assert "config error" in bad.stderr and "Traceback" not in bad.stderr
    good = _cli_subprocess(tmp_path, {"kind": "pool", "seed": 3}, "equiv")
    assert good.returncode == 0, good.stderr
    assert good.stdout.startswith("PASS") and "Traceback" not in good.stderr


def test_graph_edge_outside_n_nodes_is_config_error(tmp_path):
    config = {"matrix": {"kind": "graph", "n_nodes": 2, "edges": [[0, 5]]}}
    res = _cli_subprocess(tmp_path, config, "build-matrix", "--out", "g.mtx")
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr and "matrix.edges" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "g.mtx").exists()


_GRID = {"kind": "grid", "h": 4, "w": 4, "d": 1}
_TRAIN = {"model": {"layers": [{"heads": [_HEAD]}]}, "data": _MOONS,
          "train": {"epochs": 2}}


def _with(config, path, value):
    """A deep copy of config with the object at key path `path` set to value."""
    out = json.loads(json.dumps(config))
    obj = out
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value
    return out


# command, config with only known keys, path of an object, its known keys,
# and the path the message names
_UNKNOWN_KEYS = {
    "matrix.shape": ("build-matrix", {"matrix": _GRID}, ("matrix", "shape"),
                     {"p_h": 1, "p_w2": 1}, "matrix.shape"),
    "matrix.packing": ("build-matrix", {"matrix": _GRID}, ("matrix", "packing"),
                       {"d_h": 2.0, "clip_out_of_grid": True}, "matrix.packing"),
    "train.optimizer": ("train", _TRAIN, ("train", "optimizer"),
                        {"kind": "sgd", "lr": 0.1, "momentum": 0.5}, "train.optimizer"),
    "processors": ("train", _TRAIN, ("model", "layers", 0, "heads", 0, "processors"),
                   {"output": "tanh", "input": "none"},
                   "model.layers[0].heads[0].processors"),
}


@pytest.mark.parametrize("case", sorted(_UNKNOWN_KEYS))
def test_unknown_key_is_config_error(tmp_path, capsys, case):
    command, base, path, known, where = _UNKNOWN_KEYS[case]
    assert _run(tmp_path, command, _with(base, path, known)) == 0
    first = (tmp_path / "out").read_bytes() if command == "build-matrix" else None
    capsys.readouterr()
    assert _run(tmp_path, command, _with(base, path, dict(known, bogus="x"))) == 2
    err = capsys.readouterr().err
    assert "unknown key 'bogus' at %s" % where in err
    if first is not None:  # the known keys still give the same matrix
        assert _run(tmp_path, command, _with(base, path, known)) == 0
        assert (tmp_path / "out").read_bytes() == first


def test_unknown_processor_tag_is_config_error(tmp_path, capsys):
    path = ("model", "layers", 0, "heads", 0, "processors")
    assert _run(tmp_path, "train", _with(_TRAIN, path, {"output": "swish"})) == 2
    err = capsys.readouterr().err
    assert "'swish'" in err and "model.layers[0].heads[0].processors" in err
    for tag in [None, "", "none", "tanh", "sigmoid", "relu", "softmax"]:
        assert _run(tmp_path, "train", _with(_TRAIN, path, {"expansion": tag})) == 0


def test_tiny_center_distance_exits_at_once(tmp_path):
    # stepping t through 0 .. floor(4 / 1e-9) one at a time would take minutes
    config = {"matrix": dict(_GRID, packing={"d_h": 1e-9})}
    start = time.perf_counter()
    res = _cli_subprocess(tmp_path, config, "build-matrix", "--out", "g.mtx")
    assert res.returncode == 0, res.stderr
    assert time.perf_counter() - start < 30.0
    # below a step of 1, every cell along the axis is a center, as at d_h = 1
    tiny = (tmp_path / "g.mtx").read_bytes()
    assert _run(tmp_path, "build-matrix", {"matrix": dict(_GRID, packing={"d_h": 1.0})}) == 0
    assert (tmp_path / "out").read_bytes() == tiny
