"""The CLI's config reader against the reader it replaced, and the configs
that only the new reader can express.

The old reader copied the model, matrix and dataset schema into tables. It
is kept below as it stood, as the oracle: every config in README, in the
tests and in the benchmark's moons workload reads to the same objects (by
`repr`, as a `Graph` compares by identity) or fails the same way through
both. The models of the five backbone equivalences and of the train_series
and grid_cnn workloads, which the old tables could not express, are written
as JSON here: each reads to its builder's model and forwards to its bytes.
"""

import ast
import copy
import glob
import importlib.util
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import rpn2
from rpn2 import backbone_equiv as be
from rpn2 import cli
from rpn2 import datasets as ds
from rpn2 import fusion as fu
from rpn2 import grid_geometry as gg
from rpn2 import interdependence as itd
from rpn2 import model as md
from rpn2 import reconciliation as rc
from rpn2 import transformation as tf
from rpn2.cli import ConfigError
from rpn2.numeric_core import Prng, SparseCoo

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# the old reader, unchanged


def _check_keys(obj, allowed, path):
    for key in obj:
        if key not in allowed:
            raise ConfigError("unknown key %r at %s" % (key, path or "top level"))


_REQUIRED = object()


def _number(value, kind):
    """value as int or float: a number or a string that `kind` parses, never
    a boolean, and an int only from an integral number."""
    if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(value)
    return kind(value)


def _edge_list(value):
    return [(_number(u, int), _number(v, int)) for u, v in value]


_KINDS = {int: "an integer", float: "a number", bool: "a boolean", str: "a string",
          list: "a list", dict: "an object", _edge_list: "a list of [u, v] pairs"}


def _as(value, kind, what):
    """value as `kind`: int, float and the edge list convert by `_number`;
    bool, str, list and dict check the JSON type. A value of the wrong type
    is a ConfigError naming `what` it is."""
    try:
        if kind in (int, float):
            return _number(value, kind)
        if kind is _edge_list:
            return _edge_list(value)
        if isinstance(value, kind):
            return value
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError("%s must be %s, got %r" % (what, _KINDS[kind], value))


def _get(obj, key, path, kind, default=_REQUIRED):
    """Config value obj[key] read as `kind` (see `_as`); a missing key gives
    the default, or a ConfigError when there is none."""
    where = path or "top level"
    if key not in obj:
        if default is _REQUIRED:
            raise ConfigError("missing key %r at %s" % (key, where))
        return default
    return _as(obj[key], kind, "key %r at %s" % (key, where))


def _fields(obj, fields, path, other=()):
    """{key: value} of obj's (key, kind, default) fields. Keys that are not
    fields or in `other` are rejected."""
    _check_keys(obj, {key for key, _, _ in fields} | set(other), path)
    return {key: _get(obj, key, path, kind, default) for key, kind, default in fields}



# fields of each dataset kind, named after a `datasets` function and its arguments
_DATASET_FIELDS = {
    "two_moons": (("n", int, 200), ("noise", float, 0.1)),
    "chain_series": (("m", int, 32), ("b", int, 16)),
    "grid_images": (("h", int, 8), ("w", int, 8), ("d", int, 3), ("b", int, 4)),
    "random_graph": (("n_v", int, 10), ("edge_prob", float, 0.3),
                     ("feature_dim", int, 4), ("classes", int, 2)),
}


def generate_dataset(spec, seed_override=None):
    kind = _get(spec, "kind", "data", str)
    if kind not in _DATASET_FIELDS:
        raise ConfigError("unknown dataset kind %r" % kind)
    args = _fields(spec, _DATASET_FIELDS[kind], "data", ("kind", "seed"))
    args["seed"] = (seed_override if seed_override is not None
                    else _get(spec, "seed", "data", int, 0))
    return getattr(ds, kind)(**args)



_MATRIX_FIELDS = {
    "identity": (("m", int, _REQUIRED),),
    "chain": (("m", int, _REQUIRED), ("direction", str, "uni"), ("variant", str, "onehop"),
              ("hops", int, 1), ("include_self", bool, False)),
    "graph": (("n_nodes", int, _REQUIRED), ("edges", _edge_list, []),
              ("variant", str, "adjacency"), ("hops", int, 1), ("alpha", float, 0.15),
              ("normalization", str, "none")),
    "grid": (("h", int, 8), ("w", int, 8), ("d", int, 1), ("shape", dict, {}),
             ("packing", dict, {}), ("mode", str, "padding")),
}
_SHAPE_FIELDS = tuple((key, int, 1) for key in ("p_h", "p_h2", "p_w", "p_w2", "p_d", "p_d2"))
_PACKING_FIELDS = (("d_h", float, 1.0), ("d_w", float, 1.0), ("d_d", float, 1.0),
                   ("strategy", str, ""), ("clip_out_of_grid", bool, False))


def _matrix_from_config(spec):
    kind = _get(spec, "kind", "matrix", str)
    if kind not in _MATRIX_FIELDS:
        raise ConfigError("unknown matrix kind %r" % kind)
    f = _fields(spec, _MATRIX_FIELDS[kind], "matrix", ("kind",))
    if kind == "identity":
        m = f["m"]
        if m < 1:
            raise ValueError("m must be >= 1")
        return SparseCoo(m, m, np.arange(m), np.arange(m), np.ones(m))
    if kind == "chain":
        return itd.chain_structural_coo(**f)
    if kind == "graph":
        try:
            graph = itd.Graph(f.pop("n_nodes"), f.pop("edges"))
        except IndexError as e:
            raise ConfigError("matrix.%s" % e)
        return itd.graph_structural_matrix(graph, **f)
    return itd.grid_structural_matrix(
        gg.GridSpec(f["h"], f["w"], f["d"]),
        gg.Cuboid(**_fields(f["shape"], _SHAPE_FIELDS, "matrix.shape")),
        gg.PackingSpec(**_fields(f["packing"], _PACKING_FIELDS, "matrix.packing")),
        f["mode"])



_HEAD_FIELDS = (("m", int, _REQUIRED), ("n", int, _REQUIRED), ("expansion", dict, {}),
                ("reconciliation", dict, _REQUIRED), ("channels", int, 1),
                ("remainder", str, "zero"), ("processors", dict, {}),
                ("attr_prior", dict, None), ("inst_prior", dict, None))
_EXPANSION_FIELDS = (("family", str, "identity"), ("d", int, 1), ("alpha", float, 0.5),
                     ("wavelet", str, "haar"), ("s_max", int, 1), ("t_max", int, 1),
                     ("a", float, 2.0), ("b", float, 1.0), ("order", int, 1))
_RECONCILIATION_FIELDS = (
    ("method", str, "identity"), ("n", int, _REQUIRED), ("D", int, _REQUIRED),
    *((key, int, 0) for key in ("rank", "mid", "input_len", "seed")))
_INTERDEP_FIELDS = (("variant", str, "identity"), ("post_norm", str, "none"),
                    ("norm_r", int, 1))
_INTERDEP_VARIANTS = {"identity": (itd.Identity, ("dim",)),
                      "bilinear": (itd.Bilinear, ("dim",)),
                      "lowrank_bilinear": (itd.LowRankBilinear, ("dim", "rank"))}


def _interdep_from(cfg, axis):
    f = _fields(cfg, _INTERDEP_FIELDS, "interdependence", ("dim", "rank"))
    variant = f.pop("variant")
    if variant not in _INTERDEP_VARIANTS:
        raise ConfigError("unsupported interdependence variant %r" % variant)
    make, sizes = _INTERDEP_VARIANTS[variant]
    v = make(*(_get(cfg, key, "interdependence", int) for key in sizes))
    return itd.InterdependenceSpec(v, axis=axis, **f)


def _processors(cfg, path):
    _check_keys(cfg, md.PROCESSOR_STATIONS, path)
    for station, tag in cfg.items():
        try:
            md.check_processor(tag)
        except ValueError as e:
            raise ConfigError("%s.%s: %s" % (path, station, e))
    return dict(cfg)


# strategies a bare name configures: the config has no weights, target,
# low_rank or metric keys, so weighted_sum and concat_linear cannot be expressed
_HEAD_FUSIONS = ("average", "sum", "hadamard", "metric")


def model_from_config(cfg):
    _check_keys(cfg, {"layers"}, "model")
    layers = []
    for li, lcfg in enumerate(_get(cfg, "layers", "model", list)):
        lpath = "model.layers[%d]" % li
        lcfg = _as(lcfg, dict, lpath)
        _check_keys(lcfg, {"heads", "head_fusion"}, lpath)
        heads = []
        for hi, hcfg in enumerate(_get(lcfg, "heads", lpath, list)):
            hpath = "%s.heads[%d]" % (lpath, hi)
            f = _fields(_as(hcfg, dict, hpath), _HEAD_FIELDS, hpath)
            f["expansion"] = tf.ExpansionSpec(
                **_fields(f["expansion"], _EXPANSION_FIELDS, "expansion"))
            f["reconciliation"] = rc.ReconciliationSpec(
                **_fields(f["reconciliation"], _RECONCILIATION_FIELDS, "reconciliation"))
            for tag, axis in (("attr_prior", "attribute"), ("inst_prior", "instance")):
                if f[tag] is not None:
                    f[tag] = _interdep_from(f[tag], axis)
            f["processors"] = _processors(f["processors"], hpath + ".processors")
            heads.append(md.HeadConfig(**f))
        strategy = _get(lcfg, "head_fusion", lpath, str, "average")
        if strategy not in _HEAD_FUSIONS:
            raise ConfigError(
                "unsupported head_fusion %r at model.layers[%d]; expected one of %s"
                % (strategy, li, ", ".join(_HEAD_FUSIONS)))
        layers.append(md.LayerConfig(heads, fu.FusionSpec(strategy)))
    return md.ModelConfig(layers)



# ---------------------------------------------------------------------------
# every config in README, the tests and the moons workload, through both


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(ROOT, "bench", "workloads.py"))
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    return wl


WL = _load_workloads()


def _readme_configs():
    """{name: config} of README's examples; its one JSON block is train.json."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    found = {name: json.loads(body)
             for name, body in re.findall(r"# (\w+\.json): (\{.*\})", readme)}
    (found["train.json"],) = [json.loads(body)
                              for body in re.findall(r"```json\n(.*?)```", readme, re.S)]
    return found


README = _readme_configs()
# README's examples of what the old reader could not express
NEW_IN_README = ("series.json", "cnn.json")


def _test_configs():
    """Every dict literal in the other test modules; this one's configs are
    the new reader's own."""
    for path in sorted(glob.glob(os.path.join(ROOT, "tests", "test_*.py"))):
        if os.path.samefile(path, __file__):
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                try:
                    yield ast.literal_eval(node)
                except ValueError:
                    pass


def _sections(obj):
    """(reader, section) of each model, head, matrix and dataset object
    nested in obj; a head is read as a one-head model."""
    if isinstance(obj, list):
        for item in obj:
            yield from _sections(item)
    if not isinstance(obj, dict):
        return
    if "layers" in obj:
        yield "model", obj
    elif "reconciliation" in obj and "m" in obj:
        yield "model", {"layers": [{"heads": [obj]}]}
    elif obj.get("kind") in _MATRIX_FIELDS:
        yield "matrix", obj
    elif obj.get("kind") in _DATASET_FIELDS:
        yield "data", obj
    for value in obj.values():
        yield from _sections(value)


def _corpus():
    seen = {}
    moons = WL.moons_config(1, 2, "m.csv", "c.json")
    old_readme = [config for name, config in README.items() if name not in NEW_IN_README]
    for config in old_readme + list(_test_configs()) + [moons]:
        for reader, section in _sections(config):
            seen.setdefault(json.dumps([reader, section], sort_keys=True), (reader, section))
    return list(seen.values())


CORPUS = _corpus()
_READERS = {"model": (model_from_config, cli.model_from_config),
            "matrix": (_matrix_from_config, cli._matrix_from_config),
            "data": (generate_dataset, cli.generate_dataset)}


def _outcome(read, section):
    """What a reader makes of a section: the repr of its model, the Matrix
    Market text of a sparse matrix, the bytes of the arrays of a dense
    matrix or a dataset, or the class of its error."""
    try:
        got = read(copy.deepcopy(section))
    except (ConfigError, ValueError) as e:
        return type(e).__name__
    if isinstance(got, md.ModelConfig):
        return repr(got)
    if isinstance(got, SparseCoo):
        return got.to_matrix_market()
    return repr([np.asarray(part).tobytes() for part in
                 (got if isinstance(got, tuple) else [got])])


def test_the_corpus_holds_every_kind_of_section():
    assert sorted(README) == ["chain.json", "cnn.json", "conv.json", "diag.json",
                              "eq.json", "moons.json", "series.json", "train.json"]
    kinds = {reader for reader, _ in CORPUS}
    assert kinds == {"model", "matrix", "data"}
    assert len(CORPUS) > 60
    # the moons workload's model and README's train, conv and diag models
    assert sum(reader == "model" for reader, _ in CORPUS) > 20


@pytest.mark.parametrize("reader,section", CORPUS,
                         ids=["%s%d" % (r, i) for i, (r, _) in enumerate(CORPUS)])
def test_every_config_reads_as_the_old_reader_read_it(reader, section):
    old, new = _READERS[reader]
    assert _outcome(new, section) == _outcome(old, section)


# ---------------------------------------------------------------------------
# models the old reader could not express, written as JSON


_CNN_PRIOR = {"variant": {"grid": {
    "grid": {"h": 8, "w": 8, "d": 3},
    "shape": {"cuboid": {"p_h": 1, "p_h2": 1, "p_w": 1, "p_w2": 1, "p_d": 1, "p_d2": 1}},
    "packing": {"d_h": 1.0, "d_w": 1.0, "d_d": 1.0, "clip_out_of_grid": True},
    "mode": "padding"}}}
# grid_cnn's model, and the backbone cnn case's
CNN = {"layers": [{"heads": [{
    "m": 192, "n": 192, "expansion": "identity",
    "reconciliation": {"method": "duplicated_padding", "n": 192, "D": 27 * 192},
    "attr_prior": _CNN_PRIOR}]}]}
POOL = {"layers": [{"heads": [{
    "m": 64, "n": 16, "channels": 4, "channel_fusion": {"strategy": "metric", "metric": "max"},
    "reconciliation": {"method": "duplicated_padding", "n": 16, "D": 64},
    "attr_prior": {"variant": "grid", "grid": {"h": 8, "w": 8},
                   "shape": {"cuboid": {"p_h": 0, "p_h2": 1, "p_w": 0, "p_w2": 1}},
                   "packing": {"d_h": 2.0, "d_w": 2.0, "clip_out_of_grid": True}}}]}]}
RNN = {"layers": [{"heads": [{
    "m": 8, "n": 8, "reconciliation": {"method": "identity", "n": 8, "D": 8},
    "inst_prior": {"variant": {"chain": {"length": 16, "direction": "uni",
                                         "variant": "onehop"}}},
    "remainder": "identity", "processors": {"output": "tanh"}}]}]}
TRANSFORMER = {"layers": [{"heads": [{
    "m": 8, "n": 6, "reconciliation": {"method": "identity", "n": 6, "D": 8},
    "inst_prior": {"variant": "lowrank_bilinear", "dim": 8, "rank": 4,
                   "post_norm": "scaled_col_softmax", "norm_r": 4}}]}]}


def _gnn(edges):
    return {"layers": [{"heads": [{
        "m": 6, "n": 4, "reconciliation": {"method": "identity", "n": 4, "D": 6},
        "inst_prior": {"variant": {"graph": {"graph": {"n_nodes": 10, "edges": edges},
                                             "normalization": "row_selfloop"}}},
        "processors": {"output": "sigmoid"}}]}]}


def _chain(length, variant):
    return {"variant": {"chain": {"length": length, "variant": variant}}, "post_norm": "col_l1"}


SERIES = {"layers": [
    {"heads": [
        {"m": 128, "n": 64, "channels": 2,
         "reconciliation": {"method": "vera", "n": 64, "D": 128, "rank": 8},
         "attr_prior": _chain(128, "exponential")},
        {"m": 128, "n": 64, "expansion": {"family": "legendre", "d": 2},
         "reconciliation": {"method": "lorr", "n": 64, "D": 256, "rank": 4},
         "attr_prior": _chain(128, "reciprocal"),
         "inst_prior": {"variant": {"lowrank_bilinear": {"dim": 128, "rank": 4}},
                        "post_norm": "scaled_col_softmax", "norm_r": 4}}]},
    {"heads": [
        {"m": 64, "n": 128, "reconciliation": {"method": "lorr", "n": 128, "D": 64, "rank": 4},
         "remainder": "linear"}]}]}


def _backbone(kind):
    case = be.build_equivalent(kind, Prng(5).derive(kind))
    if kind == "gnn":
        graph = case["model"].layers[0].heads[0].inst_prior.variant.graph
        config = _gnn([list(edge) for edge in graph.edges])
    else:
        config = {"cnn": CNN, "pool": POOL, "rnn": RNN, "transformer": TRANSFORMER}[kind]
    return config, case["model"], case["x"], case["store"]


def _series():
    model = WL.series_model()
    x, _ = ds.chain_series(128, 8, seed=3)
    return SERIES, model, x, md.init_store(model, 4)


def _benchmark_cnn():
    model, p = WL.cnn_model()
    store = md.ParameterStore()
    store.add_slot("l0.h0.c0.psi", (p,), Prng(6).normals((p,)))
    return CNN, model, Prng(7).normals((4, 192)), store


_BUILT = dict({kind: (lambda kind=kind: _backbone(kind)) for kind in be._BUILDERS},
              series=_series, benchmark_cnn=_benchmark_cnn)


@pytest.mark.parametrize("name", sorted(_BUILT))
def test_a_json_model_reads_to_its_builders_model_and_forwards_its_bytes(name):
    config, built, x, store = _BUILT[name]()
    model = cli.model_from_config(json.loads(json.dumps(config)))
    assert repr(model) == repr(built)
    assert md.model_forward(x, model, store).tobytes() == \
        md.model_forward(x, built, store).tobytes()


def test_readmes_cnn_config_is_the_grid_cnn_workloads_model():
    model = cli.model_from_config(README["cnn.json"]["model"])
    assert repr(model) == repr(WL.cnn_model()[0])
    head = cli.model_from_config(README["series.json"]["model"]).layers[0].heads[0]
    assert isinstance(head.attr_prior.variant, itd.ChainStructural)
    assert head.inst_prior.variant == itd.LowRankBilinear(16, 2)


def _main(tmp_path, command, config, *args):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return cli.main([command, "--config", str(path)] + list(args))


def test_diagnose_runs_on_the_cnn_config(tmp_path, capsys):
    config = {"model": CNN, "data": {"kind": "grid_images", "h": 8, "w": 8, "d": 3, "b": 4}}
    assert _main(tmp_path, "diagnose", config, "--out", str(tmp_path / "r.json")) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["output_shape"] == [4, 192]
    assert report["parameter_total"] == 27 and report["layers"] == []


def test_train_runs_a_chain_prior_model(tmp_path, capsys):
    config = {"model": {"layers": [{"heads": [{
        "m": 8, "n": 8, "reconciliation": {"method": "lorr", "n": 8, "D": 8, "rank": 2},
        "attr_prior": _chain(8, "exponential"),
        "inst_post": {"variant": "chain", "length": 4, "post_norm": "row_l1"}}]}]},
        "data": {"kind": "chain_series", "m": 8, "b": 4, "seed": 1},
        "train": {"epochs": 2}}
    assert _main(tmp_path, "train", config, "--out", str(tmp_path / "t")) == 0
    metrics = (tmp_path / "t.metrics.csv").read_text().strip().splitlines()
    assert len(metrics) == 3
    slots = json.loads((tmp_path / "t.checkpoint.json").read_text())["slots"]
    assert slots["l0.h0.c0.psi"] == [0, 32]


# ---------------------------------------------------------------------------
# the reader's own rules


def _prior_error(tmp_path, capsys, prior, station="attr_prior"):
    head = {"m": 2, "n": 2, "reconciliation": {"method": "identity", "n": 2, "D": 2},
            station: prior}
    config = {"model": {"layers": [{"heads": [head]}]},
              "data": {"kind": "two_moons", "n": 8}, "train": {"epochs": 1}}
    code = _main(tmp_path, "train", config, "--out", str(tmp_path / "t"))
    return code, capsys.readouterr().err


@pytest.mark.parametrize("variant,got", [
    ({}, "got none"),
    ({"identity": {"dim": 2}, "bilinear": {"dim": 2}}, "got 'identity', 'bilinear'"),
    ({"constant": {"matrix": [[1.0]]}}, "got 'constant'"),
    ({"rpn_head": {}}, "got 'rpn_head'"),
])
def test_a_union_takes_exactly_one_known_tag(tmp_path, capsys, variant, got):
    code, err = _prior_error(tmp_path, capsys, {"variant": variant})
    assert code == 2
    assert "model.layers[0].heads[0].attr_prior.variant takes one tag" in err
    assert "identity, stat_kernel, num_kernel" in err and "hybrid" in err and got in err
    assert "cuboid" not in err  # the tags of this union only
    assert not (tmp_path / "t.checkpoint.json").exists()


def test_the_flat_form_names_an_unknown_tag_by_its_path(tmp_path, capsys):
    code, err = _prior_error(tmp_path, capsys, {"variant": "constant", "matrix": [[1.0]]})
    assert code == 2 and "attr_prior.variant takes one tag" in err and "'constant'" in err


def test_the_axis_comes_from_the_station(tmp_path, capsys):
    inst = cli.model_from_config({"layers": [{"heads": [{
        "m": 2, "n": 2, "reconciliation": {"method": "identity", "n": 2, "D": 2},
        "inst_prior": {"variant": "identity", "dim": 4},
        "attr_post": {"variant": {"identity": {"dim": 2}}}}]}]})
    head = inst.layers[0].heads[0]
    assert (head.inst_prior.axis, head.attr_post.axis) == ("instance", "attribute")
    code, err = _prior_error(tmp_path, capsys, {"variant": "identity", "dim": 2,
                                                "axis": "instance"})
    assert code == 2 and "unknown key 'axis' at model.layers[0].heads[0].attr_prior" in err


def test_a_graph_edge_outside_its_nodes_is_a_config_error_naming_its_path(tmp_path, capsys):
    prior = {"variant": {"graph": {"graph": {"n_nodes": 2, "edges": [[0, 3]]}}}}
    code, err = _prior_error(tmp_path, capsys, prior, "inst_prior")
    assert code == 2
    assert "inst_prior.variant.graph.graph.edges[0] = [0, 3] has an endpoint" in err


def test_a_bare_string_sets_a_dataclass_first_field():
    model = cli.model_from_config({"layers": [{"heads": [{
        "m": 2, "n": 2, "expansion": "hermite", "channel_fusion": "average",
        "reconciliation": {"method": "identity", "n": 2, "D": 2},
        "attr_prior": {"variant": {"hybrid": {
            "variants": [{"identity": "2"}, {"stat_kernel": "pearson"}],
            "fusion": "sum"}}}}],
        "head_fusion": {"strategy": "weighted_sum", "weights": [1, "0.5"]}}]})
    head = model.layers[0].heads[0]
    assert head.expansion == tf.ExpansionSpec("hermite")
    assert head.channel_fusion == fu.FusionSpec("average")
    assert head.attr_prior.variant == itd.Hybrid(
        (itd.Identity(2), itd.StatKernel("pearson")), fu.FusionSpec("sum"))
    assert model.layers[0].head_fusion == fu.FusionSpec("weighted_sum", weights=(1.0, 0.5))


@pytest.mark.parametrize("value,kind", [
    ([1, True], "a list of numbers"),
    ("1, 2", "a list of numbers"),
])
def test_fusion_weights_read_as_numbers(tmp_path, capsys, value, kind):
    head = {"m": 2, "n": 2, "reconciliation": {"method": "identity", "n": 2, "D": 2}}
    config = {"model": {"layers": [{"heads": [head, head], "head_fusion": {
        "strategy": "weighted_sum", "weights": value}}]}, "data": {"kind": "two_moons"}}
    assert _main(tmp_path, "train", config) == 2
    assert ("key 'weights' at model.layers[0].head_fusion must be %s" % kind
            in capsys.readouterr().err)


def test_init_only_sizes_are_no_keys():
    assert [key for key in cli._params(rc.ReconciliationSpec) if key.startswith("p")] == []
    assert "dup_blocks" not in cli._params(md.HeadConfig)
    with pytest.raises(ConfigError, match="unknown key 'dup_blocks' at model.layers"):
        cli.model_from_config({"layers": [{"heads": [{
            "m": 2, "n": 2, "reconciliation": {"method": "identity", "n": 2, "D": 2},
            "dup_blocks": [1, 2]}]}]})


def test_concat_linear_without_a_target_exits_4_without_a_traceback(tmp_path):
    head = {"m": 2, "n": 2, "reconciliation": {"method": "identity", "n": 2, "D": 2}}
    config = {"model": {"layers": [{"heads": [head, head], "head_fusion": "concat_linear"}]},
              "data": {"kind": "two_moons", "n": 8}, "train": {"epochs": 1}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    src = os.path.dirname(os.path.dirname(os.path.abspath(rpn2.__file__)))
    res = subprocess.run([sys.executable, "-m", "rpn2.cli", "train", "--config", str(path)],
                         capture_output=True, text=True, cwd=str(tmp_path), timeout=120,
                         env=dict(os.environ, PYTHONPATH=src))
    assert res.returncode == 4, res.stderr
    assert "target = 0" in res.stderr and "Traceback" not in res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
