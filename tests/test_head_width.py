"""One rule for a head's output width: every channel and head fusion runs,
and a head's declared `n` must be the width its channel fusion gives
(`fusion.out_width`). A deterministic grid of one-layer heads on an 8 x 3
input is either refused with a message naming the head, or forwards to its
declared width and trains."""

import numpy as np
import pytest

from rpn2 import fusion as fu
from rpn2 import model as md
from rpn2 import reconciliation as rc
from rpn2 import transformation as tf
from rpn2.numeric_core import Tape

X = np.sin(np.arange(24.0)).reshape(8, 3)
RECON_N = 2

CHANNEL_FUSIONS = {
    "sum": lambda c: fu.FusionSpec("sum"),
    "average": lambda c: fu.FusionSpec("average"),
    "hadamard": lambda c: fu.FusionSpec("hadamard"),
    "metric": lambda c: fu.FusionSpec("metric", metric="max"),
    "weighted_sum_learned": lambda c: fu.FusionSpec("weighted_sum"),
    "weighted_sum_fixed": lambda c: fu.FusionSpec("weighted_sum", weights=(0.5, 2.0, -1.0)[:c]),
    "concat_linear_2": lambda c: fu.FusionSpec("concat_linear", target=2),
    "concat_linear_2_low_rank": lambda c: fu.FusionSpec("concat_linear", target=2, low_rank=1),
    "concat_linear_5": lambda c: fu.FusionSpec("concat_linear", target=5),
    "concat_linear_5_low_rank": lambda c: fu.FusionSpec("concat_linear", target=5, low_rank=1),
}
HEAD_FUSION = fu.FusionSpec("concat_linear", target=4)


def _head(n, channels, channel_fusion, remainder="zero"):
    return md.HeadConfig(m=3, n=n, expansion=tf.ExpansionSpec("identity"),
                         reconciliation=rc.ReconciliationSpec("identity", n=RECON_N, D=3),
                         channels=channels, channel_fusion=channel_fusion,
                         remainder=remainder)


def _accepted(n, channels, spec, remainder):
    """The rule, written out: n is the fused width, an identity remainder
    adds the 3-wide input, and no gradient passes a metric of two or more."""
    width = spec.target if spec.strategy == "concat_linear" else RECON_N
    return (n == width and remainder != "identity"
            and not (spec.strategy == "metric" and channels > 1))


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("remainder", ["zero", "identity", "linear"])
@pytest.mark.parametrize("fusion", sorted(CHANNEL_FUSIONS))
def test_a_head_forwards_to_its_declared_width_or_is_refused(fusion, remainder, heads):
    for channels in (1, 2, 3):
        spec = CHANNEL_FUSIONS[fusion](channels)
        for n in (2, 5):
            case = "%d channels, n = %d" % (channels, n)
            head = _head(n, channels, spec, remainder)
            if heads == 1:
                layer, width = md.LayerConfig([head]), n
            else:
                layer, width = md.LayerConfig([head, head], HEAD_FUSION), HEAD_FUSION.target
            model = md.ModelConfig([layer])
            try:
                store = md.init_store(model, 0)
                out = md.model_forward(X, model, store)
                history, _ = md.train(model, X, np.zeros((8, width)), epochs=1)
            except ValueError as e:
                assert not _accepted(n, channels, spec, remainder), (case, str(e))
                assert "l0.h0" in str(e) or "l0.h1" in str(e), (case, str(e))
                continue
            assert _accepted(n, channels, spec, remainder), case
            assert out.shape == (8, width), case
            assert len(history.epochs) == 1, case


def test_a_fixed_weight_scales_one_channel():
    # the weight of a one-channel weighted sum was once ignored
    store = md.init_store(md.ModelConfig([md.LayerConfig([_head(2, 1, fu.FusionSpec("sum"))])]))
    outs = [md.model_forward(X, md.ModelConfig([md.LayerConfig([_head(2, 1, spec)])]), store)
            for spec in (fu.FusionSpec("sum"), fu.FusionSpec("weighted_sum", weights=(2.0,)))]
    assert np.array_equal(outs[1], 2.0 * outs[0])


def test_a_one_head_concat_linear_layer_is_its_target_wide_and_learns():
    # the head fusion of a one-head layer was once skipped: 2 wide, no slot
    model = md.ModelConfig([md.LayerConfig([_head(2, 1, fu.FusionSpec("sum"))],
                                           fu.FusionSpec("concat_linear", target=7))])
    store = md.init_store(model, 0)
    assert store.slots["l0.hfuse"][1] == 2 * 7
    out, tape, _ = md.model_forward_nodes(X, model, store)
    assert out.shape == (8, 7)
    grads = tape.backward((out * out).mean())
    assert np.any(grads["l0.hfuse"] != 0.0)


@pytest.mark.parametrize("n, fusion, remainder", [
    (2, fu.FusionSpec("concat_linear", target=5), "zero"),
    (2, fu.FusionSpec("concat_linear", target=5), "linear"),
    (5, fu.FusionSpec("sum"), "zero"),
])
def test_init_store_names_a_head_whose_n_is_not_its_fused_width(n, fusion, remainder):
    # n = 2 under a target of 5 once output 5 columns, or failed inside numpy
    model = md.ModelConfig([md.LayerConfig([_head(n, 2, fusion, remainder)])])
    with pytest.raises(ValueError, match=r"head l0\.h0 declares n = %d.* %s channel "
                                         r"fusion gives width" % (n, fusion.strategy)):
        md.init_store(model, 0)


def test_the_identity_remainder_checks_the_real_shapes():
    # n = 1 once passed the check, and the (8, 1) output broadcast
    # across the 8 x 3 input to (8, 3)
    head = md.HeadConfig(m=3, n=1, expansion=tf.ExpansionSpec("identity"),
                         reconciliation=rc.ReconciliationSpec("identity", n=1, D=3),
                         remainder="identity")
    model = md.ModelConfig([md.LayerConfig([head])])
    with pytest.raises(ValueError, match=r"head l0\.h0: an identity remainder .*\(8, 3\), "
                                         r"got \(8, 1\)"):
        md.model_forward(X, model, md.init_store(model, 0))


@pytest.mark.parametrize("remainder", ["zero", "identity", "linear"])
def test_a_head_whose_m_is_not_its_input_width_is_named(remainder):
    # m = 5 on a 2-wide input once forwarded silently (m only sized the init
    # scale and pi); with a linear remainder it failed inside the tape with a
    # matmul mismatch that named no head
    def head(m):
        return md.HeadConfig(m=m, n=2, expansion=tf.ExpansionSpec("identity"),
                             reconciliation=rc.ReconciliationSpec("identity", n=2, D=2),
                             remainder=remainder)

    model = md.ModelConfig([md.LayerConfig([_head(2, 1, fu.FusionSpec("sum"))]),
                            md.LayerConfig([head(2), head(5)])])
    store = md.init_store(model, 0)
    with pytest.raises(ValueError, match=r"head l1\.h1 declares m = 5, but its input is 2 "
                                         r"wide"):
        md.model_forward(X, model, store)
    with pytest.raises(ValueError, match=r"head l0\.h0 declares m = 3, but its input is 4 "
                                         r"wide"):
        md.model_forward(np.ones((8, 4)), model, store)


def test_an_unknown_remainder_is_named_with_its_head():
    model = md.ModelConfig([md.LayerConfig([_head(RECON_N, 1, fu.FusionSpec("sum")),
                                            _head(RECON_N, 1, fu.FusionSpec("sum"), "skip")])])
    with pytest.raises(ValueError, match=r"head l0\.h1: unknown remainder 'skip'"):
        md.model_forward(X, model, md.init_store(model, 0))


def test_out_width():
    assert fu.out_width(fu.FusionSpec("concat_linear", target=7), (2, 3)) == 7
    for strategy in ("sum", "average", "hadamard", "metric", "weighted_sum"):
        assert fu.out_width(fu.FusionSpec(strategy), (4, 4)) == 4


@pytest.mark.parametrize("strategy", ["sum", "average", "hadamard", "metric"])
def test_a_parameter_free_fusion_passes_one_input_through(strategy):
    with Tape() as tape:
        node = tape.parameter(np.arange(6.0).reshape(3, 2))
        count = len(tape.nodes)
        assert fu.fuse_nodes([node], fu.FusionSpec(strategy)) is node
        assert len(tape.nodes) == count and not tape.cuts


def test_one_input_fusions_keep_their_checks():
    a = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(fu.fuse([a], fu.FusionSpec("weighted_sum", weights=(-3.0,))), -3.0 * a)
    with pytest.raises(ValueError, match="unknown fusion metric"):
        fu.fuse([a], fu.FusionSpec("metric", metric="mode"))
    with pytest.raises(ValueError, match="needs 1 parameters, got 0"):
        fu.fuse([a], fu.FusionSpec("weighted_sum"))
    with pytest.raises(ValueError, match="need one weight per input"):
        fu.fuse([a], fu.FusionSpec("weighted_sum", weights=(1.0, 2.0)))
    with pytest.raises(ValueError, match="needs 0 parameters, got 1"):
        fu.fuse([a], fu.FusionSpec("sum"), np.ones(1))
