import json
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwnas.errors import InvalidOp, ParseError
from hwnas.graph import (CompactNet, MixedStage, OperatorSpec, OpKind, SuperNet,
                         Task, TensorShape, canonical_key, deserialize,
                         output_shape, serialize, validate, walk)
from hwnas.spaces import BUILTIN_SPACES, toy_classification_supernet


# ---------------------------------------------------------------------------
# output_shape
# ---------------------------------------------------------------------------

def test_identity_preserves_shape():
    s = TensorShape(16, 32, 32)
    assert output_shape(OperatorSpec(OpKind.Identity, 16, 16), s) == s


def test_strided_conv_halves_spatial():
    s = TensorShape(16, 32, 32)
    op = OperatorSpec(OpKind.Conv, 16, 32, kernel=3, stride=2)
    assert output_shape(op, s) == TensorShape(32, 16, 16)


def test_upsample_nearest_doubles_spatial():
    s = TensorShape(3, 8, 8)
    op = OperatorSpec(OpKind.UpsampleNearest, 3, 3, scale_factor=2)
    assert output_shape(op, s) == TensorShape(3, 16, 16)


def test_depth_to_space_trades_channels_for_space():
    s = TensorShape(16, 8, 8)
    op = OperatorSpec(OpKind.DepthToSpace, 16, 4, scale_factor=2)
    assert output_shape(op, s) == TensorShape(4, 16, 16)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_well_formed_supernet(toy_supernet):
    report = validate(toy_supernet)
    assert report.ok
    assert report.findings == ()


def test_validate_flags_candidate_channel_mismatch(toy_supernet):
    bad_stage = MixedStage(
        (OperatorSpec(OpKind.Conv, 16, 32, kernel=3),),
        TensorShape(16, 8, 8), TensorShape(64, 8, 8))
    net = SuperNet(task=toy_supernet.task, input_shape=toy_supernet.input_shape,
                   stem=toy_supernet.stem,
                   stages=toy_supernet.stages[:2] + (bad_stage,),
                   head=toy_supernet.head, num_classes=4)
    report = validate(net)
    assert not report.ok
    assert len(report.findings) >= 1


# ---------------------------------------------------------------------------
# canonical_key
# ---------------------------------------------------------------------------

def test_walk_order_shapes_and_path(toy_supernet):
    net = toy_supernet
    layers = list(walk(net))
    assert [w for w, _, _ in layers] == ([("stem", 0)]
                                         + [("stages", i, j) for i in range(3) for j in range(3)]
                                         + [("head", 0)])
    assert all(s == net.stages[w[1]].input_shape for w, _, s in layers if w[0] == "stages")
    assert layers[-1][2] == net.stages[-1].output_shape
    compact = net.path([0, 2, 1], tie_stages=(1,))
    assert compact.layers == (net.stem + (net.stages[0].candidates[0], net.stages[1].candidates[2],
                                          net.stages[2].candidates[1]) + net.head)
    assert (compact.chosen_indices, compact.tie_stages) == ((0, 2, 1), (1,))
    assert [w for w, _, _ in walk(compact)] == [("layers", i) for i in range(5)]


def test_canonical_key_conv_example():
    op = OperatorSpec(OpKind.Conv, 16, 32, kernel=3)
    assert canonical_key(op, TensorShape(16, 32, 32)) == "Conv:k3:s1:e1:i16x32x32:o32"


def test_canonical_key_mbconv_example():
    op = OperatorSpec(OpKind.MBConv, 160, 160, kernel=5, expand_ratio=Fraction(6))
    assert canonical_key(op, TensorShape(160, 7, 7)) == "MBConv:k5:s1:e6:i160x7x7:o160"


def _random_op(rng):
    kind = rng.choice(list(OpKind))
    c = int(rng.integers(1, 64))
    k = int(rng.choice([1, 3, 5, 7]))
    s = int(rng.choice([1, 2]))
    if kind in (OpKind.Identity, OpKind.ReLU):
        return OperatorSpec(kind, c, c)
    if kind is OpKind.LeakyReLU:
        return OperatorSpec(kind, c, c,
                            activation_slope=float(rng.choice([0.0, 0.1, 0.2])))
    if kind is OpKind.Linear:
        return OperatorSpec(kind, c, int(rng.integers(1, 64)))
    if kind is OpKind.PointwiseConv:
        return OperatorSpec(kind, c, int(rng.integers(1, 64)), stride=s)
    if kind is OpKind.DWConv:
        return OperatorSpec(kind, c, c, kernel=k, stride=s)
    if kind in (OpKind.AvgPool, OpKind.MaxPool):
        return OperatorSpec(kind, c, c, kernel=k, stride=s)
    if kind is OpKind.MBConv:
        return OperatorSpec(kind, c, int(rng.integers(1, 64)), kernel=k, stride=s,
                            expand_ratio=Fraction(int(rng.integers(1, 7))))
    if kind in (OpKind.UpsampleNearest, OpKind.UpsampleBilinear):
        return OperatorSpec(kind, c, int(rng.integers(1, 64)), scale_factor=2)
    if kind is OpKind.DepthToSpace:
        return OperatorSpec(kind, 4 * c, c, scale_factor=2)
    return OperatorSpec(OpKind.Conv, c, int(rng.integers(1, 64)), kernel=k, stride=s)


def test_canonical_key_injective_over_random_pairs():
    import numpy as np
    rng = np.random.default_rng(123)
    seen = {}
    for _ in range(10_000):
        op = _random_op(rng)
        shape = TensorShape(op.in_channels, int(rng.choice([4, 8, 16])),
                            int(rng.choice([4, 8, 16])))
        key = canonical_key(op, shape)
        if key in seen:
            prev_op, prev_shape = seen[key]
            assert (prev_op, prev_shape) == (op, shape), key
        seen[key] = (op, shape)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_supernet_round_trip(toy_supernet):
    assert deserialize(serialize(toy_supernet)) == toy_supernet


def test_compactnet_round_trip():
    net = CompactNet(
        task=Task.Classification, input_shape=TensorShape(3, 8, 8),
        layers=(OperatorSpec(OpKind.Conv, 3, 16, kernel=3),
                OperatorSpec(OpKind.MBConv, 16, 16, kernel=3,
                             expand_ratio=Fraction(3, 2)),
                OperatorSpec(OpKind.Linear, 16 * 8 * 8, 4)),
        num_classes=4, chosen_indices=(0,), tie_stages=(0,))
    assert deserialize(serialize(net)) == net


@settings(max_examples=30, deadline=None)
@given(n_stages=st.integers(1, 4), n_cands=st.integers(1, 3),
       channels=st.sampled_from([8, 16, 24]))
def test_supernet_round_trip_property(n_stages, n_cands, channels):
    shape = TensorShape(channels, 8, 8)
    cands = tuple(
        [OperatorSpec(OpKind.Conv, channels, channels, kernel=3),
         OperatorSpec(OpKind.DWConv, channels, channels, kernel=3),
         OperatorSpec(OpKind.Identity, channels, channels)][:n_cands])
    net = SuperNet(
        task=Task.Classification, input_shape=TensorShape(3, 8, 8),
        stem=(OperatorSpec(OpKind.Conv, 3, channels, kernel=3),),
        stages=tuple(MixedStage(cands, shape, shape) for _ in range(n_stages)),
        head=(OperatorSpec(OpKind.Linear, channels * 64, 4),),
        num_classes=4)
    assert deserialize(serialize(net)) == net


def test_negative_kernel_is_parse_error(toy_supernet):
    text = serialize(toy_supernet).replace('"kernel": 3', '"kernel": -3')
    with pytest.raises(ParseError):
        deserialize(text)


def test_missing_stages_is_parse_error(toy_supernet):
    import json
    doc = json.loads(serialize(toy_supernet))
    del doc["stages"]
    with pytest.raises(ParseError):
        deserialize(json.dumps(doc))


def test_unknown_field_is_parse_error(toy_supernet):
    import json
    doc = json.loads(serialize(toy_supernet))
    doc["surprise"] = 1
    with pytest.raises(ParseError):
        deserialize(json.dumps(doc))


# ---------------------------------------------------------------------------
# validate: one case per finding
# ---------------------------------------------------------------------------

def _supernet(**changes):
    return replace(toy_classification_supernet(), **changes)


def _compact(**changes):
    return replace(toy_classification_supernet().path((0, 1, 2)), **changes)


_C16 = TensorShape(16, 8, 8)
_CONV = OperatorSpec(OpKind.Conv, 16, 16, kernel=3)

# Each net breaks one rule, so validate reports exactly one finding.
FINDINGS = {
    "missing-num-classes": (lambda: _supernet(num_classes=None),
                            "num_classes", "requires num_classes"),
    "missing-sr-scale": (lambda: _supernet(task=Task.SuperResolution),
                         "sr_scale", "requires sr_scale"),
    "no-stages": (lambda: _supernet(stages=()), "stages", "at least one stage"),
    "stem-op-does-not-fit": (lambda: _supernet(stem=(OperatorSpec(OpKind.Conv, 4, 16, kernel=3),)),
                             "stem[0]", "expects 4 channels"),
    "stage-input-not-produced": (
        lambda: _supernet(stages=(MixedStage((_CONV,), TensorShape(16, 4, 4),
                                             TensorShape(16, 4, 4)),),
                          head=(OperatorSpec(OpKind.Linear, 16 * 4 * 4, 4),)),
        "stages[0]", "chain produces"),
    "duplicate-candidate-key": (
        lambda: _supernet(stages=(MixedStage((_CONV, _CONV), _C16, _C16),)),
        "stages[0].candidates[1]", "duplicate candidate key"),
    "stage-without-candidates": (lambda: _supernet(stages=(MixedStage((), _C16, _C16),)),
                                 "stages[0]", "no candidates"),
    "candidate-does-not-fit": (
        lambda: _supernet(stages=(MixedStage(
            (_CONV, OperatorSpec(OpKind.Conv, 8, 16, kernel=3)), _C16, _C16),)),
        "stages[0].candidates[1]", "expects 8 channels"),
    "candidate-wrong-output": (
        lambda: _supernet(stages=(MixedStage(
            (_CONV, OperatorSpec(OpKind.Conv, 16, 8, kernel=3)), _C16, _C16),)),
        "stages[0].candidates[1]", "stage declares"),
    "head-op-does-not-fit": (lambda: _supernet(head=(OperatorSpec(OpKind.Linear, 99, 4),)),
                             "head[0]", "flattened input 1024"),
    "compact-missing-num-classes": (lambda: _compact(num_classes=None),
                                    "num_classes", "requires num_classes"),
    "compact-missing-sr-scale": (lambda: _compact(task=Task.SuperResolution),
                                 "sr_scale", "requires sr_scale"),
    "compact-layer-does-not-chain": (
        lambda: _compact(layers=(OperatorSpec(OpKind.Conv, 3, 8, kernel=3), _CONV)),
        "layers[1]", "expects 16 channels, input has 8"),
}


@pytest.mark.parametrize("case", sorted(FINDINGS))
def test_validate_reports_one_finding(case):
    make, path, fragment = FINDINGS[case]
    (finding,) = validate(make()).findings
    assert finding.path == path
    assert fragment in finding.message


@pytest.mark.parametrize("space", ["toy-classification", "toy-sr", "calibration"])
def test_every_path_of_a_builtin_space_validates(space):
    """Every compact net `derive` can write passes the check the CLI applies."""
    net = BUILTIN_SPACES[space]()
    paths = list(product(*(range(len(stage.candidates)) for stage in net.stages)))
    assert len(paths) == {"toy-classification": 27, "toy-sr": 18, "calibration": 81}[space]
    for chosen in paths:
        assert validate(net.path(chosen)).ok, chosen


# ---------------------------------------------------------------------------
# operator rules: checked when an OperatorSpec is made
# ---------------------------------------------------------------------------

def _conv(**changes):
    return {"kind": "Conv", "in_channels": 16, "out_channels": 16, "kernel": 3, **changes}


# Each op, written as a file's layer, breaks one rule of the op check.
OP_RULES = {
    "channels-below-1": _conv(in_channels=0),
    "even-kernel": _conv(kernel=2),
    "stride-below-1": _conv(stride=0),
    "scale-below-1": {"kind": "UpsampleNearest", "in_channels": 3, "out_channels": 3,
                      "scale_factor": 0},
    "negative-slope": {"kind": "LeakyReLU", "in_channels": 16, "out_channels": 16,
                       "activation_slope": -0.1},
    "kernel-does-not-apply": {"kind": "ReLU", "in_channels": 16, "out_channels": 16,
                              "kernel": 3},
    "stride-does-not-apply": {"kind": "Identity", "in_channels": 16, "out_channels": 16,
                              "stride": 2},
    "expand-ratio-does-not-apply": _conv(expand_ratio="2"),
    "slope-does-not-apply": {"kind": "ReLU", "in_channels": 16, "out_channels": 16,
                             "activation_slope": 0.1},
    "scale-does-not-apply": _conv(scale_factor=2),
    "same-channels": {"kind": "Identity", "in_channels": 16, "out_channels": 32},
    "mbconv-hidden-not-integral": {"kind": "MBConv", "in_channels": 3, "out_channels": 16,
                                   "kernel": 3, "expand_ratio": "1/2"},
    "depth-to-space-channels": {"kind": "DepthToSpace", "in_channels": 16,
                                "out_channels": 8, "scale_factor": 2},
}


def _one_layer_file(layer) -> str:
    return json.dumps({"task": "Classification", "input_shape": [3, 8, 8],
                       "num_classes": 4, "layers": [layer]})


def _layer_error(layer) -> ParseError:
    with pytest.raises(ParseError) as info:
        deserialize(_one_layer_file(layer))
    assert info.value.path == "layers[0]"
    assert str(info.value).startswith("layers[0]: ")
    return info.value


@pytest.mark.parametrize("case", sorted(OP_RULES))
def test_op_rule_is_checked_at_construction(case):
    with pytest.raises(InvalidOp):
        OperatorSpec(**OP_RULES[case])


@pytest.mark.parametrize("case", sorted(OP_RULES))
def test_op_rule_in_a_file_is_parse_error_at_its_layer(case):
    _layer_error(OP_RULES[case])


# Each layer has one field a net file may not hold.
OP_FILE_ERRORS = {
    "unknown-kind": _conv(kind="Foo"),
    "unknown-field": _conv(padding=1),
    "missing-in-channels": {"kind": "ReLU", "out_channels": 16},
    "kernel-a-bool": _conv(kernel=True),
    "in-channels-a-float": _conv(in_channels=3.0),
    "expand-ratio-not-integral": {"kind": "MBConv", "in_channels": 16, "out_channels": 16,
                                  "kernel": 3, "expand_ratio": 1.5},
    "expand-ratio-a-bool": {"kind": "MBConv", "in_channels": 16, "out_channels": 16,
                            "kernel": 3, "expand_ratio": True},
    "slope-a-string": {"kind": "LeakyReLU", "in_channels": 16, "out_channels": 16,
                       "activation_slope": "steep"},
}


@pytest.mark.parametrize("case", sorted(OP_FILE_ERRORS))
def test_bad_op_field_is_parse_error_at_its_layer(case):
    _layer_error(OP_FILE_ERRORS[case])


@pytest.mark.parametrize("dims", [(True, 8, 8), (3, 0, 8), (3, 8, 8.0), (3, [8], 8)])
def test_tensor_shape_takes_only_positive_integers(dims):
    with pytest.raises(InvalidOp):
        TensorShape(*dims)


@pytest.mark.parametrize("value", [[True, 8, 8], [3, 0, 8], [3, 8, 8.0], [3, 8], [3, 8, 8, 1]])
def test_bad_input_shape_in_a_file_is_parse_error_at_input_shape(value):
    doc = json.loads(_one_layer_file({"kind": "ReLU", "in_channels": 3, "out_channels": 3}))
    with pytest.raises(ParseError) as info:
        deserialize(json.dumps(doc | {"input_shape": value}))
    assert info.value.path == "input_shape"


def test_integer_slope_reads_as_float():
    layer = {"kind": "LeakyReLU", "in_channels": 3, "out_channels": 3, "activation_slope": 1}
    (op,) = deserialize(_one_layer_file(layer)).layers
    assert type(op.activation_slope) is float and op.activation_slope == 1.0
    assert canonical_key(op, TensorShape(3, 8, 8)) == "LeakyReLU:k1:s1:e1:i3x8x8:o3:a1.0"


def test_random_ops_round_trip_through_net_files():
    import numpy as np
    rng = np.random.default_rng(7)
    for _ in range(1000):
        op = _random_op(rng)
        net = CompactNet(task=Task.Classification, input_shape=TensorShape(op.in_channels, 8, 8),
                         layers=(op,), num_classes=4)
        text = serialize(net)
        back = deserialize(text)
        assert back == net
        assert serialize(back) == text
