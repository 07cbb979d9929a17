from hwnas.graph import (CompactNet, OperatorSpec, OpKind, Task, TensorShape)
from hwnas.lint import (Severity, findings_to_json, findings_to_table,
                        has_warnings, lint_network)


def _compact(layers, input_shape=TensorShape(3, 8, 8)):
    return CompactNet(task=Task.Classification, input_shape=input_shape,
                      layers=tuple(layers), num_classes=2)


def test_conv_32_channels_clean():
    net = _compact([OperatorSpec(OpKind.Conv, 3, 32, kernel=3),
                    OperatorSpec(OpKind.Linear, 32 * 64, 2)])
    findings = [f for f in lint_network(net) if f.layer_index == 0]
    assert findings == []


def test_conv_24_channels_vpu002():
    net = _compact([OperatorSpec(OpKind.Conv, 3, 24, kernel=3),
                    OperatorSpec(OpKind.Linear, 24 * 64, 2)])
    findings = lint_network(net)
    assert [f.rule_id for f in findings] == ["VPU002"]
    assert findings[0].layer_index == 0
    assert findings[0].severity is Severity.Warning
    assert "24" in findings[0].message


def test_depth_to_space_vpu001():
    net = _compact([OperatorSpec(OpKind.Conv, 3, 16, kernel=3),
                    OperatorSpec(OpKind.DepthToSpace, 16, 4, scale_factor=2),
                    OperatorSpec(OpKind.Conv, 4, 16, kernel=3),
                    OperatorSpec(OpKind.Linear, 16 * 256, 2)])
    rules = [f.rule_id for f in lint_network(net)]
    assert rules == ["VPU001"]


def test_leaky_relu_slope_vpu001():
    net = _compact([OperatorSpec(OpKind.Conv, 3, 16, kernel=3),
                    OperatorSpec(OpKind.LeakyReLU, 16, 16, activation_slope=0.1),
                    OperatorSpec(OpKind.Linear, 16 * 64, 2)])
    findings = lint_network(net)
    assert [f.rule_id for f in findings] == ["VPU001"]
    assert findings[0].layer_index == 1


def test_zero_slope_leaky_relu_is_clean():
    net = _compact([OperatorSpec(OpKind.Conv, 3, 16, kernel=3),
                    OperatorSpec(OpKind.LeakyReLU, 16, 16, activation_slope=0.0),
                    OperatorSpec(OpKind.Linear, 16 * 64, 2)])
    assert lint_network(net) == []


def test_upsample_bilinear_vpu001_nearest_clean():
    base = [OperatorSpec(OpKind.Conv, 3, 16, kernel=3)]
    bilinear = _compact(base + [OperatorSpec(OpKind.UpsampleBilinear, 16, 16,
                                             scale_factor=2)])
    nearest = _compact(base + [OperatorSpec(OpKind.UpsampleNearest, 16, 16,
                                            scale_factor=2)])
    assert [f.rule_id for f in lint_network(bilinear)] == ["VPU001"]
    assert lint_network(nearest) == []


def test_dw_pointwise_pair_vpu003_above_threshold():
    # activation into the pointwise layer: 64ch * 128 * 128 * 4B = 4 MiB
    net = _compact([OperatorSpec(OpKind.DWConv, 64, 64, kernel=3),
                    OperatorSpec(OpKind.PointwiseConv, 64, 64)],
                   input_shape=TensorShape(64, 128, 128))
    findings = lint_network(net)
    assert [f.rule_id for f in findings] == ["VPU003"]
    assert findings[0].severity is Severity.Advisory
    # small feature maps stay below the streaming threshold
    small = _compact([OperatorSpec(OpKind.DWConv, 64, 64, kernel=3),
                      OperatorSpec(OpKind.PointwiseConv, 64, 64)],
                     input_shape=TensorShape(64, 8, 8))
    assert lint_network(small) == []


def test_supernet_lint_covers_all_candidates(toy_supernet):
    # toy stages are 16-channel and DSP-free; only the 4-class head trips
    findings = lint_network(toy_supernet)
    assert all(f.rule_id in ("VPU001", "VPU002", "VPU003") for f in findings)


def test_findings_sorted_and_serializable():
    net = _compact([OperatorSpec(OpKind.Conv, 3, 24, kernel=3),
                    OperatorSpec(OpKind.DepthToSpace, 24, 6, scale_factor=2),
                    OperatorSpec(OpKind.Linear, 6 * 256, 2)])
    findings = lint_network(net)
    assert [(f.layer_index, f.rule_id) for f in findings] == sorted(
        (f.layer_index, f.rule_id) for f in findings)
    assert has_warnings(findings)
    import json
    parsed = json.loads(findings_to_json(findings))
    assert len(parsed) == len(findings)
    assert "VPU002" in findings_to_table(findings)
