import statistics

import pytest

from hwnas.errors import NotStackable
from hwnas.graph import KINDS, OperatorSpec, OpKind, TensorShape, output_shape
from hwnas.profiler import (SimulatedVPU, build_lut, calibrate, enumerate_search_space,
                            measure_stacked_mixed, measure_stacked_same)


class ConstantCostDevice:
    """Additive oracle: per-op cost is a fixed table, plus graph overhead."""

    def __init__(self, per_op_ms, overhead_ms=0.2):
        self.per_op_ms = per_op_ms
        self.overhead_ms = overhead_ms
        self.calls = 0

    def run(self, net, trials):
        self.calls += 1
        total = self.overhead_ms + sum(self.per_op_ms(op) for op in net.layers)
        return [total] * trials


def _conv(c=8):
    return OperatorSpec(OpKind.Conv, c, c, kernel=3)


# ---------------------------------------------------------------------------
# per-kind cost facts: MACs, DSP offload, closed-form device cost
# ---------------------------------------------------------------------------

S, K, T = OperatorSpec, OpKind, TensorShape

# (op, input shape, MACs, DSP-bound, SimulatedVPU().op_cost_ms)
COST_FACTS = [
    (S(K.Conv, 8, 12, kernel=3), T(8, 16, 16), 221184, False, 0.0018410267857142857),
    (S(K.Conv, 8, 16, kernel=5, stride=2), T(8, 15, 15), 204800, False,
     0.001250584193638393),
    (S(K.DWConv, 16, 16, kernel=3, stride=2), T(16, 16, 16), 9216, False,
     0.0002467410714285714),
    (S(K.PointwiseConv, 16, 24), T(16, 8, 8), 24576, False, 0.0002805133928571429),
    (S(K.PointwiseConv, 16, 32, stride=2), T(16, 8, 8), 8192, False,
     0.00010430803571428571),
    (S(K.MBConv, 16, 24, kernel=3, expand_ratio=2), T(16, 8, 8), 100352, False,
     0.0008443229166666666),
    (S(K.MBConv, 16, 32, kernel=5, stride=2, expand_ratio=4), T(16, 16, 16), 495616, False,
     0.0030000892857142856),
    (S(K.AvgPool, 8, 8, kernel=3, stride=2), T(8, 9, 9), 1800, False, 4.239327566964286e-05),
    (S(K.MaxPool, 8, 8, kernel=3), T(8, 8, 8), 4608, False, 6.477678571428571e-05),
    (S(K.Identity, 8, 8), T(8, 8, 8), 0, False, 0.0),
    (S(K.ReLU, 8, 8), T(8, 8, 8), 512, False, 4.191964285714286e-05),
    (S(K.LeakyReLU, 8, 8), T(8, 8, 8), 512, False, 4.191964285714286e-05),
    (S(K.LeakyReLU, 8, 8, activation_slope=0.1), T(8, 8, 8), 512, True,
     0.0004191964285714286),
    (S(K.UpsampleNearest, 8, 8, scale_factor=2), T(8, 8, 8), 2048, False,
     0.00010908482142857143),
    (S(K.UpsampleNearest, 8, 4, scale_factor=2), T(8, 8, 8), 9216, False,
     0.00011002232142857143),
    (S(K.UpsampleBilinear, 8, 8, scale_factor=2), T(8, 8, 8), 8192, True,
     0.0014337053571428574),
    (S(K.UpsampleBilinear, 8, 4, scale_factor=3), T(8, 8, 8), 27648, True,
     0.0026170758928571428),
    (S(K.DepthToSpace, 16, 4, scale_factor=2), T(16, 8, 8), 0, True, 0.00078125),
    (S(K.Linear, 16, 10), T(4, 2, 2), 160, False, 2.4203927176339287e-06),
]


def test_cost_facts_cover_every_kind():
    assert {op.kind for op, *_ in COST_FACTS} == set(OpKind)


@pytest.mark.parametrize("op,shape,macs,dsp,cost_ms", COST_FACTS,
                         ids=[f"{i}-{c[0].kind.value}" for i, c in enumerate(COST_FACTS)])
def test_cost_facts(op, shape, macs, dsp, cost_ms):
    assert KINDS[op.kind].macs(op, shape, output_shape(op, shape)) == macs
    assert KINDS[op.kind].dsp_bound(op) is dsp
    assert SimulatedVPU().op_cost_ms(op, shape) == cost_ms


# ---------------------------------------------------------------------------
# measure_stacked_same
# ---------------------------------------------------------------------------

def test_same_shape_overhead_amortization_n10():
    dev = ConstantCostDevice(lambda op: 0.5)
    f = measure_stacked_same(dev, _conv(), TensorShape(8, 8, 8), n=10, trials=3)
    assert f == pytest.approx(0.52, abs=1e-12)


def test_same_shape_overhead_amortization_n100():
    dev = ConstantCostDevice(lambda op: 0.5)
    f = measure_stacked_same(dev, _conv(), TensorShape(8, 8, 8), n=100, trials=3)
    assert f == pytest.approx(0.502, abs=1e-12)


def test_same_shape_rejects_shape_changing_op():
    dev = ConstantCostDevice(lambda op: 0.5)
    op = OperatorSpec(OpKind.Conv, 8, 16, kernel=3)
    with pytest.raises(NotStackable):
        measure_stacked_same(dev, op, TensorShape(8, 8, 8), n=10, trials=3)


def test_same_shape_noisy_within_5_percent():
    dev = SimulatedVPU(noise_sigma_rel=0.05, seed=7)
    op = OperatorSpec(OpKind.Conv, 64, 64, kernel=3)
    shape = TensorShape(64, 32, 32)
    truth = dev.op_cost_ms(op, shape) + dev.graph_overhead_ms / 50
    f = measure_stacked_same(dev, op, shape, n=50, trials=9)
    assert abs(f - truth) / truth < 0.05


# ---------------------------------------------------------------------------
# measure_stacked_mixed
# ---------------------------------------------------------------------------

def test_mixed_overhead_cancels_exactly():
    # op_b true 0.8, anchor true 0.5 (measured with same N -> f_a = 0.52)
    costs = {OpKind.Conv: 0.8, OpKind.PointwiseConv: 0.5}
    dev = ConstantCostDevice(lambda op: costs[op.kind])
    anchor = OperatorSpec(OpKind.PointwiseConv, 8, 8)
    f_a = measure_stacked_same(dev, anchor, TensorShape(8, 8, 8), n=10, trials=3)
    assert f_a == pytest.approx(0.52, abs=1e-12)
    f_b = measure_stacked_mixed(dev, _conv(), anchor, f_a,
                                TensorShape(8, 8, 8), n=10, trials=3)
    assert f_b == pytest.approx(0.8, abs=1e-12)


def test_mixed_small_n_polluted_by_overhead():
    costs = {OpKind.Conv: 0.8, OpKind.PointwiseConv: 0.5}
    dev = ConstantCostDevice(lambda op: costs[op.kind])
    anchor = OperatorSpec(OpKind.PointwiseConv, 8, 8)
    f_b = measure_stacked_mixed(dev, _conv(), anchor, 0.5,
                                TensorShape(8, 8, 8), n=1, trials=3)
    assert f_b == pytest.approx(1.0, abs=1e-12)


def test_mixed_noisy_within_10_percent():
    dev = SimulatedVPU(noise_sigma_rel=0.05, seed=7)
    shape = TensorShape(64, 32, 32)
    op = OperatorSpec(OpKind.Conv, 64, 64, kernel=5)
    anchor = OperatorSpec(OpKind.PointwiseConv, 64, 64)
    f_a = measure_stacked_same(dev, anchor, shape, n=50, trials=9)
    f_b = measure_stacked_mixed(dev, op, anchor, f_a, shape, n=50, trials=9)
    truth = dev.op_cost_ms(op, shape)
    assert abs(f_b - truth) / truth < 0.10


def test_negative_mixed_estimate_clamps_to_zero():
    # anchor estimate biased high enough to push the difference negative
    costs = {OpKind.Identity: 0.0, OpKind.PointwiseConv: 0.5}
    dev = ConstantCostDevice(lambda op: costs[op.kind], overhead_ms=0.0)
    anchor = OperatorSpec(OpKind.PointwiseConv, 8, 8)
    f = measure_stacked_mixed(dev, OperatorSpec(OpKind.Identity, 8, 8), anchor,
                              0.6, TensorShape(8, 8, 8), n=10, trials=3)
    assert f == 0.0


# ---------------------------------------------------------------------------
# median behavior
# ---------------------------------------------------------------------------

class PermutedTrialsDevice:
    def __init__(self, samples):
        self.samples = list(samples)

    def run(self, net, trials):
        assert trials == len(self.samples)
        return list(self.samples)


def test_median_is_permutation_invariant():
    base = [5.0, 5.2, 5.1, 9.9, 4.8]
    op = _conv()
    shape = TensorShape(8, 8, 8)
    results = set()
    import itertools
    for perm in itertools.permutations(base):
        dev = PermutedTrialsDevice(perm)
        results.add(measure_stacked_same(dev, op, shape, n=10, trials=5))
    assert results == {statistics.median(base) / 10}


# ---------------------------------------------------------------------------
# build_lut
# ---------------------------------------------------------------------------

def test_build_lut_covers_search_space(toy_supernet):
    dev = SimulatedVPU(noise_sigma_rel=0.0)
    lut = build_lut(dev, toy_supernet, n=20, trials=3)
    expected_keys = {key for key, _, _ in enumerate_search_space(toy_supernet)}
    assert set(lut.entries) == expected_keys
    assert lut.source == "MeasuredDevice"
    assert not lut.incomplete


def test_build_lut_noiseless_matches_closed_form(toy_supernet):
    dev = SimulatedVPU(noise_sigma_rel=0.0)
    n = 20
    lut = build_lut(dev, toy_supernet, n=n, trials=3)
    for key, op, shape in enumerate_search_space(toy_supernet):
        truth = dev.op_cost_ms(op, shape)
        if op.kind is OpKind.Identity:
            assert lut.entries[key] == 0.0
        else:
            # same-shape estimates carry exactly overhead/n of bias
            assert abs(lut.entries[key] - truth) <= dev.graph_overhead_ms / n + 1e-9


def test_build_lut_counts_device_calls(toy_supernet):
    class CountingVPU(SimulatedVPU):
        calls = 0

        def run(self, net, trials):
            CountingVPU.calls += 1
            return super().run(net, trials)

    dev = CountingVPU(noise_sigma_rel=0.0)
    build_lut(dev, toy_supernet, n=20, trials=3)
    # shape-preserving ops (stage conv, stage dwconv): 1 call each; identity
    # is free; shape-changing ops (stem conv, head linear): anchor + mixed
    # stack, 2 calls each
    assert CountingVPU.calls == 6


def test_build_lut_rejects_invalid_supernet(toy_supernet):
    from hwnas.graph import MixedStage, SuperNet
    bad = SuperNet(task=toy_supernet.task, input_shape=toy_supernet.input_shape,
                   stem=toy_supernet.stem,
                   stages=(MixedStage((), TensorShape(16, 8, 8),
                                      TensorShape(16, 8, 8)),),
                   head=toy_supernet.head, num_classes=4)
    dev = ConstantCostDevice(lambda op: 0.5)
    with pytest.raises(Exception):
        build_lut(dev, bad)
    assert dev.calls == 0


def test_build_lut_error_names_first_finding_as_path_and_message(toy_supernet):
    from hwnas.errors import DeviceError
    from hwnas.graph import MixedStage, SuperNet
    bad = SuperNet(task=toy_supernet.task, input_shape=toy_supernet.input_shape,
                   stem=toy_supernet.stem,
                   stages=(MixedStage((), TensorShape(16, 8, 8), TensorShape(16, 8, 8)),),
                   head=toy_supernet.head, num_classes=4)
    with pytest.raises(DeviceError) as e:
        build_lut(SimulatedVPU(), bad)
    assert str(e.value) == ("refusing to profile invalid supernet: "
                            "stages[0]: stage has no candidates")


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def test_calibrate_single_sample_flags_undefined_correlation(toy_supernet):
    dev = SimulatedVPU(noise_sigma_rel=0.0)
    lut = build_lut(dev, toy_supernet, n=20, trials=3)
    pairs, summary = calibrate(dev, toy_supernet, lut, num_samples=1, seed=0, trials=3)
    assert len(pairs) == 1
    assert summary["pearson"] is None
    assert summary["note"]


def test_calibrate_noiseless_offset_is_overhead_minus_bias(toy_supernet):
    dev = SimulatedVPU(noise_sigma_rel=0.0)
    n = 200  # large n so the per-entry bias is negligible
    lut = build_lut(dev, toy_supernet, n=n, trials=3)
    pairs, _ = calibrate(dev, toy_supernet, lut, num_samples=8, seed=1, trials=3)
    for p, m in pairs:
        # predicted = measured - graph overhead + (small per-entry bias)
        assert m - p == pytest.approx(dev.graph_overhead_ms,
                                      abs=len(toy_supernet.stages + (1, 1))
                                      * dev.graph_overhead_ms / n)
