import math
from fractions import Fraction

import numpy as np
import pytest

from hwnas.costmodel import (FEATURE_DIM, HIDDEN, CostModel, CostModelConfig, ProfileRecord,
                             encode_features, evaluate_mape, load_model,
                             load_records, lut_from_model, predict,
                             save_model, save_records, simulate_records,
                             train_cost_model)
from hwnas.errors import HwnasError, InsufficientData, InvalidOp
from hwnas.graph import OperatorSpec, OpKind, TensorShape
from hwnas.profiler import SimulatedVPU


# ---------------------------------------------------------------------------
# feature encoding
# ---------------------------------------------------------------------------

def test_encode_conv_example():
    op = OperatorSpec(OpKind.Conv, 16, 32, kernel=3)
    v = encode_features(op, TensorShape(16, 32, 32))
    assert v.shape == (FEATURE_DIM,)
    kind_slots = v[:13]
    assert kind_slots.sum() == 1.0
    scalars = v[13:21]
    np.testing.assert_allclose(
        scalars,
        [math.log2(17), math.log2(33), math.log2(33), math.log2(33),
         math.log2(4), math.log2(2), math.log2(2), math.log2(2)], atol=1e-12)
    assert v[21] == 0.0  # slope flag


def test_encode_identity_channels_equal():
    v = encode_features(OperatorSpec(OpKind.Identity, 8, 8), TensorShape(8, 4, 4))
    assert v[13] == v[14]  # in/out channel features identical


def test_encode_stride_changes_one_coordinate():
    a = encode_features(OperatorSpec(OpKind.Conv, 8, 8, kernel=3, stride=1),
                        TensorShape(8, 8, 8))
    b = encode_features(OperatorSpec(OpKind.Conv, 8, 8, kernel=3, stride=2),
                        TensorShape(8, 8, 8))
    assert int(np.sum(a != b)) == 1


@pytest.mark.parametrize("ratio, whole", [(Fraction(3, 2), 3), (Fraction(1, 2), 1)])
def test_encode_fractional_expand_ratio_by_its_value(ratio, whole):
    shape = TensorShape(16, 8, 8)
    def mbconv(e):
        return OperatorSpec(OpKind.MBConv, 16, 16, kernel=3, expand_ratio=e)
    v = encode_features(mbconv(ratio), shape)
    assert v[19] == math.log2(1 + float(ratio))
    assert not np.array_equal(v, encode_features(mbconv(whole), shape))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _constant_records(n=60, cycles=1000.0):
    rng = np.random.default_rng(0)
    records = []
    for _ in range(n):
        c = int(rng.integers(1, 64))
        records.append(ProfileRecord(OperatorSpec(OpKind.Conv, c, c, kernel=3),
                                     TensorShape(c, 8, 8), cycles))
    return records


def test_constant_target_converges():
    model, report = train_cost_model(_constant_records(),
                                     CostModelConfig(epochs=800, seed=0))
    assert report.final_val_mape < 1.0
    got = predict(model, OperatorSpec(OpKind.Conv, 12, 12, kernel=3),
                  TensorShape(12, 8, 8))
    assert got == pytest.approx(1000.0, rel=0.05)


def test_training_requires_enough_records():
    with pytest.raises(InsufficientData):
        train_cost_model(_constant_records(n=10))


def test_training_deterministic_per_seed():
    records = simulate_records(SimulatedVPU(noise_sigma_rel=0.0), 80, seed=5)
    cfg = CostModelConfig(epochs=200, seed=3)
    m1, _ = train_cost_model(records, cfg)
    m2, _ = train_cost_model(records, cfg)
    assert np.array_equal(m1.w1, m2.w1)
    assert np.array_equal(m1.w3, m2.w3)


def test_prediction_positive_and_repeatable():
    records = simulate_records(SimulatedVPU(noise_sigma_rel=0.0), 80, seed=5)
    model, _ = train_cost_model(records, CostModelConfig(epochs=200, seed=0))
    op = OperatorSpec(OpKind.DWConv, 16, 16, kernel=3)
    a = predict(model, op, TensorShape(16, 8, 8))
    b = predict(model, op, TensorShape(16, 8, 8))
    assert a > 0
    assert a == b


def test_scale_awareness():
    # identical op at doubled spatial size must predict a higher cost
    dev = SimulatedVPU(noise_sigma_rel=0.0)
    records = simulate_records(dev, 400, seed=2)
    model, _ = train_cost_model(records, CostModelConfig(epochs=1500, seed=0))
    op = OperatorSpec(OpKind.Conv, 32, 32, kernel=3)
    small = predict(model, op, TensorShape(32, 8, 8))
    large = predict(model, op, TensorShape(32, 32, 32))
    assert large > small


def test_simulated_records_count_cycles_of_the_device_clock():
    dev = SimulatedVPU(clock_ghz=1.4)
    for r in simulate_records(dev, 20, seed=1):
        assert r.measured_cycles == pytest.approx(dev.op_cost_ms(r.op, r.input_shape) * 1.4e6,
                                                  rel=1e-12)


# ---------------------------------------------------------------------------
# evaluate_mape
# ---------------------------------------------------------------------------

def test_mape_zero_on_exact():
    class Exact:
        pass

    records = _constant_records(n=5)
    model, _ = train_cost_model(_constant_records(), CostModelConfig(epochs=800))
    # model converged to the constant; MAPE against the same constant ~ 0
    assert evaluate_mape(model, records) < 1.0


def test_mape_arithmetic_single_record():
    from hwnas.costmodel import _mape_from_log
    assert _mape_from_log(np.log([110.0]), np.log([100.0])) == pytest.approx(
        10.0, abs=1e-9)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_records_round_trip(tmp_path):
    records = simulate_records(SimulatedVPU(), 20, seed=1)
    path = tmp_path / "w.records.jsonl"
    save_records(records, path)
    assert load_records(path) == records


def test_record_whose_op_does_not_fit_its_shape_is_invalid():
    with pytest.raises(InvalidOp, match="^Conv: expects 16 channels, input has 3"):
        ProfileRecord(OperatorSpec(OpKind.Conv, 16, 16, kernel=3), TensorShape(3, 8, 8), 1000.0)


def test_model_round_trip(tmp_path):
    records = simulate_records(SimulatedVPU(noise_sigma_rel=0.0), 80, seed=5)
    model, _ = train_cost_model(records, CostModelConfig(epochs=100, seed=0))
    path = tmp_path / "m.json"
    save_model(model, path)
    back = load_model(path)
    op = OperatorSpec(OpKind.Conv, 8, 8, kernel=3)
    assert predict(back, op, TensorShape(8, 8, 8)) == predict(
        model, op, TensorShape(8, 8, 8))


def test_lut_from_model_key_set(toy_supernet):
    from hwnas.profiler import enumerate_search_space
    records = simulate_records(SimulatedVPU(noise_sigma_rel=0.0), 120, seed=5)
    model, _ = train_cost_model(records, CostModelConfig(epochs=100, seed=0))
    lut = lut_from_model(model, toy_supernet)
    assert set(lut.entries) == {k for k, _, _ in
                                enumerate_search_space(toy_supernet)}
    assert all(v >= 0 for v in lut.entries.values())
    assert lut.source == "CostModel"


@pytest.mark.parametrize("b3,feat_std", [(1e300, 1.0), (0.0, 0.0)])
def test_lut_from_model_rejects_non_finite_prediction(toy_supernet, b3, feat_std):
    """An overflowing bias or a zero feature scale loads, but predicts inf or
    NaN; the error names the first key it hits."""
    (h1, h2), d = HIDDEN, FEATURE_DIM
    model = CostModel(w1=np.zeros((h1, d)), b1=np.zeros(h1), w2=np.zeros((h2, h1)),
                      b2=np.zeros(h2), w3=np.zeros(h2), b3=b3,
                      feat_mean=np.zeros(d), feat_std=np.full(d, feat_std))
    with pytest.raises(HwnasError, match="non-finite latency .* for 'Conv:k3:s1:e1:i3x8x8"):
        lut_from_model(model, toy_supernet)
