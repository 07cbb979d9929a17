import math
from fractions import Fraction

import numpy as np
import pytest

from hwnas.errors import ShapeMismatch, StaleState
from hwnas.graph import OperatorSpec, OpKind, TensorShape
from hwnas.nncore import (ModuleInstance, load_checkpoint, loss_ce, loss_mse,
                          save_checkpoint, sgd_step)
from helpers import grad_check, parameter_count

# Finite-difference step per kind: kinked ops (ReLU-family, max, MBConv's
# internal ReLUs) need a smaller step to avoid crossing activation boundaries.
SMOOTH_STEP = 1e-3
KINK_STEP = 1e-5


def _inst(op, seed=0):
    return ModuleInstance(op, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_identity_forward_bitwise(rng):
    inst = _inst(OperatorSpec(OpKind.Identity, 4, 4))
    x = rng.standard_normal((2, 4, 6, 6))
    assert np.array_equal(inst.forward(x), x)


def test_relu_forward_values():
    inst = _inst(OperatorSpec(OpKind.ReLU, 1, 1))
    x = np.array([-1.0, 2.0]).reshape(1, 1, 1, 2)
    assert inst.forward(x).ravel().tolist() == [0.0, 2.0]


def test_maxpool_border_ignores_padding():
    x = -1.0 - np.arange(16.0).reshape(1, 1, 4, 4)  # all negative
    out = _inst(OperatorSpec(OpKind.MaxPool, 1, 1, kernel=3)).forward(x)
    expect = [[x[0, 0, max(i - 1, 0):i + 2, max(j - 1, 0):j + 2].max() for j in range(4)]
              for i in range(4)]
    assert out[0, 0].tolist() == expect


def test_conv1x1_identity_kernel(rng):
    op = OperatorSpec(OpKind.Conv, 4, 4, kernel=1)
    inst = _inst(op)
    inst.params["weight"].value = np.eye(4).reshape(4, 4, 1, 1)
    inst.params["bias"].value[:] = 0.0
    x = rng.standard_normal((2, 4, 5, 5))
    np.testing.assert_allclose(inst.forward(x), x, atol=1e-12)


def test_backward_without_forward_raises():
    inst = _inst(OperatorSpec(OpKind.ReLU, 2, 2))
    with pytest.raises(StaleState):
        inst.backward(np.zeros((1, 2, 2, 2)))


def test_identity_backward_passes_grad(rng):
    inst = _inst(OperatorSpec(OpKind.Identity, 3, 3))
    x = rng.standard_normal((1, 3, 4, 4))
    inst.forward(x)
    g = rng.standard_normal(x.shape)
    assert np.array_equal(inst.backward(g), g)


def test_relu_backward_masks_grad():
    inst = _inst(OperatorSpec(OpKind.ReLU, 1, 1))
    x = np.array([-1.0, 2.0]).reshape(1, 1, 1, 2)
    inst.forward(x)
    g = inst.backward(np.ones_like(x))
    assert g.ravel().tolist() == [0.0, 1.0]


# ---------------------------------------------------------------------------
# gradient checks (acceptance criterion lives in test_acceptance; these are
# the per-kind unit fixtures)
# ---------------------------------------------------------------------------

def test_grad_check_identity():
    res = grad_check(_inst(OperatorSpec(OpKind.Identity, 3, 3)),
                     TensorShape(3, 4, 4))
    # linear map: only finite-difference rounding noise remains
    assert res["max_rel_err"] < 1e-9


def test_grad_check_conv_k3():
    res = grad_check(_inst(OperatorSpec(OpKind.Conv, 4, 6, kernel=3)),
                     TensorShape(4, 6, 6), step=SMOOTH_STEP)
    assert res["max_rel_err"] < 1e-4


def test_grad_check_dwconv_seed7():
    res = grad_check(_inst(OperatorSpec(OpKind.DWConv, 4, 4, kernel=3), seed=7),
                     TensorShape(4, 6, 6), step=SMOOTH_STEP, seed=7)
    assert res["max_rel_err"] < 1e-4


def test_grad_check_mbconv_e6_seed7():
    op = OperatorSpec(OpKind.MBConv, 4, 4, kernel=3, expand_ratio=Fraction(6))
    res = grad_check(_inst(op, seed=7), TensorShape(4, 6, 6),
                     step=KINK_STEP, seed=7)
    assert res["max_rel_err"] < 1e-4


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def test_ce_uniform_logits_ln10():
    logits = np.zeros((3, 10))
    labels = np.array([0, 4, 9])
    loss, _ = loss_ce(logits, labels)
    assert loss == pytest.approx(math.log(10), abs=1e-12)


def test_ce_grad_two_class_zero_logits():
    logits = np.zeros((1, 2))
    loss, grad = loss_ce(logits, np.array([0]))
    np.testing.assert_allclose(grad, [[-0.5, 0.5]], atol=1e-12)


def test_ce_confident_margin_20():
    logits = np.array([[20.0, 0.0]])
    loss, _ = loss_ce(logits, np.array([0]))
    assert 0.0 <= loss < 1e-8


@pytest.mark.parametrize("labels", [[0, 4], [0, -1]])
def test_ce_label_outside_logits_is_shape_mismatch(labels):
    """A label >= K would index past the logits, and a negative one would count
    from the last logit."""
    with pytest.raises(ShapeMismatch, match=r"labels .* \[0, 4\)"):
        loss_ce(np.zeros((2, 4)), np.array(labels))


def test_mse_exact_match_zero(rng):
    x = rng.standard_normal((2, 3, 4, 4))
    loss, grad = loss_mse(x, x.copy())
    assert loss == 0.0
    assert np.all(grad == 0.0)


# ---------------------------------------------------------------------------
# sgd_step
# ---------------------------------------------------------------------------

from hwnas.nncore import Parameter


def _P(v, g):
    p = Parameter(np.asarray(v, dtype=np.float64))
    p.grad[:] = np.asarray(g, dtype=np.float64)
    return p


def test_sgd_no_grad_no_decay_unchanged():
    p = _P([1.0, -2.0], [0.0, 0.0])
    sgd_step([p], lr=0.1)
    assert p.value.tolist() == [1.0, -2.0]


def test_sgd_weight_decay_arithmetic():
    p = _P([1.0], [0.0])
    sgd_step([p], lr=0.1, weight_decay=0.5)
    assert p.value[0] == pytest.approx(0.9, abs=1e-15)


def test_sgd_quadratic_bowl_converges():
    p = _P([1.0], [0.0])
    for _ in range(100):
        p.grad[:] = 2.0 * p.value  # d/dw of w^2
        sgd_step([p], lr=0.1)
    assert abs(p.value[0]) < 1e-6


# ---------------------------------------------------------------------------
# parameter_count
# ---------------------------------------------------------------------------

def test_parameter_count_conv():
    op = OperatorSpec(OpKind.Conv, 16, 32, kernel=3)
    assert parameter_count(op) == 32 * 16 * 9 + 32


def test_parameter_count_mbconv_formula():
    c_in, c_out, e, k = 8, 12, 4, 3
    op = OperatorSpec(OpKind.MBConv, c_in, c_out, kernel=k,
                      expand_ratio=Fraction(e))
    hidden = e * c_in
    expected = (c_in * hidden + hidden  # pointwise expand + bias
                + hidden * k * k + hidden  # depthwise + bias
                + hidden * c_out + c_out)  # pointwise project + bias
    assert parameter_count(op) == expected


# (op, learnable scalars)
PARAMETER_COUNTS = [
    (OperatorSpec(OpKind.Conv, 4, 8, kernel=3), 8 * 4 * 9 + 8),
    (OperatorSpec(OpKind.DWConv, 4, 4, kernel=5), 4 * 25 + 4),
    (OperatorSpec(OpKind.PointwiseConv, 4, 6, stride=2), 6 * 4 + 6),
    (OperatorSpec(OpKind.MBConv, 4, 6, kernel=3, expand_ratio=Fraction(2)),
     (4 * 8 + 8) + (8 * 9 + 8) + (8 * 6 + 6)),
    (OperatorSpec(OpKind.AvgPool, 4, 4, kernel=3), 0),
    (OperatorSpec(OpKind.MaxPool, 4, 4, kernel=3, stride=2), 0),
    (OperatorSpec(OpKind.Identity, 4, 4), 0),
    (OperatorSpec(OpKind.ReLU, 4, 4), 0),
    (OperatorSpec(OpKind.LeakyReLU, 4, 4, activation_slope=0.1), 0),
    (OperatorSpec(OpKind.UpsampleNearest, 4, 4, scale_factor=2), 0),
    (OperatorSpec(OpKind.UpsampleNearest, 4, 3, scale_factor=2), 3 * 4 + 3),
    (OperatorSpec(OpKind.UpsampleBilinear, 4, 4, scale_factor=2), 0),
    (OperatorSpec(OpKind.UpsampleBilinear, 4, 6, scale_factor=3), 6 * 4 + 6),
    (OperatorSpec(OpKind.DepthToSpace, 8, 2, scale_factor=2), 0),
    (OperatorSpec(OpKind.Linear, 10, 3), 3 * 10 + 3),
]


def test_parameter_count_matches_instance():
    assert {op.kind for op, _ in PARAMETER_COUNTS} == set(OpKind)
    for op, count in PARAMETER_COUNTS:
        inst = _inst(op)
        total = sum(p.value.size for p in inst.params.values())
        assert parameter_count(op) == total == count, op


# ---------------------------------------------------------------------------
# determinism + checkpoints
# ---------------------------------------------------------------------------

def test_forward_deterministic_per_seed(rng):
    op = OperatorSpec(OpKind.Conv, 3, 5, kernel=3)
    x = rng.standard_normal((2, 3, 6, 6))
    a = _inst(op, seed=11).forward(x)
    b = _inst(op, seed=11).forward(x)
    assert np.array_equal(a, b)


def test_checkpoint_round_trip(tmp_path, rng):
    op = OperatorSpec(OpKind.Conv, 3, 5, kernel=3)
    src = _inst(op, seed=1)
    dst = _inst(op, seed=2)
    path = tmp_path / "w.json"
    save_checkpoint({f"p.{k}": p for k, p in src.params.items()}, path)
    load_checkpoint({f"p.{k}": p for k, p in dst.params.items()}, path)
    x = rng.standard_normal((1, 3, 6, 6))
    np.testing.assert_array_equal(src.forward(x), dst.forward(x))
