import numpy as np
import pytest

from hwnas.errors import MissingEntry, NotNormalized
from hwnas.graph import OperatorSpec, OpKind, TensorShape
from hwnas.latency import (LatencyTable, expected_network_latency,
                           expected_stage_latency, latency_alpha_grad, load_lut,
                           lookup, save_lut)
from helpers import relative_latency_spread

# Per-candidate MBConv6 latencies at 7x7x160, kernels 3/5/7 (ms).
MBCONV6_160_MS = [0.0463, 0.046416, 0.047016]

MBCONV6_160_LUT = LatencyTable(entries={
    "MBConv:k3:s1:e6:i160x7x7:o160": MBCONV6_160_MS[0],
    "MBConv:k5:s1:e6:i160x7x7:o160": MBCONV6_160_MS[1],
    "MBConv:k7:s1:e6:i160x7x7:o160": MBCONV6_160_MS[2],
})


def _softmax(a):
    e = np.exp(a - np.max(a))
    return e / e.sum()


# ---------------------------------------------------------------------------
# lookup
# ---------------------------------------------------------------------------

def test_lookup_mbconv_k3_fixture():
    op = OperatorSpec(OpKind.MBConv, 160, 160, kernel=3, expand_ratio=6)
    assert lookup(MBCONV6_160_LUT, op, TensorShape(160, 7, 7)) == 0.0463


def test_lookup_mbconv_k7_fixture():
    op = OperatorSpec(OpKind.MBConv, 160, 160, kernel=7, expand_ratio=6)
    assert lookup(MBCONV6_160_LUT, op, TensorShape(160, 7, 7)) == 0.047016


def test_lookup_missing_key_names_it():
    op = OperatorSpec(OpKind.Conv, 8, 8, kernel=3)
    with pytest.raises(MissingEntry) as exc:
        lookup(MBCONV6_160_LUT, op, TensorShape(8, 4, 4))
    assert "Conv:k3:s1:e1:i8x4x4:o8" in str(exc.value)


# ---------------------------------------------------------------------------
# expected latency
# ---------------------------------------------------------------------------

def test_stage_latency_one_hot_selects():
    assert expected_stage_latency([1.0, 0.0], [0.5, 9.9]) == 0.5


def test_stage_latency_uniform_mean():
    assert expected_stage_latency([0.5, 0.5], [1.0, 2.0]) == 1.5


def test_stage_latency_mbconv6_uniform():
    got = expected_stage_latency(np.full(3, 1 / 3), MBCONV6_160_MS)
    assert got == pytest.approx(0.046577333, abs=1e-9)


def test_stage_latency_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        expected_stage_latency([0.5, 0.6], [1.0, 2.0])


def test_network_latency_single_stage_matches():
    stages = [([0.3, 0.7], [1.0, 2.0])]
    assert expected_network_latency(stages) == expected_stage_latency(*stages[0])


def test_network_latency_sums_stages_and_fixed():
    stages = [([0.5, 0.5], [1.0, 2.0]), ([0.5, 0.5], [1.0, 2.0])]
    assert expected_network_latency(stages) == 3.0
    assert expected_network_latency(stages, fixed_ms=0.25) == 3.25


def test_network_latency_monte_carlo_oracle():
    # random 5-stage / 3-candidate instance vs sampled-path mean at 1e5 draws
    rng = np.random.default_rng(2024)
    stages = []
    for _ in range(5):
        p = _softmax(rng.standard_normal(3))
        f = rng.uniform(0.1, 2.0, size=3)
        stages.append((p, f))
    exact = expected_network_latency(stages)
    n = 100_000
    total = np.zeros(n)
    for p, f in stages:
        idx = rng.choice(3, size=n, p=p)
        total += f[idx]
    mc = total.mean()
    assert abs(mc - exact) / exact < 0.01


# ---------------------------------------------------------------------------
# latency gradient
# ---------------------------------------------------------------------------

def test_alpha_grad_constant_f_is_zero():
    g = latency_alpha_grad([0.2, 0.3, 0.5], [4.0, 4.0, 4.0])
    np.testing.assert_allclose(g, 0.0, atol=1e-15)


def test_alpha_grad_hand_value():
    g = latency_alpha_grad([0.5, 0.5], [1.0, 2.0])
    np.testing.assert_allclose(g, [-0.25, 0.25], atol=1e-15)


def test_alpha_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    eps = 1e-6
    for _ in range(100):
        k = int(rng.integers(2, 6))
        alpha = rng.standard_normal(k)
        f = rng.uniform(0.05, 3.0, size=k)
        grad = latency_alpha_grad(_softmax(alpha), f)
        assert abs(grad.sum()) < 1e-12
        for i in range(k):
            a_hi, a_lo = alpha.copy(), alpha.copy()
            a_hi[i] += eps
            a_lo[i] -= eps
            fd = (float(_softmax(a_hi) @ f) - float(_softmax(a_lo) @ f)) / (2 * eps)
            denom = max(abs(grad[i]), abs(fd), 1e-9)
            assert abs(grad[i] - fd) / denom < 1e-6


def test_alpha_grad_shift_invariance():
    rng = np.random.default_rng(9)
    alpha = rng.standard_normal(4)
    f = rng.uniform(0.1, 1.0, size=4)
    g1 = latency_alpha_grad(_softmax(alpha), f)
    g2 = latency_alpha_grad(_softmax(alpha + 7.0), f)
    np.testing.assert_allclose(g1, g2, atol=1e-12)


# ---------------------------------------------------------------------------
# spread
# ---------------------------------------------------------------------------

def test_mbconv6_spread_below_1p5_percent():
    assert relative_latency_spread(MBCONV6_160_MS) < 0.015


def test_spread_zero_for_constant():
    assert relative_latency_spread([2.0, 2.0, 2.0]) == 0.0


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def test_lut_round_trip(tmp_path):
    path = tmp_path / "f.lut.json"
    save_lut(LatencyTable(entries=dict(MBCONV6_160_LUT.entries), source="Manual",
                          device="fixture"), path)
    back = load_lut(path)
    assert back.entries == MBCONV6_160_LUT.entries
    assert back.source == "Manual"
    assert back.device == "fixture"
