import math

import numpy as np
import pytest

from hwnas.errors import NonFiniteLoss
from hwnas.graph import (MixedStage, OperatorSpec, OpKind, SuperNet, Task,
                         TensorShape)
from hwnas.latency import LatencyTable, canonical_key
from hwnas.search import (ArchParams, SearchConfig, arch_grad, derive_compact,
                          path_probs, sample_gate, total_loss, train_compact,
                          train_search, weight_l2)


# ---------------------------------------------------------------------------
# path_probs
# ---------------------------------------------------------------------------

def test_probs_zero_logits_uniform():
    np.testing.assert_allclose(path_probs([0.0, 0.0]), [0.5, 0.5], atol=1e-15)


def test_probs_shift_invariance():
    for c in (-3.0, 0.0, 100.0):
        np.testing.assert_allclose(path_probs([c, c, c]), np.full(3, 1 / 3),
                                   atol=1e-15)


def test_probs_ln2_logit():
    np.testing.assert_allclose(path_probs([math.log(2), 0.0]), [2 / 3, 1 / 3],
                               atol=1e-12)


# ---------------------------------------------------------------------------
# sample_gate
# ---------------------------------------------------------------------------

def test_gate_degenerate_prob_always_first():
    rng = np.random.default_rng(0)
    for _ in range(50):
        g = sample_gate(np.array([1.0, 0.0]), rng)
        assert g.tolist() == [1.0, 0.0]


def test_gate_frequency_binomial_bound():
    rng = np.random.default_rng(42)
    n = 100_000
    hits = sum(sample_gate(np.array([0.5, 0.5]), rng)[0] for _ in range(n))
    assert 0.494 <= hits / n <= 0.506


def test_gate_sequence_deterministic():
    seq_a = [sample_gate(np.array([0.3, 0.3, 0.4]),
                         np.random.default_rng(7)).argmax() for _ in range(1)]
    a = np.random.default_rng(7)
    b = np.random.default_rng(7)
    for _ in range(200):
        assert np.array_equal(sample_gate(np.array([0.3, 0.3, 0.4]), a),
                              sample_gate(np.array([0.3, 0.3, 0.4]), b))


def test_gate_chi_square_three_way():
    rng = np.random.default_rng(11)
    p = np.array([0.2, 0.3, 0.5])
    n = 30_000
    counts = np.zeros(3)
    for _ in range(n):
        counts += sample_gate(p, rng)
    chi2 = float(((counts - n * p) ** 2 / (n * p)).sum())
    assert chi2 < 13.8  # chi-square(2 dof) at p=0.001


# ---------------------------------------------------------------------------
# arch_grad
# ---------------------------------------------------------------------------

def test_arch_grad_hand_value():
    g = arch_grad(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    np.testing.assert_allclose(g, [0.25, -0.25], atol=1e-15)


def test_arch_grad_constant_dl_dg_zero():
    g = arch_grad(np.array([3.0, 3.0, 3.0]), np.array([0.2, 0.3, 0.5]))
    np.testing.assert_allclose(g, 0.0, atol=1e-15)


def test_arch_grad_saturated_softmax_zero():
    g = arch_grad(np.array([4.2, -1.0]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(g, 0.0, atol=1e-15)


def test_arch_grad_matches_linearized_fd():
    rng = np.random.default_rng(3)
    eps = 1e-6
    for _ in range(20):
        alpha = rng.standard_normal(4)
        dl_dg = rng.standard_normal(4)
        p = path_probs(alpha)
        grad = arch_grad(dl_dg, p)
        for i in range(4):
            hi, lo = alpha.copy(), alpha.copy()
            hi[i] += eps
            lo[i] -= eps
            fd = float((path_probs(hi) - path_probs(lo)) @ dl_dg) / (2 * eps)
            assert abs(grad[i] - fd) < 1e-6


# ---------------------------------------------------------------------------
# total_loss
# ---------------------------------------------------------------------------

def _params(*arrays):
    from hwnas.nncore import Parameter
    return [Parameter(np.asarray(a, dtype=np.float64)) for a in arrays]


def test_total_loss_reduces_to_ce():
    cfg = SearchConfig(lambda1=0.0, lambda2=0.0)
    assert total_loss(1.25, weight_l2(_params(np.ones(4))), 3.0, cfg) == 1.25


def test_total_loss_arithmetic():
    cfg = SearchConfig(lambda1=0.1, lambda2=0.5)
    # ce 1, ||w||^2 = 2, E[lat] = 3 -> 1 + 0.2 + 1.5
    w = weight_l2(_params(np.array([1.0, 1.0])))
    assert total_loss(1.0, w, 3.0, cfg) == pytest.approx(2.7, abs=1e-12)


def test_total_loss_monotone_in_lambda2():
    w = weight_l2(_params(np.array([0.5])))
    lo = total_loss(1.0, w, 2.0, SearchConfig(lambda2=0.1))
    hi = total_loss(1.0, w, 2.0, SearchConfig(lambda2=0.2))
    assert hi > lo


# ---------------------------------------------------------------------------
# derive_compact
# ---------------------------------------------------------------------------

def _one_stage_net(candidates):
    shape = TensorShape(8, 4, 4)
    return SuperNet(
        task=Task.Classification, input_shape=TensorShape(3, 4, 4),
        stem=(OperatorSpec(OpKind.Conv, 3, 8, kernel=3),),
        stages=(MixedStage(candidates, shape, shape),),
        head=(OperatorSpec(OpKind.Linear, 8 * 16, 2),),
        num_classes=2)


def test_derive_argmax(toy_supernet):
    arch = ArchParams((np.array([0.2, 1.3, -0.5]),
                       np.array([0.0, 0.0, 1.0]),
                       np.array([2.0, 0.0, 0.0])))
    net = derive_compact(toy_supernet, arch)
    assert net.chosen_indices == (1, 2, 0)
    assert net.tie_stages == ()


def test_derive_tie_break_lowest_index(toy_supernet):
    arch = ArchParams((np.array([1.0, 1.0, 0.0]),
                       np.array([0.0, 0.0, 1.0]),
                       np.array([2.0, 0.0, 0.0])))
    net = derive_compact(toy_supernet, arch)
    assert net.chosen_indices[0] == 0
    assert net.tie_stages == (0,)


def test_derive_shift_invariance(toy_supernet):
    base = ArchParams((np.array([0.2, 1.3, -0.5]),) * 3)
    shifted = ArchParams(tuple(v + 5.0 for v in base.vectors))
    assert (derive_compact(toy_supernet, base).chosen_indices
            == derive_compact(toy_supernet, shifted).chosen_indices)


# ---------------------------------------------------------------------------
# train_search
# ---------------------------------------------------------------------------

def _toy_data(n=120, seed=0):
    from hwnas.datasets import DatasetSpec, generate_classification_dataset
    ds = generate_classification_dataset(
        DatasetSpec(Task.Classification, n, 8, num_classes=4, seed=seed))
    return ds


def _uniform_lut(supernet, value=0.01):
    entries = {}
    cur = supernet.input_shape
    for op in supernet.stem:
        entries[canonical_key(op, cur)] = value
        from hwnas.graph import output_shape
        cur = output_shape(op, cur)
    for st in supernet.stages:
        for c in st.candidates:
            entries[canonical_key(c, st.input_shape)] = value
        cur = st.output_shape
    for op in supernet.head:
        entries[canonical_key(op, cur)] = value
    return LatencyTable(entries=entries)


def test_rounds_zero_returns_initial_state(toy_supernet):
    ds = _toy_data()
    cfg = SearchConfig(rounds=0, seed=1)
    state, history = train_search(toy_supernet, ds.train, ds.val, cfg,
                                  _uniform_lut(toy_supernet))
    assert history.records == []
    for v in state.arch.vectors:
        assert np.all(v == 0.0)


def test_search_deterministic_history(toy_supernet):
    ds = _toy_data()
    lut = _uniform_lut(toy_supernet)
    cfg = SearchConfig(rounds=4, seed=5)
    _, h1 = train_search(toy_supernet, ds.train, ds.val, cfg, lut)
    _, h2 = train_search(toy_supernet, ds.train, ds.val, cfg, lut)
    assert h1.to_csv() == h2.to_csv()


def test_search_prefers_conv_when_needed():
    # {Identity, Conv} stage on a task the identity path cannot solve
    net = _one_stage_net((OperatorSpec(OpKind.Identity, 8, 8),
                          OperatorSpec(OpKind.Conv, 8, 8, kernel=3)))
    from hwnas.datasets import DatasetSpec, generate_classification_dataset
    ds = generate_classification_dataset(
        DatasetSpec(Task.Classification, 160, 4, num_classes=2, seed=42))
    cfg = SearchConfig(rounds=25, seed=42, lambda2=0.0)
    state, _ = train_search(net, ds.train, ds.val, cfg, _uniform_lut(net))
    p = path_probs(state.arch.vectors[0])
    assert p[1] > 0.5  # conv candidate favored


def test_history_csv_header(toy_supernet):
    ds = _toy_data()
    cfg = SearchConfig(rounds=2, seed=0)
    _, hist = train_search(toy_supernet, ds.train, ds.val, cfg,
                           _uniform_lut(toy_supernet))
    header = hist.to_csv().splitlines()[0]
    assert header.startswith("round,train_loss,val_loss,e_latency_ms")
    assert "stage0_cand0" in header


# ---------------------------------------------------------------------------
# divergence
# ---------------------------------------------------------------------------

def test_search_divergence_is_nonfinite_loss():
    from hwnas.datasets import DatasetSpec, generate_sr_dataset
    from hwnas.spaces import toy_sr_supernet
    net = toy_sr_supernet()
    ds = generate_sr_dataset(DatasetSpec(Task.SuperResolution, 8, 8, sr_scale=2, seed=42))
    cfg = SearchConfig(rounds=1, lr_weights=50, batch_size=2)
    with pytest.raises(NonFiniteLoss, match="^non-finite loss"):
        train_search(net, ds.train, ds.val, cfg, _uniform_lut(net))


def test_retrain_divergence_is_nonfinite_loss():
    from hwnas.spaces import toy_classification_supernet
    net = toy_classification_supernet().path((0, 0, 0))
    ds = _toy_data(n=40, seed=42)
    with pytest.raises(NonFiniteLoss, match="^non-finite loss"):
        train_compact(net, ds.train, steps=20, lr=1e6)
