"""Acceptance suite: one test per criterion, named test_criterion_NN_*,
so `pytest -v` emits a pass/fail line per criterion.

Tolerances are pinned in each test body; shared expensive artifacts
(brute-force oracle, searches) are module-scoped fixtures.
"""

import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest

from hwnas.cli import main as cli_main
from hwnas.costmodel import (CostModelConfig, lut_from_model,
                             simulate_records, train_cost_model)
from hwnas.datasets import DatasetSpec, generate_classification_dataset, \
    generate_sr_dataset
from hwnas.graph import (CompactNet, OperatorSpec, OpKind, Task, TensorShape,
                         output_shape)
from hwnas.latency import (expected_network_latency, latency_alpha_grad,
                           compact_latency)
from hwnas.lint import lint_network
from hwnas.nncore import ModuleInstance
from hwnas.profiler import SimulatedVPU, build_lut, calibrate, \
    enumerate_search_space
from hwnas.search import (SearchConfig, derive_compact, train_compact,
                          train_search, accuracy)
from hwnas.spaces import (calibration_supernet, toy_classification_supernet,
                          toy_sr_supernet)
from helpers import grad_check, relative_latency_spread


def _softmax(a):
    e = np.exp(a - np.max(a))
    return e / e.sum()


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cls_supernet():
    return toy_classification_supernet()


@pytest.fixture(scope="module")
def cls_lut(cls_supernet):
    return build_lut(SimulatedVPU(noise_sigma_rel=0.0), cls_supernet)


@pytest.fixture(scope="module")
def cls_data():
    return generate_classification_dataset(
        DatasetSpec(Task.Classification, 400, 8, num_classes=4, seed=42))


@pytest.fixture(scope="module")
def brute_force_accuracies(cls_supernet, cls_data):
    """Test accuracy of every compact net in the 27-net space, fixed seed."""
    table = {}
    for chosen in itertools.product(range(3), repeat=3):
        model = train_compact(cls_supernet.path(chosen), cls_data.train,
                              steps=300, batch_size=32, lr=0.05, seed=0)
        table[chosen] = accuracy(model, cls_data.test)
    return table


@pytest.fixture(scope="module")
def cls_searches(cls_supernet, cls_data, cls_lut):
    """Derived nets for lambda2 in {0, mid, high} x 3 seeds."""
    out = {}
    for lam in (0.0, 20.0, 200.0):
        for seed in (0, 1, 2):
            cfg = SearchConfig(rounds=25, seed=seed, lambda2=lam)
            alphas, _ = train_search(cls_supernet, cls_data.train,
                                     cls_data.val, cfg, cls_lut)
            out[(lam, seed)] = derive_compact(cls_supernet, alphas)
    return out


@pytest.fixture(scope="module")
def sr_searches():
    supernet = toy_sr_supernet()
    lut = build_lut(SimulatedVPU(noise_sigma_rel=0.0), supernet)
    ds = generate_sr_dataset(
        DatasetSpec(Task.SuperResolution, 60, 32, sr_scale=2, seed=0))
    out = {}
    for lam in (0.0, 50.0):
        for seed in (0, 1, 2):
            cfg = SearchConfig(rounds=10, seed=seed, lambda2=lam, batch_size=8)
            alphas, _ = train_search(supernet, ds.train, ds.val, cfg, lut)
            out[(lam, seed)] = derive_compact(supernet, alphas)
    return supernet, out


# ---------------------------------------------------------------------------
# 1. gradient correctness for every operator kind
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_correctness():
    smooth, kinked = 1e-3, 1e-5  # central-difference steps
    cases = [
        (OperatorSpec(OpKind.Conv, 4, 6, kernel=3), TensorShape(4, 6, 6), smooth),
        (OperatorSpec(OpKind.DWConv, 4, 4, kernel=3), TensorShape(4, 6, 6), smooth),
        (OperatorSpec(OpKind.PointwiseConv, 4, 6), TensorShape(4, 6, 6), smooth),
        (OperatorSpec(OpKind.MBConv, 4, 4, kernel=3,
                      expand_ratio=Fraction(6)), TensorShape(4, 6, 6), kinked),
        (OperatorSpec(OpKind.Identity, 4, 4), TensorShape(4, 6, 6), smooth),
        (OperatorSpec(OpKind.ReLU, 4, 4), TensorShape(4, 6, 6), kinked),
        (OperatorSpec(OpKind.LeakyReLU, 4, 4, activation_slope=0.1),
         TensorShape(4, 6, 6), kinked),
        (OperatorSpec(OpKind.AvgPool, 4, 4, kernel=3), TensorShape(4, 6, 6), smooth),
        (OperatorSpec(OpKind.MaxPool, 4, 4, kernel=3), TensorShape(4, 6, 6), kinked),
        (OperatorSpec(OpKind.Linear, 36, 5), TensorShape(4, 3, 3), smooth),
        (OperatorSpec(OpKind.UpsampleNearest, 4, 2, scale_factor=2),
         TensorShape(4, 4, 4), smooth),
        (OperatorSpec(OpKind.UpsampleBilinear, 4, 2, scale_factor=2),
         TensorShape(4, 4, 4), smooth),
        (OperatorSpec(OpKind.DepthToSpace, 4, 1, scale_factor=2),
         TensorShape(4, 4, 4), smooth),
    ]
    assert {c[0].kind for c in cases} == set(OpKind)
    for op, shape, step in cases:
        for seed in (0, 7):
            inst = ModuleInstance(op, np.random.default_rng(seed))
            res = grad_check(inst, shape, step=step, seed=seed)
            assert res["max_rel_err"] < 1e-4, (op.kind, seed, res["max_rel_err"])


# ---------------------------------------------------------------------------
# 2. expected latency vs Monte-Carlo mean
# ---------------------------------------------------------------------------

def test_criterion_02_latency_expectation_monte_carlo():
    rng = np.random.default_rng(77)
    stages = []
    for _ in range(5):
        stages.append((_softmax(rng.standard_normal(3)),
                       rng.uniform(0.1, 2.0, size=3)))
    exact = expected_network_latency(stages)
    n = 100_000
    total = np.zeros(n)
    for p, f in stages:
        total += f[rng.choice(3, size=n, p=p)]
    assert abs(total.mean() - exact) / exact < 0.01


# ---------------------------------------------------------------------------
# 3. latency gradient vs finite differences
# ---------------------------------------------------------------------------

def test_criterion_03_latency_gradient():
    rng = np.random.default_rng(13)
    eps = 1e-5
    for _ in range(100):
        k = int(rng.integers(2, 7))
        alpha = rng.standard_normal(k)
        f = rng.uniform(0.05, 5.0, size=k)
        grad = latency_alpha_grad(_softmax(alpha), f)
        assert abs(grad.sum()) < 1e-12
        fd = np.empty(k)
        for i in range(k):
            hi, lo = alpha.copy(), alpha.copy()
            hi[i] += eps
            lo[i] -= eps
            fd[i] = (float(_softmax(hi) @ f) - float(_softmax(lo) @ f)) / (2 * eps)
        # relative error on the whole gradient vector: individual components
        # can vanish (softmax derivative zero-crossings), where the ratio of
        # FD rounding noise to an arbitrarily small component is unbounded
        err = np.linalg.norm(grad - fd)
        scale = max(np.linalg.norm(grad), np.linalg.norm(fd))
        assert err / scale < 1e-6


# ---------------------------------------------------------------------------
# 4. stacking protocol recovery
# ---------------------------------------------------------------------------

def test_criterion_04_stacking_recovery(cls_supernet):
    dev = SimulatedVPU(noise_sigma_rel=0.0)
    n = 20
    lut = build_lut(dev, cls_supernet, n=n, trials=3)
    bias = dev.graph_overhead_ms / n  # 0.01 ms
    for key, op, shape in enumerate_search_space(cls_supernet):
        truth = dev.op_cost_ms(op, shape)
        err = abs(lut.entries[key] - truth)
        if op.kind is OpKind.Identity:
            assert lut.entries[key] == 0.0
        elif output_shape(op, shape) == shape:
            assert err == pytest.approx(bias, abs=1e-12), key  # exactly overhead/N
        else:
            assert err <= 2 * bias + 1e-12, key

    # noisy recovery on a space whose ops are >= 0.1 ms
    noisy = SimulatedVPU(noise_sigma_rel=0.05, seed=7)
    cal = calibration_supernet()
    lut_noisy = build_lut(noisy, cal, n=20, trials=9)
    checked = 0
    for key, op, shape in enumerate_search_space(cal):
        truth = noisy.op_cost_ms(op, shape)
        if truth >= 0.1:
            checked += 1
            assert abs(lut_noisy.entries[key] - truth) / truth < 0.10, key
    assert checked >= 3


# ---------------------------------------------------------------------------
# 5. calibration: predicted vs measured on 50 random nets
# ---------------------------------------------------------------------------

def test_criterion_05_calibration():
    dev = SimulatedVPU(noise_sigma_rel=0.0)
    supernet = calibration_supernet()
    lut = build_lut(dev, supernet)
    _, summary = calibrate(dev, supernet, lut, num_samples=50, seed=0, trials=3)
    assert summary["pearson"] >= 0.999
    assert summary["mape_percent"] <= 5.0


# ---------------------------------------------------------------------------
# 6. learned cost model accuracy
# ---------------------------------------------------------------------------

def test_criterion_06_cost_model():
    dev = SimulatedVPU(noise_sigma_rel=0.0)
    records = simulate_records(dev, 500, seed=3)
    model, report = train_cost_model(records, CostModelConfig(seed=0))
    assert report.final_val_mape < 15.0

    # predicted LUT vs the simulator's closed form over every entry of the
    # three built-in spaces (identity pins to 0 by construction; skip it)
    apes = []
    for supernet in (toy_classification_supernet(), toy_sr_supernet(),
                     calibration_supernet()):
        lut = lut_from_model(model, supernet)
        for key, op, shape in enumerate_search_space(supernet):
            if op.kind is OpKind.Identity:
                continue
            truth = dev.op_cost_ms(op, shape)
            apes.append(abs(lut.entries[key] - truth) / truth)
    assert float(np.median(apes)) * 100.0 < 15.0


# ---------------------------------------------------------------------------
# 7. search vs brute-force oracle; latency monotone in lambda2
# ---------------------------------------------------------------------------

def test_criterion_07_search_oracle(cls_supernet, cls_lut, cls_data,
                                    brute_force_accuracies, cls_searches):
    best = max(brute_force_accuracies.values())
    for seed in (0, 1, 2):
        derived = cls_searches[(0.0, seed)]
        got = brute_force_accuracies[derived.chosen_indices]
        assert got >= best - 0.02, (seed, derived.chosen_indices, got, best)

    mean_lat = []
    for lam in (0.0, 20.0, 200.0):
        lats = [compact_latency(cls_searches[(lam, s)], cls_lut)
                for s in (0, 1, 2)]
        mean_lat.append(float(np.mean(lats)))
    assert mean_lat[0] >= mean_lat[1] >= mean_lat[2], mean_lat


# ---------------------------------------------------------------------------
# 8. fig-13-style spread fixture
# ---------------------------------------------------------------------------

def test_criterion_08_latency_spread():
    # reference per-kernel MBConv6 latencies at 7x7x160: nearly flat
    fixture_f = [0.0463, 0.046416, 0.047016]
    assert relative_latency_spread(fixture_f) < 0.015

    # the same kernel sweep at large feature maps clearly separates
    dev = SimulatedVPU(noise_sigma_rel=0.0)
    shape = TensorShape(64, 56, 56)
    sim_f = [dev.op_cost_ms(OperatorSpec(OpKind.Conv, 64, 64, kernel=k), shape)
             for k in (3, 5, 7)]
    assert relative_latency_spread(sim_f) > 0.20


# ---------------------------------------------------------------------------
# 9. lint fixtures + lint pressure of the latency regularizer
# ---------------------------------------------------------------------------

def _warning_count(net):
    return sum(1 for f in lint_network(net)
               if f.rule_id in ("VPU001", "VPU002"))


def test_criterion_09_lint(sr_searches):
    # fixture nets produce exactly the expected findings
    d2s = CompactNet(task=Task.Classification, input_shape=TensorShape(3, 8, 8),
                     layers=(OperatorSpec(OpKind.Conv, 3, 16, kernel=3),
                             OperatorSpec(OpKind.DepthToSpace, 16, 4,
                                          scale_factor=2),
                             OperatorSpec(OpKind.Linear, 4 * 256, 16)),
                     num_classes=16)
    assert [f.rule_id for f in lint_network(d2s)] == ["VPU001"]

    non16 = CompactNet(task=Task.Classification,
                       input_shape=TensorShape(3, 8, 8),
                       layers=(OperatorSpec(OpKind.Conv, 3, 24, kernel=3),
                               OperatorSpec(OpKind.Linear, 24 * 64, 16)),
                       num_classes=16)
    assert [f.rule_id for f in lint_network(non16)] == ["VPU002"]

    leaky = CompactNet(task=Task.Classification,
                       input_shape=TensorShape(3, 8, 8),
                       layers=(OperatorSpec(OpKind.Conv, 3, 16, kernel=3),
                               OperatorSpec(OpKind.LeakyReLU, 16, 16,
                                            activation_slope=0.1),
                               OperatorSpec(OpKind.Linear, 16 * 64, 16)),
                       num_classes=16)
    assert [f.rule_id for f in lint_network(leaky)] == ["VPU001"]

    # high-lambda2 derived nets lint no worse than lambda2=0 nets (majority)
    _, searches = sr_searches
    wins = sum(
        _warning_count(searches[(50.0, s)]) <= _warning_count(searches[(0.0, s)])
        for s in (0, 1, 2))
    assert wins >= 2


# ---------------------------------------------------------------------------
# 10. end-to-end determinism via the CLI
# ---------------------------------------------------------------------------

def test_criterion_10_pipeline_determinism(tmp_path):
    def run_once(tag):
        d = tmp_path / tag
        d.mkdir()
        lut = d / "toy.lut.json"
        assert cli_main(["lut", "build", "--net", "toy-classification",
                         "--out", str(lut)]) == 0
        run_dir = d / "search"
        assert cli_main(["search", "run", "--net", "toy-classification",
                         "--lut", str(lut), "--rounds", "8", "--seed", "7",
                         "--out-dir", str(run_dir),
                         "--data-samples", "160"]) == 0
        compact = d / "compact.net.json"
        assert cli_main(["derive", "--net", "toy-classification",
                         "--arch", str(run_dir / "arch.json"),
                         "--out", str(compact)]) == 0
        h = hashlib.sha256
        return (h((run_dir / "history.csv").read_bytes()).hexdigest(),
                h(compact.read_bytes()).hexdigest())

    assert run_once("a") == run_once("b")


# ---------------------------------------------------------------------------
# 11. super-resolution demo: high lambda2 avoids DSP-bound candidates
# ---------------------------------------------------------------------------

def test_criterion_11_sr_demo(sr_searches):
    supernet, searches = sr_searches
    relu_idx = next(i for i, c in enumerate(supernet.stages[1].candidates)
                    if c.kind is OpKind.ReLU)
    nearest_idx = next(i for i, c in enumerate(supernet.stages[2].candidates)
                       if c.kind is OpKind.UpsampleNearest)
    relu_wins = sum(searches[(50.0, s)].chosen_indices[1] == relu_idx
                    for s in (0, 1, 2))
    nearest_wins = sum(searches[(50.0, s)].chosen_indices[2] == nearest_idx
                       for s in (0, 1, 2))
    assert relu_wins >= 2
    assert nearest_wins >= 2
