"""The span tracer's contract with nncore.

perfbench/tracing.py patches `ModuleInstance.forward` and `backward` and
names each span `nncore.fwd.<Kind>` / `nncore.bwd.<Kind>` after
`spec.kind`. These tests import the tracer read-only and check that every
operator kind is still traced through those two entry points.
"""

import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hwnas.cli  # noqa: F401  the tracer patches every hwnas module, so load them all
from hwnas.graph import OperatorSpec, OpKind, TensorShape
from hwnas.nncore import ModuleInstance

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

S, K, T = OperatorSpec, OpKind, TensorShape

# (op, input shape): one of each kind
CASES = [
    (S(K.Conv, 3, 4, kernel=3), T(3, 5, 5)),
    (S(K.DWConv, 4, 4, kernel=3, stride=2), T(4, 5, 5)),
    (S(K.PointwiseConv, 4, 6), T(4, 3, 3)),
    (S(K.MBConv, 4, 4, kernel=3, expand_ratio=Fraction(2)), T(4, 4, 4)),
    (S(K.AvgPool, 4, 4, kernel=3), T(4, 4, 4)),
    (S(K.MaxPool, 4, 4, kernel=3, stride=2), T(4, 5, 5)),
    (S(K.Identity, 4, 4), T(4, 3, 3)),
    (S(K.ReLU, 4, 4), T(4, 3, 3)),
    (S(K.LeakyReLU, 4, 4, activation_slope=0.1), T(4, 3, 3)),
    (S(K.UpsampleNearest, 4, 2, scale_factor=2), T(4, 3, 3)),
    (S(K.UpsampleBilinear, 4, 4, scale_factor=2), T(4, 3, 3)),
    (S(K.DepthToSpace, 8, 2, scale_factor=2), T(8, 3, 3)),
    (S(K.Linear, 16, 3), T(4, 2, 2)),
]

# MBConv runs its expand, dw and project children through the same entry points.
EXPECTED_CALLS = {kind: 1 for kind in OpKind} | {K.PointwiseConv: 3, K.DWConv: 2}


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing as module
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def _run_every_kind():
    rng = np.random.default_rng(0)
    for op, shape in CASES:
        inst = ModuleInstance(op, rng)
        out = inst.forward(rng.standard_normal((2,) + tuple(shape.as_list())))
        inst.backward(rng.standard_normal(out.shape))


def test_cases_cover_every_kind():
    assert {op.kind for op, _ in CASES} == set(OpKind)


def test_tracer_records_forward_and_backward_of_every_kind(tracing):
    tracer = tracing.Tracer(time.perf_counter)
    tracer.install()
    try:
        _run_every_kind()
    finally:
        tracer.uninstall()
    summary = tracing.summarize(*tracer.take())
    for kind, calls in EXPECTED_CALLS.items():
        for phase in ("fwd", "bwd"):
            name = f"nncore.{phase}.{kind.value}"
            assert summary[name]["calls"] == calls, name
            assert summary[name]["failed"] == 0, name


def test_uninstall_restores_the_entry_points(tracing):
    forward, backward = ModuleInstance.forward, ModuleInstance.backward
    tracer = tracing.Tracer(time.perf_counter)
    tracer.install()
    try:
        assert ModuleInstance.forward is not forward
        assert ModuleInstance.forward.__wrapped__ is forward
    finally:
        tracer.uninstall()
    assert ModuleInstance.forward is forward
    assert ModuleInstance.backward is backward
    _run_every_kind()
    assert tracer.take()[0] == []
