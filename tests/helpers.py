"""Helpers that only tests use: a finite-difference gradient check, the
parameter count of an op, and the latency spread of a stage's candidates."""

import math

import numpy as np

from hwnas.graph import KINDS, OperatorSpec, TensorShape
from hwnas.nncore import ModuleInstance


def parameter_count(spec: OperatorSpec) -> int:
    """Number of learnable scalars an instance of `spec` carries."""
    return sum(math.prod(shape) for shape in KINDS[spec.kind].params(spec).values())


def grad_check(instance: ModuleInstance, input_shape: TensorShape,
               batch: int = 2, step: float = 1e-3, seed: int = 0) -> dict:
    """Compare analytic grads against central finite differences.

    The scalar objective is a fixed random projection of the output. All
    parameters are jittered to a generic point first: zero-initialized biases
    would otherwise park ReLU pre-activations exactly on the kink, where
    finite differences are meaningless. Returns {"max_rel_err", "per_param",
    "input_rel_err"}.
    """
    rng = np.random.default_rng(seed)
    for p in instance.params.values():
        p.value += 0.2 * rng.standard_normal(p.value.shape)
    x = rng.standard_normal((batch, input_shape.channels,
                             input_shape.height, input_shape.width))
    out = instance.forward(x)
    proj = rng.standard_normal(out.shape)

    instance.zero_grad()
    instance.forward(x)
    dx = instance.backward(proj)

    def objective():
        return float(np.sum(instance.forward(x) * proj))

    def max_rel_err(values, analytic):
        """Worst relative error of `analytic` against central differences,
        perturbing `values` in place one entry at a time."""
        flat, analytic = values.reshape(-1), analytic.reshape(-1)
        err = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = objective()
            flat[i] = orig - step
            lo = objective()
            flat[i] = orig
            f = (hi - lo) / (2 * step)
            err = max(err, abs(analytic[i] - f) / max(abs(analytic[i]), abs(f), 1e-6))
        return err

    report = {"per_param": {name: max_rel_err(p.value, p.grad.copy())
                            for name, p in instance.params.items()},
              "input_rel_err": max_rel_err(x, dx)}
    report["max_rel_err"] = max([*report["per_param"].values(), report["input_rel_err"]])
    instance.zero_grad()
    instance._cache = None
    return report


def relative_latency_spread(f) -> float:
    """Largest relative deviation of a candidate latency from the uniform mean.

    max_j |f_j - mean(f)| / mean(f); quantifies how much the table actually
    distinguishes the candidates of a stage.
    """
    f = np.asarray(f, dtype=np.float64)
    mean = float(f.mean())
    if mean == 0:
        return 0.0
    return float(np.max(np.abs(f - mean)) / mean)
