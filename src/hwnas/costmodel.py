"""Learned latency predictor: workload features -> cycle cost.

A small two-hidden-layer MLP regresses log(cycles) with MSE, which
approximates relative error and matches the MAPE evaluation metric. Tables
produced from the model are interchangeable with measured tables everywhere
downstream; cycles convert to milliseconds through a configured clock rate.

The trainer keeps every parameter in one flat float64 vector (`w1, b1, w2,
b2, w3, b3` are reshaped views of it) and runs Adam once per epoch over the
whole vector, with the gradient, the moments and the activations in buffers
allocated once per fit. It is bitwise equal to a plain per-parameter Adam
over freshly allocated arrays: each element sees the same float operations
in the same order, and each matrix product the same operands and
orientation. `tests/test_golden_costmodel.py` pins the result.

The RESTARTS fits run across up to min(RESTARTS, usable CPUs) processes.
Every start is drawn before any fit runs, so a fit depends only on its
arguments and its result is bitwise the same in whichever process runs it;
the winner is chosen in restart order as in one process. So the model, its
report and its curves are bitwise the same for any CPU count (at a fixed
BLAS thread count; see README).
"""

from __future__ import annotations

import copy
import json
import math
import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from .errors import (EmptySet, HwnasError, InsufficientData, InvalidOp, NonFiniteLoss,
                     ParseError)
from .graph import (KINDS, OperatorSpec, OpKind, SuperNet, TensorShape, _op_from_json,
                    _op_to_json, _shape_from_json, output_shape)
from .jsonio import (array_from_json, array_to_json, bounded, check_fields, field,
                     from_fields, loads_object, read_object, read_text, write_object)
from .latency import DEFAULT_CLOCK_GHZ, LatencyTable
from .profiler import enumerate_search_space

MODEL_VERSION = 1

_KIND_ORDER = list(OpKind)
FEATURE_DIM = len(_KIND_ORDER) + 8 + 1  # one-hot kind + scalar features + slope flag

HIDDEN = (64, 64)    # widths of the two hidden layers
VAL_FRACTION = 0.2   # share of the records held out for validation
RESTARTS = 5         # independent initialisations; the best validation snapshot wins
VAL_EVERY = 25       # epochs between validation checkpoints
MIN_RECORDS = 50     # the fewest records `train_cost_model` fits
_ARRAYS = ("w1", "b1", "w2", "b2", "w3", "feat_mean", "feat_std")  # model file order
_PARAM_SHAPES = {"w1": (HIDDEN[0], FEATURE_DIM), "b1": (HIDDEN[0],),
                 "w2": (HIDDEN[1], HIDDEN[0]), "b2": (HIDDEN[1],), "w3": (HIDDEN[1],),
                 "b3": ()}


@dataclass(frozen=True)
class ProfileRecord:
    op: OperatorSpec
    input_shape: TensorShape
    measured_cycles: float = bounded("> 0")

    def __post_init__(self):
        check_fields(self)
        output_shape(self.op, self.input_shape)  # raises InvalidOp when they do not fit


def encode_features(op: OperatorSpec, input_shape: TensorShape) -> np.ndarray:
    """Deterministic fixed-length encoding of one workload."""
    vec = np.zeros(FEATURE_DIM)
    vec[_KIND_ORDER.index(op.kind)] = 1.0
    scalars = [op.in_channels, op.out_channels, input_shape.height, input_shape.width,
               op.kernel, op.stride, op.expand_ratio.numerator, op.scale_factor]
    off = len(_KIND_ORDER)
    for i, v in enumerate(scalars):
        vec[off + i] = math.log2(1 + v)
    vec[off + 8] = 1.0 if op.activation_slope != 0 else 0.0
    return vec


@dataclass
class CostModelConfig:
    epochs: int = bounded(">= 1", 3000)
    lr: float = bounded("> 0", 5e-3)
    seed: int = bounded(">= 0", 0)

    def __post_init__(self):
        check_fields(self)


@dataclass
class CostModel:
    """MLP over normalized features predicting log(cycles)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: float
    feat_mean: np.ndarray
    feat_std: np.ndarray

    def predict_log_cycles(self, feats: np.ndarray) -> np.ndarray:
        xn = (np.atleast_2d(feats) - self.feat_mean) / self.feat_std
        h1 = np.maximum(xn @ self.w1.T + self.b1, 0.0)
        h2 = np.maximum(h1 @ self.w2.T + self.b2, 0.0)
        return h2 @ self.w3 + self.b3


def predict(model: CostModel, op: OperatorSpec, input_shape: TensorShape) -> float:
    """Predicted cycle cost; always positive."""
    y = model.predict_log_cycles(encode_features(op, input_shape))
    return float(np.exp(y[0]))


@dataclass
class TrainingReport:
    train_losses: list
    val_losses: list
    final_train_mape: float
    final_val_mape: float


def _mape_from_log(pred_log, true_log) -> float:
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged model reads inf or NaN
        pred = np.exp(pred_log)
        true = np.exp(true_log)
        return float(np.mean(np.abs(pred - true) / true) * 100.0)


def _param_views(flat: np.ndarray, shapes: dict) -> dict:
    """Reshaped views of consecutive slices of `flat`, one per named shape."""
    views, off = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[off:off + size].reshape(shape)
        off += size
    return views


def _draw_start(rng, d: int) -> tuple:
    """One restart's initial (w1, w2, w3), He-scaled; `_fit_once` sets the biases."""
    h1, h2 = HIDDEN
    return (rng.normal(0, math.sqrt(2.0 / d), (h1, d)),
            rng.normal(0, math.sqrt(2.0 / h1), (h2, h1)),
            rng.normal(0, math.sqrt(2.0 / h2), h2))


@np.errstate(over="ignore", invalid="ignore")  # a diverging fit ends in NonFiniteLoss
def _fit_once(start, cfg, x_tr, t_tr, x_va, t_va, mean, std):
    """One Adam run with cosine lr decay from `start`, a `_draw_start` result;
    returns (best-validation snapshot, its loss, train curve, val curve).

    The parameters, their gradient, Adam's moments and two scratch vectors
    share one flat layout; activations, masks and backward buffers are
    allocated here, so an epoch allocates no array. The Adam lines evaluate
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2, mh = m/(1-b1**t),
    vh = v/(1-b2**t), theta -= (lr*mh)/(sqrt(vh) + eps) one operation at a
    time, in that order; reordering any of them changes the last bits.
    """
    h1, h2 = HIDDEN
    n = len(x_tr)
    size = sum(math.prod(s) for s in _PARAM_SHAPES.values())
    theta, grad, m, v, s1, s2 = (np.zeros(size) for _ in range(6))
    P, G = _param_views(theta, _PARAM_SHAPES), _param_views(grad, _PARAM_SHAPES)
    P["w1"][...], P["w2"][...], P["w3"][...] = start
    P["b3"][...] = float(t_tr.mean())
    model = CostModel(w1=P["w1"], b1=P["b1"], w2=P["w2"], b2=P["b2"], w3=P["w3"],
                      b3=float(P["b3"]), feat_mean=mean, feat_std=std)

    xn = (x_tr - mean) / std
    a1, hh1, dh1 = (np.empty((n, h1)) for _ in range(3))
    a2, hh2, dh2 = (np.empty((n, h2)) for _ in range(3))
    mask1, mask2 = np.empty((n, h1), dtype=bool), np.empty((n, h2), dtype=bool)
    y, sq = np.empty(n), np.empty(n)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    train_losses, val_losses = [], []
    best, best_val = None, np.inf

    for epoch in range(1, cfg.epochs + 1):
        lr = cfg.lr * 0.5 * (1.0 + math.cos(math.pi * epoch / cfg.epochs))
        np.add(np.matmul(xn, P["w1"].T, out=a1), P["b1"], out=a1)
        np.maximum(a1, 0.0, out=hh1)
        np.add(np.matmul(hh1, P["w2"].T, out=a2), P["b2"], out=a2)
        np.maximum(a2, 0.0, out=hh2)
        np.add(np.matmul(hh2, P["w3"], out=y), P["b3"], out=y)
        diff = np.subtract(y, t_tr, out=y)
        loss = float(np.mean(np.square(diff, out=sq)))
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"cost-model loss diverged at epoch {epoch}")
        dy = np.divide(np.multiply(diff, 2.0, out=diff), n, out=diff)
        dy.sum(out=G["b3"])
        np.matmul(hh2.T, dy, out=G["w3"])
        np.multiply(np.multiply.outer(dy, P["w3"], out=dh2),
                    np.greater(a2, 0, out=mask2), out=dh2)
        np.matmul(dh2.T, hh1, out=G["w2"])
        dh2.sum(axis=0, out=G["b2"])
        np.multiply(np.matmul(dh2, P["w2"], out=dh1),
                    np.greater(a1, 0, out=mask1), out=dh1)
        np.matmul(dh1.T, xn, out=G["w1"])
        dh1.sum(axis=0, out=G["b1"])

        np.add(np.multiply(m, beta1, out=m), np.multiply(grad, 1 - beta1, out=s1), out=m)
        np.multiply(np.square(grad, out=s1), 1 - beta2, out=s1)
        np.add(np.multiply(v, beta2, out=v), s1, out=v)
        mh = np.divide(m, 1 - beta1 ** epoch, out=s1)
        vh = np.divide(v, 1 - beta2 ** epoch, out=s2)
        update = np.divide(np.multiply(mh, lr, out=mh),
                           np.add(np.sqrt(vh, out=vh), eps, out=vh), out=mh)
        np.subtract(theta, update, out=theta)

        if epoch % VAL_EVERY == 0 or epoch == cfg.epochs:
            train_losses.append(loss)
            model.b3 = float(P["b3"])
            yv = model.predict_log_cycles(x_va)
            val_loss = float(np.mean((yv - t_va) ** 2))
            val_losses.append(val_loss)
            if val_loss < best_val:
                best_val = val_loss
                best = copy.deepcopy(model)

    return best, best_val, train_losses, val_losses


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fit_each(fit, starts, indices) -> dict:
    """{i: fit(starts[i]) or the HwnasError it raised} over ascending `indices`.

    Drops each start from `starts` as its fit begins (the fit copies it).
    Stops at the first error: a later restart can then be neither the
    winner nor the first failure.
    """
    results = {}
    for i in indices:
        start, starts[i] = starts[i], None
        try:
            results[i] = fit(start)
        except HwnasError as e:
            results[i] = e
            break
    return results


def _fork(fit, starts, indices) -> tuple:
    """Starts a child that pickles `_fit_each(fit, starts, indices)` into a
    pipe and exits 0; returns (indices, its pid, the pipe's read end)."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1  # unless every result was sent, whatever ends the child
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(_fit_each(fit, starts, indices)))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return indices, pid, os.fdopen(read_fd, "rb")


def _fit_restarts(fit, starts) -> dict:
    """{i: fit(starts[i]) or the HwnasError it raised}, over P = min(len(starts),
    usable CPUs) processes.

    This process fits restarts 0, P, 2P, ... and each of P - 1 forked children
    its own stride, sent back through a pipe; this process also fits the
    strides of children it could not fork (no `os.fork`, or OSError). Every
    child is reaped, and killed first if an error or an interrupt ends the
    wait; one that ends without sending its results is an HwnasError at its
    first restart. Restarts after a failure may be missing (see `_fit_each`).
    Consumes `starts`, so this process holds no more start weights than a
    sequential fit.
    """
    n = len(starts)
    procs = min(n, _usable_cpus()) if hasattr(os, "fork") else 1
    children = []
    try:
        for first in range(1, procs):
            try:
                children.append(_fork(fit, starts, range(first, n, procs)))
            except OSError:
                break
        taken = {i for indices, _, _ in children for i in indices}
        for i in taken:
            starts[i] = None
        results = _fit_each(fit, starts, [i for i in range(n) if i not in taken])
        sent = [pipe.read() for _, _, pipe in children]
    except BaseException:
        for _, pid, _ in children:
            os.kill(pid, signal.SIGKILL)  # not yet reaped, so still ours even if it ended
        raise
    finally:
        for *_, pipe in children:
            pipe.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for _, pid, _ in children]
    for (indices, _, _), data, code in zip(children, sent, codes):
        if code != 0:
            how = f"exit status {code}" if code > 0 else f"signal {-code}"
            results[indices[0]] = HwnasError(
                f"a cost-model fitting process ended ({how}) before sending its results")
        else:
            results.update(pickle.loads(data))
    return results


def train_cost_model(records, config: CostModelConfig = None):
    """Fit the MLP on profile records; returns (CostModel, TrainingReport).

    Runs RESTARTS independent initializations (shared train/val split) and
    keeps the snapshot with the lowest validation loss seen at any checkpoint:
    with a few hundred records the loss surface is rough enough that single
    runs land in noticeably different minima. All starts are drawn first, then
    fitted across processes (`_fit_restarts`); the first restart with the
    lowest loss wins, and the first failing restart raises. Deterministic
    given config.seed, for any CPU count; raises InsufficientData below
    MIN_RECORDS records.
    """
    cfg = config or CostModelConfig()
    records = list(records)
    if len(records) < MIN_RECORDS:
        raise InsufficientData(f"need >= {MIN_RECORDS} records, got {len(records)}")
    feats = np.stack([encode_features(r.op, r.input_shape) for r in records])
    targets = np.log(np.array([r.measured_cycles for r in records]))

    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(records))
    n_val = max(1, int(len(records) * VAL_FRACTION))
    val_idx, tr_idx = order[:n_val], order[n_val:]
    x_tr, t_tr = feats[tr_idx], targets[tr_idx]
    x_va, t_va = feats[val_idx], targets[val_idx]

    mean = x_tr.mean(axis=0)
    std = np.maximum(x_tr.std(axis=0), 1e-8)

    starts = [_draw_start(rng, feats.shape[1]) for _ in range(RESTARTS)]
    results = _fit_restarts(lambda start: _fit_once(start, cfg, x_tr, t_tr, x_va, t_va,
                                                    mean, std), starts)
    best = None
    best_val = np.inf
    best_curves = ([], [])
    for i in range(RESTARTS):
        if isinstance(results[i], HwnasError):
            raise results[i]
        model, val_loss, tr_losses, va_losses = results[i]
        if val_loss < best_val:
            best, best_val = model, val_loss
            best_curves = (tr_losses, va_losses)

    report = TrainingReport(
        train_losses=best_curves[0], val_losses=best_curves[1],
        final_train_mape=_mape_from_log(best.predict_log_cycles(x_tr), t_tr),
        final_val_mape=_mape_from_log(best.predict_log_cycles(x_va), t_va))
    if not (math.isfinite(report.final_train_mape) and math.isfinite(report.final_val_mape)):
        raise NonFiniteLoss(f"cost-model predictions overflow: train MAPE "
                            f"{report.final_train_mape} %, validation MAPE "
                            f"{report.final_val_mape} %")
    return best, report


def evaluate_mape(model: CostModel, records) -> float:
    """Mean absolute percentage error of predictions over the records."""
    records = list(records)
    if not records:
        raise EmptySet("no records to evaluate")
    errs = []
    for r in records:
        pred = predict(model, r.op, r.input_shape)
        errs.append(abs(pred - r.measured_cycles) / r.measured_cycles)
    return float(np.mean(errs) * 100.0)


def lut_from_model(model: CostModel, supernet: SuperNet,
                   clock_ghz: float = DEFAULT_CLOCK_GHZ) -> LatencyTable:
    """Predict every unique search-space key; cycles -> ms via the clock.

    A model whose prediction for a key is not finite (an overflowing bias, a
    zero feature scale) is an HwnasError that names the key.
    """
    entries = {}
    for key, op, shape in enumerate_search_space(supernet):
        if op.kind is OpKind.Identity:
            # identities compile away; they never appear in profile records
            entries[key] = 0.0
            continue
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            ms = predict(model, op, shape) / (clock_ghz * 1e6)
        if not math.isfinite(ms):
            raise HwnasError(f"cost model predicts a non-finite latency ({ms}) for {key!r}")
        entries[key] = ms
    return LatencyTable(entries=entries, source="CostModel",
                        device=f"costmodel@{clock_ghz}GHz")


# ---------------------------------------------------------------------------
# Record and model file I/O
# ---------------------------------------------------------------------------

def save_records(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps({"op": _op_to_json(r.op),
                                 "input_shape": r.input_shape.as_list(),
                                 "measured_cycles": r.measured_cycles}) + "\n")


def load_records(path) -> list:
    records = []
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        doc = loads_object(line, where)
        if set(doc) != {"op", "input_shape", "measured_cycles"}:
            raise ParseError("record needs op/input_shape/measured_cycles", where)
        op = _op_from_json(doc["op"], where)
        shape = _shape_from_json(doc["input_shape"], where)
        cycles = float(field(doc, "measured_cycles", float, where))
        records.append(from_fields(ProfileRecord, {"op": op, "input_shape": shape,
                                                   "measured_cycles": cycles}, where))
    return records


def save_model(model: CostModel, path) -> None:
    doc = {"version": MODEL_VERSION}
    for name in _ARRAYS:
        doc[name] = array_to_json(getattr(model, name))
    doc["b3"] = model.b3
    write_object(path, doc)


def load_model(path) -> CostModel:
    doc = read_object(path)
    if doc.get("version") != MODEL_VERSION:
        raise ParseError(f"unsupported model version {doc.get('version')!r}", str(path))
    shapes = _PARAM_SHAPES | {"feat_mean": (FEATURE_DIM,), "feat_std": (FEATURE_DIM,)}
    kw = {name: array_from_json(field(doc, name, dict, path), shapes[name], f"{path}: {name}")
          for name in _ARRAYS}
    return CostModel(b3=float(field(doc, "b3", float, path)), **kw)


# ---------------------------------------------------------------------------
# Desk-scale training data from the simulated device
# ---------------------------------------------------------------------------

_CHANNELS = [3, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128]
_SIZES = [4, 7, 8, 14, 16, 28, 32, 56, 64]

# Kind weights for workload sampling. The convolution family spans several
# orders of magnitude of cost over a multi-dimensional parameter grid, so it
# needs denser coverage than the cheap fixed-shape kinds to regress well.
_KIND_WEIGHTS = ([OpKind.Conv] * 4 + [OpKind.MBConv] * 3 + [OpKind.DWConv] * 2
                 + [OpKind.PointwiseConv] * 2
                 + [OpKind.AvgPool, OpKind.MaxPool, OpKind.ReLU,
                    OpKind.LeakyReLU, OpKind.UpsampleNearest,
                    OpKind.UpsampleBilinear, OpKind.DepthToSpace, OpKind.Linear])


def sample_workload(rng: np.random.Generator) -> tuple:
    """Random valid (op, input shape); Identity excluded (zero-cost).

    A kind keeps only the fields it accepts: a window kernel of at least 3,
    the stride, MBConv's expand ratio, LeakyReLU's slope 0.1 and a scale of
    2. A kind whose input does not fix its output width draws it.
    """
    while True:
        kind = _KIND_WEIGHTS[int(rng.integers(len(_KIND_WEIGHTS)))]
        rule = KINDS[kind]
        c = int(rng.choice(_CHANNELS))
        h = int(rng.choice(_SIZES))
        shape = TensorShape(c, h, h)
        kernel = int(rng.choice([1, 3, 5, 7]))
        stride = int(rng.choice([1, 2]))
        in_c, out_c = c, c
        if kind is OpKind.Linear:  # a head over the flattened map
            in_c, out_c = shape.numel, int(rng.choice([4, 10, 16, 32, 64]))
        elif not (rule.same_channels or "scale_factor" in rule.fields):
            out_c = int(rng.choice(_CHANNELS))
        if kind is OpKind.DepthToSpace:  # its scale 2 moves 4 channels into space
            out_c = c // 4
        expand = int(rng.choice([1, 2, 4, 6])) if "expand_ratio" in rule.fields else 1
        values = {"kernel": 3 if kernel == 1 else kernel, "stride": stride,
                  "expand_ratio": expand, "activation_slope": 0.1, "scale_factor": 2}
        try:
            op = OperatorSpec(kind, in_c, out_c,
                              **{k: v for k, v in values.items() if k in rule.fields})
            output_shape(op, shape)
        except InvalidOp:
            continue
        return op, shape


def simulate_records(device, num: int, seed: int = 0,
                     clock_ghz: float = DEFAULT_CLOCK_GHZ) -> list:
    """Profile records from the simulated device's closed-form per-op cost."""
    rng = np.random.default_rng(seed)
    records = []
    while len(records) < num:
        op, shape = sample_workload(rng)
        ms = device.op_cost_ms(op, shape)
        if ms <= 0:
            continue
        records.append(ProfileRecord(op, shape, ms * clock_ghz * 1e6))
    return records
