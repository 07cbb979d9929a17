"""Latency-regularized differentiable architecture search.

One over-parameterized network, per-stage architecture logits whose softmax
gives path probabilities, and stochastic one-hot gates so each batch trains a
single path. Weight updates (training split) alternate with architecture
updates (validation split); the architecture gradient combines the sampled
path's gate gradient through the softmax Jacobian with the exact gradient of
the expected-latency regularizer.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import LengthMismatch, NonFiniteLoss, NotNormalized
from .graph import CompactNet, SuperNet, Task, walk
from .jsonio import bounded, check_fields
from .latency import (LatencyTable, expected_network_latency, fixed_latency,
                      latency_alpha_grad, stage_latency_vectors)
from .nncore import ModuleInstance, loss_ce, loss_mse, sgd_step


def path_probs(alpha) -> np.ndarray:
    """Stable softmax of one stage's architecture logits."""
    a = np.asarray(alpha, dtype=np.float64)
    z = np.exp(a - a.max())
    return z / z.sum()


def sample_gate(p, rng: np.random.Generator) -> np.ndarray:
    """One-hot sample from the categorical distribution p."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise NotNormalized(f"p sums to {p.sum()!r}")
    idx = int(np.searchsorted(np.cumsum(p), rng.random(), side="right"))
    idx = min(idx, len(p) - 1)
    gate = np.zeros(len(p))
    gate[idx] = 1.0
    return gate


def arch_grad(dl_dg, p) -> np.ndarray:
    """Gate-loss gradient pushed through the softmax Jacobian.

    dL/da_i = sum_j dL/dg_j * p_j * (delta_ij - p_i) = p_i*(dL/dg_i - p.dL/dg).
    """
    dl_dg = np.asarray(dl_dg, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if dl_dg.shape != p.shape:
        raise LengthMismatch(f"dl_dg {dl_dg.shape} vs p {p.shape}")
    return p * (dl_dg - float(p @ dl_dg))


def weight_l2(params) -> float:
    """||w||^2: the sum of squares of every parameter's value."""
    return sum(float(np.sum(p.value ** 2)) for p in params)


def total_loss(ce: float, l2: float, e_latency: float, cfg) -> float:
    """ce + lambda1*l2 + lambda2*E[latency], recomputed for logging.

    `l2` is `weight_l2` of the weights. The lambda1 term is applied during
    optimization through SGD weight decay; this recomputes it explicitly so
    reported losses are comparable.
    """
    return ce + cfg.lambda1 * l2 + cfg.lambda2 * e_latency


@dataclass(frozen=True)
class ArchParams:
    """Per-stage architecture logit vectors."""

    vectors: tuple

    def __post_init__(self):
        object.__setattr__(self, "vectors", tuple(np.asarray(v, dtype=np.float64)
                                                  for v in self.vectors))


@dataclass
class SearchConfig:
    lambda1: float = bounded(">= 0", 0.0)
    lambda2: float = bounded(">= 0", 0.0)
    lr_weights: float = bounded("> 0", 0.02)
    lr_arch: float = bounded("> 0", 0.2)
    rounds: int = bounded(">= 0", 30)
    batch_size: int = bounded(">= 1", 16)
    weight_steps_per_round: int = bounded(">= 1", 8)
    arch_steps_per_round: int = bounded(">= 1", 4)
    seed: int = bounded(">= 0", 0)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class RoundRecord:
    round: int
    train_loss: float
    val_loss: float
    e_latency_ms: float
    probs: tuple          # per-stage tuples of p values

@dataclass
class SearchHistory:
    records: list = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        if not self.records:
            return ""
        header = ["round", "train_loss", "val_loss", "e_latency_ms"]
        for i, ps in enumerate(self.records[0].probs):
            header += [f"stage{i}_cand{j}" for j in range(len(ps))]
        buf.write(",".join(header) + "\n")
        for r in self.records:
            row = [str(r.round), repr(r.train_loss), repr(r.val_loss), repr(r.e_latency_ms)]
            for ps in r.probs:
                row += [repr(float(p)) for p in ps]
            buf.write(",".join(row) + "\n")
        return buf.getvalue()


# ---------------------------------------------------------------------------
# Trainable network containers
# ---------------------------------------------------------------------------

class CompactNetModel:
    """Instantiated layers of a CompactNet or a SuperNet, keyed by `walk` position.

    A supernet keeps its own weights for every stage candidate (no sharing);
    `forward` runs the path that keeps candidate `chosen[i]` of stage `i`, and
    `backward` and `gate_grads` run back through the path of the last forward.
    """

    def __init__(self, net, seed: int = 0):
        self.net = net
        rng = np.random.default_rng(seed)
        self.instances = {where: ModuleInstance(op, rng) for where, op, _ in walk(net)}
        self._path, self._stage_outputs = list(self.instances.items()), []

    def named_parameters(self) -> dict:
        return {".".join(map(str, where)) + f".{name}": p
                for where, inst in self.instances.items()
                for name, p in inst.params.items()}

    def path_parameters(self) -> list:
        """Parameters of the layers the last forward ran through."""
        return [p for _, inst in self._path for p in inst.params.values()]

    def forward(self, x: np.ndarray, chosen=(), keep_stage_outputs: bool = False) -> np.ndarray:
        """Run the path through candidates `chosen` (ignored for a CompactNet).

        `keep_stage_outputs` retains each stage's output for `gate_grads`.
        """
        self._path = [(where, inst) for where, inst in self.instances.items()
                      if where[0] != "stages" or chosen[where[1]] == where[2]]
        self._stage_outputs = []
        for where, inst in self._path:
            x = inst.forward(x)
            if keep_stage_outputs and where[0] == "stages":
                self._stage_outputs.append(x)
        return x[:, :, 0, 0] if self.net.task is Task.Classification else x

    def _grad_out(self, g):
        return g[:, :, None, None] if self.net.task is Task.Classification else g

    def backward(self, g: np.ndarray) -> None:
        """Accumulate the parameter grads of the last forward's path.

        Nothing reads the gradient w.r.t. the net input, so the first layer
        does not compute it.
        """
        g = self._grad_out(g)
        for n, (_, inst) in enumerate(reversed(self._path), 1):
            g = inst.backward(g, input_grad=n < len(self._path))

    def gate_grads(self, g: np.ndarray) -> list:
        """dL/dg_i = <dL/dy_i, y_i> of each stage's sampled gate, y_i its output.

        Needs a forward with `keep_stage_outputs`. Weights are frozen, so no
        parameter gradient is accumulated. The backward stops before the
        stem, which no gate depends on; stage 0 skips its input gradient.
        """
        g = self._grad_out(g)
        grads = [0.0] * len(self._stage_outputs)
        layers = [(where, inst) for where, inst in self._path if where[0] != "stem"]
        for n, (where, inst) in enumerate(reversed(layers), 1):
            if where[0] == "stages":
                grads[where[1]] = float(np.sum(g * self._stage_outputs[where[1]]))
            g = inst.backward(g, input_grad=n < len(layers), param_grads=False)
        return grads


def _batch_loss(model: CompactNetModel, data, batch_size: int, rng, phase: str,
                chosen=(), keep_stage_outputs: bool = False):
    """The task's loss of a random batch of `data` on path `chosen`, and its gradient.

    Raises NonFiniteLoss naming the training `phase` when the loss is not finite.
    """
    x, y = data
    idx = rng.integers(0, x.shape[0], size=batch_size)
    out = model.forward(x[idx], chosen, keep_stage_outputs)
    loss_fn = loss_ce if model.net.task is Task.Classification else loss_mse
    loss, g = loss_fn(out, y[idx])
    if not np.isfinite(loss):
        raise NonFiniteLoss(f"non-finite loss during {phase}")
    return loss, g


def _sgd_batch(model: CompactNetModel, data, batch_size: int, rng, phase: str,
               lr: float, weight_decay: float, chosen=()) -> float:
    """One SGD step of path `chosen` on a random batch of `data`; returns its loss."""
    loss, g = _batch_loss(model, data, batch_size, rng, phase, chosen)
    model.backward(g)
    sgd_step(model.path_parameters(), lr, weight_decay)
    return loss


@dataclass
class SearchState:
    model: CompactNetModel
    arch: ArchParams


@np.errstate(over="ignore", invalid="ignore")  # a diverging step ends in NonFiniteLoss
def train_search(supernet: SuperNet, train_data, val_data, cfg: SearchConfig,
                 lut: LatencyTable):
    """Alternating weight/architecture optimization; returns (state, history).

    train_data/val_data are (inputs, targets) array pairs. Fully deterministic
    given cfg.seed. The LUT must cover every stem/stage/head key.
    """
    f_vectors = stage_latency_vectors(supernet, lut)       # raises MissingEntry early
    fixed_ms = fixed_latency(supernet, lut)
    model = CompactNetModel(supernet, seed=cfg.seed)
    alphas = [np.zeros(len(st.candidates)) for st in supernet.stages]
    history = SearchHistory()
    rng = np.random.default_rng(cfg.seed)

    for rnd in range(cfg.rounds):
        # -- weight updates on the training split: sampled single path only --
        train_losses = []
        for _ in range(cfg.weight_steps_per_round):
            gates = [int(np.argmax(sample_gate(path_probs(a), rng))) for a in alphas]
            train_losses.append(_sgd_batch(model, train_data, cfg.batch_size, rng,
                                           "weight step", cfg.lr_weights, cfg.lambda1, gates))

        # -- architecture updates on the validation split: weights frozen --
        l2 = weight_l2(model.named_parameters().values())
        val_losses = []
        for _ in range(cfg.arch_steps_per_round):
            probs = [path_probs(a) for a in alphas]
            gates = [int(np.argmax(sample_gate(p, rng))) for p in probs]
            ce, g = _batch_loss(model, val_data, cfg.batch_size, rng, "arch step", gates,
                                keep_stage_outputs=True)
            e_lat = expected_network_latency(list(zip(probs, f_vectors)), fixed_ms)
            val_losses.append(total_loss(ce, l2, e_lat, cfg))
            gate_scalars = model.gate_grads(g)
            for i, (p, a) in enumerate(zip(probs, alphas)):
                dl_dg = np.zeros(len(p))
                dl_dg[gates[i]] = gate_scalars[i]
                da = arch_grad(dl_dg, p) + cfg.lambda2 * latency_alpha_grad(p, f_vectors[i])
                alphas[i] = a - cfg.lr_arch * da

        probs = [path_probs(a) for a in alphas]
        e_lat = expected_network_latency(list(zip(probs, f_vectors)), fixed_ms)
        history.records.append(RoundRecord(
            round=rnd,
            train_loss=float(np.mean(train_losses)),
            val_loss=float(np.mean(val_losses)),
            e_latency_ms=e_lat,
            probs=tuple(tuple(float(v) for v in p) for p in probs)))

    return SearchState(model=model, arch=ArchParams(tuple(alphas))), history


def derive_compact(supernet: SuperNet, arch: ArchParams) -> CompactNet:
    """Keep the highest-weight candidate per stage; ties break to lowest index."""
    if len(arch.vectors) != len(supernet.stages):
        raise LengthMismatch(
            f"{len(arch.vectors)} arch vectors for {len(supernet.stages)} stages")
    chosen, ties = [], []
    for i, (stage, a) in enumerate(zip(supernet.stages, arch.vectors)):
        if len(a) != len(stage.candidates):
            raise LengthMismatch(f"stage {i}: {len(a)} logits for "
                                 f"{len(stage.candidates)} candidates")
        j = int(np.argmax(a))
        if np.sum(a == a[j]) > 1:
            ties.append(i)
        chosen.append(j)
    return supernet.path(chosen, tie_stages=ties)


# ---------------------------------------------------------------------------
# Compact-net training (retraining from scratch; no weight inheritance)
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")  # a diverging step ends in NonFiniteLoss
def train_compact(net: CompactNet, train_data, steps: int, batch_size: int = 16,
                  lr: float = 0.05, weight_decay: float = 0.0,
                  seed: int = 0) -> CompactNetModel:
    """Train `net` from freshly initialised weights by SGD on random batches."""
    model = CompactNetModel(net, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        _sgd_batch(model, train_data, batch_size, rng, "retraining", lr, weight_decay)
    return model


def accuracy(model: CompactNetModel, data) -> float:
    """Classification accuracy over (inputs, int labels)."""
    x, y = data
    preds = []
    for start in range(0, x.shape[0], 64):
        logits = model.forward(x[start:start + 64])
        preds.append(np.argmax(logits, axis=1))
    return float(np.mean(np.concatenate(preds) == y))
