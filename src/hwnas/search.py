"""Latency-regularized differentiable architecture search.

One over-parameterized network, per-stage architecture logits whose softmax
gives path probabilities, and stochastic one-hot gates so each batch trains a
single path. Weight updates (training split) alternate with architecture
updates (validation split); the architecture gradient combines the sampled
path's gate gradient through the softmax Jacobian with the exact gradient of
the expected-latency regularizer.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, NonFiniteLoss
from .graph import CompactNet, SuperNet, Task, walk
from .jsonio import bounded, check_fields
from .latency import (LatencyTable, check_probs, expected_network_latency,
                      fixed_latency, latency_alpha_grad, stage_latency_vectors)
from .nncore import ModuleInstance, loss_ce, loss_mse, sgd_step


def path_probs(alpha) -> np.ndarray:
    """Stable softmax of one stage's architecture logits."""
    a = np.asarray(alpha, dtype=np.float64)
    z = np.exp(a - a.max())
    return z / z.sum()


def sample_gate(p, rng: np.random.Generator) -> int:
    """An index drawn from the categorical distribution p."""
    p = check_probs(p)
    idx = int(np.searchsorted(np.cumsum(p), rng.random(), side="right"))
    return min(idx, len(p) - 1)


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
    """One history.csv row; each field is a column, in declaration order."""

    round: int
    train_loss: float
    val_loss: float
    e_latency_ms: float
    probs: tuple          # per-stage tuples of p values, one column per candidate


def history_csv(rounds) -> str:
    """The RoundRecords as CSV, `probs` expanded to stage{i}_cand{j} columns."""
    if not rounds:
        return ""
    names = [f.name for f in dataclasses.fields(RoundRecord) if f.name != "probs"]
    header = names + [f"stage{i}_cand{j}" for i, ps in enumerate(rounds[0].probs)
                      for j in range(len(ps))]
    rows = [[str(r.round)] + [repr(float(getattr(r, n))) for n in names[1:]]  # round: an int
            + [repr(float(p)) for ps in r.probs for p in ps] for r in rounds]
    return "".join(",".join(cells) + "\n" for cells in [header] + rows)


# ---------------------------------------------------------------------------
# Trainable network containers
# ---------------------------------------------------------------------------

class CompactNetModel:
    """Instantiated layers of a CompactNet or a SuperNet, keyed by `walk` position.

    A supernet keeps its own weights for every stage candidate (no sharing);
    `forward` runs the path that keeps candidate `chosen[i]` of stage `i`, and
    `backward` runs back through the path of the last forward.
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

        `keep_stage_outputs` retains each stage's output for `backward`.
        """
        self._path = [(where, inst) for where, inst in self.instances.items()
                      if where[0] != "stages" or chosen[where[1]] == where[2]]
        self._stage_outputs = []
        for where, inst in self._path:
            x = inst.forward(x)
            if keep_stage_outputs and where[0] == "stages":
                self._stage_outputs.append(x)
        return x[:, :, 0, 0] if self.net.task is Task.Classification else x

    def backward(self, g: np.ndarray, param_grads: bool = True) -> list:
        """Run back through the last forward's path; return its gate gradients.

        `param_grads` accumulates the path's parameter grads; no layer computes
        the net input's gradient. Without it the weights are frozen and the
        pass stops before the stem, which no gate depends on. The result holds
        dL/dg_i = <dL/dy_i, y_i> for each stage output y_i that the forward
        kept (`keep_stage_outputs`), and is [] when it kept none.
        """
        g = g[:, :, None, None] if self.net.task is Task.Classification else g
        grads = [0.0] * len(self._stage_outputs)
        layers = [(where, inst) for where, inst in self._path
                  if param_grads or where[0] != "stem"]
        for n, (where, inst) in enumerate(reversed(layers), 1):
            if where[0] == "stages" and grads:
                grads[where[1]] = float(np.sum(g * self._stage_outputs[where[1]]))
            g = inst.backward(g, input_grad=n < len(layers), param_grads=param_grads)
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


@np.errstate(over="ignore", invalid="ignore")  # a diverging step ends in NonFiniteLoss
def train_search(supernet: SuperNet, train_data, val_data, cfg: SearchConfig,
                 lut: LatencyTable):
    """Alternating weight/architecture optimization; returns (alphas, rounds).

    alphas are the per-stage logit arrays and rounds one RoundRecord per round.

    train_data/val_data are (inputs, targets) array pairs. Fully deterministic
    given cfg.seed. The LUT must cover every stem/stage/head key.
    """
    f_vectors = stage_latency_vectors(supernet, lut)       # raises MissingEntry early
    fixed_ms = fixed_latency(supernet, lut)
    model = CompactNetModel(supernet, seed=cfg.seed)
    alphas = [np.zeros(len(st.candidates)) for st in supernet.stages]
    rounds = []
    rng = np.random.default_rng(cfg.seed)

    for rnd in range(cfg.rounds):
        # -- weight updates on the training split: sampled single path only --
        train_losses = []
        for _ in range(cfg.weight_steps_per_round):
            gates = [sample_gate(path_probs(a), rng) for a in alphas]
            train_losses.append(_sgd_batch(model, train_data, cfg.batch_size, rng,
                                           "weight step", cfg.lr_weights, cfg.lambda1, gates))

        # -- architecture updates on the validation split: weights frozen --
        l2 = weight_l2(model.named_parameters().values())
        val_losses = []
        for _ in range(cfg.arch_steps_per_round):
            probs = [path_probs(a) for a in alphas]
            gates = [sample_gate(p, rng) for p in probs]
            ce, g = _batch_loss(model, val_data, cfg.batch_size, rng, "arch step", gates,
                                keep_stage_outputs=True)
            e_lat = expected_network_latency(list(zip(probs, f_vectors)), fixed_ms)
            val_losses.append(total_loss(ce, l2, e_lat, cfg))
            gate_scalars = model.backward(g, param_grads=False)
            for i, (p, a, f) in enumerate(zip(probs, alphas, f_vectors)):
                dl_dg = np.zeros(len(p))
                dl_dg[gates[i]] = gate_scalars[i]
                da = latency_alpha_grad(p, dl_dg) + cfg.lambda2 * latency_alpha_grad(p, f)
                alphas[i] = a - cfg.lr_arch * da

        probs = [path_probs(a) for a in alphas]
        e_lat = expected_network_latency(list(zip(probs, f_vectors)), fixed_ms)
        rounds.append(RoundRecord(
            round=rnd,
            train_loss=float(np.mean(train_losses)),
            val_loss=float(np.mean(val_losses)),
            e_latency_ms=e_lat,
            probs=tuple(tuple(float(v) for v in p) for p in probs)))

    return alphas, rounds


def derive_compact(supernet: SuperNet, alphas) -> CompactNet:
    """Keep the highest-logit candidate per stage; ties break to lowest index.

    `alphas` is a sequence of per-stage 1-D logit vectors.
    """
    if len(alphas) != len(supernet.stages):
        raise LengthMismatch(f"{len(alphas)} arch vectors for {len(supernet.stages)} stages")
    chosen, ties = [], []
    for i, (stage, a) in enumerate(zip(supernet.stages, alphas)):
        a = np.asarray(a, dtype=np.float64)
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
