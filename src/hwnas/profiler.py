"""Operator latency measurement via stacking, LUT construction, calibration.

The stacking protocol amortizes the fixed per-graph overhead: a shape-preserving
operator is measured as median(latency of N stacked copies)/N; a shape-changing
operator is stacked with N copies of a cheap shape-preserving anchor whose cost
was measured first, and the anchor total is subtracted. Raw subgraph latency is
divided/subtracted as-is, so same-shape estimates carry an overhead/N bias.
"""

from __future__ import annotations

import logging
import math
import statistics
import subprocess
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DeviceError, NotStackable
from .graph import (KINDS, CompactNet, OperatorSpec, OpKind, SuperNet, Task, TensorShape,
                    canonical_key, output_shape, save_net, validate, walk)
from .jsonio import bounded, check_fields
from .latency import LatencyTable, compact_latency

log = logging.getLogger(__name__)

DEFAULT_STACK_N = 20
DEFAULT_TRIALS = 5


@dataclass
class SimulatedVPU:
    """Deterministic accelerator model used as the measurement target.

    Per-layer cost = [macs/(clock*macs_per_cycle*util) + bytes_moved*dma rate]
    * dsp_factor, summed over layers, plus one graph overhead. util penalizes
    channel counts that are not multiples of the compute granularity. This is
    a pedagogical device: it deliberately rewards 16x channels and punishes
    DSP-bound operators so searches can discover those rules end to end.
    """

    clock_ghz: float = bounded("> 0", 0.7)
    macs_per_cycle: float = bounded("> 0", 256.0)
    graph_overhead_ms: float = bounded(">= 0", 0.2)
    dma_ms_per_mb: float = bounded(">= 0", 0.01)
    channel_granularity: int = bounded(">= 1", 16)
    dsp_penalty_factor: float = bounded("> 0", 10.0)
    noise_sigma_rel: float = bounded(">= 0", 0.0)
    seed: int = bounded(">= 0", 0)

    def __post_init__(self):
        check_fields(self)
        self._rng = np.random.default_rng(self.seed)

    @property
    def name(self) -> str:
        return f"sim-vpu-{self.clock_ghz}GHz"

    def op_cost_ms(self, op: OperatorSpec, in_shape: TensorShape) -> float:
        """Closed-form noiseless cost of one layer (no graph overhead)."""
        if op.kind is OpKind.Identity:
            return 0.0
        rule = KINDS[op.kind]
        out = output_shape(op, in_shape)
        macs = rule.macs(op, in_shape, out)
        util = 1.0
        if rule.tiled:
            g = self.channel_granularity
            util = op.out_channels / (math.ceil(op.out_channels / g) * g)
        compute_ms = macs / (self.clock_ghz * 1e6 * self.macs_per_cycle * util)
        bytes_moved = 4 * (in_shape.numel + out.numel)
        dma_ms = bytes_moved / 2 ** 20 * self.dma_ms_per_mb
        factor = self.dsp_penalty_factor if rule.dsp_bound(op) else 1.0
        return (compute_ms + dma_ms) * factor

    def graph_cost_ms(self, net: CompactNet) -> float:
        """Noiseless whole-subgraph latency including graph overhead."""
        return sum((self.op_cost_ms(op, shape) for _, op, shape in walk(net)),
                   self.graph_overhead_ms)

    def run(self, net: CompactNet, trials: int) -> list:
        base = self.graph_cost_ms(net)
        if self.noise_sigma_rel <= 0:
            return [base] * trials
        z = self._rng.standard_normal(trials)
        return list(base * np.exp(self.noise_sigma_rel * z))


@dataclass
class ExternalCommandRunner:
    """Runs a shell command per measurement; hook for real-device pipelines.

    The template receives `{graph}` (path to the serialized subgraph) and
    optionally `{trials}`; the command must print one decimal latency in ms
    per line, `trials` lines total.
    """

    command_template: str
    timeout_s: float = bounded("> 0", 60.0)
    name: str = "external"

    def __post_init__(self):
        check_fields(self)

    def run(self, net: CompactNet, trials: int) -> list:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "subgraph.net.json"
            save_net(net, path)
            cmd = self.command_template.format(graph=str(path), trials=trials)
            try:
                proc = subprocess.run(cmd, shell=True, capture_output=True,
                                      text=True, timeout=self.timeout_s)
            except subprocess.TimeoutExpired:
                raise DeviceError(f"device command timed out after {self.timeout_s}s")
        if proc.returncode != 0:
            raise DeviceError(f"device command exited {proc.returncode}: {proc.stderr.strip()}")
        lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
        try:
            samples = [float(ln) for ln in lines]
        except ValueError:
            raise DeviceError(f"unparseable device output line: {lines!r}")
        if len(samples) != trials:
            raise DeviceError(f"expected {trials} latency lines, got {len(samples)}")
        if any(s < 0 for s in samples):
            raise DeviceError("negative latency reported by device")
        return samples


def _subgraph(layers, input_shape) -> CompactNet:
    return CompactNet(task=Task.Classification, input_shape=input_shape,
                      layers=tuple(layers))


def measure_stacked_same(device, op: OperatorSpec, input_shape: TensorShape,
                         n: int = DEFAULT_STACK_N, trials: int = DEFAULT_TRIALS) -> float:
    """Latency estimate for a shape-preserving op: median(N-stack latency)/N."""
    if output_shape(op, input_shape) != input_shape:
        raise NotStackable(
            f"{op.kind.value} does not preserve {input_shape}, cannot self-stack")
    net = _subgraph([op] * n, input_shape)
    samples = device.run(net, trials)
    return statistics.median(samples) / n


def measure_stacked_mixed(device, op: OperatorSpec, anchor: OperatorSpec,
                          anchor_ms: float, input_shape: TensorShape,
                          n: int = DEFAULT_STACK_N, trials: int = DEFAULT_TRIALS) -> float:
    """Latency estimate for a shape-changing op stacked with N anchor copies.

    Returns median(latency of [op, anchor*N]) - N*anchor_ms, clamped at 0.
    The overhead cancels exactly when anchor_ms came from measure_stacked_same
    with the same N on a noiseless device.
    """
    out = output_shape(op, input_shape)
    if output_shape(anchor, out) != out:
        raise NotStackable(f"anchor {anchor.kind.value} does not preserve {out}")
    net = _subgraph([op] + [anchor] * n, input_shape)
    samples = device.run(net, trials)
    estimate = statistics.median(samples) - n * anchor_ms
    if estimate < 0:
        log.warning("negative latency estimate %.6f ms for %s; clamping to 0",
                    estimate, canonical_key(op, input_shape))
        return 0.0
    return estimate


def enumerate_search_space(supernet: SuperNet):
    """Unique (canonical key, op, input shape) triples over stem/stages/head."""
    seen = {}
    for _, op, shape in walk(supernet):
        seen.setdefault(canonical_key(op, shape), (op, shape))
    return [(key, op, shape) for key, (op, shape) in seen.items()]


def build_lut(device, supernet: SuperNet, n: int = DEFAULT_STACK_N,
              trials: int = DEFAULT_TRIALS) -> LatencyTable:
    """Measure every unique operator in the supernet's search space.

    Shape-preserving ops self-stack; shape-changing ops are measured against a
    pointwise-conv anchor at their output shape (anchor measured first, one
    measurement per distinct shape). Identity entries are 0 by definition.
    On a device failure the partial table is attached to the raised
    DeviceError as `error.partial` with the incomplete flag set.
    """
    report = validate(supernet)
    if not report.ok:
        raise DeviceError(f"refusing to profile invalid supernet: {report.findings[0]}")
    entries = {}
    anchors = {}  # output shape -> (anchor op, measured ms)
    try:
        for key, op, shape in enumerate_search_space(supernet):
            if op.kind is OpKind.Identity:
                entries[key] = 0.0
            elif output_shape(op, shape) == shape:
                entries[key] = measure_stacked_same(device, op, shape, n, trials)
            else:
                out = output_shape(op, shape)
                if out not in anchors:
                    anchor = OperatorSpec(OpKind.PointwiseConv, out.channels, out.channels)
                    anchors[out] = (anchor, measure_stacked_same(device, anchor, out, n, trials))
                anchor, anchor_ms = anchors[out]
                entries[key] = measure_stacked_mixed(device, op, anchor, anchor_ms,
                                                     shape, n, trials)
    except DeviceError as e:
        e.partial = LatencyTable(entries=entries, source="MeasuredDevice",
                                 device=getattr(device, "name", "unknown"),
                                 created=_now(), incomplete=True)
        raise
    return LatencyTable(entries=entries, source="MeasuredDevice",
                        device=getattr(device, "name", "unknown"), created=_now())


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass(frozen=True)
class CalibrationReport:
    """Predicted-vs-measured whole-network latency comparison."""

    predicted_ms: tuple
    measured_ms: tuple
    mape_percent: Optional[float]
    pearson: Optional[float]
    note: str = ""

    def __post_init__(self):
        object.__setattr__(self, "predicted_ms", tuple(self.predicted_ms))
        object.__setattr__(self, "measured_ms", tuple(self.measured_ms))


def sample_compact(supernet: SuperNet, rng: np.random.Generator) -> CompactNet:
    """Uniform-random compact network from the search space."""
    return supernet.path([int(rng.integers(len(st.candidates))) for st in supernet.stages])


def calibrate(device, supernet: SuperNet, lut: LatencyTable, num_samples: int,
              seed: int = 0, trials: int = DEFAULT_TRIALS) -> CalibrationReport:
    """Compare summed LUT predictions against whole-net device measurements."""
    rng = np.random.default_rng(seed)
    predicted, measured = [], []
    for _ in range(num_samples):
        net = sample_compact(supernet, rng)
        predicted.append(compact_latency(net, lut))
        measured.append(statistics.median(device.run(net, trials)))
    predicted = np.array(predicted)
    measured = np.array(measured)
    notes = []
    if np.any(measured == 0):
        mape = None
        notes.append("MAPE undefined (a measured latency is 0 ms)")
    else:
        mape = float(np.mean(np.abs(predicted - measured) / measured) * 100.0)
    if num_samples < 2 or np.std(predicted) == 0 or np.std(measured) == 0:
        pearson = None
        notes.append("correlation undefined (need >= 2 distinct points)")
    else:
        pearson = float(np.corrcoef(predicted, measured)[0, 1])
    return CalibrationReport(predicted_ms=tuple(predicted), measured_ms=tuple(measured),
                             mape_percent=mape, pearson=pearson, note="; ".join(notes))
