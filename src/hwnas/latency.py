"""Latency lookup table and the differentiable expected-latency math.

Expected latency of a mixed stage is the probability-weighted sum of its
candidates' table latencies; the network total adds stages and fixed
(stem/head) layers. Latency additivity assumes sequential layer-by-layer
execution — a documented modeling limitation. Everything here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LengthMismatch, MissingEntry, NotNormalized
from .graph import CompactNet, OperatorSpec, SuperNet, TensorShape, canonical_key, walk
from .jsonio import check_number, field, from_fields, read_object, write_object

DEFAULT_CLOCK_GHZ = 0.7  # the simulated device's clock; cycles <-> ms for a cost-model table

LUT_SOURCES = ("MeasuredDevice", "CostModel", "Manual")


@dataclass(frozen=True)
class LatencyTable:
    """Immutable map canonical op key -> latency in milliseconds."""

    entries: dict
    source: str = "Manual"
    device: str = ""
    created: str = ""
    incomplete: bool = False

    def __post_init__(self):
        if self.source not in LUT_SOURCES:
            raise ValueError(f"unknown LUT source {self.source!r}")
        for key, v in self.entries.items():
            check_number(v, ">= 0", f"latency for {key!r}")


def lookup(lut: LatencyTable, op: OperatorSpec, input_shape: TensorShape) -> float:
    key = canonical_key(op, input_shape)
    try:
        return lut.entries[key]
    except KeyError:
        raise MissingEntry(key)


def check_probs(p) -> np.ndarray:
    """p as float64, if its entries are >= 0 and sum to 1 within 1e-9."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise NotNormalized(f"p sums to {p.sum()!r}")
    return p


def _check_stage(p, f):
    p = np.asarray(p, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if p.shape != f.shape or p.ndim != 1:
        raise LengthMismatch(f"p has shape {p.shape}, f has shape {f.shape}")
    return check_probs(p), f


def expected_stage_latency(p, f) -> float:
    """Probability-weighted latency of one mixed stage: sum_j p_j * f_j."""
    p, f = _check_stage(p, f)
    return float(p @ f)


def expected_network_latency(stages: Sequence, fixed_ms: float = 0.0) -> float:
    """Sum of per-stage expected latencies plus fixed stem/head latency."""
    total = float(fixed_ms)
    for p, f in stages:
        total += expected_stage_latency(p, f)
    return total


def latency_alpha_grad(p, v) -> np.ndarray:
    """The gradient of sum_j softmax(a)_j * v_j with respect to a, p = softmax(a).

    g_k = sum_j v_j * p_j * (delta_jk - p_k) = p_k * (v_k - p.v). Both terms
    of an arch step go through it: v is a stage's latencies, or its dL/dgate.
    Components sum to zero (softmax shift invariance)."""
    p, v = _check_stage(p, v)
    return p * (v - float(p @ v))


# ---------------------------------------------------------------------------
# Search-space views
# ---------------------------------------------------------------------------

def stage_latency_vectors(supernet: SuperNet, lut: LatencyTable) -> list:
    """Per-stage candidate latency vectors, in candidate order."""
    vectors = []
    for stage in supernet.stages:
        vectors.append(np.array([lookup(lut, c, stage.input_shape)
                                 for c in stage.candidates]))
    return vectors


def fixed_latency(supernet: SuperNet, lut: LatencyTable) -> float:
    """Total LUT latency of the stem and head layers (selected with prob. 1)."""
    return sum((lookup(lut, op, shape) for where, op, shape in walk(supernet)
                if where[0] != "stages"), 0.0)


def compact_latency(net: CompactNet, lut: LatencyTable) -> float:
    """Summed LUT latency of a compact network's layers."""
    return sum((lookup(lut, op, shape) for _, op, shape in walk(net)), 0.0)


def mape_percent(pred, true) -> float:
    """Mean absolute percentage error of `pred` against `true`, in percent."""
    pred, true = np.asarray(pred, dtype=np.float64), np.asarray(true, dtype=np.float64)
    return float(np.mean(np.abs(pred - true) / true) * 100.0)


# ---------------------------------------------------------------------------
# LUT file I/O: {"metadata": {...}, "entries": {key: ms}}
# ---------------------------------------------------------------------------

def save_lut(lut: LatencyTable, path) -> None:
    doc = {
        "metadata": {"source": lut.source, "device": lut.device,
                     "created": lut.created, "incomplete": lut.incomplete},
        "entries": dict(sorted(lut.entries.items())),
    }
    write_object(path, doc, indent=2)


def load_lut(path) -> LatencyTable:
    doc = read_object(path)
    entries = field(doc, "entries", dict, path)
    return from_fields(LatencyTable, field(doc, "metadata", dict, path, default={}) | {
        "entries": {key: float(field(entries, key, float, path)) for key in entries}}, path)
