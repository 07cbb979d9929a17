"""Static design-rule checks for accelerator-friendly network structure.

Registered rules:
  VPU001 (Warning)  DSP-offloaded operators: LeakyReLU with a nonzero slope
                    configuration, DepthToSpace, bilinear upsampling.
  VPU002 (Warning)  Convolution-family output channels not a multiple of 16;
                    the compute engine's minimal channel tile is 16, so other
                    widths waste lanes.
  VPU003 (Advisory) Depthwise+pointwise pairs whose activation footprint
                    exceeds the streaming threshold; both halves can become
                    DMA-bound and lose to a plain convolution.
  GELU-class activations are on the avoid-list but outside the operator set;
  the id VPU001 is documented as covering them if the set ever grows.

VPU001's DSP-bound kinds and VPU002's convolution family are read from the
kind table, `graph.KINDS`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

from .graph import KINDS, CompactNet, OperatorSpec, OpKind, SuperNet, TensorShape, walk

RULE_IDS = ("VPU001", "VPU002", "VPU003")

DEFAULT_STREAMING_THRESHOLD_BYTES = 1 << 20  # 1 MiB of activation per layer


class Severity(str, Enum):
    Warning = "Warning"
    Advisory = "Advisory"


@dataclass(frozen=True)
class LintFinding:
    rule_id: str
    severity: Severity
    layer_index: int
    message: str

    def __post_init__(self):
        if self.rule_id not in RULE_IDS:
            raise ValueError(f"unknown rule id {self.rule_id!r}")


def _op_findings(op: OperatorSpec, index: int, in_shape: TensorShape,
                 prev_op, threshold: int, where: tuple) -> list:
    found = []
    part = {"layers": "", "stages": "stage {1} candidate {2} "}.get(where[0], "{0} ")
    loc = part.format(*where) + f"layer {index}"

    if KINDS[op.kind].dsp_bound(op):
        found.append(LintFinding(
            "VPU001", Severity.Warning, index,
            f"{loc}: {op.kind.value} runs on the DSP and stalls the compute engine"))

    if KINDS[op.kind].conv_family and op.out_channels % 16 != 0:
        found.append(LintFinding(
            "VPU002", Severity.Warning, index,
            f"{loc}: {op.kind.value} has {op.out_channels} output channels; "
            f"non-16x widths waste compute lanes"))

    if (op.kind is OpKind.PointwiseConv and prev_op is not None
            and prev_op.kind is OpKind.DWConv):
        act_bytes = 4 * in_shape.numel
        if act_bytes > threshold:
            found.append(LintFinding(
                "VPU003", Severity.Advisory, index,
                f"{loc}: depthwise+pointwise pair moves {act_bytes} activation "
                f"bytes (> {threshold}); both may be DMA-bound"))
    return found


def lint_network(net, streaming_threshold_bytes: int = DEFAULT_STREAMING_THRESHOLD_BYTES) -> list:
    """Findings ordered by layer index then rule id; pure and deterministic.

    For a supernet, every candidate of every stage is checked individually.
    """
    if not isinstance(net, (CompactNet, SuperNet)):
        raise TypeError(f"cannot lint {type(net).__name__}")
    findings = []
    index, position, prev, last = -1, None, None, None
    for where, op, shape in walk(net):
        # A stage's candidates share one layer index and the op feeding the stage.
        if where[:2] != position:
            index, position, prev = index + 1, where[:2], last
        findings += _op_findings(op, index, shape, prev, streaming_threshold_bytes, where)
        # pairing across a mixed stage is candidate-dependent
        last = None if where[0] == "stages" else op
    return sorted(findings, key=lambda f: (f.layer_index, f.rule_id))


def findings_to_json(findings) -> str:
    return json.dumps([{"rule_id": f.rule_id, "severity": f.severity.value,
                        "layer_index": f.layer_index, "message": f.message}
                       for f in findings], indent=2) + "\n"


def findings_to_table(findings) -> str:
    if not findings:
        return "no findings\n"
    lines = [f"{'RULE':<8} {'SEVERITY':<9} {'LAYER':<6} MESSAGE"]
    for f in findings:
        lines.append(f"{f.rule_id:<8} {f.severity.value:<9} {f.layer_index:<6} {f.message}")
    return "\n".join(lines) + "\n"


def has_warnings(findings) -> bool:
    return any(f.severity is Severity.Warning for f in findings)
