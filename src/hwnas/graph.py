"""Network IR: operator specs, the kind table, supernets, the layer walk,
canonical keys, JSON I/O.

All types are immutable after construction and safe to share across threads.
A supernet is a linear chain of mixed stages; every candidate inside a stage
must map the stage's input shape to the same declared output shape.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Union

from .errors import InvalidOp, ParseError
from .jsonio import field, from_fields, loads_object, read_text, write_text


class OpKind(str, Enum):
    Conv = "Conv"
    DWConv = "DWConv"
    PointwiseConv = "PointwiseConv"
    MBConv = "MBConv"
    AvgPool = "AvgPool"
    MaxPool = "MaxPool"
    Identity = "Identity"
    ReLU = "ReLU"
    LeakyReLU = "LeakyReLU"
    UpsampleNearest = "UpsampleNearest"
    UpsampleBilinear = "UpsampleBilinear"
    DepthToSpace = "DepthToSpace"
    Linear = "Linear"


class Task(str, Enum):
    Classification = "Classification"
    SuperResolution = "SuperResolution"


@dataclass(frozen=True)
class TensorShape:
    channels: int
    height: int
    width: int

    def __post_init__(self):
        for name in ("channels", "height", "width"):
            v = getattr(self, name)
            if type(v) is not int or v < 1:  # a bool is not a size
                raise InvalidOp(f"TensorShape.{name} must be a positive integer, got {v!r}")

    @property
    def numel(self) -> int:
        return self.channels * self.height * self.width

    def as_list(self):
        return [self.channels, self.height, self.width]


@dataclass(frozen=True)
class OperatorSpec:
    kind: OpKind
    in_channels: int
    out_channels: int
    kernel: int = 1
    stride: int = 1
    expand_ratio: Fraction = Fraction(1)
    activation_slope: float = 0.0
    scale_factor: int = 1

    def __post_init__(self):
        """Raise InvalidOp on any structural invariant violation."""
        object.__setattr__(self, "kind", OpKind(self.kind))
        object.__setattr__(self, "expand_ratio", Fraction(self.expand_ratio))
        object.__setattr__(self, "activation_slope", float(self.activation_slope))
        k, rule = self.kind, KINDS[self.kind]
        if self.in_channels < 1 or self.out_channels < 1:
            raise InvalidOp(f"{k.value}: channel counts must be positive")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise InvalidOp(f"{k.value}: kernel must be odd positive, got {self.kernel}")
        if self.stride < 1:
            raise InvalidOp(f"{k.value}: stride must be positive, got {self.stride}")
        if self.scale_factor < 1:
            raise InvalidOp(f"{k.value}: scale_factor must be positive")
        if self.activation_slope < 0:
            raise InvalidOp(f"{k.value}: activation_slope must be non-negative")
        for name, default in OPTIONAL_FIELDS.items():
            if name not in rule.fields and getattr(self, name) != default:
                raise InvalidOp(f"{k.value}: {name} does not apply, must be {default}")
        if rule.same_channels and self.in_channels != self.out_channels:
            raise InvalidOp(f"{k.value}: requires in_channels == out_channels")
        rule.check(self)

    @property
    def padding(self) -> int:
        """Half the window, so stride 1 keeps the map size; 0 for kernel 1, the
        only kernel a kind without a window accepts."""
        return (self.kernel - 1) // 2

    @property
    def hidden_channels(self) -> int:
        """MBConv expanded width; in_channels otherwise."""
        return int(self.expand_ratio * self.in_channels)


# ---------------------------------------------------------------------------
# The kind table: every per-kind fact, declared once
# ---------------------------------------------------------------------------

# Optional OperatorSpec fields, with the value a kind that does not accept one must keep.
OPTIONAL_FIELDS = {f.name: f.default for f in fields(OperatorSpec) if f.default is not MISSING}


def _spatial_out(size: int, op: OperatorSpec) -> int:
    out = (size + 2 * op.padding - op.kernel) // op.stride + 1
    if out < 1:
        raise InvalidOp(f"spatial size collapses: in={size} k={op.kernel} s={op.stride}")
    return out * op.scale_factor


def _map_shape(op, shape):
    """A window of op.kernel at op.stride, padded by op.padding, then each
    pixel scaled to op.scale_factor² pixels; kernel, stride and scale 1 keep
    the map."""
    if op.in_channels != shape.channels:
        raise InvalidOp(
            f"{op.kind.value}: expects {op.in_channels} channels, input has {shape.channels}")
    return TensorShape(op.out_channels, _spatial_out(shape.height, op),
                       _spatial_out(shape.width, op))


def _flat_shape(op, shape):
    if op.in_channels != shape.numel:
        raise InvalidOp(f"Linear: in_channels {op.in_channels} != flattened input {shape.numel}")
    return TensorShape(op.out_channels, 1, 1)


def _conv_params(op):
    return {"weight": (op.out_channels, op.in_channels, op.kernel, op.kernel),
            "bias": (op.out_channels,)}


def _dense_params(op):
    return {"weight": (op.out_channels, op.in_channels), "bias": (op.out_channels,)}


def _projection_params(op):
    """The learned pointwise projection, then resampling, when it changes the
    width: nncore projects at input resolution. The MAC rule still prices
    the projection at output resolution, as the simulated device runs it."""
    return _dense_params(op) if op.out_channels != op.in_channels else {}


def _mbconv_children(op):
    h = op.hidden_channels
    return {"expand": OperatorSpec(OpKind.PointwiseConv, op.in_channels, h),
            "dw": OperatorSpec(OpKind.DWConv, h, h, kernel=op.kernel, stride=op.stride),
            "project": OperatorSpec(OpKind.PointwiseConv, h, op.out_channels)}


def _children_params(op):
    return {f"{name}.{p}": shape for name, child in KINDS[op.kind].children(op).items()
            for p, shape in KINDS[child.kind].params(child).items()}


def _weight_macs(op, in_shape, out):
    """Each weight's size times the output pixels."""
    return out.height * out.width * sum(
        math.prod(shape) for name, shape in KINDS[op.kind].params(op).items()
        if name == "weight")


def _children_macs(op, shape, out):
    total = 0
    for child in KINDS[op.kind].children(op).values():
        rule = KINDS[child.kind]
        child_out = rule.shape(child, shape)
        total += rule.macs(child, shape, child_out)
        shape = child_out
    return total


def _check_mbconv(op):
    hidden = op.expand_ratio * op.in_channels
    if hidden.denominator != 1 or hidden < 1:
        raise InvalidOp(
            f"MBConv: expand_ratio*in_channels must be a positive integer, got {hidden}")


def _check_depth_to_space(op):
    if op.in_channels != op.out_channels * op.scale_factor ** 2:
        raise InvalidOp("DepthToSpace: in_channels must equal out_channels*scale_factor^2")


@dataclass(frozen=True)
class Kind:
    """What one operator kind accepts, produces, learns and costs.

    `fields` are the OPTIONAL_FIELDS the kind accepts (the others must keep
    their defaults) and `check(op)` its own further field rules.
    `shape(op, in_shape)` is its output-shape rule, `params(op)` its learnable
    arrays as {name: shape} in creation order, and `children(op)` the named
    sub-operators a composite kind is built from. `macs(op, in_shape,
    out_shape)` counts multiply-accumulates (elementwise work one per output
    element). `dsp_bound(op)`: the accelerator offloads it to its slow DSP.
    `tiled`: it computes on the device's channel tiles. `conv_family`: lint
    VPU002 checks its width (Linear is tiled but not in the family). `free`:
    it compiles away, so it costs 0 ms on every device.
    """

    fields: frozenset = frozenset()
    same_channels: bool = False
    check: Callable = lambda op: None
    shape: Callable = _map_shape
    params: Callable = lambda op: {}
    children: Callable = lambda op: {}
    macs: Callable = _weight_macs
    dsp_bound: Callable = lambda op: False
    tiled: bool = False
    conv_family: bool = False
    free: bool = False


_WINDOW = frozenset({"kernel", "stride"})
_SCALED = frozenset({"scale_factor"})


KINDS = {
    OpKind.Conv: Kind(_WINDOW, params=_conv_params, tiled=True, conv_family=True),
    OpKind.DWConv: Kind(_WINDOW, same_channels=True, tiled=True, conv_family=True,
                        params=lambda op: {"weight": (op.in_channels, op.kernel, op.kernel),
                                           "bias": (op.in_channels,)}),
    OpKind.PointwiseConv: Kind(frozenset({"stride"}), params=_conv_params, tiled=True,
                               conv_family=True),
    OpKind.MBConv: Kind(_WINDOW | {"expand_ratio"}, check=_check_mbconv,
                        params=_children_params, children=_mbconv_children,
                        macs=_children_macs, tiled=True, conv_family=True),
    OpKind.AvgPool: Kind(_WINDOW, same_channels=True,
                         macs=lambda op, i, out: op.kernel ** 2 * out.numel),
    OpKind.MaxPool: Kind(_WINDOW, same_channels=True,
                         macs=lambda op, i, out: op.kernel ** 2 * out.numel),
    OpKind.Identity: Kind(same_channels=True, free=True),
    OpKind.ReLU: Kind(same_channels=True, macs=lambda op, i, out: out.numel),
    OpKind.LeakyReLU: Kind(frozenset({"activation_slope"}), same_channels=True,
                           macs=lambda op, i, out: out.numel,
                           dsp_bound=lambda op: op.activation_slope != 0),
    OpKind.UpsampleNearest: Kind(
        _SCALED, params=_projection_params,
        macs=lambda op, i, out: _weight_macs(op, i, out) + out.numel),
    OpKind.UpsampleBilinear: Kind(
        _SCALED, params=_projection_params,
        macs=lambda op, i, out: _weight_macs(op, i, out) + 4 * out.numel,
        dsp_bound=lambda op: True),
    OpKind.DepthToSpace: Kind(_SCALED, check=_check_depth_to_space, dsp_bound=lambda op: True),
    OpKind.Linear: Kind(shape=_flat_shape, params=_dense_params, tiled=True),
}


def output_shape(op: OperatorSpec, shape: TensorShape) -> TensorShape:
    """Shape produced by `op` applied to `shape`; raises on incompatibility."""
    return KINDS[op.kind].shape(op, shape)


def _fmt_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def canonical_key(op: OperatorSpec, shape: TensorShape) -> str:
    """Stable lookup-table key for an operator applied at a given input shape.

    Base layout is `kind:k{K}:s{S}:e{E}:i{C}x{H}x{W}:o{C'}`; non-default
    activation slope and scale factor append `:a{slope}` / `:f{scale}` so the
    key stays injective over every spec field.
    """
    output_shape(op, shape)  # raises InvalidOp when the pair is inconsistent
    key = (f"{op.kind.value}:k{op.kernel}:s{op.stride}:e{_fmt_fraction(op.expand_ratio)}"
           f":i{shape.channels}x{shape.height}x{shape.width}:o{op.out_channels}")
    if op.activation_slope != 0:
        key += f":a{op.activation_slope!r}"
    if op.scale_factor != 1:
        key += f":f{op.scale_factor}"
    return key


@dataclass(frozen=True)
class MixedStage:
    candidates: tuple
    input_shape: TensorShape
    output_shape: TensorShape

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))


@dataclass(frozen=True)
class SuperNet:
    task: Task
    input_shape: TensorShape
    stem: tuple
    stages: tuple
    head: tuple
    num_classes: Optional[int] = None
    sr_scale: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "task", Task(self.task))
        object.__setattr__(self, "stem", tuple(self.stem))
        object.__setattr__(self, "stages", tuple(self.stages))
        object.__setattr__(self, "head", tuple(self.head))

    def path(self, chosen, tie_stages=()) -> "CompactNet":
        """The compact net that keeps candidate `chosen[i]` of stage `i`."""
        layers = (self.stem + tuple(st.candidates[j] for st, j in zip(self.stages, chosen))
                  + self.head)
        return CompactNet(task=self.task, input_shape=self.input_shape, layers=layers,
                          num_classes=self.num_classes, sr_scale=self.sr_scale,
                          chosen_indices=tuple(chosen), tie_stages=tuple(tie_stages))


@dataclass(frozen=True)
class CompactNet:
    task: Task
    input_shape: TensorShape
    layers: tuple
    num_classes: Optional[int] = None
    sr_scale: Optional[int] = None
    chosen_indices: tuple = ()
    tie_stages: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "task", Task(self.task))
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "chosen_indices", tuple(self.chosen_indices))
        object.__setattr__(self, "tie_stages", tuple(self.tie_stages))


Net = Union[SuperNet, CompactNet]


def walk(net: Net):
    """Yield `(where, op, input_shape)` for every layer of a net, in chain order.

    `where` is `("layers", i)` for a CompactNet; for a SuperNet it is
    `("stem", i)`, `("stages", i, j)` for candidate j of stage i, or
    `("head", i)`. Every candidate of a stage gets the stage's declared input
    shape, and the head starts from the last stage's declared output shape.
    """
    cur = net.input_shape
    parts = ((("layers", net.layers),) if isinstance(net, CompactNet)
             else (("stem", net.stem), ("stages", net.stages), ("head", net.head)))
    for part, items in parts:
        for i, item in enumerate(items):
            if part == "stages":
                for j, cand in enumerate(item.candidates):
                    yield (part, i, j), cand, item.input_shape
                cur = item.output_shape
            else:
                yield (part, i), item, cur
                cur = output_shape(item, cur)


@dataclass(frozen=True)
class Finding:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple

    def __post_init__(self):
        object.__setattr__(self, "findings", tuple(self.findings))

    @property
    def ok(self) -> bool:
        return not self.findings


def _chain(ops, shape: TensorShape, part: str, report: Callable):
    """`shape` run through `ops`, or None after `report` is given a finding at
    `part[i]` for the first op that does not fit."""
    for i, op in enumerate(ops):
        try:
            shape = output_shape(op, shape)
        except InvalidOp as e:
            report(Finding(f"{part}[{i}]", str(e)))
            return None
    return shape


def validate(net: Net) -> ValidationReport:
    """Structural check of a supernet or a compact net; findings are data, nothing raises."""
    findings = []
    if net.task is Task.Classification and net.num_classes is None:
        findings.append(Finding("num_classes", "classification net requires num_classes"))
    if net.task is Task.SuperResolution and net.sr_scale is None:
        findings.append(Finding("sr_scale", "super-resolution net requires sr_scale"))
    if isinstance(net, CompactNet):
        _chain(net.layers, net.input_shape, "layers", findings.append)
        return ValidationReport(findings)
    if not net.stages:
        findings.append(Finding("stages", "supernet must have at least one stage"))

    cur = _chain(net.stem, net.input_shape, "stem", findings.append)
    if cur is None:
        return ValidationReport(findings)
    for i, stage in enumerate(net.stages):
        if not stage.candidates:
            findings.append(Finding(f"stages[{i}]", "stage has no candidates"))
            continue
        if cur != stage.input_shape:
            findings.append(Finding(
                f"stages[{i}]", f"declared input {stage.input_shape}, chain produces {cur}"))
        keys = set()
        for j, cand in enumerate(stage.candidates):
            path = f"stages[{i}].candidates[{j}]"
            try:
                got = output_shape(cand, stage.input_shape)
            except InvalidOp as e:
                findings.append(Finding(path, str(e)))
                continue
            if got != stage.output_shape:
                findings.append(Finding(
                    path, f"produces {got}, stage declares {stage.output_shape}"))
            key = canonical_key(cand, stage.input_shape)
            if key in keys:
                findings.append(Finding(path, f"duplicate candidate key {key}"))
            keys.add(key)
        cur = stage.output_shape
    _chain(net.head, cur, "head", findings.append)
    return ValidationReport(findings)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _op_to_json(op: OperatorSpec) -> dict:
    return {
        "kind": op.kind.value,
        "kernel": op.kernel,
        "stride": op.stride,
        "in_channels": op.in_channels,
        "out_channels": op.out_channels,
        "expand_ratio": _fmt_fraction(op.expand_ratio),
        "activation_slope": op.activation_slope,
        "scale_factor": op.scale_factor,
    }


def _parse_fraction(v, path: str) -> Fraction:
    """An integer, an integral float or a "p/q" string."""
    try:
        if type(v) in (int, str) or (type(v) is float and v.is_integer()):
            return Fraction(v)
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError(f"bad expand_ratio {v!r}", path)


def _op_from_json(obj, path: str) -> OperatorSpec:
    if not isinstance(obj, dict):
        raise ParseError("operator must be an object", path)
    if "expand_ratio" in obj:
        obj = {**obj, "expand_ratio": _parse_fraction(obj["expand_ratio"], path)}
    return from_fields(OperatorSpec, obj, path)


def _shape_from_json(v, path: str) -> TensorShape:
    if not isinstance(v, list) or len(v) != 3:
        raise ParseError(f"input_shape must be a list [C, H, W], got {v!r:.80}", path)
    try:
        return TensorShape(*v)
    except InvalidOp as e:
        raise ParseError(str(e), path)


def serialize(net: Net) -> str:
    """Net -> canonical JSON text (trailing newline, sorted layout fixed by hand)."""
    if isinstance(net, SuperNet):
        doc = {
            "task": net.task.value,
            "input_shape": net.input_shape.as_list(),
            "stem": [_op_to_json(o) for o in net.stem],
            "stages": [{"candidates": [_op_to_json(c) for c in s.candidates]}
                       for s in net.stages],
            "head": [_op_to_json(o) for o in net.head],
        }
    elif isinstance(net, CompactNet):
        doc = {
            "task": net.task.value,
            "input_shape": net.input_shape.as_list(),
            "layers": [_op_to_json(o) for o in net.layers],
        }
        if net.chosen_indices:
            doc["chosen_indices"] = list(net.chosen_indices)
        if net.tie_stages:
            doc["tie_stages"] = list(net.tie_stages)
    else:
        raise TypeError(f"cannot serialize {type(net).__name__}")
    if net.task is Task.Classification:
        doc["num_classes"] = net.num_classes
    else:
        doc["sr_scale"] = net.sr_scale
    return json.dumps(doc, indent=2) + "\n"


def _ops(doc, name: str, path: str) -> list:
    """The operators of list field `name`; an absent field is an empty list."""
    return [_op_from_json(o, f"{path}[{i}]")
            for i, o in enumerate(field(doc, name, list, path, default=[]))]


def _ints(doc, name: str) -> tuple:
    values = field(doc, name, list, name, default=[])
    if not all(type(v) is int for v in values):
        raise ParseError(f"must be a list of integers, got {values!r:.80}", name)
    return tuple(values)


def _common_fields(doc, allowed: set) -> dict:
    """The task, input_shape, num_classes and sr_scale of a net document."""
    unknown = set(doc) - allowed
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)}", "$")
    try:
        task = Task(field(doc, "task", str, "$"))
    except ValueError:
        raise ParseError(f"unknown task {doc['task']!r}", "task")
    return {"task": task,
            "input_shape": _shape_from_json(field(doc, "input_shape", list, "$"), "input_shape"),
            "num_classes": field(doc, "num_classes", (int, type(None)), "$", default=None),
            "sr_scale": field(doc, "sr_scale", (int, type(None)), "$", default=None)}


def _raise(finding: Finding):
    raise ParseError(finding.message, finding.path)


def _build_supernet(doc) -> SuperNet:
    common = _common_fields(
        doc, {"task", "input_shape", "stem", "stages", "head", "num_classes", "sr_scale"})
    stem, head = _ops(doc, "stem", "stem"), _ops(doc, "head", "head")

    # Stage input/output shapes are reconstructed by chaining through the file.
    cur = _chain(stem, common["input_shape"], "stem", _raise)
    stages = []
    for i, sobj in enumerate(field(doc, "stages", list, "$")):
        if not isinstance(sobj, dict) or set(sobj) != {"candidates"}:
            raise ParseError("stage must be {'candidates': [...]}", f"stages[{i}]")
        cands = _ops(sobj, "candidates", f"stages[{i}].candidates")
        if not cands:
            raise ParseError("stage has no candidates", f"stages[{i}]")
        out = _chain(cands[:1], cur, f"stages[{i}].candidates", _raise)
        stages.append(MixedStage(tuple(cands), cur, out))
        cur = out
    return SuperNet(stem=stem, stages=stages, head=head, **common)


def _build_compactnet(doc) -> CompactNet:
    common = _common_fields(doc, {"task", "input_shape", "layers", "num_classes", "sr_scale",
                                  "chosen_indices", "tie_stages"})
    return CompactNet(layers=_ops(doc, "layers", "layers"),
                      chosen_indices=_ints(doc, "chosen_indices"),
                      tie_stages=_ints(doc, "tie_stages"), **common)


def deserialize(text: str) -> Net:
    """JSON text -> SuperNet (has 'stages') or CompactNet (has 'layers')."""
    doc = loads_object(text, "$")
    if "stages" in doc:
        return _build_supernet(doc)
    if "layers" in doc:
        return _build_compactnet(doc)
    raise ParseError("missing field 'stages'", "$")


def load_net(path) -> Net:
    return deserialize(read_text(path))


def save_net(net: Net, path) -> None:
    write_text(path, serialize(net))
