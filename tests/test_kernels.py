"""Bit-equivalence of the nncore kernels against the plain einsum reference.

The reference functions below are the straightforward einsum formulation of
each kernel: sliding windows, one einsum per product of each sample tile or
channel block (a dense conv's pieces, sized by TILE_BYTES alone, are part of
its definition; see ref_conv), and a k*k scatter of the window gradient in
i-then-j order. nncore may compute the same values in another way, but every
output must be bitwise equal to the reference, or seeded runs stop being
reproducible across versions and BLAS kernel sets.
"""

import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from hwnas.graph import KINDS, OperatorSpec, OpKind, TensorShape, output_shape, walk
from hwnas.nncore import TILE_BYTES, ModuleInstance, loss_ce
from hwnas.search import CompactNetModel
from hwnas.spaces import BUILTIN_SPACES


# ---------------------------------------------------------------------------
# Reference kernels
# ---------------------------------------------------------------------------

def ref_windows(x, k, stride, pad, pad_value=0.0):
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=pad_value)
    return sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride], xp.shape


def ref_scatter_windows(t, padded_shape, k, stride, pad):
    dxp = np.zeros(padded_shape)
    ho, wo = t.shape[2], t.shape[3]
    for i in range(k):
        for j in range(k):
            dxp[:, :, i:i + (ho - 1) * stride + 1:stride,
                j:j + (wo - 1) * stride + 1:stride] += t[..., i, j]
    if pad:
        return dxp[:, :, pad:padded_shape[2] - pad, pad:padded_shape[3] - pad]
    return dxp


def ref_runs(n, unit_bytes):
    """n samples (or channels) of unit_bytes each as the fewest near-equal
    runs that fit in TILE_BYTES, or runs of one where one does not fit."""
    count = -(-n // max(1, TILE_BYTES // unit_bytes))
    return [slice(n * i // count, n * (i + 1) // count) for i in range(count)]


def ref_sample_tiles(x_shape, k):
    """A dense conv's sample tiles: a sample's stride-1 window matrix and
    flat run hold (k*k + 1)*C*H*W doubles."""
    n, c, h, w = x_shape
    return ref_runs(n, (k * k + 1) * c * h * w * 8)


def ref_channel_blocks(c, pixels, k):
    """A dense conv's weight-gradient blocks of input channels: a channel's
    window operand holds pixels*k*k doubles, for pixels = B*Ho*Wo. A 1x1
    conv's weight gradient is one block."""
    return ref_runs(c, pixels * k * k * 8) if k > 1 else [slice(0, c)]


def ref_conv(x, w, b, g, stride, pad):
    """(out, dx, dw, db) of a dense convolution, whose pieces are part of its
    definition: the forward and the input-gradient product are one einsum
    per sample tile, and the weight gradient one per block of input
    channels."""
    k = w.shape[-1]
    win, padded = ref_windows(x, k, stride, pad)
    tiles = ref_sample_tiles(x.shape, k)
    # the whole einsum's memory layout, holding each tile's values
    out = np.einsum("bchwij,ocij->bohw", win, w, optimize=True)
    if len(tiles) > 1:
        for s in tiles:
            out[s] = np.einsum("bchwij,ocij->bohw", win[s], w, optimize=True)
    # out of place: an in-place add changes the strides of size-1 axes
    out = out + b[None, :, None, None]
    blocks = ref_channel_blocks(x.shape[1], g[:, 0].size, k)
    dw = np.concatenate([np.einsum("bchwij,bohw->ocij", win[:, s], g, optimize=True)
                         for s in blocks], axis=1)
    db = g.sum(axis=(0, 2, 3))
    t = np.concatenate([np.einsum("bohw,ocij->bchwij", g[s], w, optimize=True)
                        for s in tiles])
    return out, ref_scatter_windows(t, padded, k, stride, pad), dw, db


def ref_dwconv(x, w, b, g, stride, pad):
    """(out, dx, dw, db) of a depthwise convolution."""
    k = w.shape[-1]
    win, padded = ref_windows(x, k, stride, pad)
    out = np.einsum("bchwij,cij->bchw", win, w, optimize=True) + b[None, :, None, None]
    dw = np.einsum("bchwij,bchw->cij", win, g, optimize=True)
    db = g.sum(axis=(0, 2, 3))
    t = np.einsum("bchw,cij->bchwij", g, w, optimize=True)
    return out, ref_scatter_windows(t, padded, k, stride, pad), dw, db


def ref_avgpool_dx(g, x_shape, k, stride, pad):
    padded = (x_shape[0], x_shape[1], x_shape[2] + 2 * pad, x_shape[3] + 2 * pad)
    t = np.broadcast_to((g / (k * k))[..., None, None], g.shape + (k, k))
    return ref_scatter_windows(t, padded, k, stride, pad)


def ref_avgpool(x, k, stride, pad):
    win, _ = ref_windows(x, k, stride, pad)
    return win.mean(axis=(-1, -2))


def ref_maxpool(x, k, stride, pad):
    win, _ = ref_windows(x, k, stride, pad, -np.inf)
    flat = win.reshape(win.shape[:4] + (k * k,))
    idx = flat.argmax(axis=-1)
    return np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]


def ref_maxpool_dx(x, g, k, stride, pad):
    win, padded = ref_windows(x, k, stride, pad, -np.inf)
    idx = win.reshape(win.shape[:4] + (k * k,)).argmax(axis=-1)
    t = np.zeros(g.shape + (k * k,))
    np.put_along_axis(t, idx[..., None], g[..., None], axis=-1)
    return ref_scatter_windows(t.reshape(g.shape + (k, k)), padded, k, stride, pad)


def ref_bilinear_matrix(out_size, in_size, scale):
    """Half-pixel bilinear interpolation as a dense [out, in] matrix."""
    m = np.zeros((out_size, in_size))
    for o in range(out_size):
        src = (o + 0.5) / scale - 0.5
        i0 = int(np.floor(src))
        m[o, min(max(i0, 0), in_size - 1)] += 1.0 - (src - i0)
        m[o, min(max(i0 + 1, 0), in_size - 1)] += src - i0
    return m


def ref_upsample(kind, x, w, b, g, r):
    """(out, dx, dw, db) of the [O,C,1,1] projection w (ref_conv at k = 1),
    then a nearest (repeat) or bilinear (dense-matrix einsum) resampler by r;
    the adjoint runs in reverse. Without a projection (w None) dw and db are
    None.
    Nearest's adjoint sums each 2x2 block of g as
    ((0.0 + g00) + g01) + (g10 + g11), the order numpy's sum(axis=(3, 5))
    takes on maps more than one pixel wide."""
    bsz, o, hh, ww = g.shape
    h, wd = hh // r, ww // r
    if kind is OpKind.UpsampleNearest:
        assert r == 2
        resample = lambda y: y.repeat(r, axis=2).repeat(r, axis=3)
        blocks = g.reshape(bsz, o, h, r, wd, r)
        gij = lambda i, j: blocks[:, :, :, i, :, j]
        dy = ((0.0 + gij(0, 0)) + gij(0, 1)) + (gij(1, 0) + gij(1, 1))
    else:
        mh = ref_bilinear_matrix(h * r, h, r)
        mw = ref_bilinear_matrix(wd * r, wd, r)
        resample = lambda y: np.einsum("hH,bcHW,wW->bchw", mh, y, mw, optimize=True)
        dy = np.einsum("hH,bchw,wW->bcHW", mh, g, mw, optimize=True)
    if w is None:
        return resample(x), dy, None, None
    y, dx, dw, db = ref_conv(x, w, b, dy, 1, 0)
    return resample(y), dx, dw, db


def ref_loss_ce(logits, labels):
    b = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1))
    loss = float(np.mean(logsumexp - z[np.arange(b), labels]))
    grad = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    grad[np.arange(b), labels] -= 1.0
    return loss, grad / b


# ---------------------------------------------------------------------------
# Cases: every conv-family layer the built-in spaces instantiate
# ---------------------------------------------------------------------------

CONV_KINDS = (OpKind.Conv, OpKind.PointwiseConv, OpKind.DWConv)


def _leaf_layers(op, shape):
    """(op, input_shape) of op, or of each child of a conv-family op's
    lowering (an MBConv's). A resampler's projection is checked with the
    resampler, by the upsample cases."""
    rule = KINDS[op.kind]
    children = list(rule.children(op).values()) if rule.conv_family else []
    for child in children or [op]:
        yield child, shape
        shape = output_shape(child, shape)


def _space_layers():
    seen = {}
    for space, make in sorted(BUILTIN_SPACES.items()):
        for _, op, shape in walk(make()):
            for leaf, leaf_shape in _leaf_layers(op, shape):
                if leaf.kind in CONV_KINDS:
                    seen.setdefault((leaf, leaf_shape), space)
    return [(space, op, shape) for (op, shape), space in seen.items()]


# Convs split into several pieces by the reference's rule (see ref_conv):
# several sample tiles, of two output channels and of 33x33 output maps, and
# several channel blocks of a k7 weight gradient; split vector-matrix weight
# gradients, of one output channel; and toy-sr's head at batch 5, tiles of
# 3 + 2 samples, and its k5 candidate at batch 9, the test split eval runs.
SPLIT_CASES = [
    (OperatorSpec(OpKind.Conv, 16, 2, kernel=5), TensorShape(16, 32, 32), 8),
    (OperatorSpec(OpKind.Conv, 16, 16, kernel=5), TensorShape(16, 33, 33), 8),
    (OperatorSpec(OpKind.Conv, 16, 16, kernel=7), TensorShape(16, 32, 32), 2),
    (OperatorSpec(OpKind.Conv, 4, 1, kernel=3), TensorShape(4, 64, 64), 32),
    (OperatorSpec(OpKind.Conv, 3, 1, kernel=3), TensorShape(3, 64, 64), 32),
    (OperatorSpec(OpKind.Conv, 4, 3, kernel=3), TensorShape(4, 64, 64), 5),
    (OperatorSpec(OpKind.Conv, 16, 16, kernel=5), TensorShape(16, 32, 32), 9),
]

# The calibration space runs 128-512 channels at 32x32; at batch 32 one
# k5 window matrix alone would be 0.8 GB, so it is checked at batch 2 only.
CASES = [(op, shape, batch) for space, op, shape in _space_layers()
         for batch in ((2,) if space == "calibration" else (2, 8, 32))]
# Shapes no built-in space uses: strided windows and odd map sizes.
CASES += [
    (OperatorSpec(OpKind.DWConv, 16, 16, kernel=3, stride=2), TensorShape(16, 8, 8), 8),
    (OperatorSpec(OpKind.Conv, 3, 8, kernel=3, stride=2), TensorShape(3, 8, 8), 8),
    (OperatorSpec(OpKind.Conv, 4, 6, kernel=5, stride=2), TensorShape(4, 8, 8), 2),
    (OperatorSpec(OpKind.Conv, 4, 6, kernel=3), TensorShape(4, 9, 9), 8),
    (OperatorSpec(OpKind.Conv, 4, 6, kernel=5, stride=2), TensorShape(4, 9, 9), 8),
    (OperatorSpec(OpKind.DWConv, 6, 6, kernel=5), TensorShape(6, 9, 9), 8),
    (OperatorSpec(OpKind.DWConv, 6, 6, kernel=3, stride=2), TensorShape(6, 9, 9), 2),
    (OperatorSpec(OpKind.PointwiseConv, 5, 3), TensorShape(5, 9, 9), 8),
    # stride 3, and a non-square output map
    (OperatorSpec(OpKind.Conv, 4, 6, kernel=3, stride=3), TensorShape(4, 10, 7), 2),
    (OperatorSpec(OpKind.DWConv, 6, 6, kernel=3, stride=3), TensorShape(6, 9, 9), 2),
] + SPLIT_CASES
# Non-square maps and batch 1: a reshape of a batch-1 or one-row window view
# can be a view, not a copy, and BLAS then reads strided memory.
EDGE_CASES = [
    (OperatorSpec(OpKind.Conv, 4, 6, kernel=3), TensorShape(4, 8, 11), 3),
    (OperatorSpec(OpKind.Conv, 4, 6, kernel=5, stride=2), TensorShape(4, 7, 10), 2),
    (OperatorSpec(OpKind.DWConv, 6, 6, kernel=5), TensorShape(6, 6, 9), 1),
    (OperatorSpec(OpKind.DWConv, 6, 6, kernel=3, stride=2), TensorShape(6, 9, 6), 1),
    (OperatorSpec(OpKind.PointwiseConv, 5, 3), TensorShape(5, 4, 9), 1),
    (OperatorSpec(OpKind.PointwiseConv, 16, 4), TensorShape(16, 32, 32), 1),
    (OperatorSpec(OpKind.Conv, 3, 16, kernel=3), TensorShape(3, 8, 8), 1),
    # one-term contractions, for which einsum makes no matmul
    (OperatorSpec(OpKind.PointwiseConv, 1, 2), TensorShape(1, 8, 8), 3),
    (OperatorSpec(OpKind.DWConv, 4, 4, kernel=1), TensorShape(4, 6, 6), 3),
    (OperatorSpec(OpKind.DWConv, 4, 4, kernel=1, stride=2), TensorShape(4, 7, 7), 3),
    (OperatorSpec(OpKind.PointwiseConv, 5, 3, stride=2), TensorShape(5, 9, 9), 2),
    # output maps one pixel wide, on which einsum's matmul rounds differently
    # from one on the window matrix
    (OperatorSpec(OpKind.Conv, 3, 4, kernel=3), TensorShape(3, 1, 1), 3),
    (OperatorSpec(OpKind.Conv, 4, 6, kernel=5, stride=3), TensorShape(4, 2, 3), 5),
    (OperatorSpec(OpKind.DWConv, 4, 4, kernel=5, stride=3), TensorShape(4, 2, 3), 5),
]
CASES += EDGE_CASES

# Cases whose input and output gradient are a third +0.0 and -0.0: a kernel
# that adds a signed zero where the reference adds nothing shows up only in
# the bytes, since np.array_equal(-0.0, 0.0) holds.
SIGNED_ZERO_CASES = [
    (OperatorSpec(OpKind.Conv, 3, 16, kernel=3), TensorShape(3, 8, 8), 8),
    (OperatorSpec(OpKind.Conv, 16, 16, kernel=3), TensorShape(16, 8, 8), 8),
    (OperatorSpec(OpKind.DWConv, 16, 16, kernel=3), TensorShape(16, 8, 8), 8),
    (OperatorSpec(OpKind.Conv, 4, 6, kernel=5, stride=2), TensorShape(4, 9, 9), 8),
    (OperatorSpec(OpKind.DWConv, 6, 6, kernel=5), TensorShape(6, 9, 9), 8),
    (OperatorSpec(OpKind.PointwiseConv, 5, 3), TensorShape(5, 9, 9), 8),
    # large maps, whose buffers exceed nncore.TILE_BYTES: the toy-sr head and
    # k5 candidate, and a strided conv
    (OperatorSpec(OpKind.Conv, 4, 3, kernel=3), TensorShape(4, 64, 64), 8),
    (OperatorSpec(OpKind.Conv, 16, 16, kernel=5), TensorShape(16, 32, 32), 8),
    (OperatorSpec(OpKind.Conv, 16, 16, kernel=3, stride=2), TensorShape(16, 64, 64), 4),
    # and those two at the batches whose tiles split them differently from
    # the batch sizes above (see SPLIT_CASES)
    (OperatorSpec(OpKind.Conv, 4, 3, kernel=3), TensorShape(4, 64, 64), 5),
    (OperatorSpec(OpKind.Conv, 16, 16, kernel=5), TensorShape(16, 32, 32), 9),
    # toy-sr's PointwiseConv candidate and its resampler projection, whose
    # k = 1 operands are each one copy of x
    (OperatorSpec(OpKind.PointwiseConv, 16, 16), TensorShape(16, 32, 32), 8),
    (OperatorSpec(OpKind.PointwiseConv, 16, 4), TensorShape(16, 32, 32), 8),
] + EDGE_CASES


def _case_id(case):
    op, shape, batch = case
    return (f"{op.kind.value}-{op.in_channels}x{op.out_channels}-k{op.kernel}"
            f"-s{op.stride}-{shape.height}x{shape.width}-b{batch}")


def _with_signed_zeros(a, rng):
    """A copy of `a` with about a third of its entries set to +0.0 or -0.0."""
    a = a.copy()
    a[rng.random(a.shape) < 1 / 6] = 0.0
    a[rng.random(a.shape) < 1 / 6] = -0.0
    return a


def _same_bytes(got, ref):
    """Bitwise equality, signed zeros and NaN payloads included."""
    return got.shape == ref.shape and got.dtype == ref.dtype \
        and got.tobytes() == ref.tobytes()


def _reference(op, w, b, x, g):
    if op.kind is OpKind.DWConv:
        return ref_dwconv(x, w, b, g, op.stride, op.padding)
    return ref_conv(x, w, b, g, op.stride, op.padding)


def _check_conv_case(case, signed_zeros=False, channel_major_input=False,
                     crop_grad=False, param_grads=True):
    op, shape, batch = case
    rng = np.random.default_rng(batch)
    inst = ModuleInstance(op, rng)
    for p in inst.params.values():
        p.value += 0.1 * rng.standard_normal(p.value.shape)
    x = rng.standard_normal((batch, shape.channels, shape.height, shape.width))
    if signed_zeros:
        x = _with_signed_zeros(x, rng)
    if channel_major_input:
        # the [C,B,H,W] memory order of a conv output, same values
        x = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    out = inst.forward(x)
    g = rng.standard_normal(out.shape)
    if signed_zeros:
        g = _with_signed_zeros(g, rng)
    if crop_grad:
        # the layout of the input gradient a downstream k3 conv or pool hands
        # down: the interior of a [B,O,Ho+2,Wo+2] buffer, same values
        buf = np.full(g.shape[:2] + (g.shape[2] + 2, g.shape[3] + 2), np.nan)
        buf[:, :, 1:-1, 1:-1] = g
        g = buf[:, :, 1:-1, 1:-1]
    dx = inst.backward(g)
    w, b = inst.params["weight"], inst.params["bias"]
    ref_out, ref_dx, ref_dw, ref_db = _reference(op, w.value, b.value, x, g)
    assert _same_bytes(out, ref_out)
    assert _same_bytes(dx, ref_dx)
    if param_grads:
        assert _same_bytes(w.grad, ref_dw)
        assert _same_bytes(b.grad, ref_db)
    # out and dx keep the reference memory layout, so reductions over them
    # sum in the same order
    assert out.strides == ref_out.strides
    assert dx.strides == ref_dx.strides


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_conv_kernels_match_reference_bitwise(case):
    _check_conv_case(case)


# A later TILE_BYTES must not quietly make the split cases one-piece cases.
@pytest.mark.parametrize("case", SPLIT_CASES, ids=_case_id)
def test_split_cases_split(case):
    op, shape, batch = case
    out = output_shape(op, shape)
    tiles = ref_sample_tiles((batch,) + tuple(shape.as_list()), op.kernel)
    blocks = ref_channel_blocks(shape.channels, batch * out.height * out.width, op.kernel)
    assert len(tiles) >= 2 or len(blocks) >= 2


@pytest.mark.parametrize("case", SIGNED_ZERO_CASES, ids=_case_id)
def test_conv_kernels_keep_signed_zeros(case):
    _check_conv_case(case, signed_zeros=True)


# A layer's input is usually the previous conv's output, whose memory order
# is [C,B,H,W]; a kernel that hands BLAS a view of it, not a copy, can round
# differently from the reference.
@pytest.mark.parametrize("case", SIGNED_ZERO_CASES, ids=_case_id)
def test_conv_kernels_match_reference_on_channel_major_input(case):
    _check_conv_case(case, channel_major_input=True)


# The gradient a layer gets is usually the previous backward's input
# gradient, a crop of a padded buffer; a kernel that reads it in another
# layout than a contiguous array's must still compute the same bytes.
@pytest.mark.parametrize("case", SIGNED_ZERO_CASES, ids=_case_id)
def test_conv_kernels_match_reference_on_cropped_grad(case):
    _check_conv_case(case, signed_zeros=True, crop_grad=True)


# One output pixel at batch 1 makes the input gradient's product a
# matrix-vector one. The weight gradient there is the exception the nncore
# docstring names (einsum drops the size-1 axes), so it is not checked.
@pytest.mark.parametrize("case", [
    (OperatorSpec(OpKind.Conv, 3, 4, kernel=3), TensorShape(3, 1, 1), 1),
    (OperatorSpec(OpKind.Conv, 3, 4, kernel=5, stride=2), TensorShape(3, 2, 2), 1),
], ids=_case_id)
def test_conv_input_grad_matches_reference_at_one_output_pixel(case):
    _check_conv_case(case, param_grads=False)


# toy-sr's upsample stage, 16 -> 4 channels on 32x32 maps, as (in, out, size,
# batch); then 5x5 maps, whose B*h*w is not a multiple of 8; one input pixel;
# one input channel (a one-term projection) or one output channel, in one
# sample tile of the projection and in several; and 32 input channels
UPSAMPLE_CASES = [(16, 4, 32, batch) for batch in (1, 2, 3, 8, 32)] + [
    (16, 4, 5, 1), (16, 4, 5, 3), (16, 4, 1, 1), (1, 3, 8, 2), (5, 1, 8, 2), (32, 4, 8, 2),
    (1, 3, 64, 48), (3, 1, 64, 48)]


def _with_zero_blocks(g, rng):
    """A copy of the [B,O,2H,2W] gradient g with about a quarter of its 2x2
    blocks set to -0.0 as a whole."""
    g = g.copy()
    b, o, hh, ww = g.shape
    blocks = g.reshape(b, o, hh // 2, 2, ww // 2, 2)
    zero = rng.random((b, o, hh // 2, 1, ww // 2, 1)) < 1 / 4
    blocks[np.broadcast_to(zero, blocks.shape)] = -0.0
    return g


def _check_upsample_case(kind, c, o, size, batch, g_of=lambda g, rng: g, param_grads=True):
    """The resampler c -> o against ref_upsample, on the gradient g_of(g)."""
    rng = np.random.default_rng(batch)
    inst = ModuleInstance(OperatorSpec(kind, c, o, scale_factor=2), rng)
    for p in inst.params.values():
        p.value += 0.1 * rng.standard_normal(p.value.shape)
    x = rng.standard_normal((batch, c, size, size))
    out = inst.forward(x)
    g = g_of(_with_signed_zeros(rng.standard_normal(out.shape), rng), rng)
    dx = inst.backward(g)
    w, b = inst.params.get("project.weight"), inst.params.get("project.bias")
    projects = w is not None
    ref_out, ref_dx, ref_dw, ref_db = ref_upsample(
        kind, x, w.value if projects else None, b.value if projects else None, g, 2)
    if projects and param_grads:
        assert _same_bytes(w.grad, ref_dw)
        assert _same_bytes(b.grad, ref_db)
    # the input gradient alone, as an architecture step takes it
    inst.forward(x)
    dx_only = inst.backward(g, param_grads=False)
    # the parameter gradients take Parameter.grad's layout; out and dx keep
    # the reference's
    for got, ref in ((out, ref_out), (dx, ref_dx), (dx_only, ref_dx)):
        assert _same_bytes(got, ref)
        assert got.strides == ref.strides


_UPSAMPLE_IDS = [str(b) if (c, o, s) == (16, 4, 32) else f"{c}x{o}-{s}x{s}-{b}"
                 for c, o, s, b in UPSAMPLE_CASES]
_RESAMPLER_KINDS = pytest.mark.parametrize(
    "kind", [OpKind.UpsampleNearest, OpKind.UpsampleBilinear], ids=lambda k: k.value)


@pytest.mark.parametrize("c,o,size,batch", UPSAMPLE_CASES, ids=_UPSAMPLE_IDS)
@_RESAMPLER_KINDS
def test_upsample_kernels_match_reference_bitwise(kind, c, o, size, batch):
    _check_upsample_case(kind, c, o, size, batch)


# The same cases on a gradient with whole 2x2 blocks of -0.0, for the
# projecting resampler and for the resampler without a projection, whose
# input gradient is the block sum itself: nearest's sum must start from
# +0.0, as numpy's reduction does, or an all -0.0 block sums to -0.0. On one
# input pixel at batch 1 the projection's weight gradient is the exception
# the nncore docstring names (einsum drops the size-1 axes), so it is not
# checked there.
@pytest.mark.parametrize("c,o,size,batch", UPSAMPLE_CASES, ids=_UPSAMPLE_IDS)
@_RESAMPLER_KINDS
def test_upsample_kernels_keep_signed_zero_blocks(kind, c, o, size, batch):
    _check_upsample_case(kind, c, o, size, batch, _with_zero_blocks,
                         param_grads=size * batch > 1)
    _check_upsample_case(kind, o, o, size, batch, _with_zero_blocks)


# ---------------------------------------------------------------------------
# Working set: at batch 8, one forward and backward holds the whole-batch
# arrays a kernel keeps by design, and at most TILE_BYTES of tile buffers on
# top. A kernel that builds a whole-batch window matrix, window operand or
# resampled-map product again exceeds the bound.
# ---------------------------------------------------------------------------

WORKING_SET_CASES = [
    # toy-sr's k5 candidate and head
    (OperatorSpec(OpKind.Conv, 16, 16, kernel=5), TensorShape(16, 32, 32)),
    # toy-sr's PointwiseConv candidate
    (OperatorSpec(OpKind.PointwiseConv, 16, 16), TensorShape(16, 32, 32)),
    (OperatorSpec(OpKind.Conv, 4, 3, kernel=3), TensorShape(4, 64, 64)),
    # toy-sr's upsample candidates
    (OperatorSpec(OpKind.UpsampleNearest, 16, 4, scale_factor=2), TensorShape(16, 32, 32)),
    (OperatorSpec(OpKind.UpsampleBilinear, 16, 4, scale_factor=2), TensorShape(16, 32, 32)),
]


def _kept_arrays_bytes(op, shape, batch):
    """The bytes of the whole-batch arrays a kernel keeps by design: its
    output and input gradient, and for a conv the channel-major copy of the
    output gradient and the padded buffer the input gradient is a crop of,
    for a resampler the input it keeps for the weight gradient."""
    out = output_shape(op, shape)
    out_bytes = 8 * batch * out.channels * out.height * out.width
    if op.kind in (OpKind.Conv, OpKind.PointwiseConv):
        p = op.padding
        return 2 * out_bytes + 8 * batch * shape.channels * (shape.height + 2 * p) \
            * (shape.width + 2 * p)
    return out_bytes + 2 * 8 * batch * shape.channels * shape.height * shape.width


@pytest.mark.parametrize("op,shape", WORKING_SET_CASES,
                         ids=["Conv-16x16-k5-32x32", "PointwiseConv-16x16-32x32",
                              "Conv-4x3-k3-64x64",
                              "UpsampleNearest-16x4-32x32", "UpsampleBilinear-16x4-32x32"])
def test_kernel_working_set_is_bounded(op, shape):
    batch = 8
    rng = np.random.default_rng(0)
    inst = ModuleInstance(op, rng)
    x = rng.standard_normal((batch, shape.channels, shape.height, shape.width))
    out = output_shape(op, shape)
    g = rng.standard_normal((batch, out.channels, out.height, out.width))
    tracemalloc.start()
    try:
        inst.forward(x)
        inst.backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # peaks of 6.9, 3.2, 7.2, 2.7 and 2.4 MB for the five cases, against
    # bounds of 9.7, 9.4, 9.0, 9.4 and 9.4 MB at a TILE_BYTES of 6 MiB: the
    # k5 weight gradient gathers its window operand in blocks of 2 or 3
    # channels, a resampler projects at input resolution and builds no
    # resampled copy of its input, and a k = 1 conv's operands are each one
    # copy of x
    assert peak <= _kept_arrays_bytes(op, shape, batch) + TILE_BYTES


POOL_CASES = [(3, 1, (4, 5, 8, 8)), (1, 2, (3, 4, 8, 8)), (3, 2, (2, 3, 9, 9)),
              (5, 1, (2, 2, 7, 7)), (5, 2, (2, 3, 8, 8))]


def _check_pool_case(kind, k, stride, x_shape, signed_zeros,
                     channel_major_input=False):
    rng = np.random.default_rng(k + stride)
    op = OperatorSpec(kind, x_shape[1], x_shape[1], kernel=k, stride=stride)
    pad = op.padding
    inst = ModuleInstance(op, rng)
    x = rng.standard_normal(x_shape)
    if channel_major_input:
        x = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    out = inst.forward(x)
    g = rng.standard_normal(out.shape)
    if signed_zeros:
        g = _with_signed_zeros(g, rng)
    dx = inst.backward(g)
    if kind is OpKind.AvgPool:
        ref_out = ref_avgpool(x, k, stride, pad)
        ref_dx = ref_avgpool_dx(g, x_shape, k, stride, pad)
    else:
        ref_out = ref_maxpool(x, k, stride, pad)
        ref_dx = ref_maxpool_dx(x, g, k, stride, pad)
    assert _same_bytes(out, ref_out)
    assert out.strides == ref_out.strides
    assert _same_bytes(dx, ref_dx)
    assert dx.strides == ref_dx.strides


@pytest.mark.parametrize("kind", [OpKind.AvgPool, OpKind.MaxPool])
@pytest.mark.parametrize("k,stride,x_shape", POOL_CASES)
def test_pool_backward_matches_reference_bitwise(kind, k, stride, x_shape):
    _check_pool_case(kind, k, stride, x_shape, signed_zeros=False)


@pytest.mark.parametrize("kind", [OpKind.AvgPool, OpKind.MaxPool])
@pytest.mark.parametrize("k,stride,x_shape", POOL_CASES)
def test_pool_backward_keeps_signed_zeros(kind, k, stride, x_shape):
    _check_pool_case(kind, k, stride, x_shape, signed_zeros=True)


# The forward's output layout follows its input's, as the reference's does.
@pytest.mark.parametrize("kind", [OpKind.AvgPool, OpKind.MaxPool])
@pytest.mark.parametrize("k,stride,x_shape", POOL_CASES)
def test_pool_kernels_match_reference_on_channel_major_input(kind, k, stride, x_shape):
    _check_pool_case(kind, k, stride, x_shape, signed_zeros=False, channel_major_input=True)


@pytest.mark.parametrize("batch,classes", [(1, 2), (8, 4), (32, 10)])
def test_loss_ce_matches_reference_bitwise(batch, classes):
    rng = np.random.default_rng(classes)
    logits = 3.0 * rng.standard_normal((batch, classes))
    labels = rng.integers(0, classes, size=batch)
    loss, grad = loss_ce(logits, labels)
    ref_loss, ref_grad = ref_loss_ce(logits, labels)
    assert loss == ref_loss
    assert np.array_equal(grad, ref_grad)


# ---------------------------------------------------------------------------
# Skipped gradients: what a backward leaves out must not change what it keeps
# ---------------------------------------------------------------------------

PARAMETRIC = {
    "Conv": (OperatorSpec(OpKind.Conv, 3, 4, kernel=3), (2, 3, 6, 6)),
    "PointwiseConv": (OperatorSpec(OpKind.PointwiseConv, 4, 6), (2, 4, 5, 5)),
    "DWConv": (OperatorSpec(OpKind.DWConv, 4, 4, kernel=3, stride=2), (2, 4, 7, 7)),
    "Linear": (OperatorSpec(OpKind.Linear, 3 * 4 * 4, 5), (2, 3, 4, 4)),
    "MBConv": (OperatorSpec(OpKind.MBConv, 4, 4, kernel=3, expand_ratio=2), (2, 4, 6, 6)),
    "UpsampleNearest": (OperatorSpec(OpKind.UpsampleNearest, 4, 2, scale_factor=2),
                        (2, 4, 3, 3)),
    "UpsampleBilinear": (OperatorSpec(OpKind.UpsampleBilinear, 4, 2, scale_factor=2),
                         (2, 4, 3, 3)),
}


def _grads(inst):
    return {name: p.grad.copy() for name, p in inst.params.items()}


@pytest.mark.parametrize("kind", sorted(PARAMETRIC))
def test_backward_skips_only_what_it_is_told(kind):
    op, x_shape = PARAMETRIC[kind]
    rng = np.random.default_rng(1)
    inst = ModuleInstance(op, rng)
    x = rng.standard_normal(x_shape)
    g = rng.standard_normal(inst.forward(x).shape)
    dx = inst.backward(g)
    full = _grads(inst)
    inst.zero_grad()

    inst.forward(x)
    assert inst.backward(g, input_grad=False) is None
    assert all(np.array_equal(p.grad, full[n]) for n, p in inst.params.items())
    inst.zero_grad()

    inst.forward(x)
    assert np.array_equal(inst.backward(g, param_grads=False), dx)
    assert all(not p.grad.any() for p in inst.params.values())


# An empty batch, [0,C,H,W], as forward makes an empty output for it:
# backward gives an empty input gradient and adds nothing to any parameter.
@pytest.mark.parametrize("kind", sorted(PARAMETRIC) + ["Conv-4x3-k3-8x8"])
def test_empty_batch_backward_is_empty(kind):
    op, x_shape = PARAMETRIC.get(kind, (OperatorSpec(OpKind.Conv, 4, 3, kernel=3),
                                        (2, 4, 8, 8)))
    inst = ModuleInstance(op, np.random.default_rng(1))
    x = np.zeros((0,) + x_shape[1:])
    out = inst.forward(x)
    assert out.shape[0] == 0
    assert inst.backward(np.zeros(out.shape)).shape == x.shape
    assert all(p.grad.shape == p.value.shape and not p.grad.any()
               for p in inst.params.values())


def _path_instances(model, gates):
    return [(where, inst) for where, inst in model.instances.items()
            if where[0] != "stages" or gates[where[1]] == where[2]]


def _toy_batch(net, batch=8, seed=4):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch,) + tuple(net.input_shape.as_list()))
    return x, rng.integers(0, net.num_classes, size=batch)


@pytest.mark.parametrize("gates", [(0, 1, 2), (1, 0, 0), (2, 2, 1)])
def test_gate_grads_accumulate_nothing_and_match_full_backward(gates):
    supernet = BUILTIN_SPACES["toy-classification"]()
    x, y = _toy_batch(supernet)
    model = CompactNetModel(supernet, seed=2)
    _, g = loss_ce(model.forward(x, gates, keep_stage_outputs=True), y)
    scalars = model.backward(g, param_grads=False)
    assert all(not p.grad.any() for p in model.named_parameters().values())

    # reference: a full backward (input and parameter grads) of a twin model
    twin, outputs = CompactNetModel(supernet, seed=2), {}
    h = x
    for where, inst in _path_instances(twin, gates):
        h = inst.forward(h)
        outputs[where] = h
    d, expect = g[:, :, None, None], [0.0] * len(gates)
    for where, inst in reversed(_path_instances(twin, gates)):
        if where[0] == "stem":
            break
        if where[0] == "stages":
            expect[where[1]] = float(np.sum(d * outputs[where]))
        d = inst.backward(d)
    assert scalars == expect


@pytest.mark.parametrize("gates", [(0, 1, 2), (2, 2, 1)])
def test_one_backward_gives_gate_grads_only_of_kept_outputs(gates):
    """A parameter step returns the gate grads of a frozen step when the forward
    kept stage outputs, and [] when it did not; its parameter grads are the same."""
    supernet = BUILTIN_SPACES["toy-classification"]()
    x, y = _toy_batch(supernet)
    frozen, kept, plain = (CompactNetModel(supernet, seed=2) for _ in range(3))
    _, g = loss_ce(frozen.forward(x, gates, keep_stage_outputs=True), y)
    expect = frozen.backward(g, param_grads=False)
    kept.forward(x, gates, keep_stage_outputs=True)
    plain.forward(x, gates)
    assert kept.backward(g) == expect
    assert plain.backward(g) == []
    got, ref = kept.named_parameters(), plain.named_parameters()
    assert all(np.array_equal(got[n].grad, ref[n].grad) for n in ref)
    assert any(p.grad.any() for p in ref.values())


def test_first_layer_input_grad_skip_keeps_param_grads():
    supernet = BUILTIN_SPACES["toy-classification"]()
    net = supernet.path([0, 1, 2])
    x, y = _toy_batch(net)
    model, twin = CompactNetModel(net, seed=3), CompactNetModel(net, seed=3)
    _, g = loss_ce(model.forward(x), y)
    model.backward(g)

    h = x
    for inst in twin.instances.values():
        h = inst.forward(h)
    d = g[:, :, None, None]
    for inst in reversed(list(twin.instances.values())):
        d = inst.backward(d)
    got, expect = model.named_parameters(), twin.named_parameters()
    assert all(np.array_equal(got[n].grad, expect[n].grad) for n in expect)
    assert any(p.grad.any() for p in expect.values())
