"""Minimal reverse-mode compute core over float64 numpy arrays.

Covers forward/backward for every OperatorSpec kind, cross-entropy and MSE
losses and a plain SGD step with L2 weight decay. Desk-scale only. `KERNELS`
holds each kind's (forward, backward) pair; its parameter shapes and children
come from `graph.KINDS`.

A backward pass computes only what its caller reads: it can skip the input
gradient (the first layer of a net) or the parameter gradients (architecture
steps, where weights are frozen).

Conv, PointwiseConv and DWConv share one kernel pair, a convolution of G
groups with an [O, C/G, k, k] weight: G = 1 for a Conv or PointwiseConv, and
G = C for a DWConv, whose [C,k,k] weight it reads as [C,1,k,k]. The forward
is one batched matmul of the weight and the window matrix, which is built at
stride 1 from one flat run holding every map back to back, one copy per
window offset, and for stride s keeps every s-th row and column; a one-term
contraction, or an output map one pixel wide, is einsum's own. The weight
gradient is the batched matmul einsum(optimize=True) makes, on a window
operand gathered with one np.take from a zero-padded copy, or, where
einsum's reshape of the window view is a view, on that view (see
_window_operand). Every window-gradient scatter (the convs and the pools)
adds into such a flat run, one contiguous 1-D add per offset: numpy runs an
elementwise op several times slower on a 2-D view whose rows are not back to
back. For the same reason the DWConv input-gradient products read a
channel-major contiguous copy of the output gradient, not the gradient the
next layer hands down, which is usually the crop of a padded buffer. A
1x1 window needs none of this machinery: at k = 1 the window matrix is
channel-major x and the G = 1 weight-gradient operand is x in (b, h, w, c)
order, each one copy of x, and at stride 1 the window scatter is one add of
+0.0 to the input-gradient product.

A resampler (nearest or bilinear) that changes the width is a projection,
then a resample: the conv pair at k = 1, reading its [O,C] weight as
[O,C,1,1], on the input maps, then the parameter-free resample of the
projection's output; its backward runs the two adjoints in reverse.
Nearest's adjoint sums each r x r block in a fixed order of plain adds on
strided views, at r = 2 ((0.0 + d00) + d01) + (d10 + d11), the order numpy's
reshape-and-sum takes on maps more than one pixel wide.

The large-map kernels bound their transient buffers by one budget,
TILE_BYTES (6 MiB). A G = 1 conv builds its window matrix, and runs its
forward product, its input-gradient product and the window scatter, over
tiles of whole samples: the fewest near-equal tiles whose per-sample buffers
fit the budget. Its weight gradient stays one contraction over B*Ho*Wo,
since a contraction split into partial sums sums in another order; it
gathers the window operand in blocks of input channels instead, the fewest
near-equal blocks that fit the budget, and fills dw's columns one block at a
time. The tiles and blocks are part of what the conv computes, as the
projection is part of a resampler: each is a product of its own, and the
budget alone sets the split, so the reference makes the same products and
agrees with the kernels on any BLAS kernel set. Tiles are joined in the
memory layout of the whole batch's result. A batch whose buffers fit is one
tile and one block: every toy-classification shape is. A DWConv is never
split.

Every value a kernel computes, and the memory layout of its output and input
gradient, is bitwise equal to the plain einsum formulation (sliding windows,
one einsum per product of each tile or block, window gradients scattered in
i-then-j order), so seeded runs stay reproducible; tests/test_kernels.py
holds that reference.
The known exceptions are all conv backward passes whose output maps are one
pixel wide or one pixel high, which no built-in space reaches:
- the weight gradient on maps one pixel wide at batch 1, where einsum drops
  the size-1 axes: it differs in signed zeros (1x1 maps) or in the last bit
  (DWConv on 5x1 maps);
- the Conv weight gradient when only the output is one pixel, at batch 1:
  it differs in signed zeros (Conv 3->4 k5 s2 on 2x2 maps);
- other weight gradients, and input gradients read from the crop of a
  padded buffer, on such maps at any batch can differ in the last bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParseError, ShapeMismatch, StaleState
from .graph import KINDS, OperatorSpec, OpKind, TensorShape, output_shape
from .jsonio import array_from_json, array_to_json, field, read_object, write_object

CHECKPOINT_VERSION = 1

# The transient-buffer budget of the large-map kernels, in bytes: what the
# buffers of one sample tile, or of one weight-gradient channel block, may
# hold (see the tile helpers).
TILE_BYTES = 6 << 20


class Parameter:
    """A learnable array with an accumulated gradient of identical shape."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad[...] = 0.0


def _kaiming_uniform(shape, fan_in, rng):
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# Tiles: bounded transient buffers
# ---------------------------------------------------------------------------

def _runs(n, per):
    """The n samples (or channels) of a product as the fewest near-equal runs
    of at most `per`; one run if n <= per."""
    count = max(1, -(-n // per))
    bounds = [n * i // count for i in range(count + 1)]
    return [slice(a, z) for a, z in zip(bounds, bounds[1:])]


def _joined(f, tiles, order):
    """f(s) for each sample tile s, joined along axis 0 into one array whose
    axes lie in memory in `order`; f's result itself for one tile."""
    first = f(tiles[0])
    if len(tiles) == 1:
        return first
    out = _laid_out((tiles[-1].stop,) + first.shape[1:], order)
    out[tiles[0]] = first
    del first
    for s in tiles[1:]:
        out[s] = f(s)
    return out


def _laid_out(shape, order):
    """An empty array of `shape` whose axes lie in memory in `order`,
    outermost first."""
    return np.empty([shape[a] for a in order]).transpose(np.argsort(order))


def _shaped(shapes):
    """Zero-stride operands of these shapes, for numpy's path search, which
    reads shapes alone."""
    return [np.broadcast_to(0.0, s) for s in shapes]


@functools.cache
def _einsum_path(subscripts, *shapes):
    return np.einsum_path(subscripts, *_shaped(shapes), optimize=True)[0]


def _einsum(subscripts, *operands):
    """np.einsum(subscripts, *operands, optimize=True), on the contraction
    path that numpy's search picks for these shapes, searched once per
    shape: the same steps, so the same bytes."""
    return np.einsum(subscripts, *operands,
                     optimize=_einsum_path(subscripts, *(o.shape for o in operands)))


# ---------------------------------------------------------------------------
# Window helpers shared by conv / depthwise / pooling
# ---------------------------------------------------------------------------

def _windows(x, k, stride, pad_value=0.0):
    """[B,C,H,W] -> sliding windows [B,C,Ho,Wo,k,k] over the input padded by
    (k-1)//2 with pad_value."""
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=pad_value)
    return sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]


# Stride-1 windows over one flat run. Every spatial op pads by p = (k-1)//2.
# The [H,W] maps of an [A,M,H,W] array are stored back to back, in (a, m)
# order, as one flat run with p*W + p zeros at each end and no padding rows
# or columns. Window offset (i, j) of every output pixel is then the flat
# shift i*W + j, so one copy or add moves every map at once. A shift makes
# the taps that fall in the padding read or write the neighbouring row or
# map instead: |i - p| rows at the top or bottom of each map and |j - p|
# columns at its left or right. Those entries are set to +0.0. One run, not
# one run per leading index, because numpy runs an elementwise op on a 2-D
# view whose rows are not back to back several times slower than on one
# contiguous 1-D run.

def _edge(d, n):
    """The output rows (columns) of an n-long axis whose tap at shift d = i - p
    (j - p) falls in the padding."""
    return slice(0, -d) if d < 0 else slice(max(n - d, 0), n)


def _zero_padding_taps(a, i, j, k):
    """Zero the entries of the [..., H, W] slab `a` of offset (i, j) whose tap
    lies in the padding."""
    p = (k - 1) // 2
    if i != p:
        a[..., _edge(i - p, a.shape[-2]), :] = 0.0
    if j != p:
        a[..., _edge(j - p, a.shape[-1])] = 0.0


def _flat_run(shape, k):
    """The zeroed flat run [A*M*H*W + 2(p*W + p)] for maps of shape
    [A, M, H, W], and the slice of the maps in it."""
    p, w, n = (k - 1) // 2, shape[-1], math.prod(shape)
    return np.zeros(n + 2 * (p * w + p)), slice(p * w + p, p * w + p + n)


def _window_matrix(x, k, stride):
    """[B,C,H,W] -> the stride-s window matrix [C,k,k,B,Ho,Wo], zero padded.

    Equal, value for value, to _windows(x, k, stride) moved to
    (c, i, j, b, h, w) order, the matrix einsum copies out of the window view.
    The stride-s window of output (y, x) is the stride-1 window of (s*y, s*x),
    so for s > 1 the stride-1 matrix's columns [..., ::s, ::s] are copied out.
    A 1x1 window has no padding: its matrix is channel-major x, one copy.
    """
    if k == 1:
        return x.transpose(1, 0, 2, 3)[:, None, None, :, ::stride, ::stride].copy()
    b, c, h, w = x.shape
    run, maps = _flat_run((c, b, h, w), k)
    run[maps].reshape(c, b, h, w)[...] = x.transpose(1, 0, 2, 3)
    n = b * h * w
    cols = np.empty((c, k, k, b, h, w))
    flat = cols.reshape(c, k, k, n)
    for i in range(k):
        for j in range(k):
            flat[:, i, j] = run[i * w + j:i * w + j + c * n].reshape(c, n)
            _zero_padding_taps(cols[:, i, j], i, j, k)
    return cols if stride == 1 else cols[..., ::stride, ::stride].copy()


def _window_operand(x, k, stride, groups):
    """The window operand einsum hands to matmul for the weight gradient of a
    convolution of G groups: [G, B*Ho*Wo, C/G*k*k] in (g,b,h,w,c,i,j) order.

    These are the stride-s windows of the zero-padded [G*B, C/G, H, W] view
    of [B,C,H,W] x, which is x itself for G = 1 and channel-major x for
    G = C. Where that reshape of the window view is a view, einsum hands BLAS
    the strided view, and so does this. Otherwise einsum copies the view k
    elements at a time; here one np.take gathers the same C-contiguous array
    through a flat offset index built for the call. For G = 1 at k = 1 that
    array is x moved to (b, h, w, c) order, one copy.
    """
    b, c, h, w = x.shape
    if k == 1 and groups == 1:
        # the view einsum would hand BLAS is one of the C-contiguous x, so x
        # is copied into xc only once the view is known to exist
        xc, shape = np.empty(x.shape), (1, -1, c)
        try:
            view = xc[:, :, ::stride, ::stride].transpose(0, 2, 3, 1).reshape(shape, copy=False)
        except ValueError:
            return np.ascontiguousarray(
                x[:, :, ::stride, ::stride].transpose(0, 2, 3, 1)).reshape(shape)
        xc[...] = x
        return view
    m, p = c // groups, (k - 1) // 2
    hp, wp = h + 2 * p, w + 2 * p
    xp = np.zeros((groups, b, m, hp, wp))
    xp[..., p:p + h, p:p + w] = x.reshape(b, groups, m, h, w).transpose(1, 0, 2, 3, 4)
    xp = xp.reshape(groups * b, m, hp, wp)
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    ho, wo = win.shape[2:4]
    shape = (groups, b * ho * wo, m * k * k)
    try:
        return win.transpose(0, 2, 3, 1, 4, 5).reshape(shape, copy=False)
    except ValueError:
        pass
    pixels = (np.arange(ho)[:, None] * (stride * wp) + np.arange(wo) * stride).reshape(-1)
    taps = (np.arange(k)[:, None] * wp + np.arange(k)).reshape(-1)
    index = pixels[:, None] + (np.arange(m)[:, None] * (hp * wp) + taps).reshape(-1)
    out = np.empty((groups * b,) + index.shape)
    # every index is in range; "clip" only skips take's buffered bounds check
    np.take(xp.reshape(groups * b, -1), index, axis=1, out=out, mode="clip")
    return out.reshape(shape)


def _padded_crop(shape, k):
    """An empty [B,C,H,W] array laid out as the crop of a [B,C,H+2p,W+2p]
    buffer: the reference's input-gradient layout, so that reductions over it
    sum in the same order."""
    p, (b, c, h, w) = (k - 1) // 2, shape
    return np.empty((b, c, h + 2 * p, w + 2 * p))[:, :, p:p + h, p:p + w]


def _scatter_windows(window_grad, out, k, stride):
    """Adjoint of the window gather: write into the [A,M,H,W] array `out` the
    sum, in i-then-j order, of window_grad(i, j), the [A,M,Ho,Wo] gradient at
    window offset (i, j); return out.

    Each offset is one add into the one flat run that holds every map back
    to back (see the window helpers for why one run), a contiguous 1-D ufunc
    call when window_grad returns a C-contiguous slab. Its padding taps,
    which would write into the neighbouring row, map or sample, are zeroed
    in the window gradient first, so window_grad must return an array this
    function may overwrite. A stride-s gradient is
    first spread over one zeroed [...,H,W] slab, since output (y, x) at
    stride s is stride-1 output (s*y, s*x). Every add the reference does not
    make adds +0.0, and the sums start at +0.0 and so never hold -0.0: each
    such add leaves the sum bitwise unchanged. A 1x1 window at stride 1 is
    that one add, +0.0 + window_grad(0, 0), written straight into out.
    """
    if k == 1 and stride == 1:
        return np.add(window_grad(0, 0), 0.0, out=out)
    shape, w = out.shape, out.shape[-1]
    acc, maps = _flat_run(shape, k)
    n = math.prod(shape)
    # each offset overwrites the strided entries; the others only ever get zeros
    spread = np.zeros(shape) if stride > 1 else None
    for i in range(k):
        for j in range(k):
            slab = window_grad(i, j)
            if stride > 1:
                spread[..., ::stride, ::stride] = slab
                slab = spread
            _zero_padding_taps(slab, i, j, k)
            acc[i * w + j:i * w + j + n] += slab.reshape(n)
    out[...] = acc[maps].reshape(shape)
    return out


@functools.cache
def _bilinear_matrix(out_size, in_size, scale):
    """Dense interpolation matrix for half-pixel bilinear resampling, built
    once per size and read-only."""
    m = np.zeros((out_size, in_size))
    for o in range(out_size):
        src = (o + 0.5) / scale - 0.5
        i0 = int(math.floor(src))
        w1 = src - i0
        i0c = min(max(i0, 0), in_size - 1)
        i1c = min(max(i0 + 1, 0), in_size - 1)
        m[o, i0c] += 1.0 - w1
        m[o, i1c] += w1
    m.flags.writeable = False
    return m


# ---------------------------------------------------------------------------
# Primitive forward/backward pairs
# ---------------------------------------------------------------------------

def _sample_tiles(x_shape, k):
    """The sample tiles of a G = 1 convolution with a k x k window: the fewest
    near-equal runs of samples whose stride-1 window matrix and flat run,
    (k*k + 1)*C*H*W doubles a sample, fit in TILE_BYTES."""
    n, c, h, w = x_shape
    return _runs(n, max(1, TILE_BYTES // ((k * k + 1) * c * h * w * 8)))


def _channel_blocks(c, pixels, k):
    """The input-channel blocks of a G = 1 conv weight gradient: the fewest
    near-equal runs of channels whose window operand, pixels*k*k doubles a
    channel, fits in TILE_BYTES."""
    return _runs(c, max(1, TILE_BYTES // (pixels * k * k * 8)))


def _conv_forward(x, w, b, stride):
    """[B,C,H,W] x convolved with the [O, C/G, k, k] weight w of G groups:
    G = 1 for a Conv or PointwiseConv, G = C for a DWConv."""
    o, cg, k = w.shape[0], w.shape[1], w.shape[-1]
    n = x.shape[0]
    groups = x.shape[1] // cg
    if cg * k * k == 1 or x.shape[3] <= stride:
        # einsum makes no matmul for a one-term contraction (a PointwiseConv
        # from one channel, a DWConv k1), and its output then has the memory
        # order of its window operand; on output maps one pixel wide its
        # matmul rounds differently from one on the window matrix
        win = _windows(x, k, stride)
        out = (np.einsum("bchwij,ocij->bohw", win, w, optimize=True) if groups == 1
               else np.einsum("bchwij,cij->bchw", win, w[:, 0], optimize=True))
        return out + b[None, :, None, None]

    def tile(s):
        # the batched matmul einsum makes, on equal operands, so equal bit for
        # bit; [O,b,Ho,Wo] in memory
        cols = _window_matrix(x[s], k, stride)
        out = (w.reshape(groups, o // groups, cg * k * k)
               @ cols.reshape(groups, cg * k * k, -1))
        return out.reshape((o,) + cols.shape[3:]).transpose(1, 0, 2, 3)
    # G = C (a DWConv) stays one product, since its matrix-vector products
    # round by column position
    tiles = _sample_tiles(x.shape, k) if groups == 1 else [slice(0, n)]
    return _joined(tile, tiles, (1, 0, 2, 3)) + b[None, :, None, None]

def _conv_backward(g, w, x, stride, input_grad, param_grads):
    """(dx, dw, db) of _conv_forward; dx is None without input_grad, dw and db
    without param_grads."""
    o, cg, k = w.shape[0], w.shape[1], w.shape[-1]
    n, c = x.shape[:2]
    groups = c // cg
    dx = dw = db = None
    # channel-major, and a contiguous copy unless g already is channel-major:
    # g is usually the crop of a padded buffer, on which each depthwise
    # product below would be several times slower
    go = g.transpose(1, 0, 2, 3).reshape(o, -1)
    if param_grads:
        # the batched matmul einsum makes: per group, g [O/G, B*Ho*Wo] @
        # windows [B*Ho*Wo, C/G*k*k], one contraction over B*Ho*Wo, since a
        # split one would sum in another order. For G = 1 and k > 1 that is
        # one product per block of input channels, which gathers the block's
        # window operand and fills its columns of dw. Each operand is freed
        # before dx.
        blocks = (_channel_blocks(c, go.shape[1], k) if groups == 1 and k > 1
                  else [slice(0, c)])
        dw = np.concatenate([go.reshape(groups, o // groups, -1)
                             @ _window_operand(x[:, s], k, stride, groups)
                             for s in blocks], axis=-1).reshape(w.shape)
        # over g in its own layout, which sets the order of the sum
        db = g.sum(axis=(0, 2, 3))
    if input_grad:
        dx = _padded_crop(x.shape, k)
        if groups == 1:
            # per sample tile; rows in (i, j, c) order, so each window
            # offset's slab t[i, j] is one contiguous [C,b,Ho,Wo] run;
            # permuting the rows of a matrix product leaves the order of each
            # dot product as it was. A matrix-vector product (one output
            # pixel at batch 1) sums a row in an order that depends on its
            # position, so there the rows keep einsum's order.
            gm = go.reshape(o, n, -1)

            # a function, so that each tile's product is freed before the
            # next one is made
            def tile(s):
                gs = gm[:, s].reshape(o, -1)
                grad_shape = (c, s.stop - s.start) + g.shape[2:]
                if gs.shape[1] > 1:
                    t = (w.transpose(2, 3, 1, 0).reshape(k * k * c, o) @ gs).reshape(
                        (k, k) + grad_shape)
                else:
                    t = (w.transpose(1, 2, 3, 0).reshape(c * k * k, o) @ gs).reshape(
                        (c, k, k) + grad_shape[1:]).transpose(1, 2, 0, 3, 4, 5)
                _scatter_windows(lambda i, j: t[i, j], dx[s].transpose(1, 0, 2, 3),
                                 k, stride)
            for s in _sample_tiles(x.shape, k):
                tile(s)
        else:
            # every window offset's depthwise product goes into the same buffer
            prod, grad_shape = np.empty(go.shape), (c, n) + g.shape[2:]
            window_grad = lambda i, j: np.multiply(
                go, w[:, 0, i, j, None], out=prod).reshape(grad_shape)
            _scatter_windows(window_grad, dx.transpose(1, 0, 2, 3), k, stride)
    return dx, dw, db


def _relu_forward(x, slope):
    mask = x > 0
    return np.where(mask, x, slope * x), mask

def _relu_backward(g, mask, slope):
    return np.where(mask, g, slope * g)


# ---------------------------------------------------------------------------
# Per-kind forward/backward: forward(m, x) -> (out, cache) and
# backward(m, g, cache, input_grad, param_grads) -> input gradient or None,
# for the ModuleInstance m
# ---------------------------------------------------------------------------

def _weighted(kernel_forward, kernel_backward):
    """The pair for a kind with one weight and one bias. A DWConv's [C,k,k]
    weight goes to the kernels as the [C,1,k,k] weight of C groups, and a
    resampler's [O,C] projection as an [O,C,1,1] one."""
    def weight(m):
        w = m.params["weight"].value
        if w.ndim == 2:
            return w[:, :, None, None]
        return w[:, None] if w.ndim == 3 else w

    def forward(m, x):
        return kernel_forward(x, weight(m), m.params["bias"].value, m.spec.stride), x

    def backward(m, g, x, input_grad, param_grads):
        dx, dw, db = kernel_backward(g, weight(m), x, m.spec.stride,
                                     input_grad, param_grads)
        if param_grads:
            m.params["weight"].grad += dw.reshape(m.params["weight"].grad.shape)
            m.params["bias"].grad += db
        return dx
    return forward, backward


# Conv, PointwiseConv and DWConv, and a resampler's projection: one
# convolution of G groups
_CONV = _weighted(_conv_forward, _conv_backward)


def _mbconv(m, x):
    # the children run through ModuleInstance.forward/backward, so each is
    # checked, and traced, as an op of its own kind
    s, ch = m.spec, m._children
    act1, m1 = _relu_forward(ch["expand"].forward(x), 0.0)
    act2, m2 = _relu_forward(ch["dw"].forward(act1), 0.0)
    out = ch["project"].forward(act2)
    residual = s.in_channels == s.out_channels and s.stride == 1
    return (out + x if residual else out), (m1, m2, residual)

def _mbconv_backward(m, g, cache, input_grad, param_grads):
    m1, m2, residual = cache
    ch = m._children
    d = _relu_backward(ch["project"].backward(g, param_grads=param_grads), m2, 0.0)
    d = _relu_backward(ch["dw"].backward(d, param_grads=param_grads), m1, 0.0)
    d = ch["expand"].backward(d, input_grad, param_grads)
    return d + g if residual and input_grad else d


def _avgpool(m, x):
    s = m.spec
    return _windows(x, s.kernel, s.stride).mean(axis=(-1, -2)), x.shape

def _avgpool_backward(m, g, shape, input_grad, param_grads):
    s = m.spec
    gk = g / (s.kernel * s.kernel)
    # the scatter zeroes each slab's padding taps: one copy per offset
    return _scatter_windows(lambda i, j: gk.copy(), _padded_crop(shape, s.kernel),
                            s.kernel, s.stride)


def _maxpool(m, x):
    s = m.spec
    # -inf padding: a border window's max comes from the input alone
    win = _windows(x, s.kernel, s.stride, -np.inf)
    flat = win.reshape(win.shape[:4] + (s.kernel * s.kernel,))
    idx = flat.argmax(axis=-1)
    return np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0], (x.shape, idx)

def _maxpool_backward(m, g, cache, input_grad, param_grads):
    s, (shape, idx) = m.spec, cache
    # offset-major, so each offset's slab t[i*k + j] is contiguous
    t = np.zeros((s.kernel * s.kernel,) + g.shape)
    np.put_along_axis(t, idx[None], g[None], axis=0)
    return _scatter_windows(lambda i, j: t[i * s.kernel + j], _padded_crop(shape, s.kernel),
                            s.kernel, s.stride)


def _repeat(x, r):
    """A new C-contiguous array whose [..., rH, rW] maps hold each value of
    the [..., H, W] maps of x in its r x r block of pixels: nearest
    resampling by r."""
    *lead, h, w = x.shape
    out = np.empty((*lead, h * r, w * r))
    out.reshape(*lead, h, r, w, r, copy=False)[...] = x[..., :, None, :, None]
    return out


def _resampler(maps):
    """The pair for a resampler kind: an optional 1x1 projection, then
    resampling by r. maps(m, x_shape) gives, for [B,C,H,W] input maps,
    resample(y), the map of [B,O,H,W] maps y resampled to [B,O,rH,rW], and
    unsample(d), the gradient of y for the map's gradient d.

    A projecting resampler's projection is the conv kernel pair at k = 1,
    with the op's own weight and bias, run at input resolution: a 1x1
    projection commutes with a per-channel linear resampler, and run first
    it makes 1/r^2 of the multiply-adds, on maps r^2 times smaller. It
    keeps its input x from forward to backward."""
    def forward(m, x):
        shape, kept = x.shape, None
        if "weight" in m.params:
            x, kept = _CONV[0](m, x)
        return maps(m, shape)[0](x), (shape, kept)

    def backward(m, g, cache, input_grad, param_grads):
        shape, x = cache
        d = maps(m, shape)[1](g)
        return d if x is None else _CONV[1](m, d, x, input_grad, param_grads)
    return forward, backward


def _block_sum(d, r):
    """The sum of each r x r block of the [B,C,rH,rW] maps d, as plain adds of
    the strided views dij of block entry (i, j): each row of the block
    summed in j order, the first from +0.0, then the rows in i order. At
    r = 2 that is ((0.0 + d00) + d01) + (d10 + d11), numpy's own order for
    sum(axis=(3, 5)) on maps more than one pixel wide."""
    b, c, hh, ww = d.shape
    blocks = d.reshape(b, c, hh // r, r, ww // r, r)
    tap = lambda i, j: blocks[:, :, :, i, :, j]
    total = tap(0, 0) + 0.0
    for j in range(1, r):
        total += tap(0, j)
    for i in range(1, r):
        row = tap(i, 0) + tap(i, 1)
        for j in range(2, r):
            row += tap(i, j)
        total += row
    return total


def _nearest_maps(m, x_shape):
    """Nearest resampling: each value repeated over its r x r block."""
    r = m.spec.scale_factor
    return functools.partial(_repeat, r=r), functools.partial(_block_sum, r=r)


def _bilinear_maps(m, x_shape):
    """Half-pixel bilinear resampling by dense interpolation matrices."""
    r, (_, _, h, wd) = m.spec.scale_factor, x_shape
    mh, mw = _bilinear_matrix(h * r, h, r), _bilinear_matrix(wd * r, wd, r)
    return (lambda y: _einsum("hH,bcHW,wW->bchw", mh, y, mw),
            lambda d: _einsum("hH,bchw,wW->bcHW", mh, d, mw))


def _depth_to_space(m, x):
    r = m.spec.scale_factor
    b, c, hh, ww = x.shape
    return (x.reshape(b, c // (r * r), r, r, hh, ww)
             .transpose(0, 1, 4, 2, 5, 3)
             .reshape(b, c // (r * r), hh * r, ww * r)), x.shape

def _depth_to_space_backward(m, g, shape, input_grad, param_grads):
    r = m.spec.scale_factor
    b, c, hh, ww = shape
    return (g.reshape(b, c // (r * r), hh, r, ww, r)
             .transpose(0, 1, 3, 5, 2, 4)
             .reshape(b, c, hh, ww))


def _linear(m, x):
    flat = x.reshape(x.shape[0], -1)
    out = flat @ m.params["weight"].value.T + m.params["bias"].value
    return out[:, :, None, None], (flat, x.shape)

def _linear_backward(m, g, cache, input_grad, param_grads):
    flat, xshape = cache
    g2 = g[:, :, 0, 0]
    if param_grads:
        m.params["weight"].grad += g2.T @ flat
        m.params["bias"].grad += g2.sum(axis=0)
    return (g2 @ m.params["weight"].value).reshape(xshape) if input_grad else None


_ACTIVATION = (lambda m, x: _relu_forward(x, m.spec.activation_slope),
               lambda m, g, mask, *_: _relu_backward(g, mask, m.spec.activation_slope))

# The kernels of each kind. The rest of a kind's facts are in graph.KINDS, which
# imports no kernels.
KERNELS = {
    OpKind.Conv: _CONV,
    OpKind.DWConv: _CONV,
    OpKind.PointwiseConv: _CONV,
    OpKind.MBConv: (_mbconv, _mbconv_backward),
    OpKind.AvgPool: (_avgpool, _avgpool_backward),
    OpKind.MaxPool: (_maxpool, _maxpool_backward),
    OpKind.Identity: (lambda m, x: (x, ()), lambda m, g, *_: g),
    OpKind.ReLU: _ACTIVATION,
    OpKind.LeakyReLU: _ACTIVATION,
    OpKind.UpsampleNearest: _resampler(_nearest_maps),
    OpKind.UpsampleBilinear: _resampler(_bilinear_maps),
    OpKind.DepthToSpace: (_depth_to_space, _depth_to_space_backward),
    OpKind.Linear: (_linear, _linear_backward),
}


class ModuleInstance:
    """One operator with its parameters and retained forward activations.

    Single-threaded during forward/backward; distinct instances are
    independent. Gradients accumulate into Parameter.grad until zeroed.
    """

    def __init__(self, spec: OperatorSpec, rng: np.random.Generator):
        self.spec = spec
        self.params: dict = {}
        self._cache = None
        self._children: dict = {}
        self._init_params(rng)

    def _init_params(self, rng):
        """A composite kind's children in table order, sharing their
        parameters under "<child>.<name>"; otherwise each table weight drawn
        Kaiming-uniform over its fan-in shape[1:], each bias zeros."""
        rule = KINDS[self.spec.kind]
        for cname, child_spec in rule.children(self.spec).items():
            child = self._children[cname] = ModuleInstance(child_spec, rng)
            for pname, p in child.params.items():
                self.params[f"{cname}.{pname}"] = p
        if self._children:
            return
        for name, shape in rule.params(self.spec).items():
            self.params[name] = Parameter(
                np.zeros(shape) if name == "bias"
                else _kaiming_uniform(shape, math.prod(shape[1:]), rng))

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def forward(self, x: np.ndarray) -> np.ndarray:
        s = self.spec
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4:
            raise ShapeMismatch(f"expected [B,C,H,W] input, got ndim={x.ndim}")
        expect = output_shape(s, TensorShape(*x.shape[1:]))  # raises on channel mismatch
        out, self._cache = KERNELS[s.kind][0](self, x)
        if out.shape[1:] != (expect.channels, expect.height, expect.width):
            raise ShapeMismatch(
                f"{s.kind.value}: produced {out.shape[1:]}, expected {expect}")
        return out

    def backward(self, g: np.ndarray, input_grad: bool = True,
                 param_grads: bool = True):
        """Accumulate parameter grads; return the gradient w.r.t. the input.

        `input_grad=False` returns None and skips the input gradient;
        `param_grads=False` leaves every Parameter.grad untouched. Both
        release the retained forward.
        """
        if self._cache is None:
            raise StaleState(f"{self.spec.kind.value}: backward without retained forward")
        cache, self._cache = self._cache, None
        param_grads = param_grads and bool(self.params)
        if not (input_grad or param_grads):
            return None
        g = np.asarray(g, dtype=np.float64)
        return KERNELS[self.spec.kind][1](self, g, cache, input_grad, param_grads)


# ---------------------------------------------------------------------------
# Losses and optimizer
# ---------------------------------------------------------------------------

def loss_ce(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch; returns (loss, dloss/dlogits)."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2 or logits.shape[0] != labels.shape[0]:
        raise ShapeMismatch(f"logits {logits.shape} vs labels {labels.shape}")
    if labels.size and not 0 <= labels.min() <= labels.max() < logits.shape[1]:
        raise ShapeMismatch(f"labels must lie in [0, {logits.shape[1]}), the logit indices")
    b = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1)
    loss = float(np.mean(np.log(total) - z[np.arange(b), labels]))
    grad = e / total[:, None]
    grad[np.arange(b), labels] -= 1.0
    return loss, grad / b


def loss_mse(pred: np.ndarray, target: np.ndarray):
    """Mean squared error over all elements; returns (loss, dloss/dpred)."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"pred {pred.shape} vs target {target.shape}")
    diff = pred - target
    return float(np.mean(diff ** 2)), 2.0 * diff / diff.size


def sgd_step(params, lr: float, weight_decay: float = 0.0) -> None:
    """value <- value - lr*(grad + 2*weight_decay*value); grads zeroed."""
    for p in params:
        p.value -= lr * (p.grad + 2.0 * weight_decay * p.value)
        p.zero_grad()


# ---------------------------------------------------------------------------
# Checkpoint I/O
# ---------------------------------------------------------------------------

def save_checkpoint(named_params: dict, path) -> None:
    doc = {"version": CHECKPOINT_VERSION,
           "params": {name: array_to_json(p.value) for name, p in named_params.items()}}
    write_object(path, doc)


def load_checkpoint(named_params: dict, path) -> None:
    doc = read_object(path)
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ParseError(f"unsupported checkpoint version {doc.get('version')!r}", str(path))
    stored = field(doc, "params", dict, path)
    if set(stored) != set(named_params):
        raise ParseError("checkpoint parameter names do not match model", str(path))
    for name, p in named_params.items():
        p.value[...] = array_from_json(stored[name], p.value.shape, f"{path}: {name}")
