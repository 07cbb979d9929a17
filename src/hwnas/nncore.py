"""Minimal reverse-mode compute core over float64 numpy arrays.

Covers forward/backward for every OperatorSpec kind, cross-entropy and MSE
losses, a plain SGD step with L2 weight decay, and a central finite-difference
gradient checker. Desk-scale only.

A backward pass computes only what its caller reads: it can skip the input
gradient (the first layer of a net) or the parameter gradients (architecture
steps, where weights are frozen). Stride-1 Conv, DWConv and PointwiseConv
build their forward window matrix from flat runs of whole maps, one copy per
window offset, and every window-gradient scatter (those three, strided convs
and the pools) adds flat runs the same way (see the window helpers). Every
value a kernel computes, and the memory layout of its output and input
gradient, is bitwise equal to the plain einsum formulation (sliding windows,
one einsum per product, window gradients scattered in i-then-j order), so
seeded runs stay reproducible; tests/test_kernels.py holds that reference.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParseError, ShapeMismatch, StaleState
from .graph import OperatorSpec, OpKind, TensorShape, output_shape
from .jsonio import array_from_json, array_to_json, field, read_object, write_object

CHECKPOINT_VERSION = 1


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
# Window helpers shared by conv / depthwise / pooling
# ---------------------------------------------------------------------------

def _windows(x, k, stride, pad, pad_value=0.0):
    """[B,C,H,W] -> sliding windows [B,C,Ho,Wo,k,k] over padded input."""
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=pad_value)
    return sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]


# Stride-1 windows over flat runs. Every spatial op pads by p = (k-1)//2.
# The [H,W] maps that follow one index of the leading axis (a channel of the
# window matrix, a channel or a sample of the scatter) are stored back to
# back as one flat run, with p*W + p zeros at each end and no padding rows or
# columns. Window offset (i, j) of every output pixel is then the flat shift
# i*W + j, so one copy or add moves a whole run. A shift makes the taps that
# fall in the padding read or write the neighbouring row or map instead:
# |i - p| rows at the top or bottom of each map and |j - p| columns at its
# left or right. Those entries are set to +0.0.

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


def _flat_runs(shape, k):
    """Zeroed [A, M*H*W + 2(p*W + p)] runs for maps of shape [A, M, H, W], and
    the slice of the maps in each run."""
    a, m, h, w = shape
    p, n = (k - 1) // 2, m * h * w
    return np.zeros((a, n + 2 * (p * w + p))), slice(p * w + p, p * w + p + n)


def _window_matrix(x, k):
    """[B,C,H,W] -> the stride-1 window matrix [C,k,k,B,H*W], zero padded.

    Equal, value for value, to _windows(x, k, 1, p) moved to (c, i, j, b, h, w)
    order, the matrix einsum copies out of the window view.
    """
    b, c, h, w = x.shape
    runs, maps = _flat_runs((c, b, h, w), k)
    runs[:, maps].reshape(c, b, h, w)[...] = x.transpose(1, 0, 2, 3)
    n = b * h * w
    cols = np.empty((c, k, k, n))
    grid = cols.reshape(c, k, k, b, h, w)
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = runs[:, i * w + j:i * w + j + n]
            _zero_padding_taps(grid[:, i, j], i, j, k)
    return cols


def _scatter_windows(window_grad, shape, k, stride, channel_major=False):
    """Adjoint of the window gather: the [B,C,H,W] sum, in i-then-j order, of
    window_grad(i, j), the [B,C,Ho,Wo] gradient at window offset (i, j)
    ([C,B,...] in `shape` and window_grad with `channel_major`).

    Each offset is one add of flat runs. Its padding taps are zeroed in the
    window gradient first, so window_grad must return an array this function
    may overwrite. A stride-s gradient is first spread over a zeroed
    [...,H,W] slab, since output (y, x) at stride s is stride-1 output
    (s*y, s*x). Every add the reference does not make adds +0.0, and the
    sums start at +0.0 and so never hold -0.0: each such add leaves the sum
    bitwise unchanged. The result is copied into the crop of a
    [B,C,H+2p,W+2p] buffer, the reference layout, so that reductions over it
    sum in the same order.
    """
    a, m, h, w = shape
    acc, maps = _flat_runs(shape, k)
    n = m * h * w
    for i in range(k):
        for j in range(k):
            slab = window_grad(i, j)
            if stride > 1:
                spread = np.zeros(shape)
                spread[..., ::stride, ::stride] = slab
                slab = spread
            _zero_padding_taps(slab, i, j, k)
            acc[:, i * w + j:i * w + j + n] += slab.reshape(a, n)
    dx = acc[:, maps].reshape(shape)
    if channel_major:
        dx = dx.transpose(1, 0, 2, 3)
    p = (k - 1) // 2
    buf = np.empty(dx.shape[:2] + (h + 2 * p, w + 2 * p))
    crop = buf[:, :, p:p + h, p:p + w]
    crop[...] = dx
    return crop


def _bilinear_matrix(out_size, in_size, scale):
    """Dense interpolation matrix for half-pixel bilinear resampling."""
    m = np.zeros((out_size, in_size))
    for o in range(out_size):
        src = (o + 0.5) / scale - 0.5
        i0 = int(math.floor(src))
        w1 = src - i0
        i0c = min(max(i0, 0), in_size - 1)
        i1c = min(max(i0 + 1, 0), in_size - 1)
        m[o, i0c] += 1.0 - w1
        m[o, i1c] += w1
    return m


# ---------------------------------------------------------------------------
# Primitive forward/backward pairs
# ---------------------------------------------------------------------------

def _conv_forward(x, w, b, stride, pad):
    o, c, k = w.shape[0], w.shape[1], w.shape[-1]
    if stride == 1:
        # the matmul einsum makes, on equal operands, so equal bit for bit
        n, _, h, ww = x.shape
        cols = _window_matrix(x, k).reshape(c * k * k, n * h * ww)
        out = (w.reshape(o, c * k * k) @ cols).reshape(o, n, h, ww).transpose(1, 0, 2, 3)
    else:
        out = np.einsum("bchwij,ocij->bohw", _windows(x, k, stride, pad), w, optimize=True)
    return out + b[None, :, None, None]

def _conv_backward(g, w, x, stride, pad, input_grad, param_grads):
    """(dx, dw, db); dx is None without input_grad, dw and db without param_grads."""
    k = w.shape[-1]
    dx = dw = db = None
    if param_grads:
        dw = np.einsum("bchwij,bohw->ocij", _windows(x, k, stride, pad), g, optimize=True)
        db = g.sum(axis=(0, 2, 3))
    if input_grad:
        # channel-major, so each window offset's slab t[:, i, j] is one
        # contiguous [B,H,W] run per channel
        t = np.einsum("bohw,ocij->cijbhw", g, w, optimize=True)
        n, c, h, ww = x.shape
        dx = _scatter_windows(lambda i, j: t[:, i, j], (c, n, h, ww), k, stride,
                              channel_major=True)
    return dx, dw, db


def _dwconv_forward(x, w, b, stride, pad):
    c, k = w.shape[0], w.shape[-1]
    if stride == 1:
        # the batched matmul einsum makes, on equal operands
        n, _, h, ww = x.shape
        cols = _window_matrix(x, k).reshape(c, k * k, n * h * ww)
        out = (w.reshape(c, 1, k * k) @ cols).reshape(c, n, h, ww).transpose(1, 0, 2, 3)
    else:
        out = np.einsum("bchwij,cij->bchw", _windows(x, k, stride, pad), w, optimize=True)
    return out + b[None, :, None, None]

def _dwconv_backward(g, w, x, stride, pad, input_grad, param_grads):
    """(dx, dw, db); dx is None without input_grad, dw and db without param_grads."""
    c, k = w.shape[0], w.shape[-1]
    dx = dw = db = None
    if param_grads:
        # per channel: g [1, B*Ho*Wo] @ windows [B*Ho*Wo, k*k]
        win = _windows(x, k, stride, pad)
        cols = win.transpose(1, 0, 2, 3, 4, 5).reshape(c, -1, k * k)
        dw = (g.transpose(1, 0, 2, 3).reshape(c, 1, -1) @ cols).reshape(w.shape)
        db = g.sum(axis=(0, 2, 3))
    if input_grad:
        dx = _scatter_windows(lambda i, j: g * w[None, :, i, j, None, None],
                              x.shape, k, stride)
    return dx, dw, db


def _relu_forward(x, slope):
    mask = x > 0
    return np.where(mask, x, slope * x), mask

def _relu_backward(g, mask, slope):
    return np.where(mask, g, slope * g)


class ModuleInstance:
    """One operator with its parameters and retained forward activations.

    Single-threaded during forward/backward; distinct instances are
    independent. Gradients accumulate into Parameter.grad until zeroed.
    """

    def __init__(self, spec: OperatorSpec, rng: np.random.Generator):
        spec.validate_fields()
        self.spec = spec
        self.params: dict = {}
        self._cache = None
        self._children: dict = {}
        self._init_params(rng)

    # -- parameter construction ------------------------------------------------

    def _init_params(self, rng):
        s = self.spec
        k = s.kind
        if k is OpKind.Conv:
            fan = s.in_channels * s.kernel * s.kernel
            self.params["weight"] = Parameter(
                _kaiming_uniform((s.out_channels, s.in_channels, s.kernel, s.kernel), fan, rng))
            self.params["bias"] = Parameter(np.zeros(s.out_channels))
        elif k is OpKind.DWConv:
            fan = s.kernel * s.kernel
            self.params["weight"] = Parameter(
                _kaiming_uniform((s.in_channels, s.kernel, s.kernel), fan, rng))
            self.params["bias"] = Parameter(np.zeros(s.in_channels))
        elif k is OpKind.PointwiseConv:
            self.params["weight"] = Parameter(
                _kaiming_uniform((s.out_channels, s.in_channels, 1, 1), s.in_channels, rng))
            self.params["bias"] = Parameter(np.zeros(s.out_channels))
        elif k is OpKind.Linear:
            self.params["weight"] = Parameter(
                _kaiming_uniform((s.out_channels, s.in_channels), s.in_channels, rng))
            self.params["bias"] = Parameter(np.zeros(s.out_channels))
        elif k is OpKind.MBConv:
            h = s.hidden_channels
            self._children["expand"] = ModuleInstance(
                OperatorSpec(OpKind.PointwiseConv, s.in_channels, h), rng)
            self._children["dw"] = ModuleInstance(
                OperatorSpec(OpKind.DWConv, h, h, kernel=s.kernel, stride=s.stride), rng)
            self._children["project"] = ModuleInstance(
                OperatorSpec(OpKind.PointwiseConv, h, s.out_channels), rng)
            for cname, child in self._children.items():
                for pname, p in child.params.items():
                    self.params[f"{cname}.{pname}"] = p
        elif k in (OpKind.UpsampleNearest, OpKind.UpsampleBilinear):
            if s.out_channels != s.in_channels:
                # learned pointwise projection after resampling
                self.params["weight"] = Parameter(
                    _kaiming_uniform((s.out_channels, s.in_channels), s.in_channels, rng))
                self.params["bias"] = Parameter(np.zeros(s.out_channels))
        # Identity / ReLU / LeakyReLU / pools / DepthToSpace carry no parameters.

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    # -- forward ----------------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        s = self.spec
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4:
            raise ShapeMismatch(f"expected [B,C,H,W] input, got ndim={x.ndim}")
        in_shape = TensorShape(x.shape[1], x.shape[2], x.shape[3])
        expect = output_shape(s, in_shape)  # raises on channel mismatch
        k = s.kind

        if k is OpKind.Identity:
            out, self._cache = x, ()
        elif k in (OpKind.ReLU, OpKind.LeakyReLU):
            out, mask = _relu_forward(x, s.activation_slope)
            self._cache = (mask,)
        elif k in (OpKind.Conv, OpKind.PointwiseConv, OpKind.DWConv):
            kernel_forward = _dwconv_forward if k is OpKind.DWConv else _conv_forward
            out = kernel_forward(x, self.params["weight"].value,
                                 self.params["bias"].value, s.stride, s.padding)
            self._cache = (x,)
        elif k is OpKind.MBConv:
            out = self._mbconv_forward(x)
        elif k is OpKind.AvgPool:
            out = _windows(x, s.kernel, s.stride, s.padding).mean(axis=(-1, -2))
            self._cache = (x.shape,)
        elif k is OpKind.MaxPool:
            # -inf padding: a border window's max comes from the input alone
            win = _windows(x, s.kernel, s.stride, s.padding, -np.inf)
            flat = win.reshape(win.shape[:4] + (s.kernel * s.kernel,))
            idx = flat.argmax(axis=-1)
            out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
            self._cache = (x.shape, idx)
        elif k is OpKind.UpsampleNearest:
            r = s.scale_factor
            up = x.repeat(r, axis=2).repeat(r, axis=3)
            out = self._project(up)
        elif k is OpKind.UpsampleBilinear:
            r = s.scale_factor
            mh = _bilinear_matrix(x.shape[2] * r, x.shape[2], r)
            mw = _bilinear_matrix(x.shape[3] * r, x.shape[3], r)
            up = np.einsum("hH,bcHW,wW->bchw", mh, x, mw, optimize=True)
            out = self._project(up, extra=(mh, mw))
        elif k is OpKind.DepthToSpace:
            r = s.scale_factor
            b, c, hh, ww = x.shape
            co = c // (r * r)
            out = (x.reshape(b, co, r, r, hh, ww)
                    .transpose(0, 1, 4, 2, 5, 3)
                    .reshape(b, co, hh * r, ww * r))
            self._cache = (x.shape,)
        elif k is OpKind.Linear:
            flat = x.reshape(x.shape[0], -1)
            out = (flat @ self.params["weight"].value.T
                   + self.params["bias"].value)[:, :, None, None]
            self._cache = (flat, x.shape)
        else:  # pragma: no cover
            raise ShapeMismatch(f"unhandled kind {k}")

        if out.shape[1:] != (expect.channels, expect.height, expect.width):
            raise ShapeMismatch(
                f"{k.value}: produced {out.shape[1:]}, expected {expect}")
        return out

    def _project(self, up, extra=()):
        """Optional channel projection for upsample kinds; caches for backward."""
        if "weight" in self.params:
            out = np.einsum("oc,bchw->bohw", self.params["weight"].value[:, :], up, optimize=True) \
                + self.params["bias"].value[None, :, None, None]
            self._cache = (up.shape, up) + extra
        else:
            out = up
            self._cache = (up.shape,) + extra
        return out

    def _mbconv_forward(self, x):
        s = self.spec
        exp = self._children["expand"].forward(x)
        act1, m1 = _relu_forward(exp, 0.0)
        dw = self._children["dw"].forward(act1)
        act2, m2 = _relu_forward(dw, 0.0)
        out = self._children["project"].forward(act2)
        residual = s.in_channels == s.out_channels and s.stride == 1
        if residual:
            out = out + x
        self._cache = (m1, m2, residual)
        return out

    # -- backward ---------------------------------------------------------------

    def backward(self, g: np.ndarray, input_grad: bool = True,
                 param_grads: bool = True):
        """Accumulate parameter grads; return the gradient w.r.t. the input.

        `input_grad=False` returns None and skips the input gradient;
        `param_grads=False` leaves every Parameter.grad untouched. Both
        release the retained forward.
        """
        if self._cache is None:
            raise StaleState(f"{self.spec.kind.value}: backward without retained forward")
        s, k, cache = self.spec, self.spec.kind, self._cache
        self._cache = None
        param_grads = param_grads and bool(self.params)
        if not (input_grad or param_grads):
            return None
        g = np.asarray(g, dtype=np.float64)

        if k is OpKind.Identity:
            return g
        if k in (OpKind.ReLU, OpKind.LeakyReLU):
            return _relu_backward(g, cache[0], s.activation_slope)
        if k in (OpKind.Conv, OpKind.PointwiseConv, OpKind.DWConv):
            kernel_backward = _dwconv_backward if k is OpKind.DWConv else _conv_backward
            dx, dw, db = kernel_backward(g, self.params["weight"].value, cache[0],
                                         s.stride, s.padding, input_grad, param_grads)
            if param_grads:
                self.params["weight"].grad += dw
                self.params["bias"].grad += db
            return dx
        if k is OpKind.MBConv:
            m1, m2, residual = cache
            d = self._children["project"].backward(g, param_grads=param_grads)
            d = _relu_backward(d, m2, 0.0)
            d = self._children["dw"].backward(d, param_grads=param_grads)
            d = _relu_backward(d, m1, 0.0)
            d = self._children["expand"].backward(d, input_grad, param_grads)
            return d + g if residual and input_grad else d
        if k is OpKind.AvgPool:
            gk = g / (s.kernel * s.kernel)
            # the scatter zeroes each slab's padding taps: one copy per offset
            return _scatter_windows(lambda i, j: gk.copy(), cache[0], s.kernel, s.stride)
        if k is OpKind.MaxPool:
            shape, idx = cache
            # offset-major, so each offset's slab t[i*k + j] is contiguous
            t = np.zeros((s.kernel * s.kernel,) + g.shape)
            np.put_along_axis(t, idx[None], g[None], axis=0)
            return _scatter_windows(lambda i, j: t[i * s.kernel + j], shape,
                                    s.kernel, s.stride)
        if k in (OpKind.UpsampleNearest, OpKind.UpsampleBilinear):
            dup = self._unproject(g, cache, input_grad, param_grads)
            if dup is None:
                return None
            if k is OpKind.UpsampleBilinear:
                mh, mw = cache[-2], cache[-1]
                return np.einsum("hH,bchw,wW->bcHW", mh, dup, mw, optimize=True)
            r = s.scale_factor
            b, c, hh, ww = dup.shape
            return dup.reshape(b, c, hh // r, r, ww // r, r).sum(axis=(3, 5))
        if k is OpKind.DepthToSpace:
            r = s.scale_factor
            b, c, hh, ww = cache[0]
            co = c // (r * r)
            return (g.reshape(b, co, hh, r, ww, r)
                     .transpose(0, 1, 3, 5, 2, 4)
                     .reshape(b, c, hh, ww))
        if k is OpKind.Linear:
            flat, xshape = cache
            g2 = g[:, :, 0, 0]
            if param_grads:
                self.params["weight"].grad += g2.T @ flat
                self.params["bias"].grad += g2.sum(axis=0)
            return (g2 @ self.params["weight"].value).reshape(xshape) if input_grad else None
        raise ShapeMismatch(f"unhandled kind {k}")  # pragma: no cover

    def _unproject(self, g, cache, input_grad, param_grads):
        """Backward of the optional projection: the resampled map's gradient."""
        if "weight" not in self.params:
            return g
        if param_grads:
            up = cache[1]
            self.params["weight"].grad += np.einsum("bohw,bchw->oc", g, up, optimize=True)
            self.params["bias"].grad += g.sum(axis=(0, 2, 3))
        if not input_grad:
            return None
        return np.einsum("oc,bohw->bchw", self.params["weight"].value, g, optimize=True)


def parameter_count(spec: OperatorSpec) -> int:
    """Number of learnable scalars an instance of `spec` carries."""
    s, k = spec, spec.kind
    if k is OpKind.Conv:
        return s.out_channels * s.in_channels * s.kernel ** 2 + s.out_channels
    if k is OpKind.DWConv:
        return s.in_channels * s.kernel ** 2 + s.in_channels
    if k is OpKind.PointwiseConv:
        return s.out_channels * s.in_channels + s.out_channels
    if k is OpKind.Linear:
        return s.out_channels * s.in_channels + s.out_channels
    if k is OpKind.MBConv:
        h = s.hidden_channels
        return (s.in_channels * h + h) + (h * s.kernel ** 2 + h) \
            + (h * s.out_channels + s.out_channels)
    if k in (OpKind.UpsampleNearest, OpKind.UpsampleBilinear) \
            and s.out_channels != s.in_channels:
        return s.out_channels * s.in_channels + s.out_channels
    return 0


# ---------------------------------------------------------------------------
# Losses and optimizer
# ---------------------------------------------------------------------------

def loss_ce(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch; returns (loss, dloss/dlogits)."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2 or logits.shape[0] != labels.shape[0]:
        raise ShapeMismatch(f"logits {logits.shape} vs labels {labels.shape}")
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
# Finite-difference gradient checking
# ---------------------------------------------------------------------------

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

    def rel(a, f):
        return abs(a - f) / max(abs(a), abs(f), 1e-6)

    report = {"per_param": {}, "input_rel_err": 0.0}
    worst = 0.0
    for name, p in instance.params.items():
        analytic = p.grad.copy()
        flat = p.value.reshape(-1)
        err = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = objective()
            flat[i] = orig - step
            lo = objective()
            flat[i] = orig
            err = max(err, rel(analytic.reshape(-1)[i], (hi - lo) / (2 * step)))
        report["per_param"][name] = err
        worst = max(worst, err)

    xflat = x.reshape(-1)
    dxflat = dx.reshape(-1)
    ierr = 0.0
    for i in range(xflat.size):
        orig = xflat[i]
        xflat[i] = orig + step
        hi = objective()
        xflat[i] = orig - step
        lo = objective()
        xflat[i] = orig
        ierr = max(ierr, rel(dxflat[i], (hi - lo) / (2 * step)))
    report["input_rel_err"] = ierr
    report["max_rel_err"] = max(worst, ierr)
    instance.zero_grad()
    instance._cache = None
    return report


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
