"""Small fully connected networks with hand-written backprop.

Everything runs in float64 on a single flat parameter vector so that
checkpoints are trivially bit-exact and analytic gradients can be checked
against central finite differences. One forward and one backward (`_FlatMlp`)
serve both networks: the diffusion denoiser (`DenoiserNetwork`, with a skip
from hidden layer 1 to hidden layer 3) and the feedforward localizer (`Mlp`,
no skip).

Every matrix product of `_FlatMlp` runs on one BLAS thread: `_forward` and
`_backward` pin the OpenBLAS that numpy loaded to one thread and restore the
previous count on the way out. A threaded GEMM may split and sum a product
differently, so this keeps model bits independent of the core count; at these
sizes (tens to hundreds of rows) a second thread also saves no time. Other
products, such as the kNN prefilter, keep the library's threading. Where no
OpenBLAS thread API is found (another BLAS, or no `/proc/self/maps` to find
it in), the pin does nothing and the bits follow that library's threading.

Every call computes into a `Workspace`, the buffers of every layer for one
leading input shape. A training or sampling loop makes one and passes it to
each call, so a step allocates no layer-sized array; what a call returns stays
valid until the next call on the same workspace. Public calls without a
workspace make a fresh one, so their results alias nothing. The bits are those
of fresh arrays: each element goes through the same ufunc or GEMM in the same
order, and `out=` only moves where the result lands.
"""

from __future__ import annotations

import copy
import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError


def _sigmoid(x, out=None, e=None):
    """The logistic function of `x`, written into `out` with `e` as scratch.

    exp(-|x|) never overflows. Per entry this computes 1/(1+exp(-x)) for
    x >= 0 and exp(x)/(1+exp(x)) otherwise: the numerator max(e, x >= 0) is 1
    where x >= 0 (there e <= 1) and e elsewhere, and NaN where x is NaN.
    """
    if out is None:
        out = np.empty_like(x)
    e = np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.greater_equal(x, 0.0, out=out)
    np.maximum(e, out, out=out)
    e += 1.0
    out /= e
    return out


# Activations work in place on workspace buffers: forward(z, a, s, tmp) writes
# the activation into `a` and what the derivative needs into `s`;
# backward(z, a, s, d, tmp) multiplies `d` by the derivative. `tmp` is scratch.


def _silu_forward(z, a, s, tmp):
    _sigmoid(z, s, tmp)
    np.multiply(z, s, out=a)


def _silu_backward(z, a, s, d, tmp):
    # s * (1 + z * (1 - s))
    np.subtract(1.0, s, out=tmp)
    tmp *= z
    tmp += 1.0
    tmp *= s
    d *= tmp


def _tanh_forward(z, a, s, tmp):
    np.tanh(z, out=a)


def _tanh_backward(z, a, s, d, tmp):
    # 1 - a * a
    np.multiply(a, a, out=tmp)
    np.subtract(1.0, tmp, out=tmp)
    d *= tmp


ACTIVATIONS = {"silu": (_silu_forward, _silu_backward), "tanh": (_tanh_forward, _tanh_backward)}


@dataclass(frozen=True)
class DenoiserArch:
    """Shape of the conditional denoiser.

    Input = noisy RSS vector (ap_count) + location features (2 + 4*cond_freqs)
    + time features (time_dim); output = predicted clean RSS vector. Three
    hidden layers with a skip connection from the first to the third, so the
    outer widths must match.
    """

    ap_count: int
    cond_freqs: int = 4
    time_dim: int = 16
    hidden: tuple[int, int, int] = (256, 128, 256)
    activation: str = "silu"
    bounds: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        object.__setattr__(self, "bounds", tuple(float(b) for b in self.bounds))
        if self.ap_count < 1:
            raise ConfigError(f"ap_count must be >= 1, got {self.ap_count}")
        if self.cond_freqs < 1:
            raise ConfigError(f"cond_freqs must be >= 1, got {self.cond_freqs}")
        if self.time_dim < 4 or self.time_dim % 2:
            raise ConfigError(f"time_dim must be even and >= 4, got {self.time_dim}")
        if len(self.hidden) != 3 or any(h < 1 for h in self.hidden):
            raise ConfigError(f"hidden must be three positive widths, got {self.hidden}")
        if self.hidden[0] != self.hidden[2]:
            raise ConfigError(
                f"skip connection needs hidden[0] == hidden[2], got {self.hidden}"
            )
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")

    @property
    def cond_dim(self) -> int:
        return 2 + 4 * self.cond_freqs

    @property
    def input_dim(self) -> int:
        return self.ap_count + self.cond_dim + self.time_dim

    @property
    def layer_shapes(self) -> tuple[tuple[int, int], ...]:
        h1, h2, h3 = self.hidden
        return ((h1, self.input_dim), (h2, h1), (h3, h2), (self.ap_count, h3))

    @property
    def param_count(self) -> int:
        return sum(o * i + o for o, i in self.layer_shapes)

    def to_dict(self) -> dict:
        return {
            "ap_count": self.ap_count,
            "cond_freqs": self.cond_freqs,
            "time_dim": self.time_dim,
            "hidden": list(self.hidden),
            "activation": self.activation,
            "bounds": list(self.bounds),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DenoiserArch":
        return cls(
            ap_count=int(d["ap_count"]),
            cond_freqs=int(d["cond_freqs"]),
            time_dim=int(d["time_dim"]),
            hidden=tuple(d["hidden"]),
            activation=str(d["activation"]),
            bounds=tuple(d["bounds"]),
        )


# (get, set) thread-count pairs, in order of preference: numpy 2's wheel
# (scipy-openblas, 64-bit ints), numpy 1's wheel (OpenBLAS with 64-bit ints),
# then a system OpenBLAS.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_threads() -> tuple:
    """(get, set) thread-count functions of the OpenBLAS in this process, or ().

    Looked up once, on the first pinned call, so importing fpsynth costs nothing.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return ()
    mapped = {f[5].strip() for f in fields if len(f) == 6}
    # dlopen of a library that is already mapped returns that same instance
    libs = []
    for path in sorted(p for p in mapped if "blas" in p.lower()):
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            continue
    for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
        for lib in libs:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return ()


def _one_blas_thread(method):
    """Run `method` with the BLAS pinned to one thread, then restore the count.

    The count is process-wide, so two Python threads inside pinned calls at
    once could restore each other's count; fpsynth makes no such calls.
    """

    @functools.wraps(method)
    def pinned(*args, **kwargs):
        api = _openblas_threads()
        if not api:
            return method(*args, **kwargs)
        get, set_ = api
        previous = get()
        set_(1)
        try:
            return method(*args, **kwargs)
        finally:
            set_(previous)

    return pinned


def _layout(layer_shapes):
    """(weight_slice, bias_slice, shape) triples over the flat parameter vector."""
    out = []
    off = 0
    for o, i in layer_shapes:
        w = slice(off, off + o * i)
        off += o * i
        b = slice(off, off + o)
        off += o
        out.append((w, b, (o, i)))
    return out, off


def _xavier_theta(layer_shapes, seed) -> np.ndarray:
    """Xavier-uniform weights, zero biases, deterministic given seed."""
    layout, total = _layout(layer_shapes)
    rng = np.random.default_rng(seed)
    theta = np.zeros(total)
    for w, _b, (o, i) in layout:
        lim = float(np.sqrt(6.0 / (i + o)))
        theta[w] = rng.uniform(-lim, lim, size=o * i)
    return theta


class Workspace:
    """Buffers for one network's calls at one leading input shape, reused.

    `z[l]` holds layer l's pre-activation (the last one is the network's
    output), `a[l]` and `s[l]` hidden layer l's activation and the value its
    derivative needs, and `tmp[l]` scratch of hidden layer l's width (views of
    one buffer). The backward buffers are made on the first backward call:
    `d[l]`, the gradient at hidden layer l's pre-activation, and `grad`, the
    flat parameter gradient, with one (weight, bias) view per layer.

    A workspace is its own backward cache: the arrays a call returns and the
    cache stay valid until the next call on the same workspace, which
    overwrites them. The cache refers to the input, not a copy. A 2-D input
    with fewer rows than the workspace, such as a smaller last batch, runs on
    the leading rows of the same buffers.
    """

    def __init__(self, layout, lead: tuple[int, ...]):
        self.lead = lead
        self._layout = layout
        widths = [shape[0] for _w, _b, shape in layout]
        hidden = widths[:-1]
        rows = math.prod(lead)
        self.x = None
        self.z = [np.empty(lead + (w,)) for w in widths]
        self.a = [np.empty(lead + (w,)) for w in hidden]
        self.s = [np.empty(lead + (w,)) for w in hidden]
        scratch = np.empty(rows * max(hidden, default=0))
        self.tmp = [scratch[: rows * w].reshape(lead + (w,)) for w in hidden]
        self.d = None
        self.grad = None
        self._grads = None

    def _backward_buffers(self):
        if self.grad is None:
            self.d = [np.empty_like(a) for a in self.a]
            self.grad = np.empty(self._layout[-1][1].stop)
            self._grads = [
                (self.grad[w].reshape(shape), self.grad[b]) for w, b, shape in self._layout
            ]
        return self.d, self._grads

    def _head(self, lead: tuple[int, ...]) -> "Workspace":
        """The leading rows of these buffers, for a 2-D input with fewer rows."""
        if len(lead) != 1 or len(self.lead) != 1 or lead[0] > self.lead[0]:
            raise ShapeError(f"input rows {lead} do not fit a workspace for {self.lead}")
        rows = lead[0]
        self._backward_buffers()
        sub = copy.copy(self)
        sub.lead = lead
        sub.x = None
        for name in ("z", "a", "s", "tmp", "d"):
            setattr(sub, name, [buf[:rows] for buf in getattr(self, name)])
        return sub


class _FlatMlp:
    """Fully connected network over one flat float64 parameter vector.

        z_l = a_{l-1} W_l^T + b_l,  a_0 = x
        a_l = act(z_l) on hidden layers; the last layer is linear

    With `skip`, the output of hidden layer 1 is added to the pre-activation
    of hidden layer 3 (their widths must match). `DenoiserNetwork` and `Mlp`
    both compute through `_forward` and `_backward`; each keeps its own
    `forward_cached` and `backward` as its public entry points.

    Every call computes into a `Workspace` (see the module docstring): a loop
    makes one with `workspace(lead)` and passes it to each call.
    """

    def __init__(self, layer_shapes, activation: str, skip: bool, theta: np.ndarray):
        theta = np.ascontiguousarray(theta, dtype=np.float64)
        layout, total = _layout(layer_shapes)
        if theta.shape != (total,):
            raise ShapeError(f"theta has shape {theta.shape}, the layers need ({total},)")
        self.theta = theta
        self._act = ACTIVATIONS[activation]
        self._skip = skip
        self._layout = layout
        self._views = [(theta[w].reshape(shape), theta[b]) for w, b, shape in layout]

    def workspace(self, lead) -> Workspace:
        """Buffers for inputs of leading shape `lead`: a row count, or a tuple such as (U, n)."""
        lead = (int(lead),) if np.ndim(lead) == 0 else tuple(int(v) for v in lead)
        return Workspace(self._layout, lead)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, _ = self.forward_cached(x)
        return out

    @_one_blas_thread
    def _forward(self, x, ws):
        """Output and backward cache (the workspace) for a `(..., batch, in)` input.

        A stacked input such as `(U, n, in)` runs one `n`-row product per
        leading index, so each stack entry gets exactly the bits that a
        separate `(n, in)` call gives. Flattening the stack to `(U*n, in)`
        would not: OpenBLAS picks its kernel by row count, and a row's result
        then depends on how many rows share the product.
        """
        x = np.asarray(x, dtype=np.float64)
        in_dim = self._layout[0][2][1]
        if x.ndim < 2 or x.shape[-1] != in_dim:
            raise ShapeError(f"input must be (..., batch, {in_dim}), got {x.shape}")
        if ws is None:
            ws = Workspace(self._layout, x.shape[:-1])
        elif x.shape[:-1] != ws.lead:
            ws = ws._head(x.shape[:-1])
        act, _ = self._act
        a = ws.x = x
        for li, (w, b) in enumerate(self._views):
            z = ws.z[li]
            np.matmul(a, w.T, out=z)
            z += b
            if self._skip and li == 2:
                z += ws.a[0]
            if li < len(ws.a):
                a = ws.a[li]
                act(z, a, ws.s[li], ws.tmp[li])
        return z, ws

    @_one_blas_thread
    def _backward(self, ws, dout):
        """Gradient of sum(dout * out) w.r.t. theta, from the cache of a 2-D input.

        Returns the workspace's gradient buffer.
        """
        if ws.x is None or ws.x.ndim != 2:
            shape = None if ws.x is None else ws.x.shape
            raise ShapeError(f"backward needs the cache of a 2-D forward call, got {shape}")
        dout = np.asarray(dout, dtype=np.float64)
        if dout.shape != ws.z[-1].shape:
            raise ShapeError(f"dout must have shape {ws.z[-1].shape}, got {dout.shape}")
        _, dact = self._act
        d_bufs, grads = ws._backward_buffers()
        d = dout  # gradient w.r.t. the current layer's pre-activation
        for li in range(len(self._views) - 1, -1, -1):
            gw, gb = grads[li]
            np.matmul(d.T, ws.a[li - 1] if li else ws.x, out=gw)
            np.add.reduce(d, axis=0, out=gb)
            if li == 0:
                break
            da = d_bufs[li - 1]
            np.matmul(d, self._views[li][0], out=da)
            if self._skip and li == 1:
                da += d_bufs[2]  # the skip from hidden layer 1 into hidden layer 3
            dact(ws.z[li - 1], ws.a[li - 1], ws.s[li - 1], da, ws.tmp[li - 1])
            d = da
        # every entry was written: the layout tiles theta exactly
        return ws.grad


class DenoiserNetwork(_FlatMlp):
    """Skip-connected MLP predicting the clean RSS vector from a noisy one.

        h1 = act(W1 x + b1)
        h2 = act(W2 h1 + b2)
        h3 = act(W3 h2 + b3 + h1)   # skip
        out = W4 h3 + b4
    """

    def __init__(self, arch: DenoiserArch, theta: np.ndarray):
        self.arch = arch
        super().__init__(arch.layer_shapes, arch.activation, True, theta)

    @classmethod
    def create(cls, arch: DenoiserArch, seed) -> "DenoiserNetwork":
        """Xavier-uniform weights, zero biases, deterministic given seed."""
        return cls(arch, _xavier_theta(arch.layer_shapes, seed))

    @classmethod
    def zeros(cls, arch: DenoiserArch) -> "DenoiserNetwork":
        return cls(arch, np.zeros(arch.param_count))

    @classmethod
    def constant_output(cls, arch: DenoiserArch, value: np.ndarray) -> "DenoiserNetwork":
        """A network returning `value` for every input (all-zero weights, output bias)."""
        net = cls.zeros(arch)
        value = np.asarray(value, dtype=np.float64)
        if value.shape != (arch.ap_count,):
            raise ShapeError(f"constant value must have shape ({arch.ap_count},)")
        net._views[3][1][:] = value
        return net

    def forward_cached(self, x: np.ndarray, ws: Workspace | None = None):
        """Output and backward cache for a `(..., batch, input_dim)` input,
        computed in `ws` (see `Workspace`) or in a fresh workspace."""
        return self._forward(x, ws)

    def backward(self, cache, dout: np.ndarray) -> np.ndarray:
        """Gradient of sum(dout * out) w.r.t. the flat parameter vector (2-D cache only)."""
        return self._backward(cache, dout)


def _dims_shapes(dims) -> tuple[tuple[int, int], ...]:
    return tuple((dims[i + 1], dims[i]) for i in range(len(dims) - 1))


class Mlp(_FlatMlp):
    """Plain sequential MLP (activation on hidden layers, linear output)."""

    def __init__(self, dims: tuple[int, ...], activation: str, theta: np.ndarray):
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ConfigError(f"dims must be at least (in, out) positive sizes, got {dims}")
        if activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {activation!r}")
        self.dims = tuple(int(d) for d in dims)
        self.activation = activation
        super().__init__(_dims_shapes(self.dims), activation, False, theta)

    @classmethod
    def create(cls, dims, activation: str, seed) -> "Mlp":
        dims = tuple(int(d) for d in dims)
        return cls(dims, activation, _xavier_theta(_dims_shapes(dims), seed))

    def forward_cached(self, x: np.ndarray, ws: Workspace | None = None):
        """Output and backward cache for a `(..., batch, dims[0])` input,
        computed in `ws` (see `Workspace`) or in a fresh workspace."""
        return self._forward(x, ws)

    def backward(self, cache, dout: np.ndarray) -> np.ndarray:
        """Gradient of sum(dout * out) w.r.t. the flat parameter vector (2-D cache only)."""
        return self._backward(cache, dout)


class AdamOptimizer:
    """Standard Adam on a flat parameter vector, updated in place.

    The moments and theta are updated in place through two scratch buffers.
    Each element sees the same operations in the same order as
    `theta -= lr * mhat / (sqrt(vhat) + eps)` with `v` accumulating
    `(1 - beta2) * g * g`, so results are bit-identical to that textbook form.
    """

    def __init__(self, n_params: int, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self._num = np.empty(n_params)
        self._den = np.empty(n_params)

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        num, den = self._num, self._den
        self.m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=num)
        self.m += num
        self.v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=num)
        num *= grad
        self.v += num
        np.divide(self.m, 1.0 - self.beta1**self.t, out=num)  # mhat
        num *= self.lr
        np.divide(self.v, 1.0 - self.beta2**self.t, out=den)  # vhat
        np.sqrt(den, out=den)
        den += self.eps
        num /= den
        theta -= num

