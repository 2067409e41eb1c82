"""Dense float64 tensors with taped reverse-mode differentiation.

Just enough operations for a character-level conv + BiLSTM classifier:
1-D convolution (over dense channels or over character indices) fused with
temporal max-pooling, a fused LSTM layer that returns its final state,
concatenation, dense layers, ReLU, inverted dropout with a seed per row,
stabilized softmax cross-entropy, and Adam. Every layer takes any
number of leading batch dimensions (`x[..., time, channels]`), so one taped
graph of a fixed handful of nodes covers a whole mini-batch. Everything is
double precision and deterministic given seeds; no operation reads global state.

A `Tape` records one forward pass and is consumed by one `backward` call;
build a fresh tape per training step. A tensor is differentiable exactly
when it has a tape: constants (`Tensor(array)`) flow through the same
operations without recording, which is how inference runs tape-free.

`Tensor`, `Tape` (with `leaf` and `backward`) and `vsum`, which no
classifier path calls, keep their names and signatures because the
benchmark's traced runs call them: `perfbench/layers.py` times each layer's
backward pass through them, and `perfbench/spans.py` wraps `Tape.backward`
by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ShapeError, TapeError

__all__ = [
    "Tensor",
    "Tape",
    "AdamState",
    "vsum",
    "relu",
    "dense",
    "conv1d",
    "dropout",
    "softmax_cross_entropy",
    "lstm_forward",
    "concat",
    "adam_step",
]


class Tensor:
    """A float64 ndarray plus the bookkeeping reverse mode needs."""

    __slots__ = ("data", "grad", "tape")

    def __init__(self, data, tape: "Tape | None" = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.tape = tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, taped={self.tape is not None})"


class Tape:
    """Ordered record of one forward pass; reversed exactly once by backward."""

    def __init__(self) -> None:
        self._nodes: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._consumed = False

    def leaf(self, data) -> Tensor:
        """Wrap an array as a differentiable leaf (no copy)."""
        if self._consumed:
            raise TapeError("tape already consumed by backward(); build a new tape per pass")
        return Tensor(data, tape=self)

    def _record(self, out: Tensor, backward: Callable[[np.ndarray], None]) -> None:
        if self._consumed:
            raise TapeError("tape already consumed by backward(); build a new tape per pass")
        self._nodes.append((out, backward))

    def backward(self, loss: Tensor) -> None:
        """Propagate d(loss)/d(leaf) into every leaf's `.grad`."""
        if self._consumed:
            raise TapeError("backward() may run only once per tape")
        if loss.tape is not self or not self._nodes:
            raise TapeError("loss was not recorded on this tape; run a forward pass first")
        if loss.data.shape != ():
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        self._consumed = True
        loss.grad = np.ones((), dtype=np.float64)
        # Pop each node and drop its output as it runs, so an intermediate's data and
        # the arrays its closure saved (ReLU and dropout masks, LSTM gates) are freed.
        nodes, self._nodes = self._nodes, []
        while nodes:
            out, backward = nodes.pop()
            g, out = out.grad, None
            if g is not None:
                backward(g)

    def grad(self, leaf: Tensor) -> np.ndarray:
        """Gradient of a leaf after backward; zeros if the loss never used it."""
        if not self._consumed:
            raise TapeError("gradients are only available after backward()")
        return leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add `g` into t's gradient. The first `g` is stored as is, so every op
    passes a fresh array of t's shape that it does not reuse."""
    if t.tape is None:
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def _result(inputs: Sequence[Tensor], data: np.ndarray, backward: Callable[[np.ndarray], None]) -> Tensor:
    tape = None
    for t in inputs:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise TapeError("operation inputs were recorded on different tapes")
    out = Tensor(data, tape=tape)
    if tape is not None:
        tape._record(out, backward)
    return out


# --- elementwise and reduction ops ---------------------------------------


def vsum(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""

    def backward(g: np.ndarray) -> None:
        _accumulate(x, np.full_like(x.data, float(g)))

    return _result((x,), np.asarray(x.data.sum()), backward)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * mask)

    return _result((x,), np.maximum(x.data, 0.0), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, so no exp overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


# --- layers ---------------------------------------------------------------


def dense(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """x @ weights.T + bias over the last axis of x[..., d_in]."""
    if x.data.ndim < 1 or weights.data.ndim != 2 or bias.data.ndim != 1:
        raise ShapeError("dense expects x[..., d_in], weights[d_out, d_in], bias[d_out]")
    d_out, d_in = weights.data.shape
    if x.data.shape[-1] != d_in or bias.data.shape != (d_out,):
        raise ShapeError(
            f"dense shapes inconsistent: x{x.data.shape}, w{weights.data.shape}, b{bias.data.shape}"
        )
    x_data, w_data = x.data, weights.data

    def backward(g: np.ndarray) -> None:
        rows = g.reshape(-1, d_out)
        _accumulate(weights, rows.T @ x_data.reshape(-1, d_in))
        _accumulate(bias, rows.sum(axis=0))
        if x.tape is not None:
            _accumulate(x, g @ w_data)

    return _result((x, weights, bias), x_data @ w_data.T + bias.data, backward)


def conv1d(x: "Tensor | np.ndarray", kernels: Tensor, bias: Tensor, pool: int = 1, table=None) -> Tensor:
    """Valid 1-D convolution, stride 1, along the time axis of x[..., time, in_ch],
    max-pooled over non-overlapping windows of `pool` steps (the remainder dropped):
    out[..., s, o] = max_{j < pool} conv[..., s * pool + j, o], where
    conv[..., t, o] = b[o] + sum_{w,c} x[..., t+w, c] k[o, w, c].

    Each block of the convolution is pooled as it is made, so the whole of it
    is never held; a taped call keeps each window's first maximal step, where
    the window's gradient goes, as one small unsigned int.

    `x` may instead be an int array [..., time] of channel indices, each
    standing for a one-hot row; index -1 stands for an all-zero (padding)
    row. The convolution is then a sum of gathered kernel columns,
    with no multiplications by zero, and only the kernels and bias are
    differentiated. The columns are gathered from `_index_table(kernels.data)`,
    built per call unless passed as `table`, which must then match the kernels.
    """
    if kernels.data.ndim != 3 or bias.data.ndim != 1:
        raise ShapeError("conv1d expects kernels[out_ch, width, in_ch], bias[out_ch]")
    out_ch, width, in_ch = kernels.data.shape
    if bias.data.shape != (out_ch,):
        raise ShapeError(f"conv1d shapes inconsistent: k{kernels.data.shape}, b{bias.data.shape}")
    if isinstance(x, Tensor):
        if x.data.ndim < 2 or x.data.shape[-1] != in_ch:
            raise ShapeError(f"conv1d expects x[..., time, {in_ch}], got {x.data.shape}")
        inputs, (*lead, time, _), conv = (x, kernels, bias), x.data.shape, _conv_dense
    else:
        x = np.asarray(x)
        if x.ndim < 1 or not np.issubdtype(x.dtype, np.integer):
            raise ShapeError(f"conv1d indices must be an int array [..., time], got {x.dtype}{x.shape}")
        if x.size and not (-1 <= x.min() and x.max() < in_ch):
            raise ShapeError(f"conv1d indices must lie in [-1, {in_ch}), got {x.min()}..{x.max()}")
        inputs, (*lead, time) = (kernels, bias), x.shape
        conv = lambda *args: _conv_indices(*args, _index_table(kernels.data) if table is None else table)
    if time < width:
        raise ShapeError(f"conv1d input length {time} shorter than kernel width {width}")
    out_len = time - width + 1
    if not 1 <= pool <= out_len:
        raise ShapeError(f"conv1d pool must lie in [1, {out_len}], the convolution's length, got {pool}")
    out = np.empty((math.prod(lead), out_len // pool, out_ch))
    taped = pool > 1 and any(t.tape is not None for t in inputs)
    first = np.zeros(out.shape, np.min_scalar_type(pool - 1)) if taped else None
    conv_backward = conv(x, kernels, bias, pool, out, first)  # fills out and first

    def backward(g: np.ndarray) -> None:
        if pool > 1:
            # g to each window's first maximal step, g * 0 (a product's signed zero) to the rest
            pooled_g, g = g.reshape(first.shape), np.zeros((len(first), out_len, out_ch))
            for j in range(pool):
                np.multiply(pooled_g, first == j, out=g[:, j : first.shape[1] * pool : pool])
        conv_backward(g)

    return _result(inputs, out.reshape(*lead, *out.shape[1:]), backward)


def _pool(conv: np.ndarray, pool: int, out: np.ndarray, first: "np.ndarray | None", rows: slice) -> None:
    """Max over windows of `pool` steps of conv[k, out_len, ch], the convolution of
    sequences `rows`, into out[rows]; with `first`, each first maximal step into first[rows]."""
    pooled = out[rows]
    used = pooled.shape[1] * pool
    np.copyto(pooled, conv[:, 0:used:pool])
    for j in range(1, pool):
        step = conv[:, j:used:pool]
        if first is not None:
            first[rows][step > pooled] = j
        np.maximum(pooled, step, out=pooled)


def _conv_dense(x: Tensor, kernels: Tensor, bias: Tensor, pool: int, out: np.ndarray, first) -> Callable:
    """conv1d as im2col matrix products, none unrolling much more than
    `_CONV_BLOCK` window elements, so that no array grows with batch x width.

    The forward pass unrolls near-equal blocks of sequences; past one block,
    the backward pass unrolls one kernel tap at a time. Each product is then
    a row or column block of the whole-batch product, which OpenBLAS computes
    to the same bits when the products are large and split at multiples of 8
    columns, as at the default sizes (checked in tests/test_autodiff.py).
    """
    out_ch, width, in_ch = kernels.data.shape
    out_len = x.data.shape[-2] - width + 1
    seqs = x.data.reshape(-1, *x.data.shape[-2:])
    kmat = kernels.data.reshape(out_ch, width * in_ch)
    # A short last block could take another BLAS kernel, so the blocks are near-equal.
    blocks = max(1, -(-len(seqs) * out_len * width * in_ch // _CONV_BLOCK))
    edges = [len(seqs) * i // blocks for i in range(blocks + 1)]
    conv = np.empty((-(-len(seqs) // blocks), out_len, out_ch))
    for lo, hi in zip(edges, edges[1:]):
        windows = np.lib.stride_tricks.sliding_window_view(seqs[lo:hi], (width, in_ch), axis=(1, 2))
        block = conv[: hi - lo]
        np.matmul(windows.reshape(-1, width * in_ch), kmat.T, out=block.reshape(-1, out_ch))
        block += bias.data
        _pool(block, pool, out, first, slice(lo, hi))
    taps = width if blocks == 1 else 1

    def backward(g: np.ndarray) -> None:
        rows = g.reshape(-1, out_ch)
        _accumulate(bias, rows.sum(axis=0))
        if kernels.tape is not None:
            gk = np.empty((out_ch, width * in_ch))
            for w in range(0, width, taps):
                windows = np.lib.stride_tricks.sliding_window_view(
                    seqs[:, w : w + taps + out_len - 1], (taps, in_ch), axis=(1, 2)
                )
                np.matmul(rows.T, windows.reshape(-1, taps * in_ch), out=gk[:, w * in_ch : (w + taps) * in_ch])
            _accumulate(kernels, gk.reshape(out_ch, width, in_ch))
        if x.tape is not None:
            gx = np.zeros_like(seqs)
            g_windows = np.empty((len(seqs), out_len, taps, in_ch))
            for w in range(0, width, taps):
                np.matmul(rows, kmat[:, w * in_ch : (w + taps) * in_ch], out=g_windows.reshape(-1, taps * in_ch))
                for t in range(taps):
                    gx[:, w + t : w + t + out_len] += g_windows[:, :, t]
            _accumulate(x, gx.reshape(x.data.shape))

    return backward


# Window elements one product of _conv_dense unrolls: 4 MiB of doubles.
_CONV_BLOCK = 1 << 19


def _index_table(kernels: np.ndarray) -> np.ndarray:
    """columns[w, c] = k[:, w, c] of kernels[out_ch, width, in_ch], with a zero
    row at index in_ch that index -1 wraps to: what an index convolution gathers."""
    out_ch, width, in_ch = kernels.shape
    columns = np.empty((width, in_ch + 1, out_ch))
    columns[:, :in_ch] = kernels.transpose(1, 2, 0)
    columns[:, in_ch] = 0.0
    return columns


def _conv_indices(
    idx: np.ndarray, kernels: Tensor, bias: Tensor, pool: int, out: np.ndarray, first, columns: np.ndarray
) -> Callable:
    """conv1d over one-hot rows given as indices: conv[t] = b + sum_w columns[w, idx[t+w]]."""
    out_ch, width, in_ch = kernels.data.shape
    out_len = idx.shape[-1] - width + 1
    seqs = idx.reshape(-1, idx.shape[-1])
    conv, tap = np.empty((2, out_len, out_ch))
    # One sequence at a time, so the running sum stays in cache.
    for i, seq in enumerate(seqs):
        np.take(columns[0], seq[:out_len], axis=0, out=conv, mode="wrap")
        for w in range(1, width):
            conv += np.take(columns[w], seq[w : w + out_len], axis=0, out=tap, mode="wrap")
        conv += bias.data
        _pool(conv[None], pool, out, first, slice(i, i + 1))

    def backward(g: np.ndarray) -> None:
        rows = g.reshape(-1, out_ch)
        _accumulate(bias, rows.sum(axis=0))
        if kernels.tape is not None:
            _accumulate(kernels, _index_kernel_grad(seqs, rows, width, in_ch))

    return backward


def _index_kernel_grad(idx: np.ndarray, rows: np.ndarray, width: int, in_ch: int) -> np.ndarray:
    """d(loss)/d(kernels) of an index convolution.

    `idx` is [n, time]; `rows` is the output gradient [n * out_len, out_ch].
    Kernel column k[:, w, c] receives the output gradient at t for every
    position t + w that holds character c. One stable sort groups positions
    by character; each group then gathers the gradient rows its positions
    feed at every tap and sums them, a cache-sized chunk at a time.
    """
    time = idx.shape[1]
    out_len = time - width + 1
    grad = np.zeros((width, in_ch, rows.shape[1]))
    flat = idx.reshape(-1)
    pos = np.flatnonzero(flat >= 0)
    pos = pos[np.argsort(flat[pos], kind="stable")]
    chars = flat[pos]
    inst, step = np.divmod(pos, time)
    t = step[:, None] - np.arange(width)  # [positions, taps]: the output step fed
    outside = (t < 0) | (t >= out_len)
    feeds = np.where(outside, 0, inst[:, None] * out_len + t)
    bounds = np.flatnonzero(np.diff(chars, prepend=-1, append=-1)).tolist()  # group edges
    for start, stop in zip(bounds, bounds[1:]):
        total = grad[:, chars[start]]
        for lo in range(start, stop, _GRAD_CHUNK):
            hi = min(lo + _GRAD_CHUNK, stop)
            taken = rows[feeds[lo:hi]]
            taken[outside[lo:hi]] = 0.0
            total += taken.sum(axis=0)
    return np.ascontiguousarray(grad.transpose(2, 0, 1))


# Positions per gather in _index_kernel_grad: [32, width, out_ch] rows fit in L2.
_GRAD_CHUNK = 32


def dropout(x: Tensor, rate: float, seeds: Sequence[int]) -> Tensor:
    """Inverted dropout of x[batch, ...]: kept units are scaled by 1/(1-rate);
    rate 0 is the identity. Row b's mask comes from `default_rng(seeds[b])`,
    so an instance keeps its mask whatever batch it is in.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    if x.data.ndim < 1 or len(seeds) != x.data.shape[0]:
        raise ShapeError(f"dropout got {len(seeds)} seeds for x{x.data.shape}")
    draws = np.stack([np.random.default_rng(s).random(x.data.shape[1:]) for s in seeds])
    keep = (draws >= rate) / (1.0 - rate)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * keep)

    return _result((x,), x.data * keep, backward)


def softmax_cross_entropy(logits: Tensor, target: "int | np.ndarray") -> Tensor:
    """Mean stabilized cross-entropy of logits[..., K] against class indices
    target[...]: the scalar loss tensor, averaged over the leading positions."""
    if logits.data.ndim < 1:
        raise ShapeError("softmax_cross_entropy expects logits[..., classes]")
    k = logits.data.shape[-1]
    target = np.asarray(target)
    if target.shape != logits.data.shape[:-1] or not np.issubdtype(target.dtype, np.integer):
        raise ShapeError(f"targets {target.shape} do not index logits {logits.data.shape}")
    if target.size and not (0 <= target.min() and target.max() < k):
        raise ShapeError(f"targets must lie in [0, {k}) for {k} classes, got {target.min()}..{target.max()}")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    total = exps.sum(axis=-1, keepdims=True)
    picked = target[..., None]
    count = max(target.size, 1)

    def backward(g: np.ndarray) -> None:
        d = exps / total  # the softmax probabilities
        np.put_along_axis(d, picked, np.take_along_axis(d, picked, axis=-1) - 1.0, axis=-1)
        _accumulate(logits, d * (float(g) / count))

    loss_value = -np.take_along_axis(shifted - np.log(total), picked, axis=-1).sum() / count
    return _result((logits,), np.asarray(loss_value), backward)


def lstm_forward(x: Tensor, weights: Tensor, bias: Tensor, reverse: bool = False) -> Tensor:
    """Run an LSTM over x[..., time, d_in] and return its final hidden state [..., H].

    Gates are packed row-wise as [input; forget; output; candidate] in
    `weights[4H, d_in + H]` and `bias[4H]`, applied to the concatenation
    [x_t, h_{t-1}]. Initial state is zero. With `reverse`, time is processed
    back-to-front, so the final state is the one after reading position 0.

    The input projection of every timestep is one matrix product; only the
    recurrent product runs step by step, and the backward pass is a
    hand-written BPTT over the saved gate activations, recorded as one node.
    """
    if x.data.ndim < 2:
        raise ShapeError("lstm_forward expects x[..., time, d_in]")
    *lead, time, d_in = x.data.shape
    four_h, d_cat = weights.data.shape
    if four_h % 4 != 0:
        raise ShapeError(f"LSTM weight rows must be a multiple of 4, got {four_h}")
    h = four_h // 4
    if d_cat != d_in + h or bias.data.shape != (four_h,):
        raise ShapeError(
            f"LSTM shapes inconsistent: x{x.data.shape}, w{weights.data.shape}, b{bias.data.shape}"
        )
    w_x, w_h = weights.data[:, :d_in], weights.data[:, d_in:]
    xs = x.data.reshape(-1, time, d_in)
    n = xs.shape[0]
    proj = (xs.reshape(-1, d_in) @ w_x.T + bias.data).reshape(n, time, four_h)
    gates = np.empty((n, time, four_h))  # activated: sigmoid i, f, o; tanh candidate
    tanh_cells = np.empty((n, time, h))
    prev_h = np.empty((n, time, h))  # the state entering each step
    prev_c = np.empty((n, time, h))
    order = range(time - 1, -1, -1) if reverse else range(time)
    h_t = c_t = np.zeros((n, h))
    for t in order:
        prev_h[:, t], prev_c[:, t] = h_t, c_t
        z = proj[:, t] + h_t @ w_h.T
        a = gates[:, t]
        a[:, : 3 * h] = _sigmoid(z[:, : 3 * h])
        a[:, 3 * h :] = np.tanh(z[:, 3 * h :])
        c_t = a[:, h : 2 * h] * c_t + a[:, :h] * a[:, 3 * h :]
        tanh_cells[:, t] = np.tanh(c_t)
        h_t = a[:, 2 * h : 3 * h] * tanh_cells[:, t]

    def backward(g: np.ndarray) -> None:
        dz = np.empty((n, time, four_h))
        dh = g.reshape(n, h)
        dc = np.zeros((n, h))
        for t in reversed(order):
            a = gates[:, t]
            gate_in, gate_forget = a[:, :h], a[:, h : 2 * h]
            gate_out, candidate = a[:, 2 * h : 3 * h], a[:, 3 * h :]
            tc = tanh_cells[:, t]
            dc = dc + dh * gate_out * (1.0 - tc * tc)
            d = dz[:, t]
            d[:, :h] = dc * candidate * gate_in * (1.0 - gate_in)
            d[:, h : 2 * h] = dc * prev_c[:, t] * gate_forget * (1.0 - gate_forget)
            d[:, 2 * h : 3 * h] = dh * tc * gate_out * (1.0 - gate_out)
            d[:, 3 * h :] = dc * gate_in * (1.0 - candidate * candidate)
            dc = dc * gate_forget
            dh = d @ w_h
        dz_rows = dz.reshape(-1, four_h)
        _accumulate(weights, dz_rows.T @ np.concatenate([xs, prev_h], axis=-1).reshape(-1, d_cat))
        _accumulate(bias, dz_rows.sum(axis=0))
        if x.tape is not None:
            _accumulate(x, (dz_rows @ w_x).reshape(x.data.shape))

    return _result((x, weights, bias), h_t.reshape(*lead, h), backward)


def concat(a: Tensor, b: Tensor) -> Tensor:
    """a[..., A] and b[..., B] joined along their last axis: [..., A + B]."""
    if min(a.data.ndim, b.data.ndim) < 1 or a.data.shape[:-1] != b.data.shape[:-1]:
        raise ShapeError(f"concat expects [..., A] and [..., B], got {a.data.shape} and {b.data.shape}")
    split = a.data.shape[-1]

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g[..., :split].copy())
        _accumulate(b, g[..., split:].copy())

    return _result((a, b), np.concatenate([a.data, b.data], axis=-1), backward)


# --- Adam -----------------------------------------------------------------

# Adam's constants other than the step size, Kingma & Ba's (2015) defaults.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """Step size, step counter and per-parameter moment estimates."""

    lr: float
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], lr: float) -> "AdamState":
        """Zero moments for `params`, at step 0."""
        m, v = ({name: np.zeros_like(p) for name, p in params.items()} for _ in range(2))
        return cls(lr, m, v)


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update, applied to `params` in place.

    The arithmetic is p -= lr * (m / c1) / (sqrt(v / c2) + eps), operation
    for operation, but every intermediate lands in one scratch buffer.
    """
    state.step += 1
    t = state.step
    correction1 = 1.0 - BETA1**t
    correction2 = 1.0 - BETA2**t
    scratch = np.empty(2 * max((p.size for p in params.values()), default=0))
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape} for {name!r}")
        m = state.m[name]
        v = state.v[name]
        step = scratch[: p.size].reshape(p.shape)
        denom = scratch[p.size : 2 * p.size].reshape(p.shape)
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=step)
        m += step
        v *= BETA2
        np.multiply(g, g, out=step)
        step *= 1.0 - BETA2
        v += step
        np.divide(v, correction2, out=denom)
        np.sqrt(denom, out=denom)
        denom += EPS
        np.divide(m, correction1, out=step)
        step *= state.lr
        step /= denom
        p -= step
