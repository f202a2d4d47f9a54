"""Minimal dense-tensor autodiff core.

Reverse-mode differentiation over 64-bit numpy arrays with an explicit
operation tape. The tape is single-threaded: ops are recorded and run
backward on the thread that holds it. Only the block math of
``dual_attention``, the one op on attention-sized arrays, may run on one
pool thread (``_blockwise``), on plain arrays. Tensors created outside a
tape are plain immutable values.

Gradient ownership: a gradient array may be shared (``add`` hands the same
array to both inputs, and a C-contiguous gradient is stored without a
copy), so no gradient is ever modified in place. A tape is consumed by its
one backward pass, which frees each intermediate gradient and node as it
goes; only the gradients of leaves (tensors created outside the tape, such
as parameters) survive it.

What the tape keeps: a backward closure captures the arrays its backward
reads, and the shapes and flags it needs, and reads no Tensor's data. A
node holds no Tensor but a leaf: it holds its output's gradient cell
(``_Cell``), which refers to the output only weakly, and per input that
input's cell, the leaf itself, or None for an input that takes no
gradient. So an activation that no backward reads is freed as soon as the
program drops it, and one that a backward reads lives until that node has
run. When the walk starts the tape drops the data of every recorded output
still alive; reading a dropped tensor's ``data`` raises ContractError.
"""

from __future__ import annotations

import contextvars
import numbers
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial

import numpy as np

EPS_PROB = 1e-12
NORM_TOL = 1e-6  # largest |row sum - 1| of S and P dual_attention accepts
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation contract."""


class DegenerateRowError(ValueError):
    """Raised when a softmax row has no permitted entries."""


class NormalizationError(ValueError):
    """Raised when a KL input row is not a probability distribution."""


class ContractError(ValueError):
    """Raised when an operation precondition is violated."""


class NumericError(FloatingPointError):
    """Raised on non-finite intermediate values where contracts demand finiteness."""


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------

_ACTIVE_TAPE: "Tape | None" = None


class Tape:
    """Ordered record of executed operations for one backward pass.

    Usage::

        with Tape() as tape:
            loss = ...
        tape.backward(loss)

    ``backward`` consumes the tape: it drops the data of every recorded
    output still alive, pops the nodes as it walks them, and a second call
    raises ContractError. Gradients are accumulated out-of-place (``t.grad + g``,
    never ``+=``), because a gradient array may be shared between inputs
    and with the tensors that received it.
    """

    def __init__(self):
        # list of (output's cell, one handle per input, backward_fn): a
        # handle is the input's cell, a leaf, or None (``_handle``)
        self.nodes = []
        # per node, its inputs' shapes, for _unbroadcast: an input may be
        # freed, or its data dropped, before the node runs
        self.shapes = []
        self.consumed = False

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise ContractError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def record(self, out, inputs, backward_fn):
        """Record ``out``, which has been given its cell, as computed from
        the tensors ``inputs`` by an op whose backward is
        ``backward_fn``."""
        self.nodes.append((out._cell, tuple(_handle(t) for t in inputs),
                           backward_fn))
        self.shapes.append([t.data.shape for t in inputs])

    def backward(self, loss: "Tensor"):
        """Accumulate d(loss)/d(x) into ``x.grad`` for every leaf tensor.

        First drops the data of every recorded output still alive,
        ``loss`` included: read any value needed later before calling this.
        Intermediate gradients live in the nodes' cells and are dropped
        once their node has run, so afterwards only leaves hold a ``grad``.
        """
        if self.consumed:
            raise ContractError("tape already consumed")
        seed = np.ones_like(_one_element(loss, "backward"))
        # a loss that no op recorded starts no node
        (loss if loss._cell is None else loss._cell).grad = seed
        self.consumed = True
        # from here each backward reads only what its closure captured, so
        # an output that no backward reads is freed now
        for cell, _, _ in self.nodes:
            out = cell.tensor()
            if out is not None:
                del out.data
        # Reverse execution order; each node visited exactly once, and no
        # node visited later can add to the output of one already run.
        while self.nodes:
            cell, handles, backward_fn = self.nodes.pop()
            shapes = self.shapes.pop()
            if cell.grad is None:
                continue
            grads = backward_fn(cell.grad)
            cell.grad = None
            for t, shape, g in zip(handles, shapes, grads):
                if g is None or t is None:
                    continue
                g = _unbroadcast(g, shape)
                t.grad = _stored(g) if t.grad is None else t.grad + g
            # a gradient already added into t.grad is dead: release it
            # before the next node's backward runs
            grads = g = None


def _stored(g: np.ndarray) -> np.ndarray:
    """``g`` as the tape stores a first gradient: a view is copied, because
    its memory layout would change how later sums round. A fused op hands
    an inner gradient on in this form, as the tape did between the nodes
    of the chain it replaces."""
    return g if g.flags.c_contiguous else g.copy()


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` along axes that were broadcast."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


# dual_attention works through its attention-sized arrays [..., H, L, L]
# along the leading (batch) axis in blocks of windows whose slices of the
# series attention S hold about this many bytes, so that a block's
# temporaries (about six arrays of S's size) stay in the L2 cache and no
# temporary is as large as the whole array. A cache budget, measured once
# (see README, "Autodiff").
BLOCK_BYTES = 128 * 1024
# Threads that run those blocks, the calling thread included: the two cores
# of the reference machine. With 1, every block runs on the calling thread.
WORKERS = 2


def _blocks(n: int, window_bytes: int) -> list:
    """Slices of ``n`` windows, each holding as many windows of
    ``window_bytes`` (a window's slice of S) as fit in BLOCK_BYTES and at
    least one."""
    step = max(1, BLOCK_BYTES // max(window_bytes, 1))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


_pool = None
_pool_lock = threading.Lock()


def _block_pool() -> ThreadPoolExecutor:
    """The pool of one thread that runs blocks beside the calling thread,
    made on first use: importing priorad starts no thread."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(1, thread_name_prefix="priorad-blocks")
        return _pool


def _forget_pool():
    # a forked child has no copy of the pool's thread, and a task queued to
    # the copied pool would never run: the child makes its own pool
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _pooled(ctx, work, scratch: list):
    """``work(scratch)`` in the caller's context ``ctx`` (numpy's error state
    is a context variable), on the pool thread. The list is emptied first:
    the pool keeps its task until after the caller has seen it end, and
    the scratch must not outlive the work."""
    own = scratch.copy()
    scratch.clear()
    return ctx.run(work, own)


def _cut(bufs: list, sl) -> list:
    """A thread's scratch, made for the first (largest) block, cut to the
    length of block ``sl``."""
    return [b[:sl.stop - sl.start] for b in bufs]


def _blockwise(blocks: list, fn, scratch) -> list:
    """``fn(sl, *bufs)`` over the slices ``sl`` in ``blocks`` (``_blocks``):
    the one block executor. Returns the results in block order.

    The calling thread and the pool thread each take the next block when
    they are free, so at most WORKERS blocks are in flight. ``fn`` takes
    and returns arrays and touches no Tensor. It writes only into its
    block's share of the op's output and into its scratch ``bufs``, and
    allocates nothing larger than a row reduction. Each thread has one set
    of scratch arrays, with the block's leading axis first, for all its
    blocks: ``scratch(sl)`` makes them here, on the calling thread. So a
    result must never hold its scratch: the thread's next block overwrites
    it. If a block raises, the error reaches the caller once the blocks in
    flight have finished, and no block starts after it.
    """
    results = [None] * len(blocks)
    order = iter(range(len(blocks)))  # shared; next() holds the GIL
    failed = []  # once a block has raised, no block starts

    def work(bufs):
        for i in order:
            if failed:
                return
            try:
                results[i] = fn(blocks[i], *_cut(bufs, blocks[i]))
            except BaseException:
                failed.append(i)
                raise

    pooled = []
    if WORKERS > 1 and len(blocks) > 1:
        pooled.append(_block_pool().submit(
            _pooled, contextvars.copy_context(), work,
            list(scratch(blocks[0]))))
    try:
        work(scratch(blocks[0]))
    finally:
        wait(pooled)  # a block in flight finishes before any error is raised
    for f in pooled:
        f.result()
    return results


def _add_rows(acc: np.ndarray, rows: np.ndarray) -> None:
    """Add each entry of ``rows``' leading axis to ``acc`` in turn, in place.
    Started from zeros and carried from block to block, this is numpy's
    ``sum(axis=0)`` bitwise: numpy also adds row after row from +0.0."""
    for r in rows:
        np.add(acc, r, out=acc)


# ---------------------------------------------------------------------------
# Tensor
# ---------------------------------------------------------------------------


class Tensor:
    """Dense float64 array participating in recorded computation. A leaf
    (a tensor no op recorded) that requires a gradient gets it in
    ``grad``; a recorded output's gradient lives in its cell."""

    __slots__ = ("data", "requires_grad", "grad", "_cell", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._cell = None  # set when a tape records this tensor

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        """The value of a one-element tensor of any shape: what
        ``Tape.backward`` takes as a loss."""
        return _one_element(self, "item()").item()

    def __getattr__(self, name):
        # reached only when a slot is unset: the data a tape's walk dropped
        if name == "data":
            raise ContractError("this tensor's data was dropped when its "
                                "tape's backward started; read it before")
        raise AttributeError(name)

    def __repr__(self):
        try:
            shape = self.data.shape
        except ContractError:
            shape = "dropped"
        return f"Tensor(shape={shape}, requires_grad={self.requires_grad})"

    # operator sugar -------------------------------------------------------
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __getitem__(self, idx):
        return getitem(self, idx)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _one_element(t: Tensor, what: str) -> np.ndarray:
    """``t.data``, after checking that it holds exactly one entry."""
    if t.data.size != 1:
        raise ContractError(f"{what} takes a one-element tensor, got shape "
                            f"{t.shape}")
    return t.data


class _Cell:
    """A recorded output as the tape holds it: the gradient it has gathered,
    and a weak reference to the output, so that the tape keeps no
    activation alive. ``data`` is the output's array while the output
    lives, and an empty array once it is freed."""

    __slots__ = ("grad", "tensor")

    def __init__(self, out: Tensor):
        self.grad = None
        self.tensor = weakref.ref(out)

    @property
    def data(self) -> np.ndarray:
        out = self.tensor()
        return np.empty(0) if out is None else out.data


def _handle(t: Tensor):
    """What a node holds of its input ``t``: t's cell when an op recorded
    t, t itself when it is a leaf that requires a gradient, else None."""
    if not t.requires_grad:
        return None
    return t if t._cell is None else t._cell


def _record(out: Tensor, inputs, backward_fn):
    if _ACTIVE_TAPE is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._cell = _Cell(out)
        _ACTIVE_TAPE.record(out, inputs, backward_fn)
    return out


def _record_outputs(outs, inputs, backward):
    """Record the outputs of one op as one tape node each, all over the op's
    ``inputs`` and sharing ``backward(grads)``, which takes one gradient per
    output (None for an output that got none) and returns one per input.

    ``outs`` pairs each output with the inputs its value depends on; an
    output none of whose inputs needs a gradient is not recorded. The node
    recorded last among those whose output gets a gradient runs
    ``backward`` with every output's gradient: each is final by then,
    because every consumer of an output is recorded after the op. It reads
    them from the outputs' cells, which it clears, so the tape skips their
    nodes; no node holds another output.
    """
    if _ACTIVE_TAPE is None:
        return
    # an output that is not recorded keeps no cell: its own never gets a
    # gradient
    cells = [_Cell(out) for out, _ in outs]
    for i, (out, needs) in enumerate(outs):
        if not any(t.requires_grad for t in needs):
            continue

        def run(g, i=i):
            grads = [c.grad for c in cells[:i]] + [g]
            for c in cells[:i]:
                c.grad = None
            return backward(grads + [None] * (len(cells) - 1 - i))

        out.requires_grad = True
        out._cell = cells[i]
        _ACTIVE_TAPE.record(out, inputs, run)


# ---------------------------------------------------------------------------
# Primitive operations
# ---------------------------------------------------------------------------


# Binary backward functions return None for an input that needs no
# gradient (a constant or a stop-gradient side) instead of computing it.
# Every backward closure captures the arrays, shapes and flags it reads,
# not its input Tensors: the tape holds no output, and its walk drops the
# data of every output still alive when it starts, so once the program has
# let go of it an array lives on only in the closures that read it.


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)
    need_a, need_b = a.requires_grad, b.requires_grad

    def backward(g):
        return (g if need_a else None, g if need_b else None)

    return _record(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)
    need_a, need_b = a.requires_grad, b.requires_grad

    def backward(g):
        return (g if need_a else None, -g if need_b else None)

    return _record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)
    # each input's gradient reads the other's data
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def backward(g):
        return (None if b_data is None else g * b_data,
                None if a_data is None else g * a_data)

    return _record(out, (a, b), backward)


def _check_inner(a_shape: tuple, b_shape: tuple) -> None:
    """Raise ShapeError unless arrays of these shapes can be multiplied."""
    if a_shape[-1] != b_shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a_shape} vs {b_shape}")


def _matmul_grads(g, a_data, b_data) -> tuple:
    """The gradients of a and b in a @ b from the product's gradient g:
    a's reads b's data and b's a's, and each is None where that data is."""
    ga = None if b_data is None \
        else np.matmul(g, np.swapaxes(b_data, -1, -2))
    gb = None if a_data is None \
        else np.matmul(np.swapaxes(a_data, -1, -2), g)
    return ga, gb


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes (leading axes broadcast)."""
    _check_inner(a.data.shape, b.data.shape)
    out = Tensor(np.matmul(a.data, b.data))
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None
    return _record(out, (a, b), lambda g: _matmul_grads(g, a_data, b_data))


_BASIC_INDEX = (numbers.Integral, slice, type(Ellipsis), type(None))


def getitem(a: Tensor, idx) -> Tensor:
    """``a[idx]`` for a basic index: ints, slices, ``...`` and ``None``."""
    if not all(isinstance(i, _BASIC_INDEX) and not isinstance(i, bool)
               for i in (idx if isinstance(idx, tuple) else (idx,))):
        raise ContractError(f"getitem takes a basic index (ints, slices, "
                            f"... and None), got {idx!r}")
    out = Tensor(a.data[idx])
    shape = a.data.shape

    def backward(g):
        # C-ordered, as the tape stores every first gradient (``_stored``)
        ga = np.zeros(shape)
        # a basic index reaches each entry once; + 0.0 turns a -0.0 into
        # +0.0, as adding into the zeros did
        ga[idx] = g + 0.0
        return (ga,)

    return _record(out, (a,), backward)


def tsum(a: Tensor, axis=None) -> Tensor:
    out = Tensor(a.data.sum(axis=axis))
    shape = a.data.shape

    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape),)

    return _record(out, (a,), backward)


def tmean(a: Tensor) -> Tensor:
    """Mean over every entry."""
    return tsum(a) * (1.0 / float(a.data.size))


def square(a: Tensor) -> Tensor:
    x = a.data
    out = Tensor(x * x)
    return _record(out, (a,), lambda g: (g * 2.0 * x,))


def sigmoid(a: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(s)
    return _record(out, (a,), lambda g: (g * s * (1.0 - s),))


def softplus(a: Tensor) -> Tensor:
    # log(1 + e^x), computed stably for large |x|
    x = a.data
    out = Tensor(np.logaddexp(0.0, x))

    def backward(g):
        sig = 1.0 / (1.0 + np.exp(-x))
        return (g * sig,)

    return _record(out, (a,), backward)


def stop_gradient(a: Tensor) -> Tensor:
    """Identity forward; blocks all gradient flow into ``a``."""
    return Tensor(a.data)


def _inverse_mask(mask) -> np.ndarray:
    """``~mask`` as a bool array, after checking that every row permits an
    entry: each row of the broadcast mask is a row of mask, so checking it
    suffices."""
    mask = np.asarray(mask, dtype=bool)
    if not np.atleast_1d(mask).any(axis=-1).all():
        raise DegenerateRowError("softmax row with no permitted entries")
    return ~mask


def _softmax_block_(zb: np.ndarray, masked) -> np.ndarray:
    """Row softmax of block ``zb`` over its last axis, restricted to the
    entries that ``masked`` (which broadcasts against zb) does not mark, in
    zb's own memory. Stabilized by per-row max subtraction over permitted
    entries; masked entries come out exactly +0.0, as exp(-inf) would give,
    but never reach exp: numpy's vector exp takes a slow path on input that
    holds -inf."""
    np.copyto(zb, -np.inf, where=masked)
    np.subtract(zb, zb.max(axis=-1, keepdims=True), out=zb)
    np.copyto(zb, 0.0, where=masked)
    np.exp(zb, out=zb)
    np.copyto(zb, 0.0, where=masked)
    return np.divide(zb, zb.sum(axis=-1, keepdims=True), out=zb)


def _softmax_grad_into(g: np.ndarray, s: np.ndarray,
                       out: np.ndarray) -> np.ndarray:
    """Gradient of the logits of row softmax ``s`` from its gradient ``g``,
    written in ``out`` and returned: one block's work.

    ds/dz = diag(s) - s s^T per row, so the result is s * (g - <g, s>);
    masked entries carry no gradient.
    """
    np.multiply(g, s, out=out)
    dot = out.sum(axis=-1, keepdims=True)
    np.subtract(g, dot, out=out)
    return np.multiply(s, out, out=out)


def masked_softmax_rows(logits: Tensor, mask: np.ndarray) -> Tensor:
    """Row-wise softmax over the last axis restricted to ``mask`` entries,
    for small logits such as the prior's [n_ph, 3] mixture: one block."""
    s = _softmax_block_(logits.data.copy(), _inverse_mask(mask))
    out = Tensor(s)
    return _record(out, (logits,), lambda g: (
        _softmax_grad_into(g, s, np.empty(s.shape)),))


# ---------------------------------------------------------------------------
# Fused operations
# ---------------------------------------------------------------------------

# Each op below is one tape node in place of a chain of primitive ones, and
# its backward closure holds only the arrays that backward reads. Two rules
# keep values and gradients bitwise equal to the chain's: the forward and
# backward evaluate the chain's per-element expressions and numpy
# reductions in the chain's order, and an input the chain's gradient
# reached twice is listed twice, so the tape adds its two gradients in the
# chain's order.

LN_EPS = 1e-6


def layer_norm(x: Tensor, g: Tensor, b: Tensor) -> Tensor:
    """g * (x - mean) / sqrt(var + LN_EPS) + b over the last axis.

    Replaces the chain tmean, sub, square, tmean, add, sqrt, div, mul, add;
    keeps the centred input and the std. ``x`` is listed twice: the chain
    added its gradient through ``x - mean`` first, then through the mean.
    """
    inv_n = 1.0 / float(x.data.shape[-1])
    xc = x.data - x.data.sum(axis=-1, keepdims=True) * inv_n
    sd = np.sqrt((xc * xc).sum(axis=-1, keepdims=True) * inv_n + LN_EPS)
    out = Tensor(g.data * (xc / sd) + b.data)
    need_b, need_g = b.requires_grad, g.requires_grad
    g_data = g.data if x.requires_grad else None

    def backward(G):
        gb = G if need_b else None
        G = _stored(G)
        gg = G * (xc / sd) if need_g else None
        if g_data is None:
            return None, None, gg, gb
        gn = G * g_data
        gvar = _unbroadcast(-gn * xc / (sd * sd), sd.shape) * 0.5 / sd * inv_n
        gxc = gn / sd + gvar * 2.0 * xc
        gmean = _unbroadcast(-gxc, sd.shape) * inv_n
        return gxc, np.broadcast_to(gmean, xc.shape), gg, gb

    return _record(out, (x, x, g, b), backward)


def linear(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """x @ W + b. Replaces matmul and add; keeps x and W."""
    _check_inner(x.data.shape, W.data.shape)
    y = np.matmul(x.data, W.data)
    out = Tensor(np.add(y, b.data, out=y))
    need_b = b.requires_grad
    x_data = x.data if W.requires_grad else None
    W_data = W.data if x.requires_grad else None

    def backward(G):
        gb = G if need_b else None
        return (*_matmul_grads(_stored(G), x_data, W_data), gb)

    return _record(out, (x, W, b), backward)


def _pre_activation(x, W1, b1) -> np.ndarray:
    """x @ W1 + b1, as ``linear`` makes it, in a new array."""
    pre = np.matmul(x, W1)
    return np.add(pre, b1, out=pre)


def feed_forward(x: Tensor, W1: Tensor, b1: Tensor, W2: Tensor,
                 b2: Tensor) -> Tensor:
    """relu(x @ W1 + b1) @ W2 + b2, the position-wise feed-forward.

    Replaces linear, relu and linear; keeps x and the weights. The backward
    recomputes the hidden layer, as ``dual_attention`` recomputes S and P,
    and follows ``linear``'s backward through both layers: the hidden
    gradient is (G @ W2^T) * (pre > 0.0), as relu's node returned it, and
    b1's gradient is that array. Beyond the gradients it returns it holds
    one hidden-sized array and its bool mask at once.
    """
    _check_inner(x.data.shape, W1.data.shape)
    _check_inner(x.data.shape[:-1] + W1.data.shape[-1:], W2.data.shape)
    pre = _pre_activation(x.data, W1.data, b1.data)
    y = np.matmul(np.maximum(pre, 0.0, out=pre), W2.data)
    pre = None
    out = Tensor(np.add(y, b2.data, out=y))
    need_x, need_W1, need_b1, need_W2, need_b2 = (
        t.requires_grad for t in (x, W1, b1, W2, b2))
    need_hidden = need_x or need_W1 or need_b1
    x_data, W1_data, b1_data, W2_data = x.data, W1.data, b1.data, W2.data

    def backward(G):
        gb2 = G if need_b2 else None
        G = _stored(G)
        pre = _pre_activation(x_data, W1_data, b1_data)
        mask = pre > 0.0 if need_hidden else None
        # W2's gradient reads the hidden layer, made in pre's memory
        gW2 = None if not need_W2 else np.matmul(
            np.swapaxes(np.maximum(pre, 0.0, out=pre), -1, -2), G)
        pre = None
        if not need_hidden:
            return None, None, None, gW2, gb2
        gh = np.matmul(G, np.swapaxes(W2_data, -1, -2))
        gh = np.multiply(gh, mask, out=gh)
        mask = None
        gx, gW1 = _matmul_grads(gh, x_data if need_W1 else None,
                                W1_data if need_x else None)
        return gx, gW1, gh if need_b1 else None, gW2, gb2

    return _record(out, (x, W1, b1, W2, b2), backward)


def mean_square(a: Tensor) -> Tensor:
    """Mean of a * a over every entry. Replaces square and tmean; keeps a."""
    x = a.data
    inv_n = 1.0 / float(x.size)
    out = Tensor((x * x).sum() * inv_n)
    # the chain's broadcast gradient times 2.0 is this scalar times 2.0
    return _record(out, (a,), lambda g: (g * inv_n * 2.0 * x,))


def _kl_rows_into(a, b, kl, pc, qc, d, log_q) -> list:
    """One block's symmetric KL(a || b) + KL(b || a) per row, in ``kl``;
    returns the worst |row sum - 1| of a and of b. ``pc`` and ``qc`` take
    the floored a and b and may be a and b themselves; d and log_q are
    scratch."""
    worst = [np.abs(t.sum(axis=-1) - 1.0).max() for t in (a, b)]
    np.clip(a, EPS_PROB, None, out=pc)
    np.clip(b, EPS_PROB, None, out=qc)
    np.log(pc, out=d)  # the log-ratio
    np.subtract(d, np.log(qc, out=log_q), out=d)
    # KL(b||a) sums qc * (log qc - log pc) = -(qc * d) exactly
    np.subtract(np.multiply(pc, d, out=pc).sum(axis=-1),
                np.multiply(qc, d, out=qc).sum(axis=-1), out=kl)
    return worst


def _check_normalized(worst: list, names) -> None:
    """Raise NormalizationError naming the first input whose worst row,
    over every block's (``worst`` holds one pair per block), is further
    than NORM_TOL from summing to 1."""
    for name, w in zip(names, zip(*worst)):
        w = np.max(w)
        if not w <= NORM_TOL:  # a NaN row fails too
            raise NormalizationError(
                f"{name} rows not normalized: max |sum-1| = {w:.3e}"
            )


def _kl_grad_into(g, a, b, out, inside, pc, d) -> np.ndarray:
    """One block's gradient of the symmetric row KL into ``a`` from the KL
    rows' gradient ``g``, in ``out``, which is returned; a and b are only
    read, and inside (bool), pc and d are scratch.

    ((-(G*qc)) / pc) * inside + (G*d + (G*pc) / pc) * inside: KL(b||a)'s
    chain runs first, then KL(a||b)'s, whose pc gets G*d from the product
    before (G*pc)/pc from the log.
    """
    G = g[..., None]
    np.greater_equal(a, EPS_PROB, out=inside)
    np.clip(a, EPS_PROB, None, out=pc)
    np.log(pc, out=d)  # the forward's log-ratio, as it took it
    np.log(np.clip(b, EPS_PROB, None, out=out), out=out)
    np.subtract(d, out, out=d)
    np.multiply(G, d, out=d)
    fwd = np.multiply(G, pc, out=out)
    np.divide(fwd, pc, out=fwd)
    np.add(d, fwd, out=d)
    np.multiply(d, inside, out=d)
    rev = np.clip(b, EPS_PROB, None, out=out)
    np.multiply(G, rev, out=rev)
    np.negative(rev, out=rev)
    np.divide(rev, pc, out=rev)
    np.multiply(rev, inside, out=rev)
    return np.add(rev, d, out=rev)


@dataclass(frozen=True)
class _Attention:
    """What one ``dual_attention`` makes S and P from, as plain arrays over
    its n windows, with the blocks it makes them in. v is not here: ``maps``
    holds this record for as long as the op's outputs live, and must not
    keep v alive."""

    q: np.ndarray       # [n, H, L, d], the heads' views of q [..., L, D]
    k: np.ndarray       # [n, H, L, d], the same of k
    masked: np.ndarray  # True where the mask forbids an entry, [L, L]
    scale: float        # 1 / sqrt(d)
    prior: object       # the logits prior object (``dual_attention``)
    blocks: list        # slices of the n windows (``_blocks``)


def _arrays(a: _Attention, sl, count: int, dtype=np.float64) -> list:
    """``count`` arrays shaped like S of block ``sl``."""
    shape = a.q[sl].shape[:-1] + a.k.shape[-2:-1]
    return [np.empty(shape, dtype) for _ in range(count)]


def _scores_into(a: _Attention, sl, s) -> np.ndarray:
    """S of block ``sl``, in ``s``, which is returned."""
    np.matmul(a.q[sl], np.swapaxes(a.k[sl], -1, -2), out=s)
    return _softmax_block_(np.multiply(s, a.scale, out=s), a.masked)


def _probs_into(a: _Attention, sl, p, *bufs) -> np.ndarray:
    """P of block ``sl``, in ``p``, which is returned; ``bufs`` are
    ``a.prior.scratch(sl)``."""
    return _softmax_block_(a.prior.logits_into(sl, p, *bufs), a.masked)


def _forward_scratch(a: _Attention, sl) -> list:
    return (_arrays(a, sl, 4) + _arrays(a, sl, 1, bool)
            + a.prior.scratch(sl))


def _forward_block(a: _Attention, v, ctx, kl, z, sl, s, p, d, log_q, finite,
                   *bufs) -> list:
    """One forward block: S, its context S @ ``v`` in ``ctx``, P and the KL
    rows in ``kl``; the prior's logits are also copied into ``z``. Returns
    the worst row-sum errors of S and P."""
    _scores_into(a, sl, s)
    np.matmul(s, v[sl], out=ctx[sl])
    a.prior.logits_into(sl, p, *bufs)
    if not np.isfinite(p, out=finite).all():
        raise NumericError("non-finite prior kernel logits")
    np.copyto(z[sl], p)
    _softmax_block_(p, a.masked)
    # the KL floors S and P in their own blocks: neither is read again
    return _kl_rows_into(s, p, kl[sl], s, p, d, log_q)


def _series_scratch(a: _Attention, with_kl: bool, sl) -> list:
    if not with_kl:
        return _arrays(a, sl, 3)
    return (_arrays(a, sl, 5) + _arrays(a, sl, 1, bool)
            + a.prior.scratch(sl))


def _series_block(a: _Attention, v, g_ctx, g_kls, gq, gkT, gv, sl, s, gs, d,
                  *kl_bufs) -> None:
    """One block of the series side of the backward: v's gradient in
    ``gv``, and q's and k's, the latter as [..., d, L], in ``gq`` and
    ``gkT`` (any may be None; all [n, H, ...]), from the gradients of the
    context and, when ``kl_bufs`` (``_series_scratch``'s with the KL) are
    given, of S's KL rows."""
    _scores_into(a, sl, s)
    need_qk = gq is not None or gkT is not None
    gS = None
    if kl_bufs:
        p, pc, inside, *pbufs = kl_bufs
        gS = _kl_grad_into(g_kls[sl], s, _probs_into(a, sl, p, *pbufs),
                           gs, inside, pc, d)
    if g_ctx is not None:
        gc = g_ctx[sl]
        if gv is not None:
            np.matmul(np.swapaxes(s, -1, -2), gc, out=gv[sl])
        if need_qk:
            # the product's gradient, added to the KL's as the tape added
            # S's two
            gm = np.matmul(gc, np.swapaxes(v[sl], -1, -2),
                           out=gs if gS is None else d)
            gS = gm if gS is None else np.add(gS, gm, out=gS)
    if need_qk:
        # the logits' gradient, then q's and k's
        gz = np.multiply(_softmax_grad_into(gS, s, d), a.scale, out=d)
        if gq is not None:
            np.matmul(gz, a.k[sl], out=gq[sl])
        if gkT is not None:
            np.matmul(np.swapaxes(a.q[sl], -1, -2), gz, out=gkT[sl])


def _logits_grad(a: _Attention, g_klp, c, sl, z) -> np.ndarray:
    """The gradient of the prior logits ``z`` of block ``sl`` (over the
    series heads) from P's KL rows' gradient ``g_klp`` and the score's
    scale ``c``, either of which may be None: c * z, then + the softmax's
    part, as the tape added them. Works in z's memory."""
    sm = None
    if g_klp is not None:
        p, s, gP = _arrays(a, sl, 3)
        np.copyto(p, z)
        _kl_grad_into(g_klp[sl], _softmax_block_(p, a.masked),
                      _scores_into(a, sl, s), gP, *_arrays(a, sl, 1, bool),
                      *_arrays(a, sl, 2))
        sm = _softmax_grad_into(gP, p, s)
        p = gP = None
    G = None if c is None else np.multiply(c, z, out=z)
    if sm is not None:
        G = sm if G is None else np.add(G, sm, out=G)
    return G


def _maps(a: _Attention, shape) -> tuple:
    """S and P whole, in ``shape``, recomputed block by block off the
    tape."""
    S = np.empty((len(a.q),) + shape[-3:])
    P = np.empty(S.shape)
    for sl in a.blocks:
        _scores_into(a, sl, S[sl])
        _probs_into(a, sl, P[sl], *a.prior.scratch(sl))
    return S.reshape(shape), P.reshape(shape)


@dataclass
class DualAttention:
    """One layer's ``dual_attention``. Its two KL tensors hold the same
    values: the gradient of ``kl_series`` reaches the series attention S
    only, as the KL of S against stop_gradient(P) sends it, and that of
    ``kl_prior`` the prior attention P only. ``maps()`` recomputes S and P
    whole, off the tape, with the op's own block code, for inspection."""

    context: Tensor    # S @ v with the heads merged, [..., L, D]
    kl_series: Tensor  # symmetric KL per row, [..., H, L]
    kl_prior: Tensor   # the same rows
    score: Tensor      # mean square of the prior logits, a scalar
    maps: object       # () -> (S, P), both [..., H, L, L] arrays


def _heads(x: np.ndarray, H: int) -> np.ndarray:
    """``x`` [..., L, D], one window or a batch, as [n, H, L, D / H] over
    its n windows: the heads split as strided views, as ``reshape`` and
    ``transpose`` split them."""
    L, D = x.shape[-2:]
    return x.reshape(-1, L, H, D // H).transpose(0, 2, 1, 3)


def dual_attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray,
                   prior) -> DualAttention:
    """One layer's multi-head series attention S = softmax(q k^T / sqrt(d))
    and prior attention P, over the ``mask`` [L, L] entries of each row, met
    in their per-row symmetric KL: one tape op over the projections q, k, v
    [..., L, D] (one window or a batch) and the prior's inputs, which keeps
    no array as large as S. The prior's shape sets the head count H: the op
    splits q, k and v into H heads of width d = D / H, and returns the
    context with the heads merged, [..., L, D].

    ``prior`` is a logits prior, an object with
    - ``inputs``, the tensors its logits depend on, which may be none;
    - ``shape``, [n, H, L, L] for n windows (one window is a batch of one);
    - ``scratch(sl)`` and ``logits_into(sl, out, *scratch)``, which writes
      the logits of the windows in block ``sl``, over the H series heads,
      in ``out`` and returns it;
    - ``backward(blocks, logits_grad)``, the inputs' gradients, from
      ``logits_grad(sl, z)``: the logits' gradient of each of ``blocks`` in
      turn, given its logits z, which it may overwrite. It is called only
      when an input needs a gradient, so a prior with no inputs has none.
    P is the row softmax of those logits, and the score their mean square.
    ``mask`` must be [L, L], the prior's windows and L q's, and q's and v's
    widths multiples of H, or ShapeError names both shapes.

    Replaces a chain of primitive ops: the heads split from q, k and v by
    reshape and transpose; S as matmul, transpose, the scaling mul and
    masked_softmax_rows; matmul(S, v) and the heads merged by transpose and
    reshape; P as the prior's kernel logits, their masked softmax and mean
    square; and the symmetric KL (clip, log, sub, mul and tsum per
    direction) on either side of stop_gradient. It evaluates their
    expressions in their order, so its values and gradients are bitwise
    theirs: S's gradient is the KL's plus the product's, as the tape added
    them, the KL is computed once (KL(S||P) and KL(P||S) are the same
    bits), and q's, k's and v's gradients come back C-contiguous [..., L,
    D], as the chain's transpose and reshape nodes handed them on.

    Forward and backward make S and P a block of windows at a time on the
    executor (``_forward_block``, ``_series_block``), and the backward
    recomputes them. Each forward block writes its logits into one whole
    array for the score, whose whole-array sum a blocked sum would round
    differently; it is freed once the score is taken. The prior side of the
    backward is one loop on the calling thread, in ``prior.backward``, so
    that its sums over the batch go in row order; it recomputes S too when
    P's KL has a gradient (``_logits_grad``). A block holding a non-finite
    prior logit raises NumericError once written.
    """
    if q.data.shape[-1] != k.data.shape[-1]:
        raise ShapeError(f"query and key widths disagree: {q.data.shape} "
                         f"vs {k.data.shape}")
    if not (q.ndim in (2, 3) and q.shape[:-1] == k.shape[:-1]
            == v.shape[:-1]):
        raise ShapeError(f"dual_attention takes q, k and v [..., L, D] "
                         f"over one window or a batch, got {q.shape}, "
                         f"{k.shape} and {v.shape}")
    lead, L = q.shape[:-2], q.shape[-2]
    n = lead[0] if lead else 1
    if n == 0:
        raise ShapeError(f"dual_attention takes at least one window, got q "
                         f"{q.shape}")
    if np.shape(mask) != (L, L):
        raise ShapeError(f"the mask is {np.shape(mask)}, not {(L, L)}")
    H = prior.shape[1]
    shape = (n, H, L, L)
    if tuple(prior.shape) != shape:
        raise ShapeError(f"the prior is {tuple(prior.shape)}, not {shape}")
    for name, t in (("q", q), ("v", v)):
        if t.shape[-1] % H:
            raise ShapeError(f"{name} is {t.shape}, whose width does not "
                             f"split into the heads of the prior "
                             f"{tuple(prior.shape)}")
    D, Dv = q.shape[-1], v.shape[-1]
    vd = _heads(v.data, H)
    pin = tuple(prior.inputs)
    a = _Attention(_heads(q.data, H), _heads(k.data, H), _inverse_mask(mask),
                   1.0 / np.sqrt(D // H), prior, _blocks(n, 8 * H * L * L))

    # the context in the merged layout the chain's reshape made, written
    # through its heads' views
    ctx = np.empty(lead + (L, Dv))
    kl = np.empty((n, H, L))
    # the whole logits over the series heads, for the score's sum only
    z = np.empty(shape)
    _check_normalized(
        _blockwise(a.blocks, partial(_forward_block, a, vd,
                                     _heads(ctx, H), kl, z),
                   partial(_forward_scratch, a)),
        ("series attention", "prior attention"))
    # the sum mean_square took over the chain's whole logits
    inv_n = 1.0 / float(z.size)
    score = Tensor(np.multiply(z, z, out=z).sum() * inv_n)
    context = Tensor(ctx)
    kl_series = Tensor(kl.reshape(lead + (H, L)))
    kl_prior = Tensor(kl_series.data)
    need_q, need_k, need_v = (t.requires_grad for t in (q, k, v))
    need_prior, n_prior = any(t.requires_grad for t in pin), len(pin)

    def heads(g):
        return None if g is None else _heads(g, H)

    def backward(grads):
        g_ctx, g_kls, g_klp, g_score = grads
        g_ctx = heads(g_ctx)
        g_kls = None if g_kls is None else g_kls.reshape((n, H, L))
        g_klp = None if g_klp is None else g_klp.reshape((n, H, L))
        reached = g_ctx is not None or g_kls is not None
        # q's and v's gradients are made in the merged layout, through
        # their heads' views
        gq = np.empty(lead + (L, D)) if need_q and reached else None
        # built as [..., d, L], as the matmul left it, and merged at the end
        gkT = np.empty((n, H, D // H, L)) if need_k and reached else None
        gv = np.empty(lead + (L, Dv)) if need_v and g_ctx is not None \
            else None
        need_qk = gq is not None or gkT is not None
        if need_qk or gv is not None:
            # S's KL gradient is worked only when it reaches q or k
            with_kl = g_kls is not None and need_qk
            _blockwise(a.blocks, partial(_series_block, a, vd, g_ctx, g_kls,
                                         heads(gq), gkT, heads(gv)),
                       partial(_series_scratch, a, with_kl))

        prior_grads = [None] * n_prior
        if need_prior and (g_score is not None or g_klp is not None):
            # mean_square's backward scale, g * inv_n * 2.0 in its order
            c = None if g_score is None else g_score * inv_n * 2.0
            prior_grads = a.prior.backward(
                a.blocks, partial(_logits_grad, a, g_klp, c))
        return (gq, None if gkT is None
                else gkT.transpose(0, 3, 1, 2).reshape(lead + (L, D)),
                gv, *prior_grads)

    _record_outputs([(context, (q, k, v)), (kl_series, (q, k)),
                     (kl_prior, pin), (score, pin)], (q, k, v, *pin),
                    backward)
    return DualAttention(context, kl_series, kl_prior, score,
                         partial(_maps, a, lead + (H, L, L)))


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


def clip_global_norm(grads, max_norm: float):
    """Scale the set of gradients so their joint L2 norm is <= max_norm."""
    if max_norm <= 0:
        raise ContractError("max_norm must be positive")
    total = np.sqrt(sum(float((g * g).sum()) for g in grads))
    if total <= max_norm or total == 0.0:
        return list(grads)
    scale = max_norm / total
    return [g * scale for g in grads]


class OptimizerState:
    """Adam moments and step counter for a fixed parameter list."""

    def __init__(self, params, lr=1e-4, clip_norm=None):
        self.params = list(params)
        self.lr = lr
        self.clip_norm = clip_norm
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        """Apply one bias-corrected Adam update from accumulated grads."""
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data)
                 for p in self.params]
        if self.clip_norm is not None:
            grads = clip_global_norm(grads, self.clip_norm)
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        for i, (p, g) in enumerate(zip(self.params, grads)):
            self.m[i] = ADAM_BETA1 * self.m[i] + (1.0 - ADAM_BETA1) * g
            self.v[i] = ADAM_BETA2 * self.v[i] + (1.0 - ADAM_BETA2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
