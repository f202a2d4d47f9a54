"""Minimal dense-tensor autodiff core.

Reverse-mode differentiation over 64-bit numpy arrays with an explicit
operation tape. The tape is single-threaded: ops are recorded and run
backward on the thread that holds it. Only the block math of the ops on
attention-sized arrays may run on one pool thread (``_blockwise``), on
plain arrays. Tensors created outside a tape are plain immutable values.

Gradient ownership: a gradient array may be shared (``add`` hands the same
array to both inputs, and a C-contiguous gradient is stored without a
copy), so no gradient is ever modified in place. A tape is consumed by its
one backward pass, which frees each intermediate gradient and node as it
goes; only the gradients of leaves (tensors created outside the tape, such
as parameters) survive it.
"""

from __future__ import annotations

import contextvars
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

EPS_PROB = 1e-12
NORM_TOL = 1e-6  # largest |row sum - 1| that sym_kl_rows accepts
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

    ``backward`` consumes the tape: it pops the nodes as it walks them and
    a second call raises ContractError. Gradients are accumulated
    out-of-place (``t.grad + g``, never ``+=``), because a gradient array
    may be shared between inputs and with the tensors that received it.
    """

    def __init__(self):
        self.nodes = []  # list of (output, inputs, backward_fn)
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
        self.nodes.append((out, inputs, backward_fn))

    def backward(self, loss: "Tensor"):
        """Accumulate d(loss)/d(x) into ``x.grad`` for every leaf tensor.

        Intermediate gradients are dropped once their node has run, so
        afterwards only leaves hold a ``grad``.
        """
        if self.consumed:
            raise ContractError("tape already consumed")
        if loss.data.ndim != 0 and loss.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {loss.shape}"
            )
        self.consumed = True
        loss.grad = np.ones_like(loss.data)
        # Reverse execution order; each node visited exactly once, and no
        # node visited later can add to the output of one already run.
        while self.nodes:
            out, inputs, backward_fn = self.nodes.pop()
            if out.grad is None:
                continue
            grads = backward_fn(out.grad)
            out.grad = None
            for t, g in zip(inputs, grads):
                if g is None:
                    continue
                g = _unbroadcast(g, t.data.shape)
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


# Ops on attention-sized arrays [..., H, L, L] work through the leading
# (batch) axis in blocks of about this many bytes, so that a block's
# temporaries stay in the L2 cache and no temporary is as large as the
# whole array. A cache budget, measured once (see README, "Autodiff").
BLOCK_BYTES = 512 * 1024
# Threads that run those blocks, the calling thread included: the two cores
# of the reference machine. With 1, every block runs on the calling thread.
WORKERS = 2


def _blocks(x: np.ndarray) -> list:
    """Slices of ``x``'s leading axis, each holding as many entries as fit
    in a WORKERS-th of BLOCK_BYTES and at least one, so that the blocks in
    flight at once hold what one serial block did. An array of at most
    three axes, such as one window's [H, L, L], has no batch axis and is one
    block."""
    if x.ndim <= 3:
        return [...]
    n = len(x)
    step = max(1, BLOCK_BYTES // WORKERS * n // max(x.nbytes, 1))
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


def _no_scratch(sl):
    return []


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
    return bufs if sl is ... else [b[:sl.stop - sl.start] for b in bufs]


def _blockwise(x: np.ndarray, fn, scratch=_no_scratch) -> list:
    """``fn(sl, *bufs)`` over the blocks ``sl`` of ``x`` (``_blocks``): the
    one block executor. Returns the results in block order.

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
    blocks = _blocks(x)
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
    """Dense float64 array participating in recorded computation."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

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


def _record(out: Tensor, inputs, backward_fn):
    if _ACTIVE_TAPE is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _ACTIVE_TAPE.record(out, inputs, backward_fn)
    return out


# ---------------------------------------------------------------------------
# Primitive operations
# ---------------------------------------------------------------------------


# Binary backward functions return None for an input that needs no
# gradient (a constant or a stop-gradient side) instead of computing it.


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def backward(g):
        return (g if a.requires_grad else None,
                g if b.requires_grad else None)

    return _record(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)

    def backward(g):
        return (g if a.requires_grad else None,
                -g if b.requires_grad else None)

    return _record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def backward(g):
        return (g * b.data if a.requires_grad else None,
                g * a.data if b.requires_grad else None)

    return _record(out, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes (leading axes broadcast)."""
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.data.shape} vs {b.data.shape}"
        )
    out = Tensor(np.matmul(a.data, b.data))

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2)) \
            if a.requires_grad else None
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g) \
            if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), backward)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(np.transpose(a.data, axes))
    return _record(out, (a,), lambda g: (np.transpose(g, inv),))


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(old),))


_BASIC_INDEX = (numbers.Integral, slice, type(Ellipsis), type(None))


def getitem(a: Tensor, idx) -> Tensor:
    """``a[idx]`` for a basic index: ints, slices, ``...`` and ``None``."""
    if not all(isinstance(i, _BASIC_INDEX) and not isinstance(i, bool)
               for i in (idx if isinstance(idx, tuple) else (idx,))):
        raise ContractError(f"getitem takes a basic index (ints, slices, "
                            f"... and None), got {idx!r}")
    out = Tensor(a.data[idx])

    def backward(g):
        ga = np.zeros_like(a.data)
        # a basic index reaches each entry once; + 0.0 turns a -0.0 into
        # +0.0, as adding into the zeros did
        ga[idx] = g + 0.0
        return (ga,)

    return _record(out, (a,), backward)


def tsum(a: Tensor, axis=None) -> Tensor:
    out = Tensor(a.data.sum(axis=axis))

    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape),)

    return _record(out, (a,), backward)


def tmean(a: Tensor) -> Tensor:
    """Mean over every entry."""
    return tsum(a) * (1.0 / float(a.data.size))


def square(a: Tensor) -> Tensor:
    out = Tensor(a.data * a.data)
    return _record(out, (a,), lambda g: (g * 2.0 * a.data,))


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    return _record(out, (a,), lambda g: (g * (a.data > 0.0),))


def sigmoid(a: Tensor) -> Tensor:
    out = Tensor(1.0 / (1.0 + np.exp(-a.data)))
    return _record(out, (a,), lambda g: (g * out.data * (1.0 - out.data),))


def softplus(a: Tensor) -> Tensor:
    # log(1 + e^x), computed stably for large |x|
    out = Tensor(np.logaddexp(0.0, a.data))

    def backward(g):
        sig = 1.0 / (1.0 + np.exp(-a.data))
        return (g * sig,)

    return _record(out, (a,), backward)


def stop_gradient(a: Tensor) -> Tensor:
    """Identity forward; blocks all gradient flow into ``a``."""
    return Tensor(a.data)


def _softmax_rows_(z: np.ndarray, mask) -> np.ndarray:
    """Row softmax of ``z`` over its last axis restricted to ``mask``,
    computed in z's own memory, block by block. Stabilized by per-row max
    subtraction over permitted entries; masked entries come out exactly
    +0.0, as exp(-inf) would give, but never reach exp: numpy's vector exp
    takes a slow path on input that holds -inf."""
    mask = np.asarray(mask, dtype=bool)
    # each row of the broadcast mask is a row of mask, so checking it suffices
    if not np.atleast_1d(mask).any(axis=-1).all():
        raise DegenerateRowError("softmax row with no permitted entries")
    masked = np.broadcast_to(~mask, z.shape)

    def block(sl):
        zb, mb = z[sl], masked[sl]
        np.copyto(zb, -np.inf, where=mb)
        np.subtract(zb, zb.max(axis=-1, keepdims=True), out=zb)
        np.copyto(zb, 0.0, where=mb)
        np.exp(zb, out=zb)
        np.copyto(zb, 0.0, where=mb)
        np.divide(zb, zb.sum(axis=-1, keepdims=True), out=zb)

    _blockwise(z, block)
    return z


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


def _softmax_rows_grad(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``_softmax_grad_into`` over whole arrays, block by block."""
    out = np.empty(s.shape)
    _blockwise(out, lambda sl: _softmax_grad_into(g[sl], s[sl], out[sl]))
    return out


def masked_softmax_rows(logits: Tensor, mask: np.ndarray) -> Tensor:
    """Row-wise softmax over the last axis restricted to ``mask`` entries."""
    s = _softmax_rows_(logits.data.copy(), mask)
    out = Tensor(s)
    return _record(out, (logits,), lambda g: (_softmax_rows_grad(g, s),))


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


def attention_scores(q: Tensor, k: Tensor, mask: np.ndarray) -> Tensor:
    """Scaled dot-product attention weights softmax(q k^T / sqrt(d)) over
    the ``mask`` entries of each row: [..., Lq, d], [..., Lk, d] ->
    [..., Lq, Lk].

    Replaces matmul(q, transpose(k)), the scaling mul and
    masked_softmax_rows; keeps q, k and the weights.
    """
    if q.data.shape[-1] != k.data.shape[-1]:
        raise ShapeError(f"query and key widths disagree: {q.data.shape} "
                         f"vs {k.data.shape}")
    scale = 1.0 / np.sqrt(q.data.shape[-1])
    z = np.matmul(q.data, np.swapaxes(k.data, -1, -2))
    s = _softmax_rows_(np.multiply(z, scale, out=z), mask)
    out = Tensor(s)

    def backward(g):
        # block by block: the logits' gradient is never whole; gk is built
        # as [..., d, Lk] and handed on transposed, as the matmul left it
        gq = np.empty(s.shape[:-1] + q.data.shape[-1:]) \
            if q.requires_grad else None
        gkT = np.empty(s.shape[:-2] + k.data.shape[-1:] + s.shape[-1:]) \
            if k.requires_grad else None
        qs = np.broadcast_to(q.data, s.shape[:-1] + q.data.shape[-1:])
        ks = np.broadcast_to(k.data, s.shape[:-2] + k.data.shape[-2:])

        def block(sl, gz):
            _softmax_grad_into(g[sl], s[sl], gz)
            np.multiply(gz, scale, out=gz)
            if gq is not None:
                np.matmul(gz, ks[sl], out=gq[sl])
            if gkT is not None:
                np.matmul(np.swapaxes(qs[sl], -1, -2), gz, out=gkT[sl])

        _blockwise(s, block, lambda sl: [np.empty(s[sl].shape)])
        return gq, None if gkT is None else np.swapaxes(gkT, -1, -2)

    return _record(out, (q, k), backward)


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

    def backward(G):
        gb = G if b.requires_grad else None
        G = _stored(G)
        gg = G * (xc / sd) if g.requires_grad else None
        if not x.requires_grad:
            return None, None, gg, gb
        gn = G * g.data
        gvar = _unbroadcast(-gn * xc / (sd * sd), sd.shape) * 0.5 / sd * inv_n
        gxc = gn / sd + gvar * 2.0 * xc
        gmean = _unbroadcast(-gxc, sd.shape) * inv_n
        return gxc, np.broadcast_to(gmean, xc.shape), gg, gb

    return _record(out, (x, x, g, b), backward)


def linear(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """x @ W + b. Replaces matmul and add; keeps x and W."""
    if x.data.shape[-1] != W.data.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {x.data.shape} vs {W.data.shape}"
        )
    y = np.matmul(x.data, W.data)
    out = Tensor(np.add(y, b.data, out=y))

    def backward(G):
        gb = G if b.requires_grad else None
        G = _stored(G)
        gx = np.matmul(G, np.swapaxes(W.data, -1, -2)) \
            if x.requires_grad else None
        gW = np.matmul(np.swapaxes(x.data, -1, -2), G) \
            if W.requires_grad else None
        return gx, gW, gb

    return _record(out, (x, W, b), backward)


def mean_square(a: Tensor) -> Tensor:
    """Mean of a * a over every entry. Replaces square and tmean; keeps a."""
    inv_n = 1.0 / float(a.data.size)
    out = Tensor((a.data * a.data).sum() * inv_n)
    # the chain's broadcast gradient times 2.0 is this scalar times 2.0
    return _record(out, (a,), lambda g: (g * inv_n * 2.0 * a.data,))


def sym_kl_rows(a: Tensor, b: Tensor) -> Tensor:
    """Per-row symmetric KL(a_i || b_i) + KL(b_i || a_i) over the last axis.

    Entries are floored at EPS_PROB before the log, so exact zeros shared by
    both rows contribute nothing and a floored entry of ``a`` gets no
    gradient. Rows must sum to 1 within NORM_TOL. ``b`` is held constant
    (pass it through ``stop_gradient``); the gradient flows into ``a`` only.

    Replaces the chain ``clip``, ``log``, ``sub``, ``mul``, ``tsum`` per
    direction: the forward takes each log once. Keeps a and b; the backward
    floors them again and recomputes the log-ratio block by block.
    """
    if b.requires_grad:
        raise ContractError("sym_kl_rows holds b constant, but b needs a "
                            "gradient; pass it through stop_gradient")
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sym_kl_rows needs equal shapes, got "
                         f"{a.data.shape} and {b.data.shape}")
    kl = np.empty(a.data.shape[:-1])

    def block(sl, pc, qc, d, log_q):
        ab, bb = a.data[sl], b.data[sl]
        worst = [np.abs(t.sum(axis=-1) - 1.0).max() for t in (ab, bb)]
        np.clip(ab, EPS_PROB, None, out=pc)
        np.clip(bb, EPS_PROB, None, out=qc)
        np.log(pc, out=d)  # the log-ratio
        np.subtract(d, np.log(qc, out=log_q), out=d)
        # KL(b||a) sums qc * (log qc - log pc) = -(qc * d) exactly
        np.subtract(np.multiply(pc, d, out=pc).sum(axis=-1),
                    np.multiply(qc, d, out=qc).sum(axis=-1), out=kl[sl])
        return worst

    # per block, the worst row of a and of b
    worst = _blockwise(a.data, block, lambda sl: [
        np.empty(a.data[sl].shape) for _ in range(4)])
    for name, w in zip("ab", zip(*worst)):
        w = np.max(w)
        if w > NORM_TOL:
            raise NormalizationError(
                f"{name} rows not normalized: max |sum-1| = {w:.3e}"
            )
    out = Tensor(kl)

    def backward(g):
        # ((-(G*qc)) / pc) * inside + (G*d + (G*pc) / pc) * inside: KL(b||a)'s
        # chain runs first, then KL(a||b)'s, whose pc gets G*d from the
        # product before (G*pc)/pc from the log. Each block works in pc, d
        # and its share of the result, which is scratch until it is set.
        ga = np.empty(a.data.shape)

        def block(sl, inside, pc, d):
            G = g[sl][..., None]
            ab, bb, gb = a.data[sl], b.data[sl], ga[sl]
            np.greater_equal(ab, EPS_PROB, out=inside)
            np.clip(ab, EPS_PROB, None, out=pc)
            np.log(pc, out=d)  # the forward's log-ratio, as it took it
            np.log(np.clip(bb, EPS_PROB, None, out=gb), out=gb)
            np.subtract(d, gb, out=d)
            np.multiply(G, d, out=d)
            fwd = np.multiply(G, pc, out=gb)
            np.divide(fwd, pc, out=fwd)
            np.add(d, fwd, out=d)
            np.multiply(d, inside, out=d)
            rev = np.clip(bb, EPS_PROB, None, out=gb)
            np.multiply(G, rev, out=rev)
            np.negative(rev, out=rev)
            np.divide(rev, pc, out=rev)
            np.multiply(rev, inside, out=rev)
            np.add(rev, d, out=rev)

        _blockwise(ga, block, lambda sl: [
            np.empty(ga[sl].shape, bool), np.empty(ga[sl].shape),
            np.empty(ga[sl].shape)])
        return (ga,)

    return _record(out, (a,), backward)


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
