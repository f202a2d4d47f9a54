import functools
import itertools
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import wait

import numpy as np
import pytest

import priorad.autodiff as ad
from priorad.autodiff import (
    Tensor, Tape, ContractError, DegenerateRowError, NormalizationError,
    ShapeError, OptimizerState, clip_global_norm, masked_softmax_rows,
    stop_gradient, EPS_PROB,
)
import priorad.model as pmodel
from priorad.model import PRIOR_MODES, ModelConfig, PiModel, PriorFields
from priorad.training import (TrainConfig, minmax_step, loss_reconstruction,
                              loss_sym_kl, _regularizer)

import chains
from chains import (merge_heads, reference_dual_attention,
                    reference_feed_forward, reference_layer_norm,
                    reference_linear, reference_masked_softmax_rows,
                    reference_mean_square)


def causal_mask(n):
    return np.tril(np.ones((n, n), dtype=bool))


def finite_diff(fn, x, step=1e-5):
    """Central finite differences of a scalar fn at x, elementwise."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp = x.copy(); xp[i] += step
        xm = x.copy(); xm[i] -= step
        g[i] = (fn(xp) - fn(xm)) / (2 * step)
        it.iternext()
    return g


def check_grad(build, x0, step=1e-5, rtol=1e-4):
    """Compare tape gradients against central differences.

    ``build`` maps a Tensor to a scalar Tensor loss; must be pure.
    """
    x = Tensor(x0.copy(), requires_grad=True)
    with Tape() as tape:
        loss = build(x)
    tape.backward(loss)
    got = x.grad

    def scalar(arr):
        return float(build(Tensor(arr)).data)

    want = finite_diff(scalar, x0, step=step)
    denom = np.maximum(np.abs(want), 1.0)
    assert got is not None
    np.testing.assert_allclose(got, want, rtol=0, atol=rtol * denom.max())
    mask = np.abs(want) > 1e-6
    if mask.any():
        rel = np.abs(got[mask] - want[mask]) / np.abs(want[mask])
        assert rel.max() < rtol


# ---------------------------------------------------------------------------
# forward fixtures
# ---------------------------------------------------------------------------


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal((a @ b).data, b.data)


def test_matmul_hand_expansion():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]))
    np.testing.assert_array_equal((a @ b).data,
                                  np.array([[19.0, 22.0], [43.0, 50.0]]))


def test_matmul_zero_annihilates():
    a = Tensor(np.zeros((3, 4)))
    b = Tensor(np.arange(8.0).reshape(4, 2))
    assert np.all((a @ b).data == 0.0)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError, match="3"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_softmax_equal_logits_uniform():
    s = masked_softmax_rows(Tensor(np.zeros((5, 5))), causal_mask(5))
    np.testing.assert_allclose(s.data[2, :3], [1 / 3] * 3, atol=1e-15)
    assert np.all(s.data[2, 3:] == 0.0)


def test_softmax_row_zero_is_point_mass():
    rng = np.random.default_rng(0)
    s = masked_softmax_rows(Tensor(rng.normal(size=(4, 4))), causal_mask(4))
    assert s.data[0, 0] == 1.0
    assert np.all(s.data[0, 1:] == 0.0)


def test_softmax_log2_fixture():
    logits = np.zeros((2, 2))
    logits[1] = [0.0, np.log(2.0)]
    s = masked_softmax_rows(Tensor(logits), causal_mask(2))
    np.testing.assert_allclose(s.data[1], [1 / 3, 2 / 3], atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    s = masked_softmax_rows(Tensor(rng.normal(scale=5, size=(20, 20))),
                            causal_mask(20))
    np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-9)
    assert np.all(s.data[~causal_mask(20)] == 0.0)


def test_softmax_degenerate_row():
    mask = causal_mask(3)
    mask[1] = False
    with pytest.raises(DegenerateRowError):
        masked_softmax_rows(Tensor(np.zeros((3, 3))), mask)
    # the mask is checked before it is broadcast over leading axes
    with pytest.raises(DegenerateRowError):
        masked_softmax_rows(Tensor(np.zeros((2, 4, 3, 3))), mask)


def reference_masked_softmax(logits, mask):
    """The forward before the mask was checked un-broadcast and masked
    exponentials were left to exp(-inf)."""
    m = np.broadcast_to(np.asarray(mask, dtype=bool), logits.shape)
    z = np.where(m, logits, -np.inf)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.where(m, np.exp(z), 0.0)
    return e / e.sum(axis=-1, keepdims=True)


def test_softmax_matches_reference_bitwise():
    logits = np.random.default_rng(4).normal(scale=3, size=(3, 2, 7, 7))
    # permitted logits more than 745 below their row's max underflow to 0
    logits[1, 0, 5, :6] = [0.0, -750.0, 2.0, -1e4, -748.0, -1e300]
    for mask in (causal_mask(7), True):
        got = masked_softmax_rows(Tensor(logits), mask).data
        # tobytes compares the sign bit of every zero too
        assert got.tobytes() == reference_masked_softmax(logits,
                                                         mask).tobytes()


def kl_rows(a, b):
    """The symmetric KL per row of a and b, made by the block code of
    dual_attention's forward (on copies, which it floors in place)."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    kl = np.empty(a.shape[:-1])
    ad._kl_rows_into(a, b, kl, a, b, np.empty(a.shape), np.empty(a.shape))
    return kl


def test_kl_identity_is_zero():
    rng = np.random.default_rng(2)
    p = rng.random((4, 6)) + 0.1
    p /= p.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(kl_rows(p, p), 0.0, atol=1e-12)


def test_kl_point_mass_vs_uniform():
    p, q = [[1.0, 0.0]], [[0.5, 0.5]]
    # KL(p||q) = ln 2; KL(q||p) is set by the EPS_PROB floor of p's zero,
    # and the floored zero adds ~1e-12 * log(...) to KL(p||q)
    reverse = 0.5 * np.log(0.5) + 0.5 * np.log(0.5 / EPS_PROB)
    np.testing.assert_allclose(kl_rows(p, q) - reverse, [np.log(2.0)],
                               atol=1e-9)


def test_kl_symmetric_sum_fixture():
    total = kl_rows([[0.5, 0.5]], [[0.25, 0.75]])[0]
    want = (0.5 * np.log(2.0) + 0.5 * np.log(2 / 3)
            + 0.25 * np.log(0.5) + 0.75 * np.log(1.5))
    np.testing.assert_allclose(total, want, atol=1e-12)
    np.testing.assert_allclose(total, 0.2746, atol=1e-4)


def test_kl_nonnegative_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = rng.random((5, 7)) + 1e-3
        q = rng.random((5, 7)) + 1e-3
        p /= p.sum(axis=-1, keepdims=True)
        q /= q.sum(axis=-1, keepdims=True)
        assert np.all(kl_rows(p, q) >= 0.0)


def uniform_prior(q, H):
    """The ``UniformPrior`` of H heads that meets the queries ``q`` [..., L,
    D], one window or a batch."""
    *lead, L, _ = q.shape
    return pmodel.UniformPrior((*(lead or [1]), H, L, L))


def uniform_prior_kl(q):
    """dual_attention's KL rows between the uniform prior and S of the
    queries ``q`` [n, 1, L, 1] against keys of zeros, which with q zero is
    uniform over j <= i too."""
    q = merge_heads(q)
    zeros = Tensor(np.zeros(q.shape))
    return ad.dual_attention(Tensor(q), zeros, zeros,
                             causal_mask(q.shape[-2]),
                             uniform_prior(q, 1)).kl_series.data


# S and P are softmaxes of finite logits, so through dual_attention only a
# NaN query (in S) can fail the row-sum check. The check takes the worst
# |row sum - 1| of S and of P per block; P's cases go to it directly
KL_NAMES = ("series attention", "prior attention")


def test_kl_rejects_unnormalized():
    ad._check_normalized([(0.0, ad.NORM_TOL)], KL_NAMES)
    with pytest.raises(NormalizationError, match="^prior attention rows"):
        ad._check_normalized([(0.0, 0.4)], KL_NAMES)
    np.testing.assert_allclose(uniform_prior_kl(np.zeros((1, 1, 2, 1))),
                               0.0, atol=1e-12)


@pytest.mark.parametrize("budget", [1, 1 << 62], ids=["one", "unbounded"])
def test_kl_names_the_worst_row_over_all_blocks(budget, monkeypatch):
    # P's worst row is in the last of five blocks; S, checked first, is
    # named when a NaN query in the first of five windows, one per block
    # under the budget of one byte, spoils one of its rows
    with pytest.raises(NormalizationError,
                       match=r"^prior attention rows not normalized: "
                             r"max \|sum-1\| = 3\.000e-01$"):
        ad._check_normalized([(0.0, 0.1), (0.0, 0.0), (0.0, 0.2),
                              (0.0, 0.0), (0.0, 0.3)], KL_NAMES)
    monkeypatch.setattr(ad, "BLOCK_BYTES", budget)
    q = np.zeros((5, 1, 2, 1))
    q[0, 0, 1] = np.nan
    with pytest.raises(NormalizationError,
                       match=r"^series attention rows .* = nan$"):
        uniform_prior_kl(q)


@pytest.mark.parametrize("side", ["series", "prior"])
def test_kl_rejects_a_nan_row(side):
    """A NaN row fails the row-sum check, which it would pass if compared
    as |sum - 1| > NORM_TOL: a NaN query spoils a row of S, and a NaN row
    of P is handed to the check."""
    if side == "series":
        q = np.zeros((2, 1, 3, 1))
        q[1, 0, 2] = np.nan
        check = functools.partial(uniform_prior_kl, q)
    else:
        check = functools.partial(ad._check_normalized,
                                  [(0.0, 0.0), (0.0, np.nan)], KL_NAMES)
    with pytest.raises(NormalizationError,
                       match=f"^{side} attention rows .* = nan$"):
        check()


def test_kl_floored_entry_gets_zero_gradient():
    """The gradient of the KL rows into a, made by the block code of
    dual_attention's backward."""
    a = np.array([[1.0, 0.0, 0.0], [0.2, 0.3, 0.5]])
    b = np.array([[0.5, 0.25, 0.25], [0.25, 0.35, 0.4]])
    grad = ad._kl_grad_into(np.ones(2), a, b, np.empty(a.shape),
                            np.empty(a.shape, bool), np.empty(a.shape),
                            np.empty(a.shape))
    # entries below EPS_PROB are clamped, and the clamp passes no gradient
    assert np.array_equal(grad[0, 1:], [0.0, 0.0])
    assert np.all(grad[0, :1] != 0.0) and np.all(grad[1] != 0.0)


def test_stop_gradient_forward_identity_and_grad():
    x0 = np.array([3.0, -2.0])
    x = Tensor(x0.copy(), requires_grad=True)
    with Tape() as tape:
        y = ad.tsum(stop_gradient(x) * x)
    np.testing.assert_array_equal(y.data, (x0 * x0).sum())
    tape.backward(y)
    # d/dx [sg(x) * x] = x, not 2x
    np.testing.assert_array_equal(x.grad, x0)


def test_stop_gradient_only_path_gives_no_grad():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with Tape() as tape:
        y = ad.tsum(ad.square(stop_gradient(x)))
    tape.backward(y)
    assert x.grad is None


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = x * 2.0
    with pytest.raises(ContractError):
        tape.backward(y)


@pytest.mark.parametrize("shape", [(), (1,), (1, 1), (3,)],
                         ids=["0d", "one", "one_by_one", "three"])
def test_item_takes_what_backward_takes(shape):
    """item() reads a one-element tensor of any shape, which backward takes
    as a loss, and rejects what backward rejects."""
    w = Tensor(np.array(2.0), requires_grad=True)
    with Tape() as tape:
        y = w * Tensor(np.full(shape, 3.0))
    if np.prod(shape) != 1:
        with pytest.raises(ContractError, match="one-element"):
            y.item()
        with pytest.raises(ContractError, match="one-element"):
            tape.backward(y)
        return
    value = y.item()
    assert type(value) is float and value == 6.0
    tape.backward(y)
    assert w.grad == 3.0


def test_tapes_do_not_nest():
    with Tape():
        with pytest.raises(ContractError):
            with Tape():
                pass


def test_sum_gradient_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        y = ad.tsum(x)
    tape.backward(y)
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_quadratic_gradient():
    x = Tensor(np.array(3.0), requires_grad=True)
    with Tape() as tape:
        y = ad.square(x)
    tape.backward(y)
    np.testing.assert_allclose(x.grad, 6.0)


def test_grad_accumulates_across_reuse():
    x = Tensor(np.array(2.0), requires_grad=True)
    with Tape() as tape:
        y = x * x + x
    tape.backward(y)
    np.testing.assert_allclose(x.grad, 5.0)


def test_tape_is_consumed_by_one_backward():
    x = Tensor(np.array(2.0), requires_grad=True)
    with Tape() as tape:
        y = x * x
    tape.backward(y)
    with pytest.raises(ContractError, match="tape already consumed"):
        tape.backward(y)
    assert x.grad == 4.0  # not counted twice


def test_backward_releases_added_gradients_before_the_next_node():
    # node 2 hands y two gradients: the first is stored as y.grad and then
    # replaced by their sum, so neither array is alive when node 1 runs
    x = Tensor(np.ones(3), requires_grad=True)
    handed, alive_in_node1 = [], []

    def node1_backward(g):
        alive_in_node1.extend(ref() is not None for ref in handed)
        return (g,)

    def node2_backward(g):
        grads = (g * 2.0, g * 3.0)
        handed.extend(weakref.ref(a) for a in grads)
        return grads

    with Tape() as tape:
        y = ad._record(Tensor(x.data * 1.0), (x,), node1_backward)
        z = ad._record(Tensor(y.data + y.data), (y, y), node2_backward)
        loss = ad.tsum(z)
    tape.backward(loss)
    assert alive_in_node1 == [False, False]
    np.testing.assert_array_equal(x.grad, np.full(3, 5.0))


# ---------------------------------------------------------------------------
# backward walk: skipped constant gradients, freed tape, leaf ownership
# ---------------------------------------------------------------------------


def tiny_model(prior_mode="full"):
    # heads of width 3 and model_dim 6: neither 1/sqrt(3) nor 1/model_dim
    # is a power of two, so scaling earlier or later would round differently
    return PiModel(ModelConfig(window_length=10, channels=2, model_dim=6,
                               num_layers=2, num_heads=2, feedforward_dim=16,
                               seed=0, prior_mode=prior_mode))


def run_one_step(model):
    """One minmax_step with series ascent on, so both KL sides are used."""
    batch = np.random.default_rng(5).normal(size=(4, 10, 2))
    opt = OptimizerState(model.parameters(), lr=1e-3, clip_norm=5.0)
    minmax_step(batch, model, opt, TrainConfig(series_ascent=True), 0.6)


def reference_backward(tape, loss):
    """The backward loop before gradients were skipped and freed: every node
    of ``tape`` in reverse, nothing released, a copy of every first
    gradient. A node holds its output's gradient cell and, per input, the
    input's cell, a leaf, or None for an input that needs no gradient; the
    inputs' shapes are the tape's."""
    loss._cell.grad = np.ones_like(loss.data)
    for (out, inputs, backward_fn), shapes in zip(reversed(tape.nodes),
                                                  reversed(tape.shapes)):
        if out.grad is None:
            continue
        grads = backward_fn(out.grad)
        for t, shape, g in zip(inputs, shapes, grads):
            if g is None or t is None:
                continue
            g = ad._unbroadcast(g, shape)
            if t.grad is None:
                t.grad = g.copy()
            else:
                t.grad = t.grad + g


@pytest.mark.parametrize("prior_mode", PRIOR_MODES)
def test_backward_matches_reference_loop_bitwise(prior_mode, monkeypatch):
    model = tiny_model(prior_mode)
    params = model.parameters()
    backward = Tape.backward
    reached = []

    def checked(tape, loss):
        # the reference walks the same nodes first, then every gradient is
        # cleared and the real backward runs on the untouched tape
        outs = [out for out, _, _ in tape.nodes]
        reference_backward(tape, loss)
        want = [p.grad for p in params]
        for t in outs + params:
            t.grad = None
        backward(tape, loss)
        for p, w in zip(params, want):
            assert (p.grad is None) == (w is None)
            assert w is None or np.array_equal(p.grad, w)
        reached.append(sum(w is not None for w in want))

    monkeypatch.setattr(Tape, "backward", checked)
    run_one_step(model)
    assert len(reached) == 2 and min(reached) > 0


def test_backward_frees_intermediates_and_owns_leaf_grads():
    model = tiny_model()
    scale = Tensor(np.array(0.5), requires_grad=True)  # a 0-d leaf
    shift = Tensor(np.zeros((2, 10)), requires_grad=True)  # gets a view
    x = Tensor(np.random.default_rng(6).normal(size=(3, 10, 2)))
    with Tape() as tape:
        out = model.forward(x + chains.transpose(shift, (1, 0)))
        loss = ad.tmean(ad.square(out.recon - x)) * scale
    outs = [o for o, _, _ in tape.nodes]
    tape.backward(loss)
    assert tape.nodes == []
    assert all(o.grad is None for o in outs)
    leaves = model.parameters() + [scale, shift]
    reached = [p for p in leaves if p.grad is not None]
    assert scale in reached and shift in reached and len(reached) > 10
    for p in reached:
        assert p.grad.flags.c_contiguous and np.shape(p.grad) == p.shape
    assert x.grad is None


def test_no_gradient_computed_for_constant_inputs(monkeypatch):
    # a spy on Tape.record, as the benchmark tracer wraps it
    sides = {"constant": 0, "computed": 0}
    record = Tape.record

    def spy(tape, out, inputs, backward_fn):
        def counted(g):
            grads = backward_fn(g)
            for t, gr in zip(inputs, grads):
                if not t.requires_grad:
                    sides["constant"] += 1
                    sides["computed"] += gr is not None
            return grads
        record(tape, out, inputs, counted)

    monkeypatch.setattr(Tape, "record", spy)
    run_one_step(tiny_model())
    assert sides["constant"] > 0 and sides["computed"] == 0


# ---------------------------------------------------------------------------
# finite-difference property checks, one per op
# ---------------------------------------------------------------------------

RNG = np.random.default_rng(42)


@pytest.mark.parametrize("name,build", [
    ("add", lambda x: ad.tsum(ad.square(x + 1.5))),
    ("sub", lambda x: ad.tsum(ad.square(2.5 - x))),
    ("mul", lambda x: ad.tsum(x * x * 0.7)),
    ("square", lambda x: ad.tsum(ad.square(x))),
    ("sigmoid", lambda x: ad.tsum(ad.square(ad.sigmoid(x)))),
    ("softplus", lambda x: ad.tsum(ad.square(ad.softplus(x)))),
    ("sum_axis", lambda x: ad.tsum(ad.square(ad.tsum(x, axis=0)))),
    ("mean", lambda x: ad.square(ad.tmean(x))),
    ("reshape", lambda x: ad.tsum(ad.square(chains.reshape(x, (6,))))),
    ("transpose", lambda x: ad.tsum(ad.square(chains.transpose(x, (1, 0))))),
    ("getitem", lambda x: ad.tsum(ad.square(x[0]))),
    ("relu", lambda x: ad.tsum(ad.square(chains.relu(x + 0.05)))),
])
def test_fd_gradients_elementwise(name, build):
    x0 = RNG.normal(size=(2, 3))
    check_grad(build, x0)


def test_fd_gradient_matmul():
    b0 = RNG.normal(size=(3, 2))

    def build(x):
        return ad.tsum(ad.square(x @ Tensor(b0)))

    check_grad(build, RNG.normal(size=(4, 3)))


def test_fd_gradient_batched_matmul():
    b0 = RNG.normal(size=(2, 3, 3))

    def build(x):
        return ad.tsum(ad.square(x @ Tensor(b0)))

    check_grad(build, RNG.normal(size=(2, 4, 3)))


def test_fd_gradient_masked_softmax():
    mask = causal_mask(5)

    def build(x):
        s = masked_softmax_rows(x, mask)
        return ad.tsum(ad.square(s - 0.3))

    check_grad(build, RNG.normal(size=(5, 5)))


def test_fd_gradient_kl():
    # the KL's gradient into S, through dual_attention's queries against a
    # kernel prior over fixed fields; the causal mask leaves exact zeros in
    # S and P, which the EPS_PROB floor handles
    fields = PriorFields(Tensor(RNG.uniform(0.1, 0.9, 4)),
                         Tensor(RNG.uniform(0.6, 3.0, 4)),
                         Tensor([[0.5, 0.3, 0.2]]), Tensor([3.0]),
                         Tensor([0.8]))
    prior = pmodel.KernelPrior(fields, pmodel.lag_matrix(4), 1)
    keys = Tensor(merge_heads(RNG.normal(size=(1, 4, 3))))
    for mask in (np.ones((4, 4), dtype=bool), causal_mask(4)):
        def build(x):
            att = ad.dual_attention(x, keys, keys, mask, prior)
            return ad.tsum(att.kl_series * Tensor(np.arange(1.0, 5.0)))

        check_grad(build, merge_heads(RNG.normal(size=(1, 4, 3))))


@pytest.mark.parametrize("name", ["hurst", "stiffness", "mix_weights",
                                  "phase_period", "phase_gain"])
def test_fd_gradient_prior_logits(name):
    """The prior kernel logits' gradient reaches each field through
    dual_attention's prior KL alone, its score alone and both together,
    with one prior head per series head (full) and one shared by both
    (single_head), for one window and for a batch of 2."""
    # windows of length 5 and 2 series heads, each value inside the range
    # prior_fields squashes it to
    rng = np.random.default_rng(7)
    L, H = 5, 2
    for n_ph, lead in itertools.product((H, 1), ((2,), ())):
        mix = rng.random((n_ph, 3)) + 0.1
        values = dict(hurst=rng.uniform(0.1, 0.9, lead + (L,)),
                      stiffness=rng.uniform(0.6, 3.0, lead + (L,)),
                      mix_weights=mix / mix.sum(axis=-1, keepdims=True),
                      phase_period=rng.uniform(2.0, 6.0, n_ph),
                      phase_gain=rng.uniform(0.0, 1.5, n_ph))
        qk = Tensor(merge_heads(rng.normal(size=lead + (H, L, 3))))
        weights = Tensor(rng.normal(size=lead + (H, L)))
        for through in ("kl_prior", "score", "both"):
            def build(x):
                fields = PriorFields(**{k: x if k == name else Tensor(v)
                                        for k, v in values.items()})
                att = ad.dual_attention(
                    qk, qk, qk, causal_mask(L),
                    pmodel.KernelPrior(fields, pmodel.lag_matrix(L), H))
                if through == "score":
                    return att.score
                loss = ad.tsum(att.kl_prior * weights)
                return loss if through == "kl_prior" \
                    else loss + att.score * 3.0

            check_grad(build, values[name])


# the heads attention_scores splits its queries and keys into
SCORE_HEADS = 2


def attention_scores(q, k):
    """S = softmax(q k^T / sqrt(d)) of SCORE_HEADS heads under the causal
    mask, with the heads merged, as dual_attention makes it: its context
    with an identity v per head, beside the uniform prior."""
    *lead, L, _ = q.shape
    v = merge_heads(np.broadcast_to(np.eye(L),
                                    (*lead, SCORE_HEADS, L, L)))
    return ad.dual_attention(q, k, Tensor(v), causal_mask(L),
                             uniform_prior(q, SCORE_HEADS)).context


# every input of every fused model op; a weighted sum makes each output
# entry count differently
FUSED_INPUTS = {
    "attention_scores": dict(q=(2, 5, 6), k=(2, 5, 6)),
    "layer_norm": dict(x=(2, 4, 6), g=(6,), b=(6,)),
    "linear": dict(x=(2, 4, 3), W=(3, 5), b=(5,)),
    "feed_forward": dict(x=(2, 4, 3), W1=(3, 5), b1=(5,), W2=(5, 3),
                         b2=(3,)),
    "mean_square": dict(a=(2, 4, 3)),
}
FUSED_OPS = {"attention_scores": attention_scores, "layer_norm": ad.layer_norm,
             "linear": ad.linear, "feed_forward": ad.feed_forward,
             "mean_square": ad.mean_square}


@pytest.mark.parametrize("op,name", [(op, name) for op, shapes
                                     in FUSED_INPUTS.items()
                                     for name in shapes])
def test_fd_gradient_fused_ops(op, name):
    rng = np.random.default_rng(9)
    values = {n: rng.normal(size=shape)
              for n, shape in FUSED_INPUTS[op].items()}
    out = FUSED_OPS[op](*(Tensor(v) for v in values.values()))
    weights = Tensor(rng.normal(size=out.shape))

    def build(x):
        args = {n: x if n == name else Tensor(v) for n, v in values.items()}
        return ad.tsum(FUSED_OPS[op](*args.values()) * weights)

    check_grad(build, values[name])


# dual_attention's inputs, and the outputs whose gradient reaches each: S
# depends on q and k, P on the prior's fields, and each KL output sends its
# gradient to one side only
DUAL_SIDES = {"q": ("context", "kl_series"), "k": ("context", "kl_series"),
              "v": ("context",), "hurst": ("kl_prior", "score"),
              "stiffness": ("kl_prior", "score"),
              "mix_weights": ("kl_prior", "score"),
              "phase_period": ("kl_prior", "score"),
              "phase_gain": ("kl_prior", "score")}


@pytest.mark.parametrize("lead", [(2,), ()], ids=["batch", "window"])
@pytest.mark.parametrize("n_ph", [2, 1], ids=["full", "single_head"])
@pytest.mark.parametrize("name", DUAL_SIDES)
def test_fd_gradient_dual_attention(name, n_ph, lead):
    """Each input's gradient through the outputs that reach it, with one
    prior head per series head and one shared by both."""
    rng = np.random.default_rng(20)
    H, L = 2, 5
    mix = rng.random((n_ph, 3)) + 0.1
    values = dict(q=merge_heads(rng.normal(size=lead + (H, L, 3))),
                  k=merge_heads(rng.normal(size=lead + (H, L, 3))),
                  v=merge_heads(rng.normal(size=lead + (H, L, 3))),
                  hurst=rng.uniform(0.1, 0.9, lead + (L,)),
                  stiffness=rng.uniform(0.6, 3.0, lead + (L,)),
                  mix_weights=mix / mix.sum(axis=-1, keepdims=True),
                  phase_period=rng.uniform(2.0, 6.0, n_ph),
                  phase_gain=rng.uniform(0.0, 1.5, n_ph))
    weights = {o: Tensor(rng.normal(size=lead + (H, L) + s))
               for o, s in (("context", (3,)), ("kl_series", ()),
                            ("kl_prior", ()))}
    weights["context"] = Tensor(merge_heads(weights["context"].data))
    weights["score"] = Tensor(rng.normal())

    def build(x):
        t = {n: x if n == name else Tensor(v) for n, v in values.items()}
        prior = pmodel.KernelPrior(PriorFields(*list(t.values())[3:]),
                                   pmodel.lag_matrix(L), H)
        att = ad.dual_attention(t["q"], t["k"], t["v"], causal_mask(L), prior)
        terms = [ad.tsum(getattr(att, o) * weights[o])
                 for o in DUAL_SIDES[name]]
        return sum(terms[1:], terms[0])

    check_grad(build, values[name])


def test_fd_gradient_layer_norm_x_beside_another_consumer():
    # x is listed twice among layer_norm's inputs; both of its gradients
    # add to the one a residual consumer left in x.grad first
    rng = np.random.default_rng(10)
    g0, b0 = rng.normal(size=6), rng.normal(size=6)
    weights = Tensor(rng.normal(size=(2, 4, 6)))

    def build(x):
        normed = ad.layer_norm(x, Tensor(g0), Tensor(b0))
        return ad.tsum((x + normed) * weights)

    check_grad(build, rng.normal(size=(2, 4, 6)))


def test_fd_gradient_feed_forward_x_beside_another_consumer():
    # x's gradient from the op adds to the one a residual consumer left in
    # x.grad first, as in the model's x + feed_forward(layer_norm(x))
    rng = np.random.default_rng(11)
    weights = [Tensor(rng.normal(size=s)) for s in ((6, 8), (8,), (8, 6),
                                                    (6,))]
    out_weights = Tensor(rng.normal(size=(2, 4, 6)))

    def build(x):
        return ad.tsum((x + ad.feed_forward(x, *weights)) * out_weights)

    check_grad(build, rng.normal(size=(2, 4, 6)))


def test_feed_forward_matches_its_chain_at_relu_ties():
    """Where x @ W1 + b1 is exactly zero (a zero row of x, a zero bias) the
    relu passes no gradient, as the chain's (pre > 0.0) mask does: values
    and every input's gradient are the chain's by bytes."""
    rng = np.random.default_rng(28)
    x = rng.normal(size=(2, 4, 3))
    x[0, 1] = 0.0
    x[1, 2] = -0.0
    values = [x, rng.normal(size=(3, 5)), np.zeros(5), rng.normal(size=(5, 3)),
              rng.normal(size=3)]
    weights = Tensor(rng.normal(size=(2, 4, 3)))
    runs = []
    for op in (ad.feed_forward, reference_feed_forward):
        args = [Tensor(v, requires_grad=True) for v in values]
        with Tape() as tape:
            out = op(*args)
            loss = ad.tsum(out * weights)
        value = out.data
        tape.backward(loss)
        runs.append([value] + [a.grad for a in args])
    for got, want in zip(*runs, strict=True):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shapes", [((2, 3), (4, 5), (5, 3)),
                                    ((2, 3), (3, 5), (4, 3))],
                         ids=["first", "second"])
def test_feed_forward_shape_mismatch(shapes):
    x, W1, W2 = (Tensor(np.zeros(s)) for s in shapes)
    with pytest.raises(ShapeError, match="inner dimensions"):
        ad.feed_forward(x, W1, Tensor(np.zeros(W1.shape[-1])), W2,
                        Tensor(np.zeros(3)))


def test_dual_attention_checks_the_mask_and_prior_shapes():
    """Before any block runs, a prior or mask that does not fit q [3, 5, 8]
    raises ShapeError naming both shapes: a prior over 2 windows, a prior
    over 6 positions, and a mask over 6 positions."""
    q = Tensor(np.zeros((3, 5, 8)))
    for mask, prior, message in (
            (causal_mask(5), pmodel.UniformPrior((2, 2, 5, 5)),
             "the prior is (2, 2, 5, 5), not (3, 2, 5, 5)"),
            (causal_mask(5), pmodel.UniformPrior((3, 2, 6, 6)),
             "the prior is (3, 2, 6, 6), not (3, 2, 5, 5)"),
            (causal_mask(6), uniform_prior(q, 2),
             "the mask is (6, 6), not (5, 5)")):
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            ad.dual_attention(q, q, q, mask, prior)


@pytest.mark.parametrize("side", ["q", "v"])
def test_dual_attention_checks_the_widths_against_the_prior_heads(side):
    """The prior sets the head count: a kernel prior made for 3 series
    heads does not split q's or v's width of 8, and ShapeError names both
    shapes before any block runs."""
    rng = np.random.default_rng(30)
    fields = PriorFields(Tensor(rng.uniform(0.1, 0.9, (2, 5))),
                         Tensor(rng.uniform(0.6, 3.0, (2, 5))),
                         Tensor(np.full((3, 3), 1.0 / 3.0)),
                         Tensor(np.full(3, 3.0)), Tensor(np.ones(3)))
    prior = pmodel.KernelPrior(fields, pmodel.lag_matrix(5), 3)
    qk, v = (Tensor(np.zeros((2, 5, width)))
             for width in ((8, 9) if side == "q" else (9, 8)))
    message = (f"{side} is (2, 5, 8), whose width does not split into the "
               f"heads of the prior (2, 3, 5, 5)")
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        ad.dual_attention(qk, qk, v, causal_mask(5), prior)


# ---------------------------------------------------------------------------
# fused ops against the primitive chains they replace, bitwise
# ---------------------------------------------------------------------------


# each fused op and the reference it is checked against; these are looked
# up in ``ad`` by the model and the losses
REFERENCES = {
    "masked_softmax_rows": reference_masked_softmax_rows,
    "layer_norm": reference_layer_norm,
    "linear": reference_linear,
    "feed_forward": reference_feed_forward,
    "mean_square": reference_mean_square,
}


def _keep_dual_attentions(monkeypatch) -> list:
    """Wrap ``ad.dual_attention``, whichever op it is now, so that each
    call appends its DualAttention to the list returned: a forward's output
    keeps of each layer only the KL rows and the score, not the context or
    ``maps``."""
    kept, op = [], ad.dual_attention

    def keeping(*args):
        kept.append(op(*args))
        return kept[-1]

    monkeypatch.setattr(ad, "dual_attention", keeping)
    return kept


def _training_loss_and_grads(model, x, prior_side, monkeypatch):
    """Pass 1's KL side, pass 2's too if ``prior_side``, and every
    regularizer on one tape. Without pass 2's side P gets no gradient, as
    in pass 1 with series ascent on. The values include each layer's
    context, KL rows, score, S and P, from the dual attention the layer ran
    in the forward, S and P from its inspection call."""
    for p in model.parameters():
        p.grad = None
    with monkeypatch.context() as m:
        layers = _keep_dual_attentions(m)
        with Tape() as tape:
            out = model.forward(x)
            loss = (loss_reconstruction(x, out.recon)
                    - 3.0 * loss_sym_kl(out.attention, frozen="prior")
                    + _regularizer(out, TrainConfig(), 0.6)[0])
            if prior_side:
                loss = loss + 3.0 * loss_sym_kl(out.attention,
                                                frozen="series")
    values = [loss, out.recon] + [
        t for a in layers
        for t in (a.context, a.kl_series, a.kl_prior, a.score)]
    # read before the walk, which drops every recorded output's data
    values = [t.data for t in values] + [
        m for a in layers for m in a.maps()]
    tape.backward(loss)
    return values, {n: p.grad for n, p in model.params.items()}


@pytest.mark.parametrize("lead", [(3,), ()], ids=["batch", "window"])
@pytest.mark.parametrize("prior_mode", PRIOR_MODES)
def test_fused_ops_match_primitive_chains_bitwise(prior_mode, lead,
                                                  monkeypatch):
    """The model's fused ops against the primitive chains: dual_attention
    is swapped for its chain of single ops, and each other fused op for
    its own."""
    x = Tensor(np.random.default_rng(8).normal(size=lead + (10, 2)))
    for prior_side in (True, False):
        model = tiny_model(prior_mode)
        got_values, got_grads = _training_loss_and_grads(model, x, prior_side,
                                                         monkeypatch)
        with monkeypatch.context() as m:
            for name, reference in REFERENCES.items():
                m.setattr(ad, name, reference)
            m.setattr(ad, "dual_attention", reference_dual_attention)
            want_values, want_grads = _training_loss_and_grads(
                model, x, prior_side, monkeypatch)
        assert len(got_values) == 2 + 6 * model.cfg.num_layers
        for got, want in zip(got_values, want_values, strict=True):
            # tobytes compares the sign bit of every zero too
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        # no_phase trains no mixture or phase parameter
        unused = {n for n in want_grads if prior_mode == "no_phase" and (
            "mix_logits" in n or "phase_" in n)}
        for name, want in want_grads.items():
            assert (want is None) == (name in unused), name
            assert want is None \
                or got_grads[name].tobytes() == want.tobytes(), name


# ---------------------------------------------------------------------------
# attention-sized ops in batch blocks
# ---------------------------------------------------------------------------

BLOCK_H, BLOCK_L = 3, 6
# one window's [H, L, L] slice of S, the unit dual_attention's block budget
# counts in
BLOCK_ROW = BLOCK_H * BLOCK_L * BLOCK_L * 8
# one entry per block, two (so five entries end in a short block), four,
# one block
BUDGETS = {"one": 1, "two": 2 * BLOCK_ROW, "four": 4 * BLOCK_ROW,
           "unbounded": 1 << 62}
# blocks of a batch of five per budget, with one worker or two
BLOCK_COUNTS = {"one": 5, "two": 3, "four": 2, "unbounded": 1}
# the width of q, k and v
BLOCK_D = 4
OUTPUTS = ("context", "kl_series", "kl_prior", "score")
# dual_attention's cases: the outputs whose gradient the loss takes, and
# the prior as a model in that prior mode makes it. context and kl_series
# start the series side of the backward, on the executor, and kl_prior and
# score the prior side, a plain loop; each alone starts its side from its
# gradient alone
DUAL_CASES = {"dual_attention": (OUTPUTS, "full"),
              "dual_attention_context": (("context",), "full"),
              "dual_attention_kl_series": (("kl_series",), "full"),
              "dual_attention_prior": (("kl_prior", "score"), "full"),
              "dual_attention_score": (("score",), "full"),
              "dual_attention_single_head": (OUTPUTS, "single_head"),
              "dual_attention_no_phase": (OUTPUTS, "no_phase")}


def _dual_inputs(case, lead, H, L, rng):
    """Leaf tensors for ``case`` over windows ``lead``: q, k and v [..., L,
    H * BLOCK_D], then the prior's fields, which no_phase's UniformPrior
    has none of."""
    mode = DUAL_CASES[case][1]
    values = {n: merge_heads(rng.normal(size=lead + (H, L, BLOCK_D)))
              for n in "qkv"}
    if mode != "no_phase":
        heads = H if mode == "full" else 1
        mix = rng.random((heads, 3)) + 0.1
        values.update(hurst=rng.uniform(0.1, 0.9, lead + (L,)),
                      stiffness=rng.uniform(0.6, 3.0, lead + (L,)),
                      mix_weights=mix / mix.sum(axis=-1, keepdims=True),
                      phase_period=rng.uniform(2.0, 6.0, heads),
                      phase_gain=rng.uniform(0.0, 1.5, heads))
    return {n: Tensor(v, requires_grad=True) for n, v in values.items()}


def _dual_case(case, args, H, L):
    """dual_attention of H heads over ``args``, and the outputs of ``case``
    in a list."""
    q, k, v, *fields = args.values()
    mask = causal_mask(L)
    if fields:
        prior = pmodel.KernelPrior(PriorFields(*fields), pmodel.lag_matrix(L),
                                   H)
    else:
        prior = uniform_prior(q, H)
    att = ad.dual_attention(q, k, v, mask, prior)
    return att, [getattr(att, o) for o in DUAL_CASES[case][0]]


@pytest.mark.parametrize("lead", [(5,), ()], ids=["batch", "window"])
@pytest.mark.parametrize("op", DUAL_CASES)
def test_blocked_ops_bitwise_across_block_sizes(op, lead, monkeypatch):
    """Every block size, run serially and on two threads, gives the
    outputs, gradients and maps of one serial block by bytes."""
    H, L = BLOCK_H, BLOCK_L
    rng = np.random.default_rng(12)
    args = _dual_inputs(op, lead, H, L, rng)
    weights = {shape: Tensor(rng.normal(size=shape))
               for shape in ((), lead + (H, L), lead + (L, H * BLOCK_D))}
    blocks, seen = ad._blocks, set()

    def counted(*args):  # the blocks dual_attention makes
        out = blocks(*args)
        seen.add(len(out))
        return out

    monkeypatch.setattr(ad, "_blocks", counted)
    results, counts = {}, {}
    for workers, (name, budget) in itertools.product((1, 2), BUDGETS.items()):
        monkeypatch.setattr(ad, "WORKERS", workers)
        monkeypatch.setattr(ad, "BLOCK_BYTES", budget)
        seen.clear()
        for t in args.values():
            t.grad = None
        with Tape() as tape:
            att, outs = _dual_case(op, args, H, L)
            terms = [ad.tsum(o * weights[o.shape]) for o in outs]
            loss = sum(terms[1:], terms[0])
        # read before the walk, which drops every recorded output's data
        values = [getattr(att, o).data for o in OUTPUTS]
        tape.backward(loss)
        counts[workers, name] = seen.copy()
        results[workers, name] = values + [
            *att.maps()] + [t.grad for t in args.values()]
    assert counts == {(workers, name): {n if lead else 1}
                      for workers in (1, 2)
                      for name, n in BLOCK_COUNTS.items()}
    want = results.pop((1, "unbounded"))
    for got in results.values():
        for g, w in zip(got, want, strict=True):
            # tobytes compares the sign bit of every zero too
            assert (g is None) == (w is None)
            assert g is None or (g.shape == w.shape
                                 and g.tobytes() == w.tobytes())


@pytest.mark.parametrize("prior_mode", PRIOR_MODES)
def test_minmax_step_bitwise_across_block_sizes(prior_mode, monkeypatch):
    batch = np.random.default_rng(13).normal(size=(5, 10, 2))
    cfg = TrainConfig(series_ascent=True)
    runs = []
    for workers, budget in itertools.product((1, 2), (1, 1 << 62)):
        monkeypatch.setattr(ad, "WORKERS", workers)
        monkeypatch.setattr(ad, "BLOCK_BYTES", budget)
        model = tiny_model(prior_mode)
        opt = OptimizerState(model.parameters(), lr=1e-3, clip_norm=5.0)
        losses = [minmax_step(batch, model, opt, cfg, 0.6) for _ in range(3)]
        arrays = [np.array([[getattr(b, f) for f in b.FIELDS]
                            for b in losses])]
        arrays += [p.data for p in model.parameters()] + opt.m + opt.v
        runs.append([a.tobytes() for a in arrays])
    assert all(run == runs[0] for run in runs[1:])


@pytest.mark.parametrize("op", DUAL_CASES)
def test_blocked_backward_allocates_only_a_few_blocks(op):
    """A blocked backward builds no whole-array temporary: beyond the
    gradients it returns, it allocates at most a few blocks."""
    B, H, L = 32, 4, 64
    assert B * H * L * L * 8 >= 32 * ad.BLOCK_BYTES
    rng = np.random.default_rng(14)
    with Tape() as tape:
        _, outs = _dual_case(op, _dual_inputs(op, (B,), H, L, rng), H, L)
    # the node recorded last among the outputs': an op of several outputs
    # runs its backward there with all of their gradients, so each other
    # output the case takes gets one too, in its cell
    out, backward_fn = [(o, fn) for cell, _, fn in tape.nodes
                        for o in outs if o._cell is cell][-1]
    for o in outs:
        if o is not out and o.requires_grad:
            o._cell.grad = rng.normal(size=o.shape)
    g = rng.normal(size=out.shape)
    tracemalloc.start()
    try:
        grads = backward_fn(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in grads if a is not None)
    assert peak - returned < 16 * ad.BLOCK_BYTES  # 2 MiB


# the feed-forward's inputs, (x, W1, b1, W2, b2), that need a gradient: with
# all of them the returned gradients outweigh what the backward holds at its
# peak, so the other two cases bound it
FF_NEEDS = {"all": (True,) * 5, "x": (True, False, False, False, False),
            "W2": (False, False, False, True, False)}


@pytest.mark.parametrize("needs", FF_NEEDS)
def test_feed_forward_backward_allocates_one_hidden_layer_and_its_mask(
        needs):
    """At paper shape the feed-forward's backward allocates, beyond the
    gradients it returns, one hidden-sized array and its bool mask: the
    recomputed layer becomes the hidden layer in its own memory for W2's
    gradient and is freed, and the hidden gradient is masked in place."""
    B, L, D, F = 32, 100, 64, 128
    rng = np.random.default_rng(26)
    args = [Tensor(rng.normal(size=s), requires_grad=need) for s, need
            in zip(((B, L, D), (D, F), (F,), (F, D), (D,)), FF_NEEDS[needs])]
    with Tape() as tape:
        ad.feed_forward(*args)
    (_, _, backward_fn), = tape.nodes
    g = rng.normal(size=(B, L, D))
    tracemalloc.start()
    try:
        grads = backward_fn(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [a is not None for a in grads] == list(FF_NEEDS[needs])
    # b2's gradient is g itself, which was allocated before
    returned = sum(a.nbytes for a in grads if a is not None and a is not g)
    hidden = B * L * F * 8
    # the hidden layer, its mask and 64 KiB for numpy's iteration buffers
    assert peak - returned <= hidden + hidden // 8 + 64 * 1024


# ---------------------------------------------------------------------------
# the block executor: two blocks in flight, one on the pool thread
# ---------------------------------------------------------------------------


def _singles(n):
    """Blocks of one entry each over n entries."""
    return [slice(i, i + 1) for i in range(n)]


@pytest.mark.parametrize("batch", [4, 5])
def test_numeric_error_in_the_last_block_reaches_the_caller(batch,
                                                            monkeypatch):
    """One window per block, the last window's H a NaN."""
    monkeypatch.setattr(ad, "WORKERS", 2)
    monkeypatch.setattr(ad, "BLOCK_BYTES", 1)
    args = _dual_inputs("dual_attention", (batch,), BLOCK_H, BLOCK_L,
                        np.random.default_rng(16))
    _dual_case("dual_attention", args, BLOCK_H, BLOCK_L)
    args["hurst"].data[-1, 2] = np.nan
    with pytest.raises(ad.NumericError, match="non-finite prior kernel"):
        _dual_case("dual_attention", args, BLOCK_H, BLOCK_L)


@pytest.mark.parametrize("pool_fails", [False, True],
                         ids=["calling_thread", "pool_thread"])
def test_blockwise_waits_for_the_other_block_before_raising(pool_fails,
                                                            monkeypatch):
    """Six blocks. The two threads meet at a barrier in their first block
    and again in their second, where the failing thread's block raises.
    The other thread's second block is still running then: it finishes
    before the error reaches the caller, and no fifth block starts."""
    monkeypatch.setattr(ad, "WORKERS", 2)
    calling = threading.current_thread()
    rounds = {True: threading.Barrier(2), False: threading.Barrier(2)}
    finished = []

    def fn(sl):
        first = sl.start < 2
        rounds[first].wait(timeout=10)
        if not first:
            if (threading.current_thread() is not calling) == pool_fails:
                raise ValueError("block failed")
            time.sleep(0.1)
        finished.append(sl.start)

    with pytest.raises(ValueError, match="block failed"):
        ad._blockwise(_singles(6), fn, lambda sl: [])
    assert len(finished) == 3 and set(finished) - {2, 3} == {0, 1}


def test_blockwise_returns_results_in_block_order(monkeypatch):
    """Whichever thread ran a block."""
    monkeypatch.setattr(ad, "WORKERS", 2)
    assert ad._blockwise(_singles(7), lambda sl: sl.start,
                         lambda sl: []) == list(range(7))


def test_pooled_blocks_run_in_the_callers_error_state(monkeypatch):
    """Two blocks that meet at a barrier, so that one runs on each thread,
    each take inf - inf: numpy warns unless the caller's np.errstate says
    otherwise."""
    monkeypatch.setattr(ad, "WORKERS", 2)
    calling = threading.current_thread()
    x = np.full((2, 1, 1, 1), np.inf)

    def run():
        barrier, pooled, out = threading.Barrier(2), [], np.empty(x.shape)

        def fn(sl):
            barrier.wait(timeout=10)
            pooled.append(threading.current_thread() is not calling)
            np.subtract(x[sl], x[sl], out=out[sl])

        ad._blockwise(_singles(2), fn, lambda sl: [])
        assert sorted(pooled) == [False, True]
        return out

    with np.errstate(invalid="ignore"):
        assert np.isnan(run()).all()
    with pytest.warns(RuntimeWarning, match="invalid value") as caught:
        run()
    assert len(caught) == 2


def test_block_pool_thread_is_made_once(monkeypatch):
    monkeypatch.setattr(ad, "WORKERS", 2)
    monkeypatch.setattr(ad, "BLOCK_BYTES", 1)
    args = _dual_inputs("dual_attention", (4,), 2, 5,
                        np.random.default_rng(17))
    _dual_case("dual_attention", args, 2, 5)  # made here, if not before
    threads, started = threading.active_count(), []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    for _ in range(50):
        _dual_case("dual_attention", args, 2, 5)
    assert threading.active_count() == threads and started == []


def test_importing_starts_no_thread():
    """Nor does an op of one block; the first op of two blocks starts the
    pool thread. One window of one head at L = 256 is a block of its own
    under the default budget."""
    code = "; ".join([
        "import threading, numpy as np, priorad.cli, priorad.autodiff as ad",
        "from priorad.model import UniformPrior as U",
        "print(threading.active_count())",
        "x = ad.Tensor(np.zeros((2, 256, 1)))",
        "m, p = np.ones((256, 256), bool), U((2, 1, 256, 256))",
        "ad.dual_attention(x[:1], x[:1], x[:1], m, U((1, 1, 256, 256)))",
        "print(threading.active_count())",
        "ad.dual_attention(x, x, x, m, p)",
        "print(threading.active_count())"])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(ad.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.split() == ["1", "1", "2"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork, threads
def test_forked_child_makes_its_own_pool_thread(monkeypatch):
    """The parent's pool thread is not copied into a child, so the child's
    first op of two blocks must start a pool of its own, not hang."""
    monkeypatch.setattr(ad, "WORKERS", 2)
    monkeypatch.setattr(ad, "BLOCK_BYTES", 1)
    args = _dual_inputs("dual_attention", (4,), 2, 5,
                        np.random.default_rng(19))

    def run():
        _, outs = _dual_case("dual_attention", args, 2, 5)
        return b"".join(o.data.tobytes() for o in outs)

    want = run()  # on the parent's pool
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child writes its result and exits at once
        try:
            os.write(write, run())
        finally:
            os._exit(0)
    os.close(write)
    deadline = time.monotonic() + 60
    while not os.waitpid(pid, os.WNOHANG)[0]:
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung in its first op")
        time.sleep(0.05)
    with os.fdopen(read, "rb") as fh:
        assert fh.read() == want


class _MeasuredPool:
    """Runs each pooled block on the pool thread alone, the calling thread
    waiting for it, and records the peak of what the block allocated."""

    def __init__(self, pool):
        self.pool, self.peaks = pool, []

    def submit(self, fn, *args):
        def measured():
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args)
            finally:
                self.peaks.append(tracemalloc.get_traced_memory()[1] - base)

        future = self.pool.submit(measured)
        wait([future])
        return future


@pytest.mark.parametrize("op", DUAL_CASES)
def test_pooled_blocks_allocate_no_block_sized_array(op, monkeypatch):
    """Blocks of two windows, whose S holds 1 MB: a block on the pool
    thread allocates less than a sixteenth of twice that, room for its row
    reductions [..., H, L] but not for a [..., 1, L, L] kernel or a bool
    mask. The prior side of the backward is a plain loop on the calling
    thread, so a case with no series output pools no backward block."""
    B, H, L = 8, 4, 128
    block = B // 2 * H * L * L * 8
    monkeypatch.setattr(ad, "WORKERS", 2)
    monkeypatch.setattr(ad, "BLOCK_BYTES", block // 2)
    pool = _MeasuredPool(ad._block_pool())
    monkeypatch.setattr(ad, "_block_pool", lambda: pool)
    args = _dual_inputs(op, (B,), H, L, np.random.default_rng(18))
    tracemalloc.start()
    try:
        with Tape() as tape:
            _, outs = _dual_case(op, args, H, L)
            terms = [ad.tsum(o) for o in outs]
            loss = sum(terms[1:], terms[0])
        forward = len(pool.peaks)
        tape.backward(loss)
    finally:
        tracemalloc.stop()
    assert forward >= 1
    series = {"context", "kl_series"} & set(DUAL_CASES[op][0])
    assert (len(pool.peaks) > forward) == bool(series)
    assert max(pool.peaks) < block / 16


# ---------------------------------------------------------------------------
# what the tape holds for backward
# ---------------------------------------------------------------------------


def _root(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _reachable_arrays(*roots):
    """Every array reachable from ``roots``: tape nodes, outputs and what
    backward closures capture, followed through tensors, containers,
    nested functions, partials and priorad's own objects (a prior, its
    fields, dual_attention's record of its inputs, a node's gradient
    cell)."""
    held, seen = [], set()

    def visit(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            held.append(obj)
        elif isinstance(obj, Tensor):
            try:
                visit(obj.data)
            except ContractError:  # dropped when its tape's walk started
                pass
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                visit(item)
        elif isinstance(obj, functools.partial):
            visit(obj.func)
            visit(obj.args)
            visit(list(obj.keywords.values()))
        elif callable(obj) and hasattr(obj, "__closure__"):
            for cell in obj.__closure__ or ():
                try:
                    visit(cell.cell_contents)
                except ValueError:  # a cell not yet filled
                    pass
        elif type(obj).__module__.startswith("priorad"):
            # a slotted object (a tape node's gradient cell) by its slots;
            # a weak reference is no function and is not followed
            slots = getattr(type(obj), "__slots__", None)
            for item in (vars(obj).values() if slots is None
                         else [getattr(obj, n, None) for n in slots]):
                visit(item)

    for root in roots:
        visit(root)
    return held


def _attention_sized(arrays, model, batch):
    """The arrays whose memory holds a whole [B, H, L, L] attention's
    entries or more: a view counts by the array it views, so a broadcast
    [L, L] array does not."""
    H, L = model.cfg.num_heads, model.cfg.window_length
    return [a for a in arrays if _root(a).size >= batch * H * L * L]


@pytest.mark.parametrize("prior_mode", PRIOR_MODES)
def test_tape_holds_no_dead_attention_sized_array(prior_mode, monkeypatch):
    """At the start of each training pass's backward, the tape reaches no
    array as large as an [..., H, L, L] attention: dual_attention keeps
    neither S nor P, nor their logits or gradients."""
    model = tiny_model(prior_mode)
    backward = Tape.backward
    checked = []

    def checking_backward(tape, loss):
        held = _reachable_arrays(*tape.nodes)
        assert held and _attention_sized(held, model, 4) == []
        checked.append(loss)
        backward(tape, loss)

    monkeypatch.setattr(Tape, "backward", checking_backward)
    run_one_step(model)
    assert len(checked) == 2


@pytest.mark.parametrize("prior_mode", PRIOR_MODES)
def test_pass_one_attention_freed_before_pass_two_forward(prior_mode,
                                                          monkeypatch):
    """Right after each pass's forward, neither its tape nor its output
    reaches an array as large as an [..., H, L, L] attention, so none of
    pass 1's is alive when pass 2's forward starts."""
    model = tiny_model(prior_mode)
    forward = PiModel.forward
    checked = []

    def watching_forward(self, window):
        out = forward(self, window)
        held = _reachable_arrays(ad._ACTIVE_TAPE.nodes, out.recon,
                                 out.attention, out.fields)
        assert held and _attention_sized(held, model, len(window.data)) == []
        checked.append(window)
        return out

    monkeypatch.setattr(PiModel, "forward", watching_forward)
    run_one_step(model)
    assert len(checked) == 2


class _CheckedBackward:
    """A node's backward that, on the first call of its tape's walk, runs
    ``check(nodes)`` over the tape's nodes with their own backwards, the
    node being run included: the walk has started and no node has run. It
    is no function, so ``_reachable_arrays`` does not follow it."""

    def __init__(self, tape, out, inputs, fn, checked, check):
        self.tape, self.out, self.inputs, self.fn = tape, out, inputs, fn
        self.checked, self.check = checked, check

    def __call__(self, g):
        if all(t is not self.tape for t in self.checked):
            self.checked.append(self.tape)
            nodes = [(o, i, n.fn) for o, i, n in self.tape.nodes]
            self.check(nodes + [(self.out, self.inputs, self.fn)])
        return self.fn(g)


@pytest.mark.parametrize("prior_mode", PRIOR_MODES)
def test_walk_starts_holding_only_what_backward_reads(prior_mode,
                                                      monkeypatch):
    """Once either pass's walk has started, the tape reaches no array but
    those a backward closure captured and the leaves' (parameters,
    constants and the batch): every recorded output's data is gone."""
    record = Tape.record
    checked = []

    def check(nodes):
        outs = {id(o) for o, _, _ in nodes}
        read = _reachable_arrays(*(fn for _, _, fn in nodes))
        leaves = _reachable_arrays(*(t for _, inputs, _ in nodes
                                     for t in inputs if id(t) not in outs))
        allowed = {id(a) for a in read + leaves}
        held = _reachable_arrays(*nodes)
        assert read and held
        assert [a.shape for a in held if id(a) not in allowed] == []

    def spy(tape, out, inputs, backward_fn):
        record(tape, out, inputs, _CheckedBackward(tape, out, inputs,
                                                   backward_fn, checked,
                                                   check))

    monkeypatch.setattr(Tape, "record", spy)
    run_one_step(tiny_model(prior_mode))
    assert len(checked) == 2


@pytest.mark.parametrize("prior_mode", PRIOR_MODES)
def test_reading_a_recorded_output_after_backward_raises(prior_mode,
                                                         monkeypatch):
    """backward drops the data of every recorded output still alive, the
    loss's too, and a later read raises ContractError. Leaves keep theirs,
    and each layer's maps() still recomputes S and P."""
    model = tiny_model(prior_mode)
    x = Tensor(np.random.default_rng(23).normal(size=(3, 10, 2)))
    layers = _keep_dual_attentions(monkeypatch)
    with Tape() as tape:
        out = model.forward(x)
        loss = (loss_reconstruction(x, out.recon)
                + loss_sym_kl(out.attention, frozen="series"))
    # the outputs the program still holds; the tape refers to them weakly
    outs = [o for o in (cell.tensor() for cell, _, _ in tape.nodes)
            if o is not None]
    assert out.recon in outs and loss in outs
    tape.backward(loss)
    for t in outs:
        with pytest.raises(ContractError, match="dropped"):
            t.data
        with pytest.raises(ContractError, match="dropped"):
            t.item()
        assert "dropped" in repr(t)
    assert all(np.isfinite(p.data).all() for p in model.parameters())
    assert np.isfinite(x.data).all()
    assert len(layers) == model.cfg.num_layers
    for att in layers:
        S, P = att.maps()
        assert S.shape == P.shape == (3, 2, 10, 10)


def test_add_output_freed_when_the_walk_starts():
    """An add's output, which no backward reads, is freed before the first
    node runs, not when the walk reaches its node."""
    x = Tensor(np.ones(3), requires_grad=True)
    seen = []
    with Tape() as tape:
        y = x + x
        alive = weakref.ref(y.data)

        def backward(g):
            seen.append(alive())
            return (np.broadcast_to(g, (3,)),)

        loss = ad._record(Tensor(y.data.sum()), (y,), backward)
    assert alive() is not None
    tape.backward(loss)
    assert seen == [None]
    assert np.array_equal(x.grad, np.full(3, 2.0))


def test_add_output_freed_when_the_program_drops_it():
    """The tape refers to a recorded output only weakly: an add's output,
    which no backward reads, is freed as soon as the program drops it, with
    the tape still unwalked."""
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = x + x
        alive = weakref.ref(y.data)
        loss = ad.tsum(y)
    del y
    assert alive() is None
    tape.backward(loss)
    assert np.array_equal(x.grad, np.full(3, 2.0))


@pytest.mark.parametrize("prior_mode", PRIOR_MODES)
def test_forward_tape_holds_only_parameters_and_captured_arrays(prior_mode):
    """Right after a taped forward, before backward is called, the tape
    reaches no array but the leaves' (the parameters) and those a backward
    closure captured: it holds no recorded output's data."""
    model = tiny_model(prior_mode)
    x = Tensor(np.random.default_rng(24).normal(size=(3, 10, 2)))
    with Tape() as tape:
        out = model.forward(x)
    read = _reachable_arrays(*(fn for _, _, fn in tape.nodes))
    allowed = {id(a) for a in read + _reachable_arrays(model.parameters())}
    held = _reachable_arrays(*tape.nodes)
    assert read and held and out.recon.requires_grad
    assert [a.shape for a in held if id(a) not in allowed] == []


@pytest.mark.parametrize("prior_mode", PRIOR_MODES)
def test_forward_tape_holds_no_hidden_layer(prior_mode):
    """Right after a taped forward the tape reaches no feed-forward hidden
    layer [..., L, F], nor the relu's input: ``feed_forward`` keeps its
    input and recomputes them."""
    model = tiny_model(prior_mode)
    cfg = model.cfg
    x = Tensor(np.random.default_rng(27).normal(size=(3, 10, 2)))
    with Tape() as tape:
        model.forward(x)
    params = {id(a) for a in _reachable_arrays(model.parameters())}
    held = _reachable_arrays(*tape.nodes)
    assert held
    assert [a.shape for a in held if id(a) not in params and a.shape[-2:]
            == (cfg.window_length, cfg.feedforward_dim)] == []


@pytest.mark.parametrize("prior_mode", PRIOR_MODES)
def test_tape_free_forward_output_holds_nothing_as_large_as_q(prior_mode):
    """A tape-free forward's output (validation, scoring) keeps each
    layer's KL rows, score and fields: no array of q's [B, H, L, d] size or
    larger, so neither the context nor q, k or the prior."""
    model = tiny_model(prior_mode)
    cfg, B = model.cfg, 3
    out = model.forward(Tensor(np.random.default_rng(25).normal(
        size=(B, cfg.window_length, cfg.channels))))
    q_size = B * cfg.window_length * cfg.model_dim
    held = _reachable_arrays(out)
    assert held
    assert [a.shape for a in held if _root(a).size >= q_size] == []


@pytest.mark.parametrize("case", ["dual_attention",
                                  "dual_attention_no_phase"],
                         ids=["kernel_prior", "constant_prior"])
def test_tape_free_output_keeps_no_reference_to_v(case):
    """A tape-free dual_attention's output, maps() included, may hold q, k
    and the prior, which maps() reads, but not v."""
    args = _dual_inputs(case, (3,), BLOCK_H, BLOCK_L,
                        np.random.default_rng(22))
    att, _ = _dual_case(case, args, BLOCK_H, BLOCK_L)
    v = args.pop("v")
    alive = weakref.ref(v.data)
    del v
    assert alive() is None
    S, P = att.maps()
    assert S.shape == P.shape == (3, BLOCK_H, BLOCK_L, BLOCK_L)


@pytest.mark.parametrize("idx", [(..., 0), (..., 1), (..., slice(1, None)),
                                 0, (1, 0, 1)],
                         ids=["last_0", "last_1", "last_tail", "first",
                              "one_entry"])
def test_getitem_backward_equals_a_scatter_add_into_zeros(idx):
    """By bytes, with -0.0, NaN and infinities in the gradient; the first
    three are the indices prior_fields and loss_smoothness take."""
    a = Tensor(np.ones((2, 3, 2)), requires_grad=True)
    with Tape() as tape:
        out = a[idx]
    _, _, backward_fn = tape.nodes[-1]
    g = np.resize([-0.0, np.nan, np.inf, -np.inf, 1.5, -2.0], out.shape)
    want = np.zeros(a.shape)
    np.add.at(want, idx, g)
    assert backward_fn(g)[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("idx", [np.array([0, 1]), [0, 1],
                                 (..., np.array([True, False])), True],
                         ids=["int_array", "list", "bool_array", "bool"])
def test_getitem_takes_only_a_basic_index(idx):
    with pytest.raises(ContractError, match="basic index"):
        Tensor(np.ones((2, 2)))[idx]


def test_fd_gradient_broadcast_add():
    def build(x):
        return ad.tsum(ad.square(x + Tensor(np.arange(3.0))))

    check_grad(build, RNG.normal(size=(4, 3)))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_clip_global_norm_under_threshold_unchanged():
    g = [np.array([0.3, 0.4])]  # norm 0.5
    out = clip_global_norm(g, 1.0)
    np.testing.assert_array_equal(out[0], g[0])


def test_clip_global_norm_scales_exactly():
    g = [np.array([2.0, 0.0]), np.array([0.0])]  # norm 2
    out = clip_global_norm(g, 1.0)
    np.testing.assert_allclose(out[0], [1.0, 0.0])
    total = np.sqrt(sum((x * x).sum() for x in out))
    assert abs(total - 1.0) < 1e-12


def test_clip_global_norm_invalid():
    with pytest.raises(ContractError):
        clip_global_norm([np.ones(2)], 0.0)


def test_adam_zero_grad_is_fixed_point():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = OptimizerState([p], lr=0.1)
    p.grad = np.zeros(2)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_adam_first_step_is_signed_lr():
    p = Tensor(np.array([0.0, 0.0]), requires_grad=True)
    opt = OptimizerState([p], lr=0.01)
    p.grad = np.array([3.0, -0.5])
    opt.step()
    # bias-corrected first step reduces to -lr * g / (|g| + eps')
    np.testing.assert_allclose(p.data, [-0.01, 0.01], atol=1e-6)


def test_adam_converges_on_quadratic():
    p = Tensor(np.array(5.0), requires_grad=True)
    opt = OptimizerState([p], lr=0.3)
    vals = []
    for _ in range(50):
        opt.zero_grad()
        with Tape() as tape:
            loss = ad.square(p)
        tape.backward(loss)
        opt.step()
        vals.append(abs(float(p.data)))
    assert vals[-1] < 0.5
    assert vals[1] < vals[0]


def test_determinism_same_seed_bitwise():
    def run():
        rng = np.random.default_rng(11)
        x = Tensor(merge_heads(rng.normal(size=(1, 6, 6))),
                   requires_grad=True)
        fields = PriorFields(Tensor(rng.uniform(0.1, 0.9, 6)),
                             Tensor(rng.uniform(0.6, 3.0, 6)),
                             Tensor([[0.2, 0.3, 0.5]]), Tensor([4.0]),
                             Tensor([1.0]))
        prior = pmodel.KernelPrior(fields, pmodel.lag_matrix(6), 1)
        with Tape() as tape:
            att = ad.dual_attention(x, x, x, causal_mask(6), prior)
            loss = ad.tsum(att.kl_series)
        tape.backward(loss)
        return x.grad.copy(), att.maps()[0]

    g1, s1 = run()
    g2, s2 = run()
    assert np.array_equal(g1, g2)
    assert np.array_equal(s1, s2)
