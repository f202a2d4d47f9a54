import itertools
import os
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
    sym_kl_rows, stop_gradient, EPS_PROB,
)
import priorad.model as pmodel
from priorad.model import PRIOR_MODES, ModelConfig, PiModel, PriorFields
from priorad.training import (TrainConfig, minmax_step, loss_reconstruction,
                              loss_sym_kl, _regularizer)

from chains import reference_dual_attention


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


def test_kl_identity_is_zero():
    rng = np.random.default_rng(2)
    p = rng.random((4, 6)) + 0.1
    p /= p.sum(axis=-1, keepdims=True)
    out = sym_kl_rows(Tensor(p), Tensor(p))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_kl_point_mass_vs_uniform():
    p = Tensor(np.array([[1.0, 0.0]]))
    q = Tensor(np.array([[0.5, 0.5]]))
    # KL(p||q) = ln 2; KL(q||p) is set by the EPS_PROB floor of p's zero,
    # and the floored zero adds ~1e-12 * log(...) to KL(p||q)
    reverse = 0.5 * np.log(0.5) + 0.5 * np.log(0.5 / EPS_PROB)
    np.testing.assert_allclose(sym_kl_rows(p, q).data - reverse,
                               [np.log(2.0)], atol=1e-9)


def test_kl_symmetric_sum_fixture():
    p = Tensor(np.array([[0.5, 0.5]]))
    q = Tensor(np.array([[0.25, 0.75]]))
    total = sym_kl_rows(p, q).data[0]
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
        assert np.all(sym_kl_rows(Tensor(p), Tensor(q)).data >= 0.0)


def test_kl_rejects_unnormalized():
    bad, good = np.array([[0.7, 0.7]]), np.array([[0.5, 0.5]])
    for a, b in ((bad, good), (good, bad)):
        with pytest.raises(NormalizationError):
            sym_kl_rows(Tensor(a), Tensor(b))


@pytest.mark.parametrize("budget", [1, 1 << 62], ids=["one", "unbounded"])
def test_kl_names_the_worst_row_over_all_blocks(budget, monkeypatch):
    # five batch entries, one per block under the budget of one byte; a's
    # worst row is in the last block and b's in the first, and a is named
    monkeypatch.setattr(ad, "BLOCK_BYTES", budget)
    a = np.full((5, 1, 2, 2), 0.5)
    b = a.copy()
    a[1, 0, 0] = [0.5, 0.6]
    a[4, 0, 1] = [0.5, 0.8]
    b[0, 0, 0] = [0.5, 0.9]
    with pytest.raises(NormalizationError,
                       match=r"^a rows not normalized: max \|sum-1\| = "
                             r"3\.000e-01$"):
        sym_kl_rows(Tensor(a), Tensor(b))
    with pytest.raises(NormalizationError, match=r"^b rows .* 4\.000e-01$"):
        sym_kl_rows(Tensor(np.full((5, 1, 2, 2), 0.5)), Tensor(b))


def test_kl_rejects_b_that_needs_a_gradient():
    p = np.array([[0.5, 0.5]])
    with pytest.raises(ContractError, match="b constant"):
        sym_kl_rows(Tensor(p), Tensor(p.copy(), requires_grad=True))


def test_kl_floored_entry_gets_zero_gradient():
    x = Tensor(np.array([[1.0, 0.0, 0.0], [0.2, 0.3, 0.5]]),
               requires_grad=True)
    q = Tensor(np.array([[0.5, 0.25, 0.25], [0.25, 0.35, 0.4]]))
    with Tape() as tape:
        y = ad.tsum(sym_kl_rows(x, q))
    tape.backward(y)
    # entries below EPS_PROB are clamped, and the clamp passes no gradient
    assert np.array_equal(x.grad[0, 1:], [0.0, 0.0])
    assert np.all(x.grad[0, :1] != 0.0) and np.all(x.grad[1] != 0.0)


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
    # head_dim 3 and model_dim 6: neither 1/sqrt(head_dim) nor 1/model_dim
    # is a power of two, so scaling earlier or later would round differently
    return PiModel(ModelConfig(window_length=10, channels=2, model_dim=6,
                               num_layers=2, num_heads=2, feedforward_dim=16,
                               seed=0, prior_mode=prior_mode))


def run_one_step(model):
    """One minmax_step with series ascent on, so both KL sides are used."""
    batch = np.random.default_rng(5).normal(size=(4, 10, 2))
    opt = OptimizerState(model.parameters(), lr=1e-3, clip_norm=5.0)
    minmax_step(batch, model, opt, TrainConfig(series_ascent=True), 0.6)


def reference_backward(nodes, loss):
    """The backward loop before gradients were skipped and freed: every node
    in reverse, nothing released, a copy of every first gradient."""
    loss.grad = np.ones_like(loss.data)
    for out, inputs, backward_fn in reversed(nodes):
        if out.grad is None:
            continue
        grads = backward_fn(out.grad)
        for t, g in zip(inputs, grads):
            if g is None or not t.requires_grad:
                continue
            g = ad._unbroadcast(g, t.data.shape)
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
        reference_backward(tape.nodes, loss)
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
        out = model.forward(x + ad.transpose(shift, (1, 0)))
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
    ("reshape", lambda x: ad.tsum(ad.square(ad.reshape(x, (6,))))),
    ("transpose", lambda x: ad.tsum(ad.square(ad.transpose(x, (1, 0))))),
    ("getitem", lambda x: ad.tsum(ad.square(x[0]))),
    ("relu", lambda x: ad.tsum(ad.square(ad.relu(x + 0.05)))),
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
    # parametrize rows through softmax so both args stay normalized; the
    # causal mask leaves exact zeros, which the EPS_PROB floor handles
    q = RNG.random((4, 4)) + 0.2
    q /= q.sum(axis=-1, keepdims=True)
    for mask in (np.ones((4, 4), dtype=bool), causal_mask(4)):
        qm = np.where(mask, q, 0.0)
        qm /= qm.sum(axis=-1, keepdims=True)

        def build(x):
            p = masked_softmax_rows(x, mask)
            return ad.tsum(sym_kl_rows(p, Tensor(qm)) * Tensor(np.arange(
                1.0, 5.0)))

        check_grad(build, RNG.normal(size=(4, 4)))


@pytest.mark.parametrize("name", ["hurst", "stiffness", "mix_weights",
                                  "phase_period", "phase_gain"])
def test_fd_gradient_prior_logits(name):
    """The prior kernel logits' gradient reaches each field through
    prior_softmax's P alone, its score alone and both together, with one
    prior head per series head (full) and one shared by both (single_head),
    for one window and for a batch of 2."""
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
        weights = Tensor(rng.normal(size=lead + (H, L, L)))
        for through in ("P", "score", "both"):
            def build(x):
                fields = PriorFields(**{k: x if k == name else Tensor(v)
                                        for k, v in values.items()})
                P, score = pmodel.prior_softmax(
                    fields, pmodel.lag_matrix(L), causal_mask(L), H)
                if through == "score":
                    return score
                loss = ad.tsum(P * weights)
                return loss if through == "P" else loss + score * 3.0

            check_grad(build, values[name])


# every input of every fused model op; a weighted sum makes each output
# entry count differently
FUSED_INPUTS = {
    "attention_scores": dict(q=(2, 2, 5, 3), k=(2, 2, 5, 3)),
    "layer_norm": dict(x=(2, 4, 6), g=(6,), b=(6,)),
    "linear": dict(x=(2, 4, 3), W=(3, 5), b=(5,)),
    "mean_square": dict(a=(2, 4, 3)),
}


def _call_fused(op, args):
    if op == "attention_scores":
        return ad.attention_scores(args["q"], args["k"], causal_mask(5))
    return getattr(ad, op)(*args.values())


@pytest.mark.parametrize("op,name", [(op, name) for op, shapes
                                     in FUSED_INPUTS.items()
                                     for name in shapes])
def test_fd_gradient_fused_ops(op, name):
    rng = np.random.default_rng(9)
    values = {n: rng.normal(size=shape)
              for n, shape in FUSED_INPUTS[op].items()}
    out = _call_fused(op, {n: Tensor(v) for n, v in values.items()})
    weights = Tensor(rng.normal(size=out.shape))

    def build(x):
        args = {n: x if n == name else Tensor(v) for n, v in values.items()}
        return ad.tsum(_call_fused(op, args) * weights)

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
    values = dict(q=rng.normal(size=lead + (H, L, 3)),
                  k=rng.normal(size=lead + (H, L, 3)),
                  v=rng.normal(size=lead + (H, L, 3)),
                  hurst=rng.uniform(0.1, 0.9, lead + (L,)),
                  stiffness=rng.uniform(0.6, 3.0, lead + (L,)),
                  mix_weights=mix / mix.sum(axis=-1, keepdims=True),
                  phase_period=rng.uniform(2.0, 6.0, n_ph),
                  phase_gain=rng.uniform(0.0, 1.5, n_ph))
    weights = {o: Tensor(rng.normal(size=lead + (H, L) + s))
               for o, s in (("context", (3,)), ("kl_series", ()),
                            ("kl_prior", ()))}
    weights["score"] = Tensor(rng.normal())

    def build(x):
        t = {n: x if n == name else Tensor(v) for n, v in values.items()}
        prior = pmodel.KernelPrior(PriorFields(*list(t.values())[3:]),
                                   pmodel.lag_matrix(L))
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


# ---------------------------------------------------------------------------
# fused ops against the primitive chains they replace, bitwise
# ---------------------------------------------------------------------------


def _ref_clip(a, lo):
    out = Tensor(np.clip(a.data, lo, None))
    return ad._record(out, (a,), lambda g: (g * (a.data >= lo),))


def _ref_log(a):
    out = Tensor(np.log(a.data))
    return ad._record(out, (a,), lambda g: (g / a.data,))


def _ref_cos(a):
    out = Tensor(np.cos(a.data))
    return ad._record(out, (a,), lambda g: (-g * np.sin(a.data),))


def _ref_neg(a):
    out = Tensor(-a.data)
    return ad._record(out, (a,), lambda g: (-g,))


def _ref_div(a, b):
    out = Tensor(a.data / b.data)

    def backward(g):
        return (g / b.data if a.requires_grad else None,
                -g * a.data / (b.data * b.data) if b.requires_grad else None)

    return ad._record(out, (a, b), backward)


def _ref_sqrt(a):
    out = Tensor(np.sqrt(a.data))
    return ad._record(out, (a,), lambda g: (g * 0.5 / out.data,))


def _ref_sum_last(a):
    """Sum over the last axis, kept as an axis of one."""
    out = Tensor(a.data.sum(axis=-1, keepdims=True))
    return ad._record(out, (a,),
                      lambda g: (np.broadcast_to(g, a.data.shape).copy(),))


def reference_masked_softmax_rows(logits, mask):
    """The op before it worked in temporaries it owns."""
    mask = np.asarray(mask, dtype=bool)
    z = np.where(mask, logits.data, -np.inf)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot),)

    return ad._record(Tensor(s), (logits,), backward)


def reference_attention_scores(q, k, mask):
    scale = 1.0 / np.sqrt(q.shape[-1])
    logits = ad.matmul(q, ad.transpose(
        k, pmodel._swap_axes(k.ndim, -2, -1))) * scale
    return reference_masked_softmax_rows(logits, mask)


def reference_layer_norm(x, g, b):
    n = x.shape[-1]
    mu = _ref_sum_last(x) * (1.0 / n)
    xc = x - mu
    var = _ref_sum_last(ad.square(xc)) * (1.0 / n)
    return g * _ref_div(xc, _ref_sqrt(var + 1e-6)) + b


def reference_linear(x, W, b):
    return ad.matmul(x, W) + b


def reference_mean_square(a):
    return ad.tmean(ad.square(a))


def reference_kl_div_rows(p, q):
    """KL(p||q) per row as the primitive chain clip, log, sub, mul, tsum
    (the normalization check is left to the op under test)."""
    pc = _ref_clip(p, EPS_PROB)
    qc = _ref_clip(q, EPS_PROB)
    return ad.tsum(ad.mul(pc, ad.sub(_ref_log(pc), _ref_log(qc))), axis=-1)


def reference_sym_kl_rows(a, b):
    return reference_kl_div_rows(a, b) + reference_kl_div_rows(b, a)


def reference_prior_logits(fields, lags):
    """The prior kernel mixture as 25 primitive tape nodes."""
    L = lags.shape[-1]
    delta = Tensor(lags)
    n_ph = fields.phase_period.shape[0]

    def row_field(t):
        return ad.reshape(t, t.shape[:-1] + (1, L, 1))

    def per_head(t):
        return ad.reshape(t, (n_ph, 1, 1))

    h_row = row_field(fields.hurst)
    tau_row = row_field(fields.stiffness)
    log_lag = Tensor(np.log1p(lags))
    fractal = _ref_neg(2.0 - 2.0 * h_row) * log_lag
    gaussian = _ref_div(_ref_neg(ad.square(delta)),
                        2.0 * ad.square(tau_row))
    ph = _ref_cos(_ref_div(delta * (2.0 * np.pi),
                           per_head(fields.phase_period)))
    phase = per_head(fields.phase_gain) * ph
    mix = fields.mix_weights
    return (per_head(mix[:, 0]) * fractal
            + per_head(mix[:, 1]) * gaussian
            + per_head(mix[:, 2]) * phase)


def reference_prior_softmax(fields, lags, mask, heads):
    """The prior as the chain it replaces: the kernel logits, their
    single_head broadcast over the heads, the softmax and the mean square."""
    logits = reference_prior_logits(fields, lags)
    if fields.phase_period.shape[0] != heads:
        logits = logits + Tensor(np.zeros((heads, 1, 1)))
    return (reference_masked_softmax_rows(logits, mask),
            reference_mean_square(logits))


# each fused op and the reference it is checked against; these are looked
# up in ``ad`` by the model and the losses, and prior_softmax in ``pmodel``
REFERENCES = {
    "sym_kl_rows": reference_sym_kl_rows,
    "masked_softmax_rows": reference_masked_softmax_rows,
    "attention_scores": reference_attention_scores,
    "layer_norm": reference_layer_norm,
    "linear": reference_linear,
    "mean_square": reference_mean_square,
}


def _training_loss_and_grads(model, x, prior_side):
    """Pass 1's KL side, pass 2's too if ``prior_side``, and every
    regularizer on one tape. Without pass 2's side P gets no gradient, as
    in pass 1 with series ascent on. The values include each layer's S and
    P, from the inspection call."""
    for p in model.parameters():
        p.grad = None
    with Tape() as tape:
        out = model.forward(x)
        loss = (loss_reconstruction(x, out.recon)
                - 3.0 * loss_sym_kl(out.attention, frozen="prior")
                + _regularizer(out, TrainConfig(), 0.6)[0])
        if prior_side:
            loss = loss + 3.0 * loss_sym_kl(out.attention, frozen="series")
    tape.backward(loss)
    values = [loss, out.recon] + [
        t for a in out.attention
        for t in (a.context, a.kl_series, a.kl_prior, a.score)]
    maps = [m for a in out.attention for m in a.maps()]
    return ([t.data for t in values] + maps,
            {n: p.grad for n, p in model.params.items()})


@pytest.mark.parametrize("lead", [(3,), ()], ids=["batch", "window"])
@pytest.mark.parametrize("prior_mode", PRIOR_MODES)
def test_fused_ops_match_primitive_chains_bitwise(prior_mode, lead,
                                                  monkeypatch):
    """The model's fused ops against the primitive chains: dual_attention
    is swapped for the chain of attention_scores, matmul, prior_softmax
    and sym_kl_rows, and each of those for its own primitive chain."""
    x = Tensor(np.random.default_rng(8).normal(size=lead + (10, 2)))
    for prior_side in (True, False):
        model = tiny_model(prior_mode)
        got_values, got_grads = _training_loss_and_grads(model, x, prior_side)
        with monkeypatch.context() as m:
            for name, reference in REFERENCES.items():
                m.setattr(ad, name, reference)
            m.setattr(ad, "dual_attention", reference_dual_attention)
            m.setattr(pmodel, "prior_softmax", reference_prior_softmax)
            want_values, want_grads = _training_loss_and_grads(model, x,
                                                               prior_side)
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
# one batch entry's [H, L, L] slice, which every blocked op's array shares
BLOCK_ROW = BLOCK_H * BLOCK_L * BLOCK_L * 8
# one entry per block, two (so five entries end in a short block), four,
# one block; with two workers each block gets half the budget
BUDGETS = {"one": 1, "two": 2 * BLOCK_ROW, "four": 4 * BLOCK_ROW,
           "unbounded": 1 << 62}
# blocks of a batch of five per (workers, budget)
BLOCK_COUNTS = {(1, "one"): 5, (1, "two"): 3, (1, "four"): 2,
                (1, "unbounded"): 1, (2, "one"): 5, (2, "two"): 5,
                (2, "four"): 3, (2, "unbounded"): 1}
# prior_softmax_score: the prior whose P is reached only through
# stop_gradient, so that its backward starts from the score's gradient alone
BLOCKED_OPS = ["masked_softmax_rows", "attention_scores", "sym_kl_rows",
               "prior_softmax", "prior_softmax_score", "dual_attention"]
# the width of q, k and v in dual_attention and attention_scores
BLOCK_D = 4


def _normalized(x):
    return x / x.sum(axis=-1, keepdims=True)


def _blocked_op_inputs(op, lead, H, L, rng):
    """Leaf tensors for ``op`` over windows ``lead``; only sym_kl_rows' b
    needs no gradient."""
    if op == "sym_kl_rows":
        # exact zeros above the diagonal, as S and P have
        values = {n: _normalized(np.tril(rng.random(lead + (H, L, L)) + 1e-3))
                  for n in "ab"}
    elif op == "masked_softmax_rows":
        values = dict(logits=rng.normal(scale=3.0, size=lead + (H, L, L)))
    else:
        heads = {"attention_scores": "qk", "dual_attention": "qkv"}
        values = {n: rng.normal(size=lead + (H, L, BLOCK_D))
                  for n in heads.get(op, "")}
        if op != "attention_scores":
            values.update(hurst=rng.uniform(0.1, 0.9, lead + (L,)),
                          stiffness=rng.uniform(0.6, 3.0, lead + (L,)),
                          mix_weights=_normalized(rng.random((H, 3)) + 0.1),
                          phase_period=rng.uniform(2.0, 6.0, H),
                          phase_gain=rng.uniform(0.0, 1.5, H))
    return {n: Tensor(v, requires_grad=n != "b") for n, v in values.items()}


def _blocked_op(op, args, L):
    """The outputs of ``op``, as a tuple."""
    mask = causal_mask(L)
    if op.startswith("prior_softmax"):
        P, score = pmodel.prior_softmax(PriorFields(**args),
                                        pmodel.lag_matrix(L), mask,
                                        len(args["phase_period"].data))
        return (P if op == "prior_softmax" else ad.stop_gradient(P)), score
    if op == "attention_scores":
        return ad.attention_scores(args["q"], args["k"], mask),
    if op == "dual_attention":
        q, k, v, *fields = args.values()
        prior = pmodel.KernelPrior(PriorFields(*fields), pmodel.lag_matrix(L))
        a = ad.dual_attention(q, k, v, mask, prior)
        return a.context, a.kl_series, a.kl_prior, a.score
    if op == "sym_kl_rows":
        return ad.sym_kl_rows(args["a"], args["b"]),
    return ad.masked_softmax_rows(args["logits"], mask),


@pytest.mark.parametrize("lead", [(5,), ()], ids=["batch", "window"])
@pytest.mark.parametrize("op", BLOCKED_OPS)
def test_blocked_ops_bitwise_across_block_sizes(op, lead, monkeypatch):
    """Every block size, run serially and on two threads, gives the
    outputs and gradients of one serial block by bytes."""
    H, L = BLOCK_H, BLOCK_L
    rng = np.random.default_rng(12)
    args = _blocked_op_inputs(op, lead, H, L, rng)
    weights = {shape: Tensor(rng.normal(size=shape))
               for shape in ((), lead + (H, L), lead + (H, L, L),
                             lead + (H, L, BLOCK_D))}
    results, counts = {}, {}
    for workers, (name, budget) in itertools.product((1, 2), BUDGETS.items()):
        monkeypatch.setattr(ad, "WORKERS", workers)
        monkeypatch.setattr(ad, "BLOCK_BYTES", budget)
        counts[workers, name] = len(ad._blocks(np.empty(lead + (H, L, L))))
        for t in args.values():
            t.grad = None
        with Tape() as tape:
            outs = _blocked_op(op, args, L)
            terms = [ad.tsum(o * weights[o.shape]) for o in outs]
            loss = sum(terms[1:], terms[0])
        tape.backward(loss)
        results[workers, name] = [o.data for o in outs] + [
            t.grad for t in args.values() if t.requires_grad]
    assert counts == (BLOCK_COUNTS if lead else dict.fromkeys(counts, 1))
    want = results.pop((1, "unbounded"))
    for got in results.values():
        for g, w in zip(got, want, strict=True):
            # tobytes compares the sign bit of every zero too
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


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


@pytest.mark.parametrize("op", BLOCKED_OPS)
def test_blocked_backward_allocates_only_a_few_blocks(op):
    """A blocked backward builds no whole-array temporary: beyond the
    gradients it returns, it allocates at most a few blocks."""
    B, H, L = 32, 4, 64
    assert B * H * L * L * 8 >= 8 * ad.BLOCK_BYTES
    rng = np.random.default_rng(14)
    with Tape() as tape:
        outs = _blocked_op(op, _blocked_op_inputs(op, (B,), H, L, rng), L)
    # the node recorded last among the outputs': an op of several outputs
    # runs its backward there with all of their gradients, so each other
    # output gets one too (the prior's P is left out when it is stopped)
    out, _, backward_fn = [node for node in tape.nodes
                           if any(node[0] is o for o in outs)][-1]
    for o in outs:
        if o is not out and o.requires_grad:
            o.grad = rng.normal(size=o.shape)
    g = rng.normal(size=out.shape)
    tracemalloc.start()
    try:
        grads = backward_fn(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in grads if a is not None)
    assert peak - returned < 4 * ad.BLOCK_BYTES


# ---------------------------------------------------------------------------
# the block executor: two blocks in flight, one on the pool thread
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("batch", [4, 5])
def test_numeric_error_in_the_last_block_reaches_the_caller(batch,
                                                            monkeypatch):
    """One window per block, the last window's H a NaN."""
    monkeypatch.setattr(ad, "WORKERS", 2)
    monkeypatch.setattr(ad, "BLOCK_BYTES", 1)
    args = _blocked_op_inputs("prior_softmax", (batch,), BLOCK_H, BLOCK_L,
                              np.random.default_rng(16))
    _blocked_op("prior_softmax", args, BLOCK_L)
    args["hurst"].data[-1, 2] = np.nan
    with pytest.raises(ad.NumericError, match="non-finite prior kernel"):
        _blocked_op("prior_softmax", args, BLOCK_L)


@pytest.mark.parametrize("pool_fails", [False, True],
                         ids=["calling_thread", "pool_thread"])
def test_blockwise_waits_for_the_other_block_before_raising(pool_fails,
                                                            monkeypatch):
    """Six blocks. The two threads meet at a barrier in their first block
    and again in their second, where the failing thread's block raises.
    The other thread's second block is still running then: it finishes
    before the error reaches the caller, and no fifth block starts."""
    monkeypatch.setattr(ad, "WORKERS", 2)
    monkeypatch.setattr(ad, "BLOCK_BYTES", 1)
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
        ad._blockwise(np.zeros((6, 1, 1, 1)), fn)
    assert len(finished) == 3 and set(finished) - {2, 3} == {0, 1}


def test_blockwise_returns_results_in_block_order(monkeypatch):
    """Whichever thread ran a block."""
    monkeypatch.setattr(ad, "WORKERS", 2)
    monkeypatch.setattr(ad, "BLOCK_BYTES", 1)
    x = np.zeros((7, 1, 1, 1))
    assert ad._blockwise(x, lambda sl: sl.start) == list(range(7))


def test_pooled_blocks_run_in_the_callers_error_state(monkeypatch):
    """Two blocks that meet at a barrier, so that one runs on each thread,
    each take inf - inf: numpy warns unless the caller's np.errstate says
    otherwise."""
    monkeypatch.setattr(ad, "WORKERS", 2)
    monkeypatch.setattr(ad, "BLOCK_BYTES", 1)
    calling = threading.current_thread()
    x = np.full((2, 1, 1, 1), np.inf)

    def run():
        barrier, pooled, out = threading.Barrier(2), [], np.empty(x.shape)

        def fn(sl):
            barrier.wait(timeout=10)
            pooled.append(threading.current_thread() is not calling)
            np.subtract(x[sl], x[sl], out=out[sl])

        ad._blockwise(x, fn)
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
    logits = Tensor(np.random.default_rng(17).normal(size=(4, 2, 5, 5)))
    masked_softmax_rows(logits, causal_mask(5))  # made here, if not before
    threads, started = threading.active_count(), []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    for _ in range(50):
        masked_softmax_rows(logits, causal_mask(5))
    assert threading.active_count() == threads and started == []


def test_importing_starts_no_thread():
    """Nor does an op of one block; the first op of two blocks starts the
    pool thread."""
    code = "; ".join([
        "import threading, numpy as np, priorad.cli, priorad.autodiff as ad",
        "print(threading.active_count())",
        "ad.masked_softmax_rows(ad.Tensor(np.zeros((1, 2, 3, 3))), True)",
        "print(threading.active_count())",
        "ad.masked_softmax_rows(ad.Tensor(np.zeros((2, 1, 256, 256))), True)",
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
    logits = Tensor(np.random.default_rng(19).normal(size=(4, 2, 5, 5)))
    want = masked_softmax_rows(logits, causal_mask(5)).data  # parent's pool
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child writes its result and exits at once
        try:
            os.write(write, masked_softmax_rows(logits,
                                                causal_mask(5)).data.tobytes())
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
        assert fh.read() == want.tobytes()


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


@pytest.mark.parametrize("op", BLOCKED_OPS)
def test_pooled_blocks_allocate_no_block_sized_array(op, monkeypatch):
    """Blocks of four [H, L, L] windows, 2 MB: a block on the pool thread
    allocates less than a sixteenth of that, room for its row reductions
    [..., H, L] but not for a [..., 1, L, L] kernel or a bool mask. The
    prior's backward is a plain loop on the calling thread."""
    B, H, L = 8, 4, 128
    block = B // 2 * H * L * L * 8
    monkeypatch.setattr(ad, "WORKERS", 2)
    monkeypatch.setattr(ad, "BLOCK_BYTES", 2 * block)
    pool = _MeasuredPool(ad._block_pool())
    monkeypatch.setattr(ad, "_block_pool", lambda: pool)
    args = _blocked_op_inputs(op, (B,), H, L, np.random.default_rng(18))
    tracemalloc.start()
    try:
        with Tape() as tape:
            outs = _blocked_op(op, args, L)
            terms = [ad.tsum(o) for o in outs]
            loss = sum(terms[1:], terms[0])
        forward = len(pool.peaks)
        tape.backward(loss)
    finally:
        tracemalloc.stop()
    assert forward >= 1
    assert (len(pool.peaks) == forward) == op.startswith("prior_softmax")
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
    nested functions and priorad's own objects (a prior, its fields)."""
    held, seen = [], set()

    def visit(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            held.append(obj)
        elif isinstance(obj, Tensor):
            visit(obj.data)
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                visit(item)
        elif callable(obj) and hasattr(obj, "__closure__"):
            for cell in obj.__closure__ or ():
                try:
                    visit(cell.cell_contents)
                except ValueError:  # a cell not yet filled
                    pass
        elif type(obj).__module__.startswith("priorad"):
            for item in vars(obj).values():
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
        x = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        q = masked_softmax_rows(Tensor(rng.normal(size=(6, 6))),
                                causal_mask(6)).data
        with Tape() as tape:
            s = masked_softmax_rows(x @ ad.transpose(x, (1, 0)),
                                    causal_mask(6))
            loss = ad.tsum(sym_kl_rows(s, Tensor(q)))
        tape.backward(loss)
        return x.grad.copy(), s.data.copy()

    g1, s1 = run()
    g2, s2 = run()
    assert np.array_equal(g1, g2)
    assert np.array_equal(s1, s2)
