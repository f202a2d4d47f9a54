import numpy as np
import pytest

import priorad.autodiff as ad
from priorad.autodiff import (
    Tensor, Tape, ContractError, DegenerateRowError, NormalizationError,
    ShapeError, OptimizerState, clip_global_norm, masked_softmax_rows,
    kl_div_rows, stop_gradient,
)


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


def test_kl_identity_is_zero():
    rng = np.random.default_rng(2)
    p = rng.random((4, 6)) + 0.1
    p /= p.sum(axis=-1, keepdims=True)
    out = kl_div_rows(Tensor(p), Tensor(p))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_kl_point_mass_vs_uniform():
    p = Tensor(np.array([[1.0, 0.0]]))
    q = Tensor(np.array([[0.5, 0.5]]))
    # clamped zero contributes ~1e-12 * log(...), far under tolerance
    np.testing.assert_allclose(kl_div_rows(p, q).data, [np.log(2.0)],
                               atol=1e-9)


def test_kl_symmetric_sum_fixture():
    p = Tensor(np.array([[0.5, 0.5]]))
    q = Tensor(np.array([[0.25, 0.75]]))
    total = kl_div_rows(p, q).data[0] + kl_div_rows(q, p).data[0]
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
        assert np.all(kl_div_rows(Tensor(p), Tensor(q)).data >= 0.0)


def test_kl_rejects_unnormalized():
    with pytest.raises(NormalizationError):
        kl_div_rows(Tensor(np.array([[0.7, 0.7]])),
                    Tensor(np.array([[0.5, 0.5]])))


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


# ---------------------------------------------------------------------------
# finite-difference property checks, one per op
# ---------------------------------------------------------------------------

RNG = np.random.default_rng(42)


@pytest.mark.parametrize("name,build", [
    ("add", lambda x: ad.tsum(ad.square(x + 1.5))),
    ("sub", lambda x: ad.tsum(ad.square(2.5 - x))),
    ("mul", lambda x: ad.tsum(x * x * 0.7)),
    ("div", lambda x: ad.tsum(ad.div(Tensor(np.ones(1)), x + 3.0))),
    ("neg", lambda x: ad.tsum(ad.square(-x + 0.3))),
    ("exp", lambda x: ad.tsum(ad.exp(x * 0.5))),
    ("log", lambda x: ad.tsum(ad.log(x + 3.0))),
    ("sqrt", lambda x: ad.tsum(ad.sqrt(x + 3.0))),
    ("square", lambda x: ad.tsum(ad.square(x))),
    ("cos", lambda x: ad.tsum(ad.cos(x))),
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
    # parametrize rows through softmax so both args stay normalized
    mask = np.ones((4, 4), dtype=bool)
    q = RNG.random((4, 4)) + 0.2
    q /= q.sum(axis=-1, keepdims=True)

    def build(x):
        p = masked_softmax_rows(x, mask)
        return ad.tsum(kl_div_rows(p, Tensor(q)))

    check_grad(build, RNG.normal(size=(4, 4)))

    def build_q(x):
        qq = masked_softmax_rows(x, mask)
        return ad.tsum(kl_div_rows(Tensor(q), qq))

    check_grad(build_q, RNG.normal(size=(4, 4)))


def test_fd_gradient_broadcast_add():
    def build(x):
        return ad.tsum(ad.square(x + Tensor(np.arange(3.0))))

    check_grad(build, RNG.normal(size=(4, 3)))


def test_clip_gradient_is_inside_indicator():
    x = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
    with Tape() as tape:
        y = ad.tsum(ad.clip(x, -1.0, 1.0) * 3.0)
    tape.backward(y)
    np.testing.assert_array_equal(x.grad, [0.0, 3.0, 0.0])


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
        with Tape() as tape:
            s = masked_softmax_rows(x @ ad.transpose(x, (1, 0)),
                                    causal_mask(6))
            loss = ad.tsum(kl_div_rows(s, s * 1.0))
        tape.backward(loss)
        return x.grad.copy(), s.data.copy()

    g1, s1 = run()
    g2, s2 = run()
    assert np.array_equal(g1, g2)
    assert np.array_equal(s1, s2)
