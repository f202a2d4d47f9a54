"""The primitive chains that the fused ops replace, kept as their reference:
each fused op must give its chain's values and gradients bit for bit.
``reference_feed_forward`` is the chain ``autodiff.feed_forward`` replaces,
two linear layers around a relu, whose nodes keep the relu's input and the
hidden layer that the op recomputes. ``reference_dual_attention`` is the
chain of single ops that ``autodiff.dual_attention`` replaces. It shares no
block code with the op, and finite differences run through it, where
``stop_gradient`` marks the side each KL holds constant.
``FixedLogitsPrior`` is a prior that meets a given attention with
itself."""

import numpy as np

import priorad.autodiff as ad
import priorad.model as pmodel
from priorad.autodiff import EPS_PROB, Tensor


# Each backward captures the arrays it reads, as the tape requires: the
# walk drops every recorded output's data before any backward runs.


def _ref_clip(a, lo):
    x = a.data
    out = Tensor(np.clip(x, lo, None))
    return ad._record(out, (a,), lambda g: (g * (x >= lo),))


def _ref_log(a):
    x = a.data
    out = Tensor(np.log(x))
    return ad._record(out, (a,), lambda g: (g / x,))


def _ref_cos(a):
    x = a.data
    out = Tensor(np.cos(x))
    return ad._record(out, (a,), lambda g: (-g * np.sin(x),))


def _ref_neg(a):
    out = Tensor(-a.data)
    return ad._record(out, (a,), lambda g: (-g,))


def _ref_div(a, b):
    x, y = a.data, b.data
    out = Tensor(x / y)
    need_a, need_b = a.requires_grad, b.requires_grad

    def backward(g):
        return (g / y if need_a else None,
                -g * x / (y * y) if need_b else None)

    return ad._record(out, (a, b), backward)


def _ref_sqrt(a):
    r = np.sqrt(a.data)
    return ad._record(Tensor(r), (a,), lambda g: (g * 0.5 / r,))


def _ref_sum_last(a):
    """Sum over the last axis, kept as an axis of one."""
    shape = a.data.shape
    out = Tensor(a.data.sum(axis=-1, keepdims=True))
    return ad._record(out, (a,),
                      lambda g: (np.broadcast_to(g, shape).copy(),))


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


def reference_feed_forward(x, W1, b1, W2, b2):
    return reference_linear(ad.relu(reference_linear(x, W1, b1)), W2, b2)


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


def reference_dual_attention(q, k, v, mask, prior):
    """S, matmul(S, v), P and its score (for a ``UniformPrior``, the
    uniform matrix built from the mask and a score of 0), and the symmetric
    KL on either side of ``ad.stop_gradient``, which is looked up by name
    when it is called, so that a test can replay its outputs."""
    S = reference_attention_scores(q, k, mask)
    context = ad.matmul(S, v)
    if isinstance(prior, pmodel.UniformPrior):
        uniform = mask / mask.sum(axis=-1, keepdims=True)
        P, score = Tensor(np.broadcast_to(uniform, S.shape)), Tensor(0.0)
    else:
        P, score = reference_prior_softmax(
            pmodel.PriorFields(*prior.inputs),
            pmodel.lag_matrix(S.shape[-1]), mask, S.shape[-3])
    kl_series = reference_sym_kl_rows(S, ad.stop_gradient(P))
    kl_prior = reference_sym_kl_rows(P, ad.stop_gradient(S))
    return ad.DualAttention(context, kl_series, kl_prior, score,
                            lambda: (S.data, P.data))


class FixedLogitsPrior:
    """A logits prior with no inputs whose P is the row-stochastic
    ``attention`` [..., H, L, L] (one window or a batch): its logits are
    log(attention), and 0 where an entry is 0, which the mask leaves out or
    which underflowed. Only tests use it, to meet S with itself."""

    inputs = ()

    def __init__(self, attention):
        attention = attention.reshape((-1,) + attention.shape[-3:])
        self.shape = attention.shape
        self.logits = np.log(attention, where=attention > 0.0,
                             out=np.zeros(attention.shape))

    def scratch(self, sl):
        return []

    def logits_into(self, sl, out):
        np.copyto(out, self.logits[sl])
        return out
