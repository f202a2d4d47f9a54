"""The chain of single ops that ``autodiff.dual_attention`` replaces, kept
as its reference: the fused op must give the chain's values and gradients
bit for bit, and finite differences run through the chain, where
``stop_gradient`` marks the side each KL holds constant."""

import numpy as np

import priorad.autodiff as ad
import priorad.model as pmodel


def reference_dual_attention(q, k, v, mask, prior):
    """attention_scores, matmul(S, v), prior_softmax (or the constant P)
    and sym_kl_rows on either side. Each op is looked up by name when it is
    called, so that a test can put its own chain in its place."""
    S = ad.attention_scores(q, k, mask)
    context = ad.matmul(S, v)
    if isinstance(prior, np.ndarray):
        P, score = ad.Tensor(np.broadcast_to(prior, S.shape)), ad.Tensor(0.0)
    else:
        P, score = pmodel.prior_softmax(
            pmodel.PriorFields(*prior.inputs),
            pmodel.lag_matrix(S.shape[-1]), mask, S.shape[-3])
    kl_series = ad.sym_kl_rows(S, ad.stop_gradient(P))
    kl_prior = ad.sym_kl_rows(P, ad.stop_gradient(S))
    return ad.DualAttention(context, kl_series, kl_prior, score,
                            lambda: (S.data, P.data))
