"""Per-step reference forwards for DKVMN, Deep-IRT and DKT.

These build one small graph node per operation and time step, exactly as the
models were first written.  The fused forwards in ``deepkt.models`` must agree
with them on every scored step, in values and in gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from deepkt import autodiff as ad
from deepkt.autodiff import Tensor
from deepkt.models import ABILITY_SCALE, PROB_EPS, DkvmnParams, DktParams


@dataclass
class OracleOutputs:
    """Per-step outputs on the full B x L grid; cells off ``pred_mask`` are
    whatever the padded inputs produce."""
    prob_tensor: Tensor            # B x L, attached to the graph
    pred_mask: np.ndarray
    answers: np.ndarray
    p: np.ndarray
    theta: np.ndarray | None = None
    beta: np.ndarray | None = None
    attention: np.ndarray | None = None


def attention(key_memory: Tensor, kc_embed: Tensor) -> Tensor:
    """Softmax over inner products of each key slot with the KC embedding rows."""
    return ad.softmax_rows(kc_embed @ key_memory.T)


def read(value_memory: Tensor, weights: Tensor) -> Tensor:
    """Attention-weighted combination of batched value-memory rows."""
    return ad.attention_read(value_memory, weights)


def feature_vector(read_vec: Tensor, kc_embed: Tensor, params: DkvmnParams) -> Tensor:
    return ad.tanh(ad.concat_cols(read_vec, kc_embed) @ params.W_f + params.b_f)


def predict_dkvmn(read_vec: Tensor, kc_embed: Tensor, params: DkvmnParams) -> Tensor:
    f = feature_vector(read_vec, kc_embed, params)
    return ad.sigmoid(f @ params.W_p + params.b_p)


def predict_deep_irt(read_vec: Tensor, kc_embed: Tensor, params: DkvmnParams):
    """Returns (p, theta, beta); p = sigmoid(3 * theta - beta)."""
    f = feature_vector(read_vec, kc_embed, params)
    theta = ad.tanh(f @ params.W_theta + params.b_theta)
    beta = ad.tanh(kc_embed @ params.W_beta + params.b_beta)
    p = ad.sigmoid(ad.scale(theta, ABILITY_SCALE) - beta)
    return p, theta, beta


def write(value_memory: Tensor, weights: Tensor, response_embed: Tensor,
          params: DkvmnParams) -> Tensor:
    """Erase-then-add value memory update."""
    e = ad.sigmoid(response_embed @ params.W_e + params.b_e)
    a = ad.tanh(response_embed @ params.W_a + params.b_a)
    return ad.memory_write(value_memory, weights, e, a)


def _clamp_pad(ids):
    # padding id 0 is out of range for the 1-based tables; every use of the
    # dummy row is masked out of the loss and the memory writes
    return np.where(ids >= 1, ids, 1)


def forward_sequence(params: DkvmnParams, batch) -> OracleOutputs:
    """DKVMN or Deep-IRT, one time step at a time; each step predicts from
    the memory before its own write, and padded steps write with weight 0."""
    arch = params.arch
    B, L = batch.q_ids.shape
    value_memory = ad.tile_rows(params.Mv0, B)
    key_t = params.Mk.T

    p_cols = []
    theta_np = np.zeros((B, L)) if arch.deep_irt else None
    beta_np = np.zeros((B, L)) if arch.deep_irt else None
    attn_np = np.zeros((B, L, arch.mem_slots))
    for t in range(L):
        k_t = ad.gather_rows(params.A, _clamp_pad(batch.q_ids[:, t]))
        w_raw = ad.softmax_rows(k_t @ key_t)
        r_t = read(value_memory, w_raw)
        if arch.deep_irt:
            p_t, th_t, be_t = predict_deep_irt(r_t, k_t, params)
            theta_np[:, t] = th_t.data[:, 0]
            beta_np[:, t] = be_t.data[:, 0]
        else:
            p_t = predict_dkvmn(r_t, k_t, params)
        attn_np[:, t, :] = w_raw.data
        p_cols.append(p_t)

        v_t = ad.gather_rows(params.B, _clamp_pad(batch.qa_ids[:, t]))
        mask_col = ad.constant(batch.mask[:, t:t + 1].astype(np.float64))
        value_memory = write(value_memory, ad.mul(w_raw, mask_col), v_t, params)

    prob = ad.concat_cols(*p_cols)
    return OracleOutputs(prob_tensor=prob, pred_mask=batch.mask.copy(),
                         answers=batch.answers.copy(), p=prob.data.copy(),
                         theta=theta_np, beta=beta_np, attention=attn_np)


def forward_dkt(params: DktParams, batch) -> OracleOutputs:
    """LSTM over every step with the full B x Q output layer; step t's output
    scores question t+1, and h_0 = c_0 = 0."""
    h_size = params.arch.hidden
    B, L = batch.q_ids.shape
    h = ad.constant(np.zeros((B, h_size)))
    c = ad.constant(np.zeros((B, h_size)))

    p_cols = [ad.constant(np.full((B, 1), 0.5))]  # step 1 has no history
    for t in range(L - 1):
        gates = ad.gather_rows(params.W_x, _clamp_pad(batch.qa_ids[:, t])) \
            + (h @ params.W_h) + params.b_g
        i_g = ad.sigmoid(ad.slice_cols(gates, 0, h_size))
        f_g = ad.sigmoid(ad.slice_cols(gates, h_size, 2 * h_size))
        g_g = ad.tanh(ad.slice_cols(gates, 2 * h_size, 3 * h_size))
        o_g = ad.sigmoid(ad.slice_cols(gates, 3 * h_size, 4 * h_size))
        c = ad.mul(f_g, c) + ad.mul(i_g, g_g)
        h = ad.mul(o_g, ad.tanh(c))
        y = ad.sigmoid(h @ params.W_y + params.b_y)
        next_q = _clamp_pad(batch.q_ids[:, t + 1]) - 1
        p_cols.append(ad.take_per_row(y, next_q))

    prob = ad.concat_cols(*p_cols)
    pred_mask = batch.mask.copy()
    pred_mask[:, 0] = 0
    return OracleOutputs(prob_tensor=prob, pred_mask=pred_mask,
                         answers=batch.answers.copy(), p=prob.data.copy())


def forward(params, batch) -> OracleOutputs:
    if isinstance(params, DktParams):
        return forward_dkt(params, batch)
    return forward_sequence(params, batch)


def sequence_loss(outputs: OracleOutputs) -> Tensor:
    """Summed cross-entropy over the scored cells of the B x L grid."""
    return ad.binary_cross_entropy(outputs.prob_tensor, outputs.answers,
                                   outputs.pred_mask, eps=PROB_EPS)
