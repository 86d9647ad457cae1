"""Slow reference implementations that the fast paths are tested against.

The per-step forwards for DKVMN, Deep-IRT and DKT build one small graph node
per operation and time step, exactly as the models were first written.  The
fused forwards in ``deepkt.models`` must agree with them on every scored step,
in values and in gradients.  The primitive-op chains are the references for
the fused heads ``autodiff.summary_layer`` and ``autodiff.column_readout``.
The dense IRLS fit, the step-by-step counting loop, the per-sequence
first-attempt loop, the three-sigmoid IRT loop, the per-step baseline scoring
and the run-by-run rank loop are the references for ``deepkt.baselines``,
``harness.evaluate_baseline`` and ``metrics.tied_ranks``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from deepkt import autodiff as ad
from deepkt import baselines
from deepkt.autodiff import Tensor
from deepkt.datasets import NOT_A_BIT, ValidationError, _question_ids
from deepkt.models import ABILITY_SCALE, DkvmnParams, DktParams


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


def summary_layer_chain(r: Tensor, k: Tensor, w_f: Tensor, b_f: Tensor, ids) -> Tensor:
    """``autodiff.summary_layer`` as primitive ops: the halves of w_f as
    gathered rows, the key half built per row of k and gathered per cell."""
    d = k.cols
    w_read = ad.gather_rows(w_f, np.arange(d))
    w_key = ad.gather_rows(w_f, np.arange(d, 2 * d))
    return ad.tanh(r @ w_read + ad.gather_rows(k @ w_key + b_f, ids))


def column_readout_chain(h: Tensor, w: Tensor, b: Tensor, q) -> Tensor:
    """``autodiff.column_readout`` as primitive ops: the picked columns of w
    and b gathered as rows of their transposes, and each row's dot product
    as a product with a ones column."""
    picked = ad.mul(h, ad.gather_rows(w.T, q))
    return picked @ ad.constant(np.ones((h.cols, 1))) + ad.gather_rows(b.T, q)


def _clamp_pad(ids):
    """The 0-based table rows of 1-based ids.  Padding id 0 reads row 0 as a
    dummy; every use of it is masked out of the loss and the memory writes."""
    return np.maximum(ids - 1, 0)


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

        qa_t = batch.q_ids[:, t] + batch.answers[:, t] * arch.num_kcs
        v_t = ad.gather_rows(params.B, _clamp_pad(qa_t))
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
    num_kcs = params.arch.num_kcs
    B, L = batch.q_ids.shape
    h = ad.constant(np.zeros((B, h_size)))
    c = ad.constant(np.zeros((B, h_size)))

    p_cols = [ad.constant(np.full((B, 1), 0.5))]  # step 1 has no history
    for t in range(L - 1):
        qa_t = batch.q_ids[:, t] + batch.answers[:, t] * num_kcs
        gates = ad.gather_rows(params.W_x, _clamp_pad(qa_t)) \
            + (h @ params.W_h) + params.b_g
        i_g = ad.sigmoid(ad.slice_cols(gates, 0, h_size))
        f_g = ad.sigmoid(ad.slice_cols(gates, h_size, 2 * h_size))
        g_g = ad.tanh(ad.slice_cols(gates, 2 * h_size, 3 * h_size))
        o_g = ad.sigmoid(ad.slice_cols(gates, 3 * h_size, 4 * h_size))
        c = ad.mul(f_g, c) + ad.mul(i_g, g_g)
        h = ad.mul(o_g, ad.tanh(c))
        y = ad.sigmoid(h @ params.W_y + params.b_y)
        p_cols.append(ad.take_per_row(y, _clamp_pad(batch.q_ids[:, t + 1])))

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
                                   outputs.pred_mask)


# ---------------------------------------------------------------------------
# dense reference fit and per-step scoring for the classical baselines


def fit_logistic_dense(features, design, l2=baselines.L2_PENALTY,
                       max_iters=baselines.MAX_ITERS, tol=baselines.GRAD_TOL):
    """PFA/LFA by IRLS Newton on the dense n x (kQ) design, as first written;
    warns exactly as ``baselines.fit_logistic`` does."""
    y = features.label.astype(np.float64)
    skills = sorted(set(features.skill.tolist()))
    idx = {j: i for i, j in enumerate(skills)}
    n = len(features)
    rows = np.arange(n)
    col = np.array([idx[j] for j in features.skill])
    if design == "PFA":
        X = np.zeros((n, 3 * len(skills)))
        X[rows, 3 * col] = features.successes
        X[rows, 3 * col + 1] = features.failures
        X[rows, 3 * col + 2] = -1.0
    else:
        X = np.zeros((n, 1 + 2 * len(skills)))
        X[:, 0] = 1.0
        X[rows, 1 + 2 * col] = features.successes + features.failures
        X[rows, 2 + 2 * col] = -1.0

    w = np.zeros(X.shape[1])
    grad_norm = np.inf
    for _ in range(max_iters):
        p = ad._sigmoid(X @ w)
        grad = X.T @ (y - p) - l2 * w
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < tol:
            break
        r = np.maximum(p * (1.0 - p), 1e-10)
        hess = (X.T * r) @ X + l2 * np.eye(X.shape[1])
        w += np.linalg.solve(hess, grad)
    converged = grad_norm < tol
    if not converged:
        warnings.warn(f"logistic fit stopped at gradient norm {grad_norm:.3g}")
    if np.abs(w).max() > 10.0:
        warnings.warn("possible perfect separation: a coefficient exceeded 10")

    if design == "PFA":
        theta, coef = 0.0, w.reshape(-1, 3)
    else:
        theta, coef = float(w[0]), w[1:].reshape(-1, 2)
    return baselines.LogisticFit(design, np.array(skills, dtype=features.skill.dtype),
                                 coef, theta, converged, grad_norm)


def build_pfa_features_loop(seqs):
    """Prior success/failure counts kept in a dict per sequence, step by step."""
    skill, succ, fail, label = [], [], [], []
    for seq in seqs:
        counts = {}
        for q, a in seq.steps:
            s, f = counts.get(q, (0, 0))
            skill.append(q)
            succ.append(s)
            fail.append(f)
            label.append(a)
            counts[q] = (s + a, f + (1 - a))
    return baselines.PfaFeatures(skill=np.array(skill, dtype=np.int64),
                                 successes=np.array(succ, dtype=np.float64),
                                 failures=np.array(fail, dtype=np.float64),
                                 label=np.array(label, dtype=np.int64))


def first_attempts_loop(seqs):
    """(student, question, answer) triples of each student's first try at each
    question, kept in a seen-set per student, step by step in dataset order."""
    triples = []
    questions = set()
    seen_by = {}
    for seq in seqs:
        seen = seen_by.setdefault(seq.student_id, set())
        for q, a in seq.steps:
            if a not in (0, 1):
                raise ValidationError(NOT_A_BIT.format(a))
            if q not in seen:
                seen.add(q)
                triples.append((seq.student_id, q, a))
        questions |= seen
    _question_ids(np.fromiter(questions, dtype=np.float64, count=len(questions)))
    return triples


def fit_irt_loop(first_attempts, l2=baselines.L2_PENALTY,
                 max_iters=baselines.MAX_ITERS, tol=baselines.GRAD_TOL):
    """``baselines.fit_irt`` as first written: three sigmoid passes per
    iteration, the last one only for the gradient-norm check."""
    students, questions, answers = zip(*first_attempts)
    students, si = np.unique(students, return_inverse=True)
    questions, qi = np.unique(questions, return_inverse=True)
    y = np.array(answers, dtype=np.float64)

    theta = np.zeros(len(students))
    beta = np.zeros(len(questions))
    grad_norm = np.inf
    for _ in range(max_iters):
        p = ad._sigmoid(theta[si] - beta[qi])
        resid = y - p
        w = p * (1.0 - p)
        g_theta = np.bincount(si, resid, len(students)) - l2 * theta
        h_theta = np.bincount(si, w, len(students)) + l2
        theta += g_theta / h_theta

        p = ad._sigmoid(theta[si] - beta[qi])
        resid = y - p
        w = p * (1.0 - p)
        g_beta = -np.bincount(qi, resid, len(questions)) - l2 * beta
        h_beta = np.bincount(qi, w, len(questions)) + l2
        beta += g_beta / h_beta

        shift = (theta.sum() + beta.sum()) / (len(theta) + len(beta))
        theta -= shift
        beta -= shift

        p = ad._sigmoid(theta[si] - beta[qi])
        resid = y - p
        g_theta = np.bincount(si, resid, len(students)) - l2 * theta
        g_beta = -np.bincount(qi, resid, len(questions)) - l2 * beta
        grad_norm = float(np.sqrt((g_theta ** 2).sum() + (g_beta ** 2).sum()))
        if grad_norm < tol:
            break

    shift = theta.mean()
    theta -= shift
    beta -= shift
    converged = grad_norm < tol
    if not converged:
        warnings.warn(f"fit_irt stopped at gradient norm {grad_norm:.3g}")
    return baselines.IrtParams(theta=dict(zip(students.tolist(), theta.tolist())),
                               beta=dict(zip(questions.tolist(), beta.tolist())),
                               converged=converged, grad_norm=grad_norm)


def evaluate_baseline_per_step(model, train_ds, test_ds, min_students=10):
    """Score each test step on its own, counting the student's earlier
    attempts as they happen; PFA and LFA by their scalar formulas from the
    fit's coefficient row of the step's skill (an unseen skill scores 0.5)."""
    if model in ("pfa", "lfa"):
        fit = baselines.fit_logistic(baselines.build_pfa_features(train_ds),
                                     design=model.upper())
        rows = dict(zip(fit.skills.tolist(), fit.coef.tolist()))
    elif model == "irt":
        fit = baselines.fit_irt(baselines.first_attempts(train_ds))
    else:
        diff = baselines.item_analysis(train_ds, min_students)
    scores, labels = [], []
    for seq in test_ds.sequences:
        counts = {}
        for q, a in seq.steps:
            s, f = counts.get(q, (0, 0))
            if model in ("pfa", "lfa"):
                if q not in rows:
                    z = 0.0
                elif model == "pfa":
                    alpha, rho, beta = rows[q]
                    z = alpha * s + rho * f - beta
                else:
                    gamma, beta = rows[q]
                    z = fit.theta + gamma * (s + f) - beta
                scores.append(1.0 / (1.0 + math.exp(-z)))
            elif model == "irt":
                scores.append(baselines.irt_predict(0.0, fit.beta[q])
                              if q in fit.beta else 0.5)
            else:
                scores.append(1.0 - diff[q] if q in diff else 0.5)
            labels.append(a)
            counts[q] = (s + a, f + (1 - a))
    return np.array(scores), np.array(labels)


def tied_ranks_loop(values):
    """Average ranks assigned run by run of equal sorted values."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="mergesort")
    s = v[order]
    bounds = np.flatnonzero(np.r_[True, s[1:] != s[:-1], True])
    ranks = np.empty(len(v))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        ranks[order[lo:hi]] = (lo + hi + 1) / 2.0
    return ranks


def pad_and_mask_loop(seqs, seq_len):
    """The B x L grids of ``datasets.pad_and_mask`` filled one step at a time."""
    rows = [seq.steps[start:start + seq_len]
            for seq in seqs for start in range(0, len(seq.steps), seq_len)]
    grids = {name: np.zeros((len(rows), seq_len), dtype=np.int64)
             for name in ("q_ids", "answers", "mask")}
    for b, chunk in enumerate(rows):
        for t, (q, a) in enumerate(chunk):
            grids["q_ids"][b, t] = q
            grids["answers"][b, t] = a
            grids["mask"][b, t] = 1
    return grids
