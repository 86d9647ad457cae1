"""Classical reference models: one-parameter IRT, LFA, PFA, and item-analysis
difficulty."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .autodiff import _sigmoid
from .datasets import ValidationError

L2_PENALTY = 1e-4
MAX_ITERS = 500
GRAD_TOL = 1e-6


@dataclass
class IrtParams:
    theta: dict           # student id -> ability
    beta: dict            # question id -> difficulty
    converged: bool
    grad_norm: float


def irt_predict(theta_i: float, beta_j: float) -> float:
    return float(_sigmoid(np.array([theta_i - beta_j]))[0])


def fit_irt(first_attempts, l2: float = L2_PENALTY, max_iters: int = MAX_ITERS,
            tol: float = GRAD_TOL) -> IrtParams:
    """Penalized maximum likelihood for P = sigmoid(theta_i - beta_j).

    Ascent uses diagonally preconditioned (per-coordinate Newton) steps on the
    L2-penalized Bernoulli log-likelihood until the gradient norm drops below
    ``tol``; the result is centered so mean(theta) = 0.
    """
    if not first_attempts:
        raise ValidationError("fit_irt needs at least one observation")
    students = sorted({s for s, _, _ in first_attempts})
    questions = sorted({q for _, q, _ in first_attempts})
    s_index = {s: i for i, s in enumerate(students)}
    q_index = {q: i for i, q in enumerate(questions)}
    si = np.array([s_index[s] for s, _, _ in first_attempts])
    qi = np.array([q_index[q] for _, q, _ in first_attempts])
    y = np.array([a for _, _, a in first_attempts], dtype=np.float64)

    theta = np.zeros(len(students))
    beta = np.zeros(len(questions))
    grad_norm = np.inf
    for _ in range(max_iters):
        # alternate the blocks: simultaneous theta/beta steps can oscillate on
        # crossed designs, while block updates with fresh residuals are stable
        p = _sigmoid(theta[si] - beta[qi])
        resid = y - p
        w = p * (1.0 - p)
        g_theta = np.bincount(si, resid, len(students)) - l2 * theta
        h_theta = np.bincount(si, w, len(students)) + l2
        theta += g_theta / h_theta

        p = _sigmoid(theta[si] - beta[qi])
        resid = y - p
        w = p * (1.0 - p)
        g_beta = -np.bincount(qi, resid, len(questions)) - l2 * beta
        h_beta = np.bincount(qi, w, len(questions)) + l2
        beta += g_beta / h_beta

        # the likelihood is invariant to shifting theta and beta together, so
        # that direction is pulled only by the penalty; minimize it exactly
        shift = (theta.sum() + beta.sum()) / (len(theta) + len(beta))
        theta -= shift
        beta -= shift

        p = _sigmoid(theta[si] - beta[qi])
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
    return IrtParams(theta={s: float(theta[i]) for s, i in s_index.items()},
                     beta={q: float(beta[i]) for q, i in q_index.items()},
                     converged=converged, grad_norm=grad_norm)


# ---------------------------------------------------------------------------
# PFA / LFA


@dataclass
class PfaFeatures:
    """Per-observation prior success/failure counts on the step's skill."""
    skill: np.ndarray      # skill (question) id per observation
    successes: np.ndarray  # prior correct attempts on that skill
    failures: np.ndarray   # prior incorrect attempts on that skill
    label: np.ndarray      # answer bit

    def __len__(self):
        return len(self.skill)


def build_pfa_features(seqs) -> PfaFeatures:
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
    return PfaFeatures(skill=np.array(skill, dtype=np.int64),
                       successes=np.array(succ, dtype=np.float64),
                       failures=np.array(fail, dtype=np.float64),
                       label=np.array(label, dtype=np.int64))


@dataclass
class PfaCoeffs:
    alpha: dict
    rho: dict
    beta: dict
    converged: bool = True


@dataclass
class LfaCoeffs:
    theta: float
    gamma: dict
    beta: dict
    converged: bool = True


def _fit_logistic_design(X, y, l2, max_iters, tol):
    """IRLS Newton on the L2-penalized logistic likelihood."""
    w = np.zeros(X.shape[1])
    grad_norm = np.inf
    for _ in range(max_iters):
        p = _sigmoid(X @ w)
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
    return w, converged


def fit_logistic(features: PfaFeatures, labels=None, design: str = "PFA",
                 l2: float = L2_PENALTY, max_iters: int = MAX_ITERS,
                 tol: float = GRAD_TOL):
    """Fit PFA (per-skill alpha/rho/beta) or LFA (global theta, per-skill
    gamma/beta) coefficients by penalized IRLS."""
    y = features.label.astype(np.float64) if labels is None \
        else np.asarray(labels, dtype=np.float64)
    skills = sorted(set(features.skill.tolist()))
    idx = {j: i for i, j in enumerate(skills)}
    n = len(features)
    rows = np.arange(n)
    col = np.array([idx[j] for j in features.skill])

    if design.upper() == "PFA":
        # per skill j: [alpha_j, rho_j, beta_j] with P = sigmoid(aS + rF - b)
        X = np.zeros((n, 3 * len(skills)))
        X[rows, 3 * col] = features.successes
        X[rows, 3 * col + 1] = features.failures
        X[rows, 3 * col + 2] = -1.0
        w, converged = _fit_logistic_design(X, y, l2, max_iters, tol)
        return PfaCoeffs(alpha={j: float(w[3 * idx[j]]) for j in skills},
                         rho={j: float(w[3 * idx[j] + 1]) for j in skills},
                         beta={j: float(w[3 * idx[j] + 2]) for j in skills},
                         converged=converged)

    if design.upper() == "LFA":
        # global theta plus per skill [gamma_j, beta_j]; N_j = S + F
        attempts = features.successes + features.failures
        X = np.zeros((n, 1 + 2 * len(skills)))
        X[:, 0] = 1.0
        X[rows, 1 + 2 * col] = attempts
        X[rows, 2 + 2 * col] = -1.0
        w, converged = _fit_logistic_design(X, y, l2, max_iters, tol)
        return LfaCoeffs(theta=float(w[0]),
                         gamma={j: float(w[1 + 2 * idx[j]]) for j in skills},
                         beta={j: float(w[2 + 2 * idx[j]]) for j in skills},
                         converged=converged)

    raise ValidationError(f"unknown design {design!r}")


def pfa_predict(coeffs: PfaCoeffs, successes: float, failures: float, skill) -> float:
    if skill not in coeffs.alpha:
        warnings.warn(f"skill {skill} unseen during PFA fit; predicting 0.5")
        return 0.5
    z = coeffs.alpha[skill] * successes + coeffs.rho[skill] * failures - coeffs.beta[skill]
    return float(_sigmoid(np.array([z]))[0])


def lfa_predict(coeffs: LfaCoeffs, attempts: float, skill) -> float:
    if skill not in coeffs.gamma:
        warnings.warn(f"skill {skill} unseen during LFA fit; predicting 0.5")
        return 0.5
    z = coeffs.theta + coeffs.gamma[skill] * attempts - coeffs.beta[skill]
    return float(_sigmoid(np.array([z]))[0])


# ---------------------------------------------------------------------------
# item analysis


def first_attempts(seqs):
    """(student, question, answer) triples keeping each student's first try only."""
    triples = []
    for seq in seqs:
        seen = set()
        for q, a in seq.steps:
            if q not in seen:
                seen.add(q)
                triples.append((seq.student_id, q, a))
    return triples


def item_analysis(seqs, min_students: int = 10) -> dict:
    """Fraction of distinct students whose first attempt was incorrect; questions
    with fewer than ``min_students`` distinct students are omitted."""
    if min_students < 1:
        raise ValidationError(f"min_students must be >= 1, got {min_students}")
    counts = {}
    wrong = {}
    for _, q, a in first_attempts(seqs):
        counts[q] = counts.get(q, 0) + 1
        wrong[q] = wrong.get(q, 0) + (1 - a)
    return {q: wrong[q] / counts[q] for q in counts if counts[q] >= min_students}
