"""Classical reference models: one-parameter IRT, LFA, PFA, and item-analysis
difficulty."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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


def irt_predict(theta_i, beta_j):
    """P(correct) = sigmoid(theta - beta) for scalars or arrays."""
    return _sigmoid(np.subtract(theta_i, beta_j))[()]


def lookup(table: dict, keys, default: float = 0.0):
    """``table[k]`` for each k of the scalar or array ``keys``; absent: ``default``."""
    unique, inverse = np.unique(keys, return_inverse=True)
    values = np.array([table.get(k, default) for k in unique.tolist()], dtype=np.float64)
    return values[inverse].reshape(np.shape(keys))


def fit_irt(first_attempts, l2: float = L2_PENALTY, max_iters: int = MAX_ITERS,
            tol: float = GRAD_TOL) -> IrtParams:
    """Penalized maximum likelihood for P = sigmoid(theta_i - beta_j).

    Ascent uses diagonally preconditioned (per-coordinate Newton) steps on the
    L2-penalized Bernoulli log-likelihood until the gradient norm drops below
    ``tol``; the result is centered so mean(theta) = 0.
    """
    if not first_attempts:
        raise ValidationError("fit_irt needs at least one observation")
    students, questions, answers = zip(*first_attempts)
    students, si = np.unique(students, return_inverse=True)
    questions, qi = np.unique(questions, return_inverse=True)
    y = np.array(answers, dtype=np.float64)

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
    return IrtParams(theta=dict(zip(students.tolist(), theta.tolist())),
                     beta=dict(zip(questions.tolist(), beta.tolist())),
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


def _block_newton(rows, skill, shared_x, y, l2, max_iters, tol):
    """Newton on the L2-penalized logistic likelihood where observation i has
    features ``rows[i]`` on its skill's k coefficients and ``shared_x[i]`` on one
    coefficient shared by all skills (zeros keep it 0).  The Hessian is Q k x k
    blocks bordered by the shared row: each step solves the blocks as one batch
    and eliminates the shared coefficient through the Schur complement."""
    k = rows.shape[1]
    num_skills = skill.max(initial=-1) + 1

    def per_skill(values):
        # sum the rows of an n x ... array that share a skill: Q x ...
        m = int(np.prod(values.shape[1:]))
        index = (skill[:, None] * m + np.arange(m)).ravel()
        return np.bincount(index, values.ravel(), num_skills * m).reshape(
            (num_skills,) + values.shape[1:])

    w = np.zeros((num_skills, k))
    shared = 0.0
    grad_norm = np.inf
    for _ in range(max_iters):
        p = _sigmoid((rows * w[skill]).sum(axis=1) + shared * shared_x)
        resid = y - p
        grad = per_skill(rows * resid[:, None]) - l2 * w
        g_shared = (shared_x * resid).sum() - l2 * shared
        grad_norm = float(np.sqrt((grad ** 2).sum() + g_shared ** 2))
        if grad_norm < tol:
            break
        r = np.maximum(p * (1.0 - p), 1e-10)
        hess = per_skill(r[:, None, None] * rows[:, :, None] * rows[:, None, :]) \
            + l2 * np.eye(k)
        border = per_skill(rows * (r * shared_x)[:, None])
        u, v = np.moveaxis(np.linalg.solve(hess, np.stack([grad, border], axis=2)), 2, 0)
        step = (g_shared - (border * u).sum()) / \
            ((r * shared_x ** 2).sum() + l2 - (border * v).sum())
        w += u - v * step
        shared += step
    converged = grad_norm < tol
    if not converged:
        warnings.warn(f"logistic fit stopped at gradient norm {grad_norm:.3g}")
    if max(np.abs(w).max(initial=0.0), abs(shared)) > 10.0:
        warnings.warn("possible perfect separation: a coefficient exceeded 10")
    return w, shared, converged


def fit_logistic(features: PfaFeatures, design: str = "PFA",
                 l2: float = L2_PENALTY, max_iters: int = MAX_ITERS,
                 tol: float = GRAD_TOL):
    """Fit PFA (per-skill alpha/rho/beta) or LFA (global theta, per-skill
    gamma/beta) coefficients by penalized Newton on the per-skill blocks."""
    y = features.label.astype(np.float64)
    design = design.upper()
    if design == "PFA":
        # per skill j: [alpha_j, rho_j, beta_j] with P = sigmoid(aS + rF - b)
        cols = [features.successes, features.failures]
    elif design == "LFA":
        # global theta plus per skill [gamma_j, beta_j]; N_j = S + F
        cols = [features.successes + features.failures]
    else:
        raise ValidationError(f"unknown design {design!r}")
    skills, skill = np.unique(features.skill, return_inverse=True)
    rows = np.stack(cols + [-np.ones(len(y))], axis=1)
    shared_x = np.full(len(y), float(design == "LFA"))   # theta's feature
    w, theta, converged = _block_newton(rows, skill, shared_x, y, l2, max_iters, tol)
    coeffs = [dict(zip(skills.tolist(), col)) for col in w.T.tolist()]
    if design == "LFA":
        return LfaCoeffs(float(theta), *coeffs, converged=converged)
    return PfaCoeffs(*coeffs, converged=converged)


def _score_skills(z, skill, fitted: dict, model: str):
    """sigmoid(z) on the skills in ``fitted``, 0.5 elsewhere (one warning)."""
    seen = np.isin(skill, list(fitted))
    if not seen.all():
        unseen = ", ".join(map(str, np.unique(np.asarray(skill)[~seen]).tolist()))
        warnings.warn(f"skill {unseen} unseen during {model} fit; predicting 0.5")
    return np.where(seen, _sigmoid(z), 0.5)[()]


def pfa_predict(coeffs: PfaCoeffs, successes, failures, skill):
    """PFA P(correct) for scalars or equal-shape arrays of counts and skills."""
    alpha, rho, beta = (lookup(t, skill) for t in (coeffs.alpha, coeffs.rho, coeffs.beta))
    return _score_skills(alpha * successes + rho * failures - beta, skill,
                         coeffs.alpha, "PFA")


def lfa_predict(coeffs: LfaCoeffs, attempts, skill):
    """LFA P(correct) for scalars or equal-shape arrays of attempts and skills."""
    z = coeffs.theta + lookup(coeffs.gamma, skill) * attempts - lookup(coeffs.beta, skill)
    return _score_skills(z, skill, coeffs.gamma, "LFA")


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
