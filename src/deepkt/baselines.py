"""Classical reference models: one-parameter IRT, LFA, PFA, and item-analysis
difficulty."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .autodiff import _sigmoid
from .datasets import NOT_A_BIT, ValidationError, _question_ids, flatten_steps

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
    p = _sigmoid(theta[si] - beta[qi])
    g_theta = np.bincount(si, y - p, len(students)) - l2 * theta
    grad_norm = np.inf
    for _ in range(max_iters):
        # alternate the blocks: simultaneous theta/beta steps can oscillate on
        # crossed designs, while block updates with fresh residuals are stable
        h_theta = np.bincount(si, p * (1.0 - p), len(students)) + l2
        theta += g_theta / h_theta

        p = _sigmoid(theta[si] - beta[qi])
        g_beta = -np.bincount(qi, y - p, len(questions)) - l2 * beta
        h_beta = np.bincount(qi, p * (1.0 - p), len(questions)) + l2
        beta += g_beta / h_beta

        # the likelihood is invariant to shifting theta and beta together, so
        # that direction is pulled only by the penalty; minimize it exactly
        shift = (theta.sum() + beta.sum()) / (len(theta) + len(beta))
        theta -= shift
        beta -= shift

        # p and g_theta at this point also start the next theta step
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
    """Each step's skill, answer and prior successes and failures on that skill
    by the same student, in step order."""
    lengths, skill, a = flatten_steps(seqs)
    n = len(skill)
    # the flat steps run sequence by sequence, so a stable sort by skill alone
    # keeps each (sequence, skill) group together and in step order; the
    # narrowest unsigned key lets numpy radix-sort it
    low = skill.min(initial=0)
    key = (skill - low).astype(np.min_scalar_type(int(skill.max(initial=0) - low)))
    order = np.argsort(key, kind="stable")
    student = np.repeat(np.arange(len(lengths)), lengths)[order]
    k = skill[order]
    starts = np.r_[True, (k[1:] != k[:-1]) | (student[1:] != student[:-1])]
    # prior attempts and prior successes within the group: the position and the
    # sum of a before the step, each less its value at the group's first step
    pos = np.arange(n)
    first = np.maximum.accumulate(np.where(starts, pos, 0))
    won = a[order]
    wins = np.cumsum(won) - won
    wins -= wins[first]
    successes, failures = np.empty(n), np.empty(n)
    successes[order] = wins
    failures[order] = pos - first - wins
    return PfaFeatures(skill=skill, successes=successes, failures=failures,
                       label=a)


@dataclass
class PfaCoeffs:
    alpha: dict
    rho: dict
    beta: dict
    converged: bool = True
    grad_norm: float = 0.0


@dataclass
class LfaCoeffs:
    theta: float
    gamma: dict
    beta: dict
    converged: bool = True
    grad_norm: float = 0.0


def _block_newton(rows, skill, shared_x, n, y, l2, max_iters, tol):
    """Newton on the L2-penalized logistic likelihood of grouped binomial cells:
    cell i holds ``n[i]`` observations with ``y[i]`` successes, features
    ``rows[i]`` on its skill's k coefficients and ``shared_x[i]`` on one
    coefficient shared by all skills (zeros keep it 0).  The Hessian is Q k x k
    blocks bordered by the shared row: each step solves the blocks as one batch
    and eliminates the shared coefficient through the Schur complement."""
    k = rows.shape[1]
    num_skills = skill.max(initial=-1) + 1

    def per_skill(values):
        # sum the rows of an m x ... array that share a skill: Q x ...
        m = int(np.prod(values.shape[1:]))
        index = (skill[:, None] * m + np.arange(m)).ravel()
        return np.bincount(index, values.ravel(), num_skills * m).reshape(
            (num_skills,) + values.shape[1:])

    w = np.zeros((num_skills, k))
    shared = 0.0
    grad_norm = np.inf
    for _ in range(max_iters):
        p = _sigmoid((rows * w[skill]).sum(axis=1) + shared * shared_x)
        resid = y - n * p
        grad = per_skill(rows * resid[:, None]) - l2 * w
        g_shared = (shared_x * resid).sum() - l2 * shared
        grad_norm = float(np.sqrt((grad ** 2).sum() + g_shared ** 2))
        if grad_norm < tol:
            break
        r = n * np.maximum(p * (1.0 - p), 1e-10)
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
    return w, shared, converged, grad_norm


def fit_logistic(features: PfaFeatures, design: str = "PFA",
                 l2: float = L2_PENALTY, max_iters: int = MAX_ITERS,
                 tol: float = GRAD_TOL):
    """Fit PFA (per-skill alpha/rho/beta) or LFA (global theta, per-skill
    gamma/beta) coefficients by penalized Newton on the per-skill blocks.

    Both models see an observation only through its skill and its integer
    counts, so the fit runs on the distinct (skill, S, F) cells for PFA and
    (skill, S + F) cells for LFA, each with its size and number of successes."""
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
    # one int64 key per cell, skill then counts in mixed radix
    key, size = skill, len(skills)
    for c in cols:
        whole = c.astype(np.int64)
        if (whole != c).any() or (whole < 0).any():
            raise ValidationError("success and failure counts must be non-negative integers")
        radix = int(whole.max(initial=0)) + 1
        key, size = key * radix + whole, size * radix
    if size > np.iinfo(np.int64).max:
        raise ValidationError(f"{size} possible {design} cells overflow an int64 key")
    _, cell, n = np.unique(key, return_inverse=True, return_counts=True)
    member = np.empty(len(n), dtype=np.int64)
    member[cell] = np.arange(len(cell))          # any observation of each cell
    y = np.bincount(cell, features.label, len(n))
    rows = np.stack([c[member] for c in cols] + [-np.ones(len(n))], axis=1)
    shared_x = np.full(len(n), float(design == "LFA"))   # theta's feature
    w, theta, converged, grad_norm = _block_newton(rows, skill[member], shared_x,
                                                   n, y, l2, max_iters, tol)
    coeffs = [dict(zip(skills.tolist(), col)) for col in w.T.tolist()]
    if design == "LFA":
        return LfaCoeffs(float(theta), *coeffs, converged=converged,
                         grad_norm=grad_norm)
    return PfaCoeffs(*coeffs, converged=converged, grad_norm=grad_norm)


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
    questions = set()
    for seq in seqs:
        seen = set()
        for q, a in seq.steps:
            if a not in (0, 1):
                raise ValidationError(NOT_A_BIT.format(a))
            if q not in seen:
                seen.add(q)
                triples.append((seq.student_id, q, a))
        questions |= seen
    _question_ids(np.fromiter(questions, dtype=np.float64, count=len(questions)))
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
