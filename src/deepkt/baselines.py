"""Classical reference models: one-parameter IRT, LFA, PFA, and item-analysis
difficulty."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .autodiff import _sigmoid
from .datasets import Dataset, ValidationError

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
    return np.array([table.get(k, default) for k in unique.tolist()],
                    dtype=np.float64)[inverse].reshape(np.shape(keys))


@dataclass
class FirstAttempts:
    """(student, question, answer) observations as columns: observation i is
    student ``students[student[i]]`` answering ``question[i]`` with
    ``answer[i]``; ``students`` holds the distinct ids, sorted."""
    students: np.ndarray
    student: np.ndarray
    question: np.ndarray
    answer: np.ndarray

    def __len__(self):
        return len(self.student)


def fit_irt(first_attempts: FirstAttempts, l2: float = L2_PENALTY,
            max_iters: int = MAX_ITERS, tol: float = GRAD_TOL) -> IrtParams:
    """Penalized maximum likelihood for P = sigmoid(theta_i - beta_j) on the
    observations of a ``FirstAttempts``.

    Ascent uses diagonally preconditioned (per-coordinate Newton) steps on the
    L2-penalized Bernoulli log-likelihood until the gradient norm drops below
    ``tol``; the result is centered so mean(theta) = 0.
    """
    if not first_attempts:
        raise ValidationError("fit_irt needs at least one observation")
    students, si = first_attempts.students, first_attempts.student
    questions, qi = np.unique(first_attempts.question, return_inverse=True)
    y = first_attempts.answer.astype(np.float64)

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


def _group_steps(group, skill):
    """(order, starts): the steps sorted by (group, skill) group, each group in
    step order, and a mask of the sorted positions that start a group.
    ``group`` gives each step's group id, nondecreasing in step order."""
    # a stable sort by skill alone keeps each (group, skill) group together
    # and in step order; the narrowest unsigned key lets numpy radix-sort it
    low = skill.min(initial=0)
    key = (skill - low).astype(np.min_scalar_type(int(skill.max(initial=0) - low)))
    order = np.argsort(key, kind="stable")
    g, k = group[order], skill[order]
    starts = np.ones(len(k), dtype=bool)
    starts[1:] = (k[1:] != k[:-1]) | (g[1:] != g[:-1])
    return order, starts


def build_pfa_features(data: Dataset) -> PfaFeatures:
    """Each step's skill, answer and prior successes and failures on that skill
    by the same student, in step order, read from ``data.columns``."""
    lengths, skill, a = data.columns
    n = len(skill)
    order, starts = _group_steps(np.repeat(np.arange(len(lengths)), lengths), skill)
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
class LogisticFit:
    """A fitted PFA or LFA model.  An observation on skill ``skills[j]`` with
    design columns x (``_design_columns``) scores
        P = sigmoid(theta + sum_c x_c * coef[j, c] - coef[j, -1]),
    so coef's columns are alpha, rho, beta for PFA and gamma, beta for LFA."""
    design: str           # "PFA" or "LFA"
    skills: np.ndarray    # sorted skill ids, one row of coef each
    coef: np.ndarray      # Q x k
    theta: float          # LFA's global intercept; 0 for PFA
    converged: bool
    grad_norm: float


def _design_columns(features: PfaFeatures, design: str):
    """The count columns a design reads: [S, F] for PFA, [S + F] for LFA."""
    if design == "PFA":
        return [features.successes, features.failures]
    if design == "LFA":
        return [features.successes + features.failures]
    raise ValidationError(f"unknown design {design!r}")


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
                 tol: float = GRAD_TOL) -> LogisticFit:
    """Fit PFA (per-skill alpha/rho/beta) or LFA (global theta, per-skill
    gamma/beta) coefficients by penalized Newton on the per-skill blocks.

    Both models see an observation only through its skill and its integer
    counts, so the fit runs on the distinct (skill, S, F) cells for PFA and
    (skill, S + F) cells for LFA, each with its size and number of successes."""
    design = design.upper()
    cols = _design_columns(features, design)
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
    return LogisticFit(design, skills, w, float(theta), converged, grad_norm)


def predict_logistic(fit: LogisticFit, features: PfaFeatures) -> np.ndarray:
    """P(correct) of each observation of ``features`` under ``fit``; a skill
    the fit never saw scores 0.5, and one warning names all such skills."""
    skill = features.skill
    seen = np.isin(skill, fit.skills)
    if not seen.all():
        unseen = ", ".join(map(str, np.unique(skill[~seen]).tolist()))
        warnings.warn(f"skill {unseen} unseen during {fit.design} fit; predicting 0.5")
    coef = fit.coef[np.searchsorted(fit.skills, skill[seen])]
    z = fit.theta
    for x, c in zip(_design_columns(features, fit.design), coef.T):
        z = z + x[seen] * c
    scores = np.full(len(skill), 0.5)
    scores[seen] = _sigmoid(z - coef[:, -1])
    return scores


# ---------------------------------------------------------------------------
# item analysis


def first_attempts(data: Dataset) -> FirstAttempts:
    """Each student's first try at each question it asked, in step order, read
    from ``data.columns``; a student with several sequences has its earliest
    try in dataset order."""
    lengths, q, a = data.columns
    # an empty sequence has no attempts, so its id is no student
    ids = [seq.student_id for seq, n in zip(data.sequences, lengths.tolist()) if n]
    students, student = np.unique(ids, return_inverse=True)
    # lay each student's sequences side by side, in dataset order: step i of
    # that layout is step perm[i] of the data
    lengths = lengths[lengths > 0]
    by_student = np.argsort(student, kind="stable")
    moved = lengths[by_student]
    shift = (np.cumsum(lengths) - lengths)[by_student] - (np.cumsum(moved) - moved)
    perm = np.arange(len(q)) + np.repeat(shift, moved)
    order, starts = _group_steps(np.repeat(student[by_student], moved), q[perm])
    first = np.sort(perm[order[starts]])
    return FirstAttempts(students, np.repeat(student, lengths)[first], q[first], a[first])


def item_analysis(data: Dataset, min_students: int = 10) -> dict:
    """Fraction of distinct students whose first attempt was incorrect; questions
    with fewer than ``min_students`` distinct students are omitted."""
    if min_students < 1:
        raise ValidationError(f"min_students must be >= 1, got {min_students}")
    tries = first_attempts(data)
    questions, index, counts = np.unique(tries.question, return_inverse=True,
                                         return_counts=True)
    wrong = np.bincount(index, 1 - tries.answer, len(questions))
    keep = counts >= min_students
    return dict(zip(questions[keep].tolist(), (wrong[keep] / counts[keep]).tolist()))
