"""Metrics (AUC, accuracy, mean cross-entropy), Welch's t-test, Pearson
correlation, and multi-trial aggregation.

The t-distribution CDF is computed from the regularized incomplete beta
function via a Lentz continued fraction, so p-values do not depend on any
external stats library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

XENT_EPS = 1e-7


class MetricUndefinedError(ValueError):
    """The metric is undefined on this input (empty, single-class or non-finite)."""


@dataclass
class PredictionSet:
    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64).ravel()
        self.labels = np.asarray(self.labels, dtype=np.int64).ravel()
        if self.scores.shape != self.labels.shape:
            raise ValueError(
                f"scores/labels length mismatch: {len(self.scores)} vs {len(self.labels)}")


def tied_ranks(values) -> np.ndarray:
    """1-based ranks with ties receiving the average of their positions."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="mergesort")
    s = v[order]
    n = len(v)
    lo = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])   # start of each run
    hi = np.r_[lo[1:], n]
    ranks = np.empty(n)
    ranks[order] = np.repeat((lo + hi + 1) / 2.0, hi - lo)
    return ranks


def _check_finite(pred: PredictionSet) -> None:
    bad = np.flatnonzero(~np.isfinite(pred.scores))
    if len(bad):
        raise MetricUndefinedError(
            f"score {bad[0]} is {pred.scores[bad[0]]}: metrics need finite scores")


def auc(pred: PredictionSet) -> float:
    """Mann-Whitney AUC with average ranks for tied scores."""
    _check_finite(pred)
    pos = pred.labels == 1
    n_pos = int(pos.sum())
    n_neg = len(pred.labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError("AUC needs both a positive and a negative label")
    r = tied_ranks(pred.scores)
    return float((r[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def accuracy(pred: PredictionSet, threshold: float = 0.5) -> float:
    if len(pred.labels) == 0:
        raise MetricUndefinedError("accuracy of an empty prediction set")
    _check_finite(pred)
    hits = (pred.scores >= threshold).astype(np.int64) == pred.labels
    return float(hits.mean())


def mean_xent(pred: PredictionSet, eps: float = XENT_EPS) -> float:
    if len(pred.labels) == 0:
        raise MetricUndefinedError("cross-entropy of an empty prediction set")
    _check_finite(pred)
    p = np.clip(pred.scores, eps, 1.0 - eps)
    y = pred.labels
    return float(-(y * np.log(p) + (1 - y) * np.log(1.0 - p)).mean())


# ---------------------------------------------------------------------------
# incomplete beta / t distribution


def _betacf(a: float, b: float, x: float) -> float:
    # modified Lentz continued fraction for the incomplete beta function
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


def betainc_regularized(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    # x^a (1-x)^b / B(a, b) is symmetric in (a, x) <-> (b, 1-x), so one
    # prefactor serves both branches
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(1.0 - x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf_two_tailed(t: float, dof: float) -> float:
    """Two-tailed tail probability of the t distribution."""
    if dof <= 0:
        raise MetricUndefinedError(f"t distribution needs dof > 0, got {dof}")
    x = dof / (dof + t * t)
    return betainc_regularized(dof / 2.0, 0.5, x)


def ttest_two_tailed(xs, ys):
    """Welch's unequal-variance t-test; returns (t, dof, p)."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if len(x) < 2 or len(y) < 2:
        raise MetricUndefinedError("each sample needs at least 2 values")
    vx = x.var(ddof=1)
    vy = y.var(ddof=1)
    if vx == 0.0 and vy == 0.0:
        if x.mean() == y.mean():
            return 0.0, float(len(x) + len(y) - 2), 1.0
        raise MetricUndefinedError("both samples have zero variance")
    sx = vx / len(x)
    sy = vy / len(y)
    t = (x.mean() - y.mean()) / math.sqrt(sx + sy)
    dof = (sx + sy) ** 2 / (sx ** 2 / (len(x) - 1) + sy ** 2 / (len(y) - 1))
    return float(t), float(dof), float(t_sf_two_tailed(t, dof))


def pearson(xs, ys) -> float:
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if len(x) != len(y) or len(x) < 2:
        raise MetricUndefinedError("pearson needs two equal-length samples of >= 2")
    dx = x - x.mean()
    dy = y - y.mean()
    denom = math.sqrt((dx * dx).sum() * (dy * dy).sum())
    if denom == 0.0:
        raise MetricUndefinedError("pearson undefined for zero-variance input")
    return float((dx * dy).sum() / denom)


# ---------------------------------------------------------------------------
# multi-trial aggregation


def trial_metrics(pred: PredictionSet, seed: int) -> dict:
    """One trial's row of the report: its seed, AUC, accuracy and loss."""
    return {"seed": seed, "auc": auc(pred), "acc": accuracy(pred),
            "loss": mean_xent(pred)}


def aggregate_trials(trials) -> dict:
    """The report's trial block: the trials with the mean and sample (n-1) std
    of each metric; a single trial reports std 0 with an explicit marker."""
    if not trials:
        raise MetricUndefinedError("aggregate_trials needs at least one trial")
    vals = {name: np.array([t[name] for t in trials]) for name in ("auc", "acc", "loss")}
    return {"trials": list(trials), "num_trials": len(trials),
            "single_trial": len(trials) == 1,
            "mean": {name: float(v.mean()) for name, v in vals.items()},
            "std": {name: float(v.std(ddof=1)) if len(v) > 1 else 0.0
                    for name, v in vals.items()}}
