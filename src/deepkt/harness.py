"""Training loop, cross-validated grid search, experiment protocol, and the
difficulty/trajectory exports."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace, asdict
from itertools import combinations

import numpy as np

from . import baselines, metrics, models
from .autodiff import AdamState, adam_step, backward, clip_global_norm, no_grad
from .datasets import (Dataset, ValidationError, flatten_steps, kfold, pad_and_mask,
                       split_train_test)
from .metrics import PredictionSet, aggregate_trials, trial_metrics

BASELINE_MODELS = ("pfa", "lfa", "irt", "item_analysis")


class TrainingError(RuntimeError):
    """Training diverged (NaN/inf loss or gradient)."""


@dataclass
class TrainConfig:
    model: str = "deep_irt"
    lr: float = 0.003
    batch_size: int = 32
    clip_norm: float = 10.0
    seq_len: int = 200
    epochs: int = 50
    init_std: float = 0.05
    hidden: int = 50          # dkt hidden size
    mem_slots: int = 20       # memory models: N
    state_dim: int = 50       # memory models: d_k = d_v
    feature_dim: int = 50
    seed: int = 0
    test_fraction: float = 0.3
    cv_folds: int = 5
    trials: int = 5

    def validate(self):
        if self.model not in models.KINDS + BASELINE_MODELS:
            raise ValidationError(f"unknown model {self.model!r}")
        for name in ("lr", "batch_size", "clip_norm", "seq_len", "init_std",
                     "hidden", "mem_slots", "state_dim", "feature_dim"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.epochs < 0 or self.trials < 1 or self.cv_folds < 2:
            raise ValidationError("epochs >= 0, trials >= 1, cv_folds >= 2 required")
        if not (0.0 < self.test_fraction < 1.0):
            raise ValidationError("test_fraction must be in (0, 1)")

    @classmethod
    def from_dict(cls, d):
        unknown = sorted(set(d) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
        cfg = cls(**d)
        cfg.validate()
        return cfg


@dataclass
class GridSpec:
    state_dims: tuple = (10, 50, 100, 200)
    memory_sizes: tuple = (5, 10, 20, 50, 100)

    def points(self, model: str):
        if model == "dkt":
            return [{"hidden": h} for h in self.state_dims]
        return [{"state_dim": d, "mem_slots": n}
                for d in self.state_dims for n in self.memory_sizes]


def param_count(config: TrainConfig, num_kcs: int) -> int:
    arch = models.make_arch(config.model, num_kcs, asdict(config))
    shapes = models.param_shapes(arch).values()
    return sum(rows * cols for rows, cols in shapes)


def _batches(n, batch_size):
    for start in range(0, n, batch_size):
        yield range(start, min(start + batch_size, n))


def train(config: TrainConfig, dataset: Dataset):
    """Train one deep model; returns (params, per-epoch mean train loss)."""
    if not dataset.sequences:
        raise ValidationError("cannot train on an empty dataset")
    arch = models.make_arch(config.model, dataset.num_kcs, asdict(config))
    params = models.init_params(arch, config.init_std, config.seed)
    state = AdamState()
    rng = np.random.default_rng(config.seed)
    log = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(dataset.sequences))
        total = 0.0
        steps = 0
        for idx in _batches(len(order), config.batch_size):
            seqs = [dataset.sequences[order[i]] for i in idx]
            batch = pad_and_mask(seqs, config.seq_len, dataset.num_kcs)
            out = models.forward(params, batch)
            loss = models.sequence_loss(out)
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch starting {idx.start}")
            backward(loss)
            grads = [p.grad for p in params.parameters() if p.grad is not None]
            try:
                clip_global_norm(grads, config.clip_norm)
            except FloatingPointError as exc:
                raise TrainingError(f"{exc} at epoch {epoch}, batch starting "
                                    f"{idx.start}") from None
            adam_step(params.parameters(), state, config.lr)
            total += value
            steps += len(out.labels)
        log.append(total / steps if steps else 0.0)
    return params, log


def evaluate(params, dataset: Dataset, config: TrainConfig,
             eval_batch: int = 200) -> PredictionSet:
    """Forward the whole dataset (no training, no graph) and flatten scored
    steps."""
    scores, labels = [], []
    seqs = dataset.sequences
    for idx in _batches(len(seqs), eval_batch):
        batch = pad_and_mask([seqs[i] for i in idx], config.seq_len, dataset.num_kcs)
        with no_grad():
            s, y = models.prediction_set(models.forward(params, batch))
        scores.append(s)
        labels.append(y)
    return PredictionSet(np.concatenate(scores), np.concatenate(labels))


# ---------------------------------------------------------------------------
# baselines over sequence data


def evaluate_baseline(model: str, train_ds: Dataset, test_ds: Dataset,
                      min_students: int = 10) -> PredictionSet:
    """Fit a classical model on the train split and score test steps online."""
    if model in ("pfa", "lfa"):
        test = baselines.build_pfa_features(test_ds.sequences)
        coeffs = baselines.fit_logistic(baselines.build_pfa_features(train_ds.sequences),
                                        design=model.upper())
        scores = (baselines.pfa_predict(coeffs, test.successes, test.failures, test.skill)
                  if model == "pfa" else
                  baselines.lfa_predict(coeffs, test.successes + test.failures, test.skill))
        return PredictionSet(scores, test.label)
    # IRT and item analysis score a step by its question alone
    _, skill, label = flatten_steps(test_ds.sequences)
    if model == "irt":
        fit = baselines.fit_irt(baselines.first_attempts(train_ds.sequences))
        # test students are cold (theta unknown): use the anchored mean 0;
        # an unseen question reads beta 0, so it scores 0.5
        scores = baselines.irt_predict(0.0, baselines.lookup(fit.beta, skill))
    elif model == "item_analysis":
        diff = baselines.item_analysis(train_ds.sequences, min_students)
        scores = 1.0 - baselines.lookup(diff, skill, default=0.5)
    else:
        raise ValidationError(f"unknown baseline {model!r}")
    return PredictionSet(scores, label)


# ---------------------------------------------------------------------------
# grid search and the full experiment protocol


def grid_search(grid: GridSpec, base_config: TrainConfig, train_set: Dataset):
    """5-fold CV over the grid; returns (best config, CV table).

    Ties break toward fewer parameters, then earlier grid position.
    """
    if len(train_set.sequences) < base_config.cv_folds:
        raise ValidationError("not enough sequences for cross-validation")
    table = []
    for pos, point in enumerate(grid.points(base_config.model)):
        cfg = replace(base_config, **point)
        fold_losses = []
        for tr, val in kfold(train_set, cfg.cv_folds, cfg.seed):
            params, _ = train(cfg, tr)
            pred = evaluate(params, val, cfg)
            fold_losses.append(metrics.mean_xent(pred))
        table.append({"point": point, "position": pos,
                      "cv_loss": float(np.mean(fold_losses)),
                      "fold_losses": fold_losses,
                      "num_params": param_count(cfg, train_set.num_kcs)})
    return replace(base_config, **select_best(table)["point"]), table


def select_best(table):
    """Argmin of the CV table under the documented tie-breaking."""
    return min(table, key=lambda r: (r["cv_loss"], r["num_params"], r["position"]))


def run_experiment(config: TrainConfig, grid: GridSpec | None,
                   dataset: Dataset) -> dict:
    """70/30 split, optional grid search on train, multi-trial retrain/evaluate."""
    config.validate()
    train_ds, test_ds = split_train_test(dataset, config.test_fraction, config.seed)
    train_ids = {id(s) for s in train_ds.sequences}
    assert not any(id(s) in train_ids for s in test_ds.sequences)

    table = None
    if config.model in models.KINDS:
        if grid is not None:
            config, table = grid_search(grid, config, train_ds)
        trials = []
        for k in range(config.trials):
            cfg = replace(config, seed=config.seed + k)
            params, _ = train(cfg, train_ds)
            trials.append(trial_metrics(evaluate(params, test_ds, cfg), cfg.seed))
    else:
        # classical fits are deterministic; trials repeat the same result
        pred = evaluate_baseline(config.model, train_ds, test_ds)
        trials = [trial_metrics(pred, config.seed) for _ in range(config.trials)]

    doc = {"dataset": dataset.name, "model": config.model,
           "config": asdict(config), **aggregate_trials(trials)}
    if table is not None:
        doc["grid"] = table
    return doc


def report_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# exports


def deep_irt_difficulties(params: models.DkvmnParams) -> dict:
    """Per-question difficulty from the trained difficulty head."""
    if params.arch.kind != "deep_irt":
        raise ValidationError("difficulty export needs a Deep-IRT checkpoint")
    with no_grad():
        beta = models.difficulty(params, params.A).data[:, 0]
    return {q + 1: float(beta[q]) for q in range(params.arch.num_kcs)}


def export_difficulty(params: models.DkvmnParams, joins: dict | None = None):
    """Long-format difficulty rows plus pairwise Pearson r across sources.

    ``joins`` maps source name -> {question_id: difficulty}.
    """
    sources = {"deep_irt_beta": deep_irt_difficulties(params)}
    if joins:
        sources.update(joins)
    rows = [(q, name, val)
            for name in sources for q, val in sorted(sources[name].items())]
    pairs = {}
    for a, b in combinations(sorted(sources), 2):
        common = sorted(set(sources[a]) & set(sources[b]))
        if len(common) >= 2:
            try:
                pairs[(a, b)] = metrics.pearson([sources[a][q] for q in common],
                                                [sources[b][q] for q in common])
            except metrics.MetricUndefinedError:
                pass
    return rows, pairs


def export_trajectory(params: models.DkvmnParams, seq) -> list:
    """Per-step (t, q, a, theta, beta, p) rows for one student."""
    if params.arch.kind != "deep_irt":
        raise ValidationError("trajectory export needs a Deep-IRT checkpoint")
    batch = pad_and_mask([seq], max(len(seq.steps), 1), params.arch.num_kcs)
    with no_grad():
        out = models.forward_sequence(params, batch)
    # one row scores every step, so cell t is step t
    rows = []
    for t, (q, a) in enumerate(seq.steps):
        rows.append({"t": t + 1, "q": q, "a": a,
                     "theta": float(out.theta[t]),
                     "beta": float(out.beta[t]),
                     "p": float(out.prob_tensor.data[t, 0])})
    return rows
