"""Acceptance gate: one test per release criterion.

Training-backed criteria share a pair of models fitted once per module on the
regenerated synthetic dataset (500 students, the documented reduced-scale
variant with its 0.70 AUC threshold).
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import check_gradients
from deepkt import autodiff as ad
from deepkt import baselines, harness, metrics, models
from deepkt.cli import main as cli_main
from deepkt.datasets import (InteractionSequence, SyntheticConfig,
                             generate_synthetic, pad_and_mask, save_sequences,
                             split_train_test)
from deepkt.harness import TrainConfig, evaluate, evaluate_baseline, train
from deepkt.metrics import PredictionSet, auc, pearson, ttest_two_tailed

SPEC_ARCH = dict(mem_slots=20, state_dim=50, feature_dim=50)


@pytest.fixture(scope="module")
def synthetic_split():
    cfg = SyntheticConfig(num_students=500, num_questions=50, num_concepts=5,
                          guess_c=0.25, seed=0)
    ds, gt = generate_synthetic(cfg)
    train_ds, test_ds = split_train_test(ds, 0.3, seed=0)
    return ds, gt, train_ds, test_ds


@pytest.fixture(scope="module")
def trained_models(synthetic_split):
    _, _, train_ds, _ = synthetic_split
    out = {}
    for model in ("deep_irt", "dkvmn"):
        cfg = TrainConfig(model=model, epochs=30, seq_len=50, seed=0, **SPEC_ARCH)
        params, _ = train(cfg, train_ds)
        out[model] = (params, cfg)
    return out


@pytest.fixture(scope="module")
def test_aucs(trained_models, synthetic_split):
    _, _, _, test_ds = synthetic_split
    return {name: auc(evaluate(params, test_ds, cfg))
            for name, (params, cfg) in trained_models.items()}


def random_batch(rng, n_seqs, length, num_kcs, seq_len=None):
    seqs = [InteractionSequence(str(i),
                                list(zip(rng.integers(1, num_kcs + 1, length).tolist(),
                                         rng.integers(0, 2, length).tolist())))
            for i in range(n_seqs)]
    return pad_and_mask(seqs, seq_len or length, num_kcs)


class TestCriterion1GradientFidelity:
    """Analytic gradients vs central differences on a 2x6 toy batch."""

    def check(self, params, batch, rng):
        def loss_fn(return_tensor=False):
            out = models.forward(params, batch)
            loss = models.sequence_loss(out)
            return loss if return_tensor else loss.item()
        check_gradients(loss_fn, params.parameters(), rng,
                        n_samples=30, h=1e-5, rtol=1e-4)

    def test_all_three_models_within_60s(self, rng):
        start = time.monotonic()
        batch = random_batch(rng, 2, 6, 4)
        mem = models.MemoryArch(num_kcs=4, mem_slots=4, state_dim=8,
                                feature_dim=8)
        self.check(models.init_params(mem, std=0.3, seed=0), batch, rng)
        irt = models.MemoryArch(num_kcs=4, mem_slots=4, state_dim=8,
                                feature_dim=8, deep_irt=True)
        self.check(models.init_params(irt, std=0.3, seed=0), batch, rng)
        dkt = models.DktArch(num_kcs=4, hidden=8)
        self.check(models.init_params(dkt, std=0.3, seed=0), batch, rng)
        assert time.monotonic() - start < 60.0


class TestCriterion2SyntheticLearning:
    def test_both_models_reach_auc(self, test_aucs):
        assert test_aucs["deep_irt"] >= 0.70
        assert test_aucs["dkvmn"] >= 0.70

    def test_parity_between_deep_irt_and_dkvmn(self, test_aucs):
        assert abs(test_aucs["deep_irt"] - test_aucs["dkvmn"]) <= 0.02


class TestCriterion3BaselineOrdering:
    def test_pfa_in_band_and_beaten(self, synthetic_split, test_aucs):
        _, _, train_ds, test_ds = synthetic_split
        pfa_auc = auc(evaluate_baseline("pfa", train_ds, test_ds))
        assert 0.55 < pfa_auc < 0.72
        assert test_aucs["deep_irt"] - pfa_auc >= 0.05


class TestCriterion4IrtRecovery:
    def test_beta_pearson(self):
        cfg = SyntheticConfig(num_students=500, num_questions=50,
                              num_concepts=5, guess_c=0.0, seed=0)
        ds, gt = generate_synthetic(cfg)
        fit = baselines.fit_irt(baselines.first_attempts(ds))
        est = np.array([fit.beta[j + 1] for j in range(50)])
        assert pearson(gt.beta, est) >= 0.9


class TestCriterion5MetricOracles:
    def test_auc_matches_pairwise_oracle_200_instances(self):
        rng = np.random.default_rng(99)
        for trial in range(200):
            n = int(rng.integers(4, 40))
            # coarse quantization forces ties in roughly half the instances
            scores = np.round(rng.random(n), 1 if trial % 2 else 6)
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            oracle = sum(1.0 if p > q else (0.5 if p == q else 0.0)
                         for p in pos for q in neg) / (len(pos) * len(neg))
            assert abs(auc(PredictionSet(scores, labels)) - oracle) <= 1e-12

    def test_welch_p_matches_high_precision_cdf(self):
        def t_pdf(x, dof):
            c = math.exp(math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2)) \
                / math.sqrt(dof * math.pi)
            return c * (1 + x * x / dof) ** (-(dof + 1) / 2)

        cases = [
            ([1, 2, 3, 4, 5], [2, 3, 4, 5, 6]),
            ([0.1, 0.2, 0.15, 0.3], [0.4, 0.35, 0.5, 0.45, 0.6]),
            ([10, 11, 9, 12, 10, 11], [10.5, 11.5, 9.5]),
        ]
        for xs, ys in cases:
            t, dof, p = ttest_two_tailed(xs, ys)
            tail, _ = quad(t_pdf, abs(t), np.inf, args=(dof,))
            assert abs(p - 2.0 * tail) <= 1e-6

    def test_pearson_matches_direct_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.normal(size=30)
            y = rng.normal(size=30)
            xc, yc = x - x.mean(), y - y.mean()
            direct = (xc * yc).sum() / math.sqrt((xc ** 2).sum() * (yc ** 2).sum())
            assert abs(pearson(x, y) - direct) <= 1e-12


class TestCriterion6MaskingInvariance:
    """Appending padding steps changes no metric and no gradient, exactly."""

    def run_once(self, params, batch):
        for p in params.parameters():
            p.zero_grad()
        out = models.forward(params, batch)
        loss = models.sequence_loss(out)
        ad.backward(loss)
        pred = PredictionSet(*models.prediction_set(out))
        return (loss.item(), auc(pred), metrics.accuracy(pred),
                metrics.mean_xent(pred),
                [p.grad.copy() for p in params.parameters()])

    @pytest.mark.parametrize("model,extra", [
        (model, extra) for model in ("deep_irt", "dkvmn", "dkt")
        for extra in range(1, 13)
    ])
    def test_appending_padding_is_invisible(self, rng, model, extra):
        if model == "dkt":
            params = models.init_params(models.DktArch(num_kcs=5, hidden=6),
                                        std=0.3, seed=2)
        else:
            arch = models.MemoryArch(num_kcs=5, mem_slots=3, state_dim=4,
                                     feature_dim=4, deep_irt=(model == "deep_irt"))
            params = models.init_params(arch, std=0.3, seed=2)
        base = random_batch(rng, 3, 6, 5)
        padded = random_batch(rng, 3, 6, 5, seq_len=6 + extra)
        padded.q_ids[:, :6] = base.q_ids
        padded.answers[:, :6] = base.answers
        padded.mask[:, :6] = base.mask
        padded.q_ids[:, 6:] = 0
        padded.answers[:, 6:] = 0
        padded.mask[:, 6:] = 0

        loss_a, auc_a, acc_a, xent_a, grads_a = self.run_once(params, base)
        loss_b, auc_b, acc_b, xent_b, grads_b = self.run_once(params, padded)
        assert (loss_a, auc_a, acc_a, xent_a) == (loss_b, auc_b, acc_b, xent_b)
        for ga, gb in zip(grads_a, grads_b):
            np.testing.assert_array_equal(ga, gb)


class TestCriterion7InterpretabilityRanges:
    def test_full_evaluation_pass(self, trained_models, synthetic_split):
        _, _, _, test_ds = synthetic_split
        params, cfg = trained_models["deep_irt"]
        seqs = test_ds.sequences
        for start in range(0, len(seqs), 100):
            batch = pad_and_mask(seqs[start:start + 100], cfg.seq_len,
                                 test_ds.num_kcs)
            out = models.forward_sequence(params, batch)
            # one value per scored cell
            p = out.prob_tensor.data[:, 0]
            assert len(p) == batch.mask.sum()
            assert np.all(np.abs(out.theta) < 1.0)
            assert np.all(np.abs(out.beta) < 1.0)
            assert np.all((p > 0.0) & (p < 1.0))
            sums = out.attention.sum(axis=1)
            assert np.all(np.abs(sums - 1.0) <= 1e-9)


class TestCriterion8Determinism:
    def test_experiment_reports_byte_identical(self, tmp_path):
        cfg = SyntheticConfig(num_students=40, num_questions=10,
                              num_concepts=2, seed=5)
        ds, _ = generate_synthetic(cfg)
        data = tmp_path / "data.txt"
        save_sequences(ds, data)
        flags = ["experiment", "--data", str(data), "--model", "deep_irt",
                 "--epochs", "2", "--mem-slots", "4", "--state-dim", "8",
                 "--seq-len", "10", "--trials", "2", "--seed", "0"]
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli_main(flags + ["--report", str(r1)]) == 0
        assert cli_main(flags + ["--report", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()
        json.loads(r1.read_text())


class TestCriterion9GeneratorCalibration:
    def test_default_correct_rate(self):
        ds, _ = generate_synthetic(SyntheticConfig())
        answers = [a for s in ds.sequences for _, a in s.steps]
        assert np.mean(answers) == pytest.approx(0.625, abs=0.01)
