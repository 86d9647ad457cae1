import math

import numpy as np
import pytest
from scipy.integrate import quad

import oracle
from deepkt.metrics import (MetricUndefinedError, PredictionSet, accuracy,
                            aggregate_trials, auc, mean_xent, pearson,
                            t_sf_two_tailed, tied_ranks, trial_metrics,
                            ttest_two_tailed)


def pairwise_auc(scores, labels):
    """O(n^2) oracle: P(random positive outranks random negative), ties = 1/2."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def t_pdf(x, dof):
    c = math.exp(math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2)) \
        / math.sqrt(dof * math.pi)
    return c * (1 + x * x / dof) ** (-(dof + 1) / 2)


def two_tailed_p_by_quadrature(t, dof):
    tail, _ = quad(t_pdf, abs(t), np.inf, args=(dof,))
    return 2.0 * tail


class TestAuc:
    def test_perfect_separation(self):
        assert auc(PredictionSet([0.9, 0.1], [1, 0])) == 1.0

    def test_random_scores_near_half(self, rng):
        scores = rng.random(20000)
        labels = rng.integers(0, 2, 20000)
        assert auc(PredictionSet(scores, labels)) == pytest.approx(0.5, abs=0.02)

    def test_matches_pairwise_oracle(self, rng):
        for _ in range(10):
            # quantized scores force ties
            scores = np.round(rng.random(50), 1)
            labels = rng.integers(0, 2, 50)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            p = PredictionSet(scores, labels)
            assert abs(auc(p) - pairwise_auc(scores, labels)) < 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(MetricUndefinedError):
            auc(PredictionSet([0.1, 0.9], [1, 1]))

    def test_monotone_transform_invariant(self, rng):
        scores = rng.random(200)
        labels = rng.integers(0, 2, 200)
        a1 = auc(PredictionSet(scores, labels))
        a2 = auc(PredictionSet(np.exp(3 * scores), labels))
        assert a1 == pytest.approx(a2, abs=1e-12)

    def test_label_complement_sums_to_one(self, rng):
        scores = np.round(rng.random(100), 1)
        labels = rng.integers(0, 2, 100)
        labels[:2] = [0, 1]
        a = auc(PredictionSet(scores, labels))
        b = auc(PredictionSet(scores, 1 - labels))
        assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_tied_ranks(self):
        np.testing.assert_array_equal(tied_ranks([10, 20, 20, 30]),
                                      [1.0, 2.5, 2.5, 4.0])

    @pytest.mark.parametrize("values", [
        np.random.default_rng(0).integers(0, 30, 2000) / 7.0,
        np.round(np.random.default_rng(1).random(500), 2),
        np.full(37, 0.25),
        np.array([0.5]),
        np.array([]),
    ], ids=["many-ties", "rounded", "all-tied", "single", "empty"])
    def test_tied_ranks_match_run_loop(self, values):
        np.testing.assert_array_equal(tied_ranks(values),
                                      oracle.tied_ranks_loop(values))


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(PredictionSet([1.0, 1.0], [1, 1])) == 1.0

    def test_scores_equal_labels(self):
        labels = [0, 1, 1, 0]
        assert accuracy(PredictionSet(labels, labels)) == 1.0

    def test_hand_count(self):
        scores = [0.9, 0.2, 0.6, 0.4, 0.5, 0.1, 0.8, 0.3, 0.7, 0.45]
        labels = [1, 0, 0, 1, 1, 0, 1, 1, 0, 0]
        # threshold 0.5 hits: 1,1,0,0,1,1,1,0,0,1 -> 6/10
        assert accuracy(PredictionSet(scores, labels)) == 0.6

    def test_threshold_zero_is_base_rate(self, rng):
        scores = rng.random(500)
        labels = rng.integers(0, 2, 500)
        assert accuracy(PredictionSet(scores, labels), threshold=0.0) == labels.mean()

    def test_empty_rejected(self):
        with pytest.raises(MetricUndefinedError):
            accuracy(PredictionSet([], []))


class TestMeanXent:
    def test_half_everywhere(self):
        assert mean_xent(PredictionSet([0.5] * 4, [0, 1, 1, 0])) == \
            pytest.approx(math.log(2), abs=1e-12)

    def test_perfect_predictions_near_zero(self):
        val = mean_xent(PredictionSet([0.0, 1.0, 1.0], [0, 1, 1]))
        assert 0 < val <= -math.log(1 - 1e-7) + 1e-12

    def test_matches_direct_sum(self, rng):
        scores = rng.random(64)
        labels = rng.integers(0, 2, 64)
        direct = -np.mean([y * math.log(p) + (1 - y) * math.log(1 - p)
                           for p, y in zip(np.clip(scores, 1e-7, 1 - 1e-7), labels)])
        assert mean_xent(PredictionSet(scores, labels)) == pytest.approx(direct, abs=1e-12)


class TestNonFiniteScores:
    @pytest.mark.parametrize("metric", [auc, accuracy, mean_xent])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_rejected_naming_first_index(self, metric, bad):
        pred = PredictionSet([0.2, 0.7, bad, 0.1, bad], [0, 1, 1, 0, 1])
        with pytest.raises(MetricUndefinedError, match=f"score 2 is {bad}"):
            metric(pred)


class TestTtest:
    def test_identical_samples(self):
        t, dof, p = ttest_two_tailed([1, 2, 3], [1, 2, 3])
        assert t == 0.0 and p == pytest.approx(1.0, abs=1e-12)

    def test_clear_separation(self, rng):
        xs = 0.0 + rng.normal(0, 1e-6, 5)
        ys = 1.0 + rng.normal(0, 1e-6, 5)
        _, _, p = ttest_two_tailed(xs, ys)
        assert p < 0.01

    def test_matches_quadrature_oracle(self):
        t, dof, p = ttest_two_tailed([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert p == pytest.approx(two_tailed_p_by_quadrature(t, dof), abs=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_cases_match_quadrature(self, seed):
        r = np.random.default_rng(seed)
        xs = r.normal(0, 1, 8)
        ys = r.normal(0.5, 2, 12)
        t, dof, p = ttest_two_tailed(xs, ys)
        assert p == pytest.approx(two_tailed_p_by_quadrature(t, dof), abs=1e-6)

    def test_swap_negates_t_keeps_p(self, rng):
        xs = rng.normal(0, 1, 6)
        ys = rng.normal(1, 1, 9)
        t1, d1, p1 = ttest_two_tailed(xs, ys)
        t2, d2, p2 = ttest_two_tailed(ys, xs)
        assert t1 == pytest.approx(-t2, abs=1e-12)
        assert p1 == pytest.approx(p2, abs=1e-12)
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_degenerate_variance(self):
        with pytest.raises(MetricUndefinedError):
            ttest_two_tailed([1.0, 1.0], [2.0, 2.0])
        with pytest.raises(MetricUndefinedError):
            ttest_two_tailed([1.0], [1.0, 2.0])

    def test_t_cdf_known_value(self):
        # dof=1 is Cauchy: two-tailed p of t=1 is exactly 1/2
        assert t_sf_two_tailed(1.0, 1.0) == pytest.approx(0.5, abs=1e-10)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_direct_formula(self, rng):
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        cov = ((x - x.mean()) * (y - y.mean())).sum()
        direct = cov / math.sqrt(((x - x.mean()) ** 2).sum() * ((y - y.mean()) ** 2).sum())
        assert pearson(x, y) == pytest.approx(direct, abs=1e-12)

    def test_affine_invariance_and_sign_flip(self, rng):
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        r = pearson(x, y)
        assert pearson(2.5 * x + 7, y) == pytest.approx(r, abs=1e-10)
        assert pearson(-x, y) == pytest.approx(-r, abs=1e-10)

    def test_degenerate(self):
        with pytest.raises(MetricUndefinedError):
            pearson([1, 1, 1], [1, 2, 3])


class TestAggregateTrials:
    def trial(self, seed, a):
        return {"seed": seed, "auc": a, "acc": a, "loss": 1 - a}

    def test_single_trial_marker(self):
        rep = aggregate_trials([self.trial(0, 0.8)])
        assert rep["single_trial"]
        assert rep["std"]["auc"] == 0.0
        assert rep["mean"]["auc"] == 0.8

    def test_two_trials(self):
        rep = aggregate_trials([self.trial(0, 80.0), self.trial(1, 82.0)])
        assert rep["mean"]["auc"] == 81.0
        assert rep["std"]["auc"] == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_five_trials_hand_computed(self, rng):
        vals = rng.random(5)
        rep = aggregate_trials([self.trial(i, v) for i, v in enumerate(vals)])
        assert rep["mean"]["auc"] == pytest.approx(vals.mean(), abs=1e-12)
        assert rep["std"]["auc"] == pytest.approx(vals.std(ddof=1), abs=1e-12)
        assert not rep["single_trial"]
        assert rep["num_trials"] == 5
        assert [t["seed"] for t in rep["trials"]] == list(range(5))

    def test_empty_rejected(self):
        with pytest.raises(MetricUndefinedError):
            aggregate_trials([])

    def test_trial_metrics_row(self):
        pred = PredictionSet([0.9, 0.2, 0.6, 0.4], [1, 0, 0, 1])
        assert trial_metrics(pred, 7) == {"seed": 7, "auc": auc(pred),
                                          "acc": accuracy(pred),
                                          "loss": mean_xent(pred)}
