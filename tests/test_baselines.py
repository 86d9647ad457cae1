import math
import warnings

import numpy as np
import pytest

import oracle
from deepkt import baselines
from deepkt.baselines import (FirstAttempts, IrtParams, LogisticFit, PfaFeatures,
                              build_pfa_features, first_attempts, fit_irt,
                              fit_logistic, irt_predict, item_analysis,
                              predict_logistic)
from deepkt.datasets import (Dataset, InteractionSequence, SyntheticConfig,
                             ValidationError, generate_synthetic)
from deepkt.metrics import pearson


def seq(student, pairs):
    return InteractionSequence(str(student), list(pairs))


def data(seqs):
    """A Dataset of ``seqs`` over a bank that holds every question id here."""
    return Dataset(100000, seqs)


def attempts(triples):
    """A FirstAttempts of (student, question, answer) triples, in their order."""
    students, questions, answers = zip(*triples) if triples else ((), (), ())
    students, student = np.unique(students, return_inverse=True)
    return FirstAttempts(students, student, np.array(questions, dtype=np.int64),
                         np.array(answers, dtype=np.int64))


def assert_same_attempts(got, want):
    assert got.students.tolist() == want.students.tolist()
    for name in ("student", "question", "answer"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
                                      err_msg=name)
        assert getattr(got, name).dtype == np.int64, name


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def random_seqs(rng, n_students, num_skills, max_len):
    return [seq(i, zip(rng.integers(1, num_skills + 1, n).tolist(),
                       rng.integers(0, 2, n).tolist()))
            for i, n in enumerate(rng.integers(1, max_len + 1, n_students))]


class TestIrtPredict:
    def test_link_values(self):
        assert irt_predict(0.0, 0.0) == 0.5
        assert irt_predict(2.0, 0.0) == pytest.approx(0.8807971, abs=1e-6)
        assert irt_predict(0.0, 2.0) == pytest.approx(1 - 0.8807971, abs=1e-6)

    def test_shift_invariance(self):
        assert irt_predict(1.3, 0.4) == pytest.approx(irt_predict(11.3, 10.4), abs=1e-12)

    def test_monotone_in_ability(self):
        ps = [irt_predict(t, 0.0) for t in np.linspace(-3, 3, 13)]
        assert all(a < b for a, b in zip(ps, ps[1:]))


class TestFitIrt:
    def crossed_data(self, rng, n_students=60, n_questions=25,
                     theta_std=1.0, beta_std=1.0):
        theta = rng.normal(0, theta_std, n_students)
        beta = rng.normal(0, beta_std, n_questions)
        triples = []
        for i in range(n_students):
            for j in range(n_questions):
                p = sigmoid(theta[i] - beta[j])
                triples.append((f"s{i}", j + 1, int(rng.random() < p)))
        return theta, beta, triples

    def test_theta_centered(self, rng):
        _, _, triples = self.crossed_data(rng, 20, 10)
        fit = fit_irt(attempts(triples))
        assert np.mean(list(fit.theta.values())) == pytest.approx(0.0, abs=1e-9)

    def test_symmetric_data_gives_zero_params(self):
        # every student answers every question once right and once wrong in the
        # first-attempt table via two mirrored students
        triples = []
        for j in range(1, 5):
            triples.append(("a", j, 1))
            triples.append(("b", j, 0))
        fit = fit_irt(attempts(triples))
        # a and b are exact mirrors, betas identical across questions
        assert fit.theta["a"] == pytest.approx(-fit.theta["b"], abs=1e-6)
        betas = list(fit.beta.values())
        assert max(betas) - min(betas) < 1e-9

    def test_converges_and_recovers_ranking(self, rng):
        theta, beta, triples = self.crossed_data(rng, 80, 100)
        fit = fit_irt(attempts(triples))
        assert fit.converged
        est_theta = np.array([fit.theta[f"s{i}"] for i in range(80)])
        est_beta = np.array([fit.beta[j + 1] for j in range(100)])
        assert pearson(theta, est_theta) > 0.85
        assert pearson(beta, est_beta) > 0.85

    def test_difficulty_ordering_simple_case(self):
        # question 1 answered right by 3 of 4 students, question 2 by 1 of 4
        triples = [(s, 1, a) for s, a in zip("wxyz", [1, 1, 1, 0])]
        triples += [(s, 2, a) for s, a in zip("wxyz", [1, 0, 0, 0])]
        fit = fit_irt(attempts(triples))
        assert fit.beta[1] < fit.beta[2]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            fit_irt(attempts([]))

    def test_non_convergence_warns(self, rng):
        _, _, triples = self.crossed_data(rng, 10, 5)
        with pytest.warns(UserWarning, match="gradient norm"):
            fit = fit_irt(attempts(triples), max_iters=1)
        assert not fit.converged


SYNTHETIC_SEQS = generate_synthetic(SyntheticConfig(
    num_students=200, num_questions=25, num_concepts=5, guess_c=0.0,
    seed=7))[0].sequences


def irt_cases():
    """(name, first-attempt triples, max_iters) for the loop comparison."""
    rng = np.random.default_rng(11)
    _, _, crossed = TestFitIrt().crossed_data(rng, 40, 30)
    synthetic = oracle.first_attempts_loop(SYNTHETIC_SEQS)
    return [("crossed", crossed, 500), ("crossed-stopped", crossed, 3),
            ("synthetic", synthetic, 500)]


IRT_CASES = irt_cases()


class TestFitIrtMatchesLoop:
    @pytest.mark.parametrize("name,triples,max_iters", IRT_CASES,
                             ids=[c[0] for c in IRT_CASES])
    def test_bit_identical(self, name, triples, max_iters):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fast = fit_irt(attempts(triples), max_iters=max_iters)
            loop = oracle.fit_irt_loop(triples, max_iters=max_iters)
        assert fast.theta == loop.theta and fast.beta == loop.beta
        assert fast.grad_norm == loop.grad_norm
        assert fast.converged == loop.converged == (max_iters == 500)


class TestBuildPfaFeatures:
    def test_counts_by_hand(self):
        feats = build_pfa_features(data([seq(0, [(1, 1), (1, 0), (2, 1), (1, 1)])]))
        np.testing.assert_array_equal(feats.skill, [1, 1, 2, 1])
        np.testing.assert_array_equal(feats.successes, [0, 1, 0, 1])
        np.testing.assert_array_equal(feats.failures, [0, 0, 0, 1])
        np.testing.assert_array_equal(feats.label, [1, 0, 1, 1])

    def test_counts_reset_between_students(self):
        feats = build_pfa_features(data([seq(0, [(1, 1)]), seq(1, [(1, 0)])]))
        np.testing.assert_array_equal(feats.successes, [0, 0])
        np.testing.assert_array_equal(feats.failures, [0, 0])

    def test_matches_brute_force_oracle(self, rng):
        seqs = []
        for i in range(5):
            n = int(rng.integers(5, 40))
            seqs.append(seq(i, zip(rng.integers(1, 6, n).tolist(),
                                   rng.integers(0, 2, n).tolist())))
        feats = build_pfa_features(data(seqs))
        k = 0
        for s in seqs:
            for t, (q, a) in enumerate(s.steps):
                prior = [aa for qq, aa in s.steps[:t] if qq == q]
                assert feats.skill[k] == q
                assert feats.successes[k] == sum(prior)
                assert feats.failures[k] == len(prior) - sum(prior)
                assert feats.label[k] == a
                k += 1
        assert k == len(feats)

    @pytest.mark.parametrize("name,seqs", [
        ("interleaved-repeated", [seq(0, [(2, 1), (1, 0), (2, 0), (1, 1), (2, 1),
                                          (3, 0), (1, 0), (2, 1)]),
                                  seq(1, [(1, 1), (1, 1), (2, 0), (1, 0)])]),
        ("empty-sequence", [seq(0, [(1, 1), (1, 0)]), seq(1, []), seq(2, [(1, 0)])]),
        ("no-sequences", []),
        ("one-step-sequences", [seq(i, [(1 + i % 3, i % 2)]) for i in range(7)]),
        ("sparse-ids", [seq(0, [(100000, 1), (7, 0), (100000, 0), (7, 1), (7, 1)]),
                        seq(1, [(7, 0), (100000, 1), (100000, 1)])]),
        ("random", random_seqs(np.random.default_rng(8), 40, 6, 30)),
    ])
    def test_equals_loop_bit_for_bit(self, name, seqs):
        fast = build_pfa_features(data(seqs))
        loop = oracle.build_pfa_features_loop(seqs)
        for field in ("skill", "successes", "failures", "label"):
            got, want = getattr(fast, field), getattr(loop, field)
            assert got.dtype == want.dtype, field
            np.testing.assert_array_equal(got, want, err_msg=field)


class TestFitLogistic:
    def test_intercept_only_recovers_base_rate(self, rng):
        # one skill, no prior attempts: beta is the only active coefficient
        seqs = [seq(i, [(1, int(rng.random() < 0.8))]) for i in range(4000)]
        feats = build_pfa_features(data(seqs))
        fit = fit_logistic(feats, design="PFA")
        rate = feats.label.mean()
        np.testing.assert_array_equal(fit.skills, [1])
        assert sigmoid(-fit.coef[0, 2]) == pytest.approx(rate, abs=1e-3)

    def test_pfa_recovers_known_coefficients(self, rng):
        alpha, rho, beta = 0.35, -0.25, -0.4
        labels = []
        S = rng.integers(0, 8, 100000).astype(float)
        F = rng.integers(0, 8, 100000).astype(float)
        z = alpha * S + rho * F - beta
        labels = (rng.random(100000) < 1.0 / (1.0 + np.exp(-z))).astype(int)
        from deepkt.baselines import PfaFeatures
        feats = PfaFeatures(skill=np.ones(100000, dtype=np.int64),
                            successes=S, failures=F, label=labels)
        fit = fit_logistic(feats, design="PFA")
        assert fit.design == "PFA" and fit.theta == 0.0
        (a, r, b), = fit.coef
        assert a == pytest.approx(alpha, rel=0.1)
        assert r == pytest.approx(rho, rel=0.1)
        assert b == pytest.approx(beta, rel=0.1)

    def test_lfa_recovers_known_coefficients(self, rng):
        theta, gamma, beta = 0.3, 0.2, 0.5
        N = rng.integers(0, 10, 100000).astype(float)
        z = theta + gamma * N - beta
        labels = (rng.random(100000) < 1.0 / (1.0 + np.exp(-z))).astype(int)
        from deepkt.baselines import PfaFeatures
        # split N arbitrarily into S and F; LFA only uses the sum
        S = np.floor(N / 2)
        feats = PfaFeatures(skill=np.ones(100000, dtype=np.int64),
                            successes=S, failures=N - S, label=labels)
        fit = fit_logistic(feats, design="LFA")
        assert fit.design == "LFA"
        (g, b), = fit.coef
        assert g == pytest.approx(gamma, rel=0.1)
        # theta and beta are only identified through theta - beta
        assert fit.theta - b == pytest.approx(theta - beta, abs=0.05)

    def test_per_skill_coefficients_independent(self, rng):
        # skill 2 is much harder than skill 1
        seqs = []
        for i in range(2000):
            a1 = int(rng.random() < 0.9)
            a2 = int(rng.random() < 0.2)
            seqs.append(seq(i, [(1, a1), (2, a2)]))
        fit = fit_logistic(build_pfa_features(data(seqs)), design="PFA")
        np.testing.assert_array_equal(fit.skills, [1, 2])
        assert fit.coef[1, 2] > fit.coef[0, 2]

    def test_unknown_design(self):
        feats = build_pfa_features(data([seq(0, [(1, 1)])]))
        with pytest.raises(ValidationError, match="unknown design 'AFM'"):
            fit_logistic(feats, design="AFM")
        fit = LogisticFit("AFM", np.array([1]), np.zeros((1, 2)), 0.0, True, 0.0)
        with pytest.raises(ValidationError, match="unknown design 'AFM'"):
            predict_logistic(fit, feats)

    @pytest.mark.parametrize("design", ["PFA", "LFA"])
    def test_reports_gradient_norm(self, rng, design):
        feats = build_pfa_features(data(random_seqs(rng, 60, 4, 20)))
        fit = fit_logistic(feats, design=design)
        assert fit.converged and fit.grad_norm < baselines.GRAD_TOL
        with pytest.warns(UserWarning, match="gradient norm"):
            stopped = fit_logistic(feats, design=design, max_iters=1)
        assert not stopped.converged and stopped.grad_norm >= baselines.GRAD_TOL

    def test_separation_warning(self):
        seqs = [seq(i, [(1, 1)]) for i in range(50)]
        with pytest.warns(UserWarning, match="separation"):
            fit_logistic(build_pfa_features(data(seqs)), design="PFA")


def until_first_success(rng, n_students, skill, p=0.3):
    """Attempts on ``skill`` that stop at the first correct answer, so no
    observation of it has a prior success."""
    seqs = []
    for i in range(n_students):
        steps = []
        while len(steps) < 6:
            steps.append((skill, int(rng.random() < p)))
            if steps[-1][1]:
                break
        seqs.append(seq(i, steps))
    return seqs


def _logistic_cases():
    """(name, sequences, max_iters) for the block-vs-dense comparison."""
    cases = []
    for s in (0, 1, 2):
        rng = np.random.default_rng(s)
        cases.append((f"random-{s}", random_seqs(rng, 60, 3 + 2 * s, 25), 500))
    rng = np.random.default_rng(3)
    cases.append(("no-prior-success",
                  random_seqs(rng, 40, 4, 20) + until_first_success(rng, 80, 5), 500))
    rng = np.random.default_rng(4)
    # skill 4 is always answered correctly: its coefficients run off
    always = [seq(100 + i, [(4, 1)] * int(n)) for i, n in
              enumerate(rng.integers(1, 5, 30))]
    cases.append(("separable", random_seqs(rng, 40, 3, 15) + always, 500))
    rng = np.random.default_rng(5)
    cases.append(("max-iters-2", random_seqs(rng, 50, 4, 20), 2))
    return cases


LOGISTIC_CASES = _logistic_cases()


def coefficient_vector(fit):
    return np.r_[fit.theta, fit.coef.ravel()]


class TestBlockNewtonMatchesDense:
    """The per-skill block Newton fit against the dense IRLS of ``oracle``."""

    @pytest.mark.parametrize("design", ["PFA", "LFA"])
    @pytest.mark.parametrize("name,seqs,max_iters", LOGISTIC_CASES,
                             ids=[c[0] for c in LOGISTIC_CASES])
    def test_same_fit(self, design, name, seqs, max_iters):
        feats = build_pfa_features(data(seqs))
        with warnings.catch_warnings(record=True) as fast_warnings:
            warnings.simplefilter("always")
            fast = fit_logistic(feats, design=design, max_iters=max_iters)
        with warnings.catch_warnings(record=True) as dense_warnings:
            warnings.simplefilter("always")
            dense = oracle.fit_logistic_dense(feats, design, max_iters=max_iters)
        assert type(fast) is type(dense) and fast.design == dense.design == design
        np.testing.assert_array_equal(fast.skills, dense.skills)
        k = {"PFA": 3, "LFA": 2}[design]
        assert fast.coef.shape == dense.coef.shape == (len(fast.skills), k)
        np.testing.assert_allclose(coefficient_vector(fast),
                                   coefficient_vector(dense), rtol=0, atol=1e-8)
        assert fast.converged == dense.converged
        assert [str(w.message) for w in fast_warnings] == \
            [str(w.message) for w in dense_warnings]

    def test_cases_cover_the_edges(self):
        # the case list must keep a no-prior-success skill, a separable skill
        # and a fit stopped by max_iters
        by_name = {name: (seqs, it) for name, seqs, it in LOGISTIC_CASES}
        feats = build_pfa_features(data(by_name["no-prior-success"][0]))
        assert feats.successes[feats.skill == 5].max() == 0
        for name, want in (("separable", "separation"),
                           ("max-iters-2", "gradient norm")):
            seqs, max_iters = by_name[name]
            with pytest.warns(UserWarning, match=want):
                fit_logistic(build_pfa_features(data(seqs)), design="PFA",
                             max_iters=max_iters)


class TestGroupedFit:
    """The fit groups observations into (skill, S, F) or (skill, S + F) cells."""

    def features(self, skill, successes, failures, label):
        return PfaFeatures(skill=np.asarray(skill, dtype=np.int64),
                           successes=np.asarray(successes, dtype=np.float64),
                           failures=np.asarray(failures, dtype=np.float64),
                           label=np.asarray(label, dtype=np.int64))

    def fit_counting_cells(self, monkeypatch, feats, design):
        cells = []
        block_newton = baselines._block_newton

        def spy(rows, skill, shared_x, n, y, *args):
            cells.append((len(n), n.sum(), y.sum()))
            return block_newton(rows, skill, shared_x, n, y, *args)

        monkeypatch.setattr(baselines, "_block_newton", spy)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = fit_logistic(feats, design=design)
        with warnings.catch_warnings(record=True) as dense_caught:
            warnings.simplefilter("always")
            dense = oracle.fit_logistic_dense(feats, design)
        np.testing.assert_allclose(coefficient_vector(fit), coefficient_vector(dense),
                                   rtol=0, atol=1e-8)
        assert fit.converged == dense.converged
        assert [str(w.message) for w in caught] == [str(w.message) for w in dense_caught]
        return cells

    @pytest.mark.parametrize("design", ["PFA", "LFA"])
    def test_every_observation_its_own_cell(self, monkeypatch, rng, design):
        k = np.arange(40) % 10
        feats = self.features(1 + np.arange(40) // 10, 2 * k, k % 2,
                              rng.integers(0, 2, 40))
        cells = self.fit_counting_cells(monkeypatch, feats, design)
        assert cells == [(40, 40, feats.label.sum())]

    @pytest.mark.parametrize("design", ["PFA", "LFA"])
    def test_all_observations_one_cell(self, monkeypatch, design):
        feats = self.features(np.full(50, 3), np.full(50, 2), np.ones(50),
                              np.arange(50) < 30)
        cells = self.fit_counting_cells(monkeypatch, feats, design)
        assert cells == [(1, 50, 30)]

    @pytest.mark.parametrize("successes,match", [
        ([0.0, 1.5], "non-negative integers"),
        ([0.0, -1.0], "non-negative integers"),
        ([0.0, 2.0 ** 40], "overflow"),
    ])
    def test_counts_must_be_small_non_negative_integers(self, successes, match):
        feats = self.features([1, 2], successes, [0.0, 2.0 ** 40], [0, 1])
        with pytest.raises(ValidationError, match=match):
            fit_logistic(feats, design="PFA")


def observations(skill, successes, failures):
    return PfaFeatures(skill=np.asarray(skill, dtype=np.int64),
                       successes=np.asarray(successes, dtype=np.float64),
                       failures=np.asarray(failures, dtype=np.float64),
                       label=np.zeros(len(skill), dtype=np.int64))


class TestPredictors:
    """``predict_logistic`` scores PFA and LFA from one fit type."""

    PFA = LogisticFit("PFA", np.array([1, 2]), np.array([[0.3, -0.1, 0.2],
                                                         [0.1, 0.2, -0.4]]),
                      0.0, True, 0.0)

    def test_pfa_predict_formula(self):
        expect = sigmoid(0.3 * 4 - 0.1 * 2 - 0.2)
        p = predict_logistic(self.PFA, observations([1], [4], [2]))
        assert p == pytest.approx([expect], abs=1e-12)

    def test_lfa_predict_formula(self):
        fit = LogisticFit("LFA", np.array([2, 5]), np.array([[0.1, 0.3], [0.7, -0.2]]),
                          0.5, True, 0.0)
        expect = [sigmoid(0.5 + 0.1 * 6 - 0.3), sigmoid(0.5 + 0.7 * 3 + 0.2)]
        # LFA reads S + F only
        p = predict_logistic(fit, observations([2, 5], [2, 0], [4, 3]))
        assert p == pytest.approx(expect, abs=1e-12)

    def test_unseen_skill_half_with_warning(self):
        with pytest.warns(UserWarning, match="skill 99 unseen during PFA fit"):
            assert predict_logistic(self.PFA, observations([99], [0], [0])) == [0.5]
        empty = LogisticFit("LFA", np.array([], dtype=np.int64), np.empty((0, 2)),
                            0.0, True, 0.0)
        with pytest.warns(UserWarning, match="skill 7 unseen during LFA fit"):
            assert predict_logistic(empty, observations([7], [0], [0])) == [0.5]

    def test_arrays_score_like_scalars_and_warn_once(self):
        S = np.array([4.0, 0.0, 1.0, 3.0])
        F = np.array([2.0, 1.0, 0.0, 5.0])
        skills = np.array([1, 2, 9, 9])
        with pytest.warns(UserWarning, match="skill 9 unseen") as caught:
            p = predict_logistic(self.PFA, observations(skills, S, F))
        assert len(caught) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expect = [predict_logistic(self.PFA, observations([q], [s], [f]))[0]
                      for q, s, f in zip(skills, S, F)]
        np.testing.assert_array_equal(p, expect)
        assert predict_logistic(self.PFA, observations([], [], [])).shape == (0,)
        assert irt_predict(np.zeros(2), np.array([0.0, 2.0])) == \
            pytest.approx([0.5, irt_predict(0.0, 2.0)], abs=0)


def shared_ids(rng):
    """Ragged random sequences whose student ids repeat, plus an empty one."""
    seqs = [seq(i % 7, s.steps) for i, s in enumerate(random_seqs(rng, 30, 6, 25))]
    return seqs[:9] + [seq(99, [])] + seqs[9:]


FIRST_ATTEMPT_CASES = [
    ("one-id-two-sequences", [seq(0, [(2, 1), (1, 0), (2, 0)]), seq(1, [(1, 1)]),
                              seq(0, [(1, 1), (2, 0), (1, 0)])]),
    ("empty-sequence", [seq(0, [(1, 1), (1, 0)]), seq(1, []), seq(2, [(1, 0)])]),
    ("no-sequences", []),
    ("sparse-ids", [seq(0, [(100000, 1), (7, 0), (100000, 0), (7, 1)]),
                    seq(1, [(7, 0), (100000, 1), (100000, 1)])]),
    ("random-shared-ids", shared_ids(np.random.default_rng(12))),
    ("synthetic", SYNTHETIC_SEQS),
]
# first tries are per student: student "0"'s second sequence repeats questions
# it already tried in its first, so it adds none
FIRST_ATTEMPTS_EXPECTED = {
    "one-id-two-sequences": [("0", 2, 1), ("0", 1, 0), ("1", 1, 1)],
}


class TestFirstAttempts:
    @pytest.mark.parametrize("name,seqs", FIRST_ATTEMPT_CASES,
                             ids=[c[0] for c in FIRST_ATTEMPT_CASES])
    def test_equals_loop(self, name, seqs):
        loop = oracle.first_attempts_loop(seqs)
        if name in FIRST_ATTEMPTS_EXPECTED:
            assert loop == FIRST_ATTEMPTS_EXPECTED[name]
        fast = first_attempts(data(seqs))
        assert_same_attempts(fast, attempts(loop))
        assert len(fast) == len(loop)
        assert fast.students.tolist() == sorted({t[0] for t in loop})

    @pytest.mark.parametrize("name,seqs", [c for c in FIRST_ATTEMPT_CASES if c[1]],
                             ids=[c[0] for c in FIRST_ATTEMPT_CASES if c[1]])
    def test_fit_irt_bit_identical_to_loops(self, name, seqs):
        fast = fit_irt(first_attempts(data(seqs)))
        loop = oracle.fit_irt_loop(oracle.first_attempts_loop(seqs))
        assert fast.theta == loop.theta and fast.beta == loop.beta
        assert fast.grad_norm == loop.grad_norm


class TestItemAnalysis:
    def test_first_attempts_keep_first_only(self):
        tries = first_attempts(data([seq(0, [(1, 0), (1, 1), (2, 1)])]))
        assert_same_attempts(tries, attempts([("0", 1, 0), ("0", 2, 1)]))

    def test_difficulty_fractions(self):
        seqs = [seq(i, [(1, 1 if i < 8 else 0), (2, 1 if i < 2 else 0)])
                for i in range(10)]
        diff = item_analysis(data(seqs), min_students=10)
        assert diff[1] == pytest.approx(0.2)
        assert diff[2] == pytest.approx(0.8)

    def test_min_students_filter(self):
        seqs = [seq(i, [(1, 1)]) for i in range(10)] + [seq(99, [(2, 0)])]
        diff = item_analysis(data(seqs), min_students=10)
        assert 1 in diff and 2 not in diff

    def test_repeat_attempts_ignored(self):
        seqs = [seq(i, [(1, 0), (1, 1), (1, 1)]) for i in range(10)]
        assert item_analysis(data(seqs))[1] == 1.0

    def test_invalid_min_students(self):
        with pytest.raises(ValidationError):
            item_analysis(data([]), min_students=0)

    @pytest.mark.parametrize("steps", [[(1, 7)], [(1, 0), (1, 7)]])
    def test_answer_not_a_bit_rejected(self, steps):
        # a first or a repeated attempt alike
        seqs = [seq(0, [(1, 1), (2, 0)]), seq(1, steps)]
        with pytest.raises(ValidationError, match="answer bit must be 0 or 1, got 7"):
            fit_irt(first_attempts(data(seqs)))
        with pytest.raises(ValidationError, match="answer bit must be 0 or 1, got 7"):
            item_analysis(data(seqs), 1)


class TestSyntheticRecovery:
    def test_irt_recovers_beta_without_guessing(self):
        # acceptance criterion 4 at reduced scale: c = 0, recover difficulty order
        cfg = SyntheticConfig(num_students=400, num_questions=25, num_concepts=5,
                              guess_c=0.0, seed=7)
        ds, gt = generate_synthetic(cfg)
        fit = fit_irt(first_attempts(ds))
        est = np.array([fit.beta[j + 1] for j in range(25)])
        assert pearson(gt.beta, est) > 0.9
