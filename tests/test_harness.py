import json
import math
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest

import oracle
from deepkt import baselines, harness, models
from deepkt.autodiff import IndexOutOfRangeError
from deepkt.datasets import (Dataset, InteractionSequence, SyntheticConfig,
                             ValidationError, generate_synthetic, pad_and_mask)
from deepkt.harness import (GridSpec, TrainConfig, TrainingError,
                            deep_irt_difficulties, evaluate, evaluate_baseline,
                            export_difficulty, export_trajectory, grid_search,
                            param_count, report_json,
                            run_experiment, select_best, train)


def tiny_dataset(rng, n_seqs=12, num_kcs=4, max_len=8):
    seqs = []
    for i in range(n_seqs):
        n = int(rng.integers(2, max_len + 1))
        steps = list(zip(rng.integers(1, num_kcs + 1, n).tolist(),
                         rng.integers(0, 2, n).tolist()))
        seqs.append(InteractionSequence(str(i), steps))
    return Dataset(num_kcs, seqs, name="tiny")


def tiny_config(**kw):
    base = dict(model="deep_irt", epochs=2, batch_size=4, seq_len=8,
                mem_slots=2, state_dim=4, feature_dim=4, hidden=4,
                cv_folds=2, trials=1, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_defaults_match_protocol(self):
        cfg = TrainConfig()
        assert (cfg.lr, cfg.batch_size, cfg.clip_norm) == (0.003, 32, 10.0)
        assert (cfg.seq_len, cfg.epochs, cfg.init_std) == (200, 50, 0.05)
        assert (cfg.test_fraction, cfg.cv_folds, cfg.trials) == (0.3, 5, 5)

    @pytest.mark.parametrize("bad", [
        {"model": "gpt"},
        {"lr": 0.0},
        {"epochs": -1},
        {"trials": 0},
        {"cv_folds": 1},
        {"test_fraction": 1.0},
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ValidationError):
            TrainConfig(**bad).validate()

    def test_from_dict_rejects_unknown_keys(self):
        cfg = TrainConfig.from_dict({"model": "dkt", "lr": 0.01})
        assert cfg.model == "dkt" and cfg.lr == 0.01
        with pytest.raises(ValidationError,
                           match="unknown config keys: epoch, junk$"):
            TrainConfig.from_dict({"model": "dkt", "junk": 1, "epoch": 3})

    def test_grid_points(self):
        grid = GridSpec(state_dims=(10, 50), memory_sizes=(5, 20))
        assert grid.points("dkt") == [{"hidden": 10}, {"hidden": 50}]
        mem = grid.points("deep_irt")
        assert len(mem) == 4
        assert {"state_dim": 10, "mem_slots": 5} in mem

    def test_param_count_matches_formula(self):
        cfg = tiny_config(model="dkt", hidden=3)
        q, h = 4, 3
        expect = 2 * q * 4 * h + h * 4 * h + 4 * h + h * q + q
        assert param_count(cfg, num_kcs=4) == expect


class TestTrain:
    def test_zero_epochs_leaves_init_untouched(self, rng):
        ds = tiny_dataset(rng)
        cfg = tiny_config(epochs=0)
        params, log = train(cfg, ds)
        arch = models.make_arch(cfg.model, ds.num_kcs, asdict(cfg))
        fresh = models.init_params(arch, cfg.init_std, cfg.seed)
        assert log == []
        for (_, a), (_, b) in zip(params.named_parameters(),
                                  fresh.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    @pytest.mark.parametrize("model", ["dkt", "dkvmn", "deep_irt"])
    def test_same_seed_bit_identical(self, rng, model):
        ds = tiny_dataset(rng)
        cfg = tiny_config(model=model)
        p1, l1 = train(cfg, ds)
        p2, l2 = train(cfg, ds)
        assert l1 == l2
        for (_, a), (_, b) in zip(p1.named_parameters(), p2.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_loss_decreases_on_learnable_data(self):
        # strongly patterned data: question id determines the answer
        seqs = [InteractionSequence(str(i), [(q, q % 2) for q in range(1, 5)])
                for i in range(16)]
        ds = Dataset(4, seqs)
        cfg = tiny_config(epochs=10, lr=0.01)
        _, log = train(cfg, ds)
        assert log[-1] < log[0]
        assert log[-1] < math.log(2)

    def test_clip_bounds_post_clip_norm(self, rng, monkeypatch):
        ds = tiny_dataset(rng)
        cfg = tiny_config(clip_norm=0.01)
        observed = []
        real_step = harness.adam_step

        def step(params, *args):
            # the gradients Adam is about to apply, after clipping
            grads = [p.grad for p in params if p.grad is not None]
            observed.append(float(np.sqrt(sum((g * g).sum() for g in grads))))
            real_step(params, *args)

        monkeypatch.setattr(harness, "adam_step", step)
        train(cfg, ds)
        assert observed
        assert max(observed) <= 0.01 + 1e-9

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError):
            train(tiny_config(), Dataset(4, []))

    def test_divergence_reports_location(self, rng):
        ds = tiny_dataset(rng)
        cfg = tiny_config(lr=1e6, clip_norm=1e9, epochs=5, init_std=5.0)
        try:
            train(cfg, ds)
        except TrainingError as exc:
            assert "epoch" in str(exc) and "batch" in str(exc)
        # huge lr may still survive on a tiny model; divergence is not required

    def test_non_finite_gradient_names_its_batch(self, rng, monkeypatch):
        # the third batch (epoch 0, batch starting 8) gets one NaN gradient entry
        ds = tiny_dataset(rng)
        cfg = tiny_config(epochs=2, batch_size=4)
        made, calls, snapshot = [], [], []
        real_init, real_backward = models.init_params, harness.backward

        def init(*args):
            made.append(real_init(*args))
            return made[-1]

        def poisoned(loss):
            real_backward(loss)
            calls.append(loss)
            if len(calls) == 3:
                params = made[0].parameters()
                snapshot.extend(p.data.copy() for p in params)
                params[0].grad[0, 0] = np.nan

        monkeypatch.setattr(models, "init_params", init)
        monkeypatch.setattr(harness, "backward", poisoned)
        with pytest.raises(TrainingError, match=r"epoch 0, batch starting 8"):
            train(cfg, ds)
        # the bad gradient never reached the parameters
        for p, before in zip(made[0].parameters(), snapshot):
            np.testing.assert_array_equal(p.data, before)

    def test_evaluate_batch_size_irrelevant(self, rng):
        # Batch mates move a score by rounding only, so equality is to 1e-12,
        # not exact.  OpenBLAS rounds a row of a matrix product differently
        # depending on how many rows the product has: the item tables' products
        # (their row count is the batch's distinct interactions) in the memory
        # models, and h @ W_h over the live rows in DKT's LSTM.  Computing
        # those products one row at a time made eval_batch 1 and 200
        # bit-identical, but made evaluate 2-3x slower, so it is not done.
        # Reports always evaluate with one eval_batch, so they stay exact.
        ds = tiny_dataset(rng)
        cfg = tiny_config(epochs=1)
        params, _ = train(cfg, ds)
        a = evaluate(params, ds, cfg, eval_batch=3)
        b = evaluate(params, ds, cfg, eval_batch=200)
        np.testing.assert_allclose(np.asarray(a.scores, dtype=float),
                                   np.asarray(b.scores, dtype=float), atol=1e-12)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_evaluate_keeps_no_memory_history(self):
        # one Deep-IRT batch of B=50 students x L=100 steps, N=20, d=16: a
        # forward that keeps each cell's memory (S x N x d floats) needs more
        # than the bound; evaluate must not
        rng = np.random.default_rng(0)
        ds = Dataset(10, [InteractionSequence(str(i), list(zip(
            rng.integers(1, 11, 100).tolist(), rng.integers(0, 2, 100).tolist())))
            for i in range(50)])
        cfg = tiny_config(seq_len=100, mem_slots=20, state_dim=16, feature_dim=16)
        params = models.init_params(
            models.make_arch("deep_irt", ds.num_kcs, asdict(cfg)), seed=0)
        bound = 50 * 100 * 20 * 16 * 8
        tracemalloc.start()
        try:
            evaluate(params, ds, cfg, eval_batch=50)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            models.forward(params, pad_and_mask(ds.sequences, 100, ds.num_kcs))
            _, grad_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound < grad_peak

    @pytest.mark.parametrize("model", models.KINDS)
    def test_evaluate_ignores_the_dataset_bank_size(self, rng, model):
        # the model's own Q encodes the interactions, so a dataset that
        # declares a smaller bank over the same steps scores the same
        seqs = tiny_dataset(rng, n_seqs=8, num_kcs=8).sequences
        cfg = tiny_config(model=model)
        params = models.init_params(models.make_arch(model, 10, asdict(cfg)),
                                    std=0.3, seed=1)
        want = evaluate(params, Dataset(10, seqs), cfg)
        got = evaluate(params, Dataset(8, seqs), cfg)
        np.testing.assert_array_equal(got.scores, want.scores)
        np.testing.assert_array_equal(got.labels, want.labels)

    @pytest.mark.parametrize("model", models.KINDS)
    @pytest.mark.parametrize("at", [2, 4])
    def test_question_past_the_model_bank_rejected(self, rng, model, at):
        # question 11 in the middle or at the end of a row, against Q = 10
        steps = [(1, 0), (2, 1), (3, 1), (4, 0), (5, 1)]
        steps[at] = (11, 1)
        cfg = tiny_config(model=model)
        params = models.init_params(models.make_arch(model, 10, asdict(cfg)), seed=0)
        with pytest.raises(IndexOutOfRangeError, match=r"id 11 outside \[1, 10\]"):
            evaluate(params, Dataset(11, [InteractionSequence("s", steps)]), cfg)


class TestBaselineEvaluation:
    def make_splits(self, rng):
        ds = tiny_dataset(rng, n_seqs=30, num_kcs=3, max_len=10)
        return ds.sequences[:20], ds.sequences[20:]

    @pytest.mark.parametrize("model", ["pfa", "lfa", "irt", "item_analysis"])
    def test_scores_are_probabilities(self, rng, model):
        tr, te = self.make_splits(rng)
        pred = evaluate_baseline(model, Dataset(3, tr), Dataset(3, te),
                                 min_students=2)
        scores = np.asarray(pred.scores, dtype=float)
        assert len(scores) == sum(len(s.steps) for s in te)
        assert np.all((scores > 0) & (scores < 1))

    def test_item_analysis_scores_complement_difficulty(self, rng):
        from deepkt.baselines import item_analysis
        tr, te = self.make_splits(rng)
        diff = item_analysis(tr, min_students=2)
        pred = evaluate_baseline("item_analysis", Dataset(3, tr), Dataset(3, te),
                                 min_students=2)
        k = 0
        for seq in te:
            for q, _ in seq.steps:
                if q in diff:
                    assert pred.scores[k] == pytest.approx(1 - diff[q], abs=1e-12)
                k += 1

    @pytest.mark.parametrize("model", ["pfa", "lfa", "irt", "item_analysis"])
    def test_matches_per_step_scoring_with_unseen_skill(self, rng, model):
        # skill 4 and question 4 never occur in the train split
        tr, te = self.make_splits(rng)
        te = te + [InteractionSequence("new", [(4, 1), (1, 0), (4, 0), (4, 1)])]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pred = evaluate_baseline(model, Dataset(4, tr), Dataset(4, te),
                                     min_students=2)
        unseen = [w for w in caught if "unseen" in str(w.message)]
        assert len(unseen) == (1 if model in ("pfa", "lfa") else 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scores, labels = oracle.evaluate_baseline_per_step(
                model, Dataset(4, tr), Dataset(4, te), min_students=2)
        np.testing.assert_allclose(pred.scores, scores, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(pred.labels, labels)
        assert np.all(pred.scores[-4:][[0, 2, 3]] == 0.5)

    @pytest.mark.parametrize("model", ["irt", "item_analysis"])
    def test_question_only_models_skip_the_counting_pass(self, rng, monkeypatch, model):
        tr, te = self.make_splits(rng)
        want = evaluate_baseline(model, Dataset(3, tr), Dataset(3, te), min_students=2)

        def refuse(seqs):
            raise AssertionError("counts built for a model that reads none")

        monkeypatch.setattr(baselines, "build_pfa_features", refuse)
        got = evaluate_baseline(model, Dataset(3, tr), Dataset(3, te), min_students=2)
        np.testing.assert_array_equal(got.scores, want.scores)
        np.testing.assert_array_equal(got.labels, want.labels)

    def test_unknown_baseline(self, rng):
        tr, te = self.make_splits(rng)
        with pytest.raises(ValidationError):
            evaluate_baseline("bkt", Dataset(3, tr), Dataset(3, te))


@pytest.mark.parametrize("step,error,message", [
    ((1.5, 1), ValidationError, r"^question id 1\.5 is not an integer$"),
    ((np.inf, 1), ValidationError, r"^question id inf is not finite$"),
    ((0, 1), IndexOutOfRangeError, r"^question id 0 < 1$"),
    ((2 ** 53 + 1, 1), ValidationError, r"^question id 9007199254740992 >= 2\*\*53 is rounded$"),
    ((1, 2), ValidationError, r"^answer bit must be 0 or 1, got 2$"),
], ids=["fraction", "inf", "zero", "past_2_53", "answer_2"])
def test_every_step_reader_rejects_a_bad_step_alike(rng, step, error, message):
    good = tiny_dataset(rng, n_seqs=6, num_kcs=3).sequences
    bad = good[:3] + [InteractionSequence("bad", [(1, 0), step, (2, 1)])]
    readers = [lambda: pad_and_mask(bad, 4, 3),
               lambda: baselines.build_pfa_features(bad),
               lambda: baselines.fit_irt(baselines.first_attempts(bad)),
               lambda: baselines.item_analysis(bad, 1)]
    readers += [lambda m=model: evaluate_baseline(m, Dataset(3, good), Dataset(3, bad),
                                                  min_students=1)
                for model in ("pfa", "lfa", "irt", "item_analysis")]
    for read in readers:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=message):
                read()


class TestGridSearch:
    def test_single_point_grid_returns_it(self, rng):
        ds = tiny_dataset(rng)
        grid = GridSpec(state_dims=(4,), memory_sizes=(2,))
        best, table = grid_search(grid, tiny_config(epochs=1), ds)
        assert (best.state_dim, best.mem_slots) == (4, 2)
        assert len(table) == 1

    def test_select_best_prefers_loss_then_size_then_position(self):
        table = [
            {"point": {"hidden": 100}, "position": 0, "cv_loss": 0.5,
             "num_params": 1000},
            {"point": {"hidden": 10}, "position": 1, "cv_loss": 0.4,
             "num_params": 100},
            {"point": {"hidden": 20}, "position": 2, "cv_loss": 0.4,
             "num_params": 100},
            {"point": {"hidden": 50}, "position": 3, "cv_loss": 0.4,
             "num_params": 500},
        ]
        assert select_best(table)["point"] == {"hidden": 10}

    def test_table_covers_grid(self, rng):
        ds = tiny_dataset(rng)
        grid = GridSpec(state_dims=(3, 4), memory_sizes=(2,))
        _, table = grid_search(grid, tiny_config(epochs=1), ds)
        assert [r["point"]["state_dim"] for r in table] == [3, 4]
        for r in table:
            assert len(r["fold_losses"]) == 2
            assert r["cv_loss"] == pytest.approx(np.mean(r["fold_losses"]))

    def test_too_few_sequences(self, rng):
        ds = tiny_dataset(rng, n_seqs=1)
        with pytest.raises(ValidationError):
            grid_search(GridSpec(), tiny_config(), ds)


class TestRunExperiment:
    def test_deep_model_report_shape(self, rng):
        ds = tiny_dataset(rng, n_seqs=14)
        doc = run_experiment(tiny_config(trials=2), None, ds)
        assert doc["model"] == "deep_irt"
        assert doc["dataset"] == "tiny"
        assert set(doc["mean"]) == {"auc", "acc", "loss"}
        assert len(doc["trials"]) == 2
        assert doc["trials"][0]["seed"] == 0 and doc["trials"][1]["seed"] == 1

    def test_baseline_trials_identical(self, rng):
        ds = tiny_dataset(rng, n_seqs=20)
        doc = run_experiment(tiny_config(model="pfa", trials=3), None, ds)
        aucs = [t["auc"] for t in doc["trials"]]
        assert aucs[0] == aucs[1] == aucs[2]
        assert doc["std"]["auc"] == 0.0

    def test_report_byte_identical_across_runs(self, rng):
        ds = tiny_dataset(rng, n_seqs=14)
        r1 = report_json(run_experiment(tiny_config(trials=2), None, ds))
        r2 = report_json(run_experiment(tiny_config(trials=2), None, ds))
        assert r1 == r2
        json.loads(r1)  # well-formed

    def test_grid_result_recorded(self, rng):
        ds = tiny_dataset(rng, n_seqs=14)
        grid = GridSpec(state_dims=(4,), memory_sizes=(2,))
        doc = run_experiment(tiny_config(), grid, ds)
        assert len(doc["grid"]) == 1
        assert doc["config"]["state_dim"] == 4


class TestExports:
    def trained(self, rng):
        ds = tiny_dataset(rng)
        cfg = tiny_config(epochs=1)
        params, _ = train(cfg, ds)
        return params, ds

    def test_difficulties_cover_questions_in_range(self, rng):
        params, ds = self.trained(rng)
        diff = deep_irt_difficulties(params)
        assert sorted(diff) == [1, 2, 3, 4]
        assert all(-1 < v < 1 for v in diff.values())

    def test_difficulties_equal_forward_beta_at_each_scored_cell(self, rng):
        params, ds = self.trained(rng)
        batch = pad_and_mask(ds.sequences, 8, ds.num_kcs)
        out = models.forward(params, batch)
        diff = deep_irt_difficulties(params)
        scored = batch.mask == 1
        # one helper computes both; the table's row count may only move rounding
        np.testing.assert_allclose(out.beta,
                                   [diff[q] for q in batch.q_ids[scored]],
                                   rtol=0, atol=1e-15)

    def test_difficulty_requires_deep_irt(self, rng):
        cfg = tiny_config(model="dkvmn", epochs=0)
        params, _ = train(cfg, tiny_dataset(rng))
        with pytest.raises(ValidationError):
            deep_irt_difficulties(params)

    def test_export_rows_and_pairwise_pearson(self, rng):
        params, _ = self.trained(rng)
        own = deep_irt_difficulties(params)
        joins = {"item_analysis": {q: 0.5 * v + 0.1 for q, v in own.items()}}
        rows, pairs = export_difficulty(params, joins)
        assert len(rows) == 8
        assert {name for _, name, _ in rows} == {"deep_irt_beta", "item_analysis"}
        # the join is an affine image of the learned betas
        assert pairs[("deep_irt_beta", "item_analysis")] == pytest.approx(1.0, abs=1e-9)

    def test_trajectory_matches_forward(self, rng):
        params, ds = self.trained(rng)
        seq = ds.sequences[0]
        rows = export_trajectory(params, seq)
        assert len(rows) == len(seq.steps)
        assert [r["t"] for r in rows] == list(range(1, len(seq.steps) + 1))
        from deepkt.datasets import pad_and_mask
        batch = pad_and_mask([seq], len(seq.steps), ds.num_kcs)
        out = models.forward_sequence(params, batch)
        for t, r in enumerate(rows):
            assert r["p"] == pytest.approx(out.prob_tensor.data[t, 0], abs=1e-12)
            assert r["theta"] == pytest.approx(out.theta[t], abs=1e-12)
            assert (r["q"], r["a"]) == seq.steps[t]

    def test_trajectory_requires_deep_irt(self, rng):
        cfg = tiny_config(model="dkt", epochs=0)
        params, _ = train(cfg, tiny_dataset(rng))
        with pytest.raises(ValidationError):
            export_trajectory(params, tiny_dataset(rng).sequences[0])


class TestSyntheticEndToEnd:
    def test_short_training_beats_chance(self):
        cfg = SyntheticConfig(num_students=60, num_questions=12, num_concepts=3,
                              seed=4)
        ds, _ = generate_synthetic(cfg)
        doc = run_experiment(tiny_config(model="deep_irt", epochs=4, seq_len=12,
                                         trials=1), None, ds)
        assert doc["mean"]["auc"] > 0.5
