import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

import oracle
from conftest import check_gradients, peak_bytes
from deepkt import autodiff as ad
from deepkt import harness, models
from deepkt.autodiff import Tensor
from deepkt.datasets import (InteractionSequence, PaddedBatch, ValidationError,
                             pad_and_mask)
from deepkt.models import (DktArch, MemoryArch, forward, forward_dkt,
                           forward_sequence, init_params, load_checkpoint,
                           make_arch, param_shapes, prediction_set,
                           save_checkpoint, sequence_loss)
from oracle import attention, predict_deep_irt, predict_dkvmn, read, write


def make_batch(list_of_steps, seq_len, num_kcs):
    seqs = [InteractionSequence(str(i), list(steps))
            for i, steps in enumerate(list_of_steps)]
    return pad_and_mask(seqs, seq_len, num_kcs)


def random_steps(rng, n, num_kcs):
    return list(zip(rng.integers(1, num_kcs + 1, n).tolist(),
                    rng.integers(0, 2, n).tolist()))


SMALL = MemoryArch(num_kcs=4, mem_slots=3, state_dim=3, feature_dim=3)
SMALL_IRT = MemoryArch(num_kcs=4, mem_slots=3, state_dim=3, feature_dim=3,
                       deep_irt=True)


class TestAttention:
    def test_single_slot_is_one(self, rng):
        mk = Tensor(rng.normal(size=(1, 4)))
        k = Tensor(rng.normal(size=(3, 4)))
        np.testing.assert_allclose(attention(mk, k).data, np.ones((3, 1)))

    def test_identical_keys_uniform(self, rng):
        mk = Tensor(np.tile(rng.normal(size=(1, 4)), (5, 1)))
        k = Tensor(rng.normal(size=(2, 4)))
        np.testing.assert_allclose(attention(mk, k).data, np.full((2, 5), 0.2),
                                   atol=1e-12)

    def test_matches_direct_softmax(self, rng):
        mk = Tensor(rng.normal(size=(6, 4)))
        k = Tensor(rng.normal(size=(3, 4)))
        logits = k.data @ mk.data.T
        expect = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(attention(mk, k).data, expect, atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        w = attention(Tensor(rng.normal(size=(8, 5))),
                      Tensor(rng.normal(size=(4, 5))))
        np.testing.assert_allclose(w.data.sum(axis=1), np.ones(4), atol=1e-12)


class TestRead:
    def test_one_hot_selects_slot(self, rng):
        B, N, d = 2, 4, 3
        mem = Tensor(rng.normal(size=(B * N, d)))
        w = np.zeros((B, N))
        w[0, 2] = 1.0
        w[1, 0] = 1.0
        r = read(mem, Tensor(w))
        np.testing.assert_allclose(r.data[0], mem.data[2], atol=1e-12)
        np.testing.assert_allclose(r.data[1], mem.data[4 + 0], atol=1e-12)

    def test_uniform_weights_average(self, rng):
        B, N, d = 1, 5, 4
        mem = Tensor(rng.normal(size=(B * N, d)))
        r = read(mem, Tensor(np.full((B, N), 1.0 / N)))
        np.testing.assert_allclose(r.data[0], mem.data.mean(axis=0), atol=1e-12)


class TestPredictHeads:
    def zeroed(self, arch):
        params = init_params(arch, seed=0)
        for _, t in params.named_parameters():
            t.data[:] = 0.0
        return params

    def test_dkvmn_zero_params_half(self, rng):
        params = self.zeroed(SMALL)
        r = Tensor(rng.normal(size=(4, 3)))
        k = Tensor(rng.normal(size=(4, 3)))
        np.testing.assert_allclose(predict_dkvmn(r, k, params).data,
                                   np.full((4, 1), 0.5), atol=1e-12)

    def test_deep_irt_zero_params_half(self, rng):
        params = self.zeroed(SMALL_IRT)
        r = Tensor(rng.normal(size=(2, 3)))
        k = Tensor(rng.normal(size=(2, 3)))
        p, theta, beta = predict_deep_irt(r, k, params)
        np.testing.assert_allclose(theta.data, 0.0, atol=1e-12)
        np.testing.assert_allclose(beta.data, 0.0, atol=1e-12)
        np.testing.assert_allclose(p.data, 0.5, atol=1e-12)

    def test_deep_irt_link_value(self, rng):
        # theta saturated to 1, beta to -1: p = sigmoid(3 * 1 + 1)
        params = self.zeroed(SMALL_IRT)
        params.b_theta.data[:] = 30.0
        params.b_beta.data[:] = -30.0
        r = Tensor(rng.normal(size=(1, 3)))
        k = Tensor(rng.normal(size=(1, 3)))
        p, theta, beta = predict_deep_irt(r, k, params)
        assert theta.data[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert beta.data[0, 0] == pytest.approx(-1.0, abs=1e-12)
        assert p.data[0, 0] == pytest.approx(1.0 / (1.0 + math.exp(-4.0)), abs=1e-12)
        assert p.data[0, 0] == pytest.approx(0.98201, abs=1e-5)

    def test_deep_irt_ranges(self, rng):
        params = init_params(SMALL_IRT, std=0.8, seed=1)
        r = Tensor(rng.normal(size=(10, 3)))
        k = Tensor(rng.normal(size=(10, 3)))
        p, theta, beta = predict_deep_irt(r, k, params)
        assert np.all(np.abs(theta.data) < 1) and np.all(np.abs(beta.data) < 1)
        assert np.all((p.data > 0) & (p.data < 1))


class TestWrite:
    def test_zero_weights_identity(self, rng):
        params = init_params(SMALL, seed=0)
        mem = Tensor(rng.normal(size=(2 * 3, 3)))
        w = Tensor(np.zeros((2, 3)))
        v = Tensor(rng.normal(size=(2, 3)))
        out = write(mem, w, v, params)
        np.testing.assert_allclose(out.data, mem.data, atol=1e-12)

    def test_full_erase_overwrites_with_add(self, rng):
        # single slot, weight 1, erase gate saturated at 1: slot becomes a_t
        arch = MemoryArch(num_kcs=4, mem_slots=1, state_dim=3, feature_dim=3)
        params = init_params(arch, seed=0)
        params.b_e.data[:] = 60.0
        params.W_e.data[:] = 0.0
        mem = Tensor(rng.normal(size=(1, 3)))
        v = Tensor(rng.normal(size=(1, 3)))
        out = write(mem, Tensor(np.ones((1, 1))), v, params)
        a = np.tanh(v.data @ params.W_a.data + params.b_a.data)
        np.testing.assert_allclose(out.data, a, atol=1e-12)

    def test_interpolates_between_old_and_new(self, rng):
        params = init_params(SMALL, seed=2)
        mem_data = rng.normal(size=(3, 3))
        v = Tensor(rng.normal(size=(1, 3)))
        w = Tensor(np.array([[0.2, 0.5, 0.3]]))
        out = write(Tensor(mem_data.copy()), w, v, params)
        e = 1.0 / (1.0 + np.exp(-(v.data @ params.W_e.data + params.b_e.data)))
        a = np.tanh(v.data @ params.W_a.data + params.b_a.data)
        expect = mem_data * (1 - w.data.T @ e) + w.data.T @ a
        np.testing.assert_allclose(out.data, expect, atol=1e-12)


class TestForwardSequence:
    @pytest.mark.parametrize("arch", [SMALL, SMALL_IRT])
    def test_shapes_and_ranges(self, rng, arch):
        params = init_params(arch, seed=0)
        batch = make_batch([random_steps(rng, 6, 4), random_steps(rng, 3, 4)], 6, 4)
        out = forward_sequence(params, batch)
        assert out.p.shape == (2, 6)
        assert np.all((out.p > 0) & (out.p < 1))
        np.testing.assert_allclose(out.attention.sum(axis=1), np.ones(9),
                                   atol=1e-9)
        if arch.deep_irt:
            assert np.all(np.abs(out.theta) < 1)
            assert np.all(np.abs(out.beta) < 1)

    def test_duplicated_sequence_identical_rows(self, rng):
        params = init_params(SMALL_IRT, seed=3)
        steps = random_steps(rng, 5, 4)
        out = forward_sequence(params, make_batch([steps, steps], 5, 4))
        np.testing.assert_array_equal(out.p[0], out.p[1])
        np.testing.assert_array_equal(out.theta[:5], out.theta[5:])

    def test_batch_composition_irrelevant(self, rng):
        params = init_params(SMALL, seed=4)
        a = random_steps(rng, 5, 4)
        b = random_steps(rng, 5, 4)
        together = forward_sequence(params, make_batch([a, b], 5, 4))
        alone = forward_sequence(params, make_batch([a], 5, 4))
        np.testing.assert_allclose(together.p[0], alone.p[0], atol=1e-12)

    def test_permuting_batch_permutes_outputs(self, rng):
        params = init_params(SMALL, seed=5)
        seqs = [random_steps(rng, 4, 4) for _ in range(3)]
        fwd = forward_sequence(params, make_batch(seqs, 4, 4))
        rev = forward_sequence(params, make_batch(seqs[::-1], 4, 4))
        np.testing.assert_allclose(fwd.p, rev.p[::-1], atol=1e-12)

    def test_causality_final_answer_never_seen(self, rng):
        # prediction precedes the write, so flipping the last answer changes nothing
        params = init_params(SMALL_IRT, seed=6)
        steps = random_steps(rng, 6, 4)
        flipped = steps[:-1] + [(steps[-1][0], 1 - steps[-1][1])]
        p1 = forward_sequence(params, make_batch([steps], 6, 4)).p
        p2 = forward_sequence(params, make_batch([flipped], 6, 4)).p
        np.testing.assert_array_equal(p1, p2)

    def test_causality_middle_answer(self, rng):
        params = init_params(SMALL, seed=7)
        steps = random_steps(rng, 8, 4)
        flipped = list(steps)
        flipped[3] = (steps[3][0], 1 - steps[3][1])
        p1 = forward_sequence(params, make_batch([steps], 8, 4)).p
        p2 = forward_sequence(params, make_batch([flipped], 8, 4)).p
        np.testing.assert_array_equal(p1[0, :4], p2[0, :4])
        assert not np.array_equal(p1[0, 4:], p2[0, 4:])

    def test_question_id_out_of_range(self, rng):
        params = init_params(SMALL, seed=0)
        with pytest.raises(ad.IndexOutOfRangeError):
            forward_sequence(params, make_batch([[(5, 1)]], 1, 5))

    def test_padding_steps_leave_memory_alone(self, rng):
        # a padded batch and a truncated batch agree on the real prefix
        params = init_params(SMALL_IRT, seed=8)
        steps = random_steps(rng, 3, 4)
        padded = forward_sequence(params, make_batch([steps], 7, 4))
        exact = forward_sequence(params, make_batch([steps], 3, 4))
        np.testing.assert_allclose(padded.p[0, :3], exact.p[0], atol=1e-12)
        np.testing.assert_array_equal(padded.pred_mask[0], [1, 1, 1, 0, 0, 0, 0])


class TestForwardDkt:
    def test_zero_params_all_half(self, rng):
        params = init_params(DktArch(num_kcs=4, hidden=3), seed=0)
        for _, t in params.named_parameters():
            t.data[:] = 0.0
        out = forward_dkt(params, make_batch([random_steps(rng, 5, 4)], 5, 4))
        np.testing.assert_allclose(out.p, np.full((1, 5), 0.5), atol=1e-12)

    def test_first_step_not_scored(self, rng):
        params = init_params(DktArch(num_kcs=4, hidden=3), seed=1)
        out = forward_dkt(params, make_batch([random_steps(rng, 4, 4)], 4, 4))
        np.testing.assert_array_equal(out.pred_mask[0], [0, 1, 1, 1])
        assert out.p[0, 0] == 0.5

    def test_nothing_scored_gives_zero_loss_and_gradients(self):
        # single-step rows have no cell to score
        params = init_params(DktArch(num_kcs=4, hidden=3), seed=1)
        batch = make_batch([[(1, 1)], [(3, 0)]], 1, 4)
        out = forward_dkt(params, batch)
        loss = sequence_loss(out)
        ad.backward(loss)
        assert loss.item() == 0.0 and prediction_set(out)[0].size == 0
        for name, t in params.named_parameters():
            np.testing.assert_array_equal(t.grad, 0.0, err_msg=name)

    def test_hand_computed_single_step(self):
        # 1 KC, hidden size 1: every gate value can be traced by hand
        params = init_params(DktArch(num_kcs=1, hidden=1), seed=0)
        params.W_x.data[:] = [[0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8]]
        params.W_h.data[:] = 0.0
        params.b_g.data[:] = 0.0
        params.W_y.data[:] = 2.0
        params.b_y.data[:] = -0.25
        out = forward_dkt(params, make_batch([[(1, 1), (1, 0)]], 2, 1))
        # qa_1 = 1 + 1*1 = 2 -> row [0.5, 0.6, 0.7, 0.8]
        sig = lambda x: 1.0 / (1.0 + math.exp(-x))
        i_g, f_g, g_g, o_g = sig(0.5), sig(0.6), math.tanh(0.7), sig(0.8)
        h = o_g * math.tanh(i_g * g_g)
        expect = sig(2.0 * h - 0.25)
        assert out.p[0, 1] == pytest.approx(expect, abs=1e-12)

    def test_causality_flip_final_answer(self, rng):
        params = init_params(DktArch(num_kcs=4, hidden=3), seed=2)
        steps = random_steps(rng, 6, 4)
        flipped = steps[:-1] + [(steps[-1][0], 1 - steps[-1][1])]
        p1 = forward_dkt(params, make_batch([steps], 6, 4)).p
        p2 = forward_dkt(params, make_batch([flipped], 6, 4)).p
        np.testing.assert_array_equal(p1, p2)

    def test_batch_composition_irrelevant(self, rng):
        params = init_params(DktArch(num_kcs=4, hidden=3), seed=3)
        a = random_steps(rng, 5, 4)
        b = random_steps(rng, 2, 4)
        together = forward_dkt(params, make_batch([a, b], 5, 4))
        alone = forward_dkt(params, make_batch([a], 5, 4))
        np.testing.assert_allclose(together.p[0], alone.p[0], atol=1e-12)

    def test_dispatcher(self, rng):
        batch = make_batch([random_steps(rng, 3, 4)], 3, 4)
        mem = init_params(SMALL, seed=0)
        dkt = init_params(DktArch(num_kcs=4, hidden=3), seed=0)
        np.testing.assert_array_equal(forward(mem, batch).p,
                                      forward_sequence(mem, batch).p)
        np.testing.assert_array_equal(forward(dkt, batch).p,
                                      forward_dkt(dkt, batch).p)
        with pytest.raises(TypeError):
            forward(object(), batch)


class TestLoss:
    def test_half_probability_gives_log2(self, rng):
        params = init_params(DktArch(num_kcs=4, hidden=3), seed=0)
        for _, t in params.named_parameters():
            t.data[:] = 0.0
        batch = make_batch([random_steps(rng, 5, 4)], 5, 4)
        out = forward_dkt(params, batch)
        loss = sequence_loss(out)
        assert loss.item() == pytest.approx(4 * math.log(2), abs=1e-12)
        n = int(out.pred_mask.sum())
        assert loss.item() / n == pytest.approx(math.log(2), abs=1e-12)

    def test_prediction_set_flattening(self, rng):
        params = init_params(SMALL, seed=1)
        batch = make_batch([random_steps(rng, 5, 4), random_steps(rng, 2, 4)], 5, 4)
        out = forward_sequence(params, batch)
        scores, labels = prediction_set(out)
        assert scores.shape == (7,) and labels.shape == (7,)
        np.testing.assert_array_equal(labels[:5], batch.answers[0])
        np.testing.assert_array_equal(scores[5:], out.p[1, :2])

    def test_pad_positions_excluded_from_loss(self, rng):
        params = init_params(SMALL, seed=2)
        steps = random_steps(rng, 3, 4)
        b_pad = make_batch([steps], 6, 4)
        b_exact = make_batch([steps], 3, 4)
        l_pad = sequence_loss(forward_sequence(params, b_pad))
        l_exact = sequence_loss(forward_sequence(params, b_exact))
        assert l_pad.item() == pytest.approx(l_exact.item(), abs=1e-12)


class TestInit:
    def test_statistics(self):
        arch = MemoryArch(num_kcs=100, mem_slots=20, state_dim=50, feature_dim=50)
        params = init_params(arch, std=0.05, seed=0)
        flat = params.B.data.ravel()
        assert abs(flat.mean()) < 0.005
        assert flat.std() == pytest.approx(0.05, abs=0.005)

    def test_same_seed_identical(self):
        p1 = init_params(SMALL_IRT, seed=11)
        p2 = init_params(SMALL_IRT, seed=11)
        for (n1, t1), (n2, t2) in zip(p1.named_parameters(), p2.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(t1.data, t2.data)

    def test_different_seeds_differ(self):
        p1 = init_params(SMALL, seed=0)
        p2 = init_params(SMALL, seed=1)
        assert not np.array_equal(p1.A.data, p2.A.data)

    def test_head_parameters_by_variant(self):
        names = dict(init_params(SMALL, seed=0).named_parameters())
        irt_names = dict(init_params(SMALL_IRT, seed=0).named_parameters())
        assert "W_p" in names and "W_theta" not in names
        assert "W_theta" in irt_names and "W_beta" in irt_names and "W_p" not in irt_names

    def test_init_params_dispatch(self):
        assert isinstance(init_params(SMALL, seed=0), models.DkvmnParams)
        assert isinstance(init_params(DktArch(num_kcs=3), seed=0), models.DktParams)
        with pytest.raises(TypeError):
            init_params("nope")

    def test_invalid_std(self):
        from deepkt.datasets import ValidationError
        with pytest.raises(ValidationError):
            init_params(SMALL, std=0.0)


class TestCheckpoints:
    @pytest.mark.parametrize("make", [
        lambda: init_params(SMALL, seed=5),
        lambda: init_params(SMALL_IRT, seed=5),
        lambda: init_params(DktArch(num_kcs=4, hidden=3), seed=5),
    ])
    def test_round_trip_bit_exact(self, tmp_path, make):
        params = make()
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        back = load_checkpoint(path)
        assert back.arch == params.arch
        for (n1, t1), (n2, t2) in zip(params.named_parameters(),
                                      back.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(t1.data, t2.data)

    def test_round_trip_same_forward(self, tmp_path, rng):
        params = init_params(SMALL_IRT, seed=6)
        batch = make_batch([random_steps(rng, 5, 4)], 5, 4)
        before = forward_sequence(params, batch).p
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        after = forward_sequence(load_checkpoint(path), batch).p
        np.testing.assert_array_equal(before, after)

    # "arch" specs exactly as checkpoints have always stored them
    @pytest.mark.parametrize("spec,arch", [
        ({"kind": "dkvmn", "num_kcs": 3, "mem_slots": 2, "state_dim": 4,
          "feature_dim": 5},
         MemoryArch(num_kcs=3, mem_slots=2, state_dim=4, feature_dim=5)),
        ({"kind": "deep_irt", "num_kcs": 3, "mem_slots": 2, "state_dim": 4,
          "feature_dim": 5},
         MemoryArch(num_kcs=3, mem_slots=2, state_dim=4, feature_dim=5,
                    deep_irt=True)),
        ({"kind": "dkt", "num_kcs": 3, "hidden": 2},
         DktArch(num_kcs=3, hidden=2)),
    ], ids=["dkvmn", "deep_irt", "dkt"])
    def test_stored_format_loads_and_saves_unchanged(self, tmp_path, spec, arch):
        rng = np.random.default_rng(0)
        arrays = {name: rng.normal(size=shape).tolist()
                  for name, shape in param_shapes(arch).items()}
        text = json.dumps({"arch": spec, "seed": 7, "arrays": arrays},
                          sort_keys=True)
        path = tmp_path / "stored.json"
        path.write_text(text, encoding="utf-8")
        params = load_checkpoint(path)
        assert params.arch == arch
        assert params.arch.kind == spec["kind"]
        save_checkpoint(params, tmp_path / "saved.json", seed=7)
        assert (tmp_path / "saved.json").read_text(encoding="utf-8") == text

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"arch": {"kind": "lstm", "num_kcs": 3,
                                             "hidden": 2},
                                    "seed": 0, "arrays": {}}))
        with pytest.raises(ValidationError, match="'lstm'"):
            load_checkpoint(path)


class TestMakeArch:
    @pytest.mark.parametrize("kind", models.KINDS)
    def test_sizes_from_train_config(self, kind):
        cfg = harness.TrainConfig(model=kind, hidden=7, mem_slots=3,
                                  state_dim=5, feature_dim=6)
        arch = make_arch(kind, 4, asdict(cfg))
        assert arch.kind == kind
        assert arch == (DktArch(4, hidden=7) if kind == "dkt" else
                        MemoryArch(4, mem_slots=3, state_dim=5, feature_dim=6,
                                   deep_irt=(kind == "deep_irt")))

    @pytest.mark.parametrize("kind", harness.BASELINE_MODELS)
    def test_baseline_name_rejected(self, kind):
        with pytest.raises(ValidationError, match="not a deep model kind"):
            make_arch(kind, 4, asdict(harness.TrainConfig()))


class TestModelGradients:
    """Light finite-difference checks on the full forwards; the acceptance
    suite runs the heavier 30-parameter version."""

    def loss_fn_for(self, params, batch):
        def loss_fn(return_tensor=False):
            out = forward(params, batch)
            loss = sequence_loss(out)
            return loss if return_tensor else loss.item()
        return loss_fn

    @pytest.mark.parametrize("arch", [SMALL, SMALL_IRT])
    def test_memory_model(self, rng, arch):
        params = init_params(arch, std=0.3, seed=0)
        batch = make_batch([random_steps(rng, 4, 4), random_steps(rng, 2, 4)], 4, 4)
        check_gradients(self.loss_fn_for(params, batch), params.parameters(),
                        rng, n_samples=12)

    def test_dkt(self, rng):
        params = init_params(DktArch(num_kcs=4, hidden=3), std=0.3, seed=0)
        batch = make_batch([random_steps(rng, 4, 4), random_steps(rng, 3, 4)], 4, 4)
        check_gradients(self.loss_fn_for(params, batch), params.parameters(),
                        rng, n_samples=12)

    def test_dkt_input_bias_reaches_every_gate(self, rng):
        # b_g enters through the gathered rows of W_x + b_g; probe all 4h
        # entries, so each gate's column block is checked
        params = init_params(DktArch(num_kcs=4, hidden=3), std=0.3, seed=0)
        batch = make_batch([random_steps(rng, 4, 4), random_steps(rng, 3, 4)], 4, 4)
        check_gradients(self.loss_fn_for(params, batch), [params.b_g], rng,
                        n_samples=params.b_g.cols)

    def test_pad_content_cannot_leak_into_gradients(self, rng):
        # scribbling garbage over the padded positions must leave the loss and
        # every gradient bit-identical
        params = init_params(SMALL_IRT, std=0.3, seed=1)
        batch = make_batch([random_steps(rng, 2, 4)], 6, 4)
        out = forward_sequence(params, batch)
        loss = sequence_loss(out)
        ad.backward(loss)
        grads = {n: t.grad.copy() for n, t in params.named_parameters()}
        for _, t in params.named_parameters():
            t.zero_grad()
        pad = batch.mask == 0
        batch.q_ids[pad] = 3
        batch.answers[pad] = 1
        out2 = forward_sequence(params, batch)
        loss2 = sequence_loss(out2)
        ad.backward(loss2)
        assert loss2.item() == loss.item()
        for n, t in params.named_parameters():
            np.testing.assert_array_equal(grads[n], t.grad,
                                          err_msg=f"parameter {n}")

    @pytest.mark.parametrize("model", ["dkvmn", "dkt"])
    def test_pad_content_cannot_leak_into_the_other_heads(self, rng, model):
        # the same for the DKVMN head and DKT's column readout
        arch = SMALL if model == "dkvmn" else DktArch(num_kcs=4, hidden=3)
        params = init_params(arch, std=0.3, seed=1)
        batch = make_batch([random_steps(rng, 2, 4), random_steps(rng, 5, 4)], 6, 4)
        runs = []
        for scribble in (False, True):
            if scribble:
                pad = batch.mask == 0
                batch.q_ids[pad] = 3
                batch.answers[pad] = 1
            for t in params.parameters():
                t.zero_grad()
            loss = sequence_loss(forward(params, batch))
            ad.backward(loss)
            runs.append((loss.item(), {n: t.grad.copy()
                                       for n, t in params.named_parameters()}))
        (loss, grads), (loss2, grads2) = runs
        assert loss2 == loss
        for name, g in grads.items():
            np.testing.assert_array_equal(grads2[name], g, err_msg=f"parameter {name}")


class TestFusedMatchesOracle:
    """The fused forwards against the per-step graphs of ``oracle`` on ragged
    batches: every scored output, the loss and every gradient."""

    ARCHS = {
        "dkvmn": MemoryArch(num_kcs=6, mem_slots=4, state_dim=5, feature_dim=3),
        "deep_irt": MemoryArch(num_kcs=6, mem_slots=4, state_dim=5,
                               feature_dim=3, deep_irt=True),
        "dkt": DktArch(num_kcs=6, hidden=5),
    }

    def run(self, params, batch, fused):
        for t in params.parameters():
            t.zero_grad()
        if fused:
            out = forward(params, batch)
            loss = sequence_loss(out)
        else:
            out = oracle.forward(params, batch)
            loss = oracle.sequence_loss(out)
        ad.backward(loss)
        grads = {n: t.grad.copy() for n, t in params.named_parameters()}
        return out, loss.item(), grads

    @pytest.mark.parametrize("model", ["dkvmn", "deep_irt", "dkt"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_outputs_loss_and_gradients_agree(self, model, seed):
        rng = np.random.default_rng(seed)
        params = init_params(self.ARCHS[model], std=0.4, seed=seed)
        lengths = rng.integers(1, 12, size=5).tolist()
        batch = make_batch([random_steps(rng, n, 6) for n in lengths], 7, 6)
        fused, loss_f, grads_f = self.run(params, batch, fused=True)
        slow, loss_o, grads_o = self.run(params, batch, fused=False)
        np.testing.assert_array_equal(fused.pred_mask, slow.pred_mask)
        scored = fused.pred_mask == 1
        assert loss_f == pytest.approx(loss_o, abs=1e-12)
        np.testing.assert_allclose(fused.p[scored], slow.p[scored], atol=1e-12)
        if model != "dkt":
            np.testing.assert_allclose(fused.attention,
                                       slow.attention[scored], atol=1e-12)
        if model == "deep_irt":
            np.testing.assert_allclose(fused.theta, slow.theta[scored],
                                       atol=1e-12)
            np.testing.assert_allclose(fused.beta, slow.beta[scored],
                                       atol=1e-12)
        for name in grads_o:
            np.testing.assert_allclose(grads_f[name], grads_o[name], atol=1e-12,
                                       err_msg=f"parameter {name}")

    @pytest.mark.parametrize("model", ["deep_irt", "dkt"])
    def test_padded_cells_hold_neutral_values(self, rng, model):
        params = init_params(self.ARCHS[model], std=0.4, seed=0)
        batch = make_batch([random_steps(rng, 2, 6), random_steps(rng, 6, 6)], 6, 6)
        out = forward(params, batch)
        off = out.pred_mask == 0
        assert off.sum() == (6 if model == "dkt" else 4)
        np.testing.assert_array_equal(out.p[off], 0.5)


class TestPerCellOutputs:
    """Outputs hold one row per scored cell, in the order of
    ``np.nonzero(pred_mask)``; ``p`` is the one B x L view."""

    @pytest.mark.parametrize("model", ["dkvmn", "deep_irt", "dkt"])
    def test_fields_follow_the_scored_cells(self, rng, model):
        params = init_params(TestFusedMatchesOracle.ARCHS[model], std=0.4, seed=3)
        batch = make_batch([random_steps(rng, n, 6) for n in (7, 1, 4)], 7, 6)
        # an all-padding row scores nothing in any model
        batch = PaddedBatch(*(np.insert(g, 2, 0, axis=0) for g in (
            batch.q_ids, batch.answers, batch.mask)))
        out = forward(params, batch)
        expect_mask = batch.mask.copy()
        if model == "dkt":
            expect_mask[:, 0] = 0   # the first step has no history to score
        np.testing.assert_array_equal(out.pred_mask, expect_mask)
        scored = out.pred_mask == 1
        n = int(scored.sum())
        assert out.prob_tensor.data.shape == (n, 1)
        np.testing.assert_array_equal(out.p[scored], out.prob_tensor.data[:, 0])
        np.testing.assert_array_equal(out.p[~scored], 0.5)
        np.testing.assert_array_equal(out.labels, batch.answers[scored])
        assert (out.theta is None) == (out.beta is None) == (model != "deep_irt")
        if model == "deep_irt":
            assert out.theta.shape == out.beta.shape == (n,)
        if model == "dkt":
            assert out.attention is None
        else:
            assert out.attention.shape == (n, params.arch.mem_slots)


class TestItemBankInvariance:
    """Questions no cell of a batch uses change nothing: the batch run
    against a bank padded with unused questions gives bit-identical outputs,
    the same gradients on the used rows and zero gradients on the others."""

    Q, EXTRA = 6, 37

    def place(self, name):
        """Where a Q-question array sits inside its padded counterpart: the
        new questions follow the old ones in each answer block."""
        Q, E = self.Q, self.EXTRA
        old = np.arange(Q)
        both_answers = np.r_[old, old + Q + E]   # interaction ids q + a * Q
        rows = {"A": old, "B": both_answers, "W_x": both_answers}
        if name in rows:
            return rows[name], slice(None)
        if name in ("W_y", "b_y"):
            return slice(None), old
        return slice(None), slice(None)

    def run(self, params, steps, num_kcs):
        for t in params.parameters():
            t.zero_grad()
        batch = make_batch(steps, 7, num_kcs)
        out = forward(params, batch)
        loss = sequence_loss(out)
        ad.backward(loss)
        return out, loss.item(), dict(params.named_parameters())

    @pytest.mark.parametrize("model", ["dkvmn", "deep_irt", "dkt"])
    def test_unused_questions_change_nothing(self, rng, model):
        small = init_params(TestFusedMatchesOracle.ARCHS[model], std=0.4, seed=1)
        big = init_params(replace(small.arch, num_kcs=self.Q + self.EXTRA),
                          std=0.4, seed=2)
        for name, t in small.named_parameters():
            getattr(big, name).data[self.place(name)] = t.data
        steps = [random_steps(rng, n, self.Q) for n in (7, 3, 5, 1)]
        out_s, loss_s, grads_s = self.run(small, steps, self.Q)
        out_b, loss_b, grads_b = self.run(big, steps, self.Q + self.EXTRA)
        assert loss_b == loss_s
        for name in ("p", "labels", "theta", "beta", "attention"):
            np.testing.assert_array_equal(getattr(out_b, name),
                                          getattr(out_s, name), err_msg=name)
        for name, t in grads_s.items():
            g = grads_b[name].grad
            np.testing.assert_array_equal(g[self.place(name)], t.grad, err_msg=name)
            unused = np.ones(g.shape, dtype=bool)
            unused[self.place(name)] = False
            np.testing.assert_array_equal(g[unused], 0.0, err_msg=name)


class TestGraphRelease:
    """backward drops each node's closure, parents and gradient as it runs
    it, so no graph (nor a scan's saved states) outlives its sweep; leaves
    and the loss keep their gradients."""

    def loss_and_ops(self, rng, model):
        """A model's loss on a small batch, its parameters, and every op
        node of its graph."""
        params = init_params(TestFusedMatchesOracle.ARCHS[model], std=0.4, seed=0)
        batch = make_batch([random_steps(rng, n, 6) for n in (5, 3, 7)], 7, 6)
        loss = sequence_loss(forward(params, batch))
        nodes, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node._parents)
        return loss, params, [n for n in nodes.values() if n._backward is not None]

    @pytest.mark.parametrize("model", ["dkvmn", "deep_irt", "dkt"])
    def test_no_node_keeps_its_closure(self, rng, model):
        loss, params, ops = self.loss_and_ops(rng, model)
        scan = "lstm_scan" if model == "dkt" else "memory_scan"
        assert scan in {n.op for n in ops}
        ad.backward(loss)
        for node in ops:
            assert node._backward is None and node._parents is None, node.op
        for p in params.parameters():
            assert p.grad is not None and p._parents == () and p._backward is None
        with pytest.raises(ad.GraphError, match="already ran"):
            ad.backward(loss)

    @pytest.mark.parametrize("model", ["dkvmn", "deep_irt", "dkt"])
    def test_only_leaves_and_the_loss_keep_a_gradient(self, rng, model):
        loss, params, ops = self.loss_and_ops(rng, model)
        ad.backward(loss)
        assert loss.grad is not None
        for node in ops:
            assert node is loss or node.grad is None, node.op
        assert all(p.grad is not None for p in params.parameters())


class TestNoGradForward:
    """Inference without a graph gives the training forward's outputs, bit
    for bit, and keeps no graph."""

    @pytest.mark.parametrize("model", ["dkvmn", "deep_irt", "dkt"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_grad_forward_exactly(self, model, seed):
        rng = np.random.default_rng(seed)
        params = init_params(TestFusedMatchesOracle.ARCHS[model], std=0.4,
                             seed=seed)
        lengths = rng.integers(1, 12, size=5).tolist()
        batch = make_batch([random_steps(rng, n, 6) for n in lengths], 7, 6)
        with_grad = forward(params, batch)
        without = forward(params.frozen(), batch)
        assert with_grad.prob_tensor.requires_grad
        prob = without.prob_tensor
        assert not prob.requires_grad
        assert prob._parents == () and prob._backward is None
        np.testing.assert_array_equal(without.prob_tensor.data,
                                      with_grad.prob_tensor.data)
        for name in ("p", "labels", "theta", "beta", "attention", "pred_mask"):
            np.testing.assert_array_equal(getattr(without, name),
                                          getattr(with_grad, name),
                                          err_msg=name)


class TestFrozenParams:
    """``frozen()`` gives inference its inputs: the same parameters as
    constants over the same arrays, so a forward on them builds no graph
    and training's parameters are left as they were."""

    KINDS = ["dkvmn", "deep_irt", "dkt"]

    def params(self, model):
        return init_params(TestFusedMatchesOracle.ARCHS[model], std=0.4, seed=0)

    @pytest.mark.parametrize("model", KINDS)
    def test_keeps_class_and_arch(self, model):
        params = self.params(model)
        frozen = params.frozen()
        assert type(frozen) is type(params)
        assert frozen.arch == params.arch
        assert [n for n, _ in frozen.named_parameters()] == \
            [n for n, _ in params.named_parameters()]

    @pytest.mark.parametrize("model", KINDS)
    def test_shares_every_array(self, model):
        params = self.params(model)
        for (name, p), f in zip(params.named_parameters(), params.frozen().parameters()):
            assert f is not p and np.shares_memory(f.data, p.data), name
        # so a later training step is what the next frozen copy reads
        params.parameters()[0].data += 1.0
        np.testing.assert_array_equal(params.frozen().parameters()[0].data,
                                      params.parameters()[0].data)

    @pytest.mark.parametrize("model", KINDS)
    def test_leaves_params_requiring_grad(self, model):
        params = self.params(model)
        frozen = params.frozen()
        assert all(p.requires_grad for p in params.parameters())
        assert not any(f.requires_grad for f in frozen.parameters())

    @pytest.mark.parametrize("model", KINDS)
    def test_forward_builds_no_parented_node(self, rng, monkeypatch, model):
        made = []
        node = ad._node

        def recording_node(*args):
            made.append(node(*args))
            return made[-1]

        monkeypatch.setattr(ad, "_node", recording_node)
        batch = make_batch([random_steps(rng, n, 6) for n in (5, 3, 7)], 7, 6)
        forward(self.params(model).frozen(), batch)
        assert made
        for out in made:
            assert not out.requires_grad, out.op
            assert out._parents == () and out._backward is None, out.op

    @pytest.mark.parametrize("model", KINDS)
    def test_training_graph_backpropagates_after_an_inference_forward(self, rng, model):
        batch = make_batch([random_steps(rng, n, 6) for n in (5, 3, 7)], 7, 6)
        expected = self.params(model)
        ad.backward(sequence_loss(forward(expected, batch)))
        params = self.params(model)
        loss = sequence_loss(forward(params, batch))
        forward(params.frozen(), batch)
        ad.backward(loss)
        for (name, p), q in zip(params.named_parameters(), expected.parameters()):
            np.testing.assert_array_equal(p.grad, q.grad, err_msg=name)


class TestFrozenForwardPeak:
    """One frozen forward at the evaluation shape (B = L = 200) holds few
    S-row arrays: the memory read and the features for the memory models,
    the hidden states for DKT.  The heads gather their cells' table rows in
    chunks, so they add no S-sized copy."""

    B, L, Q, WIDTH = 200, 200, 200, 50

    @pytest.mark.parametrize("model, arrays", [("deep_irt", 2.5), ("dkt", 1.5)])
    def test_peak_in_s_by_width_arrays(self, rng, model, arrays):
        arch = make_arch(model, self.Q, {"mem_slots": 20, "state_dim": self.WIDTH,
                                         "feature_dim": self.WIDTH,
                                         "hidden": self.WIDTH})
        frozen = init_params(arch, seed=0).frozen()
        batch = make_batch([random_steps(rng, self.L, self.Q) for _ in range(self.B)],
                           self.L, self.Q)
        outputs = []
        peak = peak_bytes(lambda: outputs.append(forward(frozen, batch)))
        array_bytes = len(outputs[0].labels) * self.WIDTH * 8
        assert peak <= arrays * array_bytes, peak / array_bytes
