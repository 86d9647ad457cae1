import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

import oracle
from deepkt import datasets
from deepkt.autodiff import IndexOutOfRangeError
from deepkt.datasets import (Dataset, InteractionSequence, SequenceParseError,
                             SyntheticConfig, ValidationError, encode_interaction,
                             generate_synthetic, kfold, load_sequences,
                             pad_and_mask, save_sequences, split_train_test)


def make_seq(student, pairs):
    return InteractionSequence(str(student), list(pairs))


class TestEncodeInteraction:
    @pytest.mark.parametrize("q,a,Q,expected", [
        (5, 0, 110, 5),
        (5, 1, 110, 115),
        (110, 1, 110, 220),
        (1, 0, 1, 1),
    ])
    def test_formula(self, q, a, Q, expected):
        assert encode_interaction(q, a, Q) == expected

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            encode_interaction(0, 0, 10)
        with pytest.raises(IndexError):
            encode_interaction(11, 0, 10)

    def test_injective_and_covers_range(self):
        Q = 23
        image = {encode_interaction(q, a, Q) for q in range(1, Q + 1) for a in (0, 1)}
        assert image == set(range(1, 2 * Q + 1))


class TestLoadSequences:
    def test_single_record(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("2\n3,7\n1,0\n")
        ds = load_sequences(path)
        assert len(ds.sequences) == 1
        assert ds.sequences[0].steps == ((3, 1), (7, 0))
        assert ds.num_kcs == 7

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        ds = load_sequences(path)
        assert ds.sequences == () and ds.num_kcs == 0

    def test_count_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n3\n1,0\n")
        with pytest.raises(SequenceParseError, match=":2"):
            load_sequences(path)

    def test_non_integer_token(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\nx\n1\n")
        with pytest.raises(SequenceParseError):
            load_sequences(path)

    def test_id_below_one(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\n0\n1\n")
        with pytest.raises(ValidationError):
            load_sequences(path)

    def test_round_trip(self, tmp_path, rng):
        seqs = []
        for i in range(5):
            n = rng.integers(1, 10)
            seqs.append(make_seq(i, zip(rng.integers(1, 20, n).tolist(),
                                        rng.integers(0, 2, n).tolist())))
        ds = Dataset(num_kcs=19, sequences=seqs)
        path = tmp_path / "rt.txt"
        save_sequences(ds, path)
        back = load_sequences(path, num_kcs=19)
        assert [s.steps for s in back.sequences] == [s.steps for s in ds.sequences]
        assert back.num_kcs == ds.num_kcs


class TestPadAndMask:
    def test_short_sequence_padded(self):
        b = pad_and_mask([make_seq(0, [(1, 1), (2, 0), (3, 1)])], 5, 3)
        np.testing.assert_array_equal(b.mask, [[1, 1, 1, 0, 0]])
        np.testing.assert_array_equal(b.q_ids, [[1, 2, 3, 0, 0]])
        np.testing.assert_array_equal(b.answers, [[1, 0, 1, 0, 0]])

    def test_exact_length(self):
        b = pad_and_mask([make_seq(0, [(1, 0)] * 5)], 5, 1)
        np.testing.assert_array_equal(b.mask, np.ones((1, 5)))

    def test_long_sequence_chunked(self):
        b = pad_and_mask([make_seq(0, [(1, 0)] * 7)], 5, 1)
        np.testing.assert_array_equal(b.mask, [[1, 1, 1, 1, 1], [1, 1, 0, 0, 0]])

    def test_mask_matches_nonzero_qids(self, rng):
        seqs = [make_seq(i, zip(rng.integers(1, 9, n).tolist(),
                                rng.integers(0, 2, n).tolist()))
                for i, n in enumerate(rng.integers(1, 15, 6))]
        b = pad_and_mask(seqs, 4, 8)
        np.testing.assert_array_equal(b.mask, (b.q_ids != 0).astype(int))

    def test_steps_preserved_across_chunks(self, rng):
        n = int(rng.integers(8, 30))
        steps = list(zip(rng.integers(1, 9, n).tolist(), rng.integers(0, 2, n).tolist()))
        b = pad_and_mask([make_seq(0, steps)], 5, 8)
        recovered = [(int(q), int(a))
                     for row in range(b.batch_size)
                     for q, a, m in zip(b.q_ids[row], b.answers[row], b.mask[row])
                     if m]
        assert recovered == steps

    def test_matches_step_loop(self, rng):
        seqs = [make_seq(i, zip(rng.integers(1, 9, n).tolist(),
                                rng.integers(0, 2, n).tolist()))
                for i, n in enumerate(rng.integers(0, 23, 9))]
        for seq_len in (1, 4, 7, 30):
            b = pad_and_mask(seqs, seq_len, 8)
            want = oracle.pad_and_mask_loop(seqs, seq_len)
            for name in ("q_ids", "answers", "mask"):
                np.testing.assert_array_equal(getattr(b, name), want[name])
                assert getattr(b, name).dtype == np.int64

    @pytest.mark.parametrize("q", [0, -1, 9])
    def test_question_out_of_range_rejected(self, q):
        seqs = [make_seq(0, [(1, 1), (2, 0)]), make_seq(1, [(3, 1), (q, 0), (4, 1)])]
        with pytest.raises(IndexOutOfRangeError, match=f"question id {q} "):
            pad_and_mask(seqs, 2, 8)

    @pytest.mark.parametrize("a", [2, -1, 0.5])
    def test_answer_not_a_bit_rejected(self, a):
        seqs = [make_seq(0, [(1, 1), (2, 0)]), make_seq(1, [(3, 1), (4, a)])]
        with pytest.raises(ValidationError, match="answer bit"):
            pad_and_mask(seqs, 3, 8)

    def test_fractional_question_rejected(self):
        with pytest.raises(ValidationError,
                           match=r"question id 1\.5 is not an integer"):
            pad_and_mask([make_seq(0, [(1.5, 1)])], 4, 4)

    def test_non_finite_question_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for q in (np.inf, -np.inf, np.nan):
                with pytest.raises(ValidationError,
                                   match=f"question id {q} is not finite"):
                    pad_and_mask([make_seq(0, [(1, 0), (q, 1)])], 4, 4)

    def test_integral_float_question_accepted(self):
        b = pad_and_mask([make_seq(0, [(2.0, 1)])], 4, 4)
        assert b.q_ids[0, 0] == 2
        assert b.answers[0, 0] == 1


class TestFlattenSteps:
    def test_columns_in_step_order(self):
        seqs = [make_seq(0, [(3, 1), (1, 0)]), make_seq(1, []), make_seq(2, [(2.0, 1)])]
        lengths, q, a = datasets.flatten_steps(seqs)
        for got, want in ((lengths, [2, 0, 1]), (q, [3, 1, 2]), (a, [1, 0, 1])):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
        assert [len(c) for c in datasets.flatten_steps([])] == [0, 0, 0]

    @pytest.mark.parametrize("step,error,message", [
        ((1.5, 1), ValidationError, r"question id 1\.5 is not an integer"),
        ((1e20, 1), ValidationError, r"question id 1e\+20 is not an integer"),
        ((float("nan"), 1), ValidationError, "question id nan is not finite"),
        ((0, 1), IndexOutOfRangeError, "question id 0 < 1"),
        ((2 ** 53 + 1, 1), ValidationError, r"question id 9007199254740992 >= 2\*\*53"),
        ((2 ** 62, 1), ValidationError, r"question id 4611686018427387904 >= 2\*\*53"),
        ((2, 0.5), ValidationError, "answer bit must be 0 or 1, got 0.5"),
        ((2, float("inf")), ValidationError, "answer bit must be 0 or 1, got inf"),
    ], ids=["fraction", "huge", "nan", "zero", "past_2_53", "int64_past_2_53",
            "half_answer", "inf_answer"])
    def test_bad_value_rejected(self, step, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=message):
                datasets.flatten_steps([make_seq(0, [(1, 0), step])])

    def test_largest_exact_id_kept(self):
        _, q, _ = datasets.flatten_steps([make_seq(0, [(2 ** 53 - 1, 1)])])
        assert q.tolist() == [2 ** 53 - 1]

    def test_bare_ids_instead_of_pairs_named(self):
        seqs = [make_seq("ok", [(1, 0)]), InteractionSequence("s1", [1, 2, 3])]
        with pytest.raises(ValidationError, match="sequence 's1': step 1 is not a"):
            datasets.flatten_steps(seqs)
        with pytest.raises(ValidationError, match="'s1'"):
            pad_and_mask(seqs, 4, 4)

    # the last two make up two whole pairs between a 3-tuple and a 1-tuple,
    # with bits in the shifted answer column in the last one
    @pytest.mark.parametrize("steps", [[(1, 0), (2, 1, 0)], [(2,)],
                                       [(1, 2, 3), (1,)], [(1, 0, 1), (1,)]])
    def test_step_of_other_size_named(self, steps):
        seqs = [make_seq("ok", [(1, 0)]), make_seq("s2", steps)]
        with pytest.raises(ValidationError, match="sequence 's2': step .* not a"):
            datasets.flatten_steps(seqs)
        with pytest.raises(ValidationError, match="'s2'"):
            pad_and_mask(seqs, 4, 4)


def count_flattens(monkeypatch):
    """A list that grows by one each time datasets.flatten_steps runs."""
    calls, flatten = [], datasets.flatten_steps

    def counted(seqs):
        calls.append(len(seqs))
        return flatten(seqs)

    monkeypatch.setattr(datasets, "flatten_steps", counted)
    return calls


class TestStepColumns:
    def test_dataset_flattened_once(self, monkeypatch):
        calls = count_flattens(monkeypatch)
        ds = Dataset(3, [make_seq(0, [(3, 1), (1, 0)]), make_seq(1, [(2, 1)])])
        first = ds.columns
        again = ds.columns
        assert calls == [2]
        assert all(a is b for a, b in zip(first, again))
        for got, want in zip(first, datasets.flatten_steps(ds.sequences)):
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable

    def test_list_flattened_every_call(self, monkeypatch):
        calls = count_flattens(monkeypatch)
        seqs = [make_seq(0, [(1, 1)])]
        pad_and_mask(seqs, 4, 1)
        pad_and_mask(seqs, 4, 1)
        assert calls == [1, 1]

    def test_bad_dataset_raises_every_call_and_keeps_nothing(self, monkeypatch):
        calls = count_flattens(monkeypatch)
        ds = Dataset(3, [make_seq(0, [(1, 1), (1.5, 0)])])
        for _ in range(2):
            with pytest.raises(ValidationError, match="1.5 is not an integer"):
                ds.columns
        assert calls == [1, 1]
        assert "columns" not in vars(ds)
        assert ds == Dataset(3, [make_seq(0, [(1, 1), (1.5, 0)])])

    def test_frozen_with_tuples_of_what_was_passed(self):
        steps = [(3, 1), (1, 0)]
        seqs = [InteractionSequence("0", steps)]
        ds = Dataset(3, seqs)
        zipped = InteractionSequence("z", zip([2, 3], [0, 1]))
        assert type(ds.sequences) is tuple and ds.sequences == (seqs[0],)
        assert type(seqs[0].steps) is tuple and type(zipped.steps) is tuple
        assert zipped.steps == ((2, 0), (3, 1))
        for obj, name, value in ((ds, "num_kcs", 4), (ds, "sequences", []),
                                 (ds, "name", "x"), (ds, "columns", None),
                                 (seqs[0], "student_id", "1"), (seqs[0], "steps", [])):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, value)
        columns = ds.columns
        steps.append((2, 0))
        seqs.append(make_seq(1, [(2, 1)]))
        seqs[0] = make_seq(0, [(2, 0)])
        assert ds == Dataset(3, [make_seq(0, [(3, 1), (1, 0)])])
        assert ds.columns is columns
        assert [c.tolist() for c in columns] == [[2], [3, 1], [1, 0]]


class TestSplits:
    def ds(self, n, Q=5):
        return Dataset(Q, [make_seq(i, [(1 + i % Q, i % 2)]) for i in range(n)])

    def test_70_30(self):
        train, test = split_train_test(self.ds(10), 0.3, 0)
        assert (len(train.sequences), len(test.sequences)) == (7, 3)

    def test_deterministic(self):
        a = split_train_test(self.ds(20), 0.3, 5)
        b = split_train_test(self.ds(20), 0.3, 5)
        assert [s.student_id for s in a[1].sequences] == \
            [s.student_id for s in b[1].sequences]

    def test_different_seeds_differ(self):
        a = split_train_test(self.ds(100), 0.3, 1)
        b = split_train_test(self.ds(100), 0.3, 2)
        assert [s.student_id for s in a[1].sequences] != \
            [s.student_id for s in b[1].sequences]

    def test_partition(self):
        d = self.ds(13)
        train, test = split_train_test(d, 0.3, 3)
        ids = sorted(s.student_id for s in train.sequences + test.sequences)
        assert ids == sorted(s.student_id for s in d.sequences)

    def test_too_few_sequences(self):
        with pytest.raises(ValidationError):
            split_train_test(self.ds(1), 0.3, 0)

    def test_kfold_equal_division(self):
        folds = kfold(self.ds(10), 5, 0)
        assert [len(v.sequences) for _, v in folds] == [2] * 5

    def test_kfold_remainder(self):
        folds = kfold(self.ds(11), 5, 0)
        assert sorted(len(v.sequences) for _, v in folds) == [2, 2, 2, 2, 3]

    def test_kfold_union_is_dataset(self):
        d = self.ds(11)
        folds = kfold(d, 5, 7)
        union = sorted(s.student_id for _, v in folds for s in v.sequences)
        assert union == sorted(s.student_id for s in d.sequences)
        for train, val in folds:
            assert len(train.sequences) + len(val.sequences) == 11
            assert not set(s.student_id for s in train.sequences) & \
                set(s.student_id for s in val.sequences)

    def test_kfold_too_few(self):
        with pytest.raises(ValidationError):
            kfold(self.ds(3), 5, 0)


class TestSyntheticGenerator:
    @pytest.mark.parametrize("seed,digest", [
        (0, "44c4b3cd0977c528a789273a7f3fe62ae47c36b6f388c83e0736ec353707e4c5"),
        (1, "9f591ce279f341bf15c7d2d7bee3a05878e97f5defc521fa729e23d9c3f28b39"),
        (2, "27db09083dd34ea02116b135b3936afa498f7e0d9e3350f27b88601feb9f0532"),
    ])
    def test_default_files_pinned(self, tmp_path, seed, digest):
        ds, _ = generate_synthetic(SyntheticConfig(seed=seed))
        save_sequences(ds, tmp_path / "synthetic.txt")
        assert hashlib.sha256((tmp_path / "synthetic.txt").read_bytes()).hexdigest() == digest

    def test_same_seed_bit_identical(self):
        cfg = SyntheticConfig(num_students=20, num_questions=10, num_concepts=3, seed=9)
        ds1, gt1 = generate_synthetic(cfg)
        ds2, gt2 = generate_synthetic(cfg)
        assert [s.steps for s in ds1.sequences] == [s.steps for s in ds2.sequences]
        np.testing.assert_array_equal(gt1.beta, gt2.beta)
        np.testing.assert_array_equal(gt1.theta, gt2.theta)

    def test_guess_one_all_correct(self):
        cfg = SyntheticConfig(num_students=10, num_questions=8, num_concepts=2,
                              guess_c=1.0, seed=0)
        ds, _ = generate_synthetic(cfg)
        assert all(a == 1 for s in ds.sequences for _, a in s.steps)

    def test_no_guessing_deterministic_at_extremes(self):
        # c = 0 and |theta - beta| -> inf makes the answer a step function
        cfg = SyntheticConfig(num_students=40, num_questions=10, num_concepts=2,
                              guess_c=0.0, ability_std=80.0, difficulty_std=1e-4,
                              seed=3)
        ds, gt = generate_synthetic(cfg)
        for i, seq in enumerate(ds.sequences):
            for q, a in seq.steps:
                theta = gt.theta[i, gt.question_concept[q - 1] - 1]
                if abs(theta) > 10:  # far from every beta
                    assert a == (1 if theta > 0 else 0)

    def test_every_student_same_question_order(self):
        cfg = SyntheticConfig(num_students=5, num_questions=12, num_concepts=3, seed=1)
        ds, _ = generate_synthetic(cfg)
        for seq in ds.sequences:
            assert [q for q, _ in seq.steps] == list(range(1, 13))

    def test_correct_rate_near_expectation(self):
        # E = c + (1 - c) * E[sigmoid(theta - beta)] = 0.25 + 0.75 * 0.5
        cfg = SyntheticConfig(num_students=800, num_questions=50, num_concepts=5, seed=2)
        ds, _ = generate_synthetic(cfg)
        rate = np.mean([a for s in ds.sequences for _, a in s.steps])
        assert rate == pytest.approx(0.625, abs=0.02)

    def test_invalid_configs(self):
        with pytest.raises(ValidationError):
            generate_synthetic(SyntheticConfig(guess_c=1.5))
        with pytest.raises(ValidationError):
            generate_synthetic(SyntheticConfig(num_questions=3, num_concepts=5))

    def test_ground_truth_sidecars(self, tmp_path):
        cfg = SyntheticConfig(num_students=4, num_questions=6, num_concepts=2, seed=0)
        _, gt = generate_synthetic(cfg)
        datasets.write_ground_truth(gt, tmp_path)
        q_lines = (tmp_path / "questions.csv").read_text().strip().splitlines()
        s_lines = (tmp_path / "students.csv").read_text().strip().splitlines()
        assert q_lines[0] == "question_id,concept_id,beta"
        assert len(q_lines) == 7
        assert s_lines[0] == "student_id,concept_id,theta"
        assert len(s_lines) == 1 + 4 * 2
