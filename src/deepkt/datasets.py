"""Sequence files, interaction encoding, padding/masking, splits, and the
synthetic student generator."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .autodiff import IndexOutOfRangeError

NOT_A_BIT = "answer bit must be 0 or 1, got {}"


class SequenceParseError(ValueError):
    """A sequence file violated the 3-line-per-student record format."""


class ValidationError(ValueError):
    """Input data failed a precondition."""


@dataclass
class InteractionSequence:
    """One student's ordered (question id, answer bit) pairs."""
    student_id: str
    steps: list  # list of (q, a) with q in [1, Q], a in {0, 1}

    def __len__(self):
        return len(self.steps)


@dataclass
class Dataset:
    num_kcs: int
    sequences: list
    name: str = ""

    def __len__(self):
        return len(self.sequences)


@dataclass
class PaddedBatch:
    """B x L grids; ``mask`` marks the steps, and padding is 0 in every grid."""
    q_ids: np.ndarray
    answers: np.ndarray
    mask: np.ndarray

    @property
    def batch_size(self):
        return self.q_ids.shape[0]


@dataclass
class SyntheticConfig:
    num_students: int = 2000
    num_questions: int = 50
    num_concepts: int = 5
    guess_c: float = 0.25
    ability_std: float = 3.0
    difficulty_std: float = 1.5
    seed: int = 0

    def validate(self):
        if not (0.0 <= self.guess_c <= 1.0):
            raise ValidationError(f"guess_c must be in [0, 1], got {self.guess_c}")
        if self.num_concepts > self.num_questions:
            raise ValidationError("num_concepts cannot exceed num_questions")
        if self.ability_std <= 0 or self.difficulty_std <= 0:
            raise ValidationError("ability_std and difficulty_std must be positive")


@dataclass
class SyntheticGroundTruth:
    """Generator-side latent variables, exported as sidecar CSVs."""
    question_concept: np.ndarray   # (M,) concept id per question, 1-based
    beta: np.ndarray               # (M,) difficulty per question
    theta: np.ndarray              # (S, K) ability per student and concept


def encode_interaction(q, a, num_kcs: int):
    """Combined interaction id: q + a * Q, in [1, 2Q], of integer question ids
    and answer bits; q and a may be arrays."""
    q = np.asarray(q)
    bad = (q < 1) | (q > num_kcs)
    if bad.any():
        raise IndexOutOfRangeError(f"question id {q[bad][0]} outside [1, {num_kcs}]")
    return q + a * num_kcs


def load_sequences(path, num_kcs: int | None = None, name: str | None = None) -> Dataset:
    """Read the triplet-line format: count line, question-id line, answer line."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    # drop trailing blank lines only; blanks in the middle are format errors
    while lines and lines[-1].strip() == "":
        lines.pop()
    if len(lines) % 3 != 0:
        raise SequenceParseError(
            f"{path}: record count not a multiple of 3 ({len(lines)} lines)")
    sequences = []
    max_q = 0
    for rec in range(0, len(lines), 3):
        n = _parse_int(lines[rec], path, rec + 1)
        qs = _parse_int_list(lines[rec + 1], path, rec + 2)
        ans = _parse_int_list(lines[rec + 2], path, rec + 3)
        if len(qs) != n:
            raise SequenceParseError(
                f"{path}:{rec + 2}: expected {n} question ids, found {len(qs)}")
        if len(ans) != n:
            raise SequenceParseError(
                f"{path}:{rec + 3}: expected {n} answers, found {len(ans)}")
        for q in qs:
            if q < 1:
                raise ValidationError(f"{path}:{rec + 2}: question id {q} < 1")
        for a in ans:
            if a not in (0, 1):
                raise ValidationError(f"{path}:{rec + 3}: answer {a} not a bit")
        if n == 0:
            raise ValidationError(f"{path}:{rec + 1}: empty sequence")
        max_q = max(max_q, max(qs))
        sequences.append(InteractionSequence(str(rec // 3), list(zip(qs, ans))))
    q_total = max_q if num_kcs is None else num_kcs
    if q_total < max_q:
        raise ValidationError(f"num_kcs={q_total} below max question id {max_q}")
    return Dataset(num_kcs=q_total, sequences=sequences, name=name or path.stem)


def save_sequences(ds: Dataset, path) -> None:
    out = []
    for seq in ds.sequences:
        qs = ",".join(str(q) for q, _ in seq.steps)
        ans = ",".join(str(a) for _, a in seq.steps)
        out.append(f"{len(seq.steps)}\n{qs}\n{ans}")
    Path(path).write_text("\n".join(out) + ("\n" if out else ""), encoding="utf-8")


def _parse_int(text, path, lineno):
    try:
        return int(text.strip())
    except ValueError:
        raise SequenceParseError(f"{path}:{lineno}: non-integer token {text.strip()!r}")


def _parse_int_list(text, path, lineno):
    stripped = text.strip()
    if stripped == "":
        return []
    try:
        return [int(tok) for tok in stripped.split(",")]
    except ValueError:
        raise SequenceParseError(f"{path}:{lineno}: non-integer token in {stripped!r}")


def _not_a_pair(seqs):
    """A ValidationError naming the first sequence with a step that is not a
    (question, answer) pair, or None when every step is one."""
    for seq in seqs:
        for step in seq.steps:
            if not (hasattr(step, "__len__") and len(step) == 2):
                return ValidationError(f"sequence {seq.student_id!r}: step {step!r} "
                                       f"is not a (question, answer) pair")
    return None


def flatten_steps(seqs):
    """(lengths, q, a) as int64 columns: each sequence's length and the
    question and answer of every step, in order.  Every question id must be
    an integer in [1, 2**53) and every answer a bit.  A step that is not a pair
    is found by the value count, so steps of 3 and 1 values that make up two
    whole pairs between them still pass if the values they shift into the
    answer column are bits."""
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    try:
        flat = np.fromiter(chain.from_iterable(chain.from_iterable(s.steps for s in seqs)),
                           dtype=np.float64)
    except TypeError:     # a step that is a bare value, or a value that is None
        error = _not_a_pair(seqs)
        if error is None:
            raise
        raise error from None
    if flat.size != 2 * lengths.sum():
        raise _not_a_pair(seqs)
    q, a = flat.reshape(-1, 2).T
    whole = _question_ids(q)
    bad = (a != 0) & (a != 1)
    if bad.any():   # 2.0 reads 2, as an int answer would
        answer = np.format_float_positional(a[bad][0], trim="-")
        raise ValidationError(NOT_A_BIT.format(answer))
    return lengths, whole, a.astype(np.int64)


def _question_ids(q):
    """float64 question ids as int64, checked finite, integral, below 2**53
    (where float64 starts rounding integers) and >= 1."""
    with np.errstate(invalid="ignore"):   # NaN, inf and ids past int64 cast to garbage
        whole = q.astype(np.int64)
    for bad, values, error, message in (
            (~np.isfinite(q), q, ValidationError, "question id {} is not finite"),
            (whole != q, q, ValidationError, "question id {} is not an integer"),
            (q >= 2 ** 53, whole, ValidationError, "question id {} >= 2**53 is rounded"),
            (whole < 1, whole, IndexOutOfRangeError, "question id {} < 1")):
        if bad.any():
            raise error(message.format(values[bad][0]))
    return whole


def pad_and_mask(seqs, seq_len: int, num_kcs: int) -> PaddedBatch:
    """Chunk each sequence into consecutive pieces of <= seq_len, zero-padded.

    Longer sequences are split (never truncated); padding id is 0.
    """
    if seq_len < 1:
        raise ValidationError(f"seq_len must be >= 1, got {seq_len}")
    lengths, q, a = flatten_steps(seqs)
    high = q > num_kcs
    if high.any():
        raise IndexOutOfRangeError(f"question id {q[high][0]} outside [1, {num_kcs}]")
    # step t of a sequence lands in its (t // seq_len)-th chunk, column t % seq_len
    chunks = -(-lengths // seq_len)
    t = np.arange(len(q)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    row = np.repeat(np.cumsum(chunks) - chunks, lengths) + t // seq_len
    col = t % seq_len
    grids = {name: np.zeros((int(chunks.sum()), seq_len), dtype=np.int64)
             for name in ("q_ids", "answers", "mask")}
    for grid, values in zip(grids.values(), (q, a, 1)):
        grid[row, col] = values
    return PaddedBatch(**grids)


def split_train_test(ds: Dataset, test_fraction: float, seed: int):
    """Seeded shuffle then split; returns (train, test) with disjoint sequences."""
    if not (0.0 < test_fraction < 1.0):
        raise ValidationError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if len(ds.sequences) < 2:
        raise ValidationError("need at least 2 sequences to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ds.sequences))
    n_test = int(round(len(ds.sequences) * test_fraction))
    n_test = min(max(n_test, 1), len(ds.sequences) - 1)
    test_idx = set(order[:n_test].tolist())
    train = [ds.sequences[i] for i in range(len(ds.sequences)) if i not in test_idx]
    test = [ds.sequences[i] for i in sorted(test_idx)]
    return (Dataset(ds.num_kcs, train, ds.name + "/train"),
            Dataset(ds.num_kcs, test, ds.name + "/test"))


def kfold(ds: Dataset, k: int, seed: int):
    """Disjoint, exhaustive folds with sizes differing by at most 1."""
    if k < 2:
        raise ValidationError(f"k must be >= 2, got {k}")
    if len(ds.sequences) < k:
        raise ValidationError(f"{len(ds.sequences)} sequences cannot fill {k} folds")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ds.sequences))
    folds = np.array_split(order, k)
    pairs = []
    for i in range(k):
        val_idx = set(folds[i].tolist())
        train = [ds.sequences[j] for j in order if j not in val_idx]
        val = [ds.sequences[j] for j in folds[i]]
        pairs.append((Dataset(ds.num_kcs, train, f"{ds.name}/cv{i}-train"),
                      Dataset(ds.num_kcs, val, f"{ds.name}/cv{i}-val")))
    return pairs


def generate_synthetic(cfg: SyntheticConfig):
    """Simulate students answering a fixed question sequence.

    Question j gets one concept and a difficulty beta_j; student i gets one
    ability per concept; answers are Bernoulli(c + (1-c) * sigmoid(theta - beta)).
    RNG streams: one child stream for the question bank, one per student, all
    spawned from SeedSequence(cfg.seed) so results are platform-stable.
    """
    cfg.validate()
    root = np.random.SeedSequence(cfg.seed)
    streams = root.spawn(cfg.num_students + 1)
    qrng = np.random.default_rng(streams[0])
    concept = qrng.integers(1, cfg.num_concepts + 1, size=cfg.num_questions)
    beta = qrng.normal(0.0, cfg.difficulty_std, size=cfg.num_questions)

    theta = np.zeros((cfg.num_students, cfg.num_concepts))
    sequences = []
    for i in range(cfg.num_students):
        srng = np.random.default_rng(streams[i + 1])
        theta_i = srng.normal(0.0, cfg.ability_std, size=cfg.num_concepts)
        theta[i] = theta_i
        z = theta_i[concept - 1] - beta
        p = cfg.guess_c + (1.0 - cfg.guess_c) / (1.0 + np.exp(-z))
        a = (srng.random(cfg.num_questions) < p).astype(int)
        steps = [(j + 1, int(a[j])) for j in range(cfg.num_questions)]
        sequences.append(InteractionSequence(str(i), steps))
    ds = Dataset(num_kcs=cfg.num_questions, sequences=sequences, name="synthetic")
    gt = SyntheticGroundTruth(question_concept=concept, beta=beta, theta=theta)
    return ds, gt


def write_ground_truth(gt: SyntheticGroundTruth, out_dir) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "questions.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["question_id", "concept_id", "beta"])
        for j in range(len(gt.beta)):
            w.writerow([j + 1, int(gt.question_concept[j]), repr(float(gt.beta[j]))])
    with open(out_dir / "students.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["student_id", "concept_id", "theta"])
        for i in range(gt.theta.shape[0]):
            for c in range(gt.theta.shape[1]):
                w.writerow([i, c + 1, repr(float(gt.theta[i, c]))])
