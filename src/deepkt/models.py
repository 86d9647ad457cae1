"""DKVMN, Deep-IRT (DKVMN + ability/difficulty heads), and DKT (LSTM) forward
passes over padded batches, plus parameter init and JSON checkpoints."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .datasets import PaddedBatch, ValidationError

ABILITY_SCALE = 3.0  # ability head output is stretched before the IRT link
PROB_EPS = 1e-7      # clamp for log-loss


@dataclass
class MemoryArch:
    num_kcs: int
    mem_slots: int = 20
    state_dim: int = 50       # d_k = d_v
    feature_dim: int = 50
    deep_irt: bool = False

    @property
    def kind(self) -> str:
        return "deep_irt" if self.deep_irt else "dkvmn"


@dataclass
class DktArch:
    num_kcs: int
    hidden: int = 50
    kind = "dkt"


KINDS = ("dkt", "dkvmn", "deep_irt")


def make_arch(kind: str, num_kcs: int, sizes: dict):
    """Architecture of a model kind; ``sizes`` maps the size names that kind
    needs (a TrainConfig as a dict, or a checkpoint's arch spec)."""
    if kind == "dkt":
        return DktArch(num_kcs, hidden=sizes["hidden"])
    if kind in ("dkvmn", "deep_irt"):
        return MemoryArch(num_kcs, mem_slots=sizes["mem_slots"],
                          state_dim=sizes["state_dim"],
                          feature_dim=sizes["feature_dim"],
                          deep_irt=(kind == "deep_irt"))
    raise ValidationError(f"{kind!r} is not a deep model kind ({', '.join(KINDS)})")


class _Params:
    """Named learnable tensors of one architecture, in a fixed order."""

    def __init__(self, arch, arrays):
        self.arch = arch
        for name, value in arrays.items():
            setattr(self, name, value)
        self._names = list(arrays.keys())

    def named_parameters(self):
        return [(n, getattr(self, n)) for n in self._names]

    def parameters(self):
        return [getattr(self, n) for n in self._names]


class DkvmnParams(_Params):
    """Learnable state for DKVMN / Deep-IRT; d_k = d_v = state_dim."""


class DktParams(_Params):
    """Learnable state for the LSTM model; gate order is input/forget/cell/output."""


def param_shapes(arch) -> dict:
    """Parameter name -> shape, in the order init draws them."""
    if isinstance(arch, MemoryArch):
        q, n, d, f = arch.num_kcs, arch.mem_slots, arch.state_dim, arch.feature_dim
        shapes = {"A": (q, d), "B": (2 * q, d), "Mk": (n, d), "Mv0": (n, d),
                  "W_f": (2 * d, f), "b_f": (1, f), "W_e": (d, d), "b_e": (1, d),
                  "W_a": (d, d), "b_a": (1, d)}
        if arch.deep_irt:
            shapes.update(W_theta=(f, 1), b_theta=(1, 1), W_beta=(d, 1), b_beta=(1, 1))
        else:
            shapes.update(W_p=(f, 1), b_p=(1, 1))
        return shapes
    if isinstance(arch, DktArch):
        q, h = arch.num_kcs, arch.hidden
        return {"W_x": (2 * q, 4 * h), "W_h": (h, 4 * h), "b_g": (1, 4 * h),
                "W_y": (h, q), "b_y": (1, q)}
    raise TypeError(f"unknown architecture {type(arch).__name__}")


def _make_params(arch, arrays):
    cls = DkvmnParams if isinstance(arch, MemoryArch) else DktParams
    return cls(arch, {name: Tensor(value, requires_grad=True)
                      for name, value in arrays.items()})


def init_params(arch, std: float = 0.05, seed: int = 0):
    """Gaussian init, every parameter drawn from one seeded stream."""
    shapes = param_shapes(arch)
    if std <= 0:
        raise ValidationError(f"init std must be positive, got {std}")
    rng = np.random.default_rng(seed)
    return _make_params(arch, {name: rng.normal(0.0, std, size=shape)
                               for name, shape in shapes.items()})


@dataclass
class StepOutputs:
    """Model outputs for the S scored cells of a padded batch, one row per
    cell in the order of ``np.nonzero(pred_mask)`` (batch row by batch row).
    """
    prob_tensor: Tensor            # S x 1, still attached to the graph
    pred_mask: np.ndarray          # B x L, 1 where a prediction is scored
    labels: np.ndarray             # S answer bits
    theta: np.ndarray | None = None      # S abilities (Deep-IRT)
    beta: np.ndarray | None = None       # S difficulties (Deep-IRT)
    attention: np.ndarray | None = None  # S x N key attention (memory models)

    @property
    def p(self) -> np.ndarray:
        """The probabilities placed on the B x L grid, 0.5 off ``pred_mask``."""
        grid = np.full(self.pred_mask.shape, 0.5)
        grid[self.pred_mask == 1] = self.prob_tensor.data[:, 0]
        return grid


def _check_ids(batch: PaddedBatch, num_kcs: int) -> None:
    if batch.q_ids.max() > num_kcs:
        raise ad.IndexOutOfRangeError(
            f"question id {int(batch.q_ids.max())} exceeds num_kcs={num_kcs}")


def difficulty(params: DkvmnParams, keys: Tensor) -> Tensor:
    """Deep-IRT's item difficulty, tanh(k W_beta + b_beta), for each row k of
    ``keys`` (question embeddings, rows of A)."""
    return ad.tanh(keys @ params.W_beta + params.b_beta)


def forward_sequence(params: DkvmnParams, batch: PaddedBatch) -> StepOutputs:
    """Run DKVMN or Deep-IRT over the scored cells of a padded batch.

    Only the memory read depends on a student's history.  Attention,
    erase/add, the difficulty and the key half of the feature layer depend on
    the interaction alone, so they run once per distinct interaction the
    batch scores, and each cell reads its interaction's row.  The value-memory
    write is the one recurrence; per cell only the read half of the feature
    layer and the ability head run.  Each cell predicts from the memory
    before its own write, and unscored cells leave the memory alone.
    """
    arch = params.arch
    _check_ids(batch, arch.num_kcs)
    d = arch.state_dim
    cells = np.nonzero(batch.mask)
    # the scored interactions, each cell's row among them (0-based), and the
    # question of each, read at its first cell
    used, first, ids = np.unique(batch.qa_ids[cells], return_index=True,
                                 return_inverse=True)
    k = ad.gather_rows(params.A, batch.q_ids[cells[0][first], cells[1][first]])
    w = ad.softmax_rows(k @ params.Mk.T)
    v = ad.gather_rows(params.B, used)
    erase = ad.sigmoid(v @ params.W_e + params.b_e)
    add = ad.tanh(v @ params.W_a + params.b_a)
    r = ad.memory_scan(params.Mv0, w, erase, add, ids, batch.mask.sum(axis=1))
    # the first d rows of W_f weigh the read, the last d the key
    w_read = ad.gather_rows(params.W_f, np.arange(1, d + 1))
    w_key = ad.gather_rows(params.W_f, np.arange(d + 1, 2 * d + 1))
    f = ad.tanh(r @ w_read + ad.gather_rows(k @ w_key + params.b_f, ids + 1))
    theta = beta = None
    if arch.deep_irt:
        th = ad.tanh(f @ params.W_theta + params.b_theta)
        be = ad.gather_rows(difficulty(params, k), ids + 1)
        prob = ad.sigmoid(ad.scale(th, ABILITY_SCALE) - be)
        theta, beta = th.data[:, 0], be.data[:, 0]
    else:
        prob = ad.sigmoid(f @ params.W_p + params.b_p)
    return StepOutputs(prob_tensor=prob, pred_mask=batch.mask.copy(),
                       labels=batch.answers[cells], theta=theta, beta=beta,
                       attention=w.data[ids])


def forward_dkt(params: DktParams, batch: PaddedBatch) -> StepOutputs:
    """LSTM over one-hot interaction ids; the state after step t scores
    question t+1, so the first step of each row is not scored.  h_0 = c_0 = 0.

    The scored cell (b, t) feeds interaction (b, t-1) to the LSTM and reads
    only column q_t of the output layer.
    """
    arch = params.arch
    _check_ids(batch, arch.num_kcs)
    pred_mask = batch.mask.copy()
    pred_mask[:, 0] = 0
    cells = np.nonzero(pred_mask)
    rows, steps = cells
    # one-hot(qa) @ W_x + b_g is a row of W_x + b_g: build the rows of the
    # interactions the cells feed, and each cell reads its row
    used, ids = np.unique(batch.qa_ids[rows, steps - 1], return_inverse=True)
    x = ad.gather_rows(params.W_x, used) + params.b_g
    h = ad.lstm_scan(x, ids, params.W_h, pred_mask.sum(axis=1))
    q = batch.q_ids[cells]
    logit = ad.mul(h, ad.gather_rows(params.W_y.T, q)) \
        @ ad.constant(np.ones((arch.hidden, 1))) \
        + ad.gather_rows(params.b_y.T, q)
    prob = ad.sigmoid(logit)
    return StepOutputs(prob_tensor=prob, pred_mask=pred_mask,
                       labels=batch.answers[cells])


def forward(params, batch: PaddedBatch) -> StepOutputs:
    if isinstance(params, DkvmnParams):
        return forward_sequence(params, batch)
    if isinstance(params, DktParams):
        return forward_dkt(params, batch)
    raise TypeError(f"unknown params {type(params).__name__}")


def sequence_loss(outputs: StepOutputs) -> Tensor:
    """Summed cross-entropy over the scored cells (1 x 1 tensor)."""
    labels = outputs.labels.reshape(-1, 1)
    return ad.binary_cross_entropy(outputs.prob_tensor, labels,
                                   np.ones_like(labels), eps=PROB_EPS)


def prediction_set(outputs: StepOutputs):
    """Flatten (scores, labels) over the scored steps, batch row by row."""
    return outputs.prob_tensor.data[:, 0].copy(), outputs.labels


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(params, path, seed: int = 0) -> None:
    arch = params.arch
    doc = {
        # the kind stands in for MemoryArch's deep_irt flag
        "arch": {"kind": arch.kind,
                 **{k: v for k, v in asdict(arch).items() if k != "deep_irt"}},
        "seed": seed,
        "arrays": {name: t.data.tolist() for name, t in params.named_parameters()},
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_checkpoint(path):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        spec = doc["arch"]
        arch = make_arch(spec["kind"], spec["num_kcs"], spec)
        shapes = param_shapes(arch)
        arrays = {name: np.array(doc["arrays"][name], dtype=np.float64)
                  for name in shapes}
    except KeyError as exc:
        raise ValidationError(f"checkpoint {path} lacks {exc.args[0]!r}") from None
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ValidationError(f"checkpoint array {name} has shape "
                                  f"{arrays[name].shape}, expected {shape}")
    return _make_params(arch, arrays)
