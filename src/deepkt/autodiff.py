"""Dense-matrix reverse-mode autodiff engine.

Every tensor is a 2-D float64 matrix.  A fresh graph is built per batch and
discarded after the optimizer step; gradients accumulate across fan-out and
are zeroed inside ``adam_step``.  There is no grad mode: an op builds a
node only when one of its inputs requires a gradient, so an op on constants
returns a leaf and a scan on constants keeps no backward state.  Inference
runs on constant copies of the parameters (``_Params.frozen`` in ``models``).
"""

from __future__ import annotations

import itertools
import math

import numpy as np


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class IndexOutOfRangeError(IndexError):
    """A row id fell outside its table."""


class GraphError(ValueError):
    """Backward called on a node that violates the graph contract."""


# creation ids: one shared counter, so tensors built on several threads never
# share an id (``backward`` orders nodes by it)
_uids = itertools.count(1)


class Tensor:
    """A rows x cols float64 matrix node in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward",
                 "_uid")

    _counter = 0    # the latest creation id; perfbench counts nodes by it

    def __init__(self, data, requires_grad=False, op="leaf", parents=(), backward=None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ShapeMismatchError(f"tensors are 2-D matrices, got shape {arr.shape}")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = op
        self._parents = tuple(parents)
        self._backward = backward
        self._uid = Tensor._counter = next(_uids)

    @property
    def rows(self):
        return self.data.shape[0]

    @property
    def cols(self):
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r}, requires_grad={self.requires_grad})"

    def item(self):
        if self.data.size != 1:
            raise ShapeMismatchError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def accumulate_grad(self, g, own=False):
        """Add g to the gradient.  The first g is copied unless ``own`` says
        it is a fresh array that nothing else holds or writes."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = g if own else np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None

    # operator sugar
    def __matmul__(self, other):
        return gemm(self, other)

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, neg(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    @property
    def T(self):
        return transpose(self)


def tensor(values, requires_grad=False):
    return Tensor(values, requires_grad=requires_grad)


def constant(values):
    return Tensor(values, requires_grad=False)


def _needs_grad(inputs) -> bool:
    return any(t.requires_grad for t in inputs)


def _node(data, op, parents, backward):
    """The op's output; a leaf when no gradient can flow back through it."""
    if not _needs_grad(parents):
        return Tensor(data, op=op)
    return Tensor(data, requires_grad=True, op=op, parents=parents,
                  backward=backward)


# ---------------------------------------------------------------------------
# primitive operations


def gemm(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeMismatchError(f"gemm: inner dims differ, {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def backward(g, out):
        a.accumulate_grad(g @ b.data.T)
        b.accumulate_grad(a.data.T @ g)

    return _node(out_data, "gemm", (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    def backward(g, out):
        a.accumulate_grad(g.T)

    return _node(a.data.T, "transpose", (a,), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a 1 x n bias row against an m x n matrix."""
    if a.shape == b.shape:
        pass
    elif b.rows == 1 and b.cols == a.cols:
        pass
    else:
        raise ShapeMismatchError(f"add: incompatible shapes {a.shape} + {b.shape}")
    out_data = a.data + b.data

    def backward(g, out):
        a.accumulate_grad(g)
        if b.shape == a.shape:
            b.accumulate_grad(g)
        else:
            b.accumulate_grad(g.sum(axis=0, keepdims=True))

    return _node(out_data, "add", (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g, out):
        a.accumulate_grad(-g)

    return _node(-a.data, "neg", (a,), backward)


def scale(a: Tensor, c: float) -> Tensor:
    def backward(g, out):
        a.accumulate_grad(c * g)

    return _node(c * a.data, "scale", (a,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; b may also be an m x 1 column broadcast across a's columns."""
    if a.shape == b.shape or (b.rows == a.rows and b.cols == 1):
        out_data = a.data * b.data
    else:
        raise ShapeMismatchError(f"mul: incompatible shapes {a.shape} * {b.shape}")

    def backward(g, out):
        a.accumulate_grad(g * b.data)
        if b.shape == a.shape:
            b.accumulate_grad(g * a.data)
        else:
            b.accumulate_grad((g * a.data).sum(axis=1, keepdims=True))

    return _node(out_data, "mul", (a, b), backward)


def _sigmoid(x):
    """Logistic function without overflow for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    ex = np.exp(-np.abs(x))     # exp(-x) where x >= 0, exp(x) below
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


def activation(x: Tensor, kind: str) -> Tensor:
    if kind == "sigmoid":
        y = _sigmoid(x.data)

        def backward(g, out):
            x.accumulate_grad(g * out.data * (1.0 - out.data))

    elif kind == "tanh":
        y = np.tanh(x.data)

        def backward(g, out):
            x.accumulate_grad(g * (1.0 - out.data * out.data))

    else:
        raise ValueError(f"unknown activation kind {kind!r}")
    return _node(y, kind, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    return activation(x, "sigmoid")


def tanh(x: Tensor) -> Tensor:
    return activation(x, "tanh")


def softmax_rows(x: Tensor) -> Tensor:
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def backward(g, out):
        dot = (g * out.data).sum(axis=1, keepdims=True)
        x.accumulate_grad(out.data * (g - dot))

    return _node(y, "softmax_rows", (x,), backward)


def _zero_based(ids, rows, op):
    """1-based ids into ``rows`` rows (or columns), checked, as 0-based."""
    idx = np.asarray(ids, dtype=np.int64).ravel()
    bad = (idx < 1) | (idx > rows)
    if bad.any():
        raise IndexOutOfRangeError(f"{op}: id {int(idx[bad][0])} outside [1, {rows}]")
    return idx - 1


def gather_rows(table: Tensor, ids) -> Tensor:
    """Stack rows of ``table`` selected by 1-based ids; backward scatter-adds."""
    zero_based = _zero_based(ids, table.rows, "gather_rows")
    out_data = table.data[zero_based]

    def backward(g, out):
        if table.requires_grad:
            table.accumulate_grad(_sum_onto_rows(zero_based, table.rows, g), own=True)

    return _node(out_data, "gather_rows", (table,), backward)


def _sum_onto_rows(ids, rows, g, order=None):
    """Sum per-cell gradients onto the rows of a ``rows``-row table: row i
    adds up, in cell order, the rows of g of the cells s with ids[s] == i.
    Row j of g holds cell order[j] (cell j when order is None).  One stable
    sort groups the cells by id, and the cells of each id that has several
    are one segment of a reduceat."""
    by_id = np.argsort(ids, kind="stable")
    sorted_ids = ids[by_id]
    starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
    counts = np.diff(np.r_[starts, ids.size])
    if order is not None:         # cell s sits at row where[s] of g
        where = np.empty_like(order)
        where[order] = np.arange(len(order))
        by_id, ids = where[by_id], ids[order]
    total = np.zeros((rows, g.shape[1]))
    total[ids] = g    # the sum for an id with one cell; the others follow
    many = counts > 1
    if many.any():
        total[sorted_ids[starts[many]]] = np.add.reduceat(
            g[by_id[np.repeat(many, counts)]], np.cumsum(counts[many]) - counts[many],
            axis=0)
    return total


def concat_cols(*tensors: Tensor) -> Tensor:
    if not tensors:
        raise ValueError("concat_cols needs at least one tensor")
    rows = tensors[0].rows
    for t in tensors[1:]:
        if t.rows != rows:
            raise ShapeMismatchError(
                f"concat_cols: row counts differ, {tensors[0].shape} vs {t.shape}")
    out_data = np.concatenate([t.data for t in tensors], axis=1)
    seams = np.cumsum([t.cols for t in tensors])[:-1]

    def backward(g, out):
        for t, piece in zip(tensors, np.split(g, seams, axis=1)):
            t.accumulate_grad(piece)

    return _node(out_data, "concat_cols", tensors, backward)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    out_data = x.data[:, start:stop]

    def backward(g, out):
        d = np.zeros_like(x.data)
        d[:, start:stop] = g
        x.accumulate_grad(d)

    return _node(out_data, "slice_cols", (x,), backward)


def take_per_row(x: Tensor, col_ids) -> Tensor:
    """Pick one entry per row (0-based column index); returns an m x 1 tensor."""
    idx = np.asarray(col_ids, dtype=np.int64).ravel()
    if idx.shape[0] != x.rows:
        raise ShapeMismatchError(f"take_per_row: {idx.shape[0]} indices for {x.rows} rows")
    bad = (idx < 0) | (idx >= x.cols)
    if bad.any():
        raise IndexOutOfRangeError(
            f"take_per_row: column {int(idx[bad][0])} outside [0, {x.cols})")
    r = np.arange(x.rows)
    out_data = x.data[r, idx].reshape(-1, 1)

    def backward(g, out):
        d = np.zeros_like(x.data)
        d[r, idx] = g[:, 0]
        x.accumulate_grad(d)

    return _node(out_data, "take_per_row", (x,), backward)


def tile_rows(x: Tensor, reps: int) -> Tensor:
    """Stack ``reps`` vertical copies of x; backward sums over the copies."""
    out_data = np.tile(x.data, (reps, 1))

    def backward(g, out):
        x.accumulate_grad(g.reshape(reps, x.rows, x.cols).sum(axis=0))

    return _node(out_data, "tile_rows", (x,), backward)


def attention_read(mem: Tensor, w: Tensor) -> Tensor:
    """Weighted row combination of a batched memory.

    mem is (B*N) x d (B stacked N x d blocks), w is B x N; returns B x d where
    row b is sum_i w[b,i] * mem_block_b[i].
    """
    B, N = w.shape
    if mem.rows != B * N:
        raise ShapeMismatchError(f"attention_read: mem {mem.shape} vs weights {w.shape}")
    d = mem.cols
    m3 = mem.data.reshape(B, N, d)
    out_data = np.einsum("bn,bnd->bd", w.data, m3)

    def backward(g, out):
        mem.accumulate_grad((w.data[:, :, None] * g[:, None, :]).reshape(B * N, d))
        w.accumulate_grad(np.einsum("bnd,bd->bn", m3, g))

    return _node(out_data, "attention_read", (mem, w), backward)


def memory_write(mem: Tensor, w: Tensor, erase: Tensor, add_vec: Tensor) -> Tensor:
    """Gated erase-then-add update of a batched memory.

    Per batch row b and slot i:
        out[b,i] = mem[b,i] * (1 - w[b,i] * erase[b]) + w[b,i] * add_vec[b]
    """
    B, N = w.shape
    d = mem.cols
    if mem.rows != B * N or erase.shape != (B, d) or add_vec.shape != (B, d):
        raise ShapeMismatchError(
            f"memory_write: mem {mem.shape}, w {w.shape}, e {erase.shape}, a {add_vec.shape}")
    m3 = mem.data.reshape(B, N, d)
    w3 = w.data[:, :, None]
    keep = 1.0 - w3 * erase.data[:, None, :]
    out3 = m3 * keep + w3 * add_vec.data[:, None, :]

    def backward(g, out):
        g3 = g.reshape(B, N, d)
        mem.accumulate_grad((g3 * keep).reshape(B * N, d))
        w.accumulate_grad(
            (g3 * (add_vec.data[:, None, :] - m3 * erase.data[:, None, :])).sum(axis=2))
        erase.accumulate_grad(-(g3 * m3 * w3).sum(axis=1))
        add_vec.accumulate_grad((g3 * w3).sum(axis=1))

    return _node(out3.reshape(B * N, d), "memory_write", (mem, w, erase, add_vec), backward)


# ---------------------------------------------------------------------------
# fused recurrences over the scored cells of a padded batch
#
# The S scored cells come row by row: batch row b owns the next lengths[b]
# cells, in time order.  Every row starts from the same initial state and runs
# its own cells in order.  A cell's inputs are one row of an input table: cell
# s uses row ids[s] (0-based), so an item that many cells share is stored and
# computed once, and backward sums the cells' gradients onto its row.  The
# scans hold the rows' states longest row first, so the rows with a k-th cell
# are always the leading rows of the state, and step k updates a view of it
# in place.


def _row_lengths(lengths, S):
    """``lengths`` as int64, checked to be one count >= 0 per row summing to S."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or (lengths < 0).any() or lengths.sum() != S:
        raise ShapeMismatchError(
            f"scan lengths must be one count >= 0 per row, summing to {S} cells")
    return lengths


def _time_blocks(lengths, S):
    """Return (order, blocks) for row lengths already checked by
    ``_row_lengths``: step k is a block (lo, hi) whose cells ``order[lo:hi]``
    are the k-th cells of the hi - lo longest rows, longest first (ties in
    row order)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    rank = np.argsort(-lengths, kind="stable")
    longest = int(lengths.max(initial=0))
    # rows with a k-th cell: the ranked lengths are descending
    counts = np.searchsorted(-lengths[rank], -np.arange(longest))
    bounds = np.r_[0, np.cumsum(counts)]
    starts = (np.cumsum(lengths) - lengths)[rank]
    step = np.repeat(np.arange(longest), counts)
    order = starts[np.arange(S) - bounds[step]] + step
    return order, list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


def _table_ids(ids, rows, op="scan"):
    """Each cell's 0-based row in an input table of ``rows`` rows."""
    ids = np.asarray(ids, dtype=np.int64).ravel()
    bad = (ids < 0) | (ids >= rows)
    if bad.any():
        raise IndexOutOfRangeError(f"{op} id {int(ids[bad][0])} outside [0, {rows})")
    return ids


# no-grad memory scans run their rows in groups of about this many bytes of
# live memory, so that each group's state stays in a core's cache
GROUP_BYTES = 1 << 18

# a grad memory scan keeps each cell's memory (S x N x d) while it fits in
# this many bytes; a larger history keeps every K-th block's memory only
# (K = ceil(sqrt(T)) of T blocks) and backward recomputes the rest.  Below
# it, keeping all of them is cheaper: checkpointing at the training shape
# (a 12.8 MB history) cost about 8% of the scan's forward plus backward,
# while a history past 32 MiB is above glibc's largest mmap threshold, so
# it is page-faulted in afresh on every batch anyway
HISTORY_BYTES = 1 << 25


def memory_scan(mem0: Tensor, w: Tensor, erase: Tensor, add_vec: Tensor,
                ids, lengths) -> Tensor:
    """DKVMN value-memory recurrence; returns the S x d read vectors.

    w (P x N), erase and add_vec (P x d) are input tables, and cell s uses
    their row j = ids[s].  Each row's memory starts as mem0 (N x d).  Cell s
    reads its row's memory before writing it:
        r[s]   = sum_i w[j,i] * M[i]
        M[i]  <- M[i] * keep[j,i] + put[j,i]
    with keep = 1 - w (x) erase and put = w (x) add_vec.  When the two
    P x N x d factor tables are no larger than what the scan holds anyway
    they are built once per call and each block gathers its rows from them;
    otherwise each block forms its rows into a reused buffer.  Both give the
    same bits.  Each block gathers its cells' input rows by id, with or
    without a gradient, and its reads go straight to their cells' rows.

    When a gradient is needed, all rows run as one group: forward keeps the
    memory each cell read (S x N x d), and the reverse-scan backward carries
    the gradient in the forward's form, G <- G * keep + w (x) g_read.  A
    history above HISTORY_BYTES is kept at the first of every K blocks only
    (about S / K cells); backward walks those segments last to first and
    recomputes each one's memories with the forward's own write, so the
    gradients keep their bits.  The tables are built when they are no larger
    than the memory kept (2PK <= S, K = 1 for a whole history), so they
    never undo the checkpoints.  Without a gradient, rows never interact, so
    they run in groups of about GROUP_BYTES of memory, each with its own
    time blocks and live memory, and the tables are built when they are no
    larger than the S x d output (2PN <= S).
    """
    P, N = w.shape
    d = mem0.cols
    if mem0.rows != N or erase.shape != (P, d) or add_vec.shape != (P, d):
        raise ShapeMismatchError(
            f"memory_scan: mem0 {mem0.shape}, w {w.shape}, e {erase.shape}, "
            f"a {add_vec.shape}")
    ids = _table_ids(ids, P)
    S = len(ids)
    lengths = _row_lengths(lengths, S)
    B = len(lengths)
    save = _needs_grad((mem0, w, erase, add_vec))
    # a grad scan keeps the memory of the first of every K time blocks
    K = 1 if 8 * S * N * d <= HISTORY_BYTES else 1 + math.isqrt(int(lengths.max()) - 1)
    tables = 2 * P * K <= S if save else 2 * P * N <= S
    if tables:
        keep = np.einsum("pn,pd->pnd", w.data, erase.data)
        np.subtract(1.0, keep, out=keep)
        put = np.einsum("pn,pd->pnd", w.data, add_vec.data)

    def keep_rows(f, j, wb):
        """keep for the cells of rows j (w rows wb), into the buffer f."""
        if tables:    # ids are checked, and "clip" skips take's buffering
            return np.take(keep, j, axis=0, out=f, mode="clip")
        np.einsum("bn,bd->bnd", wb, erase.data[j], out=f)
        return np.subtract(1.0, f, out=f)

    def write(m, f, j, wb):
        """M <- M * keep + put on the memories m of the cells of rows j."""
        m *= keep_rows(f, j, wb)
        m += (np.take(put, j, axis=0, out=f, mode="clip") if tables
              else np.einsum("bn,bd->bnd", wb, add_vec.data[j], out=f))

    size = max(1, B if save else min(B, GROUP_BYTES // (8 * N * d)))
    mem, buf = np.empty((size, N, d)), np.empty((size, N, d))
    first = np.r_[0, np.cumsum(lengths)]     # row b owns cells first[b]:first[b + 1]
    reads = np.empty((S, d))
    for g0 in range(0, max(B, 1), size):
        g1 = min(g0 + size, B)
        order, blocks = _time_blocks(lengths[g0:g1], first[g1] - first[g0])
        order += first[g0]
        rows = ids[order]
        if save:
            # the memory read by the first block of each segment of K
            spots = np.cumsum([0] + [hi - lo for lo, hi in blocks[::K]]).tolist()
            kept = np.empty((spots[-1], N, d))
        mem[:] = mem0.data
        for t, (lo, hi) in enumerate(blocks):
            m, f, j = mem[:hi - lo], buf[:hi - lo], rows[lo:hi]
            if save and t % K == 0:
                kept[spots[t // K]:spots[t // K + 1]] = m
            wb = w.data[j]
            reads[order[lo:hi]] = np.matmul(wb[:, None, :], m)[:, 0, :]
            write(m, f, j, wb)

    # with a gradient there is one group, so order and blocks cover all rows
    def backward(g, out):
        gs = g[order]
        gmem = np.zeros((B, N, d))   # d loss / d memory after a step
        # each cell's gradients on its w, erase and add rows, side by side so
        # that one pass sums them onto the tables
        g_in = np.empty((S, N + 2 * d))
        gw, ge, ga = g_in[:, :N], g_in[:, N:N + d], g_in[:, N + d:]
        buf_gm, buf = np.empty((B, N, d)), np.empty((B, N, d))
        # a segment's memories after its checkpoint (blocks shrink, so the
        # first segment has the most)
        redo = np.empty((sum(hi - lo for lo, hi in blocks[1:K]), N, d))
        for c in reversed(range(len(spots) - 1)):
            seg = blocks[c * K:(c + 1) * K]
            mems, base = [kept[spots[c]:spots[c + 1]]], seg[0][1]
            for (lo, _), (nlo, nhi) in zip(seg, seg[1:]):
                n = nhi - nlo
                m = redo[nlo - base:nhi - base]
                m[:] = mems[-1][:n]
                j = rows[lo:lo + n]
                write(m, buf[:n], j, w.data[j])
                mems.append(m)
            for (lo, hi), m in zip(reversed(seg), reversed(mems)):
                gm, f, j, gr = gmem[:hi - lo], buf[:hi - lo], rows[lo:hi], gs[lo:hi]
                wb = w.data[j]
                w_row = wb[:, None, :]
                gm_m = np.multiply(gm, m, out=buf_gm[:hi - lo])
                gw[lo:hi] = (np.matmul(gm, add_vec.data[j][:, :, None])
                             - np.matmul(gm_m, erase.data[j][:, :, None])
                             + np.matmul(m, gr[:, :, None]))[:, :, 0]
                ge[lo:hi] = -np.matmul(w_row, gm_m)[:, 0, :]
                ga[lo:hi] = np.matmul(w_row, gm)[:, 0, :]
                # the gradient before the write: G * keep + w (x) g_read, in place
                gm *= keep_rows(f, j, wb)
                gm += np.einsum("bn,bd->bnd", wb, gr, out=f)
        mem0.accumulate_grad(gmem.sum(axis=0), own=True)
        # disjoint column blocks of one fresh table
        g_tables = _sum_onto_rows(ids, P, g_in, order)
        w.accumulate_grad(g_tables[:, :N], own=True)
        erase.accumulate_grad(g_tables[:, N:N + d], own=True)
        add_vec.accumulate_grad(g_tables[:, N + d:], own=True)

    return _node(reads, "memory_scan", (mem0, w, erase, add_vec), backward)


def lstm_scan(x: Tensor, ids, w_h: Tensor, lengths) -> Tensor:
    """LSTM recurrence; returns the S x h hidden state after each cell.

    x is a table of input pre-activations (P x 4h, gate order
    input/forget/cell/output), and cell s uses its row ids[s].  Each row
    starts from h = c = 0, and cell s runs
        z = x[ids[s]] + h @ w_h
        c <- sigmoid(z_f) * c + sigmoid(z_i) * tanh(z_g)
        h <- sigmoid(z_o) * tanh(c)
    One tanh gives all four gates, as sigmoid(z) = 1/2 + tanh(z/2)/2: the
    halving is exact, so it is folded into the sigmoid columns of w_h and x.
    Each block reads its input rows from the table and writes its hidden
    states straight to their cells' rows.  Forward keeps each cell's gates
    and states when a gradient is needed; backward is a reverse scan.
    """
    P = x.rows
    hs = w_h.rows
    if w_h.cols != 4 * hs or x.cols != 4 * hs:
        raise ShapeMismatchError(f"lstm_scan: x {x.shape}, w_h {w_h.shape}")
    ids = _table_ids(ids, P)
    S = len(ids)
    lengths = _row_lengths(lengths, S)
    order, blocks = _time_blocks(lengths, S)
    B = len(lengths)
    half = np.full(4 * hs, 0.5)
    half[2 * hs:3 * hs] = 1.0           # the cell gate is a plain tanh
    shift = 1.0 - half                  # sigmoid = half * tanh + 1/2
    w_half = w_h.data * half
    h_state, c_state = np.zeros((B, hs)), np.zeros((B, hs))
    save = _needs_grad((x, w_h))
    if save:
        gates = np.empty((S, 4 * hs))
        h_prev, c_prev, tanh_c = np.empty((S, hs)), np.empty((S, hs)), np.empty((S, hs))
    h_out = np.empty((S, hs))
    for lo, hi in blocks:
        cells, h, c = order[lo:hi], h_state[:hi - lo], c_state[:hi - lo]
        gt = x.data[ids[cells]]
        gt *= half
        gt += h @ w_half
        np.tanh(gt, out=gt)
        gt *= half
        gt += shift
        if save:
            h_prev[lo:hi], c_prev[lo:hi] = h, c
        c *= gt[:, hs:2 * hs]
        c += gt[:, :hs] * gt[:, 2 * hs:3 * hs]
        tc = np.tanh(c)
        np.multiply(gt[:, 3 * hs:], tc, out=h)
        h_out[cells] = h
        if save:
            gates[lo:hi], tanh_c[lo:hi] = gt, tc

    def backward(g, out):
        gs = g[order]
        dh_state, dc_state = np.zeros((B, hs)), np.zeros((B, hs))
        dz = np.empty((S, 4 * hs))
        for lo, hi in reversed(blocks):
            dh, dc = gs[lo:hi] + dh_state[:hi - lo], dc_state[:hi - lo]
            gt, tc = gates[lo:hi], tanh_c[lo:hi]
            i_g, f_g = gt[:, :hs], gt[:, hs:2 * hs]
            g_g, o_g = gt[:, 2 * hs:3 * hs], gt[:, 3 * hs:]
            dc += dh * o_g * (1.0 - tc * tc)
            dzt = dz[lo:hi]
            dzt[:, :hs] = dc * g_g * i_g * (1.0 - i_g)
            dzt[:, hs:2 * hs] = dc * c_prev[lo:hi] * f_g * (1.0 - f_g)
            dzt[:, 2 * hs:3 * hs] = dc * i_g * (1.0 - g_g * g_g)
            dzt[:, 3 * hs:] = dh * tc * o_g * (1.0 - o_g)
            np.matmul(dzt, w_h.data.T, out=dh_state[:hi - lo])
            dc *= f_g
        x.accumulate_grad(_sum_onto_rows(ids, P, dz, order), own=True)
        w_h.accumulate_grad(h_prev.T @ dz, own=True)

    return _node(h_out, "lstm_scan", (x, w_h), backward)


# ---------------------------------------------------------------------------
# fused heads over the scored cells
#
# Each writes one S-row output and gathers its cells' table rows in chunks
# of about GROUP_BYTES, so no S-sized gathered copy is ever held.


def _chunks(S, cols):
    """Slices of about GROUP_BYTES of ``cols``-wide float64 rows covering S."""
    step = max(1, GROUP_BYTES // (8 * cols))
    return [slice(lo, lo + step) for lo in range(0, S, step)]


def summary_layer(r: Tensor, k: Tensor, w_f: Tensor, b_f: Tensor, ids) -> Tensor:
    """DKVMN's summary layer; returns the S x f features
        f[s] = tanh(r[s] @ w_f[:d] + (k @ w_f[d:] + b_f)[ids[s]])
    of the read vectors r (S x d) and the key table k (P x d), which cell s
    reads at its 0-based row ids[s].  The key half is computed once per row
    of k.  The read half is one gemm over all cells, so each cell's bits do
    not depend on how the cells are chunked.
    """
    P, d = k.shape
    S = r.rows
    if r.cols != d or w_f.rows != 2 * d or b_f.shape != (1, w_f.cols):
        raise ShapeMismatchError(
            f"summary_layer: r {r.shape}, k {k.shape}, w_f {w_f.shape}, b_f {b_f.shape}")
    ids = _table_ids(ids, P, "summary_layer")
    if len(ids) != S:
        raise ShapeMismatchError(f"summary_layer: {len(ids)} ids for {S} reads")
    w_read, w_key = w_f.data[:d], w_f.data[d:]
    key = k.data @ w_key + b_f.data
    f = r.data @ w_read
    for c in _chunks(S, f.shape[1]):
        fc = f[c]
        fc += key[ids[c]]
        np.tanh(fc, out=fc)

    def backward(g, out):
        gz = np.multiply(out.data, out.data)       # g * (1 - f^2)
        np.subtract(1.0, gz, out=gz)
        gz *= g
        g_key = _sum_onto_rows(ids, P, gz)
        r.accumulate_grad(gz @ w_read.T, own=True)
        k.accumulate_grad(g_key @ w_key.T, own=True)
        w_f.accumulate_grad(np.vstack([r.data.T @ gz, k.data.T @ g_key]), own=True)
        b_f.accumulate_grad(g_key.sum(axis=0, keepdims=True), own=True)

    return _node(f, "summary_layer", (r, k, w_f, b_f), backward)


def column_readout(h: Tensor, w: Tensor, b: Tensor, q) -> Tensor:
    """DKT's output for the question each cell asks; returns the S x 1 logits
        z[s] = h[s] @ w[:, q[s]] + b[0, q[s]]
    of the hidden states h (S x h) against the columns of w (h x Q) and b
    (1 x Q) that the 1-based question ids q pick.
    """
    hs, Q = w.shape
    if h.cols != hs or b.shape != (1, Q):
        raise ShapeMismatchError(f"column_readout: h {h.shape}, w {w.shape}, b {b.shape}")
    cols = _zero_based(q, Q, "column_readout")
    S = h.rows
    if len(cols) != S:
        raise ShapeMismatchError(f"column_readout: {len(cols)} ids for {S} rows")
    w_t = np.ascontiguousarray(w.data.T)     # question j's weights in row j
    z = np.empty((S, 1))
    for c in _chunks(S, hs):
        np.einsum("sh,sh->s", h.data[c], w_t[cols[c]], out=z[c, 0])
    z[:, 0] += b.data[0, cols]

    def backward(g, out):
        h.accumulate_grad(g * w_t[cols], own=True)
        g_cells = np.empty((S, hs + 1))     # each cell's w and b gradients
        np.multiply(g, h.data, out=g_cells[:, :hs])
        g_cells[:, hs:] = g
        # disjoint column blocks of one fresh table
        g_tables = _sum_onto_rows(cols, Q, g_cells)
        w.accumulate_grad(g_tables[:, :hs].T, own=True)
        b.accumulate_grad(g_tables[:, hs:].T, own=True)

    return _node(z, "column_readout", (h, w, b), backward)


def binary_cross_entropy(p: Tensor, targets, mask, eps: float = 1e-7) -> Tensor:
    """Masked summed cross-entropy; probabilities are clamped to [eps, 1-eps]."""
    y = np.asarray(targets, dtype=np.float64)
    m = np.asarray(mask, dtype=np.float64)
    if y.shape != p.shape or m.shape != p.shape:
        raise ShapeMismatchError(
            f"binary_cross_entropy: p {p.shape}, targets {y.shape}, mask {m.shape}")
    pc = np.clip(p.data, eps, 1.0 - eps)
    loss = -(m * (y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))).sum()
    inside = (p.data > eps) & (p.data < 1.0 - eps)

    def backward(g, out):
        d = np.where(inside, m * (pc - y) / (pc * (1.0 - pc)), 0.0)
        p.accumulate_grad(g[0, 0] * d)

    return _node([[loss]], "bce", (p,), backward)


# ---------------------------------------------------------------------------
# backward traversal


def backward(loss: Tensor) -> None:
    """Reverse-topological sweep filling .grad on every requires_grad ancestor."""
    if loss.data.shape != (1, 1):
        raise GraphError(f"backward needs a 1x1 loss tensor, got shape {loss.shape}")
    if not loss.requires_grad:
        raise GraphError("backward needs a loss that requires grad; this one was "
                         "built from constants only")
    nodes = []
    visited = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in visited or not node.requires_grad:
            continue
        if node._parents is None:
            raise GraphError("backward already ran through this graph; build "
                             "a new one")
        visited.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    # run consumers before producers, popping by descending creation id:
    # inputs always predate outputs, so this is a reverse topological order,
    # and one whose gradient accumulation order does not depend on unrelated
    # graph suffixes
    nodes.sort(key=lambda n: n._uid)
    loss.accumulate_grad(np.ones((1, 1)))
    # the graph goes as the sweep runs: each op drops its closure and parents
    # (None parents mark a consumed node), and every op but the loss its
    # gradient, and the sweep drops the node, so what only backward reads (a
    # scan's saved states) and each node's data are freed mid-sweep.  Leaves
    # and the loss keep their gradients
    while nodes:
        node = nodes.pop()
        step = node._backward
        if step is not None:
            node._backward = node._parents = None
            if node.grad is not None:
                step(node.grad, node)
                if node is not loss:
                    node.grad = None


# ---------------------------------------------------------------------------
# optimization


def clip_global_norm(grads, threshold: float) -> float:
    """Scale all gradient arrays in place so their joint L2 norm is <= threshold.

    Returns the applied scale factor (1.0 when no clipping happened).  A NaN
    or infinite norm raises FloatingPointError and leaves the arrays alone.
    """
    if threshold <= 0:
        raise ValueError(f"clip threshold must be positive, got {threshold}")
    total = 0.0
    for g in grads:
        total += float((g * g).sum())
    norm = np.sqrt(total)
    if not np.isfinite(norm):
        raise FloatingPointError(f"non-finite gradient norm {norm}")
    if norm <= threshold or norm == 0.0:
        return 1.0
    factor = threshold / norm
    for g in grads:
        g *= factor
    return factor


class AdamState:
    """Per-parameter first/second moment accumulators for Adam."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self.m = {}
        self.v = {}


def adam_step(params, state: AdamState, lr: float) -> None:
    """One Adam update over a stable-ordered parameter list; zeroes grads after.

    Parameters with no gradient this step are treated as having zero gradient
    (their moments still decay).
    """
    state.step_count += 1
    t = state.step_count
    b1, b2, eps = state.beta1, state.beta2, state.epsilon
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    for i, p in enumerate(params):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if i not in state.m:
            state.m[i] = np.zeros_like(p.data)
            state.v[i] = np.zeros_like(p.data)
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * g * g
        m_hat = state.m[i] / bias1
        v_hat = state.v[i] / bias2
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
        p.grad = None
