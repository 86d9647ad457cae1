import tracemalloc

import numpy as np
import pytest

from deepkt import autodiff as ad
from deepkt.autodiff import (AdamState, ShapeMismatchError, Tensor, adam_step,
                             backward, clip_global_norm)

from conftest import check_gradients


def sum_all(x):
    """1x1 sum of every entry: the scalar loss the gradient checks use."""
    def backward(g, out):
        x.accumulate_grad(np.full_like(x.data, g[0, 0]))

    return ad._node([[x.data.sum()]], "sum_all", (x,), backward)


def scalar_loss(t):
    return sum_all(t)


class TestGemm:
    def test_identity(self, rng):
        x = Tensor(rng.normal(size=(2, 5)))
        out = ad.gemm(Tensor(np.eye(2)), x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_direct_arithmetic(self):
        out = ad.gemm(Tensor([[1, 2], [3, 4]]), Tensor([[1], [1]]))
        np.testing.assert_array_equal(out.data, [[3], [7]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.gemm(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_vs_finite_differences(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

        def loss_fn(return_tensor=False):
            out = scalar_loss(ad.sigmoid(ad.gemm(a, b)))
            return out if return_tensor else out.item()

        check_gradients(loss_fn, [a, b], rng, n_samples=10, rtol=1e-6)


class TestActivation:
    def test_sigmoid_zero(self):
        assert ad.activation(Tensor([[0.0]]), "sigmoid").item() == 0.5

    def test_sigmoid_two(self):
        # the scaled-IRT motivating value: sigma(2) = 0.881 to 3 d.p.
        assert ad.activation(Tensor([[2.0]]), "sigmoid").item() == pytest.approx(0.881, abs=5e-4)

    def test_no_overflow_for_extreme_inputs(self):
        out = ad.sigmoid(Tensor([[-1e4, 1e4]]))
        assert np.all(np.isfinite(out.data))

    def test_sigmoid_matches_branchwise_formula_exactly(self, rng):
        x = np.concatenate([rng.normal(size=2000) * s for s in (1e-3, 1, 30, 800)]
                           + [[0.0, -0.0, np.inf, -np.inf]])
        pos = x >= 0
        expect = np.empty_like(x)
        expect[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        expect[~pos] = np.exp(x[~pos]) / (1.0 + np.exp(x[~pos]))
        np.testing.assert_array_equal(ad.sigmoid(Tensor(x)).data[0], expect)

    def test_tanh_gradient(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)

        def loss_fn(return_tensor=False):
            out = scalar_loss(ad.tanh(x))
            return out if return_tensor else out.item()

        check_gradients(loss_fn, [x], rng, n_samples=6, rtol=1e-6)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ad.activation(Tensor([[0.0]]), "relu")


class TestSoftmaxRows:
    def test_equal_logits(self):
        out = ad.softmax_rows(Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_single_column(self):
        for c in (-3.0, 0.0, 17.5):
            assert ad.softmax_rows(Tensor([[c]])).item() == 1.0

    def test_matches_direct_formula(self):
        x = np.array([[1.0, 2.0, 3.0]])
        expected = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(ad.softmax_rows(Tensor(x)).data, expected, atol=1e-12)

    def test_rows_sum_to_one_and_shift_invariant(self, rng):
        x = rng.normal(size=(5, 7)) * 10
        out = ad.softmax_rows(Tensor(x)).data
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        shifted = ad.softmax_rows(Tensor(x + rng.normal(size=(5, 1)))).data
        np.testing.assert_allclose(out, shifted, atol=1e-12)

    def test_gradient(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 1)))

        def loss_fn(return_tensor=False):
            out = scalar_loss(ad.gemm(ad.softmax_rows(x), w))
            return out if return_tensor else out.item()

        check_gradients(loss_fn, [x], rng, n_samples=8, rtol=1e-5)


class TestGatherRows:
    def test_single_row_table(self):
        table = Tensor([[1.0, 2.0, 3.0]])
        out = ad.gather_rows(table, [1])
        np.testing.assert_array_equal(out.data, table.data)

    def test_repeated_ids_accumulate(self, rng):
        table = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        out = ad.gather_rows(table, [2, 2])
        g = rng.normal(size=(2, 4))
        loss = sum_all(ad.mul(out, Tensor(g)))
        backward(loss)
        np.testing.assert_allclose(table.grad[1], g.sum(axis=0))
        np.testing.assert_allclose(table.grad[[0, 2]], 0.0)

    def test_scatter_matches_loop_oracle(self, rng):
        table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        ids = rng.integers(1, 7, size=10)
        out = ad.gather_rows(table, ids)
        g = rng.normal(size=(10, 3))
        backward(sum_all(ad.mul(out, Tensor(g))))
        expected = np.zeros((6, 3))
        for row, i in enumerate(ids):
            expected[i - 1] += g[row]
        np.testing.assert_allclose(table.grad, expected)

    def test_out_of_range_id_reported(self):
        with pytest.raises(IndexError, match="9"):
            ad.gather_rows(Tensor(np.zeros((4, 2))), [1, 9])


class TestConcatCols:
    def test_basic(self):
        out = ad.concat_cols(Tensor([[1.0, 2.0]]), Tensor([[3.0]]))
        np.testing.assert_array_equal(out.data, [[1, 2, 3]])

    def test_empty_identity(self, rng):
        x = Tensor(rng.normal(size=(2, 3)))
        out = ad.concat_cols(x, Tensor(np.zeros((2, 0))))
        np.testing.assert_array_equal(out.data, x.data)

    def test_row_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ad.concat_cols(Tensor(np.zeros((2, 1))), Tensor(np.zeros((3, 1))))

    def test_gradient_split(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 1)))

        def loss_fn(return_tensor=False):
            out = scalar_loss(ad.tanh(ad.gemm(ad.concat_cols(a, b), w)))
            return out if return_tensor else out.item()

        check_gradients(loss_fn, [a, b], rng, n_samples=8, rtol=1e-6)


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        backward(sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 2)))

    def test_fanout_adds_branch_gradients(self, rng):
        x_data = rng.normal(size=(2, 2))

        def run(both):
            x = Tensor(x_data, requires_grad=True)
            y = ad.tanh(x)
            if both == "a":
                loss = sum_all(ad.sigmoid(y))
            elif both == "b":
                loss = sum_all(ad.mul(y, y))
            else:
                loss = sum_all(ad.sigmoid(y)) + sum_all(ad.mul(y, y))
            backward(loss)
            return x.grad

        np.testing.assert_allclose(run("both"), run("a") + run("b"), atol=1e-14)

    def test_non_scalar_loss_rejected(self, rng):
        with pytest.raises(ad.GraphError):
            backward(Tensor(rng.normal(size=(2, 2)), requires_grad=True))

    def test_deep_chain_no_recursion_limit(self):
        x = Tensor([[0.1]], requires_grad=True)
        y = x
        for _ in range(5000):
            y = ad.scale(y, 1.0001)
        backward(sum_all(y))
        assert x.grad is not None


class TestOtherOps:
    def test_take_per_row(self, rng):
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        cols = [0, 3, 2, 4]
        out = ad.take_per_row(x, cols)
        np.testing.assert_array_equal(out.data[:, 0], x.data[np.arange(4), cols])
        backward(sum_all(out))
        expected = np.zeros((4, 5))
        expected[np.arange(4), cols] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_tile_rows_backward_sums_copies(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        out = ad.tile_rows(x, 4)
        assert out.shape == (8, 3)
        backward(sum_all(out))
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 4.0))

    def test_attention_read_matches_loop(self, rng):
        B, N, d = 3, 4, 5
        mem = Tensor(rng.normal(size=(B * N, d)), requires_grad=True)
        w = Tensor(rng.normal(size=(B, N)), requires_grad=True)
        out = ad.attention_read(mem, w)
        m3 = mem.data.reshape(B, N, d)
        for b in range(B):
            np.testing.assert_allclose(out.data[b], w.data[b] @ m3[b], atol=1e-12)

        def loss_fn(return_tensor=False):
            t = scalar_loss(ad.tanh(ad.attention_read(mem, w)))
            return t if return_tensor else t.item()

        check_gradients(loss_fn, [mem, w], rng, n_samples=10, rtol=1e-6)

    def test_memory_write_matches_elementwise_oracle(self, rng):
        B, N, d = 2, 3, 4
        mem = Tensor(rng.normal(size=(B * N, d)), requires_grad=True)
        w = Tensor(rng.random(size=(B, N)), requires_grad=True)
        e = Tensor(rng.random(size=(B, d)), requires_grad=True)
        a = Tensor(rng.normal(size=(B, d)), requires_grad=True)
        out = ad.memory_write(mem, w, e, a)
        for b in range(B):
            for i in range(N):
                expect = (mem.data.reshape(B, N, d)[b, i] * (1 - w.data[b, i] * e.data[b])
                          + w.data[b, i] * a.data[b])
                np.testing.assert_allclose(out.data.reshape(B, N, d)[b, i], expect,
                                           atol=1e-12)

        def loss_fn(return_tensor=False):
            t = scalar_loss(ad.tanh(ad.memory_write(mem, w, e, a)))
            return t if return_tensor else t.item()

        check_gradients(loss_fn, [mem, w, e, a], rng, n_samples=12, rtol=1e-5)

    def test_bce_loss_gradient(self, rng):
        logits = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        y = rng.integers(0, 2, size=(2, 4))
        mask = np.array([[1, 1, 0, 1], [1, 0, 1, 1]])

        def loss_fn(return_tensor=False):
            t = ad.binary_cross_entropy(ad.sigmoid(logits), y, mask)
            return t if return_tensor else t.item()

        check_gradients(loss_fn, [logits], rng, n_samples=8, rtol=1e-5)


def ragged_cells(lengths, steps):
    """Scored cells of rows with the given prefix lengths, row by row."""
    rows = np.repeat(np.arange(len(lengths)), lengths)
    cols = np.concatenate([np.arange(n) for n in lengths])
    assert cols.max() < steps
    return rows, cols


def memory_scan_loop(mem0, w, e, a, rows, cols, batch_rows):
    """Cell-by-cell oracle for memory_scan."""
    mem = [mem0.copy() for _ in range(batch_rows)]
    reads = np.zeros((len(rows), mem0.shape[1]))
    for s in sorted(range(len(rows)), key=lambda s: (cols[s], rows[s])):
        m = mem[rows[s]]
        reads[s] = w[s] @ m
        mem[rows[s]] = m * (1 - np.outer(w[s], e[s])) + np.outer(w[s], a[s])
    return reads


def lstm_scan_loop(x, w_h, rows, cols, batch_rows):
    """Cell-by-cell oracle for lstm_scan."""
    hs = w_h.shape[0]
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    h = np.zeros((batch_rows, hs))
    c = np.zeros((batch_rows, hs))
    out = np.zeros((len(rows), hs))
    for s in sorted(range(len(rows)), key=lambda s: (cols[s], rows[s])):
        b = rows[s]
        z = x[s] + h[b] @ w_h
        c[b] = sig(z[hs:2 * hs]) * c[b] + sig(z[:hs]) * np.tanh(z[2 * hs:3 * hs])
        h[b] = sig(z[3 * hs:]) * np.tanh(c[b])
        out[s] = h[b]
    return out


class TestTimeBlocks:
    def test_step_t_takes_row_starts_plus_t_longest_first(self):
        # rows start at cells 0, 5, 7 and 7; the rank is rows 0, 3, 1 (2 is empty)
        order, blocks = ad._time_blocks([5, 2, 0, 4], 11)
        assert blocks == [(0, 3), (3, 6), (6, 8), (8, 10), (10, 11)]
        np.testing.assert_array_equal(order, [0, 7, 5, 1, 8, 6, 2, 9, 3, 10, 4])

    def test_no_cells(self, rng):
        mem0, w, e, a = TestMemoryScan().inputs(rng, [0, 0])
        x, w_h = TestLstmScan().inputs(rng, [0, 0])
        no_ids = np.arange(0)
        assert ad.memory_scan(mem0, w, e, a, no_ids, [0, 0]).shape == (0, 4)
        assert ad.lstm_scan(x, no_ids, w_h, [0, 0]).shape == (0, 3)

    @pytest.mark.parametrize("lengths", [[-1, 3], [[1, 1]], [1, 2]])
    def test_rejects_lengths_that_are_not_row_counts(self, rng, lengths):
        mem0, w, e, a = TestMemoryScan().inputs(rng, [2])
        x, w_h = TestLstmScan().inputs(rng, [2])
        with pytest.raises(ShapeMismatchError):
            ad.memory_scan(mem0, w, e, a, np.arange(2), lengths)
        with pytest.raises(ShapeMismatchError):
            ad.lstm_scan(x, np.arange(2), w_h, lengths)


class TestMemoryScan:
    def inputs(self, rng, lengths, N=3, d=4):
        S = sum(lengths)
        mem0 = Tensor(rng.normal(size=(N, d)), requires_grad=True)
        w = Tensor(rng.dirichlet(np.ones(N), size=S), requires_grad=True)
        e = Tensor(rng.random(size=(S, d)), requires_grad=True)
        a = Tensor(rng.normal(size=(S, d)), requires_grad=True)
        return mem0, w, e, a

    def test_matches_cell_loop(self, rng):
        lengths = [5, 2, 0, 4]
        mem0, w, e, a = self.inputs(rng, lengths)
        rows, cols = ragged_cells(lengths, 6)
        out = ad.memory_scan(mem0, w, e, a, np.arange(11), lengths)
        expect = memory_scan_loop(mem0.data, w.data, e.data, a.data, rows, cols, 4)
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_first_read_is_initial_memory(self, rng):
        mem0, w, e, a = self.inputs(rng, [1, 1])
        out = ad.memory_scan(mem0, w, e, a, np.arange(2), [1, 1])
        np.testing.assert_allclose(out.data, w.data @ mem0.data, atol=1e-12)

    def test_gradient_vs_finite_differences(self, rng):
        lengths = [4, 1, 3]
        mem0, w, e, a = self.inputs(rng, lengths)
        target = rng.normal(size=(sum(lengths), 4))

        def loss_fn(return_tensor=False):
            r = ad.memory_scan(mem0, w, e, a, np.arange(8), lengths)
            t = scalar_loss(ad.tanh(ad.mul(r, Tensor(target))))
            return t if return_tensor else t.item()

        check_gradients(loss_fn, [mem0, w, e, a], rng, n_samples=30, rtol=1e-6)

    def test_shape_check(self, rng):
        mem0, w, e, a = self.inputs(rng, [2])
        with pytest.raises(ShapeMismatchError):
            ad.memory_scan(mem0, w, Tensor(np.zeros((2, 5))), a, np.arange(2), [2])


class TestLstmScan:
    def inputs(self, rng, lengths, hs=3):
        x = Tensor(rng.normal(size=(sum(lengths), 4 * hs)), requires_grad=True)
        w_h = Tensor(rng.normal(size=(hs, 4 * hs)) * 0.5, requires_grad=True)
        return x, w_h

    def test_matches_cell_loop(self, rng):
        lengths = [3, 0, 5, 1]
        rows, cols = ragged_cells(lengths, 5)
        # the larger scale drives |z| past 30, into the gates' saturated tails
        for scale in (1.0, 40.0):
            x, w_h = self.inputs(rng, lengths)
            x.data *= scale
            out = ad.lstm_scan(x, np.arange(9), w_h, lengths)
            expect = lstm_scan_loop(x.data, w_h.data, rows, cols, 4)
            np.testing.assert_allclose(out.data, expect, atol=1e-12)
        assert np.abs(x.data).max() > 30

    def test_gradient_vs_finite_differences(self, rng):
        lengths = [4, 2, 3]
        x, w_h = self.inputs(rng, lengths)
        target = rng.normal(size=(sum(lengths), 3))

        def loss_fn(return_tensor=False):
            h = ad.lstm_scan(x, np.arange(9), w_h, lengths)
            t = scalar_loss(ad.mul(h, Tensor(target)))
            return t if return_tensor else t.item()

        check_gradients(loss_fn, [x, w_h], rng, n_samples=30, rtol=1e-6)

    def test_shape_check(self, rng):
        x, _ = self.inputs(rng, [2])
        with pytest.raises(ShapeMismatchError):
            ad.lstm_scan(x, np.arange(2), Tensor(np.zeros((3, 8))), [2])


class TestTableIds:
    """Both scans read cell s's inputs from row ids[s] of a P-row table.
    With repeated ids (P < S) they equal the scans of the gathered per-cell
    inputs, and backward sums the cells' gradients onto the table rows."""

    LENGTHS = [5, 2, 0, 4]
    P = 5

    def ids(self, rng):
        # 11 cells on rows 0-3 of the table: repeats, and row 4 unused
        return rng.integers(0, self.P - 1, size=sum(self.LENGTHS))

    def memory_inputs(self, rng):
        return TestMemoryScan().inputs(rng, [self.P])

    def lstm_inputs(self, rng):
        return TestLstmScan().inputs(rng, [self.P])

    def test_memory_scan_matches_cell_loop_on_gathered_inputs(self, rng):
        mem0, w, e, a = self.memory_inputs(rng)
        ids = self.ids(rng)
        rows, cols = ragged_cells(self.LENGTHS, 6)
        out = ad.memory_scan(mem0, w, e, a, ids, self.LENGTHS)
        expect = memory_scan_loop(mem0.data, w.data[ids], e.data[ids],
                                  a.data[ids], rows, cols, 4)
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_lstm_scan_matches_cell_loop_on_gathered_inputs(self, rng):
        x, w_h = self.lstm_inputs(rng)
        ids = self.ids(rng)
        rows, cols = ragged_cells(self.LENGTHS, 6)
        out = ad.lstm_scan(x, ids, w_h, self.LENGTHS)
        expect = lstm_scan_loop(x.data[ids], w_h.data, rows, cols, 4)
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def scan_grads(self, scan, params, tables, ids, gathered, target):
        """Every parameter's gradient of a loss on the scan's output; with
        ``gathered`` the tables go through gather_rows to per-cell inputs."""
        for t in params:
            t.zero_grad()
        if gathered:
            tables = [ad.gather_rows(t, ids + 1) for t in tables]
            ids = np.arange(len(ids))
        backward(scalar_loss(ad.mul(scan(tables, ids), Tensor(target))))
        return [t.grad.copy() for t in params]

    def test_table_gradients_equal_gather_rows_of_cell_gradients(self, rng):
        ids = self.ids(rng)
        mem0, w, e, a = self.memory_inputs(rng)
        x, w_h = self.lstm_inputs(rng)
        cases = [(lambda t, i: ad.memory_scan(mem0, *t, i, self.LENGTHS),
                  [w, e, a], [mem0], 4),
                 (lambda t, i: ad.lstm_scan(t[0], i, w_h, self.LENGTHS),
                  [x], [w_h], 3)]
        for scan, tables, others, out_cols in cases:
            params = tables + others
            target = rng.normal(size=(len(ids), out_cols))
            direct = self.scan_grads(scan, params, tables, ids, False, target)
            via_gather = self.scan_grads(scan, params, tables, ids, True, target)
            for g_direct, g_gather in zip(direct, via_gather):
                np.testing.assert_array_equal(g_direct, g_gather)
            for g in direct[:len(tables)]:
                np.testing.assert_array_equal(g[self.P - 1], 0.0)

    def test_table_gradients_vs_finite_differences(self, rng):
        ids = self.ids(rng)
        mem0, w, e, a = self.memory_inputs(rng)
        x, w_h = self.lstm_inputs(rng)
        target_m = rng.normal(size=(len(ids), 4))
        target_h = rng.normal(size=(len(ids), 3))

        def memory_loss(return_tensor=False):
            r = ad.memory_scan(mem0, w, e, a, ids, self.LENGTHS)
            t = scalar_loss(ad.tanh(ad.mul(r, Tensor(target_m))))
            return t if return_tensor else t.item()

        def lstm_loss(return_tensor=False):
            h = ad.lstm_scan(x, ids, w_h, self.LENGTHS)
            t = scalar_loss(ad.mul(h, Tensor(target_h)))
            return t if return_tensor else t.item()

        check_gradients(memory_loss, [w, e, a], rng, n_samples=30, rtol=1e-6)
        check_gradients(lstm_loss, [x], rng, n_samples=30, rtol=1e-6)

    def test_no_grad_equals_grad_version_exactly(self, rng):
        ids = self.ids(rng)
        mem0, w, e, a = self.memory_inputs(rng)
        x, w_h = self.lstm_inputs(rng)
        for scan in (lambda: ad.memory_scan(mem0, w, e, a, ids, self.LENGTHS),
                     lambda: ad.lstm_scan(x, ids, w_h, self.LENGTHS)):
            with_grad = scan()
            with ad.no_grad():
                without = scan()
            np.testing.assert_array_equal(without.data, with_grad.data)

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_rejects_ids_outside_the_table(self, rng, bad):
        ids = self.ids(rng)
        ids[3] = bad
        mem0, w, e, a = self.memory_inputs(rng)
        x, w_h = self.lstm_inputs(rng)
        with pytest.raises(ad.IndexOutOfRangeError, match=f"scan id {bad} "):
            ad.memory_scan(mem0, w, e, a, ids, self.LENGTHS)
        with pytest.raises(ad.IndexOutOfRangeError, match=f"scan id {bad} "):
            ad.lstm_scan(x, ids, w_h, self.LENGTHS)


class TestNoGrad:
    # full rows at the early steps, ragged later; the last rows come in
    # increasing length, so the longest-first rank reverses them
    LENGTHS = [[5, 2, 0, 4], [3, 6, 6, 1, 6], [1, 1], [1, 3, 6]]

    @pytest.mark.parametrize("lengths", LENGTHS)
    def test_memory_scan_equals_grad_version_exactly(self, rng, lengths):
        mem0, w, e, a = TestMemoryScan().inputs(rng, lengths)
        ids = np.arange(sum(lengths))
        with_grad = ad.memory_scan(mem0, w, e, a, ids, lengths)
        with ad.no_grad():
            without = ad.memory_scan(mem0, w, e, a, ids, lengths)
        assert with_grad._parents and not without._parents
        np.testing.assert_array_equal(without.data, with_grad.data)

    @pytest.mark.parametrize("lengths", LENGTHS)
    def test_lstm_scan_equals_grad_version_exactly(self, rng, lengths):
        x, w_h = TestLstmScan().inputs(rng, lengths)
        ids = np.arange(sum(lengths))
        with_grad = ad.lstm_scan(x, ids, w_h, lengths)
        with ad.no_grad():
            without = ad.lstm_scan(x, ids, w_h, lengths)
        assert with_grad._parents and not without._parents
        np.testing.assert_array_equal(without.data, with_grad.data)

    def test_scans_copy_no_inputs(self, rng):
        # many cells on few rows: a copy of the inputs in time order would
        # outweigh the output, the time order, the batch state and the
        # per-block temporaries together
        B, L, N, d, hs = 8, 500, 16, 16, 8
        S = B * L

        def peak_bytes(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        time_order = peak_bytes(lambda: ad._time_blocks([L] * B, S))
        ids, lengths = np.arange(S), [L] * B
        mem0, w, e, a = TestMemoryScan().inputs(rng, lengths, N, d)
        x, w_h = TestLstmScan().inputs(rng, lengths, hs)
        scans = [(lambda: ad.memory_scan(mem0, w, e, a, ids, lengths),
                  (w, e, a), d, B * N * d),
                 (lambda: ad.lstm_scan(x, ids, w_h, lengths), (x,), hs, B * 4 * hs)]
        for scan, inputs, out_cols, block_size in scans:
            with ad.no_grad():
                peak = peak_bytes(scan)
            out_bytes = S * out_cols * 8
            bound = out_bytes + time_order + 8 * block_size * 8
            smallest_input = min(t.data.nbytes for t in inputs)
            assert bound < out_bytes + smallest_input
            assert peak < bound, (out_cols, peak, bound)

    def test_outputs_are_leaves(self, rng):
        x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        with ad.no_grad():
            outs = [ad.sigmoid(x @ x.T), sum_all(x), ad.tile_rows(x, 2),
                    ad.lstm_scan(Tensor(rng.normal(size=(2, 8))), np.arange(2),
                                 Tensor(rng.normal(size=(2, 8)), requires_grad=True),
                                 [2])]
        for out in outs:
            assert not out.requires_grad
            assert out._parents == () and out._backward is None
        assert x.requires_grad    # parameters keep their flag

    def test_mode_restored_after_nesting_and_exception(self):
        x = Tensor([[1.0]], requires_grad=True)
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert not ad.scale(x, 2.0).requires_grad
        assert ad.scale(x, 2.0).requires_grad
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("inside")
        assert ad.scale(x, 2.0).requires_grad

    def test_backward_rejects_loss_without_grad(self, rng):
        x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        with ad.no_grad():
            loss = sum_all(x)
        with pytest.raises(ad.GraphError, match="no_grad"):
            backward(loss)
        with pytest.raises(ad.GraphError, match="requires grad"):
            backward(sum_all(ad.constant(np.ones((2, 2)))))
        assert x.grad is None


class TestClipGlobalNorm:
    def test_below_threshold_untouched(self):
        g = np.array([[3.0, 4.0]])
        assert clip_global_norm([g], 10.0) == 1.0
        np.testing.assert_array_equal(g, [[3.0, 4.0]])

    def test_forced_ratio(self):
        g = np.array([[0.0, 20.0]])
        scale = clip_global_norm([g], 10.0)
        assert scale == 0.5
        np.testing.assert_array_equal(g, [[0.0, 10.0]])

    def test_post_norm_is_min_of_norm_and_threshold(self, rng):
        for _ in range(5):
            grads = [rng.normal(size=(3, 4)), rng.normal(size=(2, 2)) * 10]
            before = np.sqrt(sum((g * g).sum() for g in grads))
            clip_global_norm(grads, 5.0)
            after = np.sqrt(sum((g * g).sum() for g in grads))
            assert abs(after - min(before, 5.0)) < 1e-9

    def test_idempotent(self, rng):
        grads = [rng.normal(size=(4, 4)) * 10]
        clip_global_norm(grads, 3.0)
        snapshot = [g.copy() for g in grads]
        clip_global_norm(grads, 3.0)
        for g, s in zip(grads, snapshot):
            np.testing.assert_array_equal(g, s)

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            clip_global_norm([np.ones(2)], 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_norm_raises_and_leaves_grads(self, bad):
        grads = [np.array([[1.0, bad]]), np.array([[30.0]])]
        with pytest.raises(FloatingPointError):
            clip_global_norm(grads, 1.0)
        np.testing.assert_array_equal(grads[0], [[1.0, bad]])
        np.testing.assert_array_equal(grads[1], [[30.0]])


def reference_adam_trace(grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    # independent scalar Adam oracle
    x, m, v = 0.0, 0.0, 0.0
    trace = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        x -= lr * (m / (1 - beta1 ** t)) / ((v / (1 - beta2 ** t)) ** 0.5 + eps)
        trace.append(x)
    return trace


class TestAdam:
    def test_zero_gradients_noop(self):
        p = Tensor([[1.0, -2.0]], requires_grad=True)
        p.grad = np.zeros((1, 2))
        state = AdamState()
        adam_step([p], state, lr=0.1)
        np.testing.assert_array_equal(p.data, [[1.0, -2.0]])
        assert state.step_count == 1
        np.testing.assert_array_equal(state.m[0], 0.0)
        np.testing.assert_array_equal(state.v[0], 0.0)

    def test_first_step_magnitude_is_lr(self):
        p = Tensor([[0.0]], requires_grad=True)
        p.grad = np.array([[1.0]])
        adam_step([p], AdamState(), lr=0.01)
        assert p.data[0, 0] == pytest.approx(-0.01, rel=1e-6)

    def test_matches_scalar_trace(self):
        grads = [1.0, -0.3]
        p = Tensor([[0.0]], requires_grad=True)
        state = AdamState()
        for t, (g, expected) in enumerate(zip(grads, reference_adam_trace(grads, 0.05))):
            p.grad = np.array([[g]])
            adam_step([p], state, lr=0.05)
            assert p.data[0, 0] == pytest.approx(expected, rel=1e-12)
            assert state.step_count == t + 1

    def test_grads_zeroed_after_step(self):
        p = Tensor([[0.0]], requires_grad=True)
        p.grad = np.array([[1.0]])
        adam_step([p], AdamState(), lr=0.1)
        assert p.grad is None
