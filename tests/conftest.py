import tracemalloc

import numpy as np
import pytest

from deepkt import autodiff as ad


def rel_err(analytic, numeric, floor=1e-9):
    """Relative error with an absolute guard below central-difference resolution."""
    diff = abs(analytic - numeric)
    if diff < floor:
        return 0.0
    return diff / max(abs(analytic), abs(numeric), 1e-12)


def central_difference(fn, tensor, i, j, h=1e-5):
    """d fn / d tensor[i, j] by central differences; fn rebuilds the graph."""
    orig = tensor.data[i, j]
    tensor.data[i, j] = orig + h
    up = fn()
    tensor.data[i, j] = orig - h
    down = fn()
    tensor.data[i, j] = orig
    return (up - down) / (2.0 * h)


def check_gradients(loss_fn, tensors, rng, n_samples=10, h=1e-5, rtol=1e-4):
    """Compare backward() gradients of a scalar loss against finite differences.

    ``loss_fn`` builds a fresh graph over ``tensors`` and returns the loss value;
    gradients are taken from one analytic run, then ``n_samples`` random entries
    across the tensors are probed numerically.
    """
    for t in tensors:
        t.zero_grad()
    loss = loss_fn(return_tensor=True)
    ad.backward(loss)
    grads = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
             for t in tensors]
    for t in tensors:
        t.zero_grad()

    entries = [(k, i, j)
               for k, t in enumerate(tensors)
               for i in range(t.rows) for j in range(t.cols)]
    picks = rng.choice(len(entries), size=min(n_samples, len(entries)), replace=False)
    worst = 0.0
    for pick in picks:
        k, i, j = entries[pick]
        numeric = central_difference(lambda: loss_fn(return_tensor=False),
                                     tensors[k], i, j, h=h)
        err = rel_err(grads[k][i, j], numeric)
        worst = max(worst, err)
        assert err < rtol, (
            f"gradient mismatch at tensor {k} entry ({i},{j}): "
            f"analytic {grads[k][i, j]:.8g}, numeric {numeric:.8g}, rel {err:.3g}")
    return worst


def peak_bytes(fn):
    """The peak of the memory that numpy and Python allocate while fn runs,
    in bytes, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
