"""Gradient and semantics checks for every tensor primitive.

Everything runs in float64: the finite-difference oracle is only reliable
there, and the engine keeps float64 inputs in float64.
"""

import math
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmamba import autodiff as ad
from netmamba.errors import ContractError, ShapeError

from helpers import causal_conv1d, max_rel_err, rand_tensor

TOL = 1e-6
RNG = np.random.default_rng(20240811)


def test_silu_softplus_values():
    assert ad.silu(ad.Tensor(np.float64(0.0))).item() == 0.0
    assert ad.softplus(ad.Tensor(np.float64(0.0))).item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_silu_keeps_only_its_output():
    # the backward recomputes sigmoid(x) from x, which its input holds; a
    # kept sigmoid would double what the op leaves allocated
    x = ad.Tensor(RNG.standard_normal((64, 1024)), requires_grad=True)
    tracemalloc.start()
    try:
        out = ad.silu(x)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert kept < out.data.nbytes + out.data.nbytes // 8


def test_softplus_large_input_branch():
    x = ad.Tensor(np.array([25.0, 700.0]))
    out = ad.softplus(x).data
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, x.data, rtol=1e-7)


def test_identity_kernel_conv():
    # a kernel of (1, 0, ...) passes the input through, so the op gives its SiLU
    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.standard_normal((2, 6, 3)))
    w = np.zeros((3, 4))
    w[:, 0] = 1.0
    np.testing.assert_array_equal(causal_conv1d(x, ad.Tensor(w)).data, x.data)
    out = ad.causal_conv1d(x, ad.Tensor(w), np.zeros(3))
    np.testing.assert_array_equal(out.data, ad.silu(x).data)


def test_conv_is_causal_and_reads_past():
    # kernel (0, 1) shifts the sequence right by one position
    x = ad.Tensor(np.arange(5, dtype=np.float64).reshape(1, 5, 1))
    w = ad.Tensor(np.array([[0.0, 1.0]]))
    shifted = np.array([0.0, 0.0, 1.0, 2.0, 3.0])
    np.testing.assert_array_equal(causal_conv1d(x, w).data[0, :, 0], shifted)
    out = ad.causal_conv1d(x, w, np.zeros(1)).data[0, :, 0]
    np.testing.assert_array_equal(out, ad.silu(ad.Tensor(shifted)).data)


@pytest.mark.parametrize("L", (1, 3, 4, 9))
def test_conv_silu_gradients_match_finite_differences(L, monkeypatch):
    monkeypatch.setattr(ad, "_CONV_BLOCK", 2 * 2 * 3)      # blocks of 2 rows
    # lengths below, at and above the four taps. At L=9 the four tap terms
    # of one input's gradient (up to 0.9 each) cancel to 2.2e-4, where the
    # truncation error of a 1e-4 step is 1.4e-6 of it; a 1e-5 step leaves
    # 2.7e-7, and a long-double sum of the four terms agrees with the op
    rng = np.random.default_rng(60 + L)
    x, w, b = rand_tensor(rng, 2, L, 3), rand_tensor(rng, 3, 4), rand_tensor(rng, 3)
    weight = rng.standard_normal((2, L, 3))
    f = lambda: ad.sum(ad.mul(ad.causal_conv1d(x, w, b), weight))
    assert max_rel_err(f, [x, w, b], eps=1e-5) < TOL


@pytest.mark.parametrize("rows", (None, 1, 3, 8), ids=("whole", "rows1", "rows3", "rows8"))
@pytest.mark.parametrize("bias", (True, False), ids=("bias", "no-bias"))
@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_conv_silu_is_byte_equal_to_conv_then_silu(dtype, bias, rows, monkeypatch):
    # the op recomputes the convolution and the sigmoid in its backward, in
    # place and in blocks of rows (here of 1, fewer than the taps, and 8,
    # which leaves a partial last block), and must land on the bytes of the
    # two separate ops. The op takes its bias always; "no-bias" gives it zeros
    B, L, E = 3, 21, 8
    if rows is not None:
        monkeypatch.setattr(ad, "_CONV_BLOCK", rows * B * E)
    results = []
    for run in (lambda x, w, b: ad.causal_conv1d(x, w, b),
                lambda x, w, b: ad.silu(causal_conv1d(x, w, b))):
        rng = np.random.default_rng(61)
        x, w, b = (ad.Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True)
                   for s in ((B, L, E), (E, 4), (E,)))
        if not bias:
            b.data[:] = 0
        out = run(x, w, b)
        ad.backward(ad.sum(ad.mul(out, rng.standard_normal(out.shape).astype(dtype))))
        results.append([out.data, x.grad, w.grad, b.grad])
    for got, ref in zip(*results):
        assert got.dtype == dtype and got.tobytes() == ref.tobytes()


def test_conv_keeps_only_its_input():
    # the graph holds x; the convolution output before the SiLU is not kept
    x = ad.Tensor(np.random.default_rng(62).standard_normal((2, 256, 32)),
                  requires_grad=True)
    w = ad.parameter(np.random.default_rng(63).standard_normal((32, 4)))
    b = ad.parameter(np.zeros(32))
    tracemalloc.start()
    try:
        out = ad.causal_conv1d(x, w, b)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert kept < out.data.nbytes + out.data.nbytes // 8


def _gather_grad(idx, g, shape):
    a = ad.Tensor(np.zeros(shape, dtype=g.dtype), requires_grad=True)
    ad.backward(ad.sum(ad.mul(ad.gather_rows(a, idx), g)))
    return a.grad


@pytest.mark.parametrize("distinct", (True, False), ids=("distinct", "repeated"))
def test_gather_rows_backward_matches_accumulating_scatter(distinct):
    # rows without a repeated index are written once, rows with one are
    # accumulated; both give the bytes of np.add.at into zeros, a -0.0
    # gradient included
    rng = np.random.default_rng(64)
    B, L, K, D = 3, 12, 7, 5
    idx = np.stack([rng.permutation(L)[:K] for _ in range(B)])
    if not distinct:
        idx[1, 3] = idx[1, 0]
    g = rng.standard_normal((B, K, D)).astype(np.float32)
    g[0, 0, :2] = -0.0
    ref = np.zeros((B, L, D), dtype=np.float32)
    np.add.at(ref, (np.arange(B)[:, None], idx), g)
    assert _gather_grad(idx, g, (B, L, D)).tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "name",
    [
        "add", "add_broadcast", "mul", "mul_broadcast", "neg", "exp", "silu",
        "softplus", "matmul", "matmul_batched", "index", "reshape", "permute",
        "broadcast_to", "concat", "gather_rows", "sum_all", "sum_axis",
        "mean_axis", "rmsnorm", "layernorm", "conv", "conv_short_seq",
        "cross_entropy", "mse_plain",
    ],
)
def test_primitive_gradients_match_finite_differences(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    if name in ("add", "mul"):
        a, b = rand_tensor(rng, 3, 4), rand_tensor(rng, 3, 4)
        op = getattr(ad, name)
        f = lambda: ad.sum(ad.mul(op(a, b), rng_fixed(a)))
        wrt = [a, b]
    elif name in ("add_broadcast", "mul_broadcast"):
        a, b = rand_tensor(rng, 2, 3, 4), rand_tensor(rng, 4)
        op = getattr(ad, name.split("_")[0])
        f = lambda: ad.sum(ad.mul(op(a, b), rng_fixed(a)))
        wrt = [a, b]
    elif name in ("neg", "exp", "silu", "softplus"):
        a = rand_tensor(rng, 3, 5)
        op = getattr(ad, name)
        f = lambda: ad.sum(ad.mul(op(a), rng_fixed(a)))
        wrt = [a]
    elif name == "matmul":
        a, b = rand_tensor(rng, 3, 4), rand_tensor(rng, 4, 2)
        f = lambda: ad.sum(ad.mul(ad.matmul(a, b), np.arange(6.0).reshape(3, 2)))
        wrt = [a, b]
    elif name == "matmul_batched":
        a, b = rand_tensor(rng, 2, 3, 4), rand_tensor(rng, 4, 2)
        f = lambda: ad.sum(ad.mul(ad.matmul(a, b), np.arange(12.0).reshape(2, 3, 2)))
        wrt = [a, b]
    elif name == "index":
        a = rand_tensor(rng, 4, 5, 3)
        f = lambda: ad.sum(ad.mul(a[1:3, ::2, :], 1.7))
        wrt = [a]
    elif name == "reshape":
        a = rand_tensor(rng, 4, 6)
        f = lambda: ad.sum(ad.mul(ad.reshape(a, (2, 2, 6)), rng_fixed_shape((2, 2, 6))))
        wrt = [a]
    elif name == "permute":
        a = rand_tensor(rng, 2, 3, 4)
        f = lambda: ad.sum(ad.mul(ad.permute(a, (2, 0, 1)), rng_fixed_shape((4, 2, 3))))
        wrt = [a]
    elif name == "broadcast_to":
        a = rand_tensor(rng, 1, 4)
        f = lambda: ad.sum(ad.mul(ad.broadcast_to(a, (3, 5, 4)), rng_fixed_shape((3, 5, 4))))
        wrt = [a]
    elif name == "concat":
        a, b = rand_tensor(rng, 2, 3), rand_tensor(rng, 4, 3)
        f = lambda: ad.sum(ad.mul(ad.concat([a, b], axis=0), rng_fixed_shape((6, 3))))
        wrt = [a, b]
    elif name == "gather_rows":
        a = rand_tensor(rng, 2, 6, 3)
        idx = np.array([[0, 2, 2, 5], [1, 1, 4, 0]])
        f = lambda: ad.sum(ad.mul(ad.gather_rows(a, idx), rng_fixed_shape((2, 4, 3))))
        wrt = [a]
    elif name == "sum_all":
        a = rand_tensor(rng, 3, 4)
        f = lambda: ad.sum(a)
        wrt = [a]
    elif name == "sum_axis":
        a = rand_tensor(rng, 3, 4, 2)
        f = lambda: ad.sum(ad.mul(ad.sum(a, axis=1), rng_fixed_shape((3, 2))))
        wrt = [a]
    elif name == "mean_axis":
        a = rand_tensor(rng, 3, 4, 2)
        f = lambda: ad.sum(ad.mul(ad.mean(a, axis=(0, 2)), rng_fixed_shape((4,))))
        wrt = [a]
    elif name in ("rmsnorm", "layernorm"):
        a, g = rand_tensor(rng, 2, 5, 6), rand_tensor(rng, 6)
        op = getattr(ad, name)
        f = lambda: ad.sum(ad.mul(op(a, g), rng_fixed_shape((2, 5, 6))))
        wrt = [a, g]
    elif name == "conv":
        # the plain convolution oracle that the fused conv + SiLU op is held
        # to byte for byte; the op's own finite-difference checks are
        # test_conv_silu_gradients_match_finite_differences
        a = rand_tensor(rng, 2, 7, 3)
        w, b = rand_tensor(rng, 3, 4), rand_tensor(rng, 3)
        f = lambda: ad.sum(ad.mul(causal_conv1d(a, w, b), rng_fixed_shape((2, 7, 3))))
        wrt = [a, w, b]
    elif name == "conv_short_seq":
        # the oracle again, on a sequence shorter than the kernel
        a = rand_tensor(rng, 1, 2, 3)
        w, b = rand_tensor(rng, 3, 4), rand_tensor(rng, 3)
        f = lambda: ad.sum(ad.mul(causal_conv1d(a, w, b), rng_fixed_shape((1, 2, 3))))
        wrt = [a, w, b]
    elif name == "cross_entropy":
        a = rand_tensor(rng, 4, 5)
        labels = np.array([0, 3, 2, 4])
        f = lambda: ad.softmax_cross_entropy(a, labels)
        wrt = [a]
    elif name == "mse_plain":
        a = rand_tensor(rng, 3, 4)
        t = rng.standard_normal((3, 4))
        f = lambda: ad.mse(a, t)
        wrt = [a]
    else:  # pragma: no cover
        raise AssertionError(name)
    assert max_rel_err(f, wrt) < TOL


def rng_fixed(like: ad.Tensor) -> np.ndarray:
    return rng_fixed_shape(like.shape)


def rng_fixed_shape(shape) -> np.ndarray:
    # fixed weighting so the scalarized loss has generic, nonzero gradients
    return np.random.default_rng(7).standard_normal(shape)


def test_backward_requires_scalar():
    a = rand_tensor(RNG, 3)
    with pytest.raises(ContractError):
        ad.backward(ad.mul(a, 2.0))


def test_backward_accumulates_on_repeat():
    a = rand_tensor(np.random.default_rng(1), 3, 3)
    loss = ad.sum(ad.mul(a, a))
    ad.backward(loss)
    once = a.grad.copy()
    ad.backward(loss)
    np.testing.assert_allclose(a.grad, 2.0 * once, rtol=0, atol=0)


def test_outer_product_gradient_structure():
    # loss = sum(W @ x) with x fixed -> dL/dW[i, j] = x[j]
    rng = np.random.default_rng(2)
    W = rand_tensor(rng, 4, 3)
    x = ad.Tensor(rng.standard_normal((3, 1)))
    ad.backward(ad.sum(ad.matmul(W, x)))
    np.testing.assert_allclose(W.grad, np.tile(x.data.T, (4, 1)), rtol=1e-12)


def test_shape_errors_name_both_shapes():
    a, b = ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeError, match=r"2, 3.*4, 5"):
        ad.matmul(a, b)
    with pytest.raises(ShapeError):
        ad.add(a, b)


def test_no_grad_suppresses_graph():
    a = rand_tensor(RNG, 2, 2)
    with ad.no_grad():
        out = ad.mul(a, a)
    assert out._node is None and not out.requires_grad


def test_mse_empty_prediction_is_zero_loss():
    # pretrain_forward reaches this when no stride is masked
    a = rand_tensor(RNG, 2, 0, 4)
    loss = ad.mse(a, np.zeros((2, 0, 4)))
    assert loss.item() == 0.0
    ad.backward(loss)
    assert a.grad.shape == (2, 0, 4)


def test_index_copies_a_contiguous_selection():
    # at B=1 the last row of (1, L, D) is contiguous; a view would keep the
    # whole operand alive through every vjp that captures the selection
    a = rand_tensor(RNG, 1, 5, 3)
    last = ad.index(a, (slice(None), -1, slice(None)))
    assert not np.shares_memory(last.data, a.data)
    np.testing.assert_array_equal(last.data, a.data[:, -1, :])
    assert last.data.flags["C_CONTIGUOUS"]


def test_cross_entropy_uniform_logits():
    logits = ad.Tensor(np.zeros((1, 10)))
    assert ad.softmax_cross_entropy(logits, [3]).item() == pytest.approx(math.log(10.0), rel=1e-9)


def test_cross_entropy_confident_margin_is_near_zero():
    margin = ad.Tensor(np.array([[30.0, 0.0, 0.0]]))
    assert ad.softmax_cross_entropy(margin, [0]).item() == pytest.approx(0.0, abs=1e-9)


def test_cross_entropy_label_range():
    logits = ad.Tensor(np.zeros((2, 4)))
    with pytest.raises(ContractError):
        ad.softmax_cross_entropy(logits, [0, 4])


def test_determinism_bitwise():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((8, 8)).astype(np.float32)
    w = rng.standard_normal((8, 8)).astype(np.float32)
    a = ad.matmul(ad.Tensor(x), ad.Tensor(w)).data
    b = ad.matmul(ad.Tensor(x.copy()), ad.Tensor(w.copy())).data
    assert np.array_equal(a, b)


def test_default_dtype_for_integers_is_float32():
    t = ad.Tensor(np.arange(4))
    assert t.dtype == np.float32
    t64 = ad.Tensor(np.arange(4, dtype=np.float64))
    assert t64.dtype == np.float64


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    lead=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
)
def test_broadcast_gradient_matches_loop_oracle(rows, cols, lead, seed):
    """Broadcast add/mul gradients equal an explicit summation over the
    broadcast axes."""
    rng = np.random.default_rng(seed)
    a = ad.Tensor(rng.standard_normal((lead, rows, cols)), requires_grad=True)
    b = ad.Tensor(rng.standard_normal((cols,)), requires_grad=True)
    w = rng.standard_normal((lead, rows, cols))
    ad.backward(ad.sum(ad.mul(ad.add(a, b), w)))
    manual_b = np.zeros(cols)
    for i in range(lead):
        for j in range(rows):
            manual_b += w[i, j]
    np.testing.assert_allclose(b.grad, manual_b, rtol=1e-10)
    np.testing.assert_allclose(a.grad, w, rtol=1e-10)


def _dropped(build):
    """Build a graph with ``build(x)`` -> (loss, intermediates); return a
    weakref to each intermediate's array, taken after the caller dropped
    the tensors, and the leaf's gradient."""
    x = ad.Tensor(np.random.default_rng(3).standard_normal((4, 6)), requires_grad=True)
    loss, kept = build(x)
    refs = [weakref.ref(t.data) for t in kept]
    del kept
    ad.backward(loss)
    return [r() for r in refs], x.grad


# each builder returns the loss and the op results a vjp would only have
# kept for their shape: the matmul product before its bias add and the
# operands of concat, broadcast_to, gather_rows and index
W = np.random.default_rng(4).standard_normal((6, 5))
K5 = np.random.default_rng(5).standard_normal((4, 5))


def _matmul_then_add(x):
    prod = ad.matmul(x, W)
    return ad.sum(ad.mul(ad.add(prod, np.arange(5.0)), K5)), [prod]


def _concat(x):
    left, right = ad.mul(x, 2.0), ad.mul(x, 3.0)
    return ad.sum(ad.mul(ad.concat([left, right], axis=1), 1.5)), [left, right]


def _broadcast_to(x):
    row = ad.mul(x, 2.0)
    return ad.sum(ad.broadcast_to(ad.reshape(row, (1, 4, 6)), (3, 4, 6))), [row]


def _gather_rows(x):
    rows = ad.reshape(ad.mul(x, 2.0), (2, 2, 6))
    return ad.sum(ad.gather_rows(rows, [[1, 1, 0], [0, 1, 1]])), [rows]


def _index(x):
    scaled = ad.mul(x, 2.0)
    return ad.sum(ad.mul(scaled[:, 1:4], 5.0)), [scaled]


@pytest.mark.parametrize("build", [_matmul_then_add, _concat, _broadcast_to,
                                   _gather_rows, _index],
                         ids=["matmul-add", "concat", "broadcast_to",
                              "gather_rows", "index"])
def test_graph_keeps_no_result_its_backward_does_not_read(build):
    # op results link to each other through small graph records, and these
    # vjps read only shapes, so nothing but the caller held the arrays
    alive, grad = _dropped(build)
    assert alive == [None] * len(alive)
    # the caller keeping them changes no gradient
    x = ad.Tensor(np.random.default_rng(3).standard_normal((4, 6)), requires_grad=True)
    loss, kept = build(x)
    ad.backward(loss)
    np.testing.assert_array_equal(grad, x.grad)


def test_matmul_bias_gradients_after_product_is_dropped():
    _, grad = _dropped(_matmul_then_add)
    np.testing.assert_allclose(grad, K5 @ W.T, rtol=1e-12)
