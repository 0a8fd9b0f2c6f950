"""Recurrence correctness: the fused scan vs convolutional form vs direct
summation, causality, stability, and block-level gradients.

``ssm.selective_scan`` forms xc, B, C and the step's down-projection from
the in-projection itself; the tests of its recurrence reach the scan inside
it, ``ssm._recurrence``, through ``scan_op``, and ``identity_scan``'s
identity projections make that the plain scan of step softplus(dt_low) bit
for bit."""

import contextlib
import itertools
import tracemalloc

import numpy as np
import pytest

from netmamba import autodiff as ad
from netmamba import ssm
from netmamba.errors import ContractError, NumericFaultError, ShapeError

from helpers import (causal_conv1d, conv_form_oracle, direct_scan_oracle,
                     discretize_loop_oracle, identity_layout, identity_scan,
                     max_rel_err, plain_scan, random_instance, scan_op,
                     softplus_inverse, unflushed_scan)

RNG = np.random.default_rng(11)


def scan(delta, a, b_in, c, x):
    """y of the plain scan with step delta, through the src op. The op takes
    the step as softplus(softplus_inverse(delta)), delta to within an ulp."""
    return identity_scan(*(ad.Tensor(v) for v in
                           (softplus_inverse(delta), a, b_in, c, x))).data


def raw_step_inputs(delta, a, b_in, c, x, dtype=np.float64):
    """The same instance as tensors that require grad, the step given as the
    raw step whose softplus it is."""
    return [ad.Tensor(np.asarray(v).astype(dtype), requires_grad=True)
            for v in (softplus_inverse(delta), a, b_in, c, x)]


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_identity_layout_gates_by_exactly_64(dtype):
    # the premise of identity_scan: the gate silu(64), computed as the scan
    # computes it, is 64 exactly, a power of two that w_out = I/64 undoes
    # without rounding
    z = np.full(3, 64.0, dtype=dtype)
    assert (z * ad._sigmoid(z)).tobytes() == z.tobytes()


def test_scan_zero_step_limit():
    delta = np.full((1, 2, 3), 1e-300)
    rng = np.random.default_rng(0)
    y = scan(delta, -np.ones((3, 2)), np.ones((1, 2, 2)),
             rng.standard_normal((1, 2, 2)), rng.standard_normal((1, 2, 3)))
    np.testing.assert_allclose(y, 0.0, atol=1e-12)


def test_scan_scalar_case():
    dt, b_in, c, x = 0.3, 1.7, -0.9, 2.5
    y = scan(np.full((1, 1, 1), dt), -np.ones((1, 1)), np.full((1, 1, 1), b_in),
             np.full((1, 1, 1), c), np.full((1, 1, 1), x))
    assert y[0, 0, 0] == pytest.approx(c * dt * b_in * x, rel=1e-12)


def test_discretize_matches_scalar_loop():
    # Probe the scan's own discretization element by element: with C one-hot
    # on state n and a unit impulse at step s, y_s = Bbar[s,e,n] and
    # y_{s+1} = Abar[s+1,e,n] * Bbar[s,e,n]. Abar at step 0 multiplies the
    # zero initial state and is not observable.
    rng = np.random.default_rng(1)
    delta, a, b_in, _, _ = random_instance(rng, B=2, L=4, E=3, N=2)
    ref_a, ref_b = discretize_loop_oracle(delta, a, b_in)
    B, L, E = delta.shape
    N = a.shape[1]
    for n in range(N):
        c = np.zeros((B, L, N))
        c[..., n] = 1.0
        for s in range(L):
            x = np.zeros((B, L, E))
            x[:, s] = 1.0
            y = scan(delta, a, b_in, c, x)
            np.testing.assert_allclose(y[:, s], ref_b[:, s, :, n], rtol=1e-12, atol=1e-14)
            if s + 1 < L:
                np.testing.assert_allclose(y[:, s + 1] / y[:, s], ref_a[:, s + 1, :, n],
                                           rtol=1e-12)


def test_scan_single_step_unrolls():
    rng = np.random.default_rng(2)
    delta, a, b_in, c, x = random_instance(rng, B=1, L=1, E=2, N=3)
    _, bbar = discretize_loop_oracle(delta, a, b_in)
    y = scan(delta, a, b_in, c, x)
    expect = np.einsum("bn,ben->be", c[:, 0], bbar[:, 0] * x[:, 0][..., None])
    np.testing.assert_allclose(y[:, 0], expect, atol=1e-12)


def test_scan_two_step_hand_unroll():
    # y_2 = C (Abar Bbar x_1 + Bbar x_2) in the time-invariant case
    rng = np.random.default_rng(3)
    delta, a, b_in, c, x = random_instance(rng, B=1, L=2, E=2, N=2,
                                           time_invariant=True)
    abar, bbar = discretize_loop_oracle(delta, a, b_in)
    y = scan(delta, a, b_in, c, x)
    state = abar[:, 1] * (bbar[:, 0] * x[:, 0][..., None]) + bbar[:, 1] * x[:, 1][..., None]
    expect = np.einsum("bn,ben->be", c[:, 1], state)
    np.testing.assert_allclose(y[:, 1], expect, atol=1e-12)


def test_scan_matches_conv_oracle_and_direct_sum():
    rng = np.random.default_rng(4)
    for trial in range(50):
        B = int(rng.integers(1, 3))
        L = int(rng.integers(2, 17))
        E = int(rng.integers(1, 5))
        N = int(rng.integers(1, 5))
        delta, a, b_in, c, x = random_instance(rng, B, L, E, N, time_invariant=True)
        abar, bbar = discretize_loop_oracle(delta, a, b_in)
        y = scan(delta, a, b_in, c, x)
        y_conv = conv_form_oracle(abar, bbar, c, x)
        y_direct = direct_scan_oracle(abar, bbar, c, x)
        assert np.abs(y - y_conv).max() < 1e-10
        assert np.abs(y - y_direct).max() < 1e-10


def test_scan_matches_direct_sum_time_varying():
    # the scalar-loop discretization feeds the direct sum, so this also
    # checks the scan's own exp(dt*A), dt*B per element
    rng = np.random.default_rng(5)
    delta, a, b_in, c, x = random_instance(rng, B=2, L=9, E=3, N=2)
    abar, bbar = discretize_loop_oracle(delta, a, b_in)
    y = scan(delta, a, b_in, c, x)
    np.testing.assert_allclose(y, direct_scan_oracle(abar, bbar, c, x), atol=1e-10)


def test_conv_oracle_rejects_time_varying():
    rng = np.random.default_rng(6)
    delta, a, b_in, c, x = random_instance(rng, B=1, L=4, E=2, N=2)
    abar, bbar = discretize_loop_oracle(delta, a, b_in)
    with pytest.raises(ContractError):
        conv_form_oracle(abar, bbar, c, x)


def test_conv_oracle_zero_input():
    rng = np.random.default_rng(7)
    delta, a, b_in, c, x = random_instance(rng, time_invariant=True)
    abar, bbar = discretize_loop_oracle(delta, a, b_in)
    y = conv_form_oracle(abar, bbar, c, np.zeros_like(x))
    np.testing.assert_array_equal(y, 0.0)


def test_scan_causality_probe():
    rng = np.random.default_rng(8)
    delta, a, b_in, c, x = random_instance(rng, B=1, L=10, E=3, N=2)
    base = scan(delta, a, b_in, c, x)
    for t in (3, 7):
        x2 = x.copy()
        x2[:, t] += 5.0
        delta2 = delta.copy()
        delta2[:, t] += 0.5
        for bumped in (scan(delta, a, b_in, c, x2), scan(delta2, a, b_in, c, x)):
            assert np.array_equal(base[:, :t], bumped[:, :t])
            assert not np.array_equal(base[:, t:], bumped[:, t:])


def test_scan_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    inputs = raw_step_inputs(*random_instance(rng, B=1, L=5, E=2, N=2))
    w = np.random.default_rng(0).standard_normal((1, 5, 2))
    f = lambda: ad.sum(ad.mul(identity_scan(*inputs), w))
    assert max_rel_err(f, inputs) < 1e-6


# lengths around the scan's chunk boundaries: a single step, one short of a
# chunk, exactly one, one past it, and a partial third chunk
K = ssm._CHUNK
CHUNK_LENGTHS = (1, K - 1, K, K + 1, 2 * K + 3)


@pytest.mark.parametrize("L", CHUNK_LENGTHS)
def test_scan_gradients_match_finite_differences_across_chunks(L):
    rng = np.random.default_rng(23)
    delta, *rest = random_instance(rng, B=1, L=L, E=2, N=2)
    inputs = raw_step_inputs(delta, *rest)
    w = np.random.default_rng(0).standard_normal((1, L, 2))
    f = lambda: ad.sum(ad.mul(identity_scan(*inputs), w))
    assert max_rel_err(f, inputs) < 1e-6
    # an upstream gradient on the last row only, as the classification head
    # gives. Each step back scales it by exp(dt*A): at the dt above (up to 1)
    # the first gradients of L=35 fall to 1e-10..1e-12, below what central
    # differences of an O(1) loss resolve, so this case takes a tenth of it
    inputs[0].data[:] = softplus_inverse(0.1 * delta)
    last_row = np.zeros_like(w)
    last_row[:, -1] = w[:, -1]
    f = lambda: ad.sum(ad.mul(identity_scan(*inputs), last_row))
    assert max_rel_err(f, inputs) < 1e-6


@pytest.mark.parametrize("L", CHUNK_LENGTHS)
def test_scan_matches_direct_sum_across_chunks(L):
    rng = np.random.default_rng(24)
    delta, a, b_in, c, x = random_instance(rng, B=2, L=L, E=3, N=2)
    abar, bbar = discretize_loop_oracle(delta, a, b_in)
    # inputs that require grad make the forward store chunk-entry states
    y = identity_scan(*raw_step_inputs(delta, a, b_in, c, x)).data
    assert np.abs(y - direct_scan_oracle(abar, bbar, c, x)).max() < 1e-10


def test_scan_output_identical_with_and_without_grad():
    rng = np.random.default_rng(19)
    inputs = raw_step_inputs(*random_instance(rng, B=2, L=33, E=5, N=3),
                             dtype=np.float32)
    graded = identity_scan(*inputs)
    with ad.no_grad():
        plain = identity_scan(*inputs)
    assert graded.requires_grad and not plain.requires_grad
    np.testing.assert_array_equal(graded.data, plain.data)


def test_scan_backward_twice_accumulates_exactly():
    # the vjp recomputes every chunk from the saved chunk-entry states;
    # writing into them would make the second pass differ from the first
    rng = np.random.default_rng(21)
    L = 2 * ssm._CHUNK + 3
    inputs = raw_step_inputs(*random_instance(rng, B=2, L=L, E=3, N=2))
    w = rng.standard_normal((2, L, 3))
    loss = ad.sum(ad.mul(identity_scan(*inputs), w))
    ad.backward(loss)
    once = [t.grad.copy() for t in inputs]
    ad.backward(loss)
    for t, g in zip(inputs, once):
        np.testing.assert_array_equal(t.grad, 2 * g)


def test_scan_float32_matches_float64_at_wide_shape():
    rng = np.random.default_rng(22)
    B, L, E, N = 2, 64, 32, 16
    _, a, b_in, c, x = random_instance(rng, B=B, L=L, E=E, N=N)
    delta = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=(B, L, E)))
    w = rng.standard_normal((B, L, E))

    def run(dtype):
        inputs = raw_step_inputs(delta, a, b_in, c, x, dtype)
        y = identity_scan(*inputs)
        ad.backward(ad.sum(ad.mul(y, w.astype(dtype))))
        return [y.data] + [t.grad for t in inputs]

    for got, ref in zip(run(np.float32), run(np.float64)):
        assert got.dtype == np.float32
        assert np.abs(got - ref).max() <= 1e-4 * np.abs(ref).max()


def unflushed_of_raw_step(low, a, b, c, x, g):
    """``unflushed_scan`` at the step the op takes from the raw step low,
    softplus(low), with the step's gradient carried on to low as the op's
    own softplus carries it."""
    y, grads, subnormal = unflushed_scan(ad._softplus(low), a, b, c, x, g)
    grads[0] = grads[0] * ad._sigmoid(low)
    return y, grads, subnormal


def test_scan_flushes_subnormal_adjoints_without_changing_gradients():
    # a gradient on the last row only decays by exp(dt*A) per step going
    # back; with dt about 0.1 and A down to -16 it leaves float32's normal
    # range within about 60 steps
    rng = np.random.default_rng(25)
    B, L, E, N = 2, 160, 16, 16
    _, _, b_in, c, x = random_instance(rng, B=B, L=L, E=E, N=N)
    delta = rng.uniform(0.05, 0.15, size=(B, L, E))
    a = -np.tile(np.arange(1.0, N + 1), (E, 1))
    w = np.zeros((B, L, E))
    w[:, -1] = rng.standard_normal((B, E))

    def run(dtype):
        inputs = raw_step_inputs(delta, a, b_in, c, x, dtype)
        ad.backward(ad.sum(ad.mul(identity_scan(*inputs), w.astype(dtype))))
        return [t.grad for t in inputs]

    got = run(np.float32)
    _, ref, subnormal = unflushed_of_raw_step(
        *(v.astype(np.float32) for v in (softplus_inverse(delta), a, b_in, c, x, w)))
    assert subnormal > 1000
    for g, r in zip(got, ref):
        assert g.dtype == np.float32
        normal = np.abs(r) >= 1e-30
        np.testing.assert_array_equal(g[normal], r[normal])
        assert np.all(np.abs(g[~normal] - r[~normal]) <= 1e-30)
    for g, r in zip(got, run(np.float64)):
        assert np.abs(g - r).max() <= 1e-4 * np.abs(r).max()


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
@pytest.mark.parametrize("shape", ((2, 33, 16, 8), (2, 64, 32, 16)))
def test_scan_matches_unflushed_reference_bit_for_bit(shape, dtype):
    # with a dense upstream gradient no adjoint entry gets near float32's
    # subnormal range, so the flush changes nothing and y and every
    # gradient must equal the reference byte for byte, however the op
    # splits its work into chunks and whatever products it recomputes
    B, L, E, N = shape
    rng = np.random.default_rng(27)
    _, a, b_in, c, x = random_instance(rng, B=B, L=L, E=E, N=N)
    delta = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=(B, L, E)))
    w = rng.standard_normal((B, L, E))
    arrays = [v.astype(dtype) for v in (softplus_inverse(delta), a, b_in, c, x, w)]
    inputs = [ad.Tensor(v, requires_grad=True) for v in arrays[:5]]
    y = identity_scan(*inputs)
    ad.backward(ad.sum(ad.mul(y, arrays[5])))
    ref_y, ref_grads, subnormal = unflushed_of_raw_step(*arrays)
    assert subnormal == 0
    for got, ref in zip([y.data] + [t.grad for t in inputs], [ref_y] + ref_grads):
        assert got.dtype == dtype and got.shape == ref.shape
        assert got.tobytes() == np.ascontiguousarray(ref).tobytes()


def test_scan_keeps_output_and_chunk_states_but_not_dt_x():
    # what a grad-mode call leaves allocated is what its backward reads:
    # y and one state per chunk. A kept (B, L, E) dt*x would add another
    # y.nbytes; the step buffer and the transposed A are (B, N, E) and (N, E)
    rng = np.random.default_rng(26)
    B, L, E, N = 2, 512, 64, 4
    inputs = identity_layout(*raw_step_inputs(*random_instance(rng, B=B, L=L, E=E,
                                                               N=N)))
    tracemalloc.start()
    try:
        y = scan_op(*inputs)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    entries = -(-L // ssm._CHUNK) * B * N * E * 8
    expected = y.data.nbytes + entries
    assert expected <= kept < expected + y.data.nbytes // 4


def test_scan_keeps_no_state_history_without_grad():
    # the full (L, B, N, E) state history would be 4 MB here. No-grad keeps
    # none of it; grad mode keeps one state per chunk (256 KB at 16 steps),
    # and every other array the scan allocates is (L, B, E) or smaller
    rng = np.random.default_rng(20)
    inputs = identity_layout(*raw_step_inputs(*random_instance(rng, B=1, L=4000,
                                                               E=8, N=16)))
    history = 4000 * 8 * 16 * 8

    def peak(grad: bool) -> int:
        tracemalloc.start()
        try:
            with contextlib.nullcontext() if grad else ad.no_grad():
                scan_op(*inputs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(False) < history / 2
    assert peak(True) < history / 2


def projected_instance(rng, B, L, E, N, R, D, dtype):
    """The block layout's scan inputs, all requiring grad: the step's
    (B, L, R) down-projection, its (R, E) up-projection and a step bias,
    the scan inputs, a gate and an (E, D) out-projection, plus an upstream
    weight."""
    _, a, b_in, c, x = random_instance(rng, B=B, L=L, E=E, N=N)
    arrays = {"low": rng.standard_normal((B, L, R)),
              "dt_bias": rng.uniform(-3.0, -1.0, size=E), "a": a, "b": b_in,
              "c": c, "x": x, "z": 2.0 * rng.standard_normal((B, L, E)),
              "w_dt_up": R ** -0.5 * rng.standard_normal((R, E)),
              "w_out": E ** -0.5 * rng.standard_normal((E, D))}
    tensors = {k: ad.Tensor(v.astype(dtype), requires_grad=True)
               for k, v in arrays.items()}
    return tensors, rng.standard_normal((B, L, D)).astype(dtype)


SCAN_INPUTS = ("low", "a", "b", "c", "x", "dt_bias", "z", "w_dt_up", "w_out")


def projected(t, **kwargs):
    return scan_op(*(t[k] for k in SCAN_INPUTS), **kwargs)


def unprojected(t):
    """The up-projection, softplus, gate and out-projection as separate ops
    around the plain scan oracle, in the block's order."""
    dt = ad.softplus(ad.add(ad.matmul(t["low"], t["w_dt_up"]), t["dt_bias"]))
    y = plain_scan(dt, t["a"], t["b"], t["c"], t["x"])
    return ad.matmul(ad.mul(y, ad.silu(t["z"])), t["w_out"])


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
@pytest.mark.parametrize("L", (K - 1, K + 1, 2 * K + 3))
def test_projected_scan_is_byte_equal_to_unfused_ops(L, dtype):
    # the scan forms the raw step from its down-projection in the forward
    # and again in the backward, recomputes the softplus and the gate chunk
    # by chunk, and rebuilds the gated output for the out-projection's
    # gradient; output and every gradient must land on the bytes of the
    # separate ops
    results = []
    for run in (projected, unprojected):
        t, w = projected_instance(np.random.default_rng(47), 3, L, 6, 4, 3, 5, dtype)
        out = run(t)
        assert out.shape == (3, L, 5)
        ad.backward(ad.sum(ad.mul(out, w)))
        results.append([out.data] + [v.grad for v in t.values()])
    for got, ref in zip(*results):
        assert got.dtype == dtype and got.shape == ref.shape
        assert got.tobytes() == np.ascontiguousarray(ref).tobytes()


def test_projected_scan_gradients_match_finite_differences():
    # within one chunk and across a chunk boundary
    for L in (5, K + 3):
        t, w = projected_instance(np.random.default_rng(48), 1, L, 2, 2, 2, 3,
                                  np.float64)
        t["dt_bias"].data[:] = [-1.5, -0.5]
        f = lambda: ad.sum(ad.mul(projected(t), w))
        assert max_rel_err(f, list(t.values())) < 1e-6, L


def test_projected_scan_output_identical_with_and_without_grad():
    t, _ = projected_instance(np.random.default_rng(49), 2, 2 * K + 1, 5, 3, 2, 4,
                              np.float32)
    graded = projected(t)
    with ad.no_grad():
        plain = projected(t)
    assert graded.requires_grad and not plain.requires_grad
    np.testing.assert_array_equal(graded.data, plain.data)


def read_tail(t, n):
    """The scan's inputs with c (and z) cut to their last n rows."""
    return t | {k: ad.Tensor(t[k].data[:, t[k].shape[1] - n:], requires_grad=True)
                for k in ("c", "z") if k in t}


def scan_of(t, **kwargs):
    """The scan of a projected instance, or of a plain one (no z) through
    identity projections."""
    if "z" in t:
        return projected(t, **kwargs)
    return identity_scan(*(t[k] for k in SCAN_INPUTS[:5]), **kwargs)


@pytest.mark.parametrize("n", (0, 1, K + 2, 2 * K + 3))
@pytest.mark.parametrize("layout", ("block", "plain"))
def test_tail_scan_matches_the_last_rows_of_the_full_scan(layout, n):
    # a scan told to produce only its last n rows steps the same states: the
    # rows it returns and every gradient of a loss on them match the full
    # scan's, whose c and z gradients are zero before those rows. Every GEMM
    # against identity projections is exact, so the plain scan's bits are
    # the full scan's
    L = 2 * K + 3
    if layout == "block":
        full, w = projected_instance(np.random.default_rng(52), 2, L, 5, 3, 2, 4,
                                     np.float64)
    else:
        full = {k: ad.Tensor(v, requires_grad=True)
                for k, v in zip(SCAN_INPUTS, scan_inputs(2, L, 5, 3))}
        w = np.random.default_rng(52).standard_normal((2, L, 5))
    cut = read_tail(full, n)
    whole = scan_of(full)
    ad.backward(ad.sum(ad.mul(whole, w * (np.arange(L) >= L - n)[:, None])))
    out = scan_of(cut)
    assert out.shape == (2, n, whole.shape[-1])
    ad.backward(ad.sum(ad.mul(out, w[:, L - n:])))
    for k in ("c", "z"):
        if k in full:
            assert not full[k].grad[:, :L - n].any()
    pairs = [(out.data, whole.data[:, L - n:])] + [
        (cut[k].grad, full[k].grad[:, L - n:] if k in ("c", "z") else full[k].grad)
        for k in full]
    for got, ref in pairs:
        assert got.shape == ref.shape
        if layout == "plain":
            assert got.tobytes() == np.ascontiguousarray(ref).tobytes()
        else:
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)
    # the state after the last step does not depend on the rows read
    states = [np.zeros((2, 3, 5)), np.zeros((2, 3, 5))]
    with ad.no_grad():
        scan_of(full, state=states[0])
        scan_of(cut, state=states[1])
    assert states[0].tobytes() == states[1].tobytes()


def test_tail_scan_gradients_match_finite_differences():
    # the last row alone, within one chunk and across a chunk boundary
    for L in (5, K + 3):
        t, w = projected_instance(np.random.default_rng(53), 1, L, 2, 2, 2, 3,
                                  np.float64)
        t["dt_bias"].data[:] = [-1.5, -0.5]
        t = read_tail(t, 1)
        f = lambda: ad.sum(ad.mul(scan_of(t), w[:, -1:]))
        assert max_rel_err(f, list(t.values())) < 1e-6, L


def small_dims(d=8, e=16, n=4, r=4, k=4):
    return ssm.SSMDims(d=d, e=e, n=n, r=r, k=k)


def test_block_residual_identity_with_zero_out_proj():
    rng = np.random.default_rng(10)
    p = ssm.init_mamba_block(small_dims(), rng, dtype=np.float64)
    p.w_out.data[:] = 0.0
    x = ad.Tensor(rng.standard_normal((2, 6, 8)))
    out = ssm.block_forward(x, p)
    np.testing.assert_array_equal(out.data, x.data)


def test_block_shape_preserved():
    rng = np.random.default_rng(11)
    p = ssm.init_mamba_block(small_dims(), rng, dtype=np.float64)
    for B, L in ((1, 3), (3, 12)):
        x = ad.Tensor(rng.standard_normal((B, L, 8)))
        assert ssm.block_forward(x, p).shape == (B, L, 8)


def test_block_rejects_wrong_width():
    rng = np.random.default_rng(12)
    p = ssm.init_mamba_block(small_dims(), rng)
    with pytest.raises(ShapeError):
        ssm.block_forward(ad.Tensor(np.zeros((1, 4, 5))), p)


def test_block_gradients_match_finite_differences():
    # the full composed block at the reference dims; the step-size bias is
    # lifted off its tiny default so no sensitivity sits below the
    # finite-difference noise floor
    rng = np.random.default_rng(13)
    p = ssm.init_mamba_block(small_dims(), rng, dtype=np.float64)
    p.dt_bias.data[:] = rng.uniform(0.2, 0.8, size=16)
    x = ad.Tensor(rng.standard_normal((2, 8, 8)), requires_grad=True)
    w = np.random.default_rng(1).standard_normal((2, 8, 8))
    f = lambda: ad.sum(ad.mul(ssm.block_forward(x, p), w))
    wrt = [x] + [t for _, t in p.named()]
    assert max_rel_err(f, wrt) < 1e-3


def test_block_causality():
    rng = np.random.default_rng(14)
    p = ssm.init_mamba_block(small_dims(), rng, dtype=np.float64)
    x = rng.standard_normal((1, 9, 8))
    base = ssm.block_forward(ad.Tensor(x), p).data
    for t in (2, 5, 8):
        x2 = x.copy()
        x2[:, t] += 1.0
        bumped = ssm.block_forward(ad.Tensor(x2), p).data
        assert np.array_equal(base[:, :t], bumped[:, :t])


def test_block_numeric_fault_names_block():
    rng = np.random.default_rng(15)
    p = ssm.init_mamba_block(small_dims(), rng, index=3)
    x = ad.Tensor(np.full((1, 2, 8), np.nan, dtype=np.float32))
    with pytest.raises(NumericFaultError, match="block 3"):
        ssm.block_forward(x, p)


def test_transition_factors_strictly_inside_unit_interval():
    # an impulse into state n at t=0, read back through C = e_n, decays by
    # the transition factor exp(dt_t*A[:, n]) at every later step
    rng = np.random.default_rng(16)
    p = ssm.init_mamba_block(small_dims(), rng, dtype=np.float64)
    x = ad.Tensor(rng.standard_normal((2, 20, 8)))
    norm = ad.rmsnorm(x, p.norm_gain)
    xc = ad.causal_conv1d(ad.matmul(norm, p.w_in_x), p.conv_w, p.conv_b)
    raw = ad.add(ad.matmul(ad.matmul(xc, p.w_dt_down), p.w_dt_up), p.dt_bias)
    dt = ad._softplus(raw.data)
    a = ad.neg(ad.exp(p.a_log))
    B, L, E = dt.shape
    for n in range(a.shape[1]):
        onehot = np.zeros((B, L, a.shape[1]))
        onehot[:, :, n] = 1.0
        kick = np.zeros((B, L, a.shape[1]))
        kick[:, 0, n] = 1.0
        y = identity_scan(raw, a, ad.Tensor(kick), ad.Tensor(onehot),
                          ad.Tensor(np.ones((B, L, E)))).data
        factors = y[:, 1:] / y[:, :-1]
        np.testing.assert_allclose(
            factors, np.exp(dt[:, 1:] * a.data[:, n]), rtol=1e-12)
        assert np.all(factors > 0.0) and np.all(factors < 1.0)


def test_hidden_state_bounded_over_long_sequence():
    # 10k steps with bounded inputs: geometric decay keeps h finite
    rng = np.random.default_rng(17)
    L = 10_000
    delta = rng.uniform(0.01, 0.5, size=(1, L, 4))
    a = -rng.uniform(0.2, 2.0, size=(4, 4))
    b_in = rng.standard_normal((1, L, 4))
    c = rng.standard_normal((1, L, 4))
    x = rng.standard_normal((1, L, 4))
    with ad.no_grad():
        y = scan(delta, a, b_in, c, x)
    assert np.all(np.isfinite(y))


def unfused_block(x_prev, p):
    """The block with its conv SiLU, step up-projection, softplus, gate and
    out-projection as separate ops, created in the block's order: a
    gradient summed over several consumers adds their contributions in
    reverse creation order."""
    xn = ad.rmsnorm(x_prev, p.norm_gain)
    x = ad.matmul(xn, p.w_in_x)
    z = ad.matmul(xn, p.w_in_z)
    xc = ad.silu(causal_conv1d(x, p.conv_w, p.conv_b))
    b_in = ad.matmul(xc, p.w_b)
    c = ad.matmul(xc, p.w_c)
    dt = ad.softplus(ad.add(ad.matmul(ad.matmul(xc, p.w_dt_down), p.w_dt_up),
                            p.dt_bias))
    y = plain_scan(dt, ad.neg(ad.exp(p.a_log)), b_in, c, xc)
    return ad.add(ad.matmul(ad.mul(y, ad.silu(z)), p.w_out), x_prev)


def test_block_is_byte_equal_to_unfused_block():
    results = []
    for run in (ssm.block_forward, unfused_block):
        rng = np.random.default_rng(44)
        p = ssm.init_mamba_block(small_dims(), rng)
        x = ad.Tensor(rng.standard_normal((3, 2 * K + 5, 8)).astype(np.float32),
                      requires_grad=True)
        out = run(x, p)
        ad.backward(ad.sum(ad.mul(out, rng.standard_normal(out.shape).astype(np.float32))))
        results.append([out.data, x.grad] + [t.grad for _, t in p.named()])
    for got, ref in zip(*results):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", (0, 1, 5, 2 * K + 5))
def test_block_tail_matches_the_last_rows_of_the_full_block(n):
    # a block told to return its last n rows forms z, C, y, the gate, the
    # out-projection and the residual for those rows alone; its output and
    # the gradients of its input and every parameter match the full
    # block's, read at those rows, in float64
    L = 2 * K + 5
    results = []
    for tail in (None, n):
        rng = np.random.default_rng(55)
        p = ssm.init_mamba_block(small_dims(), rng, dtype=np.float64)
        p.dt_bias.data[:] = rng.uniform(0.2, 0.8, size=16)
        x = ad.Tensor(rng.standard_normal((2, L, 8)), requires_grad=True)
        out = ssm.block_forward(x, p, tail=tail)
        if tail is None:
            out = out[:, L - n:]
        assert out.shape == (2, n, 8)
        ad.backward(ad.sum(ad.mul(out, rng.standard_normal((2, n, 8)))))
        results.append([out.data, x.grad] + [t.grad for _, t in p.named()])
    for got, ref in zip(*results):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)


def test_block_keeps_only_what_its_backward_reads():
    # one grad-mode block at small widths leaves allocated its output and
    # the arrays its vjps read, listed below. Two (B, L, E) arrays stay
    # (``wide``); the conv output, before and after its SiLU, the raw step
    # and the gated output are recomputed in the backward, and the matmul
    # products before the bias and residual adds, the step, y and silu(z)
    # are never kept
    B, L, D, E, N, R = 2, 256, 16, 32, 4, 4
    p = ssm.init_mamba_block(ssm.SSMDims(d=D, e=E, n=N, r=R),
                             np.random.default_rng(45), dtype=np.float64)
    x = ad.Tensor(np.random.default_rng(46).standard_normal((B, L, D)),
                  requires_grad=True)
    ssm.block_forward(x, p)                  # first-call allocations
    tracemalloc.start()
    try:
        out = ssm.block_forward(x, p)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    f = 8
    wide = {
        "in-projection x, from which the scan recomputes xc (B, L, E)":
            B * L * E * f,
        "z, read by the scan (B, L, E)": B * L * E * f,
    }
    narrow = {
        "rmsnorm 1/rms (B, L, 1)": B * L * f,
        "normalized input, read by both in-projections (B, L, D)": B * L * D * f,
        "xc @ w_dt_down, read by the scan (B, L, R)": B * L * R * f,
        "B and C, read by the scan (B, L, N) each": 2 * B * L * N * f,
        "exp(a_log), read by its exp and the scan's transposed A": 2 * E * N * f,
        "the scan's chunk-entry states": -(-L // ssm._CHUNK) * B * N * E * f,
        "the block output (B, L, D)": B * L * D * f,
    }
    assert sum(wide.values()) == 2 * B * L * E * f
    expected = sum(wide.values()) + sum(narrow.values())
    assert kept < expected + B * L * E * f // 4


def test_block_without_grad_peaks_below_the_unfused_block():
    # without grad each array of the block is freed after its last use:
    # the normalized input and the in-projection once the conv has run, the
    # raw step after the scan's loop, and the gated output after the
    # out-projection. The block with every op separate, its scan the
    # chunked plain one that kept no state history, peaked at 7.785
    # (B, L, E) arrays here; the fused block must peak two of them lower.
    # The plain_scan oracle keeps every state, so that peak is a constant
    B, L, D, E, N, R = 2, 256, 16, 32, 4, 4
    p = ssm.init_mamba_block(ssm.SSMDims(d=D, e=E, n=N, r=R),
                             np.random.default_rng(45), dtype=np.float64)
    x = ad.Tensor(np.random.default_rng(46).standard_normal((B, L, D)))

    def peak(run) -> int:
        with ad.no_grad():
            run(x, p)                        # first-call allocations
            tracemalloc.start()
            try:
                run(x, p)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    assert peak(ssm.block_forward) + 2 * B * L * E * 8 < 7.785 * B * L * E * 8


# ---------------------------------------------------------------------------
# streamed no-grad passes: each block carries its conv tail and scan state
# from one row chunk to the next


@contextlib.contextmanager
def stream_rows(monkeypatch, rows, batch, width):
    """Streamed passes of ``rows`` rows per chunk at this batch and width."""
    monkeypatch.setattr(ssm, "_STREAM_BLOCK", rows * batch * width)
    with ad.no_grad():
        yield


def stack_inputs(dtype, B=2, L=37, depth=3, seed=60, k=4):
    rng = np.random.default_rng(seed)
    blocks = [ssm.init_mamba_block(small_dims(k=k), rng, dtype=dtype, index=i)
              for i in range(depth)]
    for p in blocks:   # steps large enough that the carried state matters
        p.dt_bias.data[:] = rng.uniform(0.2, 0.8, size=16)
    gain = ad.parameter(rng.uniform(0.5, 1.5, size=8).astype(dtype))
    return blocks, gain, rng.standard_normal((B, L, 8)).astype(dtype)


@pytest.mark.parametrize("L, rows", [
    (37, 5),     # L not a multiple of the chunk
    (37, 16),
    (2, 1),      # L < k-1: the conv's past is shorter than its taps
    (3, 2),
    (1, 1),      # one row
    (11, 1),     # one-row chunks
    (9, 40),     # one chunk holds the whole sequence
], ids=("37by5", "37by16", "2by1", "3by2", "1by1", "11by1", "9by40"))
@pytest.mark.parametrize("dtype", (np.float64, np.float32))
def test_streamed_stack_matches_grad_mode(monkeypatch, L, rows, dtype):
    blocks, gain, x = stack_inputs(dtype, L=L)
    whole = ssm.stack_forward(ad.Tensor(x), blocks, gain)
    assert whole.requires_grad                # the grad-mode pass, for reference
    with stream_rows(monkeypatch, rows, 2, 16):
        streamed = ssm.stack_forward(ad.Tensor(x), blocks, gain)
    assert streamed.shape == whole.shape and streamed.dtype == whole.dtype
    assert not streamed.requires_grad
    if rows >= L:
        assert streamed.data.tobytes() == whole.data.tobytes()
    elif dtype == np.float64:
        assert np.abs(streamed.data - whole.data).max() <= 1e-12
    else:
        rel = np.abs(streamed.data - whole.data).max() / np.abs(whole.data).max()
        assert rel <= 1e-5


@pytest.mark.parametrize("L, rows, n, k", [
    pytest.param(L, rows, n, k, id=name if k == 4 else f"{name}-k{k}")
    for L, rows, n, name in [
        (37, 5, 1, "37by5"),         # L not a multiple of the chunk
        (37, 12, 1, "37by12"),       # the last chunk holds the last row alone
        (37, 5, 9, "37by5-9rows"),   # the rows read span chunks
        (2, 1, 1, "2by1"),           # L < k-1 at k = 4
        (1, 1, 1, "1by1"),
        (9, 40, 3, "9by40"),         # one chunk holds the whole sequence
    ] for k in (4, 2, 1)])
@pytest.mark.parametrize("dtype", (np.float64, np.float32))
def test_streamed_stack_tail_matches_grad_mode(monkeypatch, L, rows, n, k, dtype):
    # the normalized last n rows, streamed from a tensor or from Rows formed
    # on demand, and in grad mode, against the grad-mode pass over all rows.
    # Conv kernels of 4, 2 and 1 taps carry 3, 1 and no rows; the one-row
    # chunks of 2by1 and 1by1 are shorter than three
    blocks, gain, x = stack_inputs(dtype, L=L, k=k)
    whole = ssm.stack_forward(ad.Tensor(x), blocks, gain).data[:, L - n:]
    graded = ssm.stack_forward(ad.Tensor(x), blocks, gain, tail=n)
    assert graded.requires_grad
    with stream_rows(monkeypatch, rows, 2, 16):
        streamed = ssm.stack_forward(ad.Tensor(x), blocks, gain, tail=n)
        formed = ssm.stack_forward(
            ssm.Rows(x.shape, lambda r0, r1: ad.Tensor(x[:, r0:r1])), blocks, gain,
            tail=n)
    assert streamed.shape == graded.shape == (2, n, 8)
    assert streamed.dtype == dtype and not streamed.requires_grad
    assert formed.data.tobytes() == streamed.data.tobytes()
    if rows >= L:
        assert streamed.data.tobytes() == graded.data.tobytes()
    for got in (streamed.data, graded.data):
        if dtype == np.float64:
            assert np.abs(got - whole).max() <= 1e-12
        else:
            assert np.abs(got - whole).max() / np.abs(whole).max() <= 1e-5


def test_stack_refuses_a_tail_it_cannot_read():
    blocks, gain, x = stack_inputs(np.float64, L=5)
    for tail in (0, 6):
        with pytest.raises(ContractError, match="tail"):
            ssm.stack_forward(ad.Tensor(x), blocks, gain, tail=tail)


def test_streamed_stack_is_causal(monkeypatch):
    # as the grad-mode probe: bumping row t leaves every earlier row
    # bit-identical, with t before, at and after chunk boundaries
    blocks, gain, x = stack_inputs(np.float64, B=1, L=23)
    with stream_rows(monkeypatch, 4, 1, 16):
        base = ssm.stack_forward(ad.Tensor(x), blocks, gain).data
        for t in (1, 3, 4, 5, 13, 22):
            bumped = x.copy()
            bumped[:, t] += 1.0
            out = ssm.stack_forward(ad.Tensor(bumped), blocks, gain).data
            assert np.array_equal(base[:, :t], out[:, :t]), t
            assert not np.array_equal(base[:, t], out[:, t]), t


def test_streamed_stack_memory_does_not_grow_with_length(monkeypatch):
    # in 32-row chunks, the no-grad peak at L=1024 exceeds the one at L=256
    # by no more than the longer input and output; a pass over the whole
    # sequence would hold several (B, L, E) arrays per block, each as large
    # as that whole allowance
    B, D, E, f = 2, 8, 16, 8
    blocks, gain, _ = stack_inputs(np.float64, B=B, L=1)
    peaks = {}
    with stream_rows(monkeypatch, 32, B, E):
        for L in (256, 1024):
            x = ad.Tensor(np.random.default_rng(L).standard_normal((B, L, D)))
            ssm.stack_forward(x, blocks, gain)          # first-call allocations
            tracemalloc.start()
            try:
                out = ssm.stack_forward(x, blocks, gain)
                peaks[L] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.shape == (B, L, D)
            del out
    in_and_out = 2 * B * (1024 - 256) * D * f
    assert in_and_out == B * (1024 - 256) * E * f   # one (B, L, E) array's growth
    assert peaks[1024] - peaks[256] <= in_and_out + 16 * 1024


def scan_inputs(B, L, E, N, seed=61):
    """A plain scan instance (dt_low, a, b, c, x) with steps in (0.1, 0.9)."""
    rng = np.random.default_rng(seed)
    return (softplus_inverse(rng.uniform(0.1, 0.9, size=(B, L, E))),
            -rng.uniform(0.5, 2.0, size=(E, N)),
            rng.standard_normal((B, L, N)), rng.standard_normal((B, L, N)),
            rng.standard_normal((B, L, E)))


def exact_block(dtype, k=4, seed=62):
    """A block whose every projection has one nonzero entry per column, a
    signed power of two: each product against it is exact, so a GEMM gives
    the same bits over any rows (and through gemv for one row)."""
    rng = np.random.default_rng(seed)
    p = ssm.init_mamba_block(small_dims(k=k), rng, dtype=dtype)
    p.dt_bias.data[:] = rng.uniform(0.2, 0.8, size=16)
    for w in (p.w_in_x, p.w_in_z, p.w_b, p.w_c, p.w_dt_down, p.w_dt_up, p.w_out):
        rows, cols = w.shape
        w.data[:] = 0
        w.data[np.arange(cols) % rows, np.arange(cols)] = (
            rng.choice((-1.0, 1.0), cols) * 2.0 ** rng.integers(-2, 2, cols))
    return p


def test_scan_and_conv_in_pieces_give_the_bits_of_one_pass():
    # with exact GEMMs the rest of the block works row by row, so a
    # sequence split at any rows and run through block_forward with a
    # BlockCarry gives the bits of one pass over it: the conv sees the
    # carried in-projection rows in front of each piece, and the scan
    # continues from the carried state. The carry holds k-1 rows at most
    B, L = 2, 29
    for dtype, k in itertools.product((np.float64, np.float32), (4, 2, 1)):
        p = exact_block(dtype, k)
        x = np.random.default_rng(63).standard_normal((B, L, 8)).astype(dtype)
        with ad.no_grad():
            whole = ssm.block_forward(ad.Tensor(x), p).data
            for cuts in ((1, 2, 3, 20), (7, 16), (28,)):
                carry = ssm.BlockCarry.start(p.dims, B, dtype)
                bounds = (0,) + cuts + (L,)
                for r0, r1 in zip(bounds, bounds[1:]):
                    piece = ssm.block_forward(ad.Tensor(x[:, r0:r1]), p, carry)
                    assert piece.data.tobytes() == whole[:, r0:r1].tobytes()
                    assert carry.conv.shape == (B, min(r1, k - 1), 16)
