"""Recurrence correctness: the fused scan vs convolutional form vs direct
summation, causality, stability, and block-level gradients."""

import contextlib
import math
import tracemalloc

import numpy as np
import pytest

from netmamba import autodiff as ad
from netmamba import ssm
from netmamba.errors import ContractError, NumericFaultError, ShapeError

from helpers import max_rel_err

RNG = np.random.default_rng(11)


def discretize_loop_oracle(delta, a, b_in):
    B, L, E = delta.shape
    N = a.shape[1]
    abar = np.empty((B, L, E, N))
    bbar = np.empty((B, L, E, N))
    for b in range(B):
        for l in range(L):
            for e in range(E):
                for n in range(N):
                    abar[b, l, e, n] = math.exp(delta[b, l, e] * a[e, n])
                    bbar[b, l, e, n] = delta[b, l, e] * b_in[b, l, n]
    return abar, bbar


def direct_scan_oracle(abar, bbar, c, x):
    """O(L^2) expansion of the recurrence; works for time-varying inputs."""
    B, L, E, N = abar.shape
    y = np.zeros((B, L, E))
    for t in range(L):
        for s in range(t + 1):
            prod = np.ones((B, E, N))
            for u in range(s + 1, t + 1):
                prod = prod * abar[:, u]
            contrib = prod * bbar[:, s] * x[:, s][..., None]
            y[:, t] += np.einsum("bn,ben->be", c[:, t], contrib)
    return y


def conv_form_oracle(abar, bbar, c, x):
    """Convolutional form of the recurrence, valid only when the discrete
    parameters are constant along the sequence axis: materializes the kernel
    (C Bbar, C Abar Bbar, ..., C Abar^{L-1} Bbar) and convolves. Raises on
    time-varying inputs.
    """
    abar = np.asarray(abar, dtype=np.float64)
    bbar = np.asarray(bbar, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    B, L, E, N = abar.shape
    for name, arr in (("abar", abar), ("bbar", bbar), ("c", c)):
        if not np.array_equal(arr, np.broadcast_to(arr[:, :1], arr.shape)):
            raise ContractError(f"conv_form_oracle requires time-invariant {name}")
    a0, b0, c0 = abar[:, 0], bbar[:, 0], c[:, 0]   # (B,E,N), (B,E,N), (B,N)
    powers = np.ones_like(a0)
    kernel = np.empty((L, B, E))
    for j in range(L):
        kernel[j] = np.einsum("bn,ben->be", c0, powers * b0)
        powers = powers * a0
    y = np.zeros((B, L, E))
    for t in range(L):
        for j in range(t + 1):
            y[:, t] += kernel[j] * x[:, t - j]
    return y


def random_instance(rng, B=2, L=8, E=3, N=2, time_invariant=False):
    def draw(shape):
        return rng.uniform(0.05, 1.0, size=shape)

    if time_invariant:
        delta = np.tile(draw((B, 1, E)), (1, L, 1))
        b_in = np.tile(rng.standard_normal((B, 1, N)), (1, L, 1))
        c = np.tile(rng.standard_normal((B, 1, N)), (1, L, 1))
    else:
        delta = draw((B, L, E))
        b_in = rng.standard_normal((B, L, N))
        c = rng.standard_normal((B, L, N))
    a = -rng.uniform(0.2, 2.0, size=(E, N))
    x = rng.standard_normal((B, L, E))
    return delta, a, b_in, c, x


def scan(delta, a, b_in, c, x):
    return ssm.selective_scan(*(ad.Tensor(v) for v in (delta, a, b_in, c, x))).data


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


def test_scan_rejects_mismatched_shapes():
    delta, a, b_in, c, x = random_instance(np.random.default_rng(0))
    with pytest.raises(ShapeError, match="selective_scan"):
        scan(delta, a.T, b_in, c, x)
    with pytest.raises(ShapeError, match="selective_scan"):
        scan(delta, a, b_in, c[:, :-1], x)


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
    inputs = [ad.Tensor(v, requires_grad=True)
              for v in random_instance(rng, B=1, L=5, E=2, N=2)]
    w = np.random.default_rng(0).standard_normal((1, 5, 2))
    f = lambda: ad.sum(ad.mul(ssm.selective_scan(*inputs), w))
    assert max_rel_err(f, inputs) < 1e-6


def test_scan_output_identical_with_and_without_grad():
    rng = np.random.default_rng(19)
    inputs = [ad.Tensor(v.astype(np.float32), requires_grad=True)
              for v in random_instance(rng, B=2, L=33, E=5, N=3)]
    graded = ssm.selective_scan(*inputs)
    with ad.no_grad():
        plain = ssm.selective_scan(*inputs)
    assert graded.requires_grad and not plain.requires_grad
    np.testing.assert_array_equal(graded.data, plain.data)


def test_scan_keeps_no_state_history_without_grad():
    # the (L, B, E, N) state history is 4 MB here; every other array the
    # scan allocates is (L, B, E) or smaller
    rng = np.random.default_rng(20)
    inputs = [ad.Tensor(v, requires_grad=True)
              for v in random_instance(rng, B=1, L=4000, E=8, N=16)]
    history = 4000 * 8 * 16 * 8

    def peak(grad: bool) -> int:
        tracemalloc.start()
        try:
            with contextlib.nullcontext() if grad else ad.no_grad():
                ssm.selective_scan(*inputs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(False) < history / 2
    assert peak(True) >= history


def small_dims(d=8, e=16, n=4, r=4):
    return ssm.SSMDims(d=d, e=e, n=n, r=r)


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
    xc = ad.silu(ad.causal_conv1d(ad.matmul(norm, p.w_in_x), p.conv_w, p.conv_b))
    dt = ad.softplus(ad.add(ad.matmul(ad.matmul(xc, p.w_dt_down), p.w_dt_up), p.dt_bias))
    a = ad.neg(ad.exp(p.a_log))
    B, L, E = dt.shape
    for n in range(a.shape[1]):
        onehot = np.zeros((B, L, a.shape[1]))
        onehot[:, :, n] = 1.0
        kick = np.zeros((B, L, a.shape[1]))
        kick[:, 0, n] = 1.0
        y = ssm.selective_scan(dt, a, ad.Tensor(kick), ad.Tensor(onehot),
                               ad.Tensor(np.ones((B, L, E)))).data
        factors = y[:, 1:] / y[:, :-1]
        np.testing.assert_allclose(
            factors, np.exp(dt.data[:, 1:] * a.data[:, n]), rtol=1e-12)
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


def test_state_skip_flag_adds_passthrough():
    rng = np.random.default_rng(18)
    p = ssm.init_mamba_block(small_dims(), rng, dtype=np.float64, use_state_skip=True)
    assert p.state_skip is not None
    x = ad.Tensor(rng.standard_normal((1, 4, 8)))
    out = ssm.block_forward(x, p)
    assert out.shape == (1, 4, 8)
    assert any(name == "state_skip" for name, _ in p.named())
