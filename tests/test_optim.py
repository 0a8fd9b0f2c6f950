"""Optimizer update rule, clipping, decay policy, and the LR schedule."""

import numpy as np
import pytest

from netmamba import autodiff as ad
from netmamba.errors import NumericFaultError
from netmamba.optim import (
    OptimState, Schedule, adamw_step, clip_global_norm, decayable, zero_grads,
)


def params_of(**arrays):
    out = {}
    for name, arr in arrays.items():
        t = ad.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)
        out[name] = t
    return out


def test_zero_gradient_no_decay_leaves_params_unchanged():
    p = params_of(w=[[1.0, 2.0]])
    p["w"].grad = np.zeros((1, 2))
    state = OptimState(weight_decay=0.0)
    adamw_step(p, state, lr_t=0.1)
    np.testing.assert_array_equal(p["w"].data, [[1.0, 2.0]])


def test_single_step_update_magnitude_is_lr():
    # g=1 everywhere: bias correction makes m_hat/sqrt(v_hat) = 1
    p = params_of(w=np.zeros((3, 3)))
    p["w"].grad = np.ones((3, 3))
    state = OptimState(weight_decay=0.0)
    adamw_step(p, state, lr_t=0.01)
    np.testing.assert_allclose(-p["w"].data, 0.01, rtol=1e-6)


def test_quadratic_bowl_converges():
    p = params_of(theta=[1.0])
    state = OptimState(weight_decay=0.0)
    for _ in range(200):
        p["theta"].grad = 2.0 * p["theta"].data
        adamw_step(p, state, lr_t=0.1)
    assert abs(p["theta"].data[0]) < 1e-2


def test_nonfinite_gradient_aborts_whole_step():
    p = params_of(a=np.ones((2, 2)), b=np.ones(2))
    p["a"].grad = np.ones((2, 2))
    p["b"].grad = np.array([1.0, np.nan])
    state = OptimState()
    with pytest.raises(NumericFaultError, match="b"):
        adamw_step(p, state, lr_t=0.1)
    np.testing.assert_array_equal(p["a"].data, np.ones((2, 2)))
    assert state.step == 0


def test_weight_decay_policy():
    assert decayable("enc.0.w_in_x", ad.Tensor(np.zeros((3, 3))))
    assert not decayable("enc.0.a_log", ad.Tensor(np.zeros((3, 3))))
    assert not decayable("enc.0.dt_bias", ad.Tensor(np.zeros(3)))
    assert not decayable("embed.cls", ad.Tensor(np.zeros(3)))


def test_decay_pulls_matrices_toward_zero_without_gradient():
    p = params_of(w=np.full((2, 2), 4.0), g=np.full(2, 4.0))
    p["w"].grad = np.zeros((2, 2))
    p["g"].grad = np.zeros(2)
    adamw_step(p, OptimState(weight_decay=0.1), lr_t=0.5)
    np.testing.assert_allclose(p["w"].data, 4.0 - 0.5 * 0.1 * 4.0)
    np.testing.assert_array_equal(p["g"].data, np.full(2, 4.0))


def test_clip_global_norm():
    p = params_of(a=np.zeros(3), b=np.zeros(4))
    p["a"].grad = np.full(3, 3.0)
    p["b"].grad = np.full(4, 4.0)
    norm = clip_global_norm(p, max_norm=1.0)
    assert norm == pytest.approx(np.sqrt(9 * 3 + 16 * 4))
    total = np.sqrt(sum(float((t.grad ** 2).sum()) for t in p.values()))
    assert total == pytest.approx(1.0)


def test_clip_noop_below_threshold():
    p = params_of(a=np.zeros(2))
    p["a"].grad = np.array([0.3, 0.4])
    clip_global_norm(p, max_norm=1.0)
    np.testing.assert_allclose(p["a"].grad, [0.3, 0.4])


def test_zero_grads():
    p = params_of(a=np.zeros(2))
    p["a"].grad = np.ones(2)
    zero_grads(p)
    assert p["a"].grad is None


def test_schedule_warmup_then_cosine():
    sched = Schedule(base_lr=1.0, total_steps=100, warmup_steps=10)
    assert sched.lr_at(0) == pytest.approx(0.1)
    assert sched.lr_at(9) == pytest.approx(1.0)
    after = [sched.lr_at(s) for s in range(10, 100)]
    assert all(a >= b - 1e-12 for a, b in zip(after, after[1:]))
    assert sched.lr_at(99) == pytest.approx(0.0, abs=1e-3)
