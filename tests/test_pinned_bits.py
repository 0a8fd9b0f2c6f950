"""Bits of a paper-width Mamba block and of the streamed classifier, pinned.

The digests below are sha256 prefixes of float32 results, recorded before
the conv and the B/C/dt projections moved into ``ssm.selective_scan``. A
change to how the block arranges its work must leave every one of them
as it is: output, every parameter and input gradient, at all rows and with
the last row read alone, and the logits of a no-grad pass streamed in row
chunks.

Float bits depend on the BLAS kernels and numpy's SIMD loops, so the pins
hold for the machine they were recorded on. ``KERNELS`` is the digest of a
few small products and transcendental calls through the same routines; on
a machine where it differs the pins are not comparable and the tests skip.
The byte-equality tests against the unfused ops in ``test_ssm.py`` run
everywhere."""

import hashlib

import numpy as np
import pytest

from netmamba import autodiff as ad
from netmamba import model as nm
from netmamba import ssm

PAPER = nm.ModelConfig()

KERNELS = "ce9f45a63e428042"

BLOCK = {
    "all rows": {
        "out": "efe9f8016b58904d", "x": "820085c2a4a65978",
        "norm_gain": "a2a871335bfe1e43", "w_in_x": "6c0509db1f9ceb9c",
        "w_in_z": "82e8e27c5f8fcb9e", "conv_w": "082e3aa0f31e505f",
        "conv_b": "f9f37627bdf3b5ee", "w_b": "60fc9940a55e089e",
        "w_c": "7d6e8150270f8580", "w_dt_down": "fd34177d378453fd",
        "w_dt_up": "6ab858681d8bfda8", "dt_bias": "0fb5b081370f6bf5",
        "a_log": "e8073c4242dcf369", "w_out": "0c5c04ca5726ca09",
    },
    "last row": {
        "out": "4709486161dc5000", "x": "30a5fb5cf250d9ff",
        "norm_gain": "70ee7fccf2b29189", "w_in_x": "3103c92093dee145",
        "w_in_z": "a50863a0e5211139", "conv_w": "3fd6ea6740c2ed9c",
        "conv_b": "32b46f4f4bd5c94b", "w_b": "c2139aed2d6199c1",
        "w_c": "b0dc31058b474888", "w_dt_down": "f1487f5731b07e2a",
        "w_dt_up": "be685a6d352ab6da", "dt_bias": "dd718e699452f4c7",
        "a_log": "0513fb935cbf5632", "w_out": "563b43cc211394d3",
    },
}

LOGITS = "cc591ebbab12f1a4"


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def kernels() -> str:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 37, 64)).astype(np.float32)
    w = rng.standard_normal((64, 48)).astype(np.float32)
    v = rng.standard_normal(4096).astype(np.float32)
    return digest(a @ w, np.swapaxes(a, -1, -2) @ (a @ w), a[:, :1] @ w,
                  np.tanh(v), np.exp(v), np.log1p(np.exp(v)),
                  np.einsum("ble,ble->e", a, a), a.sum(axis=(0, 1)))


@pytest.fixture
def recorded_kernels():
    if kernels() != KERNELS:
        pytest.skip("float kernels differ from the ones the pins were recorded on")


def block_bits(tail):
    rng = np.random.default_rng(70)
    dims = ssm.SSMDims(d=PAPER.d_enc, e=PAPER.e_enc, n=PAPER.state_dim,
                       r=PAPER.dt_rank, k=PAPER.conv_kernel)
    p = ssm.init_mamba_block(dims, rng)
    x = ad.Tensor(rng.standard_normal((2, PAPER.seq_len, dims.d)).astype(np.float32),
                  requires_grad=True)
    out = ssm.block_forward(x, p, tail=tail)
    ad.backward(ad.sum(ad.mul(out, rng.standard_normal(out.shape).astype(np.float32))))
    return {"out": digest(out.data), "x": digest(x.grad),
            **{name: digest(t.grad) for name, t in p.named()}}


@pytest.mark.parametrize("case, tail", (("all rows", None), ("last row", 1)))
def test_paper_width_block_keeps_its_bits(recorded_kernels, case, tail):
    assert block_bits(tail) == BLOCK[case]


def test_streamed_logits_keep_their_bits(recorded_kernels, monkeypatch):
    # 64-row chunks at batch 2: every block carries its conv rows and scan
    # state across six chunk boundaries
    rng = np.random.default_rng(71)
    params = nm.init_params(PAPER, rng, with_decoder=False, with_head=True)
    strides = rng.integers(0, 256, (2, PAPER.n_strides, PAPER.stride_len))
    monkeypatch.setattr(ssm, "_STREAM_BLOCK", 64 * 2 * PAPER.e_enc)
    with ad.no_grad():
        logits = nm.finetune_forward(strides, params).data
    assert logits.dtype == np.float32
    assert digest(logits) == LOGITS
