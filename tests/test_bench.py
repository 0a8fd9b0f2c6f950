"""Bench harness surface: CSV format, row contents, and the scaling fit."""

import pytest

from netmamba import bench
from netmamba import model as nm
from netmamba import ssm

TINY = nm.ModelConfig(stride_len=4, d_enc=8, e_enc=16, depth_enc=1, d_dec=8,
                      e_dec=16, depth_dec=1, state_dim=4, dt_rank=4, seq_len=9)

def test_bench_rows_and_csv(tmp_path):
    rows = bench.bench_forward(TINY, batch_sizes=[1, 2], lengths=[8, 16],
                               repeats=5, warmup=1)
    assert len(rows) == 4
    for r in rows:
        assert r["samples_per_sec"] > 0
        assert r["peak_bytes"] > 0
        assert r["median_seconds"] > 0
    path = tmp_path / "bench.csv"
    bench.write_bench_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "batch,seq_len,samples_per_sec,peak_bytes"
    assert len(lines) == 5
    assert lines[1].startswith("1,8,")

def test_fit_scaling_exponent_on_exact_laws():
    lengths = [100, 200, 400]
    linear = [1e-3 * L for L in lengths]
    assert bench.fit_scaling_exponent(lengths, linear) == pytest.approx(1.0)
    quadratic = [1e-6 * L * L for L in lengths]
    assert bench.fit_scaling_exponent(lengths, quadratic) == pytest.approx(2.0)

def test_forward_cost_fits_near_linear_exponent():
    # miniature version of the L / 2L / 4L wall-clock fit. Each pass takes
    # about a millisecond; with 61 rounds of the three lengths taking turns,
    # 60 fits on a shared 2-vCPU host fell between 0.83 and 1.02
    exponent = bench.scaling_exponent(TINY, lengths=(64, 128, 256), batch=1,
                                      repeats=61)
    assert exponent <= 1.3


@pytest.mark.parametrize("repeats", (1, 3))
def test_bench_forward_times_exactly_repeats_passes(monkeypatch, repeats):
    # per (batch, length): warmup passes, repeats timed passes, one traced pass
    calls = []
    real = ssm.stack_forward
    monkeypatch.setattr(ssm, "stack_forward",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    bench.bench_forward(TINY, batch_sizes=[1], lengths=[8, 16],
                        repeats=repeats, warmup=2)
    assert len(calls) == 2 * (2 + repeats + 1)
