"""Balancing, stratified splitting, the NMSTRIDE container, and the
synthetic generator."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmamba.data import (
    MAGIC, VERSION, ClassBalance, StrideSample, read_manifest, read_samples,
    samples_to_arrays, split_dataset, synthetic_samples, write_manifest,
    write_samples,
)
from netmamba.errors import ConfigError, DataError, ParseError
from netmamba.traffic import ReprConfig

CFG = ReprConfig()


def make_samples(label, n, cfg=CFG):
    rng = np.random.default_rng(label)
    return [
        StrideSample(strides=rng.integers(0, 256, (cfg.n_strides, cfg.stride_len),
                                          dtype=np.uint8), label=label)
        for _ in range(n)
    ]


def test_balance_drops_small_classes():
    balance = ClassBalance(lower=5, upper=100, seed=0)
    assert balance(make_samples(0, 3)) is None
    assert len(balance(make_samples(1, 10))) == 10


def test_balance_subsamples_deterministically():
    big = make_samples(0, 1000)
    a = ClassBalance(lower=1, upper=500, seed=42)(big)
    b = ClassBalance(lower=1, upper=500, seed=42)(big)
    assert len(a) == 500
    assert [id(s) for s in a] == [id(s) for s in b]
    position = {id(s): i for i, s in enumerate(big)}
    kept = [position[id(s)] for s in a]
    assert kept == sorted(kept)  # input order kept
    c = ClassBalance(lower=1, upper=500, seed=43)(big)
    assert [id(s) for s in a] != [id(s) for s in c]


def test_balance_passthrough_in_range():
    balance = ClassBalance(lower=10, upper=500, seed=0)
    assert len(balance(make_samples(0, 100))) == 100


def test_balance_validates_limits():
    with pytest.raises(ConfigError):
        ClassBalance(lower=10, upper=5, seed=0)


def test_split_default_ratios():
    samples = make_samples(0, 100) + make_samples(1, 100)
    train, val, test = split_dataset(samples, (0.8, 0.1, 0.1), seed=1)
    assert (len(train), len(val), len(test)) == (160, 20, 20)
    for label in (0, 1):
        assert sum(1 for s in train if s.label == label) == 80


def test_split_deterministic_and_disjoint():
    samples = make_samples(0, 57) + make_samples(1, 31)
    first = split_dataset(samples, (0.8, 0.1, 0.1), seed=9)
    second = split_dataset(samples, (0.8, 0.1, 0.1), seed=9)
    for a, b in zip(first, second):
        assert [id(s) for s in a] == [id(s) for s in b]
    ids = [id(s) for part in first for s in part]
    assert len(ids) == len(set(ids)) == len(samples)


def test_split_all_train():
    samples = make_samples(0, 10)
    train, val, test = split_dataset(samples, (1, 0, 0), seed=0)
    assert (len(train), len(val), len(test)) == (10, 0, 0)


def test_split_tiny_class_warns_and_goes_to_train():
    samples = make_samples(0, 2) + make_samples(1, 30)
    with pytest.warns(UserWarning, match="only 2 samples"):
        train, val, test = split_dataset(samples, (0.8, 0.1, 0.1), seed=0)
    assert sum(1 for s in train if s.label == 0) == 2
    assert all(s.label != 0 for s in val + test)


def test_split_validates_ratios():
    with pytest.raises(ConfigError):
        split_dataset([], (0.5, 0.2, 0.2), seed=0)
    with pytest.raises(ConfigError):
        split_dataset([], (0.8, 0.3, -0.1), seed=0)


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(3, 40), min_size=1, max_size=4),
       seed=st.integers(0, 2**31 - 1))
def test_split_partition_property(sizes, seed):
    samples = [s for label, n in enumerate(sizes) for s in make_samples(label, n)]
    train, val, test = split_dataset(samples, (0.8, 0.1, 0.1), seed=seed)
    ids = sorted(id(s) for part in (train, val, test) for s in part)
    assert ids == sorted(id(s) for s in samples)


def test_nmstride_round_trip(tmp_path):
    samples = make_samples(0, 3) + make_samples(1, 2)
    samples.append(StrideSample(strides=samples[0].strides.copy(), label=None))
    path = tmp_path / "train.nmstride"
    write_samples(path, samples, CFG, num_classes=2)
    loaded = read_samples(path)
    assert loaded.repr_cfg == CFG
    assert (loaded.n_strides, loaded.stride_len) == (400, 4)
    assert loaded.num_classes == 2
    strides, labels = samples_to_arrays(samples)
    assert strides.shape == (6, 400, 4)
    np.testing.assert_array_equal(loaded.strides, strides)
    np.testing.assert_array_equal(loaded.data, strides.reshape(6, 1600))
    np.testing.assert_array_equal(loaded.labels, labels)


def test_read_samples_holds_the_file_once(tmp_path):
    # 10k paper-geometry samples, a 16 MB file: loading holds its bytes once
    path = tmp_path / "big.nmstride"
    write_samples(path, make_samples(0, 1) * 10_000, CFG, num_classes=1)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        loaded = read_samples(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * size
    assert loaded.data.shape == (10_000, CFG.flow_bytes)
    np.testing.assert_array_equal(loaded.strides[-1], make_samples(0, 1)[0].strides)


def test_samples_to_arrays_refuses_an_empty_list():
    # np.stack used to die on it with a bare ValueError
    with pytest.raises(DataError, match="no samples"):
        samples_to_arrays([])


def test_nmstride_write_is_byte_stable(tmp_path):
    samples = make_samples(0, 4)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_samples(p1, samples, CFG, 1)
    write_samples(p2, samples, CFG, 1)
    assert p1.read_bytes() == p2.read_bytes()


def test_nmstride_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTRIGHT" + bytes(30))
    with pytest.raises(ParseError, match="magic"):
        read_samples(path)


def test_nmstride_rejects_truncation(tmp_path):
    samples = make_samples(0, 2)
    path = tmp_path / "t.bin"
    write_samples(path, samples, CFG, 1)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(ParseError, match="bytes"):
        read_samples(path)


def test_nmstride_rejects_flows_of_2_gib(tmp_path):
    # a header whose M * (N_h + N_p) is 2**31 bytes, over no records
    path = tmp_path / "huge.nmstride"
    path.write_bytes(MAGIC + struct.pack("<H6I", VERSION, 2**23, 256, 0, 4,
                                         2, 0))
    with pytest.raises(ParseError) as err:
        read_samples(path)
    assert str(err.value).startswith(
        f"{path}: flow byte length 2147483648 is not below 2**31")


def test_nmstride_rejects_bad_label(tmp_path):
    samples = make_samples(5, 1)
    with pytest.raises(DataError, match="label 5"):
        write_samples(tmp_path / "x.bin", samples, CFG, num_classes=2)


def test_nmstride_bad_last_sample_leaves_previous_file(tmp_path):
    path = tmp_path / "train.nmstride"
    write_samples(path, make_samples(0, 2), CFG, 1)
    before = path.read_bytes()
    with pytest.raises(DataError, match="sample 3 label 4"):
        write_samples(path, make_samples(0, 3) + make_samples(4, 1), CFG,
                      num_classes=2)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["train.nmstride"]


def test_nmstride_bad_last_sample_leaves_no_new_file(tmp_path):
    short = StrideSample(strides=np.zeros((CFG.n_strides - 1, CFG.stride_len),
                                          dtype=np.uint8), label=0)
    with pytest.raises(DataError, match="sample 2 holds"):
        write_samples(tmp_path / "train.nmstride", make_samples(0, 2) + [short],
                      CFG, 1)
    assert list(tmp_path.iterdir()) == []


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "manifest.json"
    write_manifest(path, ["chat", "video"])
    assert read_manifest(path) == {0: "chat", 1: "video"}


def test_synthetic_shapes_and_determinism():
    a = synthetic_samples(3, 4, CFG, seed=5)
    b = synthetic_samples(3, 4, CFG, seed=5)
    assert len(a) == 12
    assert a[0].strides.shape == (400, 4)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.strides, y.strides)
        assert x.label == y.label
    c = synthetic_samples(3, 4, CFG, seed=6)
    assert any(not np.array_equal(x.strides, y.strides) for x, y in zip(a, c))


def test_synthetic_headers_separate_classes_payloads_random():
    samples = synthetic_samples(2, 2, CFG, seed=0)
    flat = {s.label: s.strides.reshape(5, 320) for s in samples[:3:2]}
    # header regions differ between classes, identical within a class
    assert not np.array_equal(flat[0][:, :80], flat[1][:, :80])
    same_class = [s for s in samples if s.label == 0]
    h0 = same_class[0].strides.reshape(5, 320)[:, :80]
    h1 = same_class[1].strides.reshape(5, 320)[:, :80]
    np.testing.assert_array_equal(h0, h1)
    p0 = same_class[0].strides.reshape(5, 320)[:, 80:]
    p1 = same_class[1].strides.reshape(5, 320)[:, 80:]
    assert not np.array_equal(p0, p1)
