import numpy as np
import pytest

from detnum.tensor import (
    Conv2DParams,
    FeatureTensor,
    channel_pool,
    conv2d,
    hadamard,
    read_blob,
    read_tensor_blob,
    sigmoid,
    spatial_pool,
    write_blob,
)

from helpers import (
    channel_pool_loops,
    conv2d_loops,
    sigmoid_ref,
    spatial_pool_loops,
)


def ft(a):
    return FeatureTensor(np.asarray(a, dtype=float))


def rand_ft(rng, shape, scale=1.0):
    return FeatureTensor.random(shape, rng, scale=scale)


# ---------------------------------------------------------------------------
# FeatureTensor / Conv2DParams validation
# ---------------------------------------------------------------------------

def test_feature_tensor_validation():
    with pytest.raises(ValueError):
        FeatureTensor(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError):
        FeatureTensor(np.zeros((0, 1, 1, 1)))
    with pytest.raises(ValueError):
        FeatureTensor(np.full((1, 1, 1, 1), np.nan))


def test_feature_tensor_immutability():
    x = ft(np.zeros((1, 1, 2, 2)))
    with pytest.raises(ValueError):
        x.data[0, 0, 0, 0] = 1.0


def test_conv_params_validation():
    with pytest.raises(ValueError):
        Conv2DParams(np.zeros((2, 1, 3, 3)), np.zeros(3))
    with pytest.raises(ValueError):
        Conv2DParams(np.zeros((2, 1, 3, 3)), np.zeros(2), stride=0)
    with pytest.raises(ValueError):
        Conv2DParams(np.zeros((2, 1, 3, 3)), np.zeros(2), padding=-1)


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def test_conv_identity_kernel():
    rng = np.random.default_rng(107)
    x = rand_ft(rng, (2, 1, 5, 5))
    p = Conv2DParams(np.ones((1, 1, 1, 1)), np.zeros(1))
    assert np.array_equal(conv2d(x, p).data, x.data)


def test_conv_box_kernel_on_constant_input():
    # 3x3 all-ones kernel over a constant-1 5x5 image with padding 1:
    # interior sees 9 ones, corners only 4
    x = ft(np.ones((1, 1, 5, 5)))
    p = Conv2DParams(np.ones((1, 1, 3, 3)), np.zeros(1), padding=1)
    y = conv2d(x, p).data[0, 0]
    assert y.shape == (5, 5)
    assert y[2, 2] == 9.0
    assert y[0, 0] == 4.0
    assert y[0, 4] == 4.0
    assert y[4, 0] == 4.0
    assert y[0, 2] == 6.0


def test_conv_zero_input_yields_bias():
    x = ft(np.zeros((2, 3, 4, 4)))
    rng = np.random.default_rng(109)
    p = Conv2DParams(rng.normal(size=(5, 3, 3, 3)), np.array([1.0, -2.0, 0.5, 0.0, 3.0]))
    y = conv2d(x, p).data
    for co in range(5):
        assert np.all(y[:, co] == p.bias[co])


def test_conv_linearity_with_zero_bias():
    rng = np.random.default_rng(113)
    a = rand_ft(rng, (1, 2, 6, 6))
    b = rand_ft(rng, (1, 2, 6, 6))
    p = Conv2DParams(rng.normal(size=(3, 2, 3, 3)), np.zeros(3))
    lhs = conv2d(ft(2.0 * a.data + 3.0 * b.data), p).data
    rhs = 2.0 * conv2d(a, p).data + 3.0 * conv2d(b, p).data
    assert np.abs(lhs - rhs).max() < 1e-12


def test_conv_matches_loop_oracle_over_grid():
    rng = np.random.default_rng(127)
    for k in (1, 3, 5):
        for s in (1, 2):
            for pad in (0, 1, 2):
                x = rand_ft(rng, (2, 3, 7, 8))
                p = Conv2DParams(rng.normal(size=(4, 3, k, k)), rng.normal(size=4),
                                 stride=s, padding=pad)
                got = conv2d(x, p).data
                want = conv2d_loops(x.data, p.weights, p.bias,
                                    stride=(s, s), padding=(pad, pad))
                assert got.shape == want.shape
                assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("x_shape, w_shape, stride, padding", [
    ((1, 3, 7, 8), (4, 3, 3, 1), (1, 1), (1, 0)),
    ((1, 3, 7, 8), (4, 3, 1, 5), (1, 1), (0, 2)),
    ((1, 3, 7, 8), (4, 3, 2, 3), (1, 1), (0, 1)),
    ((1, 3, 9, 10), (4, 3, 3, 3), (2, 1), (1, 1)),
    ((1, 3, 9, 10), (4, 3, 3, 3), (1, 3), (1, 1)),
    ((1, 3, 7, 8), (4, 3, 3, 3), (1, 1), (2, 0)),
    ((2, 3, 9, 11), (2, 3, 2, 3), (2, 3), (1, 2)),
    ((2, 2, 12, 12), (1, 2, 7, 7), (1, 1), (3, 3)),
], ids=["kernel-3x1", "kernel-1x5", "kernel-2x3", "stride-2-1", "stride-1-3",
        "padding-2-0", "batch-2-all-unequal", "attention-2-to-1-7x7"])
def test_conv_matches_loop_oracle_off_the_square_grid(x_shape, w_shape, stride, padding):
    rng = np.random.default_rng(131)
    x = rand_ft(rng, x_shape)
    p = Conv2DParams(rng.normal(size=w_shape), rng.normal(size=w_shape[0]),
                     stride=stride, padding=padding)
    got = conv2d(x, p).data
    want = conv2d_loops(x.data, p.weights, p.bias, stride=stride, padding=padding)
    assert got.shape == want.shape
    assert np.abs(got - want).max() < 1e-12


def test_conv_rejects_channel_mismatch_and_undersized_input():
    x = ft(np.zeros((1, 2, 4, 4)))
    with pytest.raises(ValueError):
        conv2d(x, Conv2DParams(np.zeros((1, 3, 3, 3)), np.zeros(1)))
    with pytest.raises(ValueError):
        conv2d(x, Conv2DParams(np.zeros((1, 2, 7, 7)), np.zeros(1)))


# ---------------------------------------------------------------------------
# pooling / sigmoid / hadamard
# ---------------------------------------------------------------------------

def test_channel_pool_constant_input():
    x = ft(np.full((2, 3, 4, 5), 1.5))
    avg, mx = channel_pool(x)
    assert avg.shape == (2, 3, 1, 1)
    assert np.all(avg.data == 1.5)
    assert np.all(mx.data == 1.5)


def test_channel_pool_spike():
    a = np.zeros((1, 1, 4, 4))
    a[0, 0, 2, 3] = 8.0
    avg, mx = channel_pool(ft(a))
    assert avg.data[0, 0, 0, 0] == 0.5
    assert mx.data[0, 0, 0, 0] == 8.0


def test_pools_match_loop_oracles():
    rng = np.random.default_rng(131)
    x = rand_ft(rng, (3, 4, 5, 6))
    avg, mx = channel_pool(x)
    assert np.abs(avg.data[:, :, 0, 0] - channel_pool_loops(x.data, "avg")).max() < 1e-12
    assert np.abs(mx.data[:, :, 0, 0] - channel_pool_loops(x.data, "max")).max() < 1e-12
    savg, smx = spatial_pool(x)
    assert np.abs(savg.data - spatial_pool_loops(x.data, "avg")).max() < 1e-12
    assert np.abs(smx.data - spatial_pool_loops(x.data, "max")).max() < 1e-12


def test_sigmoid_at_zero_and_oracle():
    z = ft(np.zeros((1, 1, 2, 2)))
    assert np.all(sigmoid(z).data == 0.5)
    rng = np.random.default_rng(137)
    x = rand_ft(rng, (2, 3, 4, 4), scale=3.0)
    assert np.abs(sigmoid(x).data - sigmoid_ref(x.data)).max() < 1e-15


def test_hadamard_ones_identity_and_broadcast():
    rng = np.random.default_rng(139)
    x = rand_ft(rng, (2, 3, 4, 4))
    ones = FeatureTensor(np.ones((2, 3, 4, 4)))
    assert np.array_equal(hadamard(x, ones).data, x.data)
    # channel weights broadcast over space
    w = FeatureTensor(np.arange(6, dtype=float).reshape(2, 3, 1, 1))
    got = hadamard(x, w).data
    for bi in range(2):
        for ci in range(3):
            assert np.abs(got[bi, ci] - x.data[bi, ci] * w.data[bi, ci, 0, 0]).max() < 1e-15


def test_hadamard_rejects_incompatible_shapes():
    with pytest.raises(ValueError):
        hadamard(ft(np.zeros((1, 3, 4, 4))), ft(np.zeros((1, 2, 4, 4))))


# ---------------------------------------------------------------------------
# blob IO
# ---------------------------------------------------------------------------

def test_blob_roundtrip_multiple_arrays(tmp_path):
    rng = np.random.default_rng(157)
    arrays = {
        "zeta": rng.normal(size=(2, 3)),
        "alpha": rng.normal(size=(4,)).astype(np.float32),
        "mid": rng.normal(size=(1, 2, 2, 2)),
    }
    path = tmp_path / "pack.ntb"
    write_blob(path, arrays)
    back = read_blob(path)
    assert sorted(back) == sorted(arrays)
    for k, v in arrays.items():
        assert back[k].dtype == (np.float32 if k == "alpha" else np.float64)
        assert np.array_equal(back[k], v)


def test_blob_write_is_deterministic(tmp_path):
    rng = np.random.default_rng(163)
    arrays = {"b": rng.normal(size=(3, 3)), "a": rng.normal(size=(2,))}
    p1, p2 = tmp_path / "one.ntb", tmp_path / "two.ntb"
    write_blob(p1, arrays)
    write_blob(p2, dict(reversed(list(arrays.items()))))
    assert p1.read_bytes() == p2.read_bytes()


def test_blob_rejects_bad_magic_and_truncation(tmp_path):
    p = tmp_path / "bad.ntb"
    p.write_bytes(b"XXXX\x00\x00\x00\x00")
    with pytest.raises(ValueError):
        read_blob(p)
    good = tmp_path / "good.ntb"
    write_blob(good, {"t": np.zeros((2, 2)), "u": np.ones(3, dtype=np.float32)})
    raw = good.read_bytes()
    trunc = tmp_path / "trunc.ntb"
    for cut in range(len(raw)):
        trunc.write_bytes(raw[:cut])
        with pytest.raises(ValueError) as info:
            read_blob(trunc)
        assert str(info.value).startswith(f"{trunc}: "), (cut, str(info.value))
    (tmp_path / "name.ntb").write_bytes(raw[:10] + b"\xff" + raw[11:])
    with pytest.raises(ValueError, match=r"name\.ntb: record name at byte 10 is not UTF-8"):
        read_blob(tmp_path / "name.ntb")
    (tmp_path / "extra.ntb").write_bytes(raw + b"\x00")
    with pytest.raises(ValueError):
        read_blob(tmp_path / "extra.ntb")


def test_tensor_blob_roundtrip(tmp_path):
    rng = np.random.default_rng(167)
    x = rand_ft(rng, (2, 3, 4, 5))
    path = tmp_path / "t.ntb"
    write_blob(path, {"tensor": x.data})
    back = read_tensor_blob(path)
    assert np.array_equal(back.data, x.data)
    write_blob(path, {"other": np.zeros(3)})
    with pytest.raises(ValueError):
        read_tensor_blob(path)
    write_blob(path, {"tensor": np.full((1, 1, 2, 2), np.nan)})
    with pytest.raises(ValueError, match=r"t\.ntb: FeatureTensor entries must be finite"):
        read_tensor_blob(path)
