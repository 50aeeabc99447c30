import numpy as np
import pytest

from detnum.attention import (
    ChannelAttnParams,
    SpatialAttnParams,
    channel_attention_weights,
    spatial_attention_map,
)
from detnum.tensor import (
    Conv2DParams,
    FeatureTensor,
    conv2d,
    read_blob,
    read_tensor_blob,
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
    return FeatureTensor(rng.normal(0.0, scale, shape))


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
# pooling and sigmoid, as the attention gates run them on `.data`
# ---------------------------------------------------------------------------

def identity_mlp(c):
    """Channel gate whose logits are relu(avg) + relu(max) per channel."""
    return ChannelAttnParams(np.eye(c), np.zeros(c), np.eye(c), np.zeros(c), reduction_ratio=1)


def pool_picker(avg_w, max_w):
    """1x1 spatial gate whose logit is avg_w * avg_c + max_w * max_c."""
    weights = np.array([avg_w, max_w], dtype=float).reshape(1, 2, 1, 1)
    return SpatialAttnParams(Conv2DParams(weights, np.zeros(1)))


def test_channel_pool_constant_input():
    x = ft(np.full((2, 3, 4, 5), 1.5))
    w = channel_attention_weights(x, identity_mlp(3)).data
    assert w.shape == (2, 3, 1, 1)
    assert np.abs(w - sigmoid_ref(1.5 + 1.5)).max() < 1e-15
    for avg_w, max_w in ((1.0, 0.0), (0.0, 1.0)):
        m = spatial_attention_map(x, pool_picker(avg_w, max_w)).data
        assert m.shape == (2, 1, 4, 5)
        assert np.abs(m - sigmoid_ref(1.5)).max() < 1e-15


def test_channel_pool_spike():
    a = np.zeros((1, 1, 4, 4))
    a[0, 0, 2, 3] = 8.0
    w = channel_attention_weights(ft(a), identity_mlp(1)).data
    assert abs(w[0, 0, 0, 0] - sigmoid_ref(0.5 + 8.0)) < 1e-15


def test_pools_match_loop_oracles():
    rng = np.random.default_rng(131)
    x = rand_ft(rng, (3, 4, 5, 6))
    cp = ChannelAttnParams.random(4, 2, rng=rng)

    def mlp(v):
        return np.maximum(v @ cp.w1.T + cp.b1, 0.0) @ cp.w2.T + cp.b2

    want = sigmoid_ref(mlp(channel_pool_loops(x.data, "avg"))
                       + mlp(channel_pool_loops(x.data, "max")))
    got = channel_attention_weights(x, cp).data
    assert np.abs(got[:, :, 0, 0] - want).max() < 1e-12
    for mode, picker in (("avg", pool_picker(1.0, 0.0)), ("max", pool_picker(0.0, 1.0))):
        got = spatial_attention_map(x, picker).data
        assert np.abs(got - sigmoid_ref(spatial_pool_loops(x.data, mode))).max() < 1e-12
    sp = SpatialAttnParams.random(5, rng=rng)
    stacked = np.concatenate([spatial_pool_loops(x.data, "avg"),
                              spatial_pool_loops(x.data, "max")], axis=1)
    want = sigmoid_ref(conv2d_loops(stacked, sp.conv.weights, sp.conv.bias, padding=(2, 2)))
    assert np.abs(spatial_attention_map(x, sp).data - want).max() < 1e-12


def test_sigmoid_at_zero_and_oracle():
    z = ft(np.zeros((1, 2, 2, 2)))
    assert np.all(channel_attention_weights(z, identity_mlp(2)).data == 0.5)
    assert np.all(spatial_attention_map(z, pool_picker(1.0, 1.0)).data == 0.5)
    # on one channel the across-channel mean is the input itself
    rng = np.random.default_rng(137)
    x = rand_ft(rng, (2, 1, 4, 4), scale=3.0)
    got = spatial_attention_map(x, pool_picker(1.0, 0.0)).data
    assert np.abs(got - sigmoid_ref(x.data)).max() < 1e-15


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
