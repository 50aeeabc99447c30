import numpy as np
import pytest

from detnum.attention import (
    ChannelAttnParams,
    SpatialAttnParams,
    cbam,
    channel_attention_weights,
    spatial_attention_map,
)
from detnum.tensor import Conv2DParams, FeatureTensor, hadamard

from helpers import channel_weights_loops, parallel_attention


def rand_params(rng, channels, reduction=4, kernel=7):
    return (ChannelAttnParams.random(channels, reduction, rng=rng),
            SpatialAttnParams.random(kernel, rng=rng))


def zero_bias_spatial(kernel=7, weights=None):
    k = kernel
    w = np.zeros((1, 2, k, k)) if weights is None else weights
    return SpatialAttnParams(Conv2DParams(w, np.zeros(1), stride=1,
                                          padding=(k - 1) // 2))


def zero_channel_params(c, reduction=4):
    hidden = max(1, c // reduction)
    return ChannelAttnParams(np.zeros((hidden, c)), np.zeros(hidden),
                             np.zeros((c, hidden)), np.zeros(c),
                             reduction_ratio=reduction)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_channel_params_shape_validation():
    with pytest.raises(ValueError):
        ChannelAttnParams(np.zeros((3, 8)), np.zeros(3), np.zeros((8, 3)), np.zeros(8),
                          reduction_ratio=4)  # hidden should be 2
    with pytest.raises(ValueError):
        ChannelAttnParams(np.zeros((2, 8)), np.zeros(2), np.zeros((7, 2)), np.zeros(7),
                          reduction_ratio=4)


def test_channel_params_hidden_width_clamped_to_one():
    p = ChannelAttnParams.random(3, 16, rng=np.random.default_rng(0))
    assert p.w1.shape == (1, 3)


@pytest.mark.parametrize("ratio", [0, -1])
def test_channel_params_random_rejects_ratio_below_one(ratio):
    with pytest.raises(ValueError, match=f"reduction_ratio must be >= 1, got {ratio}"):
        ChannelAttnParams.random(8, ratio, rng=np.random.default_rng(0))


def test_spatial_params_validation():
    with pytest.raises(ValueError):
        SpatialAttnParams(Conv2DParams(np.zeros((1, 3, 7, 7)), np.zeros(1),
                                       stride=1, padding=3))
    with pytest.raises(ValueError):
        SpatialAttnParams(Conv2DParams(np.zeros((1, 2, 4, 4)), np.zeros(1),
                                       stride=1, padding=1))
    with pytest.raises(ValueError):
        SpatialAttnParams(Conv2DParams(np.zeros((1, 2, 7, 7)), np.zeros(1),
                                       stride=1, padding=0))


# ---------------------------------------------------------------------------
# spatial attention
# ---------------------------------------------------------------------------

def test_spatial_map_zero_everything_is_half():
    x = FeatureTensor(np.zeros((2, 3, 5, 5)))
    m = spatial_attention_map(x, zero_bias_spatial())
    assert m.shape == (2, 1, 5, 5)
    assert np.all(m.data == 0.5)


def test_spatial_map_constant_input_constant_interior():
    # away from the padded border every window sees the same values
    rng = np.random.default_rng(173)
    sp = SpatialAttnParams.random(3, rng=rng)
    x = FeatureTensor(np.full((1, 4, 8, 8), 0.7))
    m = spatial_attention_map(x, sp).data[0, 0]
    interior = m[1:-1, 1:-1]
    assert np.abs(interior - interior[0, 0]).max() < 1e-12


def test_spatial_map_strictly_inside_unit_interval():
    rng = np.random.default_rng(179)
    x = FeatureTensor(rng.normal(0.0, 4.0, (2, 3, 6, 6)))
    m = spatial_attention_map(x, SpatialAttnParams.random(7, rng=rng)).data
    assert np.all(m > 0.0)
    assert np.all(m < 1.0)


def test_apply_spatial_zero_input_stays_zero():
    rng = np.random.default_rng(181)
    x = FeatureTensor(np.zeros((1, 2, 6, 6)))
    y = hadamard(x, spatial_attention_map(x, SpatialAttnParams.random(7, rng=rng)))
    assert np.all(y.data == 0.0)


def test_apply_spatial_matches_manual_composition():
    rng = np.random.default_rng(191)
    x = FeatureTensor.random((2, 3, 5, 7), rng)
    sp = SpatialAttnParams.random(5, rng=rng)
    m = spatial_attention_map(x, sp)
    want = x.data * m.data  # broadcast across channels
    assert np.abs(hadamard(x, m).data - want).max() < 1e-15


# ---------------------------------------------------------------------------
# channel attention
# ---------------------------------------------------------------------------

def test_channel_weights_zero_mlp_gives_half_and_zero_output_on_zero_input():
    x = FeatureTensor(np.zeros((2, 4, 3, 3)))
    p = zero_channel_params(4)
    w = channel_attention_weights(x, p)
    assert np.all(w.data == 0.5)
    assert np.all(hadamard(x, w).data == 0.0)


def test_channel_weights_identical_channels_get_identical_weights():
    rng = np.random.default_rng(193)
    plane = rng.normal(size=(1, 1, 4, 4))
    x = FeatureTensor(np.repeat(plane, 3, axis=1))
    # weight sharing across the pooled vector: identical channel statistics
    # must produce identical gate values
    hidden = 1
    w1 = np.tile(rng.normal(size=(hidden, 1)), (1, 3))
    w2 = np.tile(rng.normal(size=(1, hidden)), (3, 1))
    p = ChannelAttnParams(w1, rng.normal(size=hidden), w2, np.full(3, 0.2),
                          reduction_ratio=16)
    w = channel_attention_weights(x, p).data[0, :, 0, 0]
    assert np.abs(w - w[0]).max() < 1e-15


def test_channel_weights_match_loop_oracle():
    rng = np.random.default_rng(197)
    for c, r in ((4, 2), (8, 4), (5, 16)):
        x = FeatureTensor.random((2, c, 5, 5), rng)
        p = ChannelAttnParams.random(c, r, rng=rng)
        got = channel_attention_weights(x, p).data[:, :, 0, 0]
        want = channel_weights_loops(x.data, p.w1, p.b1, p.w2, p.b2)
        assert np.abs(got - want).max() < 1e-12


def test_channel_weights_in_open_interval():
    rng = np.random.default_rng(199)
    x = FeatureTensor(rng.normal(0.0, 5.0, (3, 8, 4, 4)))
    w = channel_attention_weights(x, ChannelAttnParams.random(8, 2, rng=rng)).data
    assert np.all(w > 0.0)
    assert np.all(w < 1.0)


def test_channel_weights_channel_count_mismatch():
    rng = np.random.default_rng(211)
    with pytest.raises(ValueError):
        channel_attention_weights(FeatureTensor(np.zeros((1, 5, 3, 3))),
                                  ChannelAttnParams.random(4, 2, rng=rng))


# ---------------------------------------------------------------------------
# cbam cascade
# ---------------------------------------------------------------------------

def test_cbam_zero_input_zero_output():
    rng = np.random.default_rng(223)
    cp, sp = rand_params(rng, 4)
    r = cbam(FeatureTensor(np.zeros((2, 4, 6, 6))), cp, sp)
    assert np.all(r.output.data == 0.0)


def test_cbam_shapes_preserved_across_grid():
    rng = np.random.default_rng(227)
    for shape in [(1, 4, 6, 6), (2, 8, 5, 7), (3, 16, 8, 8), (1, 3, 9, 5)]:
        cp, sp = rand_params(rng, shape[1])
        r = cbam(FeatureTensor.random(shape, rng), cp, sp)
        assert r.output.shape == shape
        assert r.channel_weights.shape == (shape[0], shape[1], 1, 1)
        assert r.spatial_map.shape == (shape[0], 1, shape[2], shape[3])


def test_cbam_gates_shrink_magnitudes_elementwise():
    rng = np.random.default_rng(229)
    cp, sp = rand_params(rng, 6)
    x = FeatureTensor(rng.normal(0.0, 2.0, (2, 6, 5, 5)))
    r = cbam(x, cp, sp)
    assert np.all(np.abs(r.output.data) <= np.abs(x.data) + 1e-15)


def test_cbam_is_internally_consistent():
    rng = np.random.default_rng(233)
    cp, sp = rand_params(rng, 4)
    x = FeatureTensor.random((1, 4, 6, 6), rng)
    r = cbam(x, cp, sp)
    refined = hadamard(x, r.channel_weights)
    want = hadamard(refined, r.spatial_map)
    assert np.array_equal(r.output.data, want.data)
    # the spatial map is computed from the refined tensor, not from x
    assert not np.allclose(r.spatial_map.data,
                           spatial_attention_map(x, sp).data)


def test_cbam_near_identity_with_saturated_gates():
    # large positive output biases push both sigmoids to ~1, so the block
    # passes the tensor through nearly unchanged
    c = 4
    hidden = max(1, c // 4)
    cp = ChannelAttnParams(np.zeros((hidden, c)), np.zeros(hidden),
                           np.zeros((c, hidden)), np.full(c, 40.0),
                           reduction_ratio=4)
    sp = SpatialAttnParams(Conv2DParams(np.zeros((1, 2, 7, 7)), np.full(1, 40.0),
                                        stride=1, padding=3))
    rng = np.random.default_rng(239)
    x = FeatureTensor.random((2, c, 6, 6), rng)
    r = cbam(x, cp, sp)
    assert np.abs(r.output.data - x.data).max() < 1e-12


def test_cascade_differs_from_parallel_composition():
    rng = np.random.default_rng(241)
    cp, sp = rand_params(rng, 8)
    x = FeatureTensor.random((2, 8, 6, 6), rng)
    cascade = cbam(x, cp, sp).output.data
    parallel = parallel_attention(x, cp, sp).data
    assert np.abs(cascade - parallel).max() > 1e-3


def test_cbam_channel_permutation_equivariance():
    rng = np.random.default_rng(251)
    c = 6
    cp, sp = rand_params(rng, c, reduction=2)
    x = FeatureTensor.random((2, c, 5, 5), rng)
    perm = np.array([3, 0, 5, 1, 4, 2])
    xp = FeatureTensor(x.data[:, perm])
    cp_p = ChannelAttnParams(cp.w1[:, perm], cp.b1, cp.w2[perm], cp.b2[perm],
                             reduction_ratio=cp.reduction_ratio)
    base = cbam(x, cp, sp).output.data
    permuted = cbam(xp, cp_p, sp).output.data
    assert np.abs(permuted - base[:, perm]).max() < 1e-12


def test_cbam_deterministic():
    rng = np.random.default_rng(257)
    cp, sp = rand_params(rng, 4)
    x = FeatureTensor.random((2, 4, 6, 6), rng)
    a = cbam(x, cp, sp)
    b = cbam(x, cp, sp)
    assert np.array_equal(a.output.data, b.output.data)
    assert np.array_equal(a.spatial_map.data, b.spatial_map.data)
