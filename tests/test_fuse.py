import numpy as np
import pytest

from detnum import fuse
from detnum.fuse import (
    BNParams,
    FusionBlockParams,
    batchnorm,
    fold_bn,
    fold_fusion_block,
    fusion_block,
    random_conv_params,
)
from detnum.tensor import Conv2DParams, FeatureTensor, conv2d

from helpers import bn_loops


def rand_ft(rng, shape, scale=1.0):
    return FeatureTensor(rng.normal(0.0, scale, shape))


def identity_bn(channels):
    # eps = 0 keeps the scale factor γ/sqrt(σ²+ϵ) at exactly 1.0
    return BNParams(mu=np.zeros(channels), var=np.ones(channels),
                    gamma=np.ones(channels), beta=np.zeros(channels), eps=0.0)


# ---------------------------------------------------------------------------
# batchnorm
# ---------------------------------------------------------------------------

def test_batchnorm_identity_params_change_nothing():
    rng = np.random.default_rng(263)
    x = rand_ft(rng, (2, 3, 4, 4))
    assert np.array_equal(batchnorm(x, identity_bn(3)).data, x.data)


def test_batchnorm_at_running_mean_returns_beta():
    mu = np.array([1.0, -2.0])
    bn = BNParams(mu=mu, var=np.array([0.5, 2.0]),
                  gamma=np.array([3.0, 0.5]), beta=np.array([0.7, -0.1]))
    x = FeatureTensor(np.broadcast_to(mu[None, :, None, None], (1, 2, 3, 3)).copy())
    y = batchnorm(x, bn).data
    assert np.abs(y[0, 0] - 0.7).max() < 1e-15
    assert np.abs(y[0, 1] + 0.1).max() < 1e-15


def test_batchnorm_scalar_oracle():
    bn = BNParams(mu=[0.5], var=[4.0], gamma=[2.0], beta=[1.0], eps=0.0)
    x = FeatureTensor(np.array(3.0).reshape(1, 1, 1, 1))
    # (3 - 0.5)/2 * 2 + 1 = 3.5
    assert batchnorm(x, bn).data[0, 0, 0, 0] == pytest.approx(3.5, abs=1e-15)


def test_batchnorm_matches_loop_oracle():
    rng = np.random.default_rng(269)
    x = rand_ft(rng, (2, 4, 5, 5))
    bn = BNParams.random(4, rng=rng)
    want = bn_loops(x.data, bn.gamma, bn.beta, bn.mu, bn.var, bn.eps)
    assert np.abs(batchnorm(x, bn).data - want).max() < 1e-12


def test_batchnorm_is_affine_per_channel():
    rng = np.random.default_rng(271)
    bn = BNParams.random(3, rng=rng)
    a = rand_ft(rng, (1, 3, 4, 4))
    b = rand_ft(rng, (1, 3, 4, 4))
    lhs = batchnorm(FeatureTensor(0.25 * a.data + 0.75 * b.data), bn).data
    rhs = 0.25 * batchnorm(a, bn).data + 0.75 * batchnorm(b, bn).data
    assert np.abs(lhs - rhs).max() < 1e-12


def test_batchnorm_validation():
    with pytest.raises(ValueError):
        BNParams(mu=[0.0, 0.0], var=[1.0], gamma=[1.0], beta=[0.0])
    with pytest.raises(ValueError):
        BNParams(mu=[0.0], var=[-1.0], gamma=[1.0], beta=[0.0])
    with pytest.raises(ValueError):
        BNParams(mu=[0.0], var=[0.0], gamma=[1.0], beta=[0.0], eps=0.0)
    rng = np.random.default_rng(277)
    with pytest.raises(ValueError):
        batchnorm(rand_ft(rng, (1, 2, 3, 3)), identity_bn(3))


# ---------------------------------------------------------------------------
# fold_bn
# ---------------------------------------------------------------------------

def test_fold_identity_bn_is_bit_exact():
    rng = np.random.default_rng(281)
    conv = random_conv_params(3, 5, rng=rng, kernel=3, padding=1)
    fused = fold_bn(conv, identity_bn(5))
    assert np.array_equal(fused.weights, conv.weights)
    assert np.array_equal(fused.bias, conv.bias)
    x = rand_ft(rng, (2, 3, 6, 6))
    assert np.array_equal(conv2d(x, fused).data, conv2d(x, conv).data)


def test_fold_zero_weight_conv_gives_affine_bias():
    bn = BNParams(mu=[1.0], var=[3.0], gamma=[2.0], beta=[0.5], eps=1.0)
    conv = Conv2DParams(np.zeros((1, 1, 1, 1)), np.array([4.0]))
    fused = fold_bn(conv, bn)
    # (4 - 1) * 2/sqrt(4) + 0.5 = 3.5
    assert fused.bias[0] == pytest.approx(3.5, abs=1e-15)
    assert np.all(fused.weights == 0.0)


def test_fold_bn_forward_equivalence_randomized_grid():
    # >= 200 distinct geometry/statistics configurations
    rng = np.random.default_rng(283)
    checked = 0
    for k in (1, 3, 5):
        for s in (1, 2):
            for pad in (0, 1, 2):
                for _ in range(12):
                    cin = int(rng.integers(1, 4))
                    cout = int(rng.integers(1, 5))
                    h = int(rng.integers(6, 11))
                    w = int(rng.integers(6, 11))
                    conv = random_conv_params(cin, cout, rng=rng, kernel=k,
                                              stride=s, padding=pad)
                    bn = BNParams.random(cout, rng=rng)
                    x = rand_ft(rng, (2, cin, h, w))
                    want = batchnorm(conv2d(x, conv), bn).data
                    got = conv2d(x, fold_bn(conv, bn)).data
                    assert np.abs(got - want).max() < 1e-5
                    checked += 1
    assert checked >= 200


def test_fold_bn_channel_mismatch_rejected():
    rng = np.random.default_rng(293)
    conv = random_conv_params(2, 3, rng=rng)
    with pytest.raises(ValueError):
        fold_bn(conv, identity_bn(4))


def test_fold_bn_preserves_geometry():
    rng = np.random.default_rng(307)
    conv = random_conv_params(2, 3, rng=rng, kernel=5, stride=2, padding=2)
    fused = fold_bn(conv, BNParams.random(3, rng=rng))
    assert fused.stride == conv.stride
    assert fused.padding == conv.padding
    assert fused.kernel == conv.kernel


# ---------------------------------------------------------------------------
# fusion block
# ---------------------------------------------------------------------------

def test_fusion_block_identity_branches_reduce_to_merge_conv():
    # identity 1x1 branch convs and identity BNs: the block is exactly the
    # merge conv applied to the input
    rng = np.random.default_rng(311)
    half = 2
    ident = Conv2DParams(np.eye(half).reshape(half, half, 1, 1), np.zeros(half))
    merge = random_conv_params(2 * half, 3, rng=rng, kernel=1)
    params = FusionBlockParams(ident, identity_bn(half),
                               ident, identity_bn(half), merge)
    x = rand_ft(rng, (2, 2 * half, 5, 5))
    assert np.array_equal(fusion_block(x, params).data, conv2d(x, merge).data)


def test_fusion_block_zero_input_is_spatially_constant():
    rng = np.random.default_rng(313)
    params = FusionBlockParams.random(4, rng=rng)
    y = fusion_block(FeatureTensor(np.zeros((2, 4, 6, 6))), params).data
    # bias-only propagation: constant over batch and space per channel
    for ci in range(y.shape[1]):
        assert np.abs(y[:, ci] - y[0, ci, 0, 0]).max() < 1e-12


def test_fusion_block_validation():
    rng = np.random.default_rng(317)
    params = FusionBlockParams.random(4, rng=rng)
    with pytest.raises(ValueError, match="params expect 4 input channels, tensor has 3"):
        fusion_block(rand_ft(rng, (1, 3, 6, 6)), params)   # odd channels
    with pytest.raises(ValueError):
        fusion_block(rand_ft(rng, (1, 6, 6, 6)), params)   # mismatched split
    with pytest.raises(ValueError):
        FusionBlockParams.random(5, rng=rng)


def test_fusion_block_params_reject_an_uneven_split():
    # a 1 + 2 channel split is refused when the block is built, not later
    rng = np.random.default_rng(319)
    merge = random_conv_params(4, 4, rng=rng, kernel=1)
    conv_a = random_conv_params(1, 2, rng=rng, kernel=1)
    conv_b = random_conv_params(2, 2, rng=rng, kernel=1)
    with pytest.raises(ValueError, match="branch convs must take equal halves of the "
                                         "channels, got 1 and 2"):
        FusionBlockParams(conv_a, None, conv_b, None, merge)


def test_fusion_block_merge_conv_shape_enforced():
    rng = np.random.default_rng(331)
    half = 2
    ident = Conv2DParams(np.eye(half).reshape(half, half, 1, 1), np.zeros(half))
    bad_merge = random_conv_params(2 * half, 3, rng=rng, kernel=3, padding=1)
    with pytest.raises(ValueError):
        FusionBlockParams(ident, identity_bn(half),
                          ident, identity_bn(half), bad_merge)


def test_fold_fusion_block_structure():
    rng = np.random.default_rng(337)
    params = FusionBlockParams.random(6, rng=rng)
    folded = fold_fusion_block(params)
    # BN slots are emptied, so a folded block runs no batchnorm; merge is untouched
    assert folded.bn_a is None and folded.bn_b is None
    assert folded.merge is params.merge
    # an empty slot gives the same bytes as the identity BN it replaces
    half = params.conv_a.out_channels
    with_identity = FusionBlockParams(folded.conv_a, identity_bn(half),
                                      folded.conv_b, identity_bn(half), folded.merge)
    x = rand_ft(rng, (2, 6, 5, 5))
    assert np.array_equal(fusion_block(x, folded).data, fusion_block(x, with_identity).data)


def test_folded_fusion_block_runs_no_batchnorm(monkeypatch):
    calls = []
    monkeypatch.setattr(fuse, "batchnorm", lambda x, p: calls.append(p) or batchnorm(x, p))
    rng = np.random.default_rng(353)
    params = FusionBlockParams.random(4, rng=rng)
    x = rand_ft(rng, (1, 4, 5, 5))
    fusion_block(x, fold_fusion_block(params))
    assert calls == []
    fusion_block(x, params)
    assert calls == [params.bn_a, params.bn_b]


@pytest.mark.parametrize("folded", [False, True], ids=["with-bn", "folded"])
def test_fusion_block_refuses_a_branch_that_overflows(folded):
    # the branches run on plain arrays, so the inf reaches either a batchnorm
    # or the merge; both end in the same refusal as a validated branch output
    rng = np.random.default_rng(359)
    params = FusionBlockParams.random(4, rng=rng)
    huge = Conv2DParams(np.full((2, 2, 3, 3), 1e200), np.zeros(2), stride=1, padding=1)
    params = FusionBlockParams(huge, params.bn_a, params.conv_b, params.bn_b, params.merge)
    x = FeatureTensor(np.full((1, 4, 5, 5), 1e200))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="^FeatureTensor entries must be finite$"):
        fusion_block(x, fold_fusion_block(params) if folded else params)


def test_fold_fusion_block_forward_equivalence():
    rng = np.random.default_rng(347)
    for channels in (2, 4, 6):
        params = FusionBlockParams.random(channels, rng=rng)
        folded = fold_fusion_block(params)
        for _ in range(10):
            x = rand_ft(rng, (2, channels, 6, 6))
            want = fusion_block(x, params).data
            got = fusion_block(x, folded).data
            assert np.abs(got - want).max() < 1e-5


def test_fold_fusion_block_is_idempotent():
    rng = np.random.default_rng(349)
    params = FusionBlockParams.random(4, rng=rng)
    once = fold_fusion_block(params)
    twice = fold_fusion_block(once)
    # a folded block has no BN left to fold, so nothing changes, bit for bit
    assert np.array_equal(twice.conv_a.weights, once.conv_a.weights)
    assert np.array_equal(twice.conv_a.bias, once.conv_a.bias)
    assert np.array_equal(twice.conv_b.weights, once.conv_b.weights)
    x = rand_ft(rng, (1, 4, 5, 5))
    assert np.array_equal(fusion_block(x, twice).data, fusion_block(x, once).data)
