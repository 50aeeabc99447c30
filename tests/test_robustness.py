import math

import numpy as np
import pytest

from detnum.robustness import (
    GrayImage,
    SweepConfig,
    add_gaussian_noise,
    bands_to_json,
    grid_levels,
    psnr,
    read_pgm,
    set_brightness_result,
    sweep,
    sweep_to_csv,
    synthetic_gray,
    write_pgm,
)

from helpers import brightness_exact


def always(outcome):
    return lambda level, img: outcome


# ---------------------------------------------------------------------------
# GrayImage
# ---------------------------------------------------------------------------

def test_gray_image_validation():
    with pytest.raises(ValueError):
        GrayImage(np.zeros(4))
    with pytest.raises(ValueError):
        GrayImage(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        GrayImage(np.full((2, 2), 256.0))
    with pytest.raises(ValueError):
        GrayImage(np.full((2, 2), -0.5))
    with pytest.raises(ValueError):
        GrayImage(np.full((2, 2), np.nan))


def test_gray_image_views():
    img = GrayImage(np.array([[0.4, 254.6], [127.5, 10.0]]))
    assert img.height == 2 and img.width == 2
    assert img.mean == pytest.approx((0.4 + 254.6 + 127.5 + 10.0) / 4)
    # round-half-even at .5, plain rounding elsewhere
    assert img.quantized.tolist() == [[0, 255], [128, 10]]
    assert img.normalized[1, 1] == pytest.approx(10.0 / 255.0)
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 1.0


def test_synthetic_gray_is_deterministic_and_midrange():
    a = synthetic_gray(7)
    b = synthetic_gray(7)
    assert np.array_equal(a.pixels, b.pixels)
    assert not np.array_equal(a.pixels, synthetic_gray(8).pixels)
    assert a.pixels.min() >= 60.0
    assert a.pixels.max() <= 196.0


# ---------------------------------------------------------------------------
# brightness
# ---------------------------------------------------------------------------

def assert_exact_brightness(img, target, res):
    """res holds the exact oracle image, so its mean is the target."""
    exact = brightness_exact(img.pixels, target)
    assert exact is not None, target
    assert abs(res.achieved_mean - target) <= 1e-12, target
    assert np.max(np.abs(res.image.pixels - exact[1])) <= 1e-12, target


def test_set_brightness_hits_targets_within_one_gray_level():
    img = synthetic_gray(42)
    for target in grid_levels(18, 160, 10):
        assert_exact_brightness(img, target, set_brightness_result(img, target))
    assert len(grid_levels(18, 160, 10)) == 15


def test_set_brightness_hits_clipped_targets_exactly():
    # from 170 up, the brightest pixels of synthetic_gray(42) clip
    img = synthetic_gray(42)
    for target in grid_levels(170, 250, 10):
        res = set_brightness_result(img, target)
        assert res.iterations > 1
        assert_exact_brightness(img, target, res)


def test_set_brightness_unclipped_is_single_pass():
    img = synthetic_gray(42)
    res = set_brightness_result(img, 60.0)
    assert res.iterations == 1
    assert not res.used_additive_fallback
    assert_exact_brightness(img, 60.0, res)
    # the plain rescale, bit for bit
    assert np.array_equal(res.image.pixels, img.pixels * (60.0 / img.mean))


def test_set_brightness_with_heavy_clipping_still_converges():
    img = synthetic_gray(42)
    res = set_brightness_result(img, 250.0)
    assert_exact_brightness(img, 250.0, res)
    assert res.iterations > 1


def test_set_brightness_idempotent_once_on_target():
    img = set_brightness_result(synthetic_gray(42), 90.0).image
    again = set_brightness_result(img, 90.0)
    assert again.iterations == 1
    assert_exact_brightness(img, 90.0, again)
    assert abs(again.achieved_mean - img.mean) <= 1e-12


def test_set_brightness_saturates_unreachable_targets():
    # a quarter of the pixels are black, so no scale lifts the mean past
    # 255 * 3/4 = 191.25: that target and any above it saturate the rest
    px = np.array([[0.0, 40.0], [100.0, 250.0]])
    saturated = np.array([[0.0, 255.0], [255.0, 255.0]])
    for target in (191.25, 200.0, 255.0):
        res = set_brightness_result(GrayImage(px), target)
        assert np.array_equal(res.image.pixels, saturated)
        assert res.achieved_mean == 191.25
        assert not res.used_additive_fallback
    below = np.nextafter(191.25, 0.0)
    assert_exact_brightness(GrayImage(px), below, set_brightness_result(GrayImage(px), below))


def test_set_brightness_stops_when_rounding_clips_every_pixel():
    # the exact scale leaves the 0.3 pixels a hair below 255; in floats the
    # last piece's solve lands on or past 255, so every pixel clips
    img = GrayImage(np.array([[200.0] + [0.3] * 12]))
    target = np.nextafter(255.0, 0.0)
    res = set_brightness_result(img, target)
    assert np.all(res.image.pixels == 255.0)
    assert_exact_brightness(img, target, res)


def test_set_brightness_refuses_a_scale_that_overflows():
    # on the first pass (1 / 5e-324), and on a clipped piece: 255 clips,
    # then 1e-310 alone must carry 145 gray levels
    with pytest.raises(ValueError, match="cannot rescale to mean 1.0: the scale overflows"):
        set_brightness_result(GrayImage(np.array([[5e-324]])), 1.0)
    with pytest.raises(ValueError, match="cannot rescale to mean 200.0: the scale overflows"):
        set_brightness_result(GrayImage(np.array([[255.0, 1e-310]])), 200.0)


def test_set_brightness_all_zero_fallback():
    zeros = GrayImage(np.zeros((4, 4)))
    res = set_brightness_result(zeros, 77.0)
    assert res.used_additive_fallback
    assert res.achieved_mean == 77.0
    assert np.all(res.image.pixels == 77.0)
    # zero target on a zero image: nothing to do, no fallback
    res0 = set_brightness_result(zeros, 0.0)
    assert not res0.used_additive_fallback
    assert res0.achieved_mean == 0.0


def test_set_brightness_zero_target_blanks_image():
    out = set_brightness_result(synthetic_gray(42), 0.0).image
    assert np.all(out.pixels == 0.0)


def test_set_brightness_target_validation():
    with pytest.raises(ValueError):
        set_brightness_result(synthetic_gray(42), 300.0)
    with pytest.raises(ValueError):
        set_brightness_result(synthetic_gray(42), -1.0)


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

def test_noise_zero_is_identity():
    img = synthetic_gray(42)
    assert add_gaussian_noise(img, 0.0, 0.0) is img


def test_noise_is_seed_deterministic():
    img = synthetic_gray(42)
    a = add_gaussian_noise(img, 0.0, 0.01, seed=5)
    b = add_gaussian_noise(img, 0.0, 0.01, seed=5)
    c = add_gaussian_noise(img, 0.0, 0.01, seed=6)
    assert np.array_equal(a.pixels, b.pixels)
    assert not np.array_equal(a.pixels, c.pixels)


def test_noise_empirical_mse_matches_var():
    # mid-gray so clipping is astronomically unlikely at sigma = 0.1
    img = GrayImage(np.full((1000, 1000), 127.5))
    noisy = add_gaussian_noise(img, 0.0, 0.01, seed=3)
    diff = noisy.normalized - img.normalized
    mse = float(np.mean(diff * diff))
    assert abs(mse - 0.01) < 0.001


def test_noise_rejects_negative_var():
    with pytest.raises(ValueError):
        add_gaussian_noise(synthetic_gray(42), 0.0, -0.1)


# ---------------------------------------------------------------------------
# psnr
# ---------------------------------------------------------------------------

def test_psnr_identical_images_is_infinite():
    img = synthetic_gray(42)
    assert psnr(img, img) == math.inf


def test_psnr_twenty_db_fixture():
    # constant offset of 25.5 gray levels = 0.1 normalized, MSE 0.01
    a = GrayImage(np.full((4, 4), 0.0))
    b = GrayImage(np.full((4, 4), 25.5))
    assert psnr(a, b) == 20.0


def test_psnr_thirty_db_fixture():
    # one pixel out of 1000 fully wrong: MSE = 1/1000
    base = np.zeros((10, 100))
    off = base.copy()
    off[0, 0] = 255.0
    assert psnr(GrayImage(base), GrayImage(off)) == 30.0


def test_psnr_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        psnr(GrayImage(np.full((2, 2), 1)), GrayImage(np.full((2, 3), 1)))


def test_psnr_decreases_as_noise_grows():
    img = synthetic_gray(42)
    values = [psnr(img, add_gaussian_noise(img, 0.0, v, seed=9))
              for v in (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1)]
    assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# grids and sweeps
# ---------------------------------------------------------------------------

def test_grid_levels_examples():
    assert grid_levels(18, 160, 10) == [18 + 10 * k for k in range(15)]
    assert len(grid_levels(0, 164, 4)) == 42
    assert grid_levels(0, 164, 4)[-1] == 164.0
    assert grid_levels(5, 5, 2) == [5.0]
    assert grid_levels(5, 4, 2) == []
    with pytest.raises(ValueError):
        grid_levels(0, 1, 0)


def test_grid_levels_float_steps_stay_on_grid():
    levels = grid_levels(0.0, 1.0, 0.1)
    assert len(levels) == 11
    assert levels[3] == 0.3
    assert levels[-1] == 1.0


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig("luma", 0, 10, 2, 1)
    with pytest.raises(ValueError):
        SweepConfig("brightness", 0, 300, 10, 1)
    with pytest.raises(ValueError):
        SweepConfig("noise", -1, 1, 0.5, 0.1)
    with pytest.raises(ValueError):
        SweepConfig("noise", 0, 1, 0.1, 0.2)   # fine >= coarse
    with pytest.raises(ValueError):
        SweepConfig("noise", 0, 1, 0.1, 0.01, noise_axis="sigma")
    for fields in [(math.nan, 1, 0.5, 0.1), (0, math.nan, 0.5, 0.1), (0, 1, math.nan, 0.1),
                   (0, 1, 0.5, math.nan), (0, math.inf, 0.5, 0.1), (0, 1, math.inf, 0.1)]:
        with pytest.raises(ValueError, match="must be finite"):
            SweepConfig("noise", *fields)


def test_sweep_config_caps_worst_case_level_count():
    # 2 coarse levels plus one refined interval: 2 + (99999 - 1) = 100000
    # levels at most, the cap itself; one more and the config is refused
    # before any level is evaluated
    SweepConfig("noise", 0, 99999, 99999, 1)
    with pytest.raises(ValueError, match="can evaluate up to 100001 levels, more than 100000"):
        SweepConfig("noise", 0, 100000, 100000, 1)
    # a level count that overflows to inf still counts as over the cap
    with pytest.raises(ValueError, match="more than 100000"):
        SweepConfig("noise", 0, 1e300, 1e-300, 1e-301)


def test_sweep_config_refuses_fine_steps_it_cannot_tell_apart():
    # levels are keyed to 12 decimals: 1e-12 is the finest step
    SweepConfig("noise", 0, 1e-9, 1e-10, 1e-12)
    with pytest.raises(ValueError, match="--fine-step 9e-13 is too small to tell levels "
                                         "apart near 1e-09: it must be at least 1e-12"):
        SweepConfig("noise", 0, 1e-9, 1e-10, 9e-13)
    # near 1e20 floats are 16384 apart
    SweepConfig("noise", 1e20, 1e20 + 1e9, 1e8, 16384)
    with pytest.raises(ValueError, match="--fine-step 11000 is too small to tell levels "
                                         "apart near 1e\\+20: it must be at least 16384"):
        SweepConfig("noise", 1e20, 1e20 + 1e9, 1e8, 11000)


def test_sweep_visits_the_worst_case_count_when_every_interval_changes():
    # 5 coarse levels, each of the 4 intervals refined at 3 levels: 5 + 4 * 3
    cfg = SweepConfig("noise", 0, 4, 1, 0.25)
    res = sweep(synthetic_gray(42), cfg,
                lambda level, img: ("clean", "fail")[int(level) % 2])
    assert len(res.entries) == 17


def test_sweep_always_clean_single_band():
    img = synthetic_gray(42)
    cfg = SweepConfig("brightness", 20, 60, 10, 2)
    res = sweep(img, cfg, always("clean"))
    assert len(res.entries) == 5
    assert [e.level for e in res.entries] == [20, 30, 40, 50, 60]
    assert len(res.bands) == 1
    assert res.bands[0].band == "clean"
    assert res.bands[0].interval == (20.0, 60.0)
    for e in res.entries:
        assert e.achieved_mean is not None
        assert abs(e.achieved_mean - e.level) <= 1e-12


def test_sweep_profile_fixture_bands_exact():
    # fail through level 12, clean within [29, 148], miss elsewhere
    def scorer(level, img):
        if level <= 12:
            return "fail"
        if 29 <= level <= 148:
            return "clean"
        return "miss"

    img = synthetic_gray(42)
    cfg = SweepConfig("brightness", 0, 164, 4, 1)
    res = sweep(img, cfg, scorer)
    got = [(b.band, b.interval) for b in res.bands]
    assert got == [
        ("fail", (0.0, 12.0)),
        ("miss", (13.0, 28.0)),
        ("clean", (29.0, 148.0)),
        ("miss", (149.0, 164.0)),
    ]


def test_sweep_localizes_threshold_within_fine_step():
    tau = 37.3

    def scorer(level, img):
        return "clean" if level < tau else "miss"

    res = sweep(synthetic_gray(42), SweepConfig("brightness", 0, 80, 10, 1), scorer)
    clean_band = next(b for b in res.bands if b.band == "clean")
    miss_band = next(b for b in res.bands if b.band == "miss")
    assert clean_band.interval[1] < tau <= miss_band.interval[0]
    assert miss_band.interval[0] - clean_band.interval[1] <= 1.0 + 1e-9


def test_sweep_bands_partition_evaluated_levels():
    rng = np.random.default_rng(373)
    outcomes = {}

    def scorer(level, img):
        if level not in outcomes:
            outcomes[level] = ("clean", "miss", "fail")[int(rng.integers(0, 3))]
        return outcomes[level]

    cfg = SweepConfig("brightness", 0, 60, 10, 2)
    res = sweep(synthetic_gray(42), cfg, scorer)
    # bands tile the evaluated range without overlap, in order
    assert res.bands[0].interval[0] == 0.0
    assert res.bands[-1].interval[1] == 60.0
    for a, b in zip(res.bands, res.bands[1:]):
        assert a.interval[1] < b.interval[0]
    # every evaluated level falls into exactly one band, with its outcome
    for e in res.entries:
        owners = [b for b in res.bands
                  if b.interval[0] <= e.level <= b.interval[1]]
        assert len(owners) == 1
        assert owners[0].band == e.outcome


def test_sweep_noise_axes():
    img = synthetic_gray(42)
    cfg = SweepConfig("noise", 0.0, 0.02, 0.01, 0.002, noise_axis="var")
    res = sweep(img, cfg, always("clean"))
    assert res.entries[0].psnr_db == math.inf   # level 0: untouched image
    assert res.entries[1].psnr_db < math.inf
    assert all(e.achieved_mean is None for e in res.entries)
    cfg2 = SweepConfig("noise", 0.0, 0.02, 0.01, 0.002, noise_axis="mean")
    res2 = sweep(img, cfg2, always("clean"))
    assert len(res2.entries) == 3


def test_sweep_rejects_bad_scorer_value():
    with pytest.raises(ValueError):
        sweep(synthetic_gray(42), SweepConfig("brightness", 0, 20, 10, 1),
              always("meh"))


def test_sweep_csv_and_bands_json():
    img = synthetic_gray(42)
    cfg = SweepConfig("noise", 0.0, 0.01, 0.01, 0.001)
    res = sweep(img, cfg, always("clean"))
    csv = sweep_to_csv(res)
    lines = csv.splitlines()
    assert lines[0] == "level,psnr_db,outcome"
    assert lines[1].startswith("0.0,inf,clean")
    assert len(lines) == 3
    bands = bands_to_json(res)
    assert bands == [{"band": "clean", "lo": 0.0, "hi": 0.01}]


# ---------------------------------------------------------------------------
# PGM IO
# ---------------------------------------------------------------------------

def test_pgm_roundtrip_exact_on_quantized(tmp_path):
    img = GrayImage(np.random.default_rng(11).uniform(60.0, 196.0, size=(9, 13)))
    path = tmp_path / "img.pgm"
    write_pgm(img, path)
    back = read_pgm(path)
    assert back.pixels.shape == (9, 13)
    assert np.array_equal(back.quantized, img.quantized)
    assert np.array_equal(back.pixels, img.quantized.astype(float))


def test_pgm_reader_tolerates_comments(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + payload)
    img = read_pgm(path)
    assert img.pixels.shape == (2, 3)
    assert img.pixels[1, 2] == 5.0


def test_pgm_reader_rejects_malformed(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P2\n2 2\n255\n")
    with pytest.raises(ValueError):
        read_pgm(p)
    p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(ValueError):
        read_pgm(p)
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
    with pytest.raises(ValueError):
        read_pgm(p)
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(5))
    with pytest.raises(ValueError):
        read_pgm(p)


def test_pgm_reader_header_errors_name_the_file(tmp_path):
    p = tmp_path / "hdr.pgm"
    p.write_bytes(b"P5\nabc 3\n255\n")
    with pytest.raises(ValueError) as info:
        read_pgm(p)
    assert str(info.value) == (f"{p}: PGM width, height and maxval must be "
                               f"integers, got 'abc 3 255'")
    p.write_bytes(b"P5\n0 3\n255\n")
    with pytest.raises(ValueError) as info:
        read_pgm(p)
    assert str(info.value) == f"{p}: PGM size must be at least 1x1, got 0x3"


def test_pgm_reader_rescales_low_maxval(tmp_path):
    p = tmp_path / "low.pgm"
    p.write_bytes(b"P5\n4 1\n15\n" + bytes([0, 1, 7, 15]))
    img = read_pgm(p)
    assert img.pixels.tolist() == [[0.0, 17.0, 119.0, 255.0]]
    p.write_bytes(b"P5\n2 1\n7\n" + bytes([3, 7]))
    assert read_pgm(p).pixels.tolist() == [[3 * 255 / 7, 255.0]]


def test_pgm_reader_rejects_byte_above_maxval(tmp_path):
    p = tmp_path / "over.pgm"
    p.write_bytes(b"P5\n2 1\n15\n" + bytes([15, 255]))
    with pytest.raises(ValueError, match=r"over\.pgm: pixel value 255 exceeds maxval 15"):
        read_pgm(p)
