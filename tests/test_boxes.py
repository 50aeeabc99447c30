import numpy as np
import pytest

from detnum.boxes import AABox, corners, enclosure, iou

from helpers import frac_iou, pixel_count_iou, rand_box


def test_iou_identical_boxes_is_exactly_one():
    b = AABox(3.7, -1.2, 2.5, 0.9)
    assert iou(b, b) == 1.0


def test_iou_disjoint_boxes_is_zero():
    assert iou(AABox(1, 1, 2, 2), AABox(10, 10, 2, 2)) == 0.0


def test_iou_edge_contact_counts_as_zero():
    # boxes share the x = 2 edge with zero overlap area
    assert iou(AABox(1, 1, 2, 2), AABox(3, 1, 2, 2)) == 0.0


def test_iou_worked_pair_is_one_seventh():
    v = iou(AABox(1, 1, 2, 2), AABox(2, 2, 2, 2))
    assert v == pytest.approx(1 / 7, abs=1e-15)


def test_iou_worked_pair_matches_pixel_count_oracle():
    p, g = AABox(1, 1, 2, 2), AABox(2, 2, 2, 2)
    assert abs(iou(p, g) - pixel_count_iou(p, g, step=0.001)) < 1e-3


def test_iou_nested_box():
    # 1x1 box centered inside a 3x3 box: inter 1, union 9
    assert iou(AABox(0, 0, 1, 1), AABox(0, 0, 3, 3)) == pytest.approx(1 / 9, abs=1e-15)


def test_iou_symmetry_and_range():
    rng = np.random.default_rng(7)
    for _ in range(300):
        p, g = rand_box(rng), rand_box(rng)
        v = iou(p, g)
        assert v == iou(g, p)
        assert 0.0 <= v <= 1.0


def test_iou_against_exact_rational_oracle():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        p, g = rand_box(rng), rand_box(rng)
        assert iou(p, g) == pytest.approx(float(frac_iou(p, g)), abs=1e-12)


def test_iou_against_pixel_count_oracle_on_lattice_boxes():
    # boxes snapped to a 0.01 lattice so box edges fall on rasterization
    # cell boundaries and the count is exact
    rng = np.random.default_rng(13)
    for _ in range(1000):
        p = rand_box(rng, lattice=0.01)
        g = rand_box(rng, lattice=0.01)
        assert abs(iou(p, g) - pixel_count_iou(p, g, step=0.001)) < 1e-3


def test_iou_translation_invariance():
    rng = np.random.default_rng(17)
    for _ in range(100):
        p, g = rand_box(rng), rand_box(rng)
        dx, dy = rng.uniform(-20, 20, size=2)
        p2 = AABox(p.cx + dx, p.cy + dy, p.w, p.h)
        g2 = AABox(g.cx + dx, g.cy + dy, g.w, g.h)
        assert iou(p2, g2) == pytest.approx(iou(p, g), abs=1e-12)


def test_iou_scale_invariance():
    rng = np.random.default_rng(19)
    for _ in range(100):
        p, g = rand_box(rng), rand_box(rng)
        s = float(rng.uniform(0.1, 10.0))
        p2 = AABox(p.cx * s, p.cy * s, p.w * s, p.h * s)
        g2 = AABox(g.cx * s, g.cy * s, g.w * s, g.h * s)
        assert iou(p2, g2) == pytest.approx(iou(p, g), abs=1e-12)


@pytest.mark.parametrize("bad", [
    dict(cx=0, cy=0, w=0, h=1),
    dict(cx=0, cy=0, w=1, h=-2),
    dict(cx=float("nan"), cy=0, w=1, h=1),
    dict(cx=0, cy=float("inf"), w=1, h=1),
])
def test_degenerate_boxes_rejected(bad):
    with pytest.raises(ValueError):
        AABox(**bad)


def test_corner_view_roundtrip():
    b = AABox(1.5, -2.0, 3.0, 0.5)
    x1, y1, x2, y2 = corners(b)
    assert (x1, y1, x2, y2) == (0.0, -2.25, 3.0, -1.75)
    assert (x2 - x1) * (y2 - y1) == pytest.approx(1.5)


def test_enclosure_identical_boxes():
    b = AABox(2, 3, 4, 5)
    assert enclosure(b, b) == (4.0, 5.0)
    assert iou(b, b) == 1.0


def test_enclosure_worked_pair():
    p, g = AABox(1, 1, 2, 2), AABox(2, 2, 2, 2)
    cw, ch = enclosure(p, g)
    assert cw == pytest.approx(3.0, abs=1e-15)
    assert ch == pytest.approx(3.0, abs=1e-15)
    assert iou(p, g) == pytest.approx(1 / 7, abs=1e-15)


def test_enclosure_symmetry_of_pairwise_fields():
    rng = np.random.default_rng(23)
    for _ in range(200):
        p, g = rand_box(rng), rand_box(rng)
        assert enclosure(p, g) == enclosure(g, p)


def test_enclosure_hull_contains_both_boxes():
    rng = np.random.default_rng(29)
    for _ in range(200):
        p, g = rand_box(rng), rand_box(rng)
        cw, ch = enclosure(p, g)
        assert cw >= max(p.w, g.w) - 1e-12
        assert ch >= max(p.h, g.h) - 1e-12
