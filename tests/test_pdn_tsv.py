"""TSV / bump / wire-bond placement and the alignment model.

Placements are ``(n, 2)`` arrays of ``(x, y)`` rows.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.floorplan import hmc_dram_die_floorplan
from repro.geometry import Point, Rect
from repro.pdn import PDNConfig, TSVLocation
from repro.pdn.tsv import (
    alignment_detours,
    center_tsv_points,
    distributed_tsv_points,
    edge_tsv_points,
    mean_alignment_distance,
    nearest_c4_distance,
    tsv_points_for_config,
    wirebond_points,
)
from repro.tech.vertical import C4Tech

OUTLINE = Rect(0, 0, 6.8, 6.7)


class TestCenterCluster:
    def test_count(self):
        pts = center_tsv_points(OUTLINE, 33)
        assert len(pts) == 33

    def test_clustered_at_center(self):
        pts = center_tsv_points(OUTLINE, 33)
        c = OUTLINE.center
        for x, y in pts:
            assert Point(x, y).manhattan_to(c) < 2.5

    def test_cluster_size_scales_with_count(self):
        small = center_tsv_points(OUTLINE, 15)
        large = center_tsv_points(OUTLINE, 480)
        spread = lambda pts: pts[:, 0].max() - pts[:, 0].min()
        assert spread(small) < spread(large)

    def test_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            center_tsv_points(OUTLINE, 0)


class TestEdgeRing:
    def test_count_and_location(self):
        pts = edge_tsv_points(OUTLINE, 33)
        assert len(pts) == 33
        ring = OUTLINE.inset(0.25)
        for x, y in pts:
            on_ring = (
                abs(x - ring.x0) < 1e-6
                or abs(x - ring.x1) < 1e-6
                or abs(y - ring.y0) < 1e-6
                or abs(y - ring.y1) < 1e-6
            )
            assert on_ring

    @given(st.integers(min_value=4, max_value=480))
    def test_any_count(self, count):
        assert len(edge_tsv_points(OUTLINE, count)) == count


class TestDistributed:
    def test_uniform_without_floorplan(self):
        pts = distributed_tsv_points(OUTLINE, 64)
        assert len(pts) == 64
        xs = sorted(pts[:, 0])
        assert xs[0] < OUTLINE.width * 0.35
        assert xs[-1] > OUTLINE.width * 0.65

    def test_hmc_regions_used(self):
        fp = hmc_dram_die_floorplan()
        pts = distributed_tsv_points(fp.outline, 160, fp)
        assert len(pts) == 160
        regions = [b.rect for b in fp.blocks if b.type.value == "tsv_region"]
        for x, y in pts:
            assert any(r.contains(Point(x, y), tol=1e-9) for r in regions)


class TestConfigDispatch:
    def test_styles(self):
        for loc in TSVLocation:
            config = PDNConfig(
                tsv_count=40,
                tsv_location=loc,
            )
            pts = tsv_points_for_config(OUTLINE, config)
            assert len(pts) == 40


class TestWirebond:
    def test_groups(self):
        pts = wirebond_points(OUTLINE, groups_per_edge=4)
        assert len(pts) == 16
        ring = OUTLINE.inset(0.12)
        for x, y in pts:
            assert ring.contains(Point(x, y), tol=1e-9)


class TestAlignment:
    C4 = C4Tech(resistance=0.01, pitch=0.2, detour_res_per_mm=0.45)

    def test_on_bump_distance_zero(self):
        # Bumps at half-pitch offsets: (0.1, 0.1) is a bump.
        d = nearest_c4_distance((0.1, 0.1), OUTLINE, 0.2)
        assert d == pytest.approx(0.0)

    def test_worst_case_half_pitch(self):
        d = nearest_c4_distance((0.2, 0.2), OUTLINE, 0.2)
        assert d == pytest.approx(0.2)  # 0.1 in each axis, Manhattan

    def test_aligned_zero_detours(self):
        pts = edge_tsv_points(OUTLINE, 20)
        detours = alignment_detours(pts, OUTLINE, self.C4, aligned=True)
        assert detours.tolist() == [0.0] * 20

    def test_misaligned_nonnegative(self):
        pts = edge_tsv_points(OUTLINE, 20)
        detours = alignment_detours(pts, OUTLINE, self.C4, aligned=False)
        assert all(d >= 0.0 for d in detours)
        assert any(d > 0.0 for d in detours)

    def test_mean_distance_bounded_by_pitch(self):
        pts = distributed_tsv_points(OUTLINE, 100)
        mean = mean_alignment_distance(pts, OUTLINE, 0.2)
        assert 0.0 <= mean <= 0.25  # ~half-pitch per axis on average

    def test_empty_points(self):
        assert mean_alignment_distance([], OUTLINE, 0.2) == 0.0

    def test_bad_pitch(self):
        with pytest.raises(ConfigurationError):
            nearest_c4_distance((0.0, 0.0), OUTLINE, 0.0)

    @settings(max_examples=50)
    @given(
        st.floats(min_value=0.0, max_value=6.8),
        st.floats(min_value=0.0, max_value=6.7),
    )
    def test_distance_bounded(self, x, y):
        # Interior points are within half a pitch per axis; at the die
        # boundary the clamped bump row can be up to a full pitch away.
        d = nearest_c4_distance((x, y), OUTLINE, 0.2)
        assert 0.0 <= d <= 0.4 + 1e-9


class TestArraysMatchThePointLoop:
    """Array placements are bitwise the per-point float arithmetic (same
    operations, same order), so plan coordinates and hashes never move."""

    @pytest.mark.parametrize("count", [1, 15, 33, 100, 480])
    def test_cluster_grid(self, count):
        pts = center_tsv_points(OUTLINE, count)
        region = Rect.centered(
            OUTLINE.center,
            min(math.sqrt(count) * 0.45, 0.6 * OUTLINE.width),
            min(math.sqrt(count) * 0.45, 0.6 * OUTLINE.height),
        )
        cols = max(1, int(round(math.sqrt(count * region.width / region.height))))
        rows = max(1, math.ceil(count / cols))
        want = []
        for k in range(count):
            r, c = divmod(k, cols)
            want.append(
                [
                    region.x0 + (c + 0.5) * region.width / cols,
                    region.y0 + (r + 0.5) * region.height / rows,
                ]
            )
        assert pts.tolist() == want

    @pytest.mark.parametrize("spacing", [0.3, 0.77, 1.9, 13.0])
    def test_perimeter_walk(self, spacing):
        ring = OUTLINE.inset(0.25)
        w, h = ring.width, ring.height
        n = max(1, int(round(2.0 * (w + h) / spacing)))
        step = 2.0 * (w + h) / n
        want = []
        for i in range(n):
            s = (i * step) % (2.0 * (w + h))
            if s <= w:
                want.append([ring.x0 + s, ring.y0])
            elif s - w <= h:
                want.append([ring.x1, ring.y0 + (s - w)])
            elif s - w - h <= w:
                want.append([ring.x1 - (s - w - h), ring.y1])
            else:
                want.append([ring.x0, ring.y1 - (s - w - h - w)])
        assert ring.edge_points(spacing).tolist() == want

    def test_c4_distance(self):
        pts = distributed_tsv_points(OUTLINE, 100)

        def axis(coord, lo, hi, pitch=0.2):
            k = round((coord - lo) / pitch - 0.5)
            k = min(max(k, 0), max(int((hi - lo) / pitch) - 1, 0))
            return abs(coord - (lo + (k + 0.5) * pitch))

        want = [axis(x, 0, 6.8) + axis(y, 0, 6.7) for x, y in pts.tolist()]
        assert nearest_c4_distance(pts, OUTLINE, 0.2).tolist() == want
