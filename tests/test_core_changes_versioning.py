"""Change records, diffing, patches, versioning, tiles, validation."""

import numpy as np
import pytest

from repro.core import (
    ChangeType,
    HDMap,
    Lane,
    MapPatch,
    SignType,
    TileScheme,
    TrafficSign,
    VersionedMap,
    diff_maps,
    match_changes,
    validate_map,
)
from repro.core.changes import MapChange
from repro.core.elements import LaneBoundary
from repro.core.ids import ElementId
from repro.core.validation import Severity
from repro.errors import MapValidationError, UnknownElementError
from repro.geometry.polyline import straight
from tests.conftest import add_rule


def _base_map():
    hdmap = HDMap("base")
    hdmap.create(Lane, centerline=straight([0, 0], [100, 0]))
    hdmap.create(TrafficSign, position=np.array([20.0, 5.0]),
                 sign_type=SignType.STOP)
    hdmap.create(TrafficSign, position=np.array([80.0, 5.0]),
                 sign_type=SignType.SPEED_LIMIT, value=13.89)
    return hdmap


class TestDiff:
    def test_identical_maps_no_changes(self):
        a = _base_map()
        assert diff_maps(a, a.copy()) == []

    def test_added_removed(self):
        a = _base_map()
        b = a.copy()
        sign = next(iter(b.signs()))
        b.remove(sign.id)
        b.create(TrafficSign, position=np.array([50.0, -5.0]),
                 sign_type=SignType.DIRECTION)
        changes = diff_maps(a, b)
        types = sorted(c.change_type.value for c in changes)
        assert types == ["added", "removed"]

    def test_moved(self):
        a = _base_map()
        b = a.copy()
        sign = next(iter(b.signs()))
        sign.position = sign.position + np.array([2.0, 0.0])
        b.replace(sign)
        changes = diff_maps(a, b)
        assert len(changes) == 1
        assert changes[0].change_type is ChangeType.MOVED
        assert changes[0].magnitude == pytest.approx(2.0)

    def test_small_move_below_tolerance_ignored(self):
        a = _base_map()
        b = a.copy()
        sign = next(iter(b.signs()))
        sign.position = sign.position + np.array([0.05, 0.0])
        b.replace(sign)
        assert diff_maps(a, b, move_tolerance=0.1) == []

    def test_lane_attribute_change_is_modified(self):
        a = _base_map()
        b = a.copy()
        lane = next(iter(b.lanes()))
        lane.speed_limit = 5.0
        b.replace(lane)
        changes = diff_maps(a, b)
        assert changes[0].change_type is ChangeType.MODIFIED


class TestMatchChanges:
    def _change(self, ctype, x, y):
        return MapChange(ctype, ElementId("sign", 1), (x, y))

    def test_perfect_match(self):
        truth = [self._change(ChangeType.ADDED, 10, 10)]
        detected = [self._change(ChangeType.ADDED, 11, 10)]
        counts = match_changes(detected, truth, radius=5.0)
        assert counts == {"tp": 1, "fp": 0, "fn": 0}

    def test_type_mismatch_is_fp(self):
        truth = [self._change(ChangeType.ADDED, 10, 10)]
        detected = [self._change(ChangeType.REMOVED, 10, 10)]
        counts = match_changes(detected, truth, radius=5.0)
        assert counts == {"tp": 0, "fp": 1, "fn": 1}

    def test_each_truth_matched_once(self):
        truth = [self._change(ChangeType.ADDED, 10, 10)]
        detected = [self._change(ChangeType.ADDED, 10, 10),
                    self._change(ChangeType.ADDED, 10.5, 10)]
        counts = match_changes(detected, truth, radius=5.0)
        assert counts["tp"] == 1
        assert counts["fp"] == 1


class TestVersioning:
    def test_apply_add_and_log(self):
        vm = VersionedMap(_base_map())
        patch = MapPatch(source="test")
        patch.add(TrafficSign(id=vm.map.new_id("sign"),
                              position=np.array([60.0, 5.0]),
                              sign_type=SignType.DIRECTION))
        version = vm.apply(patch)
        assert version == 1
        assert len(vm.changes_since(0)) == 1

    def test_apply_remove(self):
        vm = VersionedMap(_base_map())
        sign = next(iter(vm.map.signs()))
        vm.apply(MapPatch().remove(sign.id))
        assert sign.id not in vm.map

    def test_failed_patch_rolls_back(self):
        vm = VersionedMap(_base_map())
        sign = next(iter(vm.map.signs()))
        bad = MapPatch()
        bad.remove(sign.id)
        bad.remove(ElementId("sign", 999))  # will fail
        with pytest.raises(UnknownElementError):
            vm.apply(bad)
        assert sign.id in vm.map  # rollback restored it
        assert vm.version == 0

    def test_changes_since_filters_versions(self):
        vm = VersionedMap(_base_map())
        s1, s2 = list(vm.map.signs())
        vm.apply(MapPatch().remove(s1.id))
        vm.apply(MapPatch().remove(s2.id))
        assert len(vm.changes_since(1)) == 1
        assert len(vm.changes_since(0)) == 2


class TestTiles:
    def test_tile_of(self):
        scheme = TileScheme(100.0)
        assert scheme.tile_of(50, 50) == scheme.tile_of(99, 1)
        assert scheme.tile_of(-1, 0).tx == -1

    def test_partition_covers_all_spatial_elements(self):
        hdmap = _base_map()
        scheme = TileScheme(50.0)
        partition = scheme.partition(hdmap)
        total = sum(len(v) for v in partition.values())
        assert total == len(hdmap)

    def test_tiles_for_bounds(self):
        scheme = TileScheme(100.0)
        tiles = scheme.tiles_for_bounds((0, 0, 250, 50))
        assert len(tiles) == 3

    def test_bad_tile_size(self):
        with pytest.raises(ValueError):
            TileScheme(0.0)


class TestValidation:
    def test_valid_map_passes(self, highway):
        errors = [i for i in validate_map(highway)
                  if i.severity is Severity.ERROR]
        assert errors == []

    def test_dangling_boundary_reference(self):
        hdmap = HDMap("bad")
        hdmap.create(Lane, centerline=straight([0, 0], [50, 0]),
                     left_boundary=ElementId("boundary", 99))
        issues = validate_map(hdmap)
        assert any(i.check == "lane_references" for i in issues)
        with pytest.raises(MapValidationError):
            validate_map(hdmap, raise_on_error=True)

    def test_implausible_width(self):
        hdmap = HDMap("bad")
        hdmap.create(Lane, centerline=straight([0, 0], [50, 0]), width=12.0)
        issues = validate_map(hdmap)
        assert any("width" in i.message for i in issues)

    def test_swapped_boundaries_warn(self):
        hdmap = HDMap("bad")
        left = hdmap.create(LaneBoundary, line=straight([0, -2], [50, -2]))
        right = hdmap.create(LaneBoundary, line=straight([0, 2], [50, 2]))
        hdmap.create(Lane, centerline=straight([0, 0], [50, 0]),
                     left_boundary=left.id, right_boundary=right.id)
        issues = validate_map(hdmap)
        assert any(i.check == "boundary_consistency" for i in issues)

    def test_regulatory_missing_lane(self):
        hdmap = _base_map()
        from repro.core import RuleType

        add_rule(hdmap, rule_type=RuleType.STOP,
                                lanes=[ElementId("lane", 999)])
        issues = validate_map(hdmap)
        assert any(i.check == "regulatory" for i in issues)
