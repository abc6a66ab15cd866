"""Hypothesis property tests on the HD-map container and patch system."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    HDMap,
    Lane,
    MapPatch,
    SignType,
    TrafficSign,
    VersionedMap,
)
from repro.core.elements import Kind
from repro.core.ids import ElementId
from repro.core.regulatory import RegulatoryElement, RuleType
from repro.errors import UnknownElementError
from repro.geometry.polyline import straight
from repro.storage.binary import encode_map

positions = st.tuples(
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
)


def _map_with_signs(sign_positions):
    hdmap = HDMap("prop")
    hdmap.create(Lane, centerline=straight([0, 0], [100, 0]))
    for x, y in sign_positions:
        hdmap.create(TrafficSign, position=np.array([x, y]),
                     sign_type=SignType.STOP)
    return hdmap


class TestHDMapProperties:
    @given(st.lists(positions, min_size=1, max_size=15))
    @settings(deadline=None, max_examples=40)
    def test_landmarks_in_radius_is_exact(self, sign_positions):
        hdmap = _map_with_signs(sign_positions)
        centre = np.array([0.0, 0.0])
        radius = 5000.0
        found = {lm.id for lm in hdmap.landmarks_in_radius(0.0, 0.0, radius)}
        expected = {
            s.id for s in hdmap.signs()
            if float(np.hypot(*(s.position - centre))) <= radius
        }
        assert found == expected

    @given(st.lists(positions, min_size=1, max_size=10))
    @settings(deadline=None, max_examples=40)
    def test_remove_then_absent_everywhere(self, sign_positions):
        hdmap = _map_with_signs(sign_positions)
        victim = next(iter(hdmap.signs()))
        hdmap.remove(victim.id)
        assert victim.id not in hdmap
        assert victim.id not in {s.id for s in hdmap.signs()}
        assert victim.id not in {
            lm.id for lm in hdmap.landmarks_in_radius(
                float(victim.position[0]), float(victim.position[1]), 10.0)
        }
        with pytest.raises(UnknownElementError):
            hdmap.get(victim.id)

    @given(st.lists(positions, min_size=1, max_size=10))
    @settings(deadline=None, max_examples=30)
    def test_copy_equivalence(self, sign_positions):
        hdmap = _map_with_signs(sign_positions)
        clone = hdmap.copy()
        assert clone.counts_by_kind() == hdmap.counts_by_kind()
        assert {e.id for e in clone.elements()} == {
            e.id for e in hdmap.elements()}


near = st.tuples(st.integers(-300, 300), st.integers(-300, 300))

#: One edit of a generated map: add a sign / lane / rule, add a sign under
#: an explicit id, allocate an id nothing uses, replace (move) or remove
#: an element picked by index.
edits = st.one_of(
    st.tuples(st.just("sign"), near),
    st.tuples(st.just("lane"), near, st.integers(5, 250),
              st.sampled_from([3.0, 3.5, 12.0])),
    st.tuples(st.just("rule")),
    st.tuples(st.just("explicit"), st.integers(1, 60)),
    st.tuples(st.just("allocate"), st.sampled_from([Kind.SIGN, Kind.LANE])),
    st.tuples(st.just("replace"), st.integers(0, 99), near),
    st.tuples(st.just("remove"), st.integers(0, 99)),
)


def _edited_map(script, mutate):
    """Apply ``script`` to an empty map, then mutate one element in place
    (after it was indexed) when ``mutate`` is set."""
    hdmap = HDMap("prop")
    for edit in script:
        op = edit[0]
        present = list(hdmap.elements())
        if op == "sign":
            hdmap.create(TrafficSign, position=np.array(edit[1], float),
                         sign_type=SignType.STOP)
        elif op == "lane":
            (x, y), length, width = edit[1:]
            hdmap.create(Lane, centerline=straight([x, y], [x + length, y]),
                         width=width)
        elif op == "rule":
            lanes = [e.id for e in present if isinstance(e, Lane)][:2]
            hdmap.add(RegulatoryElement(id=hdmap.new_id(Kind.REGULATORY),
                                        rule_type=RuleType.STOP,
                                        lanes=lanes))
        elif op == "explicit":
            eid = ElementId(Kind.SIGN, edit[1])
            if eid not in hdmap:
                hdmap.add(TrafficSign(id=eid, position=np.array([0.0, 5.0]),
                                      sign_type=SignType.YIELD))
        elif op == "allocate":
            hdmap.new_id(edit[1])
        elif op == "replace" and present:
            victim = present[edit[1] % len(present)]
            moved = copy.copy(victim)
            if isinstance(victim, TrafficSign):
                moved.position = np.array(edit[2], float)
            elif isinstance(victim, Lane):
                moved.width = victim.width + 1.0
            hdmap.replace(moved)
        elif op == "remove" and present:
            hdmap.remove(present[edit[1] % len(present)].id)
    if mutate:
        for element in hdmap.elements():
            if isinstance(element, TrafficSign):
                element.position = element.position + 250.0
                break
            if isinstance(element, Lane):
                element.width += 200.0
                break
    return hdmap


def _reinsert_copy(hdmap):
    """The reference copy: add a shallow copy of every element, in order."""
    clone = HDMap(f"{hdmap.name}-copy")
    clone.version = hdmap.version
    for element in list(hdmap._elements.values()) + list(
            hdmap._regulatory.values()):
        clone.add(copy.copy(element))
    return clone


def _answers(hdmap, queries):
    out = []
    for x, y, radius in queries:
        out.append([e.id for e in hdmap.elements_in_radius(x, y, radius)])
        out.append([e.id for e in hdmap.landmarks_in_radius(x, y, radius)])
        if any(True for _ in hdmap.lanes()):
            lane, distance = hdmap.nearest_lane(x, y)
            out.append((lane.id, distance))
    return out


class TestCopyMatchesReinsert:
    """``HDMap.copy`` clones the index instead of re-inserting; it must
    answer exactly like the re-insert copy it replaced."""

    @given(st.lists(edits, max_size=25), st.booleans(),
           st.lists(st.tuples(st.integers(-400, 400), st.integers(-400, 400),
                              st.sampled_from([1.0, 30.0, 150.0])),
                    min_size=1, max_size=6))
    @settings(deadline=None, max_examples=60)
    def test_copy_matches_reinsert_copy(self, script, mutate, queries):
        source = _edited_map(script, mutate)
        fast, reference = source.copy(), _reinsert_copy(source)
        # Also ask at every element's current centre, where a copy that
        # kept an element's stale cells would miss it.
        for element in source._elements.values():
            x0, y0, x1, y1 = element.bounds()
            queries.append(((x0 + x1) / 2, (y0 + y1) / 2, 2.0))

        assert fast.name == reference.name and \
            fast.version == reference.version
        assert [e.id for e in fast.elements()] == \
            [e.id for e in reference.elements()]
        assert encode_map(fast) == encode_map(reference)
        assert _answers(fast, queries) == _answers(reference, queries)
        assert fast.mutation_count == reference.mutation_count
        for kind in (Kind.SIGN, Kind.LANE, Kind.REGULATORY, Kind.POLE):
            assert fast.new_id(kind) == reference.new_id(kind)

        # The copy is private: editing it leaves the source untouched.
        before = encode_map(source)
        before_answers = _answers(source, queries)
        for element in list(fast.elements())[:3]:
            if isinstance(element, TrafficSign):
                element.position = element.position + 1000.0
                fast.replace(element)
            else:
                fast.remove(element.id)
        fast.add(TrafficSign(id=fast.new_id(Kind.SIGN),
                             position=np.array([1.0, 2.0]),
                             sign_type=SignType.STOP))
        assert encode_map(source) == before
        assert _answers(source, queries) == before_answers


class TestPatchProperties:
    @given(st.lists(positions, min_size=1, max_size=8),
           st.lists(positions, min_size=1, max_size=8))
    @settings(deadline=None, max_examples=30)
    def test_patch_apply_then_inverse_restores(self, initial, added):
        vm = VersionedMap(_map_with_signs(initial))
        before_ids = {e.id for e in vm.map.elements()}

        patch = MapPatch(source="prop")
        new_ids = []
        for x, y in added:
            sign = TrafficSign(id=vm.map.new_id("sign"),
                               position=np.array([x, y]),
                               sign_type=SignType.DIRECTION)
            patch.add(sign)
            new_ids.append(sign.id)
        vm.apply(patch)
        assert {e.id for e in vm.map.elements()} == before_ids | set(new_ids)

        inverse = MapPatch(source="prop-undo")
        for eid in new_ids:
            inverse.remove(eid)
        vm.apply(inverse)
        assert {e.id for e in vm.map.elements()} == before_ids

    @given(st.lists(positions, min_size=2, max_size=8))
    @settings(deadline=None, max_examples=30)
    def test_failed_patch_never_partially_applies(self, sign_positions):
        vm = VersionedMap(_map_with_signs(sign_positions))
        before_ids = {e.id for e in vm.map.elements()}
        version_before = vm.version
        bad = MapPatch(source="bad")
        victims = [s.id for s in vm.map.signs()]
        for eid in victims:
            bad.remove(eid)
        bad.remove(ElementId("sign", 10 ** 9))  # guaranteed failure at end
        with pytest.raises(UnknownElementError):
            vm.apply(bad)
        assert {e.id for e in vm.map.elements()} == before_ids
        assert vm.version == version_before

    @given(st.lists(positions, min_size=1, max_size=6))
    @settings(deadline=None, max_examples=30)
    def test_changes_since_is_complete(self, added):
        vm = VersionedMap(_map_with_signs([(0.0, 0.0)]))
        for x, y in added:
            patch = MapPatch(source="p")
            patch.add(TrafficSign(id=vm.map.new_id("sign"),
                                  position=np.array([x, y]),
                                  sign_type=SignType.STOP))
            vm.apply(patch)
        assert len(vm.changes_since(0)) == len(added)
        assert len(vm.changes_since(vm.version)) == 0


class TestDistributionProperty:
    @given(st.lists(positions, min_size=1, max_size=6))
    @settings(deadline=None, max_examples=20)
    def test_client_converges_after_any_patch_sequence(self, patches):
        from repro.update.distribution import (
            MapDistributionServer,
            VehicleMapClient,
        )

        server = MapDistributionServer(_map_with_signs([(0.0, 0.0)]))
        client = VehicleMapClient(server)
        for x, y in patches:
            patch = MapPatch(source="p", confidence=0.9)
            patch.add(TrafficSign(id=server.db.map.new_id("sign"),
                                  position=np.array([x, y]),
                                  sign_type=SignType.STOP))
            server.ingest(patch)
        client.sync()
        assert client.is_consistent()
