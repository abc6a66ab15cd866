"""OSM-style ingestion (the Zhou et al. [38] bootstrap path)."""

import math

import pytest

from repro.core import Severity, validate_map
from repro.errors import MapModelError
from repro.geometry.geodesy import LocalProjector
from repro.world.osm import OsmDocument, _parse_maxspeed, import_osm
from tests.conftest import stale_index_entries

LAT0, LON0 = 33.97, -117.33


def _offset(metres_east: float, metres_north: float):
    """lat/lon ``metres`` away from the anchor (small-angle)."""
    r_m, r_p = LocalProjector(LAT0, LON0)._radii()
    return (LAT0 + math.degrees(metres_north / r_m),
            LON0 + math.degrees(metres_east / r_p))


@pytest.fixture
def crossroads_doc():
    """Two perpendicular streets crossing at a shared node."""
    nodes = {
        1: _offset(-400.0, 0.0),
        2: _offset(0.0, 0.0),  # shared intersection node
        3: _offset(400.0, 0.0),
        4: _offset(0.0, -400.0),
        5: _offset(0.0, 400.0),
    }
    ways = [
        {"nodes": [1, 2], "tags": {"highway": "secondary", "lanes": "2"}},
        {"nodes": [2, 3], "tags": {"highway": "secondary", "lanes": "2"}},
        {"nodes": [4, 2], "tags": {"highway": "residential",
                                   "maxspeed": "30"}},
        {"nodes": [2, 5], "tags": {"highway": "residential",
                                   "maxspeed": "30"}},
        {"nodes": [1, 3], "tags": {"highway": "footway"}},  # not drivable
    ]
    return OsmDocument.from_dict({"nodes": nodes, "ways": ways})


class TestMaxspeedParsing:
    def test_kmh_default(self):
        assert _parse_maxspeed("50") == pytest.approx(13.89, abs=0.01)

    def test_kmh_suffix(self):
        assert _parse_maxspeed("50 km/h") == pytest.approx(13.89, abs=0.01)

    def test_mph(self):
        assert _parse_maxspeed("30 mph") == pytest.approx(13.41, abs=0.01)

    def test_garbage_is_none(self):
        assert _parse_maxspeed("fast") is None
        assert _parse_maxspeed(None) is None


class TestImport:
    def test_import_builds_valid_map(self, crossroads_doc):
        hdmap = import_osm(crossroads_doc)
        errors = [i for i in validate_map(hdmap)
                  if i.severity is Severity.ERROR]
        assert errors == []
        assert len(list(hdmap.lanes())) > 4

    def test_index_holds_current_bounds(self, crossroads_doc):
        assert stale_index_entries(import_osm(crossroads_doc)) == {}

    def test_footway_skipped(self, crossroads_doc):
        hdmap = import_osm(crossroads_doc)
        # The direct 1->3 footway must not exist as a drivable 800 m lane
        # crossing the intersection.
        for lane in hdmap.lanes():
            assert lane.length < 500.0

    def test_maxspeed_respected(self, crossroads_doc):
        hdmap = import_osm(crossroads_doc)
        limits = {round(l.speed_limit, 2) for l in hdmap.lanes()}
        assert round(30 / 3.6, 2) in limits  # residential from maxspeed tag

    def test_intersection_is_routable(self, crossroads_doc):
        import networkx as nx

        from repro.planning import LaneRouter

        hdmap = import_osm(crossroads_doc)
        graph = hdmap.lane_graph()
        assert nx.number_weakly_connected_components(graph) == 1
        router = LaneRouter(hdmap)
        lanes = [l for l in hdmap.lanes() if l.length > 100]
        # Route from the west arm to the north arm (requires the turn
        # connector through the intersection).
        west = min(lanes, key=lambda l: l.centerline.start[0])
        north = max(lanes, key=lambda l: l.centerline.end[1])
        result = router.route_astar(west.id, north.id)
        assert result.n_lanes >= 3

    def test_oneway_has_no_backward_lanes(self):
        nodes = {1: _offset(0, 0), 2: _offset(300, 0)}
        ways = [{"nodes": [1, 2], "tags": {"highway": "primary",
                                           "oneway": "yes", "lanes": "2"}}]
        hdmap = import_osm(OsmDocument.from_dict({"nodes": nodes,
                                                  "ways": ways}))
        segment = next(iter(hdmap.segments()))
        assert len(segment.forward_lanes) == 2
        assert len(segment.backward_lanes) == 0

    def test_empty_document_raises(self):
        with pytest.raises(MapModelError):
            import_osm(OsmDocument(nodes={}, ways=[]))

    def test_no_drivable_ways_raises(self):
        nodes = {1: _offset(0, 0), 2: _offset(100, 0)}
        ways = [{"nodes": [1, 2], "tags": {"highway": "footway"}}]
        with pytest.raises(MapModelError):
            import_osm(OsmDocument.from_dict({"nodes": nodes, "ways": ways}))

    def test_zhou_pipeline_on_imported_map(self, crossroads_doc, rng):
        """The lane-graph builder runs on the imported skeleton: OSM in,
        lane-level map out — the full Zhou et al. flow."""
        from repro.creation import LaneGraphBuilder
        from repro.world import drive_lane_sequence

        hdmap = import_osm(crossroads_doc)
        builder = LaneGraphBuilder(hdmap)
        lanes = [l for l in hdmap.lanes() if l.length > 100]
        frames = []
        for lane in lanes[:4]:
            traj = drive_lane_sequence(hdmap, [lane.id], rng=rng)
            frames.extend(builder.collect(traj, rng, stride_s=2.0))
        result = builder.build(frames)
        assert result.lanes
        assert result.centerline_error.mean < 1.5
