"""Routing, BHPS, Frenet path sets, and predictive cruise control."""

import numpy as np
import pytest

from repro.errors import NoRouteError, PlanningError
from repro.geometry.polyline import straight
from repro.planning import (
    FuelModel,
    LaneRouter,
    PathSetPlanner,
    PccPlanner,
    bhps_route,
    constant_speed_profile,
    simulate_fuel,
)
from repro.world import ElevationProfile


@pytest.fixture(scope="module")
def router(city):
    return LaneRouter(city)


@pytest.fixture(scope="module")
def endpoints(city):
    lanes = sorted(city.lanes(), key=lambda l: l.id)
    # Far-apart lanes so searches have real work to do.
    starts = [l for l in lanes if l.length > 50]
    return starts[0].id, starts[-1].id


class TestRouting:
    def test_dijkstra_finds_route(self, router, endpoints):
        start, goal = endpoints
        result = router.route(start, goal)
        assert result.lane_ids[0] == start
        assert result.lane_ids[-1] == goal
        assert result.cost > 0

    def test_route_is_connected(self, router, endpoints, city):
        start, goal = endpoints
        result = router.route(start, goal)
        graph = city.lane_graph()
        for u, v in zip(result.lane_ids, result.lane_ids[1:]):
            assert graph.has_edge(u, v)

    def test_astar_same_cost_fewer_expansions(self, router, endpoints):
        start, goal = endpoints
        dij = router.route(start, goal)
        ast = router.route_astar(start, goal)
        assert ast.cost == pytest.approx(dij.cost, rel=1e-9)
        assert ast.stats.expansions <= dij.stats.expansions

    def test_bhps_optimal_and_cheaper_than_dijkstra(self, router, endpoints):
        start, goal = endpoints
        dij = router.route(start, goal)
        for forward_bfs in (True, False):
            bh = bhps_route(router, start, goal, forward_bfs=forward_bfs)
            # BFS half optimizes hops, not metres: allow small suboptimality.
            assert bh.cost <= dij.cost * 1.35
            assert bh.stats.expansions < dij.stats.expansions * 1.2

    def test_no_route_raises(self, router, city):
        bogus = city.new_id("lane")
        start = next(iter(city.lanes())).id
        with pytest.raises(NoRouteError):
            router.route(start, bogus)

    def test_route_between_points(self, router, city):
        min_x, min_y, max_x, max_y = city.bounds()
        result = router.route_between_points((min_x + 20, min_y + 20),
                                             (max_x - 20, max_y - 20))
        assert result.n_lanes > 2

    def test_same_start_goal(self, router, endpoints):
        start, _ = endpoints
        result = router.route(start, start)
        assert result.lane_ids == [start]
        assert result.cost == 0.0


class TestFrenetPlanner:
    def setup_method(self):
        self.reference = straight([0, 0], [200, 0], spacing=5.0)
        self.planner = PathSetPlanner(self.reference)

    def test_generates_candidate_fan(self):
        paths = self.planner.generate(0.0, 0.0)
        terminals = sorted(p.terminal_offset for p in paths)
        assert len(terminals) >= 7
        assert terminals[0] < -2.0 and terminals[-1] > 2.0

    def test_unobstructed_prefers_centre(self):
        best = self.planner.plan(0.0, 0.5)
        assert abs(best.terminal_offset) < 1.0

    def test_obstacle_forces_detour(self):
        best = self.planner.plan(0.0, 0.0, obstacles=[(30.0, 0.0)])
        assert abs(best.terminal_offset) > 1.0

    def test_blocked_everywhere_raises(self):
        # Obstacles across the whole fan at the same station.
        wall = [(30.0, d) for d in np.linspace(-4.0, 4.0, 17)]
        with pytest.raises(PlanningError):
            self.planner.plan(0.0, 0.0, obstacles=wall)

    def test_inertia_prevents_flip_flop(self):
        # Symmetric obstacle: both sides equally good; the second plan must
        # stay on the side chosen first.
        first = self.planner.plan(0.0, 0.0, obstacles=[(30.0, 0.0)])
        second = self.planner.plan(2.0, 0.05, obstacles=[(30.0, 0.0)])
        assert np.sign(second.terminal_offset) == np.sign(first.terminal_offset)

    def test_path_starts_at_current_offset(self):
        paths = self.planner.generate(0.0, 1.2)
        for path in paths:
            assert path.laterals[0] == pytest.approx(1.2)

class TestPcc:
    @pytest.fixture(scope="class")
    def profile(self):
        return ElevationProfile.rolling(15000.0, np.random.default_rng(42))

    def test_fuel_model_monotone_in_slope(self):
        model = FuelModel()
        flat = model.fuel_rate(25.0, 0.0, 0.0)
        climb = model.fuel_rate(25.0, 0.0, 0.04)
        assert climb > flat

    def test_overrun_fuel_cut(self):
        model = FuelModel()
        downhill = model.fuel_rate(25.0, 0.0, -0.06)
        assert downhill == pytest.approx(model.idle_rate)

    def test_feasibility_limits(self):
        model = FuelModel()
        assert not model.feasible(30.0, 3.0, 0.05)  # beyond max power
        assert not model.feasible(20.0, -5.0, 0.0)  # beyond braking
        assert model.feasible(25.0, 0.0, 0.0)

    def test_pcc_saves_fuel_vs_constant_speed(self, profile):
        model = FuelModel()
        stations, speeds = constant_speed_profile(profile, 25.0)
        base_fuel, base_time = simulate_fuel(profile, stations, speeds, model)
        result = PccPlanner(time_penalty_litres_per_s=0.0006).plan(profile, 25.0)
        saving = (base_fuel - result.fuel_litres) / base_fuel
        assert saving > 0.02  # paper band: 8.73 %

    def test_time_matched_saving_positive(self, profile):
        """The anticipation benefit survives matching travel time."""
        model = FuelModel()
        result = PccPlanner(time_penalty_litres_per_s=0.0006).plan(profile, 25.0)
        stations, speeds = constant_speed_profile(profile, result.mean_speed())
        eq_fuel, eq_time = simulate_fuel(profile, stations, speeds, model)
        assert result.fuel_litres < eq_fuel
        assert result.travel_time == pytest.approx(eq_time, rel=0.02)

    def test_speed_band_respected(self, profile):
        planner = PccPlanner(speed_band=0.10)
        result = planner.plan(profile, 25.0)
        assert result.speeds.min() >= 25.0 * 0.9 - 1e-9
        assert result.speeds.max() <= 25.0 * 1.1 + 1e-9

    def test_flat_profile_holds_speed(self):
        profile = ElevationProfile.flat(5000.0)
        result = PccPlanner().plan(profile, 25.0)
        # On flat ground, deviating from a steady speed only costs fuel.
        assert float(np.std(result.speeds)) < 1.0

    def test_too_short_profile_raises(self):
        with pytest.raises(PlanningError):
            PccPlanner(station_step=100.0).plan(ElevationProfile.flat(50.0), 20.0)
