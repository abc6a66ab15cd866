"""E11 — Chu et al. [61]: predictive cruise control with HD-map slope data.

Paper: 8.73 % fuel saving over a 370 km route versus a factory adaptive
cruise control. Shape: several-percent saving against the constant-speed
baseline, and a positive saving even when travel time is matched.
"""

from conftest import once

from repro.eval import ResultTable
from repro.planning import (
    FuelModel,
    PccPlanner,
    constant_speed_profile,
    simulate_fuel,
)
from repro.world import ElevationProfile


def _experiment(rng):
    # 100 km of rolling terrain (the paper's route is 370 km; the saving
    # fraction converges long before that).
    profile = ElevationProfile.rolling(100000.0, rng, max_grade=0.05)
    model = FuelModel()
    set_speed = 25.0

    stations, speeds = constant_speed_profile(profile, set_speed)
    base_fuel, base_time = simulate_fuel(profile, stations, speeds, model)

    result = PccPlanner(time_penalty_litres_per_s=0.0006).plan(profile,
                                                               set_speed)
    # Time-matched baseline: constant speed with the same mean speed.
    st_eq, sp_eq = constant_speed_profile(profile, result.mean_speed())
    eq_fuel, eq_time = simulate_fuel(profile, st_eq, sp_eq, model)
    return base_fuel, base_time, result, eq_fuel


def test_e11_pcc_fuel_saving(benchmark, rng):
    base_fuel, base_time, result, eq_fuel = once(benchmark, _experiment, rng)

    saving = 100 * (base_fuel - result.fuel_litres) / base_fuel
    matched = 100 * (eq_fuel - result.fuel_litres) / eq_fuel
    table = ResultTable("E11", "predictive cruise control fuel saving [61]")
    table.add("saving vs set-speed ACC", "8.73 %", f"{saving:.2f} %",
              ok=2.0 < saving < 20.0)
    table.add("time-matched saving", "(positive)", f"{matched:.2f} %",
              ok=matched > 0.5)
    table.add("travel-time ratio", "~1", f"{result.travel_time / base_time:.3f}",
              ok=result.travel_time / base_time < 1.15)
    table.print()
    assert table.all_ok()
