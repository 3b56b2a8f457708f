"""Scenario playbook: a concert and a road closure on the same day.

Uses the scenario DSL to schedule two disturbances over the base
workload — an evening concert surge at a park and an all-day road
closure downtown — and drives the full placement *service* (stable
station ids, footnote-2 retirement of emptied stations) through the
resulting request stream.  The output shows how the system redistributes
parking: stations retire where the closure killed demand, new ones open
at the concert venue.

Run:  python examples/scenario_playbook.py
"""

from datetime import datetime

import numpy as np

from repro.core import (
    DemandPoint,
    EsharingPlanner,
    PlacementService,
    offline_placement,
    uniform_facility_cost,
)
from repro.datasets import DemandEvent, Scenario, SyntheticConfig, default_city
from repro.energy import Fleet
from repro.experiments.ascii_plots import heatmap
from repro.geo import DemandGrid, Point, UniformGrid


def demand_heatmap(points, box, cells=14):
    mat = np.zeros((cells, cells))
    for p in points:
        col = min(int((p.x - box.min_x) / (box.width / cells)), cells - 1)
        row = min(int((p.y - box.min_y) / (box.height / cells)), cells - 1)
        mat[row, col] += 1
    return heatmap(mat)


def main() -> None:
    city = default_city()
    cfg = SyntheticConfig(trips_per_weekday=1500, trips_per_weekend_day=1100)

    # --- History: quiet days, no events.
    history = Scenario(city=city, config=cfg).generate(
        datetime(2017, 5, 8), days=2, seed=0
    )

    # --- The eventful day: a concert at the NE park, a closure downtown.
    venue = Point(city.box.max_x - 400, city.box.max_y - 400)
    downtown = Point(1450, 1450)
    eventful = Scenario(city=city, config=cfg)
    eventful.add_event(DemandEvent(
        start=datetime(2017, 5, 10, 18), end=datetime(2017, 5, 10, 23),
        location=venue, radius_m=250.0, kind="surge", intensity=0.5,
    ))
    eventful.add_event(DemandEvent(
        start=datetime(2017, 5, 10, 0), end=datetime(2017, 5, 11, 0),
        location=downtown, radius_m=450.0, kind="closure",
    ))
    day = eventful.generate(datetime(2017, 5, 10), days=1, seed=1)

    print("historical demand:")
    print(demand_heatmap(history.destinations(), city.box))
    print("\neventful-day demand (concert NE, closure centre):")
    print(demand_heatmap(day.destinations(), city.box))

    # --- Anchor on history, serve the eventful day.
    grid = UniformGrid(city.box, cell_size=150.0)
    demand = DemandGrid(grid)
    demand.add_many(history.destinations())
    demands = [
        DemandPoint(grid.centroid(cell), count / 2)
        for cell, count in demand.top_cells(120)
    ]
    cost_fn = uniform_facility_cost(10_000.0, np.random.default_rng(2))
    anchor = offline_placement(demands, cost_fn)
    planner = EsharingPlanner(
        anchor.stations, cost_fn, history.destination_array(),
        np.random.default_rng(3),
    )
    fleet = Fleet(planner.stations, n_bikes=500, rng=np.random.default_rng(4))
    service = PlacementService(planner, fleet)

    service.serve(day)
    service.consistency_check()

    served = sum(1 for r in service.responses if r.served)
    opened = [r for r in service.responses if r.opened_new]
    near_venue = sum(
        1 for r in opened
        if service.station_location(r.destination_station).distance_to(venue) < 500
    )
    print(f"\nserved {served}/{len(service.responses)} trips")
    print(f"anchor stations: {anchor.n_stations}; opened online: {len(opened)} "
          f"({near_venue} near the concert venue)")
    print(f"stations retired after being emptied (footnote 2): {len(service.retired)}")
    print(f"similarity trace (KS vs history): "
          f"{[round(s, 1) for s in planner.similarity_history[-6:]]}")


if __name__ == "__main__":
    main()
