"""Tier 1: the Parking Location Placement problem and its algorithms."""

from .costs import (
    DOLLARS_TO_METERS,
    DemandPoint,
    FacilityCostFn,
    constant_facility_cost,
    demand_points_from_stream,
    uniform_facility_cost,
    walking_cost,
)
from .result import PlacementResult, evaluate_placement
from .station_set import BACKENDS, StationSet
from .offline import OFFLINE_STRATEGIES, offline_placement
from .online_meyerson import meyerson_placement
from .online_kmeans import online_kmeans_placement
from .penalty import (
    PENALTY_REGISTRY,
    SIMILAR_THRESHOLD,
    VERY_SIMILAR_THRESHOLD,
    NoPenalty,
    PenaltyFunction,
    TypeIPenalty,
    TypeIIPenalty,
    TypeIIIPenalty,
    select_penalty,
)
from .esharing import EsharingConfig, EsharingDecision, EsharingPlanner, esharing_placement
from .replay import NearestCache, DrawStream
from .tripblock import TripBlock, datetime_to_us, us_to_datetime
from .local_search import local_search, refine_placement
from .capacity import CapacitatedAssignment, assign_with_capacity
from .streaming import PlacementService, ServiceResponse
from .offline_lp import certified_gap, lp_lower_bound
from .kmedian import kmedian_placement
from .lower_bound import (
    THEOREM1_FACILITY_COST,
    competitive_ratio,
    theorem1_offline_optimum,
    theorem1_requests,
)

__all__ = [
    "DOLLARS_TO_METERS",
    "DemandPoint",
    "FacilityCostFn",
    "constant_facility_cost",
    "demand_points_from_stream",
    "uniform_facility_cost",
    "walking_cost",
    "PlacementResult",
    "evaluate_placement",
    "BACKENDS",
    "StationSet",
    "OFFLINE_STRATEGIES",
    "offline_placement",
    "meyerson_placement",
    "online_kmeans_placement",
    "PENALTY_REGISTRY",
    "SIMILAR_THRESHOLD",
    "VERY_SIMILAR_THRESHOLD",
    "NoPenalty",
    "PenaltyFunction",
    "TypeIPenalty",
    "TypeIIPenalty",
    "TypeIIIPenalty",
    "select_penalty",
    "EsharingConfig",
    "EsharingDecision",
    "EsharingPlanner",
    "esharing_placement",
    "NearestCache",
    "DrawStream",
    "TripBlock",
    "datetime_to_us",
    "us_to_datetime",
    "local_search",
    "refine_placement",
    "CapacitatedAssignment",
    "assign_with_capacity",
    "PlacementService",
    "ServiceResponse",
    "certified_gap",
    "lp_lower_bound",
    "kmedian_placement",
    "THEOREM1_FACILITY_COST",
    "competitive_ratio",
    "theorem1_offline_optimum",
    "theorem1_requests",
]
