"""Geo-sharded multi-city runtime: partition, route, serve, recover.

The horizontal-scale layer over the guarded online tier.  A
:class:`ShardPlan` carves the plane into geohash-prefix territories, a
:class:`ShardRouter` splits trip streams by destination cell with the
within-shard order preserved, and a :class:`ShardedRuntime` runs one
independently checkpointed guarded runtime per territory — own WAL, own
snapshots, own breakers — keeping each shard's durable service open
across epochs and replaying each shard's journal independently on
recovery.  Serving a territory inside an N-shard fleet is bit-identical
to serving it standalone; boundary trips additionally carry advisory
cross-shard referrals computed against a read-only halo of neighbouring
edge stations.

:class:`FleetSupervisor` is the self-healing layer above the fleet: a
per-shard health machine (healthy / degraded / quarantined / halted)
that restarts crashed shards from their own durable state under a
seeded-backoff retry budget, dead-letters poison blocks with full
provenance, and scrubs the fleet's storage tree after every epoch.
"""

from .plan import DEFAULT_REFERENCE, ShardPlan
from .router import ShardRouter
from .runtime import (
    HALO_FILE,
    PLAN_FILE,
    CrossShardReferral,
    ShardReport,
    ShardSpec,
    ShardedRuntime,
    ShardedServeOutcome,
    build_shard_runtime,
)
from .supervisor import (
    QUARANTINE_FILE,
    QUARANTINED,
    FleetSupervisor,
    QuarantinedBlock,
    SupervisedOutcome,
    SupervisedShardReport,
    SupervisorConfig,
)

__all__ = [
    "DEFAULT_REFERENCE",
    "ShardPlan",
    "ShardRouter",
    "PLAN_FILE",
    "HALO_FILE",
    "QUARANTINE_FILE",
    "QUARANTINED",
    "ShardSpec",
    "ShardReport",
    "CrossShardReferral",
    "ShardedServeOutcome",
    "ShardedRuntime",
    "build_shard_runtime",
    "FleetSupervisor",
    "SupervisorConfig",
    "QuarantinedBlock",
    "SupervisedShardReport",
    "SupervisedOutcome",
]
