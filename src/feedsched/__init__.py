"""feedsched: broadcast schedule optimization over follower timelines.

Models the expected attention a recurring daily posting schedule earns from a
population of timeline-reading followers, optimizes schedules under a post
budget, estimates follower behaviour from activity traces, verifies the
analytic objective by Monte Carlo replay, and reproduces cluster-reaction
statistics with randomization tests.
"""

from .analyze import (
    ClusterMember,
    ClusterRecord,
    ClusterTally,
    TestResult,
    TimelinePost,
    difference_statistic,
    extract_clusters,
    interevent_times,
    permutation_test,
    powerlaw_alpha,
    reaction_counts,
    reaction_prob_by_size,
    reaction_prob_by_size_position,
    reconstruct_timeline,
)
from .estimate import (
    ActivityTrace,
    EstimationError,
    Event,
    FollowGraph,
    activity_histogram,
    aggregate_competitors,
    build_instance,
    consumption_depth_mu,
    estimate_delta,
    estimate_deltas,
    estimate_login_slot,
    estimate_rho,
    slot_of,
)
from .model import (
    FAMILIES,
    FollowerProfile,
    Followers,
    ProblemInstance,
    Schedule,
    SurvivalModel,
    cluster_survival,
    follower_survival,
    survival_eval,
)
from .objective import (
    AttentionBreakdown,
    ClusterView,
    attention_potential,
    attention_total,
    cluster_attention,
    heatmap,
    timeline_view,
)
from .optimize import (
    EnumerationCapError,
    OptimizationReport,
    brute_force,
    heuristic,
    marginal_allocation,
    multistart,
)
from .simulate import SimulationResult, rounded_instance, simulate, simulate_merged

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "FAMILIES",
    "SurvivalModel",
    "Schedule",
    "FollowerProfile",
    "Followers",
    "ProblemInstance",
    "survival_eval",
    "follower_survival",
    "cluster_survival",
    "ClusterView",
    "AttentionBreakdown",
    "timeline_view",
    "cluster_attention",
    "attention_potential",
    "attention_total",
    "heatmap",
    "OptimizationReport",
    "EnumerationCapError",
    "marginal_allocation",
    "brute_force",
    "heuristic",
    "multistart",
    "Event",
    "ActivityTrace",
    "FollowGraph",
    "EstimationError",
    "slot_of",
    "estimate_login_slot",
    "estimate_rho",
    "consumption_depth_mu",
    "estimate_delta",
    "estimate_deltas",
    "aggregate_competitors",
    "activity_histogram",
    "build_instance",
    "SimulationResult",
    "rounded_instance",
    "simulate",
    "simulate_merged",
    "TimelinePost",
    "ClusterMember",
    "ClusterRecord",
    "ClusterTally",
    "TestResult",
    "reconstruct_timeline",
    "extract_clusters",
    "reaction_counts",
    "reaction_prob_by_size",
    "reaction_prob_by_size_position",
    "difference_statistic",
    "permutation_test",
    "interevent_times",
    "powerlaw_alpha",
]
