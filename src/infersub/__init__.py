"""Inference-aware publish/subscribe: broker, placement, simulator."""

from __future__ import annotations

__version__ = "0.1.0"

from .core import (
    Barrier,
    CountWindow,
    DataSub,
    Filter,
    Funnel,
    InferenceSub,
    LayerSpec,
    LinkDescriptor,
    Mapping,
    ModelDescriptor,
    ModelUpdateSub,
    NodeDescriptor,
    Pin,
    PipelineSpec,
    Publication,
    StageSpec,
    Subscription,
    TimeWindow,
    Topic,
    TopicFilter,
    Topology,
    Violation,
    match_filter,
    route,
    route_latency,
    split_model,
    validate_pipeline,
)
from .operators import (
    ModelUpdate,
    aggregate_updates,
    apply_mapping,
    funnel_offer,
    funnel_tick,
    inference_filter,
)
from .placement import (
    CostReport,
    Objective,
    Placement,
    WorkloadEntry,
    WorkloadSpec,
    cost,
    feasible,
    place_baseline_subscriber,
    place_oracle,
    place_upstream,
    replan,
)
from .broker import Broker, PeerLink, PipelineInstance, RepairPlan
from .metrics import MetricsReport, emit, report_from_json
from .scenario import Scenario, load_scenario, loads_scenario
from .simulator import compare, compile_scenario, run, simulate

__all__ = [
    "__version__",
    "Barrier", "CountWindow", "DataSub", "Filter", "Funnel", "InferenceSub",
    "LayerSpec", "LinkDescriptor", "Mapping", "ModelDescriptor",
    "ModelUpdateSub", "NodeDescriptor", "Pin", "PipelineSpec", "Publication",
    "StageSpec", "Subscription", "TimeWindow", "Topic", "TopicFilter",
    "Topology", "Violation", "match_filter", "route", "route_latency",
    "split_model", "validate_pipeline",
    "ModelUpdate", "aggregate_updates", "apply_mapping", "funnel_offer",
    "funnel_tick", "inference_filter",
    "CostReport", "Objective", "Placement", "WorkloadEntry", "WorkloadSpec",
    "cost", "feasible", "place_baseline_subscriber", "place_oracle",
    "place_upstream", "replan",
    "Broker", "PeerLink", "PipelineInstance", "RepairPlan",
    "MetricsReport", "emit", "report_from_json",
    "Scenario", "load_scenario", "loads_scenario",
    "compare", "compile_scenario", "run", "simulate",
]
