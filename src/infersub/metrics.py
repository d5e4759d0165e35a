"""Run reports: per-subscription, per-link, per-node and per-stage numbers."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class SubscriptionMetrics:
    sub_id: str
    accepted: int
    delivered: int
    dup_suppressed: int
    dropped: int
    filtered: int
    end_buffered: int
    mean_latency_ms: float | None
    p95_latency_ms: float | None
    applied_versions: tuple[int, ...] = ()


@dataclass(frozen=True)
class LinkMetrics:
    a: str
    b: str
    kb: float
    bridge: bool


@dataclass(frozen=True)
class NodeMetrics:
    node_id: str
    busy_ms: float
    utilization: float


@dataclass(frozen=True)
class StageMetrics:
    exec_id: str
    stage_id: str
    node: str
    executions: int


@dataclass(frozen=True)
class InstanceMetrics:
    instance_id: str
    sub_id: str
    repairs: int
    suspended: bool
    recovery_ms: tuple[float, ...] = ()


@dataclass(frozen=True)
class Totals:
    published: int
    delivered: int
    dup_suppressed: int
    dropped: int
    filtered: int
    kb: float
    executions: int
    repairs: int
    suspended: int
    raw_link_crossings: int


@dataclass(frozen=True)
class MetricsReport:
    duration_ms: float
    seed: int
    placer: str
    subscriptions: tuple[SubscriptionMetrics, ...]
    links: tuple[LinkMetrics, ...]
    nodes: tuple[NodeMetrics, ...]
    stages: tuple[StageMetrics, ...]
    instances: tuple[InstanceMetrics, ...]
    totals: Totals


def as_dict(report: MetricsReport) -> dict:
    """The report as dataclasses.asdict gives it, for json.dumps, without
    copying: a frozen dataclass's __dict__ holds its fields in declaration
    order, so each row is its own __dict__. Read it; never write to it."""
    out = dict(vars(report))
    for name in ("subscriptions", "links", "nodes", "stages", "instances"):
        out[name] = [vars(row) for row in out[name]]
    out["totals"] = vars(report.totals)
    return out


def emit(report: MetricsReport, format: str = "json") -> str:
    """Serialize a report; json round-trips, csv is the flat summary.

    The csv form carries one data row per subscription, per link and per
    node plus a single totals row, after a header line.
    """
    if format == "json":
        return json.dumps(as_dict(report), indent=2) + "\n"
    if format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["kind", "id", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8"])
        for s in report.subscriptions:
            w.writerow([
                "subscription", s.sub_id, s.accepted, s.delivered, s.dup_suppressed,
                s.dropped, s.filtered, s.end_buffered,
                "" if s.mean_latency_ms is None else s.mean_latency_ms,
                "" if s.p95_latency_ms is None else s.p95_latency_ms,
            ])
        for ln in report.links:
            w.writerow([
                "link", f"{ln.a}|{ln.b}", ln.kb, int(ln.bridge), "", "", "", "", "", "",
            ])
        for n in report.nodes:
            w.writerow([
                "node", n.node_id, n.busy_ms, n.utilization, "", "", "", "", "", "",
            ])
        t = report.totals
        w.writerow([
            "totals", "run", t.published, t.delivered, t.dup_suppressed, t.dropped,
            t.filtered, t.kb, t.executions, t.repairs,
        ])
        return buf.getvalue()
    raise ValueError(f"unknown format {format!r}")


def report_from_json(text: str) -> MetricsReport:
    obj = json.loads(text)
    return MetricsReport(
        duration_ms=obj["duration_ms"],
        seed=obj["seed"],
        placer=obj["placer"],
        subscriptions=tuple(
            SubscriptionMetrics(**{**s, "applied_versions": tuple(s["applied_versions"])})
            for s in obj["subscriptions"]
        ),
        links=tuple(LinkMetrics(**ln) for ln in obj["links"]),
        nodes=tuple(NodeMetrics(**n) for n in obj["nodes"]),
        stages=tuple(StageMetrics(**s) for s in obj["stages"]),
        instances=tuple(
            InstanceMetrics(**{**i, "recovery_ms": tuple(i["recovery_ms"])})
            for i in obj["instances"]
        ),
        totals=Totals(**obj["totals"]),
    )
