"""Seeded synthetic scenarios for the benchmark.

Every workload is built on one star: a cloud broker ``c1``; E edge nodes
linked to ``c1``; D devices per edge, each publishing one topic
``e<i>/d<j>/kpi``; and S monitor nodes per edge linked to ``c1``. Monitors
hold inference subscriptions on the device topics of their edge.

``generate(workload, seed)`` is a pure function of its arguments. It returns
the scenario document together with what a correct run must show: the
publications emitted and the deliveries owed to each subscription. Those
expectations are derived here from the schedule the generator wrote, never
read back from the code under test. A seed moves arrival times, fault times
and, for ``oracle-place``, link latencies and layer costs; it never moves the
scale (node, subscription, publication and fault counts).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

# Poisson arrivals are drawn by the simulator. The run lasts long enough that
# every topic emits its whole count: the last arrival of a count-N stream at
# rate r is Gamma(N, r); ten standard deviations past its mean leaves no
# realistic chance of cutting a stream short. A run checks the published total
# anyway.
_SIGMAS = 10
_DRAIN_MS = 2000
_HEARTBEAT_MS = 50

STEADY_COUNT = 40  # publications per topic on star-steady
WIDE_MONITORS = 8  # monitors per edge on star-wide
CHURN_COUNT = 80  # publications per topic on star-churn
FUNNEL_N = 4  # count window of the star-churn funnels
BLIPS = 32  # fault slots on star-churn, alternating edge and link blips
ORACLE_KS = (4, 3, 3, 3)  # split depth of each oracle-place model


@dataclass(frozen=True)
class Generated:
    """One workload instance: scenario document and the expected outcome."""

    workload: str
    seed: int
    doc: dict
    command: tuple[str, ...]  # cli arguments, the scenario path follows
    published: int  # publications the run must emit
    owed: dict[str, int]  # sub_id -> deliveries owed to it
    strict: bool  # every owed delivery must arrive, with nothing dropped
    scale: dict = field(default_factory=dict)

    def text(self) -> str:
        return json.dumps(self.doc, indent=1, sort_keys=True) + "\n"


def _node(node_id: str, tier: str, cpu: int, mem: int) -> dict:
    return {"node_id": node_id, "tier": tier, "cpu_capacity": cpu, "mem_mb": mem}


def _link(a: str, b: str, latency: float, bandwidth: int) -> dict:
    return {"a": a, "b": b, "latency_ms": latency, "bandwidth_kb_per_ms": bandwidth}


def _star(edges: int, devices: int, monitors: int, dev_mem: int, dual_homed: bool):
    """Nodes, links and topic bindings of the star."""
    nodes = [_node("c1", "cloud", 16, 4096)]
    links = []
    bindings = {}
    for e in range(1, edges + 1):
        edge = f"e{e}"
        nodes.append(_node(edge, "edge", 8, 1024))
        links.append(_link(edge, "c1", 5, 500))
        for d in range(1, devices + 1):
            dev = f"e{e}d{d}"
            nodes.append(_node(dev, "device", 4, dev_mem))
            links.append(_link(dev, edge, 2, 200))
            if dual_homed:
                links.append(_link(dev, f"e{e % edges + 1}", 3, 150))
            bindings[f"e{e}/d{d}/kpi"] = dev
        for s in range(1, monitors + 1):
            mon = f"e{e}m{s}"
            nodes.append(_node(mon, "device", 4, 256))
            links.append(_link(mon, "c1", 3, 500))
    return nodes, links, bindings


def _model(model_id: str, layers: list[tuple[float, int, float]]) -> dict:
    return {
        "model_id": model_id, "version": 1, "task_tag": "telemetry",
        "layers": [
            {"compute_cost": c, "mem_mb": m, "selectivity": s} for c, m, s in layers
        ],
    }


def _inference(sub_id: str, monitor: str, model_id: str, flt: str, k: int) -> dict:
    return {"sub_id": sub_id, "subscriber": monitor, "kind": "inference",
            "model_id": model_id, "filter": flt, "k": k}


def _stream_ms(count: int, rate_per_s: int) -> int:
    mean_ms = 1000 * count / rate_per_s
    sd_ms = 1000 * math.sqrt(count) / rate_per_s
    return math.ceil(mean_ms + _SIGMAS * sd_ms)


def _doc(nodes, links, models, bindings, subs, workload, faults, duration_ms, seed):
    return {
        "topology": {"nodes": nodes, "links": links, "brokers": {"d0": "c1"}},
        "models": models,
        "bindings": bindings,
        "subscriptions": subs,
        "workload": workload,
        "faults": faults,
        "objective": {"alpha": 1, "beta": 0.1},
        "sim": {"duration_ms": duration_ms, "seed": seed,
                "heartbeat_ms": _HEARTBEAT_MS},
    }


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _monitor_star(workload, seed, edges, devices, monitors, count, rate_per_s, mem):
    """Every monitor subscribes (k=2) to every device topic of its edge."""
    rng = _rng(workload, seed)
    nodes, links, bindings = _star(edges, devices, monitors, 256, dual_homed=False)
    models = [_model("kpi", [(0.1, mem, 0.5), (0.1, mem, 0.5)])]
    subs = []
    owed = {}
    for topic in sorted(bindings):
        edge = topic.split("/")[0]
        for s in range(1, monitors + 1):
            sub_id = f"{edge}m{s}.{topic.split('/')[1]}"
            subs.append(_inference(sub_id, f"{edge}m{s}", "kpi", topic, 2))
            owed[sub_id] = count
    workload_spec = {
        t: {"size_bytes": 2048, "rate_per_s": rate_per_s, "count": count}
        for t in sorted(bindings)
    }
    duration = _stream_ms(count, rate_per_s) + _DRAIN_MS
    doc = _doc(nodes, links, models, bindings, subs, workload_spec, [], duration,
               rng.randrange(2 ** 32))
    return Generated(
        workload, seed, doc, ("run",), count * len(bindings), owed, strict=True,
        scale={"nodes": len(nodes), "subscriptions": len(subs),
               "publications": count * len(bindings),
               "owed_deliveries": sum(owed.values()), "faults": 0},
    )


def star_steady(seed: int) -> Generated:
    """128 subscriptions, four monitors per device topic, long Poisson streams."""
    return _monitor_star("star-steady", seed, edges=4, devices=8, monitors=4,
                         count=STEADY_COUNT, rate_per_s=20, mem=16)


def star_wide(seed: int) -> Generated:
    """Hundreds of subscriptions and one publication per topic: compile-bound."""
    return _monitor_star("star-wide", seed, edges=4, devices=8, monitors=WIDE_MONITORS,
                         count=1, rate_per_s=20, mem=16)


def star_churn(seed: int) -> Generated:
    """Dual-homed devices, stages forced onto edges, edge and link blips."""
    name = "star-churn"
    rng = _rng(name, seed)
    edges, devices, monitors = 4, 4, 2
    count, rate = CHURN_COUNT, 4
    # device memory below one layer's, so every model stage lands on an edge
    nodes, links, bindings = _star(edges, devices, monitors, 64, dual_homed=True)
    models = [_model("kpi", [(0.1, 96, 0.5), (0.1, 96, 0.5)])]
    subs = []
    owed = {}
    for topic in sorted(bindings):
        edge, dev, _ = topic.split("/")
        for s in range(1, monitors + 1):
            sub_id = f"{edge}m{s}.{dev}"
            subs.append(_inference(sub_id, f"{edge}m{s}", "kpi", topic, 2))
            owed[sub_id] = count
    for e in range(1, edges + 1):
        tap = f"e{e}m1.tap"
        subs.append({"sub_id": tap, "subscriber": f"e{e}m1", "kind": "data",
                     "filter": f"e{e}/d1/kpi"})
        owed[tap] = count
        funnel = f"e{e}m{monitors}.funnel"
        sub = _inference(funnel, f"e{e}m{monitors}", "kpi", f"e{e}/+/kpi", 2)
        sub["trigger"] = {"kind": "count", "n": FUNNEL_N}
        subs.append(sub)
        owed[funnel] = devices * count // FUNNEL_N
    workload_spec = {
        t: {"size_bytes": 2048, "rate_per_s": rate, "count": count}
        for t in sorted(bindings)
    }
    stream_ms = _stream_ms(count, rate)
    faults = _blips(rng, 1000 * count // rate, edges, monitors)
    duration = stream_ms + _DRAIN_MS
    doc = _doc(nodes, links, models, bindings, subs, workload_spec, faults, duration,
               rng.randrange(2 ** 32))
    return Generated(
        name, seed, doc, ("run",), count * len(bindings), owed, strict=False,
        scale={"nodes": len(nodes), "subscriptions": len(subs),
               "publications": count * len(bindings),
               "owed_deliveries": sum(owed.values()), "faults": len(faults) // 2},
    )


def _blips(rng: random.Random, span_ms: int, edges: int, monitors: int) -> list[dict]:
    """Alternating edge-node and monitor-link blips, one per slot.

    Slots never overlap, so at most one edge is down at a time and every
    dual-homed device keeps a route to the broker. Every edge fails equally
    often. Every other edge blip outlasts heartbeat detection (three missed
    beats) and is repaired; the rest end before detection and are not. The
    seed moves the times, the order of the edges and the links, not how many
    repairs a run makes.
    """
    slot_ms = span_ms // BLIPS
    edge_blips = BLIPS // 2
    targets = [1 + i % edges for i in range(edge_blips)]
    rng.shuffle(targets)
    out = []
    for i in range(BLIPS):
        if i % 2 == 0:
            j = i // 2
            if j % 2 == 0:
                length = rng.randint(4 * _HEARTBEAT_MS, 6 * _HEARTBEAT_MS)
            else:
                length = rng.randint(_HEARTBEAT_MS // 2, 2 * _HEARTBEAT_MS - 10)
            node = f"e{targets[j]}"
            down = {"kind": "node_down", "node": node}
            up = {"kind": "node_up", "node": node}
        else:
            length = rng.randint(_HEARTBEAT_MS // 2, 6 * _HEARTBEAT_MS)
            ends = [f"e{rng.randint(1, edges)}m{rng.randint(1, monitors)}", "c1"]
            down = {"kind": "link_down", "link": ends}
            up = {"kind": "link_up", "link": ends}
        start = i * slot_ms + rng.randint(0, slot_ms - length - 1)
        out.append({"at_ms": start, **down})
        out.append({"at_ms": start + length, **up})
    return out


def oracle_place(seed: int) -> Generated:
    """A seven-node star placed by the oracle: k=3 and k=4 searches.

    Each monitor subscribes to each device topic with every k=3 model, and one
    monitor adds one k=4 subscription; a search over u up nodes and k
    unpinned stages evaluates u**k candidates.
    """
    name = "oracle-place"
    rng = _rng(name, seed)
    edges, devices, monitors = 2, 1, 1
    nodes, links, bindings = _star(edges, devices, monitors, 1024, dual_homed=False)
    for ln in links:
        ln["latency_ms"] = rng.randint(10, 60) / 10
    models = []
    for m, k in enumerate(ORACLE_KS, start=1):
        layers = [
            (rng.randint(1, 9) / 10, rng.randint(8, 64), rng.randint(3, 9) / 10)
            for _ in range(k)
        ]
        models.append(_model(f"m{m}k{k}", layers))
    subs = []
    for topic in sorted(bindings):
        for e in range(1, edges + 1):
            for s in range(1, monitors + 1):
                mon = f"e{e}m{s}"
                for model in models:
                    k = len(model["layers"])
                    if k == 4 and subs:  # one k=4 search, on the first pair
                        continue
                    mid = model["model_id"]
                    subs.append(_inference(f"{mon}.{topic.split('/')[0]}.{mid}",
                                           mon, mid, topic, k))
    workload_spec = {
        t: {"size_bytes": 2048, "rate_per_s": 20, "count": 1} for t in sorted(bindings)
    }
    doc = _doc(nodes, links, models, bindings, subs, workload_spec, [], 1000,
               rng.randrange(2 ** 32))
    candidates = sum(len(nodes) ** sub["k"] for sub in subs)
    return Generated(
        name, seed, doc, ("place", "--algorithm", "oracle"), 0, {},
        strict=False,
        scale={"nodes": len(nodes), "subscriptions": len(subs), "publications": 0,
               "owed_deliveries": 0, "faults": 0, "oracle_searches": len(subs),
               "oracle_candidates": candidates},
    )


WORKLOADS = {
    "star-steady": star_steady,
    "star-wide": star_wide,
    "star-churn": star_churn,
    "oracle-place": oracle_place,
}


def generate(workload: str, seed: int) -> Generated:
    return WORKLOADS[workload](seed)
