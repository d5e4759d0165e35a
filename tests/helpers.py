"""Shared fixtures-in-code: instance bridging, scenario JSON builders, a
hop recorder for simulator runs and seeded random fault schedules."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from fractions import Fraction

from infersub.core import (
    LinkDescriptor,
    Mapping,
    NodeDescriptor,
    Pin,
    PipelineSpec,
    Publication,
    StageSpec,
    Topology,
    TopicFilter,
)
from infersub.metrics import emit
from infersub.placement import Objective, WorkloadEntry, WorkloadSpec
from infersub.scenario import FaultEvent, Scenario, loads_scenario
from infersub.simulator import (
    _World,
    _exp_gap_us,
    _periodic_us,
    _topic_rng,
    simulate,
)

from oracles import LineInstance

BENCH_TOPIC = "bench/in"


def simulate_recording_legs(
    sc: Scenario,
) -> tuple[_World, list[tuple[int, str, str, Publication]]]:
    """Run sc to completion like simulate, and return the world with every
    hop that left a node, as (µs, from, to, publication) by µs.

    Wraps _World._account, which accounts the legs a transfer starts, once
    per transfer: the µs it is sent, its plan and how many of the plan's
    legs it starts. Each leg i leaves path[i] for path[i + 1] at that µs
    plus the plan's arrival offset at path[i]. A transfer is accounted when
    it is sent, so its legs are sorted, stably, by the µs they start at. A
    hop dropped on a down link is never started, so it is not recorded.
    """
    legs: list[tuple[int, str, str, Publication]] = []
    account = _World._account

    def recording(world: _World, t_us: int, plan, started: int, pub: Publication) -> None:
        path, arrivals, _ = plan
        offsets = (0,) + arrivals
        for i in range(started):
            legs.append((t_us + offsets[i], path[i], path[i + 1], pub))
        account(world, t_us, plan, started, pub)

    _World._account = recording
    try:
        world = simulate(sc)
    finally:
        _World._account = account
    legs.sort(key=lambda rec: rec[0])
    return world, legs


def random_faults(sc: Scenario, seed: int) -> Scenario:
    """sc with two to six seeded fault blips added after its own faults.

    Each blip takes down a node, a link or a broker node and brings it back
    after 0.01 ms to 3 s, or never. It starts at the µs of an earlier fault,
    or within 8 ms after one of a topic's first 40 publications (of all of
    them when it publishes fewer), when its transfers are likely in flight,
    or anywhere in the run, in half µs.
    Blips may overlap, also on one target, so a fault may find its target
    already in that state.
    """
    rng = random.Random(seed)
    nodes = sorted(sc.topology.nodes)
    links = sorted(sc.topology.links)
    brokers = sorted(set(sc.brokers.values()))
    topics = sorted(sc.workload.topics.items())
    faults = list(sc.faults)
    times: list[Fraction] = []
    for _ in range(rng.randint(2, 6)):
        draw = rng.random()
        if times and draw < 0.25:
            at = rng.choice(times)
        elif draw < 0.75:
            topic, entry = rng.choice(topics)
            k = rng.randrange(min(entry.count or 40, 40))
            at = _publication_ms(sc, topic, entry, k)
            at += Fraction(rng.randrange(16000), 2000)
        else:
            at = Fraction(rng.randrange(sc.sim.duration_ms * 2000), 2000)
        kind = rng.choice(("node", "link", "broker"))
        if kind == "link":
            target = {"link": rng.choice(links)}
        else:
            target = {"node": rng.choice(brokers if kind == "broker" else nodes)}
            kind = "node"
        faults.append(FaultEvent(at_ms=at, kind=f"{kind}_down", **target))
        times.append(at)
        if rng.random() < 0.85:
            ms = rng.choice((Fraction(rng.randrange(10, 2000), 1000),
                             Fraction(rng.randrange(2, 200)),
                             Fraction(rng.randrange(200, 3000))))
            faults.append(FaultEvent(at_ms=at + ms, kind=f"{kind}_up", **target))
            times.append(at + ms)
    return dataclasses.replace(sc, faults=tuple(faults))


def _publication_ms(
    sc: Scenario, topic: str, entry: WorkloadEntry, k: int
) -> Fraction:
    """ms of topic's k-th publication (from 0) in a run of sc without faults."""
    start_us = entry.start_ms * 1000
    if entry.periodic:
        return Fraction(start_us + _periodic_us(k, entry.rate_per_s), 1000)
    rng = _topic_rng(sc.sim.seed, topic)
    for _ in range(k + 1):
        start_us += _exp_gap_us(rng, entry.rate_per_s)
    return Fraction(start_us, 1000)


def run_digest(sc: Scenario) -> str:
    """sha256 of a run of sc: its json report, its lost transfers and every
    leg that left a node, as a sorted list, so that the order in which legs
    of one µs are recorded does not count."""
    world, legs = simulate_recording_legs(sc)
    h = hashlib.sha256(emit(world.report()).encode())
    h.update(f"lost {world.lost_transfers}\n".encode())
    for leg in sorted(
        (t, a, b, str(p.topic), p.source, p.seq, p.tag, p.size_bytes)
        for t, a, b, p in legs
    ):
        h.update(f"{leg}\n".encode())
    return h.hexdigest()


def line_to_core(
    inst: LineInstance,
) -> tuple[PipelineSpec, Topology, WorkloadSpec, Objective, str, str]:
    """Build the package-side view of a LineInstance."""
    nodes = [
        NodeDescriptor(
            node_id=inst.node_ids[i],
            tier="edge",
            cpu_capacity=inst.cpu[i],
            mem_mb=inst.mem[i],
        )
        for i in range(len(inst.node_ids))
    ]
    links = [
        LinkDescriptor(
            inst.node_ids[i],
            inst.node_ids[i + 1],
            latency_ms=inst.link_latency_ms[i],
            bandwidth_kb_per_ms=inst.link_bandwidth[i],
        )
        for i in range(len(inst.node_ids) - 1)
    ]
    topo = Topology.of(nodes, links)

    stages = []
    for i, (cost_ms, mem_mb, selectivity, pin) in enumerate(inst.stages, 1):
        stages.append(
            StageSpec(
                stage_id=f"s{i}",
                kind=Mapping("identity"),
                compute_cost=cost_ms,
                mem_mb=mem_mb,
                selectivity=selectivity,
                pin=(
                    Pin.at_node(inst.node_ids[pin])
                    if pin is not None
                    else Pin.unpinned()
                ),
            )
        )
    pipeline = PipelineSpec(
        pipeline_id="bench",
        stages=tuple(stages),
        edges=tuple(
            (stages[i].stage_id, stages[i + 1].stage_id)
            for i in range(len(stages) - 1)
        ),
        source_bindings={stages[0].stage_id: TopicFilter.parse(BENCH_TOPIC)},
        sink=stages[-1].stage_id,
    )
    workload = WorkloadSpec(
        {BENCH_TOPIC: WorkloadEntry(inst.input_size, inst.rate_per_s)}
    )
    objective = Objective(inst.alpha, inst.beta)
    publisher = inst.node_ids[inst.publisher]
    subscriber = inst.node_ids[inst.subscriber]
    return pipeline, topo, workload, objective, publisher, subscriber


def assignment_nodes(
    inst: LineInstance, combo: tuple[int, ...]
) -> dict[str, str]:
    return {
        f"s{i + 1}": inst.node_ids[combo[i]] for i in range(len(inst.stages))
    }


# ---------------------------------------------------------------------------
# Scenario builders (JSON-first so the loader is always on the path)


def node(node_id, tier, cpu, mem, domain, accelerator=False):
    d = {
        "node_id": node_id,
        "tier": tier,
        "cpu_capacity": cpu,
        "mem_mb": mem,
        "domain_id": domain,
    }
    if accelerator:
        d["has_accelerator"] = True
    return d


def link(a, b, latency_ms, bandwidth):
    return {
        "a": a,
        "b": b,
        "latency_ms": latency_ms,
        "bandwidth_kb_per_ms": bandwidth,
    }


def build_scenario(
    *,
    nodes,
    links,
    brokers,
    models=(),
    bindings=None,
    subscriptions=(),
    workload=None,
    faults=(),
    objective=None,
    sim=None,
    peers=(),
) -> Scenario:
    doc = {
        "topology": {
            "nodes": list(nodes),
            "links": list(links),
            "brokers": dict(brokers),
        },
        "models": list(models),
        "bindings": dict(bindings or {}),
        "subscriptions": list(subscriptions),
        "workload": dict(workload or {}),
        "faults": list(faults),
        "objective": dict(objective or {}),
        "sim": dict(sim or {"duration_ms": 10000, "seed": 1}),
    }
    if peers:
        doc["topology"]["peers"] = list(peers)
    return loads_scenario(json.dumps(doc))


def star_scenario(fanout: int, *, count: int = 20, seed: int = 5) -> Scenario:
    """One publisher, one broker hub, `fanout` identical inference
    subscriptions at one monitor node."""
    return build_scenario(
        nodes=[
            node("pub", "device", 8, 512, "hub"),
            node("h", "edge", 16, 2048, "hub"),
            node("mon", "edge", 16, 2048, "hub"),
        ],
        links=[link("pub", "h", 2, 200), link("h", "mon", 2, 200)],
        brokers={"hub": "h"},
        models=[
            {
                "model_id": "shared",
                "version": 1,
                "task_tag": "telemetry",
                "domain_id": "hub",
                "layers": [
                    {"compute_cost": 2, "mem_mb": 64, "selectivity": 0.5},
                    {"compute_cost": 2, "mem_mb": 64, "selectivity": 0.5},
                ],
            }
        ],
        bindings={"hub/pub/t": "pub"},
        subscriptions=[
            {
                "sub_id": f"s{i:02d}",
                "subscriber": "mon",
                "kind": "inference",
                "model_id": "shared",
                "filter": "hub/pub/t",
                "k": 2,
            }
            for i in range(1, fanout + 1)
        ],
        workload={
            "hub/pub/t": {
                "size_bytes": 1024,
                "rate_per_s": 10,
                "periodic": True,
                "count": count,
            }
        },
        sim={"duration_ms": 6000, "seed": seed},
    )


def barrier_scenario(count_a: int, count_b: int, *, seed: int = 9) -> Scenario:
    """Two phase-offset periodic inputs joined by a barrier funnel."""
    return build_scenario(
        nodes=[
            node("a", "device", 8, 256, "lab"),
            node("b", "device", 8, 256, "lab"),
            node("h", "edge", 16, 2048, "lab"),
            node("s", "edge", 8, 1024, "lab"),
        ],
        links=[
            link("a", "h", 1, 500),
            link("b", "h", 1, 500),
            link("h", "s", 1, 500),
        ],
        brokers={"lab": "h"},
        models=[
            {
                "model_id": "pair",
                "version": 1,
                "task_tag": "telemetry",
                "domain_id": "lab",
                "layers": [
                    {"compute_cost": 1, "mem_mb": 32, "selectivity": 1}
                ],
            }
        ],
        bindings={"lab/a/x": "a", "lab/b/x": "b"},
        subscriptions=[
            {
                "sub_id": "joined",
                "subscriber": "s",
                "kind": "inference",
                "model_id": "pair",
                "filter": "lab/+/x",
                "k": 1,
            }
        ],
        workload={
            "lab/a/x": {
                "size_bytes": 256,
                "rate_per_s": 10,
                "periodic": True,
                "count": count_a,
            },
            "lab/b/x": {
                "size_bytes": 256,
                "rate_per_s": 10,
                "periodic": True,
                "start_ms": 50,
                "count": count_b,
            },
        },
        sim={"duration_ms": 4000, "seed": seed},
    )


def count_window_scenario(pubs: int, n: int, *, seed: int = 13) -> Scenario:
    """Single input through a count-window funnel."""
    return build_scenario(
        nodes=[
            node("p", "device", 8, 256, "lab"),
            node("h", "edge", 16, 2048, "lab"),
            node("s", "edge", 8, 1024, "lab"),
        ],
        links=[link("p", "h", 1, 500), link("h", "s", 1, 500)],
        brokers={"lab": "h"},
        models=[
            {
                "model_id": "acc",
                "version": 1,
                "task_tag": "telemetry",
                "domain_id": "lab",
                "layers": [
                    {"compute_cost": 1, "mem_mb": 32, "selectivity": 1}
                ],
            }
        ],
        bindings={"lab/p/x": "p"},
        subscriptions=[
            {
                "sub_id": "batched",
                "subscriber": "s",
                "kind": "inference",
                "model_id": "acc",
                "filter": "lab/p/x",
                "k": 1,
                "trigger": {"kind": "count", "n": n},
            }
        ],
        workload={
            "lab/p/x": {
                "size_bytes": 256,
                "rate_per_s": 20,
                "periodic": True,
                "count": pubs,
            }
        },
        sim={"duration_ms": 4000, "seed": seed},
    )


def time_window_scenario(pubs: int, delta_ms: int, *, seed: int = 17) -> Scenario:
    return build_scenario(
        nodes=[
            node("p", "device", 8, 256, "lab"),
            node("h", "edge", 16, 2048, "lab"),
            node("s", "edge", 8, 1024, "lab"),
        ],
        links=[link("p", "h", 1, 500), link("h", "s", 1, 500)],
        brokers={"lab": "h"},
        models=[
            {
                "model_id": "win",
                "version": 1,
                "task_tag": "telemetry",
                "domain_id": "lab",
                "layers": [
                    {"compute_cost": 1, "mem_mb": 32, "selectivity": 0.5}
                ],
            }
        ],
        bindings={"lab/p/x": "p"},
        subscriptions=[
            {
                "sub_id": "windowed",
                "subscriber": "s",
                "kind": "inference",
                "model_id": "win",
                "filter": "lab/p/x",
                "k": 1,
                "trigger": {"kind": "time", "delta_ms": delta_ms},
            }
        ],
        workload={
            "lab/p/x": {
                "size_bytes": 512,
                "rate_per_s": 10,
                "periodic": True,
                "count": pubs,
            }
        },
        sim={"duration_ms": 4000, "seed": seed},
    )


def trainer_scenario(*, fault_at_ms: float | None = 144, seed: int = 29) -> Scenario:
    """Three trainers feeding rounds of deltas; one mid-route node killed
    between a delivery and its ack so the replay path gets exercised."""
    faults = []
    if fault_at_ms is not None:
        faults.append({"at_ms": fault_at_ms, "kind": "node_down", "node": "m"})
    return build_scenario(
        nodes=[
            node("t1", "device", 8, 256, "fl"),
            node("t2", "device", 8, 256, "fl"),
            node("t3", "device", 8, 256, "fl"),
            node("b", "edge", 16, 2048, "fl"),
            node("m", "edge", 8, 1024, "fl"),
            node("r", "edge", 8, 1024, "fl"),
            node("s", "device", 8, 256, "fl"),
        ],
        links=[
            link("t1", "b", 1, 500),
            link("t2", "b", 1, 500),
            link("t3", "b", 1, 500),
            link("b", "m", 1, 500),
            link("m", "s", 1, 500),
            link("b", "r", 2, 300),
            link("r", "s", 2, 300),
        ],
        brokers={"fl": "b"},
        models=[
            {
                "model_id": "fed",
                "version": 1,
                "task_tag": "text",
                "domain_id": "fl",
                "trainers": ["t1", "t2", "t3"],
                "params": [0, 0, 0, 0],
                "layers": [
                    {"compute_cost": 1, "mem_mb": 16, "selectivity": 1}
                ],
            }
        ],
        bindings={
            "_updates/fed/t1": "t1",
            "_updates/fed/t2": "t2",
            "_updates/fed/t3": "t3",
        },
        subscriptions=[
            {
                "sub_id": "upd-s",
                "subscriber": "s",
                "kind": "model_update",
                "model_id": "fed",
            }
        ],
        workload={
            "_updates/fed/t1": {
                "size_bytes": 64,
                "rate_per_s": 1,
                "periodic": True,
                "start_ms": 100,
                "count": 3,
                "payload": [1, 2, 3, 4],
            },
            "_updates/fed/t2": {
                "size_bytes": 64,
                "rate_per_s": 1,
                "periodic": True,
                "start_ms": 120,
                "count": 3,
                "payload": [2, 3, 4, 5],
            },
            "_updates/fed/t3": {
                "size_bytes": 64,
                "rate_per_s": 1,
                "periodic": True,
                "start_ms": 140,
                "count": 3,
                "payload": [3, 4, 5, 6],
            },
        },
        faults=faults,
        sim={"duration_ms": 5000, "seed": seed},
    )


def two_publisher_scenario(extra_topic: bool, *, seed: int = 37) -> Scenario:
    """Two disjoint publisher/subscriber pairs through one hub; the second
    pair can be switched off to probe workload substream independence."""
    bindings = {"iso/p1/x": "p1"}
    subs = [
        {
            "sub_id": "tap1",
            "subscriber": "s1",
            "kind": "data",
            "filter": "iso/p1/x",
        }
    ]
    workload = {
        "iso/p1/x": {"size_bytes": 512, "rate_per_s": 20, "count": 30}
    }
    if extra_topic:
        bindings["iso/p2/y"] = "p2"
        subs.append(
            {
                "sub_id": "tap2",
                "subscriber": "s2",
                "kind": "data",
                "filter": "iso/p2/y",
            }
        )
        workload["iso/p2/y"] = {
            "size_bytes": 2048,
            "rate_per_s": 35,
            "count": 40,
        }
    return build_scenario(
        nodes=[
            node("p1", "device", 8, 256, "iso"),
            node("p2", "device", 8, 256, "iso"),
            node("c", "edge", 16, 2048, "iso"),
            node("s1", "device", 8, 256, "iso"),
            node("s2", "device", 8, 256, "iso"),
        ],
        links=[
            link("p1", "c", 1, 400),
            link("p2", "c", 1, 400),
            link("c", "s1", 1, 400),
            link("c", "s2", 1, 400),
        ],
        brokers={"iso": "c"},
        bindings=bindings,
        subscriptions=subs,
        workload=workload,
        sim={"duration_ms": 8000, "seed": seed},
    )


def blip_scenario(
    faults=(), *, prefilter: bool = False, seed: int = 3
) -> Scenario:
    """Two device streams whose two-stage chains both run on the cloud node
    g, with the broker on its twin h; faults on g or h hit a busy node.

    With prefilter, a threshold gate heads each chain: a's passes every
    publication and b's drops every one.
    """
    subs = [
        {
            "sub_id": sub_id,
            "subscriber": "m",
            "kind": "inference",
            "model_id": "deep",
            "filter": topic,
            "k": 2,
        }
        for sub_id, topic in (("a", "d/p/x"), ("b", "d/q/x"))
    ]
    if prefilter:
        for sub, floor in zip(subs, (1, 2)):
            sub["prefilter"] = {"predicate": "threshold", "args": {"min": floor}}
    return build_scenario(
        nodes=[
            node("p", "device", 1, 256, "d"),
            node("q", "device", 1, 256, "d"),
            node("e", "edge", 4, 256, "d"),
            node("h", "cloud", 16, 4096, "d"),
            node("g", "cloud", 16, 4096, "d"),
            node("m", "device", 4, 256, "d"),
        ],
        links=[
            link(a, b, 1, 1000)
            for a, b in (
                ("p", "e"), ("q", "e"), ("e", "h"),
                ("e", "g"), ("h", "m"), ("g", "m"),
            )
        ],
        brokers={"d": "h"},
        models=[
            {
                "model_id": "deep",
                "version": 1,
                "task_tag": "telemetry",
                "domain_id": "d",
                "layers": [
                    {"compute_cost": 1, "mem_mb": 512, "selectivity": 1},
                    {"compute_cost": 50, "mem_mb": 512, "selectivity": 1},
                ],
            }
        ],
        bindings={"d/p/x": "p", "d/q/x": "q"},
        subscriptions=subs,
        workload={
            "d/p/x": {
                "size_bytes": 1024, "rate_per_s": 100, "periodic": True,
                "count": 80,
            },
            "d/q/x": {
                "size_bytes": 1024, "rate_per_s": 100, "periodic": True,
                "start_ms": 2, "count": 80,
            },
        },
        faults=list(faults),
        sim={"duration_ms": 2000, "seed": seed},
    )


def _node_fault(at_ms, kind, node_id):
    return {"at_ms": at_ms, "kind": kind, "node": node_id}


# blip_scenario faults. G_BLIP: g goes down mid-job and comes back before
# the next heartbeat
G_BLIP = (_node_fault(2.2, "node_down", "g"), _node_fault(2.4, "node_up", "g"))
# g fails while the broker node h is down; its repair waits for h
BROKER_DOWN = (
    _node_fault(300, "node_down", "h"),
    _node_fault(310, "node_down", "g"),
    _node_fault(600, "node_up", "h"),
)
# as BROKER_DOWN, but g is back before h, so the waiting repair is moot
BROKER_DOWN_G_BACK = BROKER_DOWN + (_node_fault(500, "node_up", "g"),)


def fraction_str(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"
