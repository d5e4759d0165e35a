"""Independent reference implementations used to audit the package.

Everything in this module is written from scratch against the documented
behavior and shares no code with the implementation under test: a hop-by-hop
cost evaluator for chain pipelines on path topologies, a plain-dict funnel
interpreter, and the seeded instance generators the audits run over. The
exceptions are earlier versions of the package kept unchanged as fixed
references: ref_route is the per-call Dijkstra over a full link scan that the
package used before it cached shortest-path trees on each topology snapshot;
ref_merge_shared_prefix is the from-scratch exec-graph build the package used
before it kept the graph incrementally; and ref_feasible, ref_cost,
ref_place_upstream, ref_place_baseline_subscriber, ref_place_oracle and
ref_replan are the placement functions as they were before one evaluator per
search derived the pins, the entry workload and the stage sizes and rates once;
ref_exp_gap_us, ref_periodic_us and ref_latency_stats are the simulator's
Poisson gap, periodic schedule and latency summary as it computed them in
Fractions before its event path kept integer µs.

Keep it boring. These references exist so the real implementations have
something to disagree with; cleverness here would defeat the point.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product
from typing import Sequence

from infersub.broker import PipelineInstance
from infersub.core import (
    Barrier,
    CountWindow,
    Funnel,
    LinkDescriptor,
    PipelineSpec,
    Publication,
    StageSpec,
    TimeWindow,
    Topic,
    Topology,
    Violation,
    route,
    route_latency,
    scaled_size,
)
from infersub.errors import (
    InstanceTerminatedError,
    NoFeasiblePlacementError,
    NoRouteError,
    SearchSpaceTooLargeError,
)
from infersub.placement import (
    ORACLE_BOUND,
    CostReport,
    DeliveryEdge,
    ExecStage,
    Objective,
    Placement,
    Publishers,
    WorkloadSpec,
)


# ---------------------------------------------------------------------------
# Routing reference: one Dijkstra per call, each expansion scans every link


def ref_up_neighbors(t: Topology, node_id: str) -> list[tuple[str, LinkDescriptor]]:
    out = []
    for link in t.links.values():
        if link.state != "up":
            continue
        if node_id == link.a:
            other = link.b
        elif node_id == link.b:
            other = link.a
        else:
            continue
        if t.is_node_up(other):
            out.append((other, link))
    return sorted(out, key=lambda pair: pair[0])


def ref_route(t: Topology, a: str, b: str) -> list[str]:
    """Minimum-latency up path from a to b.

    Ties go to fewer hops, then the lexicographically smallest node sequence.
    ref_route(t, a, a) == [a].
    """
    if a not in t.nodes or b not in t.nodes:
        raise NoRouteError(a, b)
    if a == b:
        return [a]
    if not t.is_node_up(a) or not t.is_node_up(b):
        raise NoRouteError(a, b)
    heap: list[tuple[Fraction, int, tuple[str, ...]]] = [(Fraction(0), 0, (a,))]
    done: set[str] = set()
    while heap:
        lat, hops, path = heapq.heappop(heap)
        here = path[-1]
        if here == b:
            return list(path)
        if here in done:
            continue
        done.add(here)
        for nxt, link in ref_up_neighbors(t, here):
            if nxt not in done:
                heapq.heappush(
                    heap, (lat + link.latency_ms, hops + 1, path + (nxt,))
                )
    raise NoRouteError(a, b)


def ref_route_latency(t: Topology, a: str, b: str) -> tuple[Fraction, int]:
    """(total latency, hop count) of ref_route(t, a, b)."""
    path = ref_route(t, a, b)
    total = Fraction(0)
    for x, y in zip(path, path[1:]):
        link = t.link_between(x, y)
        assert link is not None
        total += link.latency_ms
    return total, len(path) - 1


# ---------------------------------------------------------------------------
# Exec-graph reference: the whole merged graph rebuilt from scratch, with
# successors and entries found by scanning every stage


@dataclass(frozen=True, eq=False)
class RefExecutionGraph:
    """Instance pipelines merged so each shared prefix stage runs once."""

    stages: dict[str, ExecStage]
    deliveries: tuple[DeliveryEdge, ...]

    def succs(self, exec_id: str) -> list[ExecStage]:
        return sorted(
            (s for s in self.stages.values() if exec_id in s.pred_ids),
            key=lambda s: s.exec_id,
        )

    def entries(self) -> list[ExecStage]:
        return sorted(
            (s for s in self.stages.values() if not s.pred_ids),
            key=lambda s: s.exec_id,
        )


def ref_exec_key_id(
    stage: StageSpec,
    node: str,
    pred_ids: tuple[str, ...],
    entry_binding: tuple[str, str] | None,
) -> str:
    text = repr((stage, node, pred_ids, entry_binding))
    return "x" + hashlib.sha1(text.encode()).hexdigest()[:12]


def ref_merge_shared_prefix(instances: Sequence[PipelineInstance]) -> RefExecutionGraph:
    """Build the merged execution graph over compatible instances.

    Two instances share an execution exactly when the stage spec, assigned
    node, upstream executions, and (for entries) the topic binding coincide;
    anything downstream of a divergence fans out.
    """
    stages: dict[str, ExecStage] = {}
    deliveries: list[DeliveryEdge] = []
    for inst in sorted(instances, key=lambda i: i.instance_id):
        local: dict[str, str] = {}
        for sid in inst.pipeline.topo_order():
            spec = inst.pipeline.stage(sid)
            node = inst.placement.node_of(sid)
            preds = tuple(sorted(local[q] for q in inst.pipeline.preds(sid)))
            binding = inst.entry_bindings.get(sid)
            exec_id = ref_exec_key_id(spec, node, preds, binding)
            local[sid] = exec_id
            prior = stages.get(exec_id)
            if prior is None:
                stages[exec_id] = ExecStage(
                    exec_id, spec, node, preds, binding, (inst.instance_id,)
                )
            elif inst.instance_id not in prior.instance_ids:
                stages[exec_id] = ExecStage(
                    exec_id,
                    spec,
                    node,
                    preds,
                    binding,
                    tuple(sorted(prior.instance_ids + (inst.instance_id,))),
                )
        deliveries.append(
            DeliveryEdge(
                local[inst.pipeline.sink],
                inst.instance_id,
                inst.sub_id,
                inst.subscriber,
            )
        )
    return RefExecutionGraph(stages, tuple(deliveries))


# ---------------------------------------------------------------------------
# Placement reference: feasibility, cost and the searches as the package had
# them before one evaluator per search; every call re-derives the pins, the
# entry workload and the stage sizes and rates


def _ref_propagate_sizes(p: PipelineSpec, entry_sizes: dict[str, int]) -> dict[str, int]:
    out: dict[str, int] = {}
    for sid in p.topo_order():
        stage = p.stage(sid)
        preds = p.preds(sid)
        if not preds:
            incoming = entry_sizes[sid]
        elif isinstance(stage.kind, Funnel):
            incoming = sum(out[q] for q in preds)
        else:
            incoming = max(out[q] for q in preds)
        out[sid] = scaled_size(incoming, stage.selectivity)
    return out


def _ref_propagate_rates(
    p: PipelineSpec, entry_rates: dict[str, Fraction]
) -> dict[str, Fraction]:
    """Publications per 1000 ms emitted by each stage (filters counted as
    pass-through, the conservative bound for cpu budgeting)."""
    out: dict[str, Fraction] = {}
    for sid in p.topo_order():
        stage = p.stage(sid)
        preds = p.preds(sid)
        if not preds:
            out[sid] = entry_rates[sid]
        elif isinstance(stage.kind, Funnel):
            trigger = stage.kind.trigger
            if isinstance(trigger, Barrier):
                out[sid] = min(out[q] for q in preds)
            elif isinstance(trigger, CountWindow):
                out[sid] = sum((out[q] for q in preds), Fraction(0)) / trigger.n
            else:
                assert isinstance(trigger, TimeWindow)
                out[sid] = Fraction(1000, trigger.delta_ms)
        else:
            out[sid] = sum((out[q] for q in preds), Fraction(0))
    return out


def _ref_entry_workload(
    p: PipelineSpec, w: WorkloadSpec
) -> tuple[dict[str, int], dict[str, Fraction], list[Violation]]:
    """(entry sizes, entry rates, violations) from each entry's topic binding.

    Several matching topics combine as max size and summed rate.
    """
    sizes: dict[str, int] = {}
    rates: dict[str, Fraction] = {}
    violations: list[Violation] = []
    for sid in sorted(p.entry_ids()):
        names = w.matching(p.source_bindings[sid]) if sid in p.source_bindings else []
        if not names:
            violations.append(Violation("WorkloadMissing", sid))
            sizes[sid] = 1
            rates[sid] = Fraction(0)
            continue
        sizes[sid] = max(w.topics[n].size_bytes for n in names)
        rates[sid] = sum((w.topics[n].rate_per_s for n in names), Fraction(0))
    return sizes, rates, violations


def _ref_publishers_by_entry(p: PipelineSpec, publisher: Publishers) -> dict[str, str]:
    if isinstance(publisher, str):
        return {sid: publisher for sid in p.entry_ids()}
    return dict(publisher)


def _ref_anchor_publisher(p: PipelineSpec, sid: str, pubs: dict[str, str]) -> str:
    """The publisher feeding a stage: its own for entries, otherwise the
    lexicographically smallest over its entry ancestry."""
    if sid in pubs:
        return pubs[sid]
    seen: set[str] = set()
    frontier = [sid]
    found: set[str] = set()
    while frontier:
        cur = frontier.pop()
        if cur in seen:
            continue
        seen.add(cur)
        preds = p.preds(cur)
        if not preds and cur in pubs:
            found.add(pubs[cur])
        frontier.extend(preds)
    if not found:
        raise KeyError(f"no publisher reaches stage {sid}")
    return min(found)


def _ref_reach(t: Topology, a: str, b: str) -> tuple[Fraction, int, tuple[str, ...]] | None:
    """(latency, hops, path) of route(t, a, b); None when there is none.

    Read through the public route and route_latency, which
    test_route_matches_the_per_call_dijkstra_reference checks against
    ref_route, so no reference here depends on how a snapshot stores its
    routes."""
    try:
        latency, hops = route_latency(t, a, b)
        return latency, hops, tuple(route(t, a, b))
    except NoRouteError:
        return None


def _ref_transfer(
    t: Topology, a: str, b: str, size_bytes: int
) -> tuple[Fraction, Fraction] | None:
    """(ms, KB counted per hop) to move size_bytes along route(t, a, b): each
    hop takes its latency plus size over bandwidth."""
    got = _ref_reach(t, a, b)
    if got is None:
        return None
    lat, hops, path = got
    kb = Fraction(size_bytes, 1024)
    for x, y in zip(path, path[1:]):
        link = t.link_between(x, y)
        assert link is not None
        lat += kb / link.bandwidth_kb_per_ms
    return lat, kb * hops


def ref_feasible(
    pl: Placement,
    p: PipelineSpec,
    t: Topology,
    w: WorkloadSpec,
    publisher: Publishers | None = None,
    subscriber: str | None = None,
) -> list[Violation]:
    """Resource, pin and route violations of a placement; empty means feasible.

    Publisher/subscriber pins are only checkable when that context is given.
    """
    out: list[Violation] = []
    pubs = _ref_publishers_by_entry(p, publisher) if publisher is not None else None
    assigned = pl.assignment

    for s in p.stages:
        if s.stage_id not in assigned:
            out.append(Violation("Unassigned", s.stage_id))
    if out:
        return sorted(out)

    for s in p.stages:
        node_id = assigned[s.stage_id]
        if node_id not in t.nodes:
            out.append(Violation("NodeMissing", s.stage_id, node_id))
            continue
        if not t.is_node_up(node_id):
            out.append(Violation("NodeDown", s.stage_id, node_id))
        if s.needs_accelerator and not t.node(node_id).has_accelerator:
            out.append(Violation("AcceleratorMissing", s.stage_id, node_id))
        pin = s.pin
        if pin.kind == "node" and node_id != pin.node_id:
            out.append(Violation("PinViolation", s.stage_id, f"pinned {pin.node_id}"))
        elif pin.kind == "publisher" and pubs is not None:
            want = _ref_anchor_publisher(p, s.stage_id, pubs)
            if node_id != want:
                out.append(Violation("PinViolation", s.stage_id, f"pinned {want}"))
        elif pin.kind == "subscriber" and subscriber is not None:
            if node_id != subscriber:
                out.append(
                    Violation("PinViolation", s.stage_id, f"pinned {subscriber}")
                )
    if any(v.rule == "NodeMissing" for v in out):
        return sorted(out)

    entry_sizes, entry_rates, wl_violations = _ref_entry_workload(p, w)
    out.extend(wl_violations)
    rates = _ref_propagate_rates(p, entry_rates)

    per_node: dict[str, list[StageSpec]] = {}
    for s in p.stages:
        per_node.setdefault(assigned[s.stage_id], []).append(s)
    for node_id in sorted(per_node):
        node = t.node(node_id)
        stages = per_node[node_id]
        mem = sum((s.mem_mb for s in stages), Fraction(0))
        if mem > node.mem_mb:
            out.append(
                Violation("MemoryExceeded", node_id, f"{mem} > {node.mem_mb}")
            )
        load = sum(
            (s.compute_cost * rates[s.stage_id] / 1000 for s in stages), Fraction(0)
        )
        if load > node.cpu_capacity:
            out.append(
                Violation("CpuExceeded", node_id, f"{load} > {node.cpu_capacity}")
            )

    hops: list[tuple[str, str]] = []
    for a, b in p.edges:
        hops.append((assigned[a], assigned[b]))
    if pubs is not None:
        for sid in p.entry_ids():
            hops.append((pubs[sid], assigned[sid]))
    if subscriber is not None:
        hops.append((assigned[p.sink], subscriber))
    for a, b in dict.fromkeys(hops):
        if a == b:
            continue
        try:
            route(t, a, b)
        except NoRouteError:
            out.append(Violation("RouteMissing", f"{a}->{b}"))
    return sorted(set(out))


def ref_cost(
    pl: Placement,
    p: PipelineSpec,
    t: Topology,
    w: WorkloadSpec,
    o: Objective,
    publisher: Publishers,
    subscriber: str,
) -> CostReport:
    """Critical-path latency and per-hop KB for one publication through pl.

    Latency sums entry transfer, per-stage compute (cost / cpu_capacity),
    inter-stage transfers, and the final transfer to the subscriber, along the
    longest path of the DAG.
    """
    violations = tuple(ref_feasible(pl, p, t, w, publisher, subscriber))
    pubs = _ref_publishers_by_entry(p, publisher)
    assigned = pl.assignment
    missing = CostReport(None, None, None, False, violations)
    if any(v.rule in ("Unassigned", "NodeMissing", "RouteMissing") for v in violations):
        return missing

    entry_sizes, _, _ = _ref_entry_workload(p, w)
    sizes = _ref_propagate_sizes(p, entry_sizes)

    bytes_kb = Fraction(0)
    finish: dict[str, Fraction] = {}
    for sid in p.topo_order():
        node_id = assigned[sid]
        preds = p.preds(sid)
        arrival = Fraction(0)
        if not preds:
            got = _ref_transfer(t, pubs[sid], node_id, entry_sizes[sid])
            if got is None:
                return missing
            arrival, kb = got
            bytes_kb += kb
        for q in preds:
            got = _ref_transfer(t, assigned[q], node_id, sizes[q])
            if got is None:
                return missing
            arrival = max(arrival, finish[q] + got[0])
            bytes_kb += got[1]
        finish[sid] = arrival + p.stage(sid).compute_cost / t.node(node_id).cpu_capacity

    got = _ref_transfer(t, assigned[p.sink], subscriber, sizes[p.sink])
    if got is None:
        return missing
    latency = finish[p.sink] + got[0]
    bytes_kb += got[1]
    return CostReport(
        latency_ms=latency,
        bytes_kb=bytes_kb,
        objective_value=o.value(latency, bytes_kb),
        feasible=not violations,
        violations=violations,
    )


def _ref_resolve_pins(
    p: PipelineSpec, pubs: dict[str, str], subscriber: str
) -> dict[str, str]:
    fixed: dict[str, str] = {}
    for s in p.stages:
        if s.pin.kind == "node":
            assert s.pin.node_id is not None
            fixed[s.stage_id] = s.pin.node_id
        elif s.pin.kind == "publisher":
            fixed[s.stage_id] = _ref_anchor_publisher(p, s.stage_id, pubs)
        elif s.pin.kind == "subscriber":
            fixed[s.stage_id] = subscriber
    return fixed


def _ref_upstream_rank(t: Topology, subscriber: str, node_id: str) -> tuple:
    """Sort key placing more-upstream nodes (farther from the subscriber)
    first; unroutable nodes last."""
    got = _ref_reach(t, node_id, subscriber)
    if got is None:
        return (0, Fraction(0), 0, node_id)
    return (-1, -got[0], -got[1], node_id)


def _ref_downstreamness(t: Topology, subscriber: str, node_id: str) -> tuple:
    """Totally ordered proxy for position along the flow toward the
    subscriber; smaller means closer to the subscriber."""
    got = _ref_reach(t, node_id, subscriber)
    if got is None:
        return (1, Fraction(0), 0)
    return (0, got[0], got[1])


def _ref_not_upstream_of(
    t: Topology, subscriber: str, candidate: str, reference: str
) -> bool:
    """candidate is at or downstream of reference (toward the subscriber)."""
    return _ref_downstreamness(t, subscriber, candidate) <= _ref_downstreamness(
        t, subscriber, reference
    )


def ref_place_oracle(
    p: PipelineSpec,
    t: Topology,
    w: WorkloadSpec,
    o: Objective,
    publisher: Publishers,
    subscriber: str,
) -> Placement:
    """Exhaustive minimum-objective placement of all unpinned stages.

    Ties prefer more upstream assignments: lexicographically by stage order on
    (distance from the stage's publisher, node id).
    """
    pubs = _ref_publishers_by_entry(p, publisher)
    fixed = _ref_resolve_pins(p, pubs, subscriber)
    unpinned = [s.stage_id for s in p.stages if s.stage_id not in fixed]
    candidates = sorted(n for n in t.nodes if t.is_node_up(n))
    space = len(candidates) ** len(unpinned) if unpinned else 1
    if space > ORACLE_BOUND:
        raise SearchSpaceTooLargeError(space, ORACLE_BOUND)

    def upstream_key(assignment: dict[str, str]) -> tuple:
        key = []
        for s in p.stages:
            node_id = assignment[s.stage_id]
            anchor = _ref_anchor_publisher(p, s.stage_id, pubs)
            got = _ref_reach(t, anchor, node_id)
            if got is None:
                key.append((1, Fraction(0), 0, node_id))
            else:
                key.append((0, got[0], got[1], node_id))
        return tuple(key)

    best: tuple | None = None
    best_assignment: dict[str, str] | None = None
    for combo in product(candidates, repeat=len(unpinned)):
        assignment = dict(fixed)
        assignment.update(zip(unpinned, combo))
        pl = Placement(assignment)
        report = ref_cost(pl, p, t, w, o, publisher, subscriber)
        if not report.feasible:
            continue
        assert report.objective_value is not None
        key = (report.objective_value, upstream_key(assignment))
        if best is None or key < best:
            best = key
            best_assignment = assignment
    if best_assignment is None:
        raise NoFeasiblePlacementError(p.pipeline_id)
    return Placement(best_assignment)


def _ref_route_candidates(
    t: Topology, pubs: dict[str, str], subscriber: str
) -> list[str]:
    """Union of publisher->subscriber route nodes, most upstream first."""
    seen: set[str] = set()
    for pub in sorted(set(pubs.values())):
        try:
            seen.update(route(t, pub, subscriber))
        except NoRouteError:
            raise NoFeasiblePlacementError(f"no route {pub}->{subscriber}") from None
    return sorted(seen, key=lambda n: _ref_upstream_rank(t, subscriber, n))


def _ref_upstream_with_fixed(
    p: PipelineSpec,
    t: Topology,
    w: WorkloadSpec,
    o: Objective,
    pubs: dict[str, str],
    subscriber: str,
    fixed: dict[str, str],
    movable: list[str],
) -> Placement:
    """Greedy most-upstream assignment of movable stages plus local search.

    Movable stages may only sit at or downstream of their predecessors along
    the route ordering; fixed assignments are never touched.
    """
    candidates = _ref_route_candidates(t, pubs, subscriber)
    movable_set = set(movable)
    assignment = dict(fixed)

    _, entry_rates, _ = _ref_entry_workload(p, w)
    rates = _ref_propagate_rates(p, entry_rates)

    def mem_cpu_ok(assigned: dict[str, str]) -> bool:
        """Memory and cpu budgets over the stages assigned so far."""
        per_node: dict[str, list[StageSpec]] = {}
        for sid2, node2 in assigned.items():
            per_node.setdefault(node2, []).append(p.stage(sid2))
        for node2, stages2 in per_node.items():
            node = t.node(node2)
            if sum((s.mem_mb for s in stages2), Fraction(0)) > node.mem_mb:
                return False
            load = sum(
                (s.compute_cost * rates[s.stage_id] / 1000 for s in stages2),
                Fraction(0),
            )
            if load > node.cpu_capacity:
                return False
        return True

    for sid in p.topo_order():
        if sid not in movable_set:
            continue
        stage = p.stage(sid)
        chosen = None
        for cand in candidates:
            if not t.is_node_up(cand):
                continue
            ok = all(
                _ref_not_upstream_of(t, subscriber, cand, assignment[q])
                for q in p.preds(sid)
                if q in assignment
            )
            if not ok:
                continue
            if stage.needs_accelerator and not t.node(cand).has_accelerator:
                continue
            trial = dict(assignment)
            trial[sid] = cand
            if mem_cpu_ok(trial):
                chosen = cand
                break
        if chosen is None:
            raise NoFeasiblePlacementError(f"{p.pipeline_id}: stage {sid}")
        assignment[sid] = chosen

    full = Placement(assignment)
    report = ref_cost(full, p, t, w, o, pubs, subscriber)
    if not report.feasible:
        raise NoFeasiblePlacementError(
            f"{p.pipeline_id}: {[v.rule for v in report.violations]}"
        )
    assert report.objective_value is not None
    current = report.objective_value

    max_moves = 100 * len(p.stages)
    moves = 0
    improved = True
    while improved and moves < max_moves:
        improved = False
        for sid in p.topo_order():
            if sid not in movable_set or moves >= max_moves:
                continue
            here = assignment[sid]
            best_key: tuple | None = None
            best_node: str | None = None
            for cand in candidates:
                if cand == here or not t.is_node_up(cand):
                    continue
                ok = all(
                    _ref_not_upstream_of(t, subscriber, cand, assignment[q])
                    for q in p.preds(sid)
                    if q in assignment
                ) and all(
                    _ref_not_upstream_of(t, subscriber, assignment[q], cand)
                    for q in p.succs(sid)
                    if q in assignment
                )
                if not ok:
                    continue
                trial = dict(assignment)
                trial[sid] = cand
                trial_report = ref_cost(Placement(trial), p, t, w, o, pubs, subscriber)
                if not trial_report.feasible:
                    continue
                assert trial_report.objective_value is not None
                if trial_report.objective_value >= current:
                    continue
                key = (
                    trial_report.objective_value,
                    _ref_upstream_rank(t, subscriber, cand),
                )
                if best_key is None or key < best_key:
                    best_key = key
                    best_node = cand
            if best_node is not None and best_key is not None:
                assignment[sid] = best_node
                current = best_key[0]
                moves += 1
                improved = True
    return Placement(assignment)


def ref_place_upstream(
    p: PipelineSpec,
    t: Topology,
    w: WorkloadSpec,
    o: Objective,
    publisher: Publishers,
    subscriber: str,
) -> Placement:
    """Balanced-upstream heuristic over the publisher->subscriber route."""
    pubs = _ref_publishers_by_entry(p, publisher)
    fixed = _ref_resolve_pins(p, pubs, subscriber)
    movable = [s.stage_id for s in p.stages if s.stage_id not in fixed]
    pl = _ref_upstream_with_fixed(p, t, w, o, pubs, subscriber, fixed, movable)
    bad = ref_feasible(pl, p, t, w, pubs, subscriber)
    if bad:
        raise NoFeasiblePlacementError(f"{p.pipeline_id}: {[v.rule for v in bad]}")
    return pl


def ref_place_baseline_subscriber(
    p: PipelineSpec,
    t: Topology,
    w: WorkloadSpec,
    publisher: Publishers,
    subscriber: str,
) -> Placement:
    """Everything unpinned at the subscriber; feasibility not required."""
    pubs = _ref_publishers_by_entry(p, publisher)
    fixed = _ref_resolve_pins(p, pubs, subscriber)
    assignment = {
        s.stage_id: fixed.get(s.stage_id, subscriber) for s in p.stages
    }
    return Placement(assignment)


def ref_replan(
    pl: Placement,
    failed: set[str],
    p: PipelineSpec,
    t: Topology,
    w: WorkloadSpec,
    o: Objective,
    publisher: Publishers,
    subscriber: str,
) -> Placement:
    """Re-place only the stages that sat on failed nodes; survivors stay."""
    pubs = _ref_publishers_by_entry(p, publisher)
    if subscriber in failed or any(pub in failed for pub in pubs.values()):
        raise InstanceTerminatedError(p.pipeline_id)
    pinned = _ref_resolve_pins(p, pubs, subscriber)
    for sid, node_id in pinned.items():
        if node_id in failed:
            raise NoFeasiblePlacementError(f"{p.pipeline_id}: pin on failed {node_id}")
    movable = [
        s.stage_id
        for s in p.stages
        if pl.assignment[s.stage_id] in failed and s.stage_id not in pinned
    ]
    if not movable:
        bad = ref_feasible(pl, p, t, w, pubs, subscriber)
        if bad:
            raise NoFeasiblePlacementError(
                f"{p.pipeline_id}: {[v.rule for v in bad]}"
            )
        return pl
    fixed = {
        sid: node
        for sid, node in pl.assignment.items()
        if sid not in movable
    }
    out = _ref_upstream_with_fixed(p, t, w, o, pubs, subscriber, fixed, movable)
    bad = ref_feasible(out, p, t, w, pubs, subscriber)
    if bad:
        raise NoFeasiblePlacementError(f"{p.pipeline_id}: {[v.rule for v in bad]}")
    return out


# ---------------------------------------------------------------------------
# Chain/line placement instances


@dataclass(frozen=True)
class LineInstance:
    """A chain pipeline over a path topology n0 - n1 - ... - n_{len-1}.

    Stages are (compute_cost, mem_mb, selectivity, pin) tuples where pin is a
    node index or None. Latencies/bandwidths are per consecutive link.
    """

    node_ids: tuple[str, ...]
    cpu: tuple[Fraction, ...]
    mem: tuple[Fraction, ...]
    link_latency_ms: tuple[Fraction, ...]
    link_bandwidth: tuple[Fraction, ...]
    stages: tuple[tuple[Fraction, Fraction, Fraction, int | None], ...]
    publisher: int
    subscriber: int
    input_size: int
    rate_per_s: Fraction
    alpha: Fraction
    beta: Fraction

    def to_jsonable(self) -> dict:
        return {
            "node_ids": list(self.node_ids),
            "cpu": [str(v) for v in self.cpu],
            "mem": [str(v) for v in self.mem],
            "link_latency_ms": [str(v) for v in self.link_latency_ms],
            "link_bandwidth": [str(v) for v in self.link_bandwidth],
            "stages": [
                [str(c), str(m), str(s), pin] for c, m, s, pin in self.stages
            ],
            "publisher": self.publisher,
            "subscriber": self.subscriber,
            "input_size": self.input_size,
            "rate_per_s": str(self.rate_per_s),
            "alpha": str(self.alpha),
            "beta": str(self.beta),
        }

    @classmethod
    def from_jsonable(cls, d: dict) -> "LineInstance":
        return cls(
            node_ids=tuple(d["node_ids"]),
            cpu=tuple(Fraction(v) for v in d["cpu"]),
            mem=tuple(Fraction(v) for v in d["mem"]),
            link_latency_ms=tuple(Fraction(v) for v in d["link_latency_ms"]),
            link_bandwidth=tuple(Fraction(v) for v in d["link_bandwidth"]),
            stages=tuple(
                (Fraction(c), Fraction(m), Fraction(s), pin)
                for c, m, s, pin in d["stages"]
            ),
            publisher=d["publisher"],
            subscriber=d["subscriber"],
            input_size=d["input_size"],
            rate_per_s=Fraction(d["rate_per_s"]),
            alpha=Fraction(d["alpha"]),
            beta=Fraction(d["beta"]),
        )


def _scaled(size: int, selectivity: Fraction) -> int:
    return max(1, math.ceil(size * selectivity))


def line_chain_cost(
    inst: LineInstance, assignment: tuple[int, ...]
) -> tuple[Fraction, Fraction]:
    """(latency_ms, bytes_kb) of a chain placement, summed hop by hop.

    assignment[i] is the node index of stage i. On a path topology every
    route is the unique index interval, so this needs no graph search.
    """

    def leg(a: int, b: int, size: int) -> tuple[Fraction, Fraction]:
        lo, hi = min(a, b), max(a, b)
        lat = Fraction(0)
        kb = Fraction(size, 1024)
        moved = Fraction(0)
        for i in range(lo, hi):
            lat += inst.link_latency_ms[i] + kb / inst.link_bandwidth[i]
            moved += kb
        return lat, moved

    latency = Fraction(0)
    bytes_kb = Fraction(0)
    size = inst.input_size
    here = inst.publisher
    for stage_index, (cost_ms, _, selectivity, _) in enumerate(inst.stages):
        there = assignment[stage_index]
        lat, moved = leg(here, there, size)
        latency += lat
        bytes_kb += moved
        latency += cost_ms / inst.cpu[there]
        size = _scaled(size, selectivity)
        here = there
    lat, moved = leg(here, inst.subscriber, size)
    latency += lat
    bytes_kb += moved
    return latency, bytes_kb


def line_chain_objective(
    inst: LineInstance, assignment: tuple[int, ...]
) -> Fraction:
    latency, bytes_kb = line_chain_cost(inst, assignment)
    return inst.alpha * latency + inst.beta * bytes_kb


def line_chain_feasible(
    inst: LineInstance, assignment: tuple[int, ...]
) -> bool:
    """Memory, cpu load, and pin checks; route existence is free on a path."""
    for i, (_, _, _, pin) in enumerate(inst.stages):
        if pin is not None and assignment[i] != pin:
            return False
    per_node_mem: dict[int, Fraction] = {}
    per_node_load: dict[int, Fraction] = {}
    size = inst.input_size
    rate_per_ms = inst.rate_per_s / 1000
    for i, (cost_ms, mem_mb, selectivity, _) in enumerate(inst.stages):
        n = assignment[i]
        per_node_mem[n] = per_node_mem.get(n, Fraction(0)) + mem_mb
        per_node_load[n] = per_node_load.get(n, Fraction(0)) + cost_ms * rate_per_ms
        size = _scaled(size, selectivity)
    for n, used in per_node_mem.items():
        if used > inst.mem[n]:
            return False
    for n, load in per_node_load.items():
        if load > inst.cpu[n]:
            return False
    return True


def line_chain_brute_force(
    inst: LineInstance,
) -> tuple[tuple[int, ...], Fraction] | None:
    """Exhaustive best feasible assignment, ties by the enumeration order
    (lexicographic over node indices). None when nothing is feasible."""
    best: tuple[tuple[int, ...], Fraction] | None = None
    k = len(inst.stages)
    n = len(inst.node_ids)
    for code in range(n**k):
        assignment = []
        rest = code
        for _ in range(k):
            assignment.append(rest % n)
            rest //= n
        combo = tuple(reversed(assignment))
        if not line_chain_feasible(inst, combo):
            continue
        value = line_chain_objective(inst, combo)
        if best is None or value < best[1]:
            best = (combo, value)
    return best


# ---------------------------------------------------------------------------
# Instance generators (seeded; shared by the audits and the committed tables)


def gen_analytic_instance(rng: random.Random) -> LineInstance:
    """The analytic family: uniform cpu, slack capacities, selectivity <= 1,
    latency weight zero, no pins."""
    n = rng.randint(2, 4)
    k = rng.randint(1, 4)
    stages = tuple(
        (
            Fraction(rng.randint(0, 20)),
            Fraction(rng.randint(1, 64)),
            Fraction(rng.randint(1, 10), 10),
            None,
        )
        for _ in range(k)
    )
    rate = Fraction(rng.randint(1, 50))
    # capacities must never bind, even with every stage stacked on one node
    stacked = sum((cost for cost, _, _, _ in stages), Fraction(0)) * rate / 1000
    cpu = Fraction(math.ceil(stacked)) + rng.randint(1, 16)
    positions = rng.sample(range(n), 2)
    return LineInstance(
        node_ids=tuple(f"n{i}" for i in range(n)),
        cpu=(cpu,) * n,
        mem=(Fraction(10**6),) * n,
        link_latency_ms=tuple(
            Fraction(rng.randint(1, 80), 10) for _ in range(n - 1)
        ),
        link_bandwidth=tuple(
            Fraction(rng.randint(50, 2000)) for _ in range(n - 1)
        ),
        stages=stages,
        publisher=positions[0],
        subscriber=positions[1],
        input_size=rng.randint(64, 8192),
        rate_per_s=rate,
        alpha=Fraction(0),
        beta=Fraction(rng.randint(1, 20), 10),
    )


def gen_mixed_instance(rng: random.Random) -> LineInstance:
    """The audit family: varied cpu, sometimes-binding memory, mixed pins,
    selectivities straddling 1, both objective weights positive."""
    n = rng.randint(2, 4)
    k = rng.randint(1, 4)
    positions = rng.sample(range(n), 2)
    stages = []
    for _ in range(k):
        pin: int | None = None
        roll = rng.random()
        if roll < 0.10:
            pin = positions[0]
        elif roll < 0.20:
            pin = positions[1]
        elif roll < 0.25:
            pin = rng.randrange(n)
        stages.append(
            (
                Fraction(rng.randint(0, 30)),
                Fraction(rng.randint(8, 160)),
                Fraction(rng.randint(3, 15), 10),
                pin,
            )
        )
    return LineInstance(
        node_ids=tuple(f"n{i}" for i in range(n)),
        cpu=tuple(Fraction(rng.randint(1, 16)) for _ in range(n)),
        mem=tuple(Fraction(rng.choice([128, 192, 256, 512])) for _ in range(n)),
        link_latency_ms=tuple(
            Fraction(rng.randint(1, 100), 10) for _ in range(n - 1)
        ),
        link_bandwidth=tuple(
            Fraction(rng.randint(20, 1000)) for _ in range(n - 1)
        ),
        stages=tuple(stages),
        publisher=positions[0],
        subscriber=positions[1],
        input_size=rng.randint(64, 8192),
        rate_per_s=Fraction(rng.randint(1, 40)),
        alpha=Fraction(rng.randint(1, 20), 10),
        beta=Fraction(rng.randint(0, 20), 10),
    )


# ---------------------------------------------------------------------------
# Funnel reference interpreter


@dataclass
class RefFunnel:
    """Single funnel as three plain containers and an emission counter.

    mode is "barrier", "count", or "time". The interpreter mirrors the
    documented trigger semantics directly: newest-wins per input under
    barrier, emit-on-nth under count, open-then-drain under time.
    """

    mode: str
    stage_id: str
    out_topic: str
    selectivity: Fraction = Fraction(1)
    fn: str = "concat"
    inputs: tuple[str, ...] = ()
    n: int = 0
    delta_ms: Fraction = Fraction(0)
    slots: dict[str, Publication] = field(default_factory=dict)
    queue: list[tuple[str, Publication]] = field(default_factory=list)
    open_ts: Fraction | None = None
    counter: int = 1

    def _emit(self, items: list[Publication], now: Fraction) -> Publication:
        items = sorted(
            items, key=lambda p: (p.topic.segments, p.source, p.seq)
        )
        if self.fn == "concat":
            payload: tuple[float, ...] = tuple(
                v for p in items for v in p.payload
            )
        elif self.fn == "mean":
            width = min(len(p.payload) for p in items)
            payload = tuple(
                float(
                    sum((Fraction(p.payload[i]) for p in items), Fraction(0))
                    / len(items)
                )
                for i in range(width)
            )
        else:
            raise ValueError(self.fn)
        total = sum(p.size_bytes for p in items)
        out = Publication(
            topic=Topic.parse(self.out_topic),
            source=self.stage_id,
            seq=self.counter,
            ts=now,
            size_bytes=max(1, math.ceil(total * self.selectivity)),
            payload=payload,
            tag="derived",
        )
        self.counter += 1
        self.slots = {}
        self.queue = []
        self.open_ts = None
        return out

    def offer(
        self, p: Publication, now: Fraction, input_id: str | None = None
    ) -> Publication | None:
        if input_id is None:
            input_id = p.source
        if self.mode == "barrier":
            self.slots[input_id] = p
            if set(self.slots) == set(self.inputs):
                return self._emit(list(self.slots.values()), now)
            return None
        if self.mode == "count":
            self.queue.append((input_id, p))
            if len(self.queue) >= self.n:
                return self._emit([q for _, q in self.queue], now)
            return None
        if self.open_ts is None:
            self.open_ts = now
        self.queue.append((input_id, p))
        return None

    def tick(self, now: Fraction) -> Publication | None:
        if self.mode != "time" or self.open_ts is None:
            return None
        if now < self.open_ts + self.delta_ms:
            return None
        return self._emit([q for _, q in self.queue], now)

    def pending_pairs(self) -> set[tuple[str, str, str, int]]:
        """(input_id, topic, source, seq) of everything buffered."""
        if self.mode == "barrier":
            items = list(self.slots.items())
        else:
            items = list(self.queue)
        return {
            (iid, str(p.topic), p.source, p.seq) for iid, p in items
        }


def gen_funnel_script(
    rng: random.Random, inputs: tuple[str, ...]
) -> tuple[dict, list[tuple]]:
    """One random funnel configuration plus a mixed offer/tick script.

    Script entries are ("offer", input_id, publication, now) and
    ("tick", now); timestamps are non-decreasing Fractions.
    """
    mode = rng.choice(["barrier", "count", "time"])
    config = {
        "mode": mode,
        "fn": rng.choice(["concat", "mean"]),
        "selectivity": Fraction(rng.randint(2, 12), 8),
        "inputs": inputs,
        "n": rng.randint(1, 4),
        "delta_ms": Fraction(rng.randint(5, 40)),
    }
    script: list[tuple] = []
    now = Fraction(0)
    seqs = {iid: 0 for iid in inputs}
    for _ in range(rng.randint(1, 12)):
        now += Fraction(rng.randint(0, 200), 10)
        if rng.random() < 0.25:
            script.append(("tick", now))
            continue
        iid = rng.choice(inputs)
        seqs[iid] += 1
        pub = Publication(
            topic=Topic.parse(f"feed/{iid}"),
            source=iid,
            seq=seqs[iid],
            ts=now,
            size_bytes=rng.randint(1, 4096),
            payload=tuple(
                float(rng.randint(-8, 8)) for _ in range(rng.randint(1, 4))
            ),
            tag="raw",
        )
        script.append(("offer", iid, pub, now))
    return config, script


# ---------------------------------------------------------------------------
# Simulator clock references: the Fraction formulas of the event loop


def _ref_ceil_us(ms: Fraction) -> int:
    return -((-ms * 1000) // 1)


def ref_exp_gap_us(rng: random.Random, rate_per_s: Fraction) -> int:
    """Next Poisson gap in µs: -ln(u) / rate ms with u drawn from rng."""
    u = Fraction(rng.getrandbits(53) + 1, 2 ** 53)
    with localcontext() as ctx:
        ctx.prec = 28
        ln_u = (Decimal(u.numerator) / Decimal(u.denominator)).ln()
    gap_ms = -Fraction(ln_u) / (rate_per_s / 1000)
    return max(1, _ref_ceil_us(gap_ms))


def ref_periodic_us(emitted: int, rate_per_s: Fraction) -> int:
    """µs from a periodic topic's start to its publication after emitted ones."""
    period = Fraction(1000, 1) / rate_per_s
    return _ref_ceil_us(emitted * period)


def ref_latency_stats(latencies_ms: list[Fraction]) -> tuple[float, float]:
    """(mean, nearest-rank p95) of a nonempty list of ms latencies."""
    lats = sorted(latencies_ms)
    mean = float(sum(lats) / len(lats))
    rank = -((-95 * len(lats)) // 100)
    return mean, float(lats[rank - 1])
